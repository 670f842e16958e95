"""Ball geometry tests: worked values, inverses, containment, gradients."""

import math
import warnings

import numpy as np
import pytest

from conftest import inside
from dsgc import autodiff as ad
from dsgc.autodiff import Tensor
from dsgc.errors import ContractError, DomainError, ShapeError
from dsgc.poincare import SIMILARITY_CAP, PoincareBall


def rand_ball_points(rng, n, d, radius=0.85):
    """Rows uniformly in the ball of the given Euclidean radius."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random((n, 1)) ** (1.0 / d)
    return x * r


class TestSimilarity:
    def test_worked_value_half_origin(self):
        ball = PoincareBall()
        sim = ball.geodesic_similarity(Tensor([[0.5, 0.0]]), Tensor([[0.0, 0.0]]))
        assert abs(sim.values[0, 0] - 1.0 / math.log(3.0)) < 1e-12

    def test_unbroadcastable_rows_are_a_shape_error(self):
        u, v = Tensor(np.full((2, 2), 0.1)), Tensor(np.full((3, 2), 0.1))
        with pytest.raises(ShapeError, match="geodesic_similarity: cannot broadcast"):
            PoincareBall().geodesic_similarity(u, v)

    def test_coincident_points_hit_cap(self):
        ball = PoincareBall()
        p = Tensor([[0.3, 0.4]])
        sim = ball.geodesic_similarity(p, Tensor([[0.3, 0.4]]))
        assert sim.values[0, 0] == SIMILARITY_CAP
        # float64 arccosh near 1 carries ~4e-5 relative rounding, so the
        # nominal 1/sqrt(2e-12) value is matched loosely, the cap exactly
        assert abs(sim.values[0, 0] - 1.0 / math.sqrt(2e-12)) / SIMILARITY_CAP < 1e-4

    def test_symmetry_random_pairs(self):
        ball = PoincareBall()
        rng = np.random.default_rng(0)
        u = rand_ball_points(rng, 200, 5)
        v = rand_ball_points(rng, 200, 5)
        a = ball.geodesic_similarity(Tensor(u), Tensor(v)).values
        b = ball.geodesic_similarity(Tensor(v), Tensor(u)).values
        assert np.max(np.abs(a - b)) < 1e-12

    def test_radial_monotone_decrease_from_origin(self):
        ball = PoincareBall()
        w = np.array([[0.6, 0.8]])
        o = Tensor([[0.0, 0.0]])
        sims = [
            ball.geodesic_similarity(o, Tensor(w * (k / 10.0))).values[0, 0]
            for k in range(1, 10)
        ]
        assert all(sims[i] > sims[i + 1] for i in range(len(sims) - 1))

    def test_boundary_point_rejected(self):
        ball = PoincareBall()
        with pytest.raises(DomainError):
            ball.geodesic_similarity(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]]))
        with pytest.raises(DomainError):
            ball.geodesic_similarity(Tensor([[0.0, 0.0]]), Tensor([[0.8, 0.8]]))

    def test_general_curvature_matches_closed_form(self):
        c = 2.25
        ball = PoincareBall(c)
        rng = np.random.default_rng(1)
        u = rand_ball_points(rng, 50, 3) / math.sqrt(c)
        v = rand_ball_points(rng, 50, 3) / math.sqrt(c)
        got = ball.geodesic_similarity(Tensor(u), Tensor(v)).values[:, 0]
        su, sv = u * math.sqrt(c), v * math.sqrt(c)
        num = 2 * ((su - sv) ** 2).sum(1)
        den = (1 - (su * su).sum(1)) * (1 - (sv * sv).sum(1))
        expect = 1.0 / (np.arccosh(1 + num / den) / math.sqrt(c))
        assert np.allclose(got, expect, rtol=1e-12)


class TestExpLogMaps:
    def test_exp_worked_value(self):
        ball = PoincareBall()
        out = ball.expmap0(Tensor([[0.5, 0.0]]))
        assert abs(out.values[0, 0] - math.tanh(0.5)) < 1e-15
        assert out.values[0, 1] == 0.0

    def test_exp_zero_is_origin(self):
        ball = PoincareBall()
        out = ball.expmap0(Tensor([[0.0, 0.0]]))
        assert np.array_equal(out.values, [[0.0, 0.0]])

    def test_exp_large_tangent_stays_inside(self):
        ball = PoincareBall()
        t = np.array([[100.0, 0.0]])
        out = ball.expmap0(Tensor(t))
        assert np.linalg.norm(out.values) < 1.0
        assert inside(ball, out)

    def test_log_worked_value(self):
        ball = PoincareBall()
        out = ball.logmap0(Tensor([[math.tanh(0.5), 0.0]]))
        assert abs(out.values[0, 0] - 0.5) < 1e-12

    def test_log_origin_is_zero(self):
        ball = PoincareBall()
        out = ball.logmap0(Tensor([[0.0, 0.0]]))
        assert np.array_equal(out.values, [[0.0, 0.0]])

    def test_log_boundary_rejected(self):
        ball = PoincareBall()
        with pytest.raises(DomainError):
            ball.logmap0(Tensor([[0.0, 1.0]]))

    def test_roundtrip_random_tangents(self):
        ball = PoincareBall()
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2000, 4))
        t *= (3.0 * rng.random((2000, 1))) / np.linalg.norm(t, axis=1, keepdims=True)
        back = ball.logmap0(ball.expmap0(Tensor(t))).values
        assert np.max(np.abs(back - t)) < 1e-9

    def test_roundtrip_general_curvature(self):
        ball = PoincareBall(0.5)
        rng = np.random.default_rng(3)
        t = rng.standard_normal((500, 4))
        back = ball.logmap0(ball.expmap0(Tensor(t))).values
        assert np.max(np.abs(back - t)) < 1e-9


class TestMobiusOps:
    def test_matvec_identity(self):
        ball = PoincareBall()
        u = Tensor([[0.3, -0.2, 0.1]])
        out = ball.mobius_matvec(Tensor(np.eye(3)), u)
        assert np.allclose(out.values, u.values, atol=1e-12)

    def test_matvec_zero_matrix_gives_origin(self):
        ball = PoincareBall()
        out = ball.mobius_matvec(Tensor(np.zeros((3, 3))), Tensor([[0.3, -0.2, 0.1]]))
        assert np.allclose(out.values, 0.0)

    def test_matvec_doubling_worked_value(self):
        ball = PoincareBall()
        u = Tensor([[math.tanh(0.5), 0.0]])
        out = ball.mobius_matvec(Tensor(2.0 * np.eye(2)), u)
        assert abs(out.values[0, 0] - math.tanh(1.0)) < 1e-12
        assert abs(out.values[0, 1]) < 1e-15

    def test_matvec_shape_mismatch(self):
        ball = PoincareBall()
        with pytest.raises(ShapeError):
            ball.mobius_matvec(Tensor(np.eye(3)), Tensor([[0.1, 0.2]]))

    def test_bias_zero_is_identity(self):
        ball = PoincareBall()
        u = Tensor([[0.3, -0.2]])
        out = ball.mobius_bias_add(u, Tensor([[0.0, 0.0]]))
        assert np.allclose(out.values, u.values, atol=1e-12)

    def test_bias_from_origin_is_exp(self):
        ball = PoincareBall()
        out = ball.mobius_bias_add(Tensor([[0.0, 0.0]]), Tensor([[0.5, 0.0]]))
        assert abs(out.values[0, 0] - math.tanh(0.5)) < 1e-15

    def test_bias_deterministic(self):
        ball = PoincareBall()
        args = (Tensor([[0.2, 0.1]]), Tensor([[0.4, -0.3]]))
        a = ball.mobius_bias_add(*args).values
        b = ball.mobius_bias_add(*args).values
        assert np.array_equal(a, b)

    def test_activation_tanh_fixes_origin(self):
        ball = PoincareBall()
        out = ball.hyperbolic_activation(
            Tensor([[0.0, 0.0]]), Tensor(np.eye(2)), Tensor([[0.0, 0.0]]), "tanh"
        )
        assert np.allclose(out.values, 0.0)

    def test_activation_relu_passes_positive(self):
        ball = PoincareBall()
        u = Tensor([[math.tanh(0.5), 0.0]])
        out = ball.hyperbolic_activation(
            u, Tensor(np.eye(2)), Tensor([[0.0, 0.0]]), "relu"
        )
        assert abs(out.values[0, 0] - math.tanh(0.5)) < 1e-12

    def test_activation_unknown_kind(self):
        ball = PoincareBall()
        with pytest.raises(ContractError, match="activation"):
            ball.hyperbolic_activation(
                Tensor([[0.1, 0.0]]), Tensor(np.eye(2)), Tensor([[0.0, 0.0]]), "gelu"
            )

    def test_containment_random_inputs(self):
        ball = PoincareBall()
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = Tensor(rand_ball_points(rng, 6, 3, radius=0.98))
            W = Tensor(rng.standard_normal((3, 3)))
            b = Tensor(rng.standard_normal((1, 3)) * 0.5)
            for out in (
                ball.mobius_matvec(W, u),
                ball.mobius_bias_add(u, b),
                ball.hyperbolic_activation(u, W, b, "relu"),
                ball.hyperbolic_activation(u, W, b, "sigmoid"),
                ball.expmap0(Tensor(rng.standard_normal((6, 3)) * 5.0)),
            ):
                assert inside(ball, out)


class TestProjection:
    def test_interior_untouched(self):
        ball = PoincareBall()
        u = Tensor([[0.3, 0.4]])
        assert ball.project(u) is u

    def test_outside_pulled_to_margin(self):
        ball = PoincareBall()
        out = ball.project(Tensor([[3.0, 4.0]]))
        assert abs(np.linalg.norm(out.values) - (1.0 - 1e-5)) < 1e-12

    def test_mixed_rows(self):
        ball = PoincareBall()
        out = ball.project(Tensor([[0.1, 0.0], [2.0, 0.0]]))
        assert out.values[0, 0] == 0.1
        assert abs(out.values[1, 0] - (1.0 - 1e-5)) < 1e-12

    def test_near_boundary_rows_land_inside_and_reproject_unchanged(self):
        # rows a hair past the radius are where rounding of the rescale
        # used to leave the result an ulp outside
        rng = np.random.default_rng(21)
        for c in (0.5, 1.0, 2.0, 3.7):
            ball = PoincareBall(c)
            for d in (2, 16, 64):
                x = rng.standard_normal((500, d))
                x *= ball.max_norm / np.linalg.norm(x, axis=1, keepdims=True)
                x *= 1.0 + rng.uniform(0.0, 1e-3, (500, 1))
                once = ball.project(Tensor(x)).values
                assert (np.linalg.norm(once, axis=1) <= ball.max_norm).all()
                assert np.array_equal(ball.project(Tensor(once)).values, once)

    @pytest.mark.parametrize("row", [[math.inf, 0.0], [math.nan, 0.0], [1e308, 1e308]])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_norm_raises_naming_the_row(self, row):
        # inf * 0 used to give NaN and an overflowing norm the origin
        ball = PoincareBall()
        with pytest.raises(DomainError, match="project: row 1 "):
            ball.project(Tensor([[0.1, 0.2], row]))
        with pytest.raises(DomainError, match="project: row 0 "):
            ball.project(np.array([row]))


@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("op", ["expmap0", "logmap0", "project", "geodesic_similarity"])
def test_overflowing_finite_row_raises_domain_error_before_numpy_warns(op, c):
    # squaring 1e200 overflows; the op must name the row, not warn first
    ball, row = PoincareBall(c), Tensor([[1e200, 0.0]])
    call = {
        "expmap0": lambda: ball.expmap0(row),
        "logmap0": lambda: ball.logmap0(row),
        "project": lambda: ball.project(row),
        "geodesic_similarity": lambda: ball.geodesic_similarity(row, Tensor([[0.0, 0.0]])),
    }[op]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{op}: row 0 "):
            call()


class TestBallDomain:
    def test_curvature_must_be_positive(self):
        with pytest.raises(ContractError):
            PoincareBall(0.0)
        with pytest.raises(ContractError):
            PoincareBall(-1.0)
        for c in (math.inf, math.nan):  # an infinite c would squash every point to 0
            with pytest.raises(ContractError):
                PoincareBall(c)


class TestGeometryGradients:
    def test_similarity_gradcheck(self):
        ball = PoincareBall()
        rng = np.random.default_rng(5)
        u = Tensor(rand_ball_points(rng, 3, 4, radius=0.7))
        v = Tensor(rand_ball_points(rng, 3, 4, radius=0.7))
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ball.geodesic_similarity(u, v)), [u, v], h=1e-6
        )
        assert err < 1e-5

    def test_exp_log_gradcheck(self):
        ball = PoincareBall()
        rng = np.random.default_rng(6)
        t = Tensor(rng.standard_normal((3, 4)) * 0.5)
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.tanh(ball.expmap0(t))), [t], h=1e-6
        )
        assert err < 1e-5
        u = Tensor(rand_ball_points(rng, 3, 4, radius=0.7))
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.tanh(ball.logmap0(u))), [u], h=1e-6
        )
        assert err < 1e-5

    def test_mobius_gradcheck(self):
        ball = PoincareBall()
        rng = np.random.default_rng(7)
        u = Tensor(rand_ball_points(rng, 2, 3, radius=0.6))
        W = Tensor(rng.standard_normal((3, 3)) * 0.5)
        b = Tensor(rng.standard_normal((1, 3)) * 0.3)

        def objective():
            out = ball.hyperbolic_activation(u, W, b, "tanh")
            return ad.asum(ad.mul(out, out))

        err = ad.finite_difference_gradcheck(objective, [u, W, b], h=1e-6)
        assert err < 1e-5
