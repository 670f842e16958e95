"""The fused tape nodes against the chains of primitives they replaced
(kept in fused_reference.py): expmap0, logmap0 and geodesic_similarity
values and gradients to 1e-12 over interior rows, rows at the projection
radius and past the artanh clamp, coincident rows and near-zero rows; the
InfoNCE row, the supervised loss and the total objective likewise; finite
differences for each; the step's objective node bit for bit against the
node functions it replaced; and the flat-buffer Adam bit for bit against
the per-parameter loop."""

import warnings

import numpy as np
import pytest

import fused_reference as ref
from dsgc import autodiff as ad
from dsgc.autodiff import Adam, Tensor
from dsgc.errors import ContractError, DomainError, ShapeError
from dsgc.encoders import EUCLIDEAN, HYPERBOLIC, GraphEmbedding, Predictor
from dsgc.losses import (BCE_PROB_FLOOR, LossConfig, _nce, step_objective, supervised_loss,
                         total_objective)
from dsgc.poincare import SIMILARITY_CAP, PoincareBall

CURVATURES = [0.25, 1.0, 2.0]
D = 5


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(np.abs(want).max(initial=0.0), 1e-300)
    assert np.abs(got - want).max(initial=0.0) <= rtol * scale


def directions(rng, n, d=D):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def ball_rows(ball, rng):
    """Rows at every kind of radius a ball op meets, each kind three times:
    interior, exactly the projection radius, past the artanh clamp, and
    near zero (below NORM_FLOOR, above it, and the origin)."""
    interior = directions(rng, 3) * (0.9 * rng.random((3, 1)) * ball.max_norm)
    at_radius = ball.project(directions(rng, 3) * ball.max_norm)
    past_clamp = directions(rng, 3) * ((1.0 - 1e-9) / ball.sqrt_c)
    tiny = directions(rng, 3) * np.array([[1e-17], [1e-12], [0.0]])
    return np.vstack([interior, at_radius, past_clamp, tiny])


def tangent_rows(ball, rng):
    """Tangents whose images are interior, pulled back to the projection
    radius (tanh saturates), and near zero."""
    interior = directions(rng, 3) * (3.0 * rng.random((3, 1)) / ball.sqrt_c)
    pulled = directions(rng, 3) * (np.array([[8.0], [30.0], [1e3]]) / ball.sqrt_c)
    tiny = directions(rng, 3) * np.array([[1e-17], [1e-12], [0.0]])
    return np.vstack([interior, pulled, tiny])


def compare(fused, composite, arrays, seed=0):
    """Values, and the gradients of a random linear functional of the
    output, of fused(*leaves) against composite(*leaves) on fresh leaves."""
    fused_leaves = [Tensor(a.copy()) for a in arrays]
    ref_leaves = [Tensor(a.copy()) for a in arrays]
    out, want = fused(*fused_leaves), composite(*ref_leaves)
    assert_close(out.values, want.values)
    w = np.random.default_rng(seed).standard_normal(want.shape)
    ad.backward(ad.asum(ad.mul(out, w)))
    ad.backward(ad.asum(ad.mul(want, w)))
    for got, expect in zip(fused_leaves, ref_leaves):
        assert_close(got.grad, expect.grad)
    return out


@pytest.mark.parametrize("c", CURVATURES)
class TestAgainstTheComposites:
    def test_expmap0(self, c):
        ball = PoincareBall(c)
        t = tangent_rows(ball, np.random.default_rng(1))
        out = compare(ball.expmap0, lambda x: ref.expmap0(ball, x), [t])
        assert (np.linalg.norm(out.values, axis=1) <= ball.max_norm).all()

    def test_logmap0(self, c):
        ball = PoincareBall(c)
        compare(ball.logmap0, lambda x: ref.logmap0(ball, x),
                [ball_rows(ball, np.random.default_rng(2))])

    def test_geodesic_similarity(self, c):
        ball = PoincareBall(c)
        rng = np.random.default_rng(3)
        u = ball_rows(ball, rng)
        v = ball_rows(ball, rng)
        v[::4] = u[::4]                      # coincident rows hit the cap
        v[1::4] = u[1::4] + 1e-10            # so do near-coincident ones, whose adjoint
                                             # passes through the arcosh clamp
        out = compare(ball.geodesic_similarity, lambda a, b: ref.geodesic_similarity(ball, a, b),
                      [u, v])
        if c == 1.0:
            assert (out.values[::4] == SIMILARITY_CAP).all()
            assert (out.values[[1, 9]] == SIMILARITY_CAP).all()  # not at the radius

    @pytest.mark.parametrize("side", [0, 1])
    def test_geodesic_similarity_broadcasts_one_row(self, c, side):
        ball = PoincareBall(c)
        rng = np.random.default_rng(4)
        rows, one = ball_rows(ball, rng), ball_rows(ball, rng)[:1]
        pair = [one, rows] if side == 0 else [rows, one]
        out = compare(ball.geodesic_similarity, lambda a, b: ref.geodesic_similarity(ball, a, b),
                      pair)
        assert out.shape == (len(rows), 1)

    def test_composed_maps(self, c):
        # log0 of exp0 and a similarity on top: adjoints pass through
        # several fused nodes in a row
        ball = PoincareBall(c)
        t = tangent_rows(ball, np.random.default_rng(5))[:6]

        def chain(exp0, log0, sim):
            return lambda x: sim(exp0(x), exp0(log0(exp0(ad.take_rows(x, np.arange(6)[::-1])))))

        compare(chain(ball.expmap0, ball.logmap0, ball.geodesic_similarity),
                chain(lambda x: ref.expmap0(ball, x), lambda x: ref.logmap0(ball, x),
                      lambda a, b: ref.geodesic_similarity(ball, a, b)),
                [0.5 * t])


class TestNce:
    @pytest.mark.parametrize("t", [0.0625, 1.0, 5.0])
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 7), (6, 1), (4, 3)])
    def test_against_the_composite(self, t, n, k):
        rng = np.random.default_rng(n * 10 + k)
        s_pos, s_neg = rng.uniform(0.0, 8.0, (n, 1)), rng.uniform(0.0, 8.0, (n, k))
        s_neg[0, 0] = s_pos[0, 0]            # a tie with the positive
        if n > 1:
            s_neg[1, -1] = SIMILARITY_CAP    # a capped score dominates its row
        compare(lambda a, b: _nce(a, b, t), lambda a, b: ref.nce(a, b, t), [s_pos, s_neg])

    @pytest.mark.parametrize("k", [1, 3])
    def test_dominant_positive(self, k):
        # the loss is about e^(-16) and the positive's adjoint nearly cancels;
        # the chain's order of accumulation is kept, or it cancels differently
        s_neg = np.random.default_rng(k).uniform(0.0, 1.0, (1, k))
        compare(lambda a, b: _nce(a, b, 0.0625), lambda a, b: ref.nce(a, b, 0.0625),
                [np.full((1, 1), s_neg.max() + 1.0), s_neg])

    def test_row_mismatch_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="_nce: 2 positive rows, negatives \\(3, 4\\)"):
            _nce(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 4))), 1.0)

    def test_equal_scores_and_the_cap(self):
        for score in (0.0, 3.0, SIMILARITY_CAP):
            s = np.full((2, 1), score)
            out = compare(lambda a, b: _nce(a, b, 0.5), lambda a, b: ref.nce(a, b, 0.5),
                          [s, np.full((2, 3), score)])
            assert (out.values == np.log(4.0)).all()


# The label's probability above, at and below the floor, and the other
# classes' complements 1 - p above, next to and below it from both sides:
# 1 - p is a multiple of 2**-53 near 1, so no p puts it exactly at 1e-15.
LABEL_P = [0.3, 1e-12, BCE_PROB_FLOOR, 1e-16, 0.0]
OTHER_P = [0.6, 1.0 - 1e-12, 1.0 - 10 * 2.0 ** -53, 1.0 - 9 * 2.0 ** -53, 1.0]


class TestSupervisedLoss:
    @pytest.mark.parametrize("label", [0, 2])
    @pytest.mark.parametrize("i", range(len(LABEL_P)))
    def test_against_the_composite(self, label, i):
        p = np.array([[OTHER_P[(i + j) % len(OTHER_P)] for j in range(4)]])
        p[0, label] = LABEL_P[i]
        compare(lambda x: supervised_loss(x, label), lambda x: ref.supervised_loss(x, label),
                [p])

    def test_floored_entries_pass_no_gradient(self):
        p = Tensor([[1e-16, 1.0, BCE_PROB_FLOOR, 0.5]])
        ad.backward(supervised_loss(p, 0))
        assert p.grad[0, 0] == 0.0 and p.grad[0, 1] == 0.0
        assert p.grad[0, 2] == 1.0 / (1.0 - BCE_PROB_FLOOR) and p.grad[0, 3] == 2.0


class TestTotalObjective:
    CONFIGS = [LossConfig(), LossConfig(lambda_u=0.5, omega=1.0),
               LossConfig(lambda_u=0.0, omega=0.5), LossConfig(omega=0.0)]

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_against_the_composite(self, cfg):
        rng = np.random.default_rng(8)
        parts = [rng.uniform(0.5, 2.0, (1, 1)), rng.uniform(0.0, 3.0, (1, 1)),
                 rng.uniform(0.0, 3.0, (3, 1)), rng.uniform(0.0, 3.0, (2, 1))]
        out = compare(lambda s, l, *u: total_objective(s, l, list(u), cfg),
                      lambda s, l, *u: ref.total_objective(s, l, list(u), cfg), parts)
        assert (out._parents == ()) == (cfg.omega == 0.0)

    def test_one_column_of_terms(self):
        rng = np.random.default_rng(9)
        cfg = LossConfig(omega=0.3)
        compare(lambda s, l, u: total_objective(s, l, [u], cfg),
                lambda s, l, u: ref.total_objective(s, l, [u], cfg),
                [rng.uniform(0, 1, (1, 1)), rng.uniform(0, 1, (1, 1)), rng.uniform(0, 1, (7, 1))])

    def test_terms_of_different_widths_are_rejected(self):
        with pytest.raises(ShapeError, match="^total_objective: "):
            total_objective(Tensor([[1.0]]), Tensor([[0.5]]),
                            [Tensor(np.ones((2, 1))), Tensor(np.ones((2, 2)))], LossConfig())


class TestStepObjective:
    """The one objective node against the nodes train_step built before it
    (the labeled row's gather, `predict`, `supervised_loss` and the head's
    composite): the total, the supervised and contrastive values, the
    prediction and the adjoints of h_e, h_h, W1, b1, W2 and b2 equal bit for
    bit."""

    SETTINGS = [(1.0, LossConfig()),
                (0.25, LossConfig(temperature=0.5, lambda_u=0.7, omega=1.0)),
                (2.0, LossConfig(temperature=2.0, lambda_u=0.0, omega=0.3)),
                (1.0, LossConfig(omega=0.0))]
    CLASSES = 3

    def arrays(self, ball, n, variant, seed=0):
        """Euclidean rows, hyperbolic points and predictor weights for n
        graphs. "pulled" gives the last Euclidean row a norm whose exp0 is
        pulled back onto the projection radius; "coincident" puts the
        labeled and the last hyperbolic point on their mapped Euclidean
        rows, so those positives hit the cap; "floored" biases the logits so
        that the label's probability and another class's complement fall
        under BCE_PROB_FLOOR."""
        rng = np.random.default_rng(seed)
        h_e = directions(rng, n) * (rng.uniform(0.2, 3.0, (n, 1)) / ball.sqrt_c)
        h_h = directions(rng, n) * (rng.uniform(0.1, 0.9, (n, 1)) * ball.max_norm)
        shapes = [(D, D), (1, D), (D, self.CLASSES), (1, self.CLASSES)]
        weights = [rng.uniform(-0.5, 0.5, shape) for shape in shapes]
        if variant == "pulled":
            h_e[-1] *= 30.0 / np.linalg.norm(h_e[-1]) / ball.sqrt_c
        elif variant == "coincident":
            h_h[[0, -1]] = ball.expmap0(h_e[[0, -1]])
        elif variant == "floored":
            weights[3][0] = [-60.0, 60.0, 0.0]  # label 0; sigmoid(60) rounds to 1
        return h_e, h_h, weights

    def run(self, objective, ball, cfg, arrays, label=0):
        """The objective's four outputs and the adjoints of h_e, h_h, W1, b1,
        W2 and b2, on fresh leaves."""
        h_e, h_h, weights = arrays
        pred = Predictor(D, self.CLASSES, np.random.default_rng(0))
        for t, w in zip(pred.params, weights):
            t.values[...] = w
        e, h = Tensor(h_e.copy()), Tensor(h_h.copy())
        out = objective(GraphEmbedding(e, EUCLIDEAN), GraphEmbedding(h, HYPERBOLIC), pred,
                        label, ball, cfg)
        ad.backward(out[0])
        return out, [e.grad, h.grad] + [t.grad for t in pred.params]

    @pytest.mark.parametrize("variant", ["plain", "pulled", "coincident", "floored"])
    @pytest.mark.parametrize("setting", range(len(SETTINGS)))
    @pytest.mark.parametrize("unlabeled", [1, 2, 7])
    def test_bit_identical_to_the_composite(self, unlabeled, setting, variant):
        c, cfg = self.SETTINGS[setting]
        ball = PoincareBall(c)
        arrays = self.arrays(ball, unlabeled + 1, variant, seed=unlabeled)
        (total, sup, contrastive, prediction), grads = self.run(step_objective, ball, cfg,
                                                                arrays)
        want, want_grads = self.run(ref.step_objective, ball, cfg, arrays)
        assert np.array_equal(total.values, want[0].values)
        assert (sup, contrastive) == want[1:3]
        assert np.array_equal(prediction, want[3])
        assert len(grads) == len(want_grads) == 6
        for got, expect in zip(grads, want_grads):
            assert np.array_equal(got, expect)
        if variant == "pulled":  # tanh saturates: the row sits on the projection radius
            mapped = ball.expmap0(arrays[0][-1:])
            assert np.linalg.norm(mapped) == pytest.approx(ball.max_norm, rel=1e-15)
        if variant == "coincident":
            sim = ball.geodesic_similarity(arrays[1][-1:], ball.expmap0(arrays[0][-1:]))
            assert sim[0, 0] == pytest.approx(SIMILARITY_CAP * ball.sqrt_c, rel=1e-12)
        if variant == "floored":  # no gradient passes a floored entry
            assert prediction[0] < BCE_PROB_FLOOR and 1.0 - prediction[1] < BCE_PROB_FLOOR
            assert not grads[4][:, :2].any() and not grads[5][:, :2].any()
        assert all(p._vjp is None for p in total._parents)
        assert len(total._parents) == (5 if cfg.omega == 0.0 else 6)

    def test_omega_0_reads_no_hyperbolic_points(self):
        ball = PoincareBall(1.0)
        h_e, _, _ = self.arrays(ball, 1, "plain")
        pred = Predictor(D, self.CLASSES, np.random.default_rng(0))
        e = Tensor(h_e)
        total, sup, contrastive, prediction = step_objective(
            GraphEmbedding(e, EUCLIDEAN), None, pred, 2, ball, LossConfig(omega=0.0))
        assert total._parents == (e, *pred.params)
        assert total.item() == sup and contrastive == 0.0 and prediction.shape == (3,)

    def views(self, n=4, seed=3):
        ball = PoincareBall(2.0)
        h_e, h_h, _ = self.arrays(ball, n, "plain", seed)
        return ball, h_e, h_h

    def raises(self, message, ball, h_e, h_h):
        pred = Predictor(D, self.CLASSES, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                step_objective(GraphEmbedding(Tensor(h_e), EUCLIDEAN),
                               GraphEmbedding(Tensor(h_h), HYPERBOLIC), pred, 0, ball,
                               LossConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_euclidean_row_names_expmap0_and_the_row(self, value, row):
        ball, h_e, h_h = self.views()
        h_e[row, 1] = value
        self.raises(f"^expmap0: row {row} has a non-finite norm ", ball, h_e, h_h)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.8])
    @pytest.mark.parametrize("row", [0, 3])
    def test_bad_hyperbolic_point_names_the_batch_row(self, value, row):
        # 0.8 is outside the ball of c = 2 (radius 0.707); the row named is
        # the batch row, not a row of the stacked pairs
        ball, h_e, h_h = self.views()
        h_h[row, 0] = value
        self.raises(f"^geodesic_similarity: row {row} of the hyperbolic view is not "
                    f"strictly inside the ball", ball, h_e, h_h)

    @pytest.mark.parametrize("row", [0, 3])
    def test_mapped_euclidean_point_outside_names_the_batch_row(self, row):
        # exp0 keeps its rows inside, so a ball whose exp0 leaks one out
        # stands in for a mapped row the check must catch
        class Leaky(PoincareBall):
            def exp0_rows(self, tv):
                y, vjp = super().exp0_rows(tv)
                y[row] *= 1.5 / np.linalg.norm(y[row]) / self.sqrt_c
                return y, vjp

        _, h_e, h_h = self.views()
        self.raises(f"^geodesic_similarity: row {row} of the mapped Euclidean view is not "
                    f"strictly inside the ball, c\\*\\|\\|x\\|\\|\\^2 = 2.25$",
                    Leaky(2.0), h_e, h_h)

    def test_views_of_different_sizes_are_rejected(self):
        ball, h_e, h_h = self.views()
        pred = Predictor(D, self.CLASSES, np.random.default_rng(0))
        with pytest.raises(ContractError, match="^step_objective: "):
            step_objective(GraphEmbedding(Tensor(h_e), EUCLIDEAN),
                           GraphEmbedding(Tensor(h_h[:3]), HYPERBOLIC), pred, 0, ball,
                           LossConfig())


class TestFiniteDifferences:
    @pytest.mark.parametrize("c", CURVATURES)
    def test_ball_ops(self, c):
        ball = PoincareBall(c)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, D))
        t = Tensor(directions(rng, 4) * (rng.uniform(0.2, 2.0, (4, 1)) / ball.sqrt_c))
        u = Tensor(directions(rng, 4) * (rng.uniform(0.1, 0.8, (4, 1)) / ball.sqrt_c))
        v = Tensor(directions(rng, 4) * (rng.uniform(0.1, 0.8, (4, 1)) / ball.sqrt_c))
        one = Tensor(directions(rng, 1) * (0.5 / ball.sqrt_c))
        cases = [
            (lambda: ad.asum(ad.mul(ball.expmap0(t), w)), [t]),
            (lambda: ad.asum(ad.mul(ball.logmap0(u), w)), [u]),
            (lambda: ad.asum(ad.mul(ball.geodesic_similarity(u, v), w[:, :1])), [u, v]),
            (lambda: ad.asum(ad.mul(ball.geodesic_similarity(one, v), w[:, :1])), [one, v]),
        ]
        for fn, leaves in cases:
            assert ad.finite_difference_gradcheck(fn, leaves, h=1e-6) < 1e-4

    def test_nce(self):
        rng = np.random.default_rng(7)
        s_pos, s_neg = Tensor(rng.uniform(0, 3, (3, 1))), Tensor(rng.uniform(0, 3, (3, 4)))
        w = rng.standard_normal((3, 1))
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.mul(_nce(s_pos, s_neg, 0.7), w)), [s_pos, s_neg], h=1e-6)
        assert err < 1e-4


    def test_supervised_loss(self):
        p = Tensor([[0.2, 0.7, 0.4]])
        assert ad.finite_difference_gradcheck(lambda: supervised_loss(p, 1), [p], h=1e-6) < 1e-4

    def test_total_objective(self):
        rng = np.random.default_rng(10)
        leaves = [Tensor(rng.uniform(0, 2, shape)) for shape in [(1, 1), (1, 1), (3, 1), (2, 1)]]
        cfg = LossConfig(lambda_u=0.7, omega=0.2)
        err = ad.finite_difference_gradcheck(
            lambda: total_objective(leaves[0], leaves[1], leaves[2:], cfg), leaves, h=1e-6)
        assert err < 1e-4


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
class TestNonFiniteRows:
    """A NaN or infinite row is rejected by name before any arithmetic warns."""

    def raises(self, op, row, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{op}: row {row} "):
                fn()

    def bad(self, value):
        x = np.array([[0.1, 0.2], [0.0, -0.1], [0.3, 0.0]])
        x[1, 0] = value
        return x

    def test_expmap0(self, value):
        ball = PoincareBall()
        self.raises("expmap0", 1, lambda: ball.expmap0(Tensor(self.bad(value))))

    def test_logmap0(self, value):
        ball = PoincareBall()
        assert not ball.contains(self.bad(value))
        self.raises("logmap0", 1, lambda: ball.logmap0(Tensor(self.bad(value))))

    def test_geodesic_similarity(self, value):
        ball = PoincareBall(2.0)
        good = Tensor(np.zeros((3, 2)))
        self.raises("geodesic_similarity", "1 of u",
                    lambda: ball.geodesic_similarity(Tensor(self.bad(value)), good))
        self.raises("geodesic_similarity", "1 of v",
                    lambda: ball.geodesic_similarity(good, self.bad(value)))


def test_outside_rows_are_named():
    ball = PoincareBall(4.0)
    x = np.array([[0.1, 0.0], [0.0, 0.4], [0.5, 0.0]])
    with pytest.raises(DomainError, match="^logmap0: row 2 .*= 1$"):
        ball.logmap0(Tensor(x))
    with pytest.raises(DomainError, match="^geodesic_similarity: row 2 of v "):
        ball.geodesic_similarity(Tensor(x[:1]), Tensor(x))


def param_set(seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal(shape)) for shape in [(3, 4), (1, 4), (4, 1), (1, 1), (5, 2)]]


class TestFlatAdam:
    def test_bit_identical_to_the_loop_over_50_steps(self):
        flat, loop = param_set(0), param_set(0)
        opt = Adam(flat, lr=1e-2, weight_decay=1e-3)
        reference = ref.LoopAdam(loop, lr=1e-2, weight_decay=1e-3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            opt.zero_grad()
            reference.zero_grad()
            for p, q in zip(flat, loop):
                g = rng.standard_normal(p.shape)
                g[rng.random(p.shape) < 0.2] = 0.0
                p.grad += g
                q.grad += g
            opt.step()
            reference.step()
        for p, q in zip(flat, loop):
            assert np.array_equal(p.values, q.values)

    def test_parameters_are_views_of_the_buffers(self):
        params = param_set(2)
        before = [p.values.copy() for p in params]
        opt = Adam(params, lr=0.1)
        for p, b in zip(params, before):
            assert np.array_equal(p.values, b)
            assert np.shares_memory(p.values, opt.values)
            assert np.shares_memory(p.grad, opt.grad)
        for p in params:
            p.grad[...] = 1.0
        opt.step()
        for p, b in zip(params, before):
            assert np.allclose(p.values, b - 0.1)
        opt.zero_grad()
        assert not any(p.grad.any() for p in params)

    def test_repeated_parameter_rejected(self):
        p, q = param_set(3)[:2]
        with pytest.raises(ContractError, match="more than once"):
            Adam([p, q, p], lr=0.1)

    def test_non_leaf_rejected(self):
        p = param_set(3)[0]
        with pytest.raises(ContractError, match="leaf"):
            Adam([ad.mul(p, 2.0)], lr=0.1)

    def test_empty_is_a_noop(self):
        opt = Adam([], lr=0.1)
        opt.zero_grad()
        opt.step()
        assert opt.t == 1 and opt.values.size == 0

    def test_second_optimizer_takes_over(self):
        params = param_set(4)
        first = Adam(params, lr=0.1)
        for p in params:
            p.grad[...] = 1.0
        first.step()
        after_first = [p.values.copy() for p in params]
        second = Adam(params, lr=0.1)
        for p, a in zip(params, after_first):
            assert np.array_equal(p.values, a) and p.grad.all()
            assert np.shares_memory(p.values, second.values)
        first.step()                         # its buffers are no longer the parameters
        assert all(np.array_equal(p.values, a) for p, a in zip(params, after_first))
        second.step()
        assert all(np.allclose(p.values, a - 0.1) for p, a in zip(params, after_first))

    def test_gradcheck_on_bound_parameters(self):
        params = param_set(5)[:2]
        opt = Adam(params, lr=0.1)
        before = opt.values.copy()
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.tanh(ad.matmul(params[1], ad.transpose(params[0])))), params)
        assert err < 1e-6
        assert np.array_equal(opt.values, before)
