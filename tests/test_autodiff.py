"""Engine-level tests: forward oracles, backward semantics, optimizer, guards."""

import zlib

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.errors import ContractError, DomainError, ShapeError


def scalar(v):
    return ad.Tensor([[float(v)]])


class TestForwardOracles:
    def test_tanh_origin(self):
        x = scalar(0.0)
        y = ad.tanh(x)
        assert y.values[0, 0] == 0.0
        ad.backward(y)
        assert x.grad[0, 0] == 1.0

    def test_matmul_hand_oracle(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[1.0], [1.0]])
        out = ad.matmul(a, b)
        assert np.array_equal(out.values, [[3.0], [7.0]])

    def test_arcosh_derivative_at_two(self):
        # d/dx arcosh(x) = 1/sqrt(x^2-1); at x=2 that is 1/sqrt(3)
        x = scalar(2.0)
        y = ad.arcosh(x)
        ad.backward(y)
        assert abs(x.grad[0, 0] - 1.0 / np.sqrt(3.0)) < 1e-12
        # independent central-difference oracle
        h = 1e-6
        fd = (np.arccosh(2 + h) - np.arccosh(2 - h)) / (2 * h)
        assert abs(x.grad[0, 0] - fd) < 1e-9

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 5))
        x = ad.Tensor(v)
        assert np.allclose(ad.asum(x).values, v.sum())
        assert np.allclose(ad.amean(x, axis=0).values, v.mean(axis=0, keepdims=True))
        assert np.allclose(ad.amax(x, axis=1).values, v.max(axis=1, keepdims=True))
        assert np.allclose(ad.rownorm(x).values, np.linalg.norm(v, axis=1, keepdims=True))
        assert np.allclose(ad.transpose(x).values, v.T)

    def test_broadcasting_matches_numpy(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((1, 4))
        c = rng.standard_normal((3, 1))
        assert np.allclose(ad.add(ad.Tensor(a), ad.Tensor(b)).values, a + b)
        assert np.allclose(ad.mul(ad.Tensor(a), ad.Tensor(c)).values, a * c)
        assert np.allclose(ad.sub(ad.Tensor(c), ad.Tensor(b)).values, c - b)

    def test_concat_cols_roundtrip(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0]])
        out = ad.concat_cols([a, b])
        assert np.array_equal(out.values, [[1.0, 2.0, 3.0]])

    def test_concat_rows_roundtrip(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = ad.concat_rows([a, b])
        assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        # a single part is already its own concatenation
        assert ad.concat_rows([a]) is a
        assert ad.concat_cols([a]) is a


class TestBackwardSemantics:
    def test_square_gradient(self):
        x = scalar(3.0)
        root = ad.asum(ad.mul(x, x))
        ad.backward(root)
        assert x.grad[0, 0] == 6.0

    def test_unreached_parameter_untouched(self):
        x, p = scalar(3.0), scalar(5.0)
        root = ad.mul(x, x)
        ad.backward(root)
        assert p.grad[0, 0] == 0.0

    def test_two_backwards_double_exactly(self):
        x = scalar(3.0)
        y = ad.mul(x, x)          # shared intermediate
        root = ad.add(y, y)        # root = 2*x^2, dx = 4x = 12
        ad.backward(root)
        once = x.grad.copy()
        ad.backward(root)
        assert np.array_equal(x.grad, 2.0 * once)
        assert once[0, 0] == 12.0

    def test_reused_operand_accumulates(self):
        x = scalar(2.0)
        root = ad.mul(x, x)  # same tensor twice in one op
        ad.backward(root)
        assert x.grad[0, 0] == 4.0

    def test_nonscalar_root_rejected(self):
        x = ad.Tensor([[1.0, 2.0]])
        with pytest.raises(ContractError):
            ad.backward(x)

    def test_zero_grads(self):
        # Adam.zero_grad is the one reset path: it clears every parameter's
        # buffer in place and leaves the next backward to start from zero
        x, w = scalar(3.0), ad.Tensor([[1.0, 2.0]])
        opt = ad.Adam([x, w], lr=0.1)
        buffers = [x.grad, w.grad]
        ad.backward(ad.asum(ad.mul(x, w)))
        assert x.grad[0, 0] == 3.0 and np.array_equal(w.grad, [[3.0, 3.0]])
        opt.zero_grad()
        assert np.array_equal(x.grad, np.zeros((1, 1)))
        assert np.array_equal(w.grad, np.zeros((1, 2)))
        assert x.grad is buffers[0] and w.grad is buffers[1]
        ad.backward(ad.mul(x, x))
        assert x.grad[0, 0] == 6.0

    def test_constant_operands_give_plain_arrays(self):
        a, b = np.array([[1.0, -2.0]]), np.array([[0.5, 0.5]])
        for out in (ad.add(a, b), ad.tanh(a), ad.asum(a), ad.concat_rows([a, b])):
            assert type(out) is np.ndarray
        assert np.array_equal(ad.concat_rows([a, b]), [[1.0, -2.0], [0.5, 0.5]])
        # one Tensor operand links only itself; the constant gets no adjoint
        x = ad.Tensor([[3.0, 4.0]])
        out = ad.concat_rows([a, x, b])
        assert isinstance(out, ad.Tensor) and out._parents == (x,)
        ad.backward(ad.asum(ad.mul(out, out)))
        assert np.array_equal(x.grad, [[6.0, 8.0]])

    def test_backward_runs_each_node_once_newest_first(self):
        # y feeds z and w; taken before both have passed their shares on, y
        # would run its VJP twice (linearity keeps the gradient right, so
        # only the order and the count show it)
        x = scalar(2.0)
        y = ad.mul(x, x)
        z = ad.mul(y, x)
        w = ad.add(y, x)
        root = ad.add(z, w)
        ran = []
        for node in (y, z, w, root):
            node._vjp = lambda g, node=node, vjp=node._vjp: (ran.append(node), vjp(g))[1]
        ad.backward(root)
        assert x.grad[0, 0] == 3.0 * 4.0 + 2.0 * 2.0 + 1.0
        assert ran == [root, w, z, y]

    def test_only_leaves_hold_gradients(self):
        x, w = ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]])
        h = ad.matmul(x, w)               # 11
        y = ad.mul(h, h)                  # 121
        root = ad.asum(ad.sub(y, x))      # y broadcast over x's two columns: 2 y - 3
        for _ in range(2):
            ad.backward(root)
        # two backwards: twice d(2 h^2 - x1 - x2)
        assert np.array_equal(x.grad, 2.0 * (4.0 * 11.0 * w.values.T - 1.0))
        assert np.array_equal(w.grad, 2.0 * (4.0 * 11.0 * x.values.T))
        for node in (h, y, root):
            assert node.grad is None


class TestGuardsAndErrors:
    def test_a_vector_becomes_one_row(self):
        assert np.array_equal(ad.Tensor([1.0, 2.0, 3.0]).values, [[1.0, 2.0, 3.0]])

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))
        for op in (ad.sub, ad.mul, ad.div):
            with pytest.raises(ShapeError, match=f"{op.__name__}: cannot broadcast"):
                op(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))

    def test_concat_shape_error(self):
        a, b = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 4)))
        with pytest.raises(ShapeError, match="concat_rows: column counts differ"):
            ad.concat_rows([a, b])
        with pytest.raises(ShapeError, match="concat_cols: row counts differ"):
            ad.concat_cols([a, ad.Tensor(np.ones((3, 3)))])
        with pytest.raises(ContractError, match="concat_rows: empty"):
            ad.concat_rows([])

    def test_tensor_of_a_3d_array_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="ndim=3"):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_item_needs_a_1x1_tensor(self):
        assert ad.Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ContractError, match="item\\(\\) needs a 1x1 tensor"):
            ad.Tensor(np.ones((1, 2))).item()

    def test_powc_negative_base_with_fractional_exponent(self):
        assert ad.powc(ad.Tensor([[-2.0]]), 3.0).values[0, 0] == -8.0
        with pytest.raises(DomainError, match="powc: negative base"):
            ad.powc(ad.Tensor([[-2.0, 1.0]]), 0.5)

    def test_block_product_rows_must_fill_the_slots(self):
        with pytest.raises(ShapeError, match="block_product: 3 rows for 2 slots"):
            ad.block_product(np.ones((3, 2)), np.array([0, 1]), np.zeros((1, 2, 2)), {})

    def test_log_domain_error_names_op_and_value(self):
        with pytest.raises(DomainError, match="log"):
            ad.log(ad.Tensor([[-0.5]]))
        with pytest.raises(DomainError, match="-0.5"):
            ad.log(ad.Tensor([[-0.5]]))

    def test_div_exact_zero_rejected(self):
        with pytest.raises(DomainError, match="div"):
            ad.div(scalar(1.0), scalar(0.0))

    def test_div_floor_keeps_result_finite(self):
        out = ad.div(scalar(1.0), scalar(1e-300))
        assert np.isfinite(out.values).all()

    def test_arcosh_clamp_keeps_gradient_finite(self):
        x = scalar(1.0)  # singular point of arcosh
        y = ad.arcosh(x)
        ad.backward(y)
        assert np.isfinite(x.grad).all()
        assert np.isfinite(y.values).all()

    def test_artanh_clamp_keeps_gradient_finite(self):
        x = scalar(1.0)
        y = ad.artanh(x)
        ad.backward(y)
        assert np.isfinite(x.grad).all()
        assert np.isfinite(y.values).all()

    def test_forward_values_finite_on_safe_domains(self):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.uniform(-0.9, 0.9, (6, 4)))
        outs = [
            ad.tanh(x), ad.artanh(x), ad.sigmoid(x), ad.relu(x),
            ad.leaky_relu(x), ad.exp(x), ad.arcosh(ad.add(x, 2.0)),
            ad.log(ad.add(x, 2.0)), ad.rownorm(x), ad.powc(x, 2.0),
        ]
        for o in outs:
            assert np.isfinite(o.values).all()


class TestAdam:
    def test_zero_grad_zero_decay_no_move(self):
        p = scalar(1.5)
        opt = ad.Adam([p], lr=0.1)
        opt.step()
        assert p.values[0, 0] == 1.5

    def test_first_step_moves_by_lr(self):
        p = scalar(0.0)
        opt = ad.Adam([p], lr=0.1)
        p.grad[...] = 1.0
        opt.step()
        assert abs(p.values[0, 0] + 0.1) < 1e-8

    def test_decoupled_decay_only(self):
        p = scalar(1.0)
        opt = ad.Adam([p], lr=1e-4, weight_decay=1e-5)
        opt.step()
        assert abs((1.0 - p.values[0, 0]) - 1e-9) < 1e-16

    def test_empty_param_list_noop(self):
        opt = ad.Adam([], lr=0.1)
        opt.step()
        assert opt.t == 1

    def test_step_counter_increments(self):
        p = scalar(0.0)
        opt = ad.Adam([p], lr=0.1)
        for k in range(1, 4):
            opt.step()
            assert opt.t == k


class TestGradcheckPrimitives:
    """Central differences vs analytic gradients for each primitive."""

    def _check(self, build, n_params, low=-0.9, high=0.9, shapes=(), tol=1e-6):
        # crc32, unlike hash(), is the same in every process, so a failing
        # draw replays
        rng = np.random.default_rng(zlib.crc32(build.__name__.encode()))
        shapes = shapes or [(3, 4)] * n_params
        params = [ad.Tensor(rng.uniform(low, high, shape)) for shape in shapes]
        err = ad.finite_difference_gradcheck(lambda: build(*params), params, h=1e-6)
        assert err < tol, f"{build.__name__}: rel err {err}"

    def test_each_primitive(self):
        def p_add(a, b):
            return ad.asum(ad.add(a, b))

        def p_sub(a, b):
            return ad.asum(ad.sub(a, b))

        def p_neg(a):
            return ad.asum(ad.neg(a))

        def p_mul(a, b):
            return ad.asum(ad.mul(a, b))

        def p_div(a, b):
            return ad.asum(ad.div(a, ad.add(b, 2.0)))

        def p_matmul(a, b):
            return ad.asum(ad.matmul(a, ad.transpose(b)))

        def p_pow(a):
            return ad.asum(ad.powc(a, 2.0))

        def p_tanh(a):
            return ad.asum(ad.tanh(a))

        def p_artanh(a):
            return ad.asum(ad.artanh(ad.mul(a, 0.5)))

        def p_arcosh(a):
            return ad.asum(ad.arcosh(ad.add(a, 3.0)))

        def p_sigmoid(a):
            return ad.asum(ad.sigmoid(a))

        def p_exp(a):
            return ad.asum(ad.exp(a))

        def p_log(a):
            return ad.asum(ad.log(ad.add(a, 2.0)))

        def p_rownorm(a):
            return ad.asum(ad.rownorm(a))

        def p_sum_rows(a):
            return ad.asum(ad.mul(ad.asum(a, axis=0), ad.asum(a, axis=0)))

        def p_sum_cols(a):
            return ad.asum(ad.mul(ad.asum(a, axis=1), 3.0))

        def p_mean(a):
            return ad.asum(ad.mul(ad.amean(a, axis=1), ad.amean(a, axis=1)))

        def p_concat(a, b):
            return ad.asum(ad.powc(ad.concat_cols([a, b]), 2.0))

        def p_concat_rows(a, b):
            return ad.asum(ad.powc(ad.concat_rows([a, b, a]), 2.0))

        def p_transpose(a):
            return ad.asum(ad.powc(ad.transpose(a), 2.0))

        def p_clip(a):
            return ad.asum(ad.clip_min(a, 0.25))

        # constant operands on either side of each broadcasting op
        def p_add_const_left(a):
            return ad.asum(ad.mul(ad.add(1.5, a), a))

        def p_add_const_right(a):
            return ad.asum(ad.mul(ad.add(a, 1.5), a))

        def p_sub_const_left(a):
            return ad.asum(ad.mul(ad.sub(1.0, a), a))

        def p_sub_const_right(a):
            return ad.asum(ad.mul(ad.sub(a, 1.0), a))

        def p_mul_const_left(a):
            return ad.asum(ad.mul(ad.mul(3.0, a), a))

        def p_mul_const_right(a):
            return ad.asum(ad.mul(ad.mul(a, 3.0), a))

        def p_div_const_left(a):
            return ad.asum(ad.div(1.0, ad.add(a, 2.0)))

        def p_div_const_right(a):
            return ad.asum(ad.mul(ad.div(a, 3.0), a))

        # the small operand is broadcast against the (3, 4) one
        def p_add_bcast(a, b):
            return ad.asum(ad.mul(ad.add(a, b), b))

        def p_sub_bcast(a, b):
            return ad.asum(ad.mul(ad.sub(a, b), b))

        def p_mul_bcast(a, b):
            return ad.asum(ad.mul(ad.mul(a, b), b))

        def p_div_bcast(a, b):
            return ad.asum(ad.div(ad.add(a, 2.0), ad.add(b, 2.0)))

        rows = (1, 4), (3, 4)
        cols = (3, 4), (3, 1)
        for fn, k, *shapes in [
            (p_add, 2), (p_sub, 2), (p_neg, 1), (p_mul, 2), (p_div, 2),
            (p_matmul, 2), (p_pow, 1), (p_tanh, 1), (p_artanh, 1),
            (p_arcosh, 1), (p_sigmoid, 1), (p_exp, 1), (p_log, 1),
            (p_rownorm, 1), (p_sum_rows, 1), (p_sum_cols, 1), (p_mean, 1),
            (p_concat, 2), (p_concat_rows, 2, (2, 4), (3, 4)),
            (p_transpose, 1), (p_clip, 1),
            (p_add_const_left, 1), (p_add_const_right, 1),
            (p_sub_const_left, 1), (p_sub_const_right, 1),
            (p_mul_const_left, 1), (p_mul_const_right, 1),
            (p_div_const_left, 1), (p_div_const_right, 1),
            (p_add_bcast, 2, *rows), (p_add_bcast, 2, *cols),
            (p_sub_bcast, 2, *rows), (p_sub_bcast, 2, *cols),
            (p_mul_bcast, 2, *rows), (p_mul_bcast, 2, *cols),
            (p_div_bcast, 2, *rows), (p_div_bcast, 2, *cols),
        ]:
            self._check(fn, k, shapes=shapes)

    def test_block_product(self):
        # three graphs of 2, 1 and 3 nodes in a (3, 3) padded layout
        slots = np.array([0, 1, 3, 6, 7, 8])
        rng = np.random.default_rng(9)
        ops = np.zeros((3, 3, 3))
        mask = np.zeros((3, 3, 3))
        for b, n in enumerate((2, 1, 3)):
            ops[b, :n, :n] = rng.uniform(-1.0, 1.0, (n, n))
            mask[b, :n, :n] = np.maximum(rng.integers(0, 2, (n, n)), np.eye(n))
        weights = rng.standard_normal((6, 4))

        def block(x, ops, scores=None):  # the product as one node, adjoints from its vjp
            v, vjp = ad.block_product(ad.values_of(x), slots, ops, {},
                                      scores and tuple(ad.values_of(c) for c in scores))
            return ad.link((x, *(scores or ())), v, lambda g: vjp(g, isinstance(x, ad.Tensor)))

        def p_block(x):
            return ad.asum(ad.mul(block(x, ops), weights))

        def p_block_attention(x, s, t):
            return ad.asum(ad.mul(block(x, mask, (s, t)), weights))

        def p_block_attention_scores_only(s, t):
            x = weights[:, ::-1].copy()
            return ad.asum(ad.mul(block(x, mask, (s, t)), weights))

        self._check(p_block, 1, shapes=[(6, 4)])
        self._check(p_block_attention, 3, shapes=[(6, 4), (6, 1), (6, 1)])
        self._check(p_block_attention_scores_only, 2, shapes=[(6, 1), (6, 1)])

    def test_relu_family_away_from_kink(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-0.9, 0.9, (3, 4))
        vals[np.abs(vals) < 0.05] = 0.1  # keep clear of the nondifferentiable point
        a = ad.Tensor(vals)
        err = ad.finite_difference_gradcheck(lambda: ad.asum(ad.relu(a)), [a], h=1e-6)
        assert err < 1e-6
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.leaky_relu(a, 0.2)), [a], h=1e-6
        )
        assert err < 1e-6

    def test_max_reduction_gradient(self):
        rng = np.random.default_rng(8)
        a = ad.Tensor(rng.uniform(-1, 1, (4, 5)))
        err = ad.finite_difference_gradcheck(
            lambda: ad.asum(ad.mul(ad.amax(a, axis=1), 2.0)), [a], h=1e-6
        )
        assert err < 1e-6
        err = ad.finite_difference_gradcheck(lambda: ad.amax(a), [a], h=1e-6)
        assert err < 1e-6


class TestDeterminism:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(123)
            x = ad.Tensor(rng.standard_normal((5, 5)))
            w = ad.Tensor(rng.standard_normal((5, 3)))
            return ad.asum(ad.tanh(ad.matmul(x, w))).values.copy()

        assert np.array_equal(run(), run())

    def test_glorot_seeded(self):
        a = ad.glorot_uniform(np.random.default_rng(5), 4, 6)
        b = ad.glorot_uniform(np.random.default_rng(5), 4, 6)
        assert np.array_equal(a.values, b.values)
        limit = np.sqrt(6.0 / 10.0)
        assert np.abs(a.values).max() <= limit
