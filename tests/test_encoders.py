"""Encoder layer oracles, readout, dual paths, predictor, invariance."""

import numpy as np
import pytest

from conftest import inside
from dsgc import autodiff as ad
from dsgc.autodiff import Tensor
from dsgc.data import Graph, canonical_edges, synthesize_features
from dsgc.encoders import (
    EUCLIDEAN,
    HYPERBOLIC,
    EncoderKind,
    GraphBatch,
    GraphEmbedding,
    GraphEncoder,
    Predictor,
    encode_euclidean,
    encode_hyperbolic,
    predict,
)
from dsgc.errors import ContractError, ShapeError
from dsgc.poincare import PoincareBall

ALL_KINDS = list(EncoderKind)


def two_node_graph():
    return Graph(n=2, edges=[(0, 1)], features=np.array([[1.0], [0.0]]))


def edgeless_batch(n):
    """A batch of one n-node graph, for reading out n rows."""
    return GraphBatch([Graph(n=n, edges=[], features=np.zeros((n, 1)))])


def euc(rows):
    return GraphEmbedding(Tensor(rows), EUCLIDEAN)


def random_featurized_graph(rng, n_lo=4, n_hi=9, cap=3):
    n = int(rng.integers(n_lo, n_hi))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    for _ in range(n):
        a, b = rng.integers(n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64))
    return synthesize_features(g, cap=cap)


def first_layer(enc, g):
    """Layer 0 of enc, relu included, over g's features: its value."""
    return enc.layer_rows(g.features, GraphBatch([g]), 0, False)[0]


class TestLayerOracles:
    def test_gcn_two_node_worked_value(self):
        g = two_node_graph()
        enc = GraphEncoder("gcn", in_dim=1, hidden_dim=1, num_layers=1,
                           rng=np.random.default_rng(0))
        enc.layer_params[0]["W"].values[...] = [[1.0]]
        out = first_layer(enc, g)
        assert np.allclose(out, np.maximum([[0.5], [0.5]], 0.0))

    def test_gin_identity_mlp(self):
        g = two_node_graph()
        enc = GraphEncoder("gin", in_dim=1, hidden_dim=1, num_layers=1,
                           rng=np.random.default_rng(0))
        p = enc.layer_params[0]
        p["W1"].values[...] = [[1.0]]
        p["W2"].values[...] = [[1.0]]
        out = first_layer(enc, g)
        assert np.allclose(out, np.maximum([[1.0], [1.0]], 0.0))

    def test_gat_uniform_attention_on_identical_features(self):
        # identical rows -> equal scores -> uniform weights -> neighborhood mean
        g = Graph(n=4, edges=[(0, 1), (0, 2), (0, 3)],
                  features=np.tile([[0.7, -0.3]], (4, 1)))
        enc = GraphEncoder("gat", in_dim=2, hidden_dim=3, num_layers=1,
                           rng=np.random.default_rng(1))
        out = first_layer(enc, g)
        z = g.features @ enc.layer_params[0]["W"].values
        a = np.zeros((4, 4))
        for i, j in g.edges:
            a[i, j] = a[j, i] = 1.0
        a += np.eye(4)
        mean_agg = (a / a.sum(axis=1, keepdims=True)) @ z
        # the layer's relu keeps the positive column and zeroes the others
        assert (mean_agg < 0.0).any() and (mean_agg > 0.0).any()
        assert np.allclose(out, np.maximum(mean_agg, 0.0), atol=1e-12)

    def test_gat_attention_worked_value(self):
        # distinct rows, so the output depends on every attention weight;
        # the weights are written out from the formula, not from the code
        g = Graph(n=3, edges=[(0, 1), (1, 2)],
                  features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -2.0]]))
        enc = GraphEncoder("gat", in_dim=2, hidden_dim=2, num_layers=1,
                           rng=np.random.default_rng(0))
        p = enc.layer_params[0]
        p["W"].values[...] = [[1.0, -0.5], [0.5, 1.0]]
        p["a_src"].values[...] = [[0.3], [-0.7]]
        p["a_dst"].values[...] = [[1.1], [0.4]]
        out = first_layer(enc, g)
        z = g.features @ np.array([[1.0, -0.5], [0.5, 1.0]])
        s, t = z @ [0.3, -0.7], z @ [1.1, 0.4]
        want = np.zeros((3, 2))
        for i, nbrs in enumerate([[0, 1], [0, 1, 2], [1, 2]]):
            e = np.array([s[i] + t[j] for j in nbrs])
            e = np.where(e > 0.0, e, 0.2 * e)
            alpha = np.exp(e) / np.exp(e).sum()
            want[i] = alpha @ z[nbrs]
        assert (want < 0.0).any() and (want > 0.0).any()
        assert np.allclose(out, np.maximum(want, 0.0), atol=1e-12)

    def test_sage_concat_form(self):
        g = two_node_graph()
        enc = GraphEncoder("graphsage", in_dim=1, hidden_dim=1, num_layers=1,
                           rng=np.random.default_rng(2))
        enc.layer_params[0]["W"].values[...] = [[1.0], [10.0]]
        out = first_layer(enc, g)
        # rows: relu(concat(h_i, mean of neighbors) @ [1, 10]^T)
        assert np.allclose(out, np.maximum([[1.0 + 0.0], [0.0 + 10.0]], 0.0))

    def test_width_mismatch_rejected(self):
        g = two_node_graph()
        enc = GraphEncoder("gcn", in_dim=3, hidden_dim=2, num_layers=1,
                           rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            first_layer(enc, g)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            GraphEncoder("transformer", in_dim=2, hidden_dim=2, num_layers=1,
                         rng=np.random.default_rng(0))

    def test_layer_count_positive(self):
        with pytest.raises(ContractError):
            GraphEncoder("gcn", in_dim=2, hidden_dim=2, num_layers=0,
                         rng=np.random.default_rng(0))


class TestReadout:
    """The mean readout, one matmul with the batch's `readout` matrix."""

    def test_single_node(self):
        out = ad.matmul(edgeless_batch(1).readout, Tensor([[3.0, -1.0]]))
        assert np.array_equal(out.values, [[3.0, -1.0]])

    def test_mean_of_two(self):
        out = ad.matmul(edgeless_batch(2).readout, Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(out.values, [[0.5, 0.5]])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        h, readout = rng.standard_normal((6, 4)), edgeless_batch(6).readout
        a = ad.matmul(readout, h)
        b = ad.matmul(readout, h[rng.permutation(6)])
        assert np.allclose(a, b, atol=1e-12)


class TestEncodePaths:
    def test_euclidean_one_layer_composition(self):
        g = two_node_graph()
        enc = GraphEncoder("gcn", in_dim=1, hidden_dim=1, num_layers=1,
                           rng=np.random.default_rng(0))
        enc.layer_params[0]["W"].values[...] = [[1.0]]
        emb = encode_euclidean(g, enc)
        assert abs(emb.values[0, 0] - 0.5) < 1e-15

    def test_euclidean_deterministic(self):
        rng = np.random.default_rng(4)
        g = random_featurized_graph(rng)
        enc = GraphEncoder("gin", in_dim=4, hidden_dim=5, num_layers=2,
                           rng=np.random.default_rng(7))
        a = encode_euclidean(g, enc).values
        b = encode_euclidean(g, enc).values
        assert np.array_equal(a, b)

    def test_hyperbolic_wraps_exp_map(self):
        g = two_node_graph()
        ball = PoincareBall()
        enc = GraphEncoder("gcn", in_dim=1, hidden_dim=1, num_layers=1,
                           rng=np.random.default_rng(0))
        enc.layer_params[0]["W"].values[...] = [[1.0]]
        emb = encode_hyperbolic(g, enc, ball)
        assert emb.space == HYPERBOLIC
        assert abs(emb.values[0, 0] - np.tanh(0.5)) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_hyperbolic_containment_random_params(self, kind):
        ball = PoincareBall()
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = random_featurized_graph(rng)
            enc = GraphEncoder(kind, in_dim=4, hidden_dim=6, num_layers=2,
                               rng=np.random.default_rng(100 + trial))
            emb = encode_hyperbolic(g, enc, ball)
            assert inside(ball, emb.tensor)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(6)
        g = random_featurized_graph(rng, n_lo=6, n_hi=10)
        enc = GraphEncoder(kind, in_dim=4, hidden_dim=5, num_layers=2,
                           rng=np.random.default_rng(11))
        base = encode_euclidean(g, enc).values
        for _ in range(20):
            perm = rng.permutation(g.n)
            remapped = [(int(perm[a]), int(perm[b])) for a, b in g.edges]
            relabeled = Graph(
                n=g.n,
                edges=canonical_edges(remapped, g.n),
                features=g.features[np.argsort(perm)],
            )
            out = encode_euclidean(relabeled, enc).values
            assert np.max(np.abs(out - base)) < 1e-9


class TestPredictor:
    def test_zero_logits_give_half(self):
        pred = Predictor(dim=3, num_classes=2, rng=np.random.default_rng(0))
        for t in pred.params:
            t.values[...] = 0.0
        emb = euc([[0.2, -0.1, 0.4]])
        p = predict(emb, pred)
        assert np.allclose(p.values, [[0.5, 0.5]])

    def test_saturating_logits(self):
        pred = Predictor(dim=2, num_classes=2, rng=np.random.default_rng(0))
        for t in pred.params:
            t.values[...] = 0.0
        pred.layer_params[0]["b2"].values[...] = [[100.0, -100.0]]
        p = predict(euc([[0.0, 0.0]]), pred)
        assert p.values[0, 0] > 1 - 1e-12
        assert p.values[0, 1] < 1e-12

    def test_three_classes_shape(self):
        pred = Predictor(dim=4, num_classes=3, rng=np.random.default_rng(1))
        p = predict(euc(np.zeros((1, 4))), pred)
        assert p.shape == (1, 3)
        assert ((p.values > 0) & (p.values < 1)).all()

    def test_hyperbolic_input_rejected(self):
        ball = PoincareBall()
        pred = Predictor(dim=2, num_classes=2, rng=np.random.default_rng(2))
        g = two_node_graph()
        enc = GraphEncoder("gcn", in_dim=1, hidden_dim=2, num_layers=1,
                           rng=np.random.default_rng(3))
        emb = encode_hyperbolic(g, enc, ball)
        with pytest.raises(ContractError):
            predict(emb, pred)


def mlp_layout(rng, w_in, w_hidden, w_out):
    """[W1, b1, W2, b2] as `rng` draws them: Glorot W1 before W2, zero biases."""
    W1 = ad.glorot_uniform(rng, w_in, w_hidden).values
    W2 = ad.glorot_uniform(rng, w_hidden, w_out).values
    return [W1, np.zeros((1, w_hidden)), W2, np.zeros((1, w_out))]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestParameterLayout:
    """The predictor and GIN's layers are the same MLP: their parameters
    come in one order from one sequence of draws, and `frozen()` gives
    each module plain arrays without building a Tensor."""

    def test_predictor_params_are_one_mlp(self):
        pred = Predictor(5, 3, np.random.default_rng(7))
        want = mlp_layout(np.random.default_rng(7), 5, 5, 3)
        assert_same_arrays([t.values for t in pred.params], want)

    def test_gin_layer_params_are_mlps(self):
        enc = GraphEncoder("gin", in_dim=3, hidden_dim=4, num_layers=2,
                           rng=np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = mlp_layout(rng, 3, 4, 4) + mlp_layout(rng, 4, 4, 4)
        assert_same_arrays([t.values for t in enc.params], want)

    @pytest.mark.parametrize("make", [
        lambda: Predictor(4, 2, np.random.default_rng(1)),
        lambda: GraphEncoder("gin", 3, 4, 2, np.random.default_rng(2)),
        lambda: GraphEncoder("gat", 3, 4, 2, np.random.default_rng(3), mobius=True),
    ], ids=["predictor", "gin", "mobius-gat"])
    def test_frozen_holds_plain_arrays_and_builds_no_tensor(self, make, monkeypatch):
        module = make()
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        frozen = module.frozen()
        assert built == []
        assert all(type(v) is np.ndarray for v in frozen.params)
        assert_same_arrays(frozen.params, [t.values for t in module.params])


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradcheck_five_node_graph(self, kind):
        rng = np.random.default_rng(8)
        g = Graph(
            n=5,
            edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)],
            features=rng.standard_normal((5, 3)),
        )
        enc = GraphEncoder(kind, in_dim=3, hidden_dim=4, num_layers=2,
                           rng=np.random.default_rng(21))

        def objective():
            emb = encode_euclidean(g, enc)
            return ad.asum(ad.mul(emb.tensor, emb.tensor))

        err = ad.finite_difference_gradcheck(objective, enc.params, h=1e-5)
        assert err < 1e-4, f"{kind}: {err}"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mobius_variant_contained_and_differentiable(self, kind):
        ball = PoincareBall()
        rng = np.random.default_rng(9)
        g = random_featurized_graph(rng, cap=2)
        enc = GraphEncoder(kind, in_dim=3, hidden_dim=4, num_layers=2,
                           rng=np.random.default_rng(31), mobius=True)
        emb = encode_hyperbolic(g, enc, ball)
        assert emb.space == HYPERBOLIC
        assert inside(ball, emb.tensor)
        root = ad.asum(ad.mul(emb.tensor, emb.tensor))
        ad.backward(root)
        for t in enc.params:
            assert np.isfinite(t.grad).all()
