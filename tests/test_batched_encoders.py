"""The batched encoder path against the per-graph reference, plus the
padded block-aggregation op's layout and pad-row guarantees."""

import numpy as np
import pytest

import per_graph_reference as ref
from dsgc import autodiff as ad
from dsgc.data import Graph, synthesize_features
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
from dsgc.errors import ContractError
from dsgc.losses import (
    Batch,
    DsgcModel,
    LossConfig,
    ViewSampler,
    info_nce_labeled,
    info_nce_unlabeled,
    supervised_loss,
    to_hyperbolic,
    total_objective,
    train_step,
)
from dsgc.poincare import PoincareBall

ALL_KINDS = [k.value for k in EncoderKind]
SPACES = ("euclidean", "tangent", "mobius")
TOL = 1e-12
FROZEN_BATCHES = {  # mixed sizes: single nodes, a pair, larger graphs
    "mixed": (1, 7, 3, 12, 2),
    "one-graph": (6,),
    "singletons": (1, 1),
}


def connected_graph(rng, n, cap=3):
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    for _ in range(n):
        a, b = sorted(int(x) for x in rng.integers(n, size=2))
        if a != b:
            edges.add((a, b))
    g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
    return synthesize_features(g, cap=cap)


def frozen_batch(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [connected_graph(rng, n) for n in sizes]


def make_encoder(kind, space, seed=0, scale=0.5):
    """An encoder whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, in_dim=4, hidden_dim=5, num_layers=2,
                       rng=np.random.default_rng(seed), mobius=space == "mobius")
    rng = np.random.default_rng(seed + 1)
    for t in enc.params:
        t.values[...] = rng.uniform(-scale, scale, t.values.shape)
    return enc


def batched_rows(graphs, enc, space, ball):
    batch = GraphBatch(graphs)
    if space == "euclidean":
        return encode_euclidean(batch, enc).tensor
    return encode_hyperbolic(batch, enc, ball).tensor


def reference_rows(graphs, enc, space, ball):
    if space == "euclidean":
        return ad.concat_rows([ref.encode_euclidean(g, enc) for g in graphs])
    return ad.concat_rows([ref.encode_hyperbolic(g, enc, ball) for g in graphs])


def gradients(rows_fn, params, weights):
    for p in params:
        p.zero_grad()
    rows = rows_fn()
    ad.backward(ad.asum(ad.mul(rows, weights)))
    return ad.values_of(rows).copy(), [p.grad.copy() for p in params]


def assert_close(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    assert np.abs(a - b).max() <= TOL * scale, np.abs(a - b).max()


class TestAgainstPerGraphPath:
    @pytest.mark.parametrize("batch", sorted(FROZEN_BATCHES))
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_embeddings_and_gradients_agree(self, kind, space, batch):
        graphs = frozen_batch(FROZEN_BATCHES[batch])
        enc = make_encoder(kind, space)
        ball = PoincareBall(1.0)
        weights = np.random.default_rng(5).standard_normal((len(graphs), enc.hidden_dim))
        got, got_grads = gradients(lambda: batched_rows(graphs, enc, space, ball),
                                   enc.params, weights)
        want, want_grads = gradients(lambda: reference_rows(graphs, enc, space, ball),
                                     enc.params, weights)
        assert got.shape == (len(graphs), enc.hidden_dim)
        assert_close(got, want)
        for g, w in zip(got_grads, want_grads):
            assert_close(g, w)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_curvature_two(self, kind):
        graphs = frozen_batch(FROZEN_BATCHES["mixed"], seed=3)
        ball = PoincareBall(2.0)
        for space in ("tangent", "mobius"):
            enc = make_encoder(kind, space, seed=4)
            got = ad.values_of(batched_rows(graphs, enc, space, ball))
            want = ad.values_of(reference_rows(graphs, enc, space, ball))
            assert_close(got, want)


def reference_step(batch, model, views, cfg):
    """(total, supervised, contrastive) as the per-graph step built them:
    every view encoded on its own, the unlabeled rows stacked afterwards."""
    ball, g_l = model.ball, batch.labeled
    h_e_l = GraphEmbedding(ref.encode_euclidean(views.euclidean_view(g_l), model.encoder_e),
                           EUCLIDEAN)
    sup = supervised_loss(predict(h_e_l, model.predictor), g_l.label)
    if cfg.omega == 0.0:
        return sup, sup, 0.0
    h_h_l = GraphEmbedding(
        ref.encode_hyperbolic(views.hyperbolic_view(g_l), model.encoder_h, ball), HYPERBOLIC)
    h_h_u = GraphEmbedding(ad.concat_rows([
        ref.encode_hyperbolic(views.hyperbolic_view(g), model.encoder_h, ball)
        for g in batch.unlabeled]), HYPERBOLIC)
    h_e_u = GraphEmbedding(ad.concat_rows([
        ref.encode_euclidean(views.euclidean_view(g), model.encoder_e)
        for g in batch.unlabeled]), EUCLIDEAN)
    u_terms = info_nce_unlabeled(h_h_u, to_hyperbolic(h_e_u, ball), h_h_l, ball, cfg)
    l_term = info_nce_labeled(h_h_l, to_hyperbolic(h_e_l, ball), [h_h_u], ball, cfg)
    contrastive = l_term.item() + cfg.lambda_u / len(batch.unlabeled) * u_terms.values.sum()
    return total_objective(sup, l_term, [u_terms], cfg), sup, contrastive


class TestTrainStep:
    @pytest.mark.parametrize("omega", [0.5, 0.0])
    @pytest.mark.parametrize("kinds", [("gcn", "gin", False), ("gat", "graphsage", True),
                                       ("graphsage", "gat", False), ("gin", "gcn", True)])
    def test_matches_the_per_graph_step(self, kinds, omega):
        e, h, mobius = kinds
        graphs = frozen_batch((5, 9, 4, 12, 6), seed=11)
        for i, g in enumerate(graphs):
            g.label = i % 2
        model = DsgcModel(
            make_encoder(e, "euclidean", seed=1),
            make_encoder(h, "mobius" if mobius else "tangent", seed=2),
            Predictor(5, 2, np.random.default_rng(3)),
            PoincareBall(1.0),
        )
        batch = Batch(graphs[2], [graphs[0], graphs[4], graphs[1], graphs[3]])
        views, cfg = ViewSampler(0.8, 0.8, seed=3), LossConfig(omega=omega)
        metrics = train_step(batch, model, views, cfg, ad.Adam(model.params, lr=0.0))
        got_grads = [p.grad.copy() for p in model.params]
        for p in model.params:
            p.zero_grad()
        total, sup, contrastive = reference_step(batch, model, views, cfg)
        ad.backward(total)
        got = [metrics.total, metrics.supervised, metrics.contrastive]
        assert_close(np.array(got), np.array([total.item(), sup.item(), contrastive]))
        for g, w in zip(got_grads, [p.grad for p in model.params]):
            assert_close(g, w)


class TestPadRows:
    @pytest.mark.parametrize("kind,sizes", [("gin", (3, 9, 1)), ("gat", (1, 8)), ("gat", (8, 1))])
    def test_pad_rows_change_no_real_row(self, kind, sizes):
        # GIN's biases are large, so a bias added to a pad row that reached
        # a real one would show; GAT's 1-node graph sits beside 7 pad rows
        # whose attention masks are empty
        graphs = frozen_batch(sizes, seed=7)
        enc = make_encoder(kind, "euclidean", seed=8)
        for t in enc.params:
            if t.values.shape[0] == 1:
                t.values[...] = 3.0
        batch = GraphBatch(graphs)
        nodes = ad.values_of(enc.node_embeddings(batch))
        assert np.isfinite(nodes).all()
        alone = np.concatenate([ad.values_of(enc.node_embeddings(GraphBatch([g]))) for g in graphs])
        per_graph = np.concatenate([ad.values_of(ref.node_embeddings(enc, g)) for g in graphs])
        assert_close(nodes, alone)
        assert_close(nodes, per_graph)

    def test_tape_size_does_not_grow_with_the_batch(self):
        def tape_nodes(root):
            seen, stack = {id(root)}, [root]
            while stack:
                for parent in stack.pop()._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return len(seen)

        graphs = frozen_batch(FROZEN_BATCHES["mixed"])
        for kind in ALL_KINDS:
            enc = make_encoder(kind, "euclidean")
            one = tape_nodes(encode_euclidean(GraphBatch(graphs[:1]), enc).tensor)
            many = tape_nodes(encode_euclidean(GraphBatch(graphs), enc).tensor)
            assert one == many, kind


class TestLayout:
    def test_slots_readout_and_node_count(self):
        graphs = frozen_batch((2, 3, 1))
        batch = GraphBatch(graphs)
        assert batch.n == 6 and batch.n_max == 3
        assert batch.slots.tolist() == [0, 1, 3, 4, 5, 6]
        expect = np.zeros((3, 6))
        expect[0, :2], expect[1, 2:5], expect[2, 5] = 1 / 2, 1 / 3, 1.0
        assert np.array_equal(batch.readout, expect)
        assert np.array_equal(batch.features, np.concatenate([g.features for g in graphs]))

    @pytest.mark.parametrize("batch", sorted(FROZEN_BATCHES) + ["isolated-and-edgeless"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_operators_are_each_graphs_own(self, kind, batch):
        # the operators are written at the edges and self-loops only: a
        # degree-0 node keeps GCN's self-loop weight 1 and GraphSAGE's zero row
        kind = EncoderKind(kind)
        if batch in FROZEN_BATCHES:
            graphs = frozen_batch(FROZEN_BATCHES[batch], seed=2)
        else:
            graphs = [synthesize_features(Graph(n=n, edges=edges), cap=3) for n, edges in
                      ((5, [(0, 1), (0, 2), (1, 2), (3, 4)]), (4, [(1, 3)]), (3, []))]
        ops = GraphBatch(graphs).operators(kind)
        for block, g in zip(ops, graphs):
            assert np.array_equal(block[:g.n, :g.n], ref.prop_matrix(g, kind))
            assert not block[g.n:].any() and not block[:, g.n:].any()

    def test_empty_and_featureless_batches_rejected(self):
        with pytest.raises(ContractError):
            GraphBatch([])
        with pytest.raises(ContractError, match="no features"):
            GraphBatch([Graph(n=2, edges=[(0, 1)])])
