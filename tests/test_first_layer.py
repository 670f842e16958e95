"""The first layer's class path against the dense path, bit for bit.

A graph from `synthesize_features` caches each node's degree class, and
views cut from it carry theirs. On a batch's own one-hot features gcn and
gat gather weight rows by class in place of X @ W, and gin counts the
neighbor classes in place of the padded (A + I) X product. The same graphs
without their cached classes take the dense path, which is the reference:
values and every gradient must be equal under np.array_equal.
"""

import dataclasses

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import (
    EncoderKind,
    GraphBatch,
    GraphEncoder,
    Predictor,
    encode_euclidean,
    encode_hyperbolic,
    predict,
)
from dsgc.poincare import PoincareBall
from dsgc.samplers import SamplerConfig, community_expansion_sample, diffusion_sample

CLASS_KINDS = ["gcn", "gat", "gin"]
SOURCES = ["parents", "diffusion", "community"]
SIZES = (1, 9, 4, 17, 2, 12, 30)  # a single node, a pair, larger graphs
CAP = 5                            # low enough that some degrees are capped
HIDDEN = 6


def parent_graphs(seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for n in SIZES:
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(2 * n):
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a != b:
                edges.add((a, b))
        g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
        graphs.append(synthesize_features(g, cap=CAP))
    return graphs


def graphs_from(source):
    graphs = parent_graphs()
    if source == "parents":
        return graphs
    sampler = diffusion_sample if source == "diffusion" else community_expansion_sample
    return sampler(graphs, [SamplerConfig(0.7, seed) for seed in range(len(graphs))])


def without_classes(graphs):
    return [dataclasses.replace(g, cache={}) for g in graphs]


def make_encoder(kind, seed=0):
    return GraphEncoder(kind, CAP + 1, HIDDEN, 3, np.random.default_rng(seed))


def run(fn, params, weights):
    """fn's value and the gradients of <value, weights> for every parameter."""
    for p in params:
        p.zero_grad()
    out = fn()
    ad.backward(ad.asum(ad.mul(out, weights)))
    return ad.values_of(out).copy(), [p.grad.copy() for p in params]


def assert_equal(got, want):
    (v1, g1), (v2, g2) = got, want
    assert np.array_equal(v1, v2)
    assert len(g1) == len(g2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("source", SOURCES)
def test_every_row_carries_its_class(source):
    graphs = graphs_from(source)
    batch = GraphBatch(graphs)
    assert batch.classes is not None
    assert np.array_equal(batch.classes, np.argmax(batch.features, axis=1))
    assert GraphBatch(without_classes(graphs)).classes is None
    # one graph without classes sends the whole batch down the dense path
    assert GraphBatch(graphs[:2] + without_classes(graphs[2:3])).classes is None


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", CLASS_KINDS)
def test_layer_zero_equals_the_dense_layer(kind, source):
    graphs = graphs_from(source)
    fast, dense = GraphBatch(graphs), GraphBatch(without_classes(graphs))
    enc = make_encoder(kind)
    weights = np.random.default_rng(1).standard_normal((fast.n, HIDDEN))
    got = run(lambda: enc.layer_forward(fast.features, fast, 0), enc.params, weights)
    want = run(lambda: enc.layer_forward(dense.features, dense, 0), enc.params, weights)
    assert_equal(got, want)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("space", ["euclidean", "hyperbolic"])
@pytest.mark.parametrize("kind", CLASS_KINDS)
def test_encoders_and_gradients_equal_the_dense_path(kind, space, source):
    graphs = graphs_from(source)
    enc, ball = make_encoder(kind, seed=2), PoincareBall(1.0)

    def encode(gs):
        if space == "euclidean":
            return lambda: encode_euclidean(GraphBatch(gs), enc).tensor
        return lambda: encode_hyperbolic(GraphBatch(gs), enc, ball).tensor

    weights = np.random.default_rng(3).standard_normal((len(graphs), HIDDEN))
    assert_equal(run(encode(graphs), enc.params, weights),
                 run(encode(without_classes(graphs)), enc.params, weights))


@pytest.mark.parametrize("kind", CLASS_KINDS)
def test_evaluation_on_parent_graphs_equals_the_dense_path(kind):
    # evaluation encodes the full graphs through frozen copies, no tape
    graphs = parent_graphs(seed=4)
    enc = make_encoder(kind, seed=5).frozen()
    pred = Predictor(HIDDEN, 2, np.random.default_rng(6)).frozen()

    def probabilities(gs):
        return ad.values_of(predict(encode_euclidean(GraphBatch(gs), enc), pred))

    assert np.array_equal(probabilities(graphs), probabilities(without_classes(graphs)))


@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_only_gin_layer_zero_skips_the_block_product(kind, monkeypatch):
    calls = []

    def counted(*args, real=ad.block_product, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(ad, "block_product", counted)
    batch = GraphBatch(parent_graphs())
    make_encoder(kind.value).node_embeddings(batch)
    assert len(calls) == (2 if kind is EncoderKind.GIN else 3)
    # a copy of the features is not the batch's own array: dense path
    enc = make_encoder(kind.value)
    calls.clear()
    enc.layer_forward(batch.features.copy(), batch, 0)
    assert len(calls) == 1
