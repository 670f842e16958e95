"""Each encoder call is one tape node, against the per-layer chain.

`encode_euclidean` and the tangent-space `encode_hyperbolic` run the whole
layer stack and the mean readout as one node linked to the encoder's
parameters (`encoders.tangent_readout` on the hyperbolic side, what a
training step reads); `encode_hyperbolic` then maps that node into the
ball with its own `expmap0` node. The reference is the per-layer chain
the node replaced: one node per layer (`fused_reference.layer_nodes`), the
readout's matmul, and `expmap0` on the hyperbolic side. Values and every
parameter gradient must be equal under np.array_equal, for every kind in
both spaces, on the cached-classes first layer and on dense features, on a
batch of one graph and on a mixed batch in which one graph appears twice.

The Mobius path aggregates each layer as one node
(`encoders.mobius_aggregate`); its reference is the chain it replaced
(`fused_reference.mobius_aggregate`), alone and through the whole stack.
"""

import weakref

import numpy as np
import pytest

import fused_reference as fused
from conftest import tensors_built
from dsgc import autodiff as ad
from dsgc import encoders
from dsgc.autodiff import Tensor
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import BatchPlan, EncoderKind, GraphEncoder, encode_euclidean, encode_hyperbolic
from dsgc.errors import DomainError, ShapeError
from dsgc.poincare import PoincareBall

KINDS = list(EncoderKind)
SPACES = ["euclidean", "hyperbolic"]
SIZES = (1, 7, 3, 12, 5)  # a single node and larger graphs
CAP = 5                   # one-hot width CAP + 1
HIDDEN = 6
ROWS = {"one": [2], "mixed": [0, 3, 1, 3, 4]}  # graph 3 appears twice in "mixed"
BALL = PoincareBall(1.0)


def make_graphs(first_layer, seed=0):
    """Graphs whose nodes cache their degree classes, or graphs with dense
    random features and no classes."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in SIZES:
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(n):
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a != b:
                edges.add((a, b))
        g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
        if first_layer == "classes":
            graphs.append(synthesize_features(g, cap=CAP))
        else:
            graphs.append(Graph(n=n, edges=g.edges, features=rng.standard_normal((n, CAP + 1))))
    return graphs


def make_batch(first_layer, rows):
    batch = BatchPlan(make_graphs(first_layer), [ROWS[rows]]).batch(0)
    assert (batch.classes is not None) == (first_layer == "classes")
    return batch


def make_encoder(kind, seed=0, num_layers=3, mobius=False):
    """Small layers whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, CAP + 1, HIDDEN, num_layers, np.random.default_rng(seed), mobius)
    rng = np.random.default_rng(seed + 1)
    for t in enc.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    return enc


def node(space, batch, enc):
    if space == "euclidean":
        return encode_euclidean(batch, enc).tensor
    return encode_hyperbolic(batch, enc, BALL).tensor


def chain(space, batch, enc):
    """The per-layer chain: one node per layer, the readout, then exp0."""
    h = ad.matmul(batch.readout, fused.layer_nodes(enc, batch))
    return h if space == "euclidean" else BALL.expmap0(h)


def run(fn, enc, weights):
    """fn()'s values and the gradients of <fn(), weights> for every parameter."""
    for p in enc.params:
        p.zero_grad()
    out = fn()
    ad.backward(ad.asum(ad.mul(out, weights)))
    return out.values.copy(), [p.grad.copy() for p in enc.params]


@pytest.mark.parametrize("mobius", [False, True])
def test_encode_hyperbolic_is_expmap0_of_the_tangent_readout(mobius):
    batch = make_batch("classes", "mixed")
    enc = make_encoder(EncoderKind.GAT, mobius=mobius)
    tangent = encoders.tangent_readout(batch, enc, BALL)
    points = encode_hyperbolic(batch, enc, BALL)
    assert points.space == "hyperbolic"
    assert np.array_equal(points.values, BALL.expmap0(tangent).values)
    if not mobius:  # the encoder call's one node, linked to the parameters
        assert tangent._parents == tuple(enc.params)


@pytest.mark.parametrize("rows", list(ROWS))
@pytest.mark.parametrize("first_layer", ["classes", "dense"])
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_node_equals_the_per_layer_chain_bit_for_bit(kind, space, first_layer, rows):
    batch = make_batch(first_layer, rows)
    enc = make_encoder(kind)
    weights = np.random.default_rng(2).standard_normal((len(batch.graphs), HIDDEN))
    out, built = tensors_built(lambda: node(space, batch, enc))
    assert built == (1 if space == "euclidean" else 2)  # the hyperbolic exp0 is its own node
    stack = out if space == "euclidean" else out._parents[0]
    assert stack._parents == tuple(enc.params)
    got = run(lambda: node(space, batch, enc), enc, weights)
    want = run(lambda: chain(space, batch, enc), enc, weights)
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1]) == len(enc.params)
    assert (want[1][0] != 0.0).any()  # the adjoint reaches the first layer
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    if rows == "mixed":  # the recurring graph's two rows agree
        assert np.array_equal(got[0][1], got[0][3])


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_frozen_copy_builds_no_tensor_and_keeps_no_vjp(kind, space, monkeypatch):
    batch = make_batch("classes", "mixed")
    enc = make_encoder(kind)
    want = ad.values_of(node(space, batch, enc))
    frozen = enc.frozen()
    refs = []

    def spy(hv, *args, real=encoders._LAYERS[enc.kind]):
        # every earlier layer's VJP is gone by the time the next layer runs
        assert all(ref() is None for ref in refs)
        v, vjp = real(hv, *args)
        refs.append(weakref.ref(vjp))
        return v, vjp

    monkeypatch.setitem(encoders._LAYERS, enc.kind, spy)
    got, built = tensors_built(lambda: node(space, batch, frozen))
    assert built == 0 and not isinstance(got, Tensor)
    assert np.array_equal(got, want)
    assert len(refs) == enc.num_layers and all(ref() is None for ref in refs)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_width_mismatch_names_the_layer(kind, space):
    batch = make_batch("dense", "mixed")
    enc = GraphEncoder(kind, CAP + 2, HIDDEN, 2, np.random.default_rng(0))
    for e in (enc, enc.frozen()):
        with pytest.raises(ShapeError, match=f"^layer 0 of {kind.value} expects width {CAP + 2}, "
                                             f"got {CAP + 1}$"):
            node(space, batch, e)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_non_finite_readout_raises_the_expmap0_domain_error(kind):
    batch = make_batch("classes", "mixed")
    enc = make_encoder(kind)
    for t in enc.layer_params[-1].values():
        t.values[...] = np.nan
    messages = []
    for fn in (node, chain):
        with pytest.raises(DomainError, match="^expmap0: row 0 has a non-finite norm nan") as err:
            fn("hyperbolic", batch, enc)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_a_single_graph_is_a_batch_of_one(kind, space):
    graphs = make_graphs("classes")
    enc = make_encoder(kind)
    got = node(space, graphs[1], enc).values
    want = node(space, BatchPlan(graphs, [[1]]).batch(0), enc).values
    assert got.shape == (1, HIDDEN)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_hyperbolic_node_gradcheck(kind):
    batch = BatchPlan(make_graphs("dense", seed=3)[:3], [[0, 1, 2]]).batch(0)
    enc = make_encoder(kind, seed=4, num_layers=2)
    for t in enc.params:  # small weights keep the readout well inside the ball
        t.values *= 0.5
    weights = np.random.default_rng(5).standard_normal((3, HIDDEN))

    def objective():
        return ad.asum(ad.mul(encode_hyperbolic(batch, enc, BALL).tensor, weights))

    err = ad.finite_difference_gradcheck(objective, enc.params, h=1e-6)
    assert err < 1e-4, f"{kind.value}: {err}"


MOBIUS_TENSORS = {EncoderKind.GCN: 41, EncoderKind.GAT: 44, EncoderKind.GRAPHSAGE: 41,
                  EncoderKind.GIN: 41}  # a 3-layer Mobius encoder call, exp0 included


def run_aggregate(aggregate, enc, batch, xv, as_tensor):
    """The aggregation of layer 1's parameters over the rows xv (a Tensor or
    a constant), the gradients of <output, weights> for every parameter and,
    for a Tensor, the rows', and the Tensors built."""
    for p in enc.params:
        p.zero_grad()
    X = Tensor(xv.copy()) if as_tensor else xv
    out, built = tensors_built(lambda: aggregate(X, batch, enc.kind, enc.layer_params[1]))
    if isinstance(out, Tensor):
        weights = np.random.default_rng(3).standard_normal(out.shape)
        ad.backward(ad.asum(ad.mul(out, weights)))
    grads = [p.grad.copy() for p in enc.params] + ([X.grad] if as_tensor else [])
    return ad.values_of(out), grads, built


@pytest.mark.parametrize("as_tensor", [True, False], ids=["tensor", "constant"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_mobius_aggregation_node_equals_the_chain_bit_for_bit(kind, as_tensor):
    batch = make_batch("classes", "mixed")  # graph 3 twice
    enc = make_encoder(kind, mobius=True)
    xv = np.random.default_rng(4).uniform(-0.3, 0.3, (batch.n, HIDDEN))
    got = run_aggregate(encoders.mobius_aggregate, enc, batch, xv, as_tensor)
    want = run_aggregate(fused.mobius_aggregate, enc, batch, xv, as_tensor)
    # a node when a Tensor meets it: the rows, or gat's score vectors
    assert got[2] == int(as_tensor or kind is EncoderKind.GAT)
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    if as_tensor:
        assert (got[1][-1] != 0.0).any()


@pytest.mark.parametrize("rows", list(ROWS))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_mobius_stack_equals_the_chain_bit_for_bit(kind, rows, monkeypatch):
    # layer 0 aggregates the constant exp0 of the features, later layers Tensors
    batch = make_batch("classes", rows)
    enc = make_encoder(kind, mobius=True)
    weights = np.random.default_rng(2).standard_normal((len(batch.graphs), HIDDEN))
    out, built = tensors_built(lambda: node("hyperbolic", batch, enc))
    assert built == MOBIUS_TENSORS[kind]
    got = run(lambda: node("hyperbolic", batch, enc), enc, weights)
    monkeypatch.setattr(encoders, "mobius_aggregate", fused.mobius_aggregate)
    want = run(lambda: node("hyperbolic", batch, enc), enc, weights)
    assert np.array_equal(got[0], want[0])
    assert (want[1][0] != 0.0).any()  # the adjoint reaches the first layer
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
