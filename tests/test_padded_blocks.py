"""A GraphBatch keeps one zero-padded block per width, and every block
product on the batch writes its real rows into it instead of filling a new
zero block. The reference is the product that pads into a new block on
every call (`fused_reference.block_product`, and the layer chains that
aggregate through it): on a batch whose blocks already served other
products, of the same width and of others, values and adjoints must equal
the reference under np.array_equal. Three encoder calls on one batch
before one backward give exactly what three batches give.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import fused_reference as ref  # noqa: E402
from dsgc import autodiff as ad  # noqa: E402
from dsgc import encoders  # noqa: E402
from dsgc.data import Graph, synthesize_features  # noqa: E402
from dsgc.encoders import (EncoderKind, GraphBatch, GraphEncoder,  # noqa: E402
                           encode_euclidean, tangent_readout)
from dsgc.poincare import PoincareBall  # noqa: E402

# derandomized: every run draws the same examples, so a failure replays
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

KINDS = list(EncoderKind)
CAP = 4      # one-hot width CAP + 1
HIDDEN = 5
BALL = PoincareBall(1.0)

sizes = st.lists(st.integers(1, 9), min_size=1, max_size=6)  # 1-node graphs included
seeds = st.integers(0, 2**32 - 1)
calls = st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from([1, 2, 3, HIDDEN]),
                           st.booleans()), min_size=1, max_size=6)


def make_graphs(sizes, seed, dense=False):
    """Connected graphs of the given sizes that cache their degree classes,
    or that carry dense random features and no classes."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(n):
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a != b:
                edges.add((a, b))
        g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
        graphs.append(Graph(n=n, edges=g.edges, features=rng.standard_normal((n, CAP + 1)))
                      if dense else synthesize_features(g, cap=CAP))
    return graphs


def product_args(rng, batch, kind, width):
    """Random rows of `width` columns and, for gat, two score columns."""
    xv = rng.standard_normal((batch.n, width))
    scores = (tuple(rng.standard_normal((batch.n, 1)) for _ in range(2))
              if kind is EncoderKind.GAT else None)
    return xv, batch.operators(kind), scores


def use_blocks(batch, order, seed):
    """Run the products of `order` on the batch's kept blocks, forward and
    VJP, so that its blocks hold other rows than the next call's."""
    rng = np.random.default_rng(seed)
    for kind, width, _ in order:
        xv, ops, scores = product_args(rng, batch, kind, width)
        _, vjp = ad.block_product(xv, batch.slots, ops, batch.blocks, scores)
        vjp(rng.standard_normal((batch.n, width)))


@PROPERTY
@given(sizes=sizes, seed=seeds, order=calls)
def test_kept_blocks_equal_new_blocks(sizes, seed, order):
    # every forward first, then every VJP newest first, as backward runs
    # them: each call meets blocks that earlier calls wrote
    batch = GraphBatch(make_graphs(sizes, seed))
    rng = np.random.default_rng(seed)
    pending = []
    for kind, width, need_x in order:
        xv, ops, scores = product_args(rng, batch, kind, width)
        got, got_vjp = ad.block_product(xv, batch.slots, ops, batch.blocks, scores)
        want, want_vjp = ref.block_product(xv, batch.slots, ops, scores)
        assert np.array_equal(got, want)
        pending.append((got_vjp, want_vjp, rng.standard_normal((batch.n, width)), need_x))
    for got_vjp, want_vjp, g, need_x in reversed(pending):
        got, want = got_vjp(g, need_x), want_vjp(g, need_x)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)
    for width, block in batch.blocks.items():  # pad rows were never written
        assert block.shape == (len(sizes) * batch.n_max, width)
        assert not np.delete(block, batch.slots, axis=0).any()


def make_encoder(kind, seed=0, mobius=False):
    """Two small layers whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, CAP + 1, HIDDEN, 2, np.random.default_rng(seed), mobius)
    rng = np.random.default_rng(seed + 1)
    for t in enc.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    return enc


def run(fn, enc, weights):
    """fn()'s values and the gradients of <fn(), weights> for every parameter."""
    for p in enc.params:
        p.zero_grad()
    out = fn()
    ad.backward(ad.asum(ad.mul(out, weights)))
    return ad.values_of(out).copy(), [p.grad.copy() for p in enc.params]


def reference_stack(enc, batch):
    """The layer chains over new zero blocks, then the mean readout."""
    H = batch.features
    for layer in range(enc.num_layers):
        H = ref.layer_forward(enc, H, batch, layer)
    return ad.matmul(batch.readout, H)


def reference_mobius(enc, batch):
    """The Mobius path's tangent readout with each layer's aggregation the
    chain over new zero blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoders, "mobius_aggregate", ref.mobius_aggregate)
        return tangent_readout(batch, enc, BALL)


@pytest.mark.parametrize("path", ["classes", "dense", "mobius"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(sizes=sizes, seed=seeds, order=calls)
def test_layers_on_used_blocks_equal_the_chains(kind, path, sizes, seed, order):
    # "classes": the first layer's class path (gin counts neighbor classes);
    # "dense": every layer multiplies; "mobius": the aggregation nodes
    graphs = make_graphs(sizes, seed, dense=path == "dense")
    used, new = GraphBatch(graphs), GraphBatch(graphs)
    assert (used.classes is None) == (path == "dense")
    enc = make_encoder(kind, seed=seed % 1000, mobius=path == "mobius")
    use_blocks(used, order, seed)
    if path == "mobius":
        got = run(lambda: tangent_readout(used, enc, BALL), enc, 1.0)
        want = run(lambda: reference_mobius(enc, new), enc, 1.0)
    else:
        weights = np.random.default_rng(seed).standard_normal((len(sizes), HIDDEN))
        got = run(lambda: encode_euclidean(used, enc).tensor, enc, weights)
        want = run(lambda: reference_stack(enc, new), enc, weights)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)


def three_calls(enc_a, enc_b, batches, weights):
    """The loss <a(B0), w0> + <b(B1), w1> + <a(B2), w2> of three encoder
    calls on the given batches, one backward; the loss and every gradient."""
    params = enc_a.params + enc_b.params
    for p in params:
        p.zero_grad()
    outs = [encode_euclidean(batches[0], enc_a).tensor,
            tangent_readout(batches[1], enc_b, BALL),
            encode_euclidean(batches[2], enc_a).tensor]
    loss = 0.0
    for out, w in zip(outs, weights):
        loss = ad.add(loss, ad.asum(ad.mul(out, w)))
    ad.backward(loss)
    return loss.item(), [p.grad.copy() for p in params]


@pytest.mark.parametrize("mobius", [False, True], ids=["tangent", "mobius"])
@pytest.mark.parametrize("kind_b", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("kind_a", KINDS, ids=lambda k: k.value)
def test_three_calls_on_one_batch_equal_three_batches(kind_a, kind_b, mobius):
    graphs = make_graphs((1, 6, 3, 9, 2), seed=7)
    enc_a, enc_b = make_encoder(kind_a, seed=1), make_encoder(kind_b, seed=2, mobius=mobius)
    for t in enc_b.params:  # small weights keep the Mobius points well inside the ball
        t.values *= 0.5
    weights = [np.random.default_rng(i).standard_normal((len(graphs), HIDDEN)) for i in range(3)]
    one = GraphBatch(graphs)
    got = three_calls(enc_a, enc_b, [one] * 3, weights)
    want = three_calls(enc_a, enc_b, [GraphBatch(graphs) for _ in range(3)], weights)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert np.array_equal(a, b)
    assert one.blocks  # the three calls shared the batch's blocks
