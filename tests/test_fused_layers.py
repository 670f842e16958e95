"""The four fused encoder layers and the predictor against the chains of
primitives they replaced (kept in fused_reference.py): the output and every
gradient equal bit for bit on a batch of mixed-size graphs, with the layer
input a Tensor and a constant; finite differences per kind; no adjoint for
a constant input; and the tape counts: one node per layer and for the
predictor's logits, and the Tensors a training step builds, by default and
at omega 0."""

import numpy as np
import pytest

import fused_reference as ref
from conftest import synthetic_dataset
from dsgc import autodiff as ad
from dsgc.autodiff import Tensor
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import (EncoderKind, GraphBatch, GraphEncoder, Predictor,
                           encode_euclidean)
from dsgc.experiment import ExperimentConfig, _build_model
from dsgc.losses import Batch, LossConfig, ViewSampler, train_step

KINDS = list(EncoderKind)
WIDTH = 16
SIZES = (1, 7, 3, 12, 2, 5)  # a single node, a pair, larger graphs
DEFAULT_STEP_TENSORS = 10    # 6 layers, 2 readouts, the hyperbolic exp0, the objective
OMEGA0_STEP_TENSORS = 5      # 3 Euclidean layers, 1 readout, the objective


def mixed_batch(seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for n in SIZES:
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(n):
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a != b:
                edges.add((a, b))
        graphs.append(Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
                            features=rng.standard_normal((n, WIDTH))))
    return GraphBatch(graphs)


def make_encoder(kind, seed=0, num_layers=2):
    """Width-16 layers whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, WIDTH, WIDTH, num_layers, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for t in enc.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    return enc


def run_layer(layer_fn, enc, hv, batch, layer, weights, as_tensor):
    """The layer's output and the gradients of <output, weights>: the
    parameters' and, when H is a Tensor, H's."""
    for p in enc.params:
        p.zero_grad()
    H = Tensor(hv.copy()) if as_tensor else hv
    out = layer_fn(enc, H, batch, layer)
    ad.backward(ad.asum(ad.mul(out, weights)))
    grads = [p.grad.copy() for p in enc.params]
    return out.values, grads + ([H.grad] if as_tensor else [])


@pytest.mark.parametrize("as_tensor", [True, False], ids=["tensor", "constant"])
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_fused_layer_equals_the_chain_bit_for_bit(kind, layer, as_tensor):
    batch = mixed_batch()
    enc = make_encoder(kind)
    hv = batch.features
    weights = np.random.default_rng(2).standard_normal((batch.n, WIDTH))
    fused = run_layer(lambda e, H, b, i: e.layer_forward(H, b, i),
                      enc, hv, batch, layer, weights, as_tensor)
    chain = run_layer(ref.layer_forward, enc, hv, batch, layer, weights, as_tensor)
    assert (chain[0] == 0.0).any() and (chain[0] > 0.0).any()  # the relu bites
    assert np.array_equal(fused[0], chain[0])
    assert len(fused[1]) == len(chain[1])
    for got, want in zip(fused[1], chain[1]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_fused_layer_gradcheck(kind):
    batch = mixed_batch(seed=3)
    enc = make_encoder(kind, seed=4, num_layers=1)
    H = Tensor(batch.features.copy())
    weights = np.random.default_rng(5).standard_normal((batch.n, WIDTH))

    def objective():
        return ad.asum(ad.mul(enc.layer_forward(H, batch, 0), weights))

    err = ad.finite_difference_gradcheck(objective, [H, *enc.params], h=1e-6)
    assert err < 1e-4, f"{kind.value}: {err}"


@pytest.mark.parametrize("kind", [EncoderKind.GRAPHSAGE, EncoderKind.GIN], ids=lambda k: k.value)
def test_constant_input_gets_no_adjoint(kind, monkeypatch):
    # these kinds aggregate H itself: with H constant, the aggregate's
    # padded 3-D matmul for H's adjoint must not run
    asked = []
    block_product = ad.block_product

    def spy(*args, **kwargs):
        v, vjp = block_product(*args, **kwargs)
        return v, lambda g, need_x=True: asked.append(need_x) or vjp(g, need_x)

    monkeypatch.setattr(ad, "block_product", spy)
    batch = mixed_batch()
    enc = make_encoder(kind)
    for H, want in ((batch.features, []), (Tensor(batch.features), [True])):
        asked.clear()
        ad.backward(ad.asum(enc.layer_forward(H, batch, 0)))
        assert asked == want


def make_predictor(rows, seed=0):
    """A predictor on nonzero random parameters, except b1's first entry,
    and `rows` embedding rows of which row 0 is zero: that row's first
    hidden pre-activation is exactly 0."""
    pred = Predictor(WIDTH, 3, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for t in pred.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    pred.layer_params[0]["b1"].values[0, 0] = 0.0
    hv = rng.standard_normal((rows, WIDTH))
    hv[0] = 0.0
    return pred, hv


def run_logits(logits_fn, pred, hv, weights):
    """The logits over a Tensor of the rows hv, and the gradients of
    <logits, weights>: h's, then W1's, b1's, W2's and b2's."""
    for p in pred.params:
        p.zero_grad()
    h = Tensor(hv.copy())
    out = logits_fn(pred, h)
    ad.backward(ad.asum(ad.mul(out, weights)))
    return out, [h.grad] + [p.grad.copy() for p in pred.params]


@pytest.mark.parametrize("rows", [1, 3])
def test_predictor_is_one_node_equal_to_the_chain_bit_for_bit(rows):
    pred, hv = make_predictor(rows)
    p = pred.layer_params[0]
    pre = hv @ p["W1"].values + p["b1"].values
    assert pre[0, 0] == 0.0 and (pre > 0.0).any() and (pre < 0.0).any()
    weights = np.random.default_rng(2).standard_normal((rows, 3))
    out, grads = run_logits(Predictor.logits, pred, hv, weights)
    chain, chain_grads = run_logits(ref.predictor_logits, pred, hv, weights)
    assert out._parents[1:] == tuple(pred.params)
    assert np.array_equal(out.values, chain.values)
    assert len(grads) == len(chain_grads) == 5
    for got, want in zip(grads, chain_grads):
        assert np.array_equal(got, want)
    frozen = pred.frozen()  # plain arrays in, a plain array out, no tape
    logits, built = tensors_built(lambda: frozen.logits(hv))
    assert built == 0
    assert np.array_equal(logits, chain.values)
    assert np.array_equal(logits, ref.predictor_logits(frozen, hv))


def tensors_built(fn):
    """fn()'s result and the number of Tensors it created, read off the
    tape's creation counter (each read takes one number)."""
    start = next(ad._created)
    out = fn()
    return out, next(ad._created) - start - 1


@pytest.mark.parametrize("as_tensor", [True, False], ids=["tensor", "constant"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_each_layer_is_one_tape_node(kind, as_tensor):
    batch = mixed_batch()
    enc = make_encoder(kind, num_layers=3)
    H = Tensor(batch.features) if as_tensor else batch.features
    out, built = tensors_built(lambda: enc.layer_forward(H, batch, 0))
    assert built == 1
    assert out._parents == ((H,) if as_tensor else ()) + tuple(enc.layer_params[0].values())
    # the stack: one node per layer, one for the readout
    _, built = tensors_built(lambda: encode_euclidean(batch, enc))
    assert built == enc.num_layers + 1


def default_step(**changes):
    """One default-config train_step on 8 featurized graphs, as a callable;
    `changes` are config keys to override."""
    cfg = ExperimentConfig().replace(**changes)
    graphs = [synthesize_features(g, cap=cfg.degree_cap)
              for g in synthetic_dataset(cfg.batch_size).graphs]
    model = _build_model(cfg, graphs[0].features.shape[1], 2, 0)
    opt = ad.Adam(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    views = ViewSampler(cfg.alpha_e, cfg.alpha_h, seed=0)
    loss_cfg = LossConfig(temperature=cfg.temperature, lambda_u=cfg.lambda_u, omega=cfg.omega)
    batch = Batch(labeled=graphs[0], unlabeled=graphs[1:])
    return lambda: train_step(batch, model, views, loss_cfg, opt)


def test_default_train_step_skips_gins_first_block_product(monkeypatch):
    # views carry their parents' degree classes, so gin's first layer counts
    # neighbor classes: three gcn layers and two gin layers use the block
    calls = []

    def counted(*args, real=ad.block_product, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    step = default_step()
    monkeypatch.setattr(ad, "block_product", counted)
    step()
    assert len(calls) == 5


def test_default_train_step_builds_the_pinned_tensor_count():
    step = default_step()
    for _ in range(2):  # the count repeats exactly, step after step
        _, built = tensors_built(step)
        assert built == DEFAULT_STEP_TENSORS


def test_omega_0_train_step_builds_the_pinned_tensor_count():
    step = default_step(omega=0.0)
    for _ in range(2):
        _, built = tensors_built(step)
        assert built == OMEGA0_STEP_TENSORS
