"""The Poincare maps, the geodesic similarity, the InfoNCE row, the
supervised loss, the total objective, Adam, the four encoder layers, the
Mobius path's aggregation, the predictor's logits, the row gather, the
step's objective and the padded block product as they were written before
they were fused, kept as the test reference.

Each map is a chain of autodiff primitives, one tape node per primitive,
and Adam loops over its parameters' own arrays. The fused versions in
`dsgc.poincare`, `dsgc.losses` and `dsgc.autodiff.Adam` must match these:
the ops to 1e-12, Adam bit for bit. The layers and the predictor of
`dsgc.encoders` must match theirs bit for bit, values and gradients, and
`dsgc.losses.step_objective` must match, bit for bit, the composite of
node functions that `train_step` ran before it (`step_objective` below).
`block_product` pads into a new zero block on every call; the layers here
aggregate through it, so `dsgc.autodiff.block_product` writing into a
batch's kept blocks must match it bit for bit.

`layer_node` is the other way round: one fused layer of `dsgc.encoders`
as its own tape node, the per-layer form that an encoder call
(`GraphEncoder.embed`, one node for the whole stack) replaced.
"""

import numpy as np

from dsgc import autodiff as ad
from dsgc.encoders import EUCLIDEAN, EncoderKind, GraphEmbedding, predict
from dsgc.errors import DomainError
from dsgc.losses import (BCE_PROB_FLOOR, info_nce_labeled, info_nce_unlabeled,
                         to_hyperbolic)
from dsgc.losses import supervised_loss as fused_supervised
from dsgc.losses import total_objective as fused_total
from dsgc.poincare import NORM_FLOOR


def take_rows(x, rows):
    """The rows of x picked by the index array rows, as one tape node; the
    VJP scatter-adds each row's adjoint back to where it came from."""
    xv = ad.values_of(x)

    def vjp(g):
        gx = np.zeros_like(xv)
        np.add.at(gx, rows, g)
        return (gx,)

    return ad.link((x,), xv[rows], vjp)


def check_inside(ball, x, what):
    v = ad.values_of(x)
    sq = ball.c * (v * v).sum(axis=-1)
    if (sq >= 1.0).any():
        raise DomainError(f"{what}: point on/outside the ball, c*||x||^2 max = {sq.max():.6g}")


def geodesic_similarity(ball, u, v):
    check_inside(ball, u, "geodesic_similarity")
    check_inside(ball, v, "geodesic_similarity")
    if ball.c != 1.0:
        u = ad.mul(u, ball.sqrt_c)
        v = ad.mul(v, ball.sqrt_c)
    du = ad.sub(u, v)
    sq_dist = ad.asum(ad.mul(du, du), axis=1)
    den = ad.mul(
        ad.sub(1.0, ad.asum(ad.mul(u, u), axis=1)),
        ad.sub(1.0, ad.asum(ad.mul(v, v), axis=1)),
    )
    arg = ad.add(1.0, ad.div(ad.mul(2.0, sq_dist), den))
    length = ad.arcosh(arg)
    if ball.c != 1.0:
        length = ad.mul(length, 1.0 / ball.sqrt_c)
    return ad.div(1.0, length)


def expmap0(ball, t):
    n = ad.clip_min(ad.rownorm(t), NORM_FLOOR)
    if ball.sqrt_c != 1.0:
        n = ad.mul(n, ball.sqrt_c)
    out = ad.div(ad.mul(ad.tanh(n), t), n)
    return ball.project(out)


def logmap0(ball, u):
    check_inside(ball, u, "logmap0")
    n = ad.clip_min(ad.rownorm(u), NORM_FLOOR)
    if ball.sqrt_c != 1.0:
        n = ad.mul(n, ball.sqrt_c)
    return ad.div(ad.mul(ad.artanh(n), u), n)


def nce(s_pos, s_neg, temperature):
    inv_t = 1.0 / temperature
    sp = ad.mul(s_pos, inv_t)
    row = ad.concat_cols([sp, ad.mul(s_neg, inv_t)])
    m = ad.amax(row, axis=1)
    lse = ad.log(ad.asum(ad.exp(ad.sub(row, m)), axis=1))
    return ad.add(lse, ad.sub(m, sp))


def supervised_loss(p, label):
    y = np.zeros((1, p.shape[1]))
    y[0, label] = 1.0
    pos = ad.mul(y, ad.log(ad.clip_min(p, BCE_PROB_FLOOR)))
    neg = ad.mul(1.0 - y, ad.log(ad.clip_min(ad.sub(1.0, p), BCE_PROB_FLOOR)))
    return ad.neg(ad.asum(ad.add(pos, neg)))


def total_objective(sup, labeled_nce, unlabeled_nces, cfg):
    if cfg.omega == 0.0:
        return sup
    terms = ad.concat_rows(unlabeled_nces)
    contra = ad.add(labeled_nce, ad.mul(ad.asum(terms), cfg.lambda_u / terms.shape[0]))
    return ad.add(sup, ad.mul(contra, cfg.omega))


def contrastive_head(sup, h_e, h_h, ball, cfg):
    """The head as train_step composed it from node functions: exp0 of the
    Euclidean rows, row gathers, the two InfoNCE blocks (four similarity
    nodes) and the total; returns the total and the contrastive value."""
    def rows(emb, picked):
        return GraphEmbedding(take_rows(emb.tensor, picked), emb.space)

    first, rest = [0], list(range(1, h_h.tensor.shape[0]))
    h_eh = to_hyperbolic(h_e, ball)
    h_h_l, h_h_u = rows(h_h, first), rows(h_h, rest)
    u_terms = info_nce_unlabeled(h_h_u, rows(h_eh, rest), h_h_l, ball, cfg)
    l_term = info_nce_labeled(h_h_l, rows(h_eh, first), [h_h_u], ball, cfg)
    total = fused_total(sup, l_term, [u_terms], cfg)
    return total, l_term.item() + cfg.lambda_u / len(rest) * float(u_terms.values.sum())


def step_objective(h_e, h_h, predictor, label, ball, cfg):
    """The objective as train_step composed it from node functions: the
    labeled row's gather, `predict` (the logits and sigmoid nodes), the
    supervised loss node and, unless omega is 0, the head above; returns the
    total, the supervised and contrastive values and the prediction."""
    p = predict(GraphEmbedding(take_rows(h_e.tensor, [0]), EUCLIDEAN), predictor)
    sup = fused_supervised(p, label)
    total, contrastive = (sup, 0.0) if cfg.omega == 0.0 else contrastive_head(sup, h_e, h_h,
                                                                               ball, cfg)
    return total, sup.item(), contrastive, p.values[0]


class LoopAdam:
    """Adam with decoupled weight decay, one parameter array at a time."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                p.values -= self.lr * self.weight_decay * p.values
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def block_product(xv, slots, ops, scores=None):
    """`dsgc.autodiff.block_product` as it was before batches kept their
    blocks: every scatter fills a new zero block, then writes the rows."""
    count, n_max, _ = ops.shape

    def scatter(a):
        block = np.zeros((count * n_max, a.shape[1]))
        block[slots] = a
        return block.reshape(count, n_max, a.shape[1])

    def gather(block):
        return block.reshape(count * n_max, -1)[slots]

    xb = scatter(xv)
    if scores is None:
        w = ops
    else:
        s, t = (scatter(c) for c in scores)
        pre = s + t.transpose(0, 2, 1)
        masked = (np.where(pre > 0.0, pre, ad.ATTENTION_SLOPE * pre) * ops
                  - ad._MASK_OFFSET * (1.0 - ops))
        kept = np.exp(masked - masked.max(axis=2, keepdims=True)) * ops
        total = kept.sum(axis=2, keepdims=True)
        w = kept / np.where(total > 0.0, total, 1.0)

    def vjp(g, need_x=True):
        gb = scatter(g)
        gx = gather(w.transpose(0, 2, 1) @ gb) if need_x else None
        if scores is None:
            return (gx,)
        gw = gb @ xb.transpose(0, 2, 1)
        gpre = w * (gw - (w * gw).sum(axis=2, keepdims=True))
        gpre *= np.where(pre > 0.0, 1.0, ad.ATTENTION_SLOPE)
        return gx, gather(gpre.sum(axis=2)), gather(gpre.sum(axis=1))

    return gather(w @ xb), vjp


def block_aggregate(x, slots, ops, scores=None):
    """`block_product` above as one tape node."""
    v, vjp = block_product(ad.values_of(x), slots, ops,
                           scores and tuple([ad.values_of(c) for c in scores]))
    need_x = isinstance(x, ad.Tensor)
    return ad.link((x, *(scores or ())), v, lambda g: vjp(g, need_x))


def layer_forward(enc, H, batch, layer):
    """One relu-activated layer of enc's kind over the node rows H of a
    GraphBatch, as a chain of primitives."""
    p = enc.layer_params[layer]
    ops = batch.operators(enc.kind)
    if enc.kind is EncoderKind.GCN:
        pre = block_aggregate(ad.matmul(H, p["W"]), batch.slots, ops)
    elif enc.kind is EncoderKind.GAT:
        Z = ad.matmul(H, p["W"])
        scores = (ad.matmul(Z, p["a_src"]), ad.matmul(Z, p["a_dst"]))
        pre = block_aggregate(Z, batch.slots, ops, scores)
    elif enc.kind is EncoderKind.GRAPHSAGE:
        cat = ad.concat_cols([H, block_aggregate(H, batch.slots, ops)])
        pre = ad.matmul(cat, p["W"])
    else:  # gin: (A + I) H through the two-layer MLP
        pre = mlp(block_aggregate(H, batch.slots, ops), p)
    return ad.relu(pre)


def layer_node(enc, H, batch, layer):
    """One relu-activated layer of enc over the node rows H of a GraphBatch,
    as one tape node: `GraphEncoder.layer_rows` linked to H and the layer's
    parameters."""
    v, vjp = enc.layer_rows(ad.values_of(H), batch, layer, isinstance(H, ad.Tensor))
    return ad.link((H, *enc.layer_params[layer].values()), v, vjp)


def layer_nodes(enc, batch):
    """enc's layer stack over the batch's features, one `layer_node` per layer."""
    H = batch.features
    for layer in range(enc.num_layers):
        H = layer_node(enc, H, batch, layer)
    return H


def mobius_aggregate(X, batch, kind, p):
    """The Mobius path's aggregation of the node rows X as a chain: one
    block_aggregate node, joined to X for graphsage and scored by two
    matmul nodes for gat."""
    ops = batch.operators(kind)
    if kind is EncoderKind.GRAPHSAGE:
        return ad.concat_cols([X, block_aggregate(X, batch.slots, ops)])
    if kind is EncoderKind.GAT:
        scores = (ad.matmul(X, p["a_src"]), ad.matmul(X, p["a_dst"]))
        return block_aggregate(X, batch.slots, ops, scores)
    return block_aggregate(X, batch.slots, ops)  # gcn / gin (eps = 0: (A + I) X)


def mlp(x, p):
    """relu(x W1 + b1) W2 + b2, GIN's layer MLP and the predictor's."""
    hidden = ad.relu(ad.add(ad.matmul(x, p["W1"]), p["b1"]))
    return ad.add(ad.matmul(hidden, p["W2"]), p["b2"])


def predictor_logits(pred, h):
    """`Predictor.logits` as a chain of primitives."""
    return mlp(h, pred.layer_params[0])
