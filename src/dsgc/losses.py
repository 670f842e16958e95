"""Dual-space contrastive objective and the per-batch training step.

A batch holds one labeled graph and N unlabeled graphs. Each graph
contributes two sampled views: a diffusion view encoded in Euclidean space
(and then mapped into the ball) and a community-expansion view encoded on
the hyperbolic path. Geodesic similarities between these ball points feed
InfoNCE terms:

  labeled     -log( e^{s+/t} / (e^{s+/t} + sum_i e^{s-_i/t}) )
              s+ = sim(H^H_l, H^EH_l),  s-_i = sim(H^EH_l, H^H_u[i])
  unlabeled_i -log( e^{s+/t} / (e^{s+/t} + e^{s-/t}) )
              s+ = sim(H^H_u[i], H^EH_u[i]),  s- = sim(H^H_l, H^EH_u[i])

  total = supervised + omega * (labeled + (lambda_u / N) * sum_i unlabeled_i)

Each space encodes all N + 1 views of a step in one encoder call (labeled
view first), one row per graph; each call is one tape node over its layer
stack and readout, the hyperbolic one left in the tangent space at the
origin (`encoders.tangent_readout`). In training, everything after the two
readouts is one tape node, `step_objective`, with one closed-form VJP, so
a default step builds 3 Tensors and an omega-0 step 2:
  * the supervised part: the predictor MLP over the labeled Euclidean row
    (`encoders._mlp_rows`), the sigmoid and the binary cross-entropy;
  * the contrastive part: one exp0 of the hyperbolic tangent rows stacked
    over the Euclidean rows, one ball check of both blocks of points, one
    similarity evaluation over the 3N + 1 stacked (u, v) row pairs of both
    blocks whatever N, and the two blocks of terms (the labeled s-_i fill
    one row; unlabeled_i is row i of one (N, 1) column);
  * the total. At omega = 0 the node computes the supervised part alone.
The public node functions (`encoders.predict`, `supervised_loss`,
`to_hyperbolic`, `info_nce_labeled`, `info_nce_unlabeled`,
`total_objective`) compute the same values from the same array forms
(`encoders._mlp_rows`, `autodiff.sigmoid_rows`, `_bce_rows`,
`PoincareBall.exp0_rows` and `.similarity_rows`, `_nce_rows`,
`_total_rows`), so no formula is written twice; the node equals their
composite over row gathers, after an `expmap0` node of the hyperbolic
tangent rows, bit for bit: exp0 maps each row on its own, and a row that
is not pulled back onto the projection radius is scaled by exactly 1. A
training step runs none of them.

Similarities are capped near 7.07e5 (coincident points), so every term is
evaluated as a max-shifted logsumexp along its row of scores; the shift is
grouped so that the all-equal-scores case yields ln(N+1) exactly. The
supervised loss is binary cross-entropy summed over classes, matching the
predictor's elementwise-sigmoid output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .samplers import SamplerConfig, community_expansion_sample, diffusion_sample
from .encoders import (
    EUCLIDEAN,
    HYPERBOLIC,
    GraphBatch,
    GraphEmbedding,
    _mlp_rows,
    encode_euclidean,
    encode_hyperbolic,  # noqa: F401  perfbench wraps losses.encode_hyperbolic by name
    predict,  # noqa: F401  perfbench wraps losses.predict by name
    tangent_readout,
)
from .errors import ContractError, ShapeError

BCE_PROB_FLOOR = 1e-15  # keeps log finite when sigmoid saturates


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 1.0
    lambda_u: float = 1.0
    omega: float = 0.01

    def __post_init__(self):
        if not (0 < self.temperature < math.inf):
            raise ContractError(f"temperature must be positive and finite, got {self.temperature}")
        if not (0 <= self.lambda_u < math.inf and 0 <= self.omega < math.inf):
            raise ContractError("lambda_u and omega must be nonnegative and finite, "
                                f"got {self.lambda_u} and {self.omega}")


@dataclass
class Batch:
    labeled: object                 # Graph with a label
    unlabeled: list = field(default_factory=list)

    def __post_init__(self):
        if self.labeled.label is None:
            raise ContractError("batch's labeled graph has no label")
        if len(self.unlabeled) < 1:
            raise ContractError("batch needs at least one unlabeled graph")


@dataclass
class StepMetrics:
    total: float
    supervised: float
    contrastive: float
    prediction: np.ndarray          # (K,) probabilities for the labeled graph


def _require_space(emb, space, who):
    if not isinstance(emb, GraphEmbedding) or emb.space != space:
        got = getattr(emb, "space", type(emb).__name__)
        raise ContractError(f"{who}: expected a {space} embedding, got {got!r}")


def to_hyperbolic(h, ball):
    """Map Euclidean graph embeddings, one per row, into the ball (tag flips)."""
    _require_space(h, EUCLIDEAN, "to_hyperbolic")
    return GraphEmbedding(ball.expmap0(h.tensor), HYPERBOLIC)


def _nce_rows(sp, sn, temperature):
    """Per row, -log softmax of the positive score via a shifted logsumexp,
    on arrays.

    sp is a column of positive scores; sn is a block of negative scores
    with the same rows. Returns a column, one loss per row, and vjp(g), the
    adjoints of sp and sn. Grouping it as log(sum exp(s/t - m)) + (m - s+/t)
    makes the equal-scores case exact: m equals s+/t, the second term is
    exactly 0.
    """
    inv_t = 1.0 / temperature
    try:
        row = np.concatenate([sp, sn], axis=1) * inv_t
    except ValueError:
        raise ShapeError(f"_nce: {sp.shape[0]} positive rows, negatives {sn.shape}") from None
    sp = row[:, :1]
    top = row.argmax(axis=1)
    rows = np.arange(row.shape[0])
    m = row[rows, top][:, None]
    e = np.exp(row - m)
    total = np.add.reduce(e, axis=1, keepdims=True)

    def vjp(g):
        # the adjoints add up in the order of the chain of primitives: the
        # softmax part, then g minus its sum routed to the row's maximum,
        # then -g on the positive; a softmax - 1 form cancels differently
        grow = g / total * e
        grow[rows, top] += (g - np.add.reduce(grow, axis=1, keepdims=True))[:, 0]
        return (grow[:, :1] - g) * inv_t, grow[:, 1:] * inv_t

    return np.log(total) + (m - sp), vjp


def _nce(s_pos, s_neg, temperature):
    """`_nce_rows` as one tape node."""
    return ad.link((s_pos, s_neg), *_nce_rows(ad.values_of(s_pos), ad.values_of(s_neg),
                                              temperature))


def info_nce_labeled(h_l_hyp, h_l_e2h, h_u_hyps, ball, cfg):
    """Labeled-anchor InfoNCE with the batch's unlabeled hyperbolic views as negatives
    (every row of every embedding in h_u_hyps is one negative)."""
    _require_space(h_l_hyp, HYPERBOLIC, "info_nce_labeled")
    _require_space(h_l_e2h, HYPERBOLIC, "info_nce_labeled")
    if not h_u_hyps:
        raise ContractError("info_nce_labeled: need at least one negative")
    for h in h_u_hyps:
        _require_space(h, HYPERBOLIC, "info_nce_labeled")
    negs = ad.concat_rows([h.tensor for h in h_u_hyps])
    s_pos = ball.geodesic_similarity(h_l_hyp.tensor, h_l_e2h.tensor)
    s_negs = ball.geodesic_similarity(h_l_e2h.tensor, negs)
    return _nce(s_pos, ad.transpose(s_negs), cfg.temperature)


def info_nce_unlabeled(h_u_hyp, h_u_e2h, h_l_hyp, ball, cfg):
    """The (N, 1) column of unlabeled terms, row i from row i of the two
    row-stacked unlabeled views (total_objective applies lambda_u/N)."""
    for h in (h_u_hyp, h_u_e2h, h_l_hyp):
        _require_space(h, HYPERBOLIC, "info_nce_unlabeled")
    if h_u_hyp.tensor.shape[0] != h_u_e2h.tensor.shape[0]:
        raise ContractError("info_nce_unlabeled: the two unlabeled views differ in rows")
    s_pos = ball.geodesic_similarity(h_u_hyp.tensor, h_u_e2h.tensor)
    s_neg = ball.geodesic_similarity(h_l_hyp.tensor, h_u_e2h.tensor)
    return _nce(s_pos, s_neg, cfg.temperature)


def _bce_rows(pv, label):
    """`supervised_loss` on arrays: the (1, 1) loss and vjp(g), the adjoint
    of pv."""
    k = pv.shape[1]
    if not (0 <= label < k):
        raise ContractError(f"label {label} outside [0, {k})")
    hit = np.arange(k) == label
    q = np.where(hit, pv, 1.0 - pv)
    kept = np.maximum(q, BCE_PROB_FLOOR)

    def vjp(g):
        return np.where(hit, -g, g) / kept * (q >= BCE_PROB_FLOOR)

    return -np.add.reduce(np.log(kept), axis=None, keepdims=True), vjp


def supervised_loss(p, label):
    """Binary cross-entropy summed over classes against the one-hot target,
    as one tape node.

    The label's probability and every other class's complement 1 - p are
    floored at BCE_PROB_FLOOR before the log; no gradient passes a floored
    entry.
    """
    v, vjp = _bce_rows(ad.values_of(p), label)
    return ad.link((p,), v, lambda g: (vjp(g),))


def _total_rows(sv, lv, terms, cfg):
    """`total_objective` on arrays: sv the supervised loss, lv the labeled
    term, terms the (N, 1) column of unlabeled terms. Returns the total, the
    contrastive term lv + (lambda_u / N) * sum(terms), and vjp(g): the
    adjoints of sv and lv, and the (1, 1) adjoint every term shares."""
    scale = cfg.lambda_u / terms.shape[0]
    contra = lv + np.add.reduce(terms, axis=None, keepdims=True) * scale

    def vjp(g):
        g_contra = g * cfg.omega
        return g, g_contra, g_contra * scale

    return sv + contra * cfg.omega, contra, vjp


def total_objective(sup, labeled_nce, unlabeled_nces, cfg):
    """sup + omega * (labeled + (lambda_u / N) * sum of unlabeled terms), as
    one tape node, where unlabeled_nces lists columns of terms and N is
    their total row count."""
    if not unlabeled_nces:
        raise ContractError("total_objective: need at least one unlabeled term")
    if cfg.omega == 0.0:
        return sup
    parts = [ad.values_of(u) for u in unlabeled_nces]
    try:
        terms = np.concatenate(parts)
    except ValueError:
        shapes = [u.shape for u in parts]
        raise ShapeError(f"total_objective: unlabeled term shapes {shapes}") from None
    v, _, total_vjp = _total_rows(ad.values_of(sup), ad.values_of(labeled_nce), terms, cfg)

    def vjp(g):
        g_sup, g_l, g_terms = total_vjp(g)
        return (g_sup, g_l, *(np.broadcast_to(g_terms, u.shape) for u in parts))

    return ad.link((sup, labeled_nce, *unlabeled_nces), v, vjp)


@functools.cache
def _head_pairs(n):
    """Row indices of the (u, v) pairs `step_objective` scores, into the n
    hyperbolic points stacked over the n mapped Euclidean rows (labeled
    graph first in each): the unlabeled positives (h_h[i], eh[i]) and
    negatives (h_h[0], eh[i]), then the labeled positive (h_h[0], eh[0])
    and negatives (eh[0], h_h[i]), for i = 1..N, N = n - 1."""
    unl = np.arange(1, n)
    first = np.zeros(n - 1, dtype=np.int64)
    iu = np.concatenate([unl, first, [0], first + n])
    iv = np.concatenate([unl + n, unl + n, [n], unl])
    return iu, iv


def _head_rows(ev, tv, ball, cfg):
    """The two InfoNCE blocks of `step_objective` on arrays: the labeled
    term, the (N, 1) column of unlabeled terms, and vjp(g_l, g_terms), the
    adjoints of ev and tv from those of the terms."""
    n = tv.shape[0]
    if ev.shape != tv.shape or n < 2:
        raise ContractError(f"step_objective: need two views of the same n >= 2 graphs, "
                            f"got {ev.shape} and {tv.shape}")
    k, d = n - 1, tv.shape[1]
    # one exp0 maps both readouts: the hyperbolic points over the mapped Euclidean rows
    mapped, exp0_vjp = ball.exp0_rows(np.concatenate([tv, ev]), " of the hyperbolic readout",
                                      " of the Euclidean readout")
    pts, sq = ball.scaled_rows(mapped, " of the hyperbolic view", " of the mapped Euclidean view")
    # one gather per operand fetches the pairs' points with their squared norms
    both = np.concatenate([pts, sq], axis=1)
    iu, iv = _head_pairs(n)
    u, v = both[iu], both[iv]
    sim, sim_vjp = ball.similarity_rows(u[:, :d], v[:, :d], u[:, d:], v[:, d:])
    terms, u_vjp = _nce_rows(sim[:k], sim[k:2 * k], cfg.temperature)
    lv, l_vjp = _nce_rows(sim[2 * k:2 * k + 1], sim[2 * k + 1:].T, cfg.temperature)

    def vjp(g_l, g_terms):
        g_pos, g_neg = u_vjp(g_terms)  # (1, 1): it broadcasts over the rows as it is
        g_lpos, g_lneg = l_vjp(g_l)
        gu, gv = sim_vjp(np.concatenate([g_pos, g_neg, g_lpos, g_lneg.T]))
        # each row sums what the taped composite summed from its two uses;
        # a broadcast operand sums its rows as `_unbroadcast` does. Rows
        # :n are the hyperbolic points', n: the mapped Euclidean rows'
        gp = np.empty_like(mapped)
        gp[:1] = gu[2 * k:2 * k + 1] + np.add.reduce(gu[k:2 * k], axis=0, keepdims=True)
        gp[1:n] = gv[2 * k + 1:] + gu[:k]
        gp[n:n + 1] = np.add.reduce(gu[2 * k + 1:], axis=0, keepdims=True) + gv[2 * k:2 * k + 1]
        gp[n + 1:] = gv[k:2 * k] + gv[:k]
        gt = exp0_vjp(gp)
        return gt[n:], gt[:n]

    return lv, terms, vjp


def step_objective(h_e, t_h, predictor, label, ball, cfg):
    """The step's total objective from the two readouts, the predictor and
    the label, as one tape node. Returns the total, the supervised and the
    contrastive values, and the prediction: the (K,) class probabilities of
    the labeled graph.

    h_e holds the Euclidean readout rows, and the Tensor t_h the hyperbolic
    readout in the tangent space at the origin (`encoders.tangent_readout`),
    one row per graph of the batch, labeled graph first. The predictor
    reads h_e's row 0 (`encoders.predict` with `supervised_loss`). The
    contrastive part maps t_h stacked over h_e into the ball in one exp0,
    scores all 3N + 1 pairs of both InfoNCE blocks in one similarity
    evaluation (`_head_pairs`), and adds up as `total_objective`. At
    cfg.omega == 0 only the supervised part runs and t_h, which may be
    None, is not read. The values equal, bit for bit, those of the node
    functions over row gathers after an `expmap0` node of t_h (see the
    module docstring). A readout row whose norm is not finite raises
    DomainError naming expmap0, its readout and its batch row.
    """
    _require_space(h_e, EUCLIDEAN, "step_objective")
    ev, params = ad.values_of(h_e.tensor), predictor.layer_params[0]
    contrast = cfg.omega != 0.0
    if contrast:  # first, so that a bad readout row is named before any product
        if not isinstance(t_h, ad.Tensor):
            raise ContractError(f"step_objective: expected the hyperbolic tangent readout "
                                f"as a Tensor, got {type(t_h).__name__}")
        lv, terms, head_vjp = _head_rows(ev, t_h.values, ball, cfg)
    logits, mlp_vjp = _mlp_rows(ev[:1], params, True)
    prob, sigmoid_vjp = ad.sigmoid_rows(logits)
    sv, bce_vjp = _bce_rows(prob, label)
    total, contra, total_vjp = _total_rows(sv, lv, terms, cfg) if contrast else (sv, 0.0, None)

    def vjp(g):
        if contrast:
            g_sup, g_l, g_terms = total_vjp(g)
            ge, gt = head_vjp(g_l, g_terms)
        else:
            g_sup, ge = g, np.zeros_like(ev)
        gx, *g_params = mlp_vjp(sigmoid_vjp(bce_vjp(g_sup)))
        ge[:1] += gx  # row 0's adjoint from the predictor, where the row gather put it
        return (ge, gt, *g_params) if contrast else (ge, *g_params)

    parts = (h_e.tensor, t_h) if contrast else (h_e.tensor,)
    return (ad.link((*parts, *params.values()), total, vjp), float(sv[0, 0]),
            float(contra[0, 0]) if contrast else 0.0, prob[0])


class ViewSampler:
    """Provides the two per-graph views used by the training step.

    The Euclidean path sees the diffusion view; the hyperbolic path sees
    the community-expansion view. Each call samples the graph afresh from
    the fixed seed. `train_step` calls `batches`; training passes
    `experiment._EpochViews`, which reseeds per epoch and plans every
    step's batches at once.
    """

    def __init__(self, rate_euclidean, rate_hyperbolic, seed):
        self._cfg_e = SamplerConfig(rate=rate_euclidean, seed=seed)
        self._cfg_h = SamplerConfig(rate=rate_hyperbolic, seed=seed)

    def euclidean_view(self, g):
        return diffusion_sample(g, self._cfg_e)

    def hyperbolic_view(self, g):
        return community_expansion_sample(g, self._cfg_h)

    def batches(self, graphs, hyperbolic=True):
        """The GraphBatch of the graphs' Euclidean views and, with
        `hyperbolic`, that of their hyperbolic views (else None), each
        space's views drawn in one sampler call."""
        return (GraphBatch(diffusion_sample(graphs, [self._cfg_e] * len(graphs))),
                GraphBatch(community_expansion_sample(graphs, [self._cfg_h] * len(graphs)))
                if hyperbolic else None)


@dataclass
class DsgcModel:
    """The trainable trio plus the geometry they share."""

    encoder_e: object
    encoder_h: object
    predictor: object
    ball: object

    @property
    def params(self):
        return self.encoder_e.params + self.encoder_h.params + self.predictor.params


def train_step(batch, model, views, cfg, optimizer):
    """One optimizer step on a batch; returns the step's losses and prediction.

    Each space encodes its views of the batch as one GraphBatch, labeled
    view first, which `views.batches` provides, and `step_objective` takes
    both readouts (the hyperbolic one in the tangent space), the predictor
    and the label to the total. With omega
    == 0 the contrastive half (unlabeled and hyperbolic views, hyperbolic
    encoder, head) is skipped entirely; the objective value is identical
    either way.
    """
    g_l = batch.labeled
    contrast = cfg.omega != 0.0
    graphs = [g_l] + list(batch.unlabeled) if contrast else [g_l]
    batch_e, batch_h = views.batches(graphs, contrast)
    h_e = encode_euclidean(batch_e, model.encoder_e)
    t_h = tangent_readout(batch_h, model.encoder_h, model.ball) if contrast else None
    total, supervised, contrastive, prediction = step_objective(
        h_e, t_h, model.predictor, g_l.label, model.ball, cfg)

    optimizer.zero_grad()
    ad.backward(total)
    optimizer.step()
    return StepMetrics(total=total.item(), supervised=supervised, contrastive=contrastive,
                       prediction=prediction)
