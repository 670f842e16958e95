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

The N unlabeled graphs travel row-stacked, one row each, so each kind of
score is one similarity call: s-_i fill one row and unlabeled_i is row i
of one (N, 1) column, four similarity calls per step whatever N. Each
space encodes all N + 1 views of a step in one encoder call (labeled view
first), and row gathers (`autodiff.take_rows`) pick the labeled and
unlabeled rows.

Similarities are capped near 7.07e5 (coincident points), so every term is
evaluated as a max-shifted logsumexp along its row of scores; the shift is
grouped so that the all-equal-scores case yields ln(N+1) exactly. Each
block of terms is one tape node with a closed-form VJP (`_nce`), and each
similarity call and exp0 map is one node too (see `poincare`). The
supervised loss is binary cross-entropy summed over classes, matching the
predictor's elementwise-sigmoid output; it and the total are one node each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .samplers import SamplerConfig, community_expansion_sample, diffusion_sample
from .encoders import (
    EUCLIDEAN,
    HYPERBOLIC,
    GraphBatch,
    GraphEmbedding,
    encode_euclidean,
    encode_hyperbolic,
    predict,
)
from .errors import ContractError, ShapeError

BCE_PROB_FLOOR = 1e-15  # keeps log finite when sigmoid saturates


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 1.0
    lambda_u: float = 1.0
    omega: float = 0.01

    def __post_init__(self):
        if not (self.temperature > 0):
            raise ContractError(f"temperature must be positive, got {self.temperature}")
        if self.lambda_u < 0 or self.omega < 0:
            raise ContractError("lambda_u and omega must be nonnegative")


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


def _nce(s_pos, s_neg, temperature):
    """Per row, -log softmax of the positive score via a shifted logsumexp,
    as one tape node.

    s_pos is a column of positive scores; s_neg is a block of negative
    scores with the same rows. Returns a column, one loss per row. Grouping
    it as log(sum exp(s/t - m)) + (m - s+/t) makes the equal-scores case
    exact: m equals s+/t, the second term is exactly 0.
    """
    inv_t = 1.0 / temperature
    sp = ad.values_of(s_pos) * inv_t
    try:
        row = np.concatenate([sp, ad.values_of(s_neg) * inv_t], axis=1)
    except ValueError:
        raise ShapeError(f"_nce: {sp.shape[0]} positive rows, negatives {s_neg.shape}") from None
    top = row.argmax(axis=1)
    rows = np.arange(row.shape[0])
    m = row[rows, top][:, None]
    e = np.exp(row - m)
    total = e.sum(axis=1, keepdims=True)

    def vjp(g):
        # the adjoints add up in the order of the chain of primitives: the
        # softmax part, then g minus its sum routed to the row's maximum,
        # then -g on the positive; a softmax - 1 form cancels differently
        grow = g / total * e
        grow[rows, top] += (g - grow.sum(axis=1, keepdims=True))[:, 0]
        return (grow[:, :1] - g) * inv_t, grow[:, 1:] * inv_t

    return ad.link((s_pos, s_neg), np.log(total) + (m - sp), vjp)


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


def supervised_loss(p, label):
    """Binary cross-entropy summed over classes against the one-hot target,
    as one tape node.

    The label's probability and every other class's complement 1 - p are
    floored at BCE_PROB_FLOOR before the log; no gradient passes a floored
    entry.
    """
    pv = ad.values_of(p)
    k = pv.shape[1]
    if not (0 <= label < k):
        raise ContractError(f"label {label} outside [0, {k})")
    hit = np.arange(k) == label
    q = np.where(hit, pv, 1.0 - pv)
    kept = np.maximum(q, BCE_PROB_FLOOR)

    def vjp(g):
        return (np.where(hit, -g, g) / kept * (q >= BCE_PROB_FLOOR),)

    return ad.link((p,), -np.log(kept).sum(keepdims=True), vjp)


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
    scale = cfg.lambda_u / terms.shape[0]
    contra = ad.values_of(labeled_nce) + terms.sum(keepdims=True) * scale
    v = ad.values_of(sup) + contra * cfg.omega

    def vjp(g):
        g_contra = g * cfg.omega
        g_terms = g_contra * scale
        return (g, g_contra, *(np.broadcast_to(g_terms, u.shape) for u in parts))

    return ad.link((sup, labeled_nce, *unlabeled_nces), v, vjp)


class ViewSampler:
    """Provides the two per-graph views used by the training step.

    The Euclidean path sees the diffusion view; the hyperbolic path sees
    the community-expansion view. Each call samples the graph afresh from
    the fixed seed. `train_step` only calls the two methods; training
    passes `experiment._EpochViews`, which reseeds per epoch and caches.
    """

    def __init__(self, rate_euclidean, rate_hyperbolic, seed):
        self._cfg_e = SamplerConfig(rate=rate_euclidean, seed=seed)
        self._cfg_h = SamplerConfig(rate=rate_hyperbolic, seed=seed)

    def euclidean_view(self, g):
        return diffusion_sample(g, self._cfg_e)

    def hyperbolic_view(self, g):
        return community_expansion_sample(g, self._cfg_h)


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


def _rows(emb, rows):
    """The chosen rows of an embedding, by one row gather."""
    return GraphEmbedding(ad.take_rows(emb.tensor, rows), emb.space)


def train_step(batch, model, views, cfg, optimizer):
    """One optimizer step on a batch; returns the step's losses and prediction.

    Each space encodes its views of the batch as one GraphBatch, labeled
    view first, and the Euclidean rows go into the ball with one expmap0.
    With omega == 0 the contrastive half (unlabeled and hyperbolic views,
    hyperbolic encoder) is skipped entirely; the objective value is
    identical either way.
    """
    g_l = batch.labeled
    graphs = [g_l] + list(batch.unlabeled) if cfg.omega != 0.0 else [g_l]
    first, rest = [0], list(range(1, len(graphs)))
    h_e = encode_euclidean(GraphBatch([views.euclidean_view(g) for g in graphs]),
                           model.encoder_e)
    p = predict(_rows(h_e, first), model.predictor)
    sup = supervised_loss(p, g_l.label)

    if cfg.omega != 0.0:
        ball = model.ball
        h_h = encode_hyperbolic(GraphBatch([views.hyperbolic_view(g) for g in graphs]),
                                model.encoder_h, ball)
        h_eh = to_hyperbolic(h_e, ball)
        h_h_l, h_h_u = _rows(h_h, first), _rows(h_h, rest)
        u_terms = info_nce_unlabeled(h_h_u, _rows(h_eh, rest), h_h_l, ball, cfg)
        l_term = info_nce_labeled(h_h_l, _rows(h_eh, first), [h_h_u], ball, cfg)
        total = total_objective(sup, l_term, [u_terms], cfg)
        u_sum = float(u_terms.values.sum())
        contrastive = l_term.item() + cfg.lambda_u / len(rest) * u_sum
    else:
        total = sup
        contrastive = 0.0

    optimizer.zero_grad()
    ad.backward(total)
    optimizer.step()
    return StepMetrics(
        total=total.item(),
        supervised=sup.item(),
        contrastive=contrastive,
        prediction=p.values[0].copy(),
    )
