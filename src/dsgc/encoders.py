"""Graph encoders, mean readout, dual-space encoding paths, and the predictor.

Four layer kinds (standard published forms, single head, no normalization):

  gcn        H' = D^{-1/2} (A + I) D^{-1/2} H W
  graphsage  H' = concat(H, mean_{j in N(i)} H_j) W
  gat        H' = P Z with Z = H W and P the row-softmax of additive
             attention scores LeakyReLU(0.2)(a_s . z_i + a_d . z_j) over
             neighbors-with-self
  gin        H' = MLP((A + I) H), eps = 0, MLP = two linear layers with a
             relu in between (the only place biases appear)

relu follows every layer; the mean over node rows is the graph embedding.
The hyperbolic path runs the same architecture on its own parameters and
maps the readout into the ball with exp0. An optional fully-hyperbolic
variant (`mobius=True`) instead keeps node states on the ball and applies
each layer as aggregate-in-tangent-space followed by the Mobius
linear/bias/activation composition; the GIN MLP degenerates to that single
Mobius linear layer there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, glorot_uniform
from .errors import ContractError, ShapeError
from .poincare import PoincareBall

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"

_GAT_NEG_OFFSET = 1e4  # pushes non-neighbor scores below any real one


class EncoderKind(str, enum.Enum):
    GCN = "gcn"
    GRAPHSAGE = "graphsage"
    GAT = "gat"
    GIN = "gin"

    @classmethod
    def parse(cls, name):
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise ContractError(
                f"unknown encoder kind {name!r}, expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass
class GraphEmbedding:
    tensor: Tensor            # (n, d), one row per graph
    space: str                # EUCLIDEAN or HYPERBOLIC

    @property
    def values(self):
        return self.tensor.values


def _adjacency(g):
    a = np.zeros((g.n, g.n))
    if g.num_edges:
        e = g.edges
        a[e[:, 0], e[:, 1]] = 1.0
        a[e[:, 1], e[:, 0]] = 1.0
    return a


def _prop_matrix(g, kind):
    """Kind-specific constant propagation operator, memoized per graph."""
    key = f"prop:{kind.value}"
    mat = g.cache.get(key)
    if mat is None:
        a = _adjacency(g)
        if kind is EncoderKind.GCN:
            a_hat = a + np.eye(g.n)
            d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
            mat = a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
        elif kind is EncoderKind.GRAPHSAGE:
            deg = a.sum(axis=1, keepdims=True)
            mat = a / np.maximum(deg, 1.0)  # isolated nodes aggregate zeros
        else:  # GIN sums over neighbors-with-self; GAT masks attention with the same 0/1 matrix
            mat = a + np.eye(g.n)
        g.cache[key] = mat
    return mat


class GraphEncoder:
    """A stack of same-kind layers mapping (n, F) features to (n, d) embeddings."""

    def __init__(self, kind, in_dim, hidden_dim, num_layers, rng, mobius=False):
        if num_layers < 1:
            raise ContractError(f"need at least one layer, got {num_layers}")
        self.kind = EncoderKind.parse(kind)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.mobius = mobius
        self.layer_params = []
        for layer in range(num_layers):
            w_in = in_dim if layer == 0 else hidden_dim
            self.layer_params.append(self._init_layer(w_in, hidden_dim, rng))

    def _init_layer(self, w_in, w_out, rng):
        k = self.kind
        if k is EncoderKind.GCN:
            return {"W": glorot_uniform(rng, w_in, w_out)}
        if k is EncoderKind.GRAPHSAGE:
            return {"W": glorot_uniform(rng, 2 * w_in, w_out)}
        if k is EncoderKind.GAT:
            score_dim = w_in if self.mobius else w_out
            return {
                "W": glorot_uniform(rng, w_in, w_out),
                "a_src": glorot_uniform(rng, score_dim, 1),
                "a_dst": glorot_uniform(rng, score_dim, 1),
            }
        if self.mobius:  # Mobius GIN: single hyperbolic linear layer
            return {"W1": glorot_uniform(rng, w_in, w_out), "b1": Tensor(np.zeros((1, w_out)))}
        return {
            "W1": glorot_uniform(rng, w_in, w_out),
            "b1": Tensor(np.zeros((1, w_out))),
            "W2": glorot_uniform(rng, w_out, w_out),
            "b2": Tensor(np.zeros((1, w_out))),
        }

    @property
    def params(self):
        return [t for layer in self.layer_params for t in layer.values()]

    def _check_width(self, h_cols, layer):
        expect = self.in_dim if layer == 0 else self.hidden_dim
        if h_cols != expect:
            raise ShapeError(
                f"layer {layer} of {self.kind.value} expects width {expect}, got {h_cols}"
            )

    def _gat_attention(self, scores_src, scores_dst, mask):
        # additive attention, masked row-softmax with a max shift for stability
        e = ad.leaky_relu(ad.add(scores_src, ad.transpose(scores_dst)), 0.2)
        masked = ad.sub(ad.mul(e, mask), _GAT_NEG_OFFSET * (1.0 - mask))
        shifted = ad.exp(ad.sub(masked, ad.amax(masked, axis=1)))
        kept = ad.mul(shifted, mask)
        return ad.div(kept, ad.asum(kept, axis=1))

    def _aggregate(self, X, g, layer):
        """Kind-specific neighborhood aggregation of the node rows X."""
        p = self.layer_params[layer]
        k = self.kind
        prop = _prop_matrix(g, k)
        if k is EncoderKind.GRAPHSAGE:
            return ad.concat_cols([X, ad.matmul(prop, X)])
        if k is EncoderKind.GAT:
            att = self._gat_attention(
                ad.matmul(X, p["a_src"]), ad.matmul(X, p["a_dst"]), prop
            )
            return ad.matmul(att, X)
        return ad.matmul(prop, X)  # gcn / gin (eps = 0: (A + I) X)

    def layer_forward(self, H, g, layer):
        """One pre-activation layer pass of this encoder's kind."""
        self._check_width(H.shape[1], layer)
        p = self.layer_params[layer]
        k = self.kind
        if k in (EncoderKind.GCN, EncoderKind.GAT):
            return self._aggregate(ad.matmul(H, p["W"]), g, layer)
        agg = self._aggregate(H, g, layer)
        if k is EncoderKind.GRAPHSAGE:
            return ad.matmul(agg, p["W"])
        h1 = ad.relu(ad.add(ad.matmul(agg, p["W1"]), p["b1"]))
        return ad.add(ad.matmul(h1, p["W2"]), p["b2"])

    def node_embeddings(self, g):
        """relu-activated stack over the graph's feature matrix."""
        if g.features is None:
            raise ContractError("graph has no features; synthesize them first")
        H = g.features
        for layer in range(self.num_layers):
            H = ad.relu(self.layer_forward(H, g, layer))
        return H

    # --- optional fully-hyperbolic path -----------------------------------

    def mobius_node_points(self, g, ball):
        """Ball-valued node states: aggregate in tangent space, then the
        Mobius linear/bias/activation composition per layer."""
        if g.features is None:
            raise ContractError("graph has no features; synthesize them first")
        U = ball.expmap0(g.features)
        for layer in range(self.num_layers):
            p = self.layer_params[layer]
            agg = ball.expmap0(self._aggregate(ball.logmap0(U), g, layer))
            W = p["W"] if "W" in p else p["W1"]
            b = p.get("b1")
            if b is None:
                b = np.zeros((1, W.shape[1]))
            U = ball.hyperbolic_activation(agg, ad.transpose(W), b, "relu")
        return U


def readout_mean(node_embeddings):
    """Column-wise mean over node rows -> Euclidean graph embedding (1, d)."""
    if node_embeddings.shape[0] < 1:
        raise ContractError("readout over zero rows")
    return GraphEmbedding(ad.amean(node_embeddings, axis=0), EUCLIDEAN)


def encode_euclidean(g, enc):
    return readout_mean(enc.node_embeddings(g))


def encode_hyperbolic(g, enc, ball):
    """Same architecture on its own parameters; readout mapped into the ball."""
    if enc.mobius:
        points = enc.mobius_node_points(g, ball)
        mean_tangent = ad.amean(ball.logmap0(points), axis=0)
        return GraphEmbedding(ball.expmap0(mean_tangent), HYPERBOLIC)
    emb = readout_mean(enc.node_embeddings(g))
    return GraphEmbedding(ball.expmap0(emb.tensor), HYPERBOLIC)


class Predictor:
    """Two-layer MLP d -> d -> K with an elementwise-sigmoid output."""

    def __init__(self, dim, num_classes, rng):
        self.num_classes = num_classes
        self.W1 = glorot_uniform(rng, dim, dim)
        self.b1 = Tensor(np.zeros((1, dim)))
        self.W2 = glorot_uniform(rng, dim, num_classes)
        self.b2 = Tensor(np.zeros((1, num_classes)))

    @property
    def params(self):
        return [self.W1, self.b1, self.W2, self.b2]

    def logits(self, h):
        z = ad.relu(ad.add(ad.matmul(h, self.W1), self.b1))
        return ad.add(ad.matmul(z, self.W2), self.b2)


def predict(h, pred):
    """Class-probability vector (1, K): sigmoid of the predictor MLP output."""
    if h.space != EUCLIDEAN:
        raise ContractError(f"predict expects a euclidean embedding, got {h.space!r}")
    return ad.sigmoid(pred.logits(h.tensor))
