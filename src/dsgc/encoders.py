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

Every encoder call takes a GraphBatch: the node rows of B graphs stacked
graph after graph, (sum of n_b, width), with no padding. Weight matmuls,
biases and activations act on all rows at once, so each is one tape node
per layer whatever B is. The per-graph aggregation is one
`autodiff.block_aggregate` node: it scatters the rows into a zero-padded
(B, n_max, width) block, applies the stacked (B, n_max, n_max) operators
with one 3-D matmul and gathers the real rows back. Padding lives only
inside that op, so GIN's bias never reaches a pad row and GAT's softmax
never divides by a pad row's empty mask. The readout is one matmul with the
constant (B, sum n_b) averaging matrix, giving one row per graph. Only the
entry points `encode_euclidean` and `encode_hyperbolic` also take a single
Graph, as a batch of one. The padded operator stack is built from the edges
once per batch and dies with it; nothing is cached across calls. Training
encodes each space's views of a step as one batch, labeled view first.
`experiment.evaluate_accuracy` sizes the evaluation batches.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, glorot_uniform
from .errors import ContractError, ShapeError
from .poincare import PoincareBall

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"


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
    tensor: Tensor            # (B, d), one row per graph
    space: str                # EUCLIDEAN or HYPERBOLIC

    @property
    def values(self):
        return ad.values_of(self.tensor)


class GraphBatch:
    """Graphs row-stacked for one encoder pass.

    `features` holds the node rows graph after graph and `n` counts them;
    `slots` gives each row its place b * n_max + i in the padded layout of
    `autodiff.block_aggregate`, and `readout` is the constant (B, n) matrix
    whose row b averages graph b's rows.
    """

    def __init__(self, graphs):
        self.graphs = list(graphs)
        if not self.graphs:
            raise ContractError("a graph batch needs at least one graph")
        if any(g.features is None for g in self.graphs):
            raise ContractError("graph has no features; synthesize them first")
        sizes = np.array([g.n for g in self.graphs])
        self.n = int(sizes.sum())
        self.n_max = int(sizes.max())
        self._graph_of = np.repeat(np.arange(len(sizes)), sizes)
        self._local = np.arange(self.n) - (np.cumsum(sizes) - sizes)[self._graph_of]
        self.slots = self._graph_of * self.n_max + self._local
        self.features = np.concatenate([g.features for g in self.graphs])
        self.readout = np.zeros((len(sizes), self.n))
        self.readout[self._graph_of, np.arange(self.n)] = 1.0 / sizes[self._graph_of]
        self._ops = {}

    def operators(self, kind):
        """The (B, n_max, n_max) stack of the graphs' propagation operators,
        zero outside each graph's corner; built once per batch from the edges."""
        ops = self._ops.get(kind)
        if ops is None:
            ops = np.zeros((len(self.graphs), self.n_max, self.n_max))
            owner = np.repeat(np.arange(len(self.graphs)), [g.num_edges for g in self.graphs])
            i, j = np.concatenate([g.edges for g in self.graphs]).T
            ops[owner, i, j] = 1.0
            ops[owner, j, i] = 1.0
            if kind is EncoderKind.GRAPHSAGE:
                ops /= np.maximum(ops.sum(axis=2, keepdims=True), 1.0)  # isolated nodes aggregate zeros
            else:  # neighbors-with-self: GIN sums over them, GAT masks attention with them
                ops[self._graph_of, self._local, self._local] = 1.0
            if kind is EncoderKind.GCN:
                deg = ops.sum(axis=2)
                d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1.0))  # pad rows have degree 0
                ops *= d_inv_sqrt[:, :, None]
                ops *= d_inv_sqrt[:, None, :]
            self._ops[kind] = ops
        return ops


def _as_batch(graphs):
    """A GraphBatch as it is; a single Graph as a batch of one."""
    return graphs if isinstance(graphs, GraphBatch) else GraphBatch([graphs])


def _mlp_params(rng, w_in, w_hidden, w_out):
    """Glorot weights (W1 drawn first) and zero biases for `_mlp`."""
    return {"W1": glorot_uniform(rng, w_in, w_hidden), "b1": Tensor(np.zeros((1, w_hidden))),
            "W2": glorot_uniform(rng, w_hidden, w_out), "b2": Tensor(np.zeros((1, w_out)))}


def _mlp(x, p):
    """relu(x W1 + b1) W2 + b2, GIN's layer MLP and the predictor."""
    h = ad.relu(ad.add(ad.matmul(x, p["W1"]), p["b1"]))
    return ad.add(ad.matmul(h, p["W2"]), p["b2"])


class _Module:
    """Parameters as one name -> Tensor dict per layer in `layer_params`;
    `params` lists them in layer order, which is Adam's flat layout."""

    @property
    def params(self):
        return [t for layer in self.layer_params for t in layer.values()]

    def frozen(self):
        """A copy on plain arrays of the current parameter values: same
        outputs, but no tape is built (evaluation needs no gradients)."""
        out = copy.copy(self)
        out.layer_params = [{k: t.values for k, t in layer.items()} for layer in self.layer_params]
        return out


class GraphEncoder(_Module):
    """A stack of same-kind layers mapping (n, F) features to (n, d) embeddings."""

    def __init__(self, kind, in_dim, hidden_dim, num_layers, rng, mobius=False):
        if num_layers < 1:
            raise ContractError(f"need at least one layer, got {num_layers}")
        self.kind = EncoderKind.parse(kind)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.mobius = mobius
        widths = [in_dim] + [hidden_dim] * (num_layers - 1)
        self.layer_params = [self._init_layer(w_in, hidden_dim, rng) for w_in in widths]

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
        return _mlp_params(rng, w_in, w_out, w_out)

    def _aggregate(self, X, batch, layer):
        """Kind-specific neighborhood aggregation of the node rows X, one
        block_aggregate node for every graph of the batch."""
        k = self.kind
        ops = batch.operators(k)
        if k is EncoderKind.GRAPHSAGE:
            return ad.concat_cols([X, ad.block_aggregate(X, batch.slots, ops)])
        if k is EncoderKind.GAT:
            p = self.layer_params[layer]
            scores = (ad.matmul(X, p["a_src"]), ad.matmul(X, p["a_dst"]))
            return ad.block_aggregate(X, batch.slots, ops, scores)
        return ad.block_aggregate(X, batch.slots, ops)  # gcn / gin (eps = 0: (A + I) X)

    def layer_forward(self, H, batch, layer):
        """One pre-activation layer pass of this encoder's kind over the
        node rows H of a GraphBatch."""
        expect = self.in_dim if layer == 0 else self.hidden_dim
        if H.shape[1] != expect:
            raise ShapeError(
                f"layer {layer} of {self.kind.value} expects width {expect}, got {H.shape[1]}"
            )
        p = self.layer_params[layer]
        k = self.kind
        if k in (EncoderKind.GCN, EncoderKind.GAT):
            return self._aggregate(ad.matmul(H, p["W"]), batch, layer)
        agg = self._aggregate(H, batch, layer)
        if k is EncoderKind.GRAPHSAGE:
            return ad.matmul(agg, p["W"])
        return _mlp(agg, p)

    def node_embeddings(self, batch):
        """relu-activated stack over the batch's row-stacked features."""
        H = batch.features
        for layer in range(self.num_layers):
            H = ad.relu(self.layer_forward(H, batch, layer))
        return H

    # --- optional fully-hyperbolic path -----------------------------------

    def mobius_node_points(self, batch, ball):
        """Ball-valued node states: aggregate in tangent space, then the
        Mobius linear/bias/activation composition per layer."""
        U = ball.expmap0(batch.features)
        for layer in range(self.num_layers):
            p = self.layer_params[layer]
            agg = ball.expmap0(self._aggregate(ball.logmap0(U), batch, layer))
            W = p["W"] if "W" in p else p["W1"]
            U = ball.hyperbolic_activation(agg, ad.transpose(W), p.get("b1", 0.0), "relu")
        return U


def readout_mean(node_embeddings, batch):
    """Euclidean graph embeddings (B, d): row b is the mean of graph b's
    node rows, one matmul with `batch.readout`."""
    return GraphEmbedding(ad.matmul(batch.readout, node_embeddings), EUCLIDEAN)


def encode_euclidean(graphs, enc):
    """One embedding row per graph of `graphs` (a GraphBatch or one Graph)."""
    batch = _as_batch(graphs)
    return readout_mean(enc.node_embeddings(batch), batch)


def encode_hyperbolic(graphs, enc, ball):
    """Same architecture on its own parameters; readout mapped into the ball."""
    batch = _as_batch(graphs)
    if enc.mobius:
        tangent = ball.logmap0(enc.mobius_node_points(batch, ball))
    else:
        tangent = enc.node_embeddings(batch)
    return GraphEmbedding(ball.expmap0(readout_mean(tangent, batch).tensor), HYPERBOLIC)


class Predictor(_Module):
    """Two-layer MLP d -> d -> K (one layer_params entry), sigmoid output."""

    def __init__(self, dim, num_classes, rng):
        self.layer_params = [_mlp_params(rng, dim, dim, num_classes)]

    def logits(self, h):
        return _mlp(h, self.layer_params[0])


def predict(h, pred):
    """Class probabilities (B, K), one row per graph: sigmoid of the predictor MLP output."""
    if h.space != EUCLIDEAN:
        raise ContractError(f"predict expects a euclidean embedding, got {h.space!r}")
    return ad.sigmoid(pred.logits(h.tensor))
