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
Mobius linear layer there. The predictor is the same MLP, d -> d -> K:
`_mlp_rows` writes it once for both, and the predictor's logits are one
tape node, like each layer.

Every encoder call takes a GraphBatch: a `data.GraphStack` of B graphs,
the layout the samplers' union shares, with their node rows stacked graph
after graph, (sum of n_b, width), with no padding. Each layer of
the four kinds, relu included, is one tape node whatever B is. Its
closed-form VJP repeats the adjoints of the chain of primitives it
replaced, in that chain's order, so values and gradients equal the chain's
bit for bit (tests/fused_reference.py keeps the chains). A layer never
computes the adjoint of a constant input: layer 0's features get none.
Inside a layer the per-graph aggregation is `autodiff.block_product`: it
scatters the rows into a zero-padded (B, n_max, width) block, applies the
stacked (B, n_max, n_max) operators with one 3-D matmul and gathers the
real rows back. Padding lives only inside that op, so GIN's bias never
reaches a pad row and GAT's softmax never divides by a pad row's empty
mask. The Mobius path stays composite: each of its layers chains a
`block_aggregate` node, the ball maps and the Mobius ops. The readout is
one matmul with the constant (B, sum n_b) averaging matrix, giving one row
per graph. Only the entry points `encode_euclidean` and `encode_hyperbolic`
also take a single Graph, as a batch of one. Each kind's padded operator
stack is written at the batch's edges and self-loops the first time a
layer asks for it, and dies with the batch.

The features are one-hot degree classes, and `data.synthesize_features`
caches each node's class in `Graph.cache["classes"]`; the samplers carry
it into every view and the stack concatenates it. On the batch's own
features, the first gcn or gat layer gathers W's rows by class in place of
X @ W, and the first gin layer counts each row's neighbor-with-self
classes (one bincount over the batch's edges) in place of the padded
(A + I) X product. Both give exactly the dense values, and the weight
gradients still multiply by the dense X and (A + I) X, so outputs equal
the dense path's bit for bit. graphsage, the Mobius path, hidden layers
and batches with a graph that has no cached classes take the dense path.
Training encodes each space's views of a step as one batch, labeled view
first. `experiment.evaluate_accuracy` sizes the evaluation batches.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, glorot_uniform
from .data import GraphStack
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


class GraphBatch(GraphStack):
    """Graphs row-stacked for one encoder pass: a `data.GraphStack` whose
    `features` hold the node rows graph after graph. `slots` gives each
    row its place b * n_max + i in the padded layout of
    `autodiff.block_aggregate`, and `readout` is the constant (B, n) matrix
    whose row b averages graph b's rows.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise ContractError("a graph batch needs at least one graph")
        if any(g.features is None for g in graphs):
            raise ContractError("graph has no features; synthesize them first")
        super().__init__(graphs)
        self.n_max, rows = int(self.sizes.max()), np.arange(self.n)
        graph_of = np.repeat(np.arange(len(graphs)), self.sizes)
        self._local = rows - self.starts[graph_of]
        self.slots = graph_of * self.n_max + self._local
        self.features = np.concatenate([g.features for g in graphs])
        self.readout = np.zeros((len(graphs), self.n))
        self.readout[graph_of, rows] = 1.0 / self.sizes[graph_of]
        self._links = None
        self._ops = {}

    def links(self):
        """(r, c): every edge as batch rows in both directions, then each
        row's self-loop r = c."""
        if self._links is None:
            (i, j), loops = self.edges.T, np.arange(self.n)
            self._links = (np.concatenate([i, j, loops]), np.concatenate([j, i, loops]))
        return self._links

    def classes_of(self, H):
        """The degree classes of H's rows when H is this batch's own one-hot
        `features`, else None."""
        return self.classes if H is self.features else None

    def neighbor_classes(self):
        """(A + I) X for the one-hot X = `features`, as the per-row counts of
        the classes over each row's neighbors-with-self; needs `classes`."""
        r, c = self.links()
        width = self.features.shape[1]
        counts = np.bincount(r * width + self.classes[c], minlength=self.n * width)
        return counts.reshape(self.n, width).astype(np.float64)

    def operators(self, kind):
        """The (B, n_max, n_max) stack of the graphs' propagation operators,
        zero outside each graph's corner; built once per batch by writing
        each kind's values at the edges and self-loops it keeps."""
        ops = self._ops.get(kind)
        if ops is None:
            r, c = self.links()
            if kind is EncoderKind.GRAPHSAGE:  # no self-loops; isolated rows stay zero
                r, c = r[:-self.n], c[:-self.n]
                w = 1.0 / self.degrees[r]
            elif kind is EncoderKind.GCN:
                d_inv_sqrt = 1.0 / np.sqrt(self.degrees + 1)
                w = d_inv_sqrt[r] * d_inv_sqrt[c]
            else:  # GIN sums over neighbors-with-self, GAT masks attention with them
                w = 1.0
            ops = np.zeros((len(self.graphs), self.n_max, self.n_max))
            ops.reshape(-1, self.n_max)[self.slots[r], self._local[c]] = w
            self._ops[kind] = ops
        return ops


def _as_batch(graphs):
    """A GraphBatch as it is; a single Graph as a batch of one."""
    return graphs if isinstance(graphs, GraphBatch) else GraphBatch([graphs])


def _mlp_params(rng, w_in, w_hidden, w_out):
    """Glorot weights (W1 drawn first) and zero biases of the MLP
    relu(x W1 + b1) W2 + b2, GIN's layer MLP and the predictor."""
    return {"W1": glorot_uniform(rng, w_in, w_hidden), "b1": Tensor(np.zeros((1, w_hidden))),
            "W2": glorot_uniform(rng, w_hidden, w_out), "b2": Tensor(np.zeros((1, w_out)))}


def _mlp_rows(x, p, need_x):
    """relu(x W1 + b1) W2 + b2 over the rows of the array x, and its VJP,
    which gives the adjoints of x (None unless need_x), W1, b1, W2 and b2,
    each as the chain of primitives computes it; `link` sums the bias
    adjoints over the rows."""
    W1, b1, W2, b2 = (ad.values_of(t) for t in p.values())
    a1 = x @ W1 + b1
    h = np.maximum(a1, 0.0)

    def vjp(g):
        g1 = (g @ W2.T) * (a1 > 0.0)
        return g1 @ W1.T if need_x else None, x.T @ g1, g1, h.T @ g, g

    return h @ W2 + b2, vjp


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
        block_aggregate node for every graph of the batch (Mobius path)."""
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
        """One relu-activated layer of this encoder's kind over the node
        rows H of a GraphBatch, as one tape node."""
        expect = self.in_dim if layer == 0 else self.hidden_dim
        if H.shape[1] != expect:
            raise ShapeError(
                f"layer {layer} of {self.kind.value} expects width {expect}, got {H.shape[1]}"
            )
        return _LAYERS[self.kind](H, batch, self.kind, self.layer_params[layer])

    def node_embeddings(self, batch):
        """The layer stack over the batch's row-stacked features."""
        H = batch.features
        for layer in range(self.num_layers):
            H = self.layer_forward(H, batch, layer)
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


# --- fused layers (see the module docstring) ------------------------------
# Only H may be a constant (the features, at layer 0). The parameters are
# all Tensors, or all arrays in a frozen() copy, which builds no node.


def _linear_then_aggregate(H, batch, kind, p):
    """gcn and gat: relu(P (H W)), P the normalized adjacency, or the
    attention over H W with scores (H W) a_src and (H W) a_dst."""
    hv, W = ad.values_of(H), ad.values_of(p["W"])
    classes = batch.classes_of(H)
    z = hv @ W if classes is None else W[classes]  # a one-hot row picks its class's row
    parts = (H, p["W"])
    scores = None
    if kind is EncoderKind.GAT:
        parts += (p["a_src"], p["a_dst"])
        a_src, a_dst = ad.values_of(p["a_src"]), ad.values_of(p["a_dst"])
        scores = (z @ a_src, z @ a_dst)
    agg, agg_vjp = ad.block_product(z, batch.slots, batch.operators(kind), scores)
    need_h = isinstance(H, Tensor)

    def vjp(g):
        gz, *g_scores = agg_vjp(g * (agg > 0.0))
        if scores is not None:  # the chain added the a_dst term before the a_src one
            gs, gt = g_scores
            gz = gz + gt @ a_dst.T
            gz = gz + gs @ a_src.T
            g_scores = (z.T @ gs, z.T @ gt)
        return (gz @ W.T if need_h else None, hv.T @ gz, *g_scores)

    return ad.link(parts, np.maximum(agg, 0.0), vjp)


def _sage_layer(H, batch, kind, p):
    """relu([H, P H] W), P the neighbor mean."""
    hv, W = ad.values_of(H), ad.values_of(p["W"])
    agg, agg_vjp = ad.block_product(hv, batch.slots, batch.operators(kind))
    cat = np.concatenate([hv, agg], axis=1)
    y = cat @ W
    need_h = isinstance(H, Tensor)

    def vjp(g):
        gy = g * (y > 0.0)
        gh = None
        if need_h:
            g_self, g_agg = np.split(gy @ W.T, [hv.shape[1]], axis=1)
            gh = g_self + agg_vjp(g_agg)[0]
        return gh, cat.T @ gy

    return ad.link((H, p["W"]), np.maximum(y, 0.0), vjp)


def _gin_layer(H, batch, kind, p):
    """relu(MLP((A + I) H)), the MLP as in `_mlp_rows`; (A + I) H is a class
    count when H is the batch's one-hot features."""
    if batch.classes_of(H) is None:
        agg, agg_vjp = ad.block_product(ad.values_of(H), batch.slots, batch.operators(kind))
    else:  # a constant H needs no agg_vjp
        agg, agg_vjp = batch.neighbor_classes(), None
    a2, mlp_vjp = _mlp_rows(agg, p, isinstance(H, Tensor))

    def vjp(g):
        g_agg, *g_params = mlp_vjp(g * (a2 > 0.0))
        return (None if g_agg is None else agg_vjp(g_agg)[0], *g_params)

    return ad.link((H, *p.values()), np.maximum(a2, 0.0), vjp)


_LAYERS = {
    EncoderKind.GCN: _linear_then_aggregate,
    EncoderKind.GAT: _linear_then_aggregate,
    EncoderKind.GRAPHSAGE: _sage_layer,
    EncoderKind.GIN: _gin_layer,
}


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
        """The MLP over the rows of h, as one tape node."""
        p = self.layer_params[0]
        return ad.link((h, *p.values()), *_mlp_rows(ad.values_of(h), p, isinstance(h, Tensor)))


def predict(h, pred):
    """Class probabilities (B, K), one row per graph: sigmoid of the predictor MLP output."""
    if h.space != EUCLIDEAN:
        raise ContractError(f"predict expects a euclidean embedding, got {h.space!r}")
    return ad.sigmoid(pred.logits(h.tensor))
