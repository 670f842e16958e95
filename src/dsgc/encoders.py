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
`_mlp_rows` writes it once for both. In training it runs inside the
step's objective node (`losses.step_objective`); `Predictor.logits`, one
tape node over it, and `predict` serve evaluation, on frozen parameters.

Every encoder call takes a GraphBatch: B graphs' node rows stacked graph
after graph, (sum of n_b, width), with no padding, and what a layer reads
of them. A `BatchPlan`, the `data.GraphStack` of many steps' graphs (the
samplers' union shares the layout), builds their batches in one pass as
slices of its flat arrays; `GraphBatch(graphs)` is its one-row case.
Each kind aggregates in one place, `_aggregate_rows`, an array form that
returns its value and a closed-form VJP; each fused layer, relu included,
wraps it in the same form, and the Mobius path links it as one tape node
per layer (`mobius_aggregate`). Every VJP repeats the adjoints of the
chain of primitives it replaced, in that chain's order, so values and
gradients equal the chain's bit for bit (tests/fused_reference.py keeps
the chains). An encoder call (`GraphEncoder.embed`) runs the whole stack
and the readout as one tape node whatever B is, whose VJP runs the
layers' VJPs in reverse. A layer never computes the adjoint of a constant
input: layer 0's features get none. A frozen copy runs the same stack on
plain arrays, builds no node and drops each layer's VJP with the layer.
The per-graph product inside an aggregation is `autodiff.block_product`:
it writes the rows into a zero-padded (B, n_max, width) block, applies
the stacked (B, n_max, n_max) operators, written at the plan's entries
the first time a layer asks, with one 3-D matmul and gathers the real rows
back. The batch owns one such block per width (`GraphBatch.blocks`), made
zero on first use: every product on the batch, forward or in a VJP,
writes only the real rows, so the pad rows stay zero and no call fills a
new block. GAT's forward rows stay the op's own, because its VJP reads
them after later products may have rewritten the batch's blocks, and so
do its two width-1 score columns, which would share one block. Pad rows
never leave the op, so GIN's bias never reaches a pad row and GAT's
softmax never divides by a pad row's empty mask. The readout
is one matmul with the constant (B, sum n_b) averaging matrix. The
hyperbolic side's readout stays in the tangent space (`tangent_readout`):
`encode_hyperbolic` maps it into the ball with an `expmap0` node, and in
training the step's objective node maps it together with the Euclidean
rows. Only `encode_euclidean`, `tangent_readout` and `encode_hyperbolic`
also take a single Graph.

The features are one-hot degree classes, and `data.synthesize_features`
caches each node's class in `Graph.cache["classes"]`; the samplers carry
it into every view and the stack concatenates it. On the batch's own
features, the first gcn or gat layer gathers W's rows by class in place of
X @ W, and the first gin layer counts each row's neighbor-with-self
classes (one bincount over the batch's edges) in place of the padded
(A + I) X product. Both give exactly the dense values, and the weight
gradients still multiply by the dense X and (A + I) X, so outputs equal
the dense path's bit for bit. graphsage, the Mobius path, hidden layers
and the batches of a plan with a graph that has no cached classes take
the dense path. Training encodes each space's views of a step as one
planned batch, labeled view first, whose features are written as the
one-hot rows of the classes. `experiment.evaluate_accuracy` sizes the
evaluation batches and plans them together.
"""

from __future__ import annotations

import copy
import enum
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, glorot_uniform
from .data import GraphStack
from .errors import ContractError, ShapeError

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


class BatchPlan(GraphStack):
    """The parameter-free structure of many GraphBatches, built in one pass.

    Row s of `rows` lists the positions in `graphs` of batch s's graphs, in
    order; a graph may recur, within a row too. The plan is the GraphStack
    of all batches' graphs, batch after batch, plus each node's padded
    slot. The operator entries (flat indices into each batch's padded
    operator stack, and each kind's values there) and GIN's class-count
    keys are flat arrays too, in three parts: at every edge i -> j in
    edge-row order, at its reverse j -> i, and at every node's self-loop in
    node order, each computed for all batches on a batch's first request.
    `batch(s)` slices them and writes batch s's features and readout.
    Batches have degree classes when every graph of the plan caches them.
    With a `width` every graph must, and a batch's features are the one-hot
    rows of the classes, `width` columns; else they are the graphs' rows.
    """

    def __init__(self, graphs, rows, width=None):
        lens = [len(row) for row in rows]
        if not all(lens):
            raise ContractError("a graph batch needs at least one graph")
        super().__init__([graphs[i] for row in rows for i in row])
        if width is not None and self.classes is None:
            raise ContractError("one-hot feature rows need every graph's degree classes")
        if width is None and any(g.features is None for g in self.graphs):
            raise ContractError("graph has no features; synthesize them first")
        self.width = width
        self._first = list(itertools.accumulate(lens, initial=0))
        first = np.array(self._first[:-1])
        n_max = np.maximum.reduceat(self.sizes, first)
        nodes = np.append(self.starts[first], self.n)
        self.n_max, self._nodes = n_max.tolist(), nodes.tolist()
        self._edge_at = [0, *itertools.accumulate(np.add.reduceat(self.edge_counts, first).tolist())]
        # per slot: its batch, and then its place b * n_max + i in the batch's padding
        self._step = np.repeat(np.arange(len(lens)), lens)
        pad = (np.arange(len(self.graphs)) - first[self._step]) * n_max[self._step] - self.starts
        self.slots = np.arange(self.n) + np.repeat(pad, self.sizes)
        self._onehot = None if width is None else np.eye(width)  # row k: class k's one-hot row
        self._entries = {}

    def batch(self, s):
        """Batch s as a GraphBatch."""
        b = GraphBatch.__new__(GraphBatch)
        self._fill(b, s)
        return b

    def _fill(self, b, s):
        q0, q1, n0, n1 = self._first[s], self._first[s + 1], self._nodes[s], self._nodes[s + 1]
        b.graphs, b.n, b.n_max, b.slots = self.graphs[q0:q1], n1 - n0, self.n_max[s], self.slots[n0:n1]
        b.classes = None if self.classes is None else self.classes[n0:n1]
        # row b holds 1 / n_b at graph b's columns
        b.readout = np.repeat(np.diag(1.0 / self.sizes[q0:q1]), self.sizes[q0:q1], axis=1)
        if self.width is None:
            b.features = np.concatenate([g.features for g in b.graphs])
        else:
            b.features = self._onehot.take(b.classes, axis=0)
        b.plan, b.index, b._ops, b.blocks = self, s, {}, {}

    def _parts(self, s, parts):
        """Batch s's slices of three-part entry arrays (a scalar stays)."""
        e0, e1, n0, n1 = self._edge_at[s], self._edge_at[s + 1], self._nodes[s], self._nodes[s + 1]
        return [x if isinstance(x, float) else x[lo:hi]
                for x, lo, hi in zip(parts, (e0, e0, n0), (e1, e1, n1))]

    def operator_entries(self, kind, s):
        """Batch s's operator entries for `kind`: (flat indices into its
        (B * n_max * n_max) padded stack, values there) at its edges, at
        their reverses and, but for GraphSAGE, at its self-loops. A value is
        an array, or 1.0 for GIN's sum and GAT's mask."""
        got = self._entries.get(kind)
        if got is None:
            i, j = self.edges.T
            at = self._entries.get("at")
            if at is None:  # entry (r, c) sits at r's slot times n_max plus c's place
                n_max = np.repeat(np.array(self.n_max)[self._step], self.sizes)
                row, local = self.slots * n_max, self.slots % n_max
                at = self._entries["at"] = row[i] + local[j], row[j] + local[i], row + local
            if kind is EncoderKind.GRAPHSAGE:  # the neighbor mean; no self-loops
                w = 1.0 / self.degrees[i], 1.0 / self.degrees[j]
            elif kind is EncoderKind.GCN:  # d_i d_j, the same product either way round
                d = 1.0 / np.sqrt(self.degrees + 1)
                w_edge = d[i] * d[j]
                w = w_edge, w_edge, d * d
            else:
                w = 1.0, 1.0, 1.0
            got = self._entries[kind] = at[:len(w)], w
        at, w = got
        return list(zip(self._parts(s, at), self._parts(s, w)))

    def class_keys(self, width, s):
        """Batch s's keys row * width + class of each link's far end (both
        ends of every edge, and every node itself): their counts are
        (A + I) X for the one-hot X of the classes."""
        keys = self._entries.get(width)
        if keys is None:
            i, j = self.edges.T
            row = (np.arange(self.n) - np.repeat(np.array(self._nodes[:-1])[self._step],
                                                 self.sizes)) * width
            keys = self._entries[width] = (row[i] + self.classes[j], row[j] + self.classes[i],
                                           row + self.classes)
        return np.concatenate(self._parts(s, keys))


class GraphBatch:
    """Graphs row-stacked for one encoder pass, with what a layer reads:
    `graphs`, `n` rows of `features` graph after graph, their degree
    `classes` or None, each row's place b * n_max + i in the padded layout
    of `autodiff.block_product` (`slots`), the constant (B, n) `readout`
    whose row b averages graph b's rows, the zero-padded `blocks` by width
    that its products write into, and, on request, the `operators` and
    `neighbor_classes`. Built as the one-row `BatchPlan` of its graphs,
    on their own features, or as batch `index` of a larger `plan`.
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        BatchPlan(graphs, [range(len(graphs))])._fill(self, 0)

    def classes_of(self, H):
        """The degree classes of H's rows when H is this batch's own one-hot
        `features`, else None."""
        return self.classes if H is self.features else None

    def neighbor_classes(self):
        """(A + I) X for the one-hot X = `features`, as the per-row counts of
        the classes over each row's neighbors-with-self, one float
        histogram; needs `classes`."""
        width = self.features.shape[1]
        keys = self.plan.class_keys(width, self.index)
        return np.bincount(keys, np.ones(keys.size), self.n * width).reshape(self.n, width)

    def operators(self, kind):
        """The (B, n_max, n_max) stack of the graphs' propagation operators,
        zero outside each graph's corner; written once per batch at its
        plan's entries."""
        ops = self._ops.get(kind)
        if ops is None:
            ops = np.zeros(len(self.graphs) * self.n_max * self.n_max)
            for at, w in self.plan.operator_entries(kind, self.index):
                ops[at] = w
            ops = self._ops[kind] = ops.reshape(len(self.graphs), self.n_max, self.n_max)
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
    W1, b1, W2, b2 = map(ad.values_of, p.values())
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

    def layer_rows(self, hv, batch, layer, need_h):
        """Layer `layer` over the node rows hv, an array: its value and VJP,
        which gives the adjoints of hv (None unless need_h) and of the
        layer's parameters, in `layer_params` order."""
        expect = self.in_dim if layer == 0 else self.hidden_dim
        if hv.shape[1] != expect:
            raise ShapeError(
                f"layer {layer} of {self.kind.value} expects width {expect}, got {hv.shape[1]}"
            )
        return _LAYERS[self.kind](hv, batch, self.kind, self.layer_params[layer], need_h)

    def embed(self, batch):
        """The layer stack and the mean readout over the batch's features,
        one row per graph, as one tape node linked to the parameters; its
        VJP runs the layers' VJPs in reverse. A frozen copy builds no node
        and drops each layer's VJP with the layer."""
        params, H, vjps = self.params, batch.features, []
        for layer in range(self.num_layers):
            if isinstance(params[0], Tensor):
                H, layer_vjp = self.layer_rows(H, batch, layer, layer > 0)
                vjps.append(layer_vjp)
            else:
                H = self.layer_rows(H, batch, layer, False)[0]

        def vjp(g):
            gh, grads = batch.readout.T @ g, []
            for layer_vjp in reversed(vjps):
                gh, *g_params = layer_vjp(gh)
                grads[:0] = g_params
            return grads

        return ad.link(params, batch.readout @ H, vjp)

    # --- optional fully-hyperbolic path -----------------------------------

    def mobius_node_points(self, batch, ball):
        """Ball-valued node states: aggregate in tangent space, one node per
        layer, then the Mobius linear/bias/activation composition."""
        U = ball.expmap0(batch.features)
        for p in self.layer_params:
            agg = ball.expmap0(mobius_aggregate(ball.logmap0(U), batch, self.kind, p))
            W = p["W"] if "W" in p else p["W1"]
            U = ball.hyperbolic_activation(agg, ad.transpose(W), p.get("b1", 0.0), "relu")
        return U


# --- fused layers (see the module docstring) ------------------------------
# Array forms: each takes the node rows as an array and returns the layer's
# value and VJP. The parameters are all Tensors, or all arrays in a frozen()
# copy, which builds no node.


def _aggregate_rows(xv, batch, kind, p):
    """The kind's aggregation of the node rows xv, an array: its value and
    vjp(g, need_x=True), which gives xv's adjoint (None unless need_x) and,
    for gat, those of a_src and a_dst. gcn and gin apply their operator P,
    graphsage gives [X, P X] with P the neighbor mean, and gat attends with
    the scores X a_src and X a_dst of the rows it aggregates."""
    ops = batch.operators(kind)
    if kind is EncoderKind.GAT:
        a_src, a_dst = ad.values_of(p["a_src"]), ad.values_of(p["a_dst"])
        agg, agg_vjp = ad.block_product(xv, batch.slots, ops, batch.blocks,
                                        (xv @ a_src, xv @ a_dst))

        def vjp(g, need_x=True):
            gx, gs, gt = agg_vjp(g, need_x)
            if need_x:  # the chain added the a_dst term before the a_src one
                gx = gx + gt @ a_dst.T + gs @ a_src.T
            return gx, xv.T @ gs, xv.T @ gt

        return agg, vjp
    agg, agg_vjp = ad.block_product(xv, batch.slots, ops, batch.blocks)
    if kind is not EncoderKind.GRAPHSAGE:
        return agg, agg_vjp

    def vjp(g, need_x=True):
        g_self, g_agg = np.split(g, [xv.shape[1]], axis=1)
        return (g_self + agg_vjp(g_agg)[0] if need_x else None,)

    return np.concatenate([xv, agg], axis=1), vjp


def mobius_aggregate(X, batch, kind, p):
    """`_aggregate_rows` of the node rows X as one tape node, linked to X
    and gat's score vectors: the Mobius path's aggregation of a layer."""
    v, vjp = _aggregate_rows(ad.values_of(X), batch, kind, p)
    need_x = isinstance(X, Tensor)
    return ad.link((X, p.get("a_src"), p.get("a_dst")), v, lambda g: vjp(g, need_x))


def _linear_then_aggregate(hv, batch, kind, p, need_h):
    """gcn and gat: relu(P (H W)), P the normalized adjacency, or the
    attention over H W with scores (H W) a_src and (H W) a_dst."""
    W = ad.values_of(p["W"])
    classes = batch.classes_of(hv)
    z = hv @ W if classes is None else W[classes]  # a one-hot row picks its class's row
    agg, agg_vjp = _aggregate_rows(z, batch, kind, p)

    def vjp(g):
        gz, *g_scores = agg_vjp(g * (agg > 0.0))
        return (gz @ W.T if need_h else None, hv.T @ gz, *g_scores)

    return np.maximum(agg, 0.0), vjp


def _sage_layer(hv, batch, kind, p, need_h):
    """relu([H, P H] W), P the neighbor mean."""
    W = ad.values_of(p["W"])
    cat, cat_vjp = _aggregate_rows(hv, batch, kind, p)
    y = cat @ W

    def vjp(g):
        gy = g * (y > 0.0)
        return cat_vjp(gy @ W.T)[0] if need_h else None, cat.T @ gy

    return np.maximum(y, 0.0), vjp


def _gin_layer(hv, batch, kind, p, need_h):
    """relu(MLP((A + I) H)), the MLP as in `_mlp_rows`; (A + I) H is a class
    count when H is the batch's one-hot features."""
    if batch.classes_of(hv) is None:
        agg, agg_vjp = _aggregate_rows(hv, batch, kind, p)
    else:  # a constant H needs no agg_vjp
        agg, agg_vjp = batch.neighbor_classes(), None
    a2, mlp_vjp = _mlp_rows(agg, p, need_h)

    def vjp(g):
        g_agg, *g_params = mlp_vjp(g * (a2 > 0.0))
        return (None if g_agg is None else agg_vjp(g_agg)[0], *g_params)

    return np.maximum(a2, 0.0), vjp


_LAYERS = {
    EncoderKind.GCN: _linear_then_aggregate,
    EncoderKind.GAT: _linear_then_aggregate,
    EncoderKind.GRAPHSAGE: _sage_layer,
    EncoderKind.GIN: _gin_layer,
}


def encode_euclidean(graphs, enc):
    """One embedding row per graph of `graphs` (a GraphBatch or one Graph)."""
    return GraphEmbedding(enc.embed(_as_batch(graphs)), EUCLIDEAN)


def tangent_readout(graphs, enc, ball):
    """The hyperbolic branch's readout in the tangent space at the origin,
    one row per graph: `enc.embed`, or on the Mobius path the mean of the
    node points' log0."""
    batch = _as_batch(graphs)
    if enc.mobius:
        return ad.matmul(batch.readout, ball.logmap0(enc.mobius_node_points(batch, ball)))
    return enc.embed(batch)


def encode_hyperbolic(graphs, enc, ball):
    """Same architecture on its own parameters; readout mapped into the ball."""
    return GraphEmbedding(ball.expmap0(tangent_readout(graphs, enc, ball)), HYPERBOLIC)


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
