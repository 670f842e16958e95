"""View-generating sub-graph samplers.

Both samplers grow a node set S from a seeded uniform-random start node
until |S| = max(1, round(rate * n)), then emit the node-induced sub-graph
with ids remapped to 0..|S|-1 (insertion order; `orig_ids` keeps the map
back into the parent graph). Growth is via adjacency, so outputs are
always connected.

Each sampler takes a list of graphs and a matching list of SamplerConfigs
and returns the list of views; a single Graph with a single config is a
batch of one and returns one view. A call builds one CSR adjacency over
the batch's disjoint union (`data.GraphStack`, the layout the encoders'
batch shares), its graphs ordered by target size, largest first, and
grows every graph's S in lockstep, one node per graph per pass while any
graph is below its target size, with all bookkeeping in arrays
over the union. The graphs still growing are then always a prefix of the
union, so a pass works on leading slices. Neighbors are looked up by one
gather of the CSR rows asked for. Every view is then cut from the union in
one pass: the edge rows of all views get `Graph`'s checks together
(`data.check_edge_rows`), each view is built without checking them again
and takes its slice of the gathered node ids, edge rows and the stack's
degree classes. Each graph draws from its own stream,
the one numpy's default generator seeded with its config's seed gives, so
a view does not depend on the batch it is drawn in. The streams are
replayed with array ops (`streams.Streams`): a call seeds all of them at
once, and each round of draws is one bounded-draw step over the graphs
still growing, with a cursor per graph; a bound of 1 reads no word, as in
numpy.

  * diffusion_sample: frontier diffusion — repeatedly pick a uniform-random
    member of S that still has an outside neighbor, then a uniform-random
    such neighbor. Produces an unbiased "skeleton" view. It keeps, per
    node, the count of its neighbors outside S, so the eligible members of
    the graphs still growing are one mask over their (graphs, k) member
    matrix. Each growth step makes two draws per graph, both bounded by
    that graph's state: the member, then its outside neighbor. The r-th
    eligible member of a graph is found among the mask's nonzero positions
    at r past the hits of the graphs before it, and the r-th outside
    neighbor likewise among the free entries of the members' gathered
    neighbor rows.
  * community_expansion_sample: greedy structure expansion — among the
    candidate neighbors of S, add the one with the most neighbors outside
    S and the candidate set. Only the start node is random; the growth
    itself is deterministic. Produces a hierarchy-flavored view. It keeps
    a mask of the nodes not yet counted (neither in S nor candidates) and
    one int64 key per node, gain * (n + 1) + (n - id) over the union's n
    nodes, where gain counts its uncounted neighbors (one less for each
    neighbor that becomes counted), plus (n + 1)**2 while the node is a
    candidate. Each graph's pick is its largest key, one
    np.maximum.reduceat over the union: the most gain among candidates,
    ties going to the smallest original id, and the id is the key's
    remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph, GraphStack, check_edge_rows
from .errors import ContractError
from .streams import Streams


@dataclass(frozen=True)
class SamplerConfig:
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rate <= 1.0):
            raise ContractError(f"sampling rate must be in (0, 1], got {self.rate}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ContractError(f"sampler seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))   # streams split Python ints

    def target_size(self, n):
        return max(1, int(round(self.rate * n)))


def _require_connected(g, who, index=None):
    if not g.is_connected():
        where = "" if index is None else f" (batch index {index})"
        raise ContractError(f"{who}: graph must be connected (filter the dataset first){where}")


class _Union(GraphStack):
    """A batch's `data.GraphStack` plus its CSR adjacency, each node's
    neighbors sorted."""

    def __init__(self, graphs):
        super().__init__(graphs)
        n, (a, b) = self.n, self.edges.T
        self.nbr = np.sort(np.concatenate([a * n + b, b * n + a])) % n
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))

    def neighbors(self, nodes):
        """The neighbors of `nodes`, node after node: one gather of their
        CSR rows."""
        lens = self.degrees[nodes]
        ends = lens.cumsum()
        return self.nbr[np.arange(ends[-1] if len(ends) else 0)
                        + (self.indptr[1:][nodes] - ends).repeat(lens)]

    def cut(self, order, sizes):
        """Each graph's node-induced view on its slice of `order` (union
        ids of distinct nodes, view after view, sizes[i] for graph i),
        numbered in that order. All views' edge rows get `Graph`'s checks
        in one pass. The views get their slices of the stack's `classes`,
        or none when it has none."""
        ends = np.cumsum(sizes)
        local = np.full(self.n, -1, dtype=np.int64)
        local[order] = np.arange(len(order)) - np.repeat(ends - sizes, sizes)
        x, y = local.take(self.edges).T
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        keep = lo >= 0
        view = np.repeat(np.arange(len(sizes)), self.edge_counts)[keep]
        lo, hi = lo[keep], hi[keep]
        width = int(sizes.max())
        rows = np.argsort((view * width + lo) * width + hi)
        counts = np.bincount(view, minlength=len(sizes))
        edges = np.stack([lo[rows], hi[rows]], axis=1)
        check_edge_rows(edges, sizes, counts)
        ids = order - np.repeat(self.starts, sizes)
        classes = None if self.classes is None else self.classes[order]
        at, edge_at = [0, *ends.tolist()], [0, *np.cumsum(counts).tolist()]
        return [
            Graph.unchecked(b - a, edges[c:d], None if g.features is None else g.features[ids[a:b]],
                            g.label, ids[a:b], {} if classes is None else {"classes": classes[a:b]})
            for g, a, b, c, d in zip(self.graphs, at, at[1:], edge_at, edge_at[1:])
        ]


def induced_subgraph(g, order):
    """Node-induced sub-graph on `order`, distinct node ids of g (kept as
    the new node numbering); an entry outside 0..n-1 or repeating an
    earlier one is a ContractError naming the first such entry."""
    order = np.asarray(order, dtype=np.int64).reshape(-1)
    seen = set()
    for k, v in enumerate(order.tolist()):
        if not 0 <= v < g.n:
            raise ContractError(f"induced_subgraph: order[{k}] = {v} is outside 0..{g.n - 1}")
        if v in seen:
            raise ContractError(f"induced_subgraph: order[{k}] = {v} repeats an earlier node")
        seen.add(v)
    return _Union([g]).cut(order, np.array([len(order)]))[0]


def _sample(graphs, cfgs, who, grow):
    """The views of one sampler call; a lone Graph and config are a batch of
    one. `grow(union, targets, seeds)` gets the targets in descending order
    and returns the (graphs, largest target) matrix of insertion orders."""
    single = isinstance(graphs, Graph)
    graphs, cfgs = ([graphs], [cfgs]) if single else (list(graphs), list(cfgs))
    if len(graphs) != len(cfgs):
        raise ContractError(f"{who}: {len(graphs)} graphs but {len(cfgs)} sampler configs")
    for i, g in enumerate(graphs):
        _require_connected(g, who, None if single else i)
    if not graphs:
        return []
    targets = np.array([c.target_size(g.n) for g, c in zip(graphs, cfgs)], dtype=np.int64)
    # largest target first, so the graphs still growing are always a prefix
    # (ties in any order: each graph grows on its own)
    rank = np.argsort(-targets)
    union, targets = _Union([graphs[i] for i in rank]), targets[rank]
    order = grow(union, targets, [cfgs[i].seed for i in rank])
    views = union.cut(order[np.arange(order.shape[1]) < targets[:, None]], targets)
    views = [views[i] for i in np.argsort(rank).tolist()]
    return views[0] if single else views


def _growing(targets):
    """The number of graphs still growing at each pass, targets descending."""
    return (targets[:, None] > np.arange(targets[0])).sum(axis=0).tolist()


def _start_nodes(union, streams):
    return union.starts + streams.draw(slice(None), union.sizes)


def _grow_diffusion(union, targets, seeds):
    # a start draw and two draws per growth step, when none is rejected
    streams = Streams(seeds, 2 * int(targets[0]) - 1)
    free = np.ones(union.n, dtype=bool)    # outside S
    outside = union.degrees.copy()         # neighbors outside S, per node
    order = np.empty((len(targets), targets[0]), dtype=np.int64)
    v = _start_nodes(union, streams)
    for k, g in enumerate(_growing(targets)):
        if k:
            # the r-th eligible member of graph i, and then the r-th outside
            # neighbor of it, sit at r past the hits of graphs 0..i-1
            members = order[:g, :k]
            eligible = outside.take(members) > 0
            count = eligible.sum(axis=1)
            at = count.cumsum() - count + streams.draw(slice(g), count)
            u = members.take(eligible.ravel().nonzero()[0][at])
            count = outside[u]
            nb = union.neighbors(u)
            at = count.cumsum() - count + streams.draw(slice(g), count)
            v = nb[free[nb].nonzero()[0][at]]
        order[:g, k] = v
        free[v] = False
        outside[union.neighbors(v)] -= 1  # one node per graph: no repeats
    return order


def _grow_community(union, targets, seeds):
    n = union.n
    uncounted = np.ones(n, dtype=bool)   # neither a member nor a candidate
    # per node, (n + 1) * its uncounted neighbors + n - its id, plus (n + 1)**2
    # while it is a candidate: a graph's largest key is its pick
    key = union.degrees * (n + 1) + (n - np.arange(n))
    order = np.empty((len(targets), targets[0]), dtype=np.int64)
    ends = union.starts + union.sizes
    best = _start_nodes(union, Streams(seeds, 1))
    uncounted[best] = False
    key[union.neighbors(best)] -= n + 1
    for k, g in enumerate(_growing(targets)):
        if k:
            best = n - np.maximum.reduceat(key[:ends[g - 1]], union.starts[:g]) % (n + 1)
            key[best] -= (n + 1) ** 2
        order[:g, k] = best
        nb = union.neighbors(best)
        fresh = nb[uncounted[nb]]
        uncounted[fresh] = False
        key[fresh] += (n + 1) ** 2
        np.subtract.at(key, union.neighbors(fresh), n + 1)   # may repeat nodes
    return order


def diffusion_sample(graphs, cfgs):
    return _sample(graphs, cfgs, "diffusion_sample", _grow_diffusion)


def community_expansion_sample(graphs, cfgs):
    return _sample(graphs, cfgs, "community_expansion_sample", _grow_community)


def check_view(g, view, cfg):
    """Raise ContractError naming the first sampler invariant `view` breaks.

    A view of g has cfg's target size, maps its nodes one-to-one onto nodes
    of g, holds exactly the edges g induces on those nodes, and is
    connected.
    """
    target = cfg.target_size(g.n)
    if view.n != target:
        raise ContractError(f"check: view has {view.n} nodes, target size is {target}")
    ids = view.orig_ids
    chosen = set() if ids is None else set(ids.tolist())
    if (ids is None or len(ids) != view.n or len(chosen) != view.n
            or min(chosen) < 0 or max(chosen) >= g.n):
        raise ContractError("check: node map is not one-to-one into the graph's nodes")
    kept = {(min(a, b), max(a, b)) for a, b in ids[view.edges].tolist()}
    orig = {(a, b) for a, b in g.edges.tolist()}
    if not kept <= orig:
        raise ContractError(f"check: view edges {sorted(kept - orig)} are not in the graph")
    missing = {(a, b) for a, b in orig if a in chosen and b in chosen} - kept
    if missing:
        raise ContractError(f"check: induced edges {sorted(missing)} are missing from the view")
    if not view.is_connected():
        raise ContractError("check: view is not connected")
