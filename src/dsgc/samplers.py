"""View-generating sub-graph samplers.

Both samplers grow a node set S from a seeded uniform-random start node
until |S| = max(1, round(rate * n)), then emit the node-induced sub-graph
with ids remapped to 0..|S|-1 (insertion order; `orig_ids` keeps the map
back into the parent graph). Growth is via adjacency, so outputs are
always connected.

  * diffusion_sample: frontier diffusion — repeatedly pick a uniform-random
    member of S that still has an outside neighbor, then a uniform-random
    such neighbor. Produces an unbiased "skeleton" view.
  * community_expansion_sample: greedy structure expansion — among the
    candidate neighbors of S, add the one with the most neighbors outside
    S and the candidate set (ties: smallest original id). Only the start
    node is random; the growth itself is deterministic. Produces a
    hierarchy-flavored view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph, canonical_edges
from .errors import ContractError


@dataclass(frozen=True)
class SamplerConfig:
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rate <= 1.0):
            raise ContractError(f"sampling rate must be in (0, 1], got {self.rate}")

    def target_size(self, n):
        return max(1, int(round(self.rate * n)))


def _require_connected(g, who):
    if not g.is_connected():
        raise ContractError(f"{who}: graph must be connected (filter the dataset first)")


def induced_subgraph(g, order):
    """Node-induced sub-graph on `order` (kept as the new node numbering)."""
    order = np.asarray(order, dtype=np.int64)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[order] = np.arange(len(order))
    sub = remap[g.edges]
    edges = canonical_edges(sub[(sub >= 0).all(axis=1)], len(order))
    feats = g.features[order] if g.features is not None else None
    return Graph(n=len(order), edges=edges, features=feats, label=g.label, orig_ids=order)


def diffusion_sample(g, cfg):
    _require_connected(g, "diffusion_sample")
    rng = np.random.default_rng(cfg.seed)
    target = cfg.target_size(g.n)
    adj = g.neighbors()
    in_s = np.zeros(g.n, dtype=bool)
    start = int(rng.integers(g.n))
    order = [start]
    in_s[start] = True
    while len(order) < target:
        eligible = [u for u in order if not in_s[adj[u]].all()]
        u = eligible[int(rng.integers(len(eligible)))]
        outside = adj[u][~in_s[adj[u]]]
        v = int(outside[int(rng.integers(len(outside)))])
        order.append(v)
        in_s[v] = True
    return induced_subgraph(g, order)


def community_expansion_sample(g, cfg):
    _require_connected(g, "community_expansion_sample")
    rng = np.random.default_rng(cfg.seed)
    target = cfg.target_size(g.n)
    adj = g.neighbors()
    start = int(rng.integers(g.n))
    order = [start]
    members = {start}
    candidates = {int(v) for v in adj[start]}
    while len(order) < target:
        counted = members | candidates
        best, best_gain = -1, -1
        for v in sorted(candidates):
            gain = sum(1 for w in adj[v] if int(w) not in counted)
            if gain > best_gain:
                best, best_gain = v, gain
        order.append(best)
        members.add(best)
        candidates.discard(best)
        candidates.update(int(w) for w in adj[best] if int(w) not in members)
    return induced_subgraph(g, order)


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
