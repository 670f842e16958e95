"""Seeded graph sets for the benchmark, written in TU text format.

Every graph is connected: a random spanning tree (each new node attaches to
an earlier node that still has room under the degree cap) plus random
chords between non-adjacent pairs. The multiset of graph sizes is fixed per
set and only its order, the tree shapes and the chords depend on the seed,
so seeds vary structure without moving the amount of work much.

The sets are shaped like small-molecule and sparse-mesh graph kernels; they
are stand-ins for timing, never a substitute for a real dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphSet:
    name: str            # TU prefix of the written files
    sizes: tuple         # node count of each graph (fixed multiset)
    chord_frac: float    # chords per node beyond the spanning tree
    max_degree: int      # spanning-tree attachment cap


def _spread(lo, hi, count):
    return tuple(int(round(x)) for x in np.linspace(lo, hi, count))


# 188 graphs, about 19 nodes and 20 edges each
SMALL_MOLECULES = GraphSet("SYNMOL", _spread(12, 26, 188), 0.08, 4)
# 40 graphs of 100..140 nodes, about 120 nodes and 150 edges each
LARGE_SPARSE = GraphSet("SYNSPARSE", _spread(100, 140, 40), 0.25, 6)


def random_connected_graph(n, chords, max_degree, rng):
    """Canonical (i < j) edge rows of a spanning tree plus `chords` extra edges."""
    degree = np.zeros(n, dtype=np.int64)
    edges = set()
    for v in range(1, n):
        room = np.flatnonzero(degree[:v] < max_degree)
        u = int(room[rng.integers(len(room))]) if len(room) else int(rng.integers(v))
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    added = 0
    while added < chords:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        pair = (min(a, b), max(a, b))
        if pair not in edges:
            edges.add(pair)
            added += 1
    return np.array(sorted(edges), dtype=np.int64)


def generate(spec, seed):
    """(graphs, labels) for one seed: two balanced classes that differ in
    chord density, so the degree features carry some label signal."""
    rng = np.random.default_rng([seed, len(spec.sizes)])
    sizes = rng.permutation(np.asarray(spec.sizes))
    graphs, labels = [], []
    for i, n in enumerate(sizes):
        label = i % 2
        chords = int(round(spec.chord_frac * n * (0.5 + label)))
        graphs.append((int(n), random_connected_graph(int(n), chords, spec.max_degree, rng)))
        labels.append(label)
    return graphs, labels


def write_tu(graphs, labels, directory, name):
    """Write `<name>_A.txt` (both directions, 1-indexed), the graph indicator
    and the graph labels; returns the summary the benchmark records."""
    os.makedirs(directory, exist_ok=True)
    a_rows, ind_rows = [], []
    base = 1
    for gid, (n, edges) in enumerate(graphs, start=1):
        ind_rows += [str(gid)] * n
        for i, j in edges:
            a_rows.append(f"{base + i}, {base + j}")
            a_rows.append(f"{base + j}, {base + i}")
        base += n
    for suffix, rows in (
        ("A", a_rows),
        ("graph_indicator", ind_rows),
        ("graph_labels", [str(label) for label in labels]),
    ):
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return {
        "name": name,
        "graphs": len(graphs),
        "classes": len(set(labels)),
        "mean_nodes": float(np.mean([n for n, _ in graphs])),
        "mean_edges": float(np.mean([len(e) for _, e in graphs])),
    }
