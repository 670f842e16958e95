"""Graph containers and the TU graph-kernel text format.

A dataset directory holds `<DS>_A.txt` (comma-separated, 1-indexed edge
rows), `<DS>_graph_indicator.txt` (graph id per node line) and
`<DS>_graph_labels.txt` (label per graph line). An optional
`<DS>_node_labels.txt` may be present; it is tolerated and ignored —
features are synthesized from degrees so all datasets are treated alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, TUParseError

DEFAULT_DEGREE_CAP = 64


@dataclass(eq=False)
class Graph:
    """An undirected graph with canonical (i < j, sorted, unique) edge rows.

    `orig_ids` maps local node ids back to the parent graph for sampled
    sub-graphs. `cache` memoizes derived structure and never affects
    equality. It may hold "connected" (`is_connected`) and "classes", each
    node's degree class: the column of its one-hot row in `features`, set by
    `synthesize_features` and carried into sampled views, which lets the
    encoders' first layer gather weight rows in place of a product with
    the one-hot block. The constructor drops the cache it is given, so a
    Graph built with other edges or features (`dataclasses.replace`
    included) never reads stale structure. Graphs are unhashable.
    """

    n: int
    edges: np.ndarray                      # (m, 2) int64, i < j per row
    features: np.ndarray | None = None     # (n, F) float64
    label: int | None = None
    orig_ids: np.ndarray | None = None
    cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        check_edge_rows(self.edges, self.n)
        self.cache = {}
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2 or self.features.shape[0] != self.n:
                raise ContractError(f"features of shape {self.features.shape} are not "
                                    f"an (n, F) matrix with n = {self.n} rows")

    @classmethod
    def unchecked(cls, n, edges, features, label, orig_ids, cache):
        """A Graph from fields already in their checked form: int64 (m, 2)
        edge rows that passed `check_edge_rows` and float64 features with n
        rows, or None. Nothing is converted or checked again."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, edges=edges, features=features, label=label,
                          orig_ids=orig_ids, cache=cache)
        return g

    def __eq__(self, other):
        """Equal node count, label, edges, features and orig_ids; arrays
        compare by shape and value, and None equals only None."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.label == other.label
                and all(a is b if a is None or b is None else np.array_equal(a, b)
                        for a, b in ((self.edges, other.edges),
                                     (self.features, other.features),
                                     (self.orig_ids, other.orig_ids))))

    @property
    def num_edges(self):
        return len(self.edges)

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def is_connected(self):
        """Reachability from node 0, one BFS level per pass over the edge
        rows: the edges with exactly one reached end lead to the next
        level (cached)."""
        hit = self.cache.get("connected")
        if hit is None:
            seen = np.zeros(self.n, dtype=bool)
            seen[0] = True
            a, b = self.edges.T
            cross = seen[a] != seen[b]
            while cross.any():
                seen[a[cross]] = True
                seen[b[cross]] = True
                cross = seen[a] != seen[b]
            hit = bool(seen.all())
            self.cache["connected"] = hit
        return hit


class GraphStack:
    """Graphs stacked as one disjoint union, graph after graph: graph i's
    nodes are starts[i] .. starts[i] + sizes[i] - 1 of the n, and `edges`
    holds its canonical rows in those ids (edge_counts[i] rows). `degrees`
    counts each node's edges; `classes` joins the graphs' cached "classes",
    or is None when a graph has none."""

    def __init__(self, graphs):
        self.graphs = graphs = list(graphs)
        self.sizes = np.array([g.n for g in graphs], dtype=np.int64)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.n = int(self.sizes.sum())
        self.edge_counts = [g.num_edges for g in graphs]
        self.edges = (np.concatenate([g.edges for g in graphs])
                      + np.repeat(self.starts, self.edge_counts)[:, None])
        self.degrees = np.bincount(self.edges.ravel(), minlength=self.n)
        classes = [g.cache.get("classes") for g in graphs]
        self.classes = None if any(c is None for c in classes) else np.concatenate(classes)


def check_edge_rows(edges, sizes, counts=None):
    """The edge-row checks of `Graph`, over graphs whose int64 rows are
    stacked graph after graph in `edges`, counts[k] rows for the graph of
    sizes[k] nodes (a lone graph passes its n and no counts): raise
    ContractError unless every graph has a node and each row has both ends
    in its graph's range, i < j, and follows the previous row of its graph
    in sorted order with no duplicate."""
    if counts is None:
        empty, n = sizes < 1, sizes
    else:
        empty, n = (sizes < 1).any(), np.repeat(sizes, counts)
    if empty:
        raise ContractError(f"graph needs at least one node, got n={np.min(sizes)}")
    a, b = edges.T
    if not ((a >= 0) & (b < n)).all():
        raise ContractError("edge endpoint out of range")
    if not (a < b).all():
        raise ContractError("edges must be canonical (i < j), no self-loops")
    keys = a * n + b   # below n**2: both ends are in range by now
    if counts is not None:  # graph k's keys move to [base_k, base_k + n_k**2)
        keys += np.repeat(np.cumsum(sizes * sizes) - sizes * sizes, counts)
    if not (keys[1:] > keys[:-1]).all():
        raise ContractError("edge rows must be sorted with no duplicate edge")


def canonical_edges(pairs, n):
    """Normalize (i, j) pairs (an array or a list) over nodes 0..n-1 to
    unique, sorted i < j rows; a pair with an endpoint outside that range
    is a ContractError naming the first such pair."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))
    if len(bad):
        i, j = arr[bad[0]].tolist()
        raise ContractError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
    keys = np.unique(arr.min(axis=1) * n + arr.max(axis=1))
    return np.stack([keys // n, keys % n], axis=1)


@dataclass
class Dataset:
    name: str
    graphs: list
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ContractError("num_classes must be positive")
        labels = {g.label for g in self.graphs if g.label is not None}
        if labels and (min(labels) < 0 or max(labels) >= self.num_classes):
            raise ContractError("graph label outside [0, num_classes)")

    def __len__(self):
        return len(self.graphs)


@dataclass(frozen=True)
class DatasetStats:
    num_graphs: int
    num_classes: int
    avg_nodes: float
    avg_edges: float


def _dataset_prefix(directory):
    names = [f for f in os.listdir(directory) if f.endswith("_A.txt")]
    if not names:
        raise FileNotFoundError(f"no <name>_A.txt edge file in {directory}")
    if len(names) > 1:
        raise TUParseError(f"multiple edge files found: {sorted(names)}", path=directory)
    return names[0][: -len("_A.txt")]


def _to_int64(lines, cols):
    """The one conversion of TU text to integers: `cols` comma-separated
    int() fields per line into an int64 (k, cols) array, or None when a line
    has another field count, a non-integer field or a value outside int64."""
    if any(line.count(",") != cols - 1 for line in lines):
        return None
    fields = (f for line in lines for f in line.split(","))
    try:
        return np.fromiter(map(int, fields), np.int64, cols * len(lines)).reshape(-1, cols)
    except (ValueError, OverflowError):
        return None


def _read_ints(directory, filename, cols):
    """(path, rows, line_no, bad): a TU file's non-blank lines before its first
    malformed one as int64 rows, their 1-based line numbers, and a
    TUParseError for that line or None, returned so earlier faults go first."""
    path = os.path.join(directory, filename)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    line_no = [i for i, line in enumerate(lines, 1) if line.strip()]
    text = [lines[i - 1] for i in line_no]
    rows, bad = _to_int64(text, cols), None
    if rows is None:  # keep the rows before the first line that fails alone
        k = next(k for k, line in enumerate(text) if _to_int64([line], cols) is None)
        bad = TUParseError(f"expected {cols} comma-separated int64 value(s), got {text[k]!r}", path, line_no[k])
        line_no = line_no[:k]
        rows = _to_int64(text[:k], cols)
    return path, rows, np.array(line_no, dtype=np.int64), bad


def parse_tu_dataset(directory):
    """Parse a TU-format directory into a Dataset of label-dense graphs.

    Edges are undirected and deduplicated; labels are remapped to 0..K-1 in
    ascending order of the raw values. Node features are not synthesized
    here (see synthesize_features).
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    name = _dataset_prefix(directory)
    a_path, pairs, a_line_no, a_bad = _read_ints(directory, f"{name}_A.txt", 2)
    ind_path, ind, _, ind_bad = _read_ints(directory, f"{name}_graph_indicator.txt", 1)
    _, raw_labels, _, lab_bad = _read_ints(directory, f"{name}_graph_labels.txt", 1)
    num_nodes, num_graphs = len(ind), len(raw_labels)
    if ind_bad:
        raise ind_bad
    if num_nodes == 0:
        raise TUParseError("empty graph indicator file", ind_path)
    if lab_bad:
        raise lab_bad
    if ind.min() < 1 or ind.max() > num_graphs:
        raise TUParseError(f"graph indicator outside 1..{num_graphs}", ind_path)
    node_graph = ind[:, 0] - 1  # node -> graph, 0-indexed

    # grouped by graph: graph g owns the global node ids offsets[g] + 0..n-1
    if (np.diff(node_graph) < 0).any():
        raise TUParseError("graph indicator is not grouped by graph", ind_path)
    sizes = np.bincount(node_graph, minlength=num_graphs)
    offsets = np.cumsum(sizes) - sizes

    # the first edge row that is out of range, a self-loop or across graphs
    out_of_range = ((pairs < 1) | (pairs > num_nodes)).any(axis=1)
    ends = np.where(out_of_range[:, None], 1, pairs) - 1  # 0-based, in range
    edge_graph = node_graph[ends]
    self_loop = pairs[:, 0] == pairs[:, 1]
    bad = np.flatnonzero(out_of_range | self_loop | (edge_graph[:, 0] != edge_graph[:, 1]))
    if len(bad):
        k = bad[0]
        (u, v), (gu, gv) = pairs[k], edge_graph[k] + 1
        msg = (f"node id out of range in edge ({u}, {v}), have {num_nodes} nodes" if out_of_range[k]
               else f"self-loop on node {u}" if self_loop[k]
               else f"edge ({u}, {v}) crosses graphs {gu} and {gv}")
        raise TUParseError(msg, a_path, int(a_line_no[k]))
    if a_bad:
        raise a_bad

    # sorted canonical rows in global ids: graph g's rows are the slice whose
    # first endpoint lies in its node range, as nodes are grouped by graph
    edges = canonical_edges(ends, num_nodes)
    bounds = np.searchsorted(edges[:, 0], np.append(offsets, num_nodes))
    classes, dense = np.unique(raw_labels[:, 0], return_inverse=True)
    graphs = []
    for gid, n in enumerate(sizes.tolist()):
        if n == 0:
            raise TUParseError(f"graph {gid + 1} has no nodes", ind_path)
        local = edges[bounds[gid]:bounds[gid + 1]] - offsets[gid]
        graphs.append(Graph(n=n, edges=local, label=int(dense[gid])))
    return Dataset(name=name, graphs=graphs, num_classes=len(classes))


def write_tu_dataset(ds, directory):
    """Write a Dataset back to TU format (both edge directions, 1-indexed)."""
    os.makedirs(directory, exist_ok=True)
    sizes = [g.n for g in ds.graphs]
    rows = {
        "A": [f"{b + x}, {b + y}" for g, b in zip(ds.graphs, np.cumsum([1] + sizes))
              for i, j in g.edges for x, y in ((i, j), (j, i))],
        "graph_indicator": np.repeat(np.arange(1, len(sizes) + 1), sizes),
        "graph_labels": [0 if g.label is None else g.label for g in ds.graphs],
    }
    for suffix, values in rows.items():
        with open(os.path.join(directory, f"{ds.name}_{suffix}.txt"), "w") as fh:
            fh.write("\n".join(map(str, values)) + "\n")


def filter_connected(ds):
    """Keep only single-component graphs (subsumes dropping isolated nodes)."""
    kept = [g for g in ds.graphs if g.is_connected()]
    return Dataset(name=ds.name, graphs=kept, num_classes=ds.num_classes)


def synthesize_features(g, cap=DEFAULT_DEGREE_CAP):
    """One-hot encode min(degree, cap) per node; returns a new Graph, F = cap + 1,
    whose cache is a copy of g's (same nodes and edges, so "connected"
    holds) with those classes as its "classes"."""
    if cap < 1:
        raise ContractError(f"degree cap must be positive, got {cap}")
    deg = np.minimum(g.degrees(), cap)
    feats = np.zeros((g.n, cap + 1), dtype=np.float64)
    feats[np.arange(g.n), deg] = 1.0
    out = Graph(n=g.n, edges=g.edges, features=feats, label=g.label, orig_ids=g.orig_ids)
    out.cache.update(g.cache, classes=deg)
    return out


def dataset_stats(ds):
    """Graph count, class count, mean node count, mean undirected-edge count."""
    if not ds.graphs:
        raise ContractError("dataset_stats: empty dataset")
    return DatasetStats(
        num_graphs=len(ds.graphs),
        num_classes=ds.num_classes,
        avg_nodes=float(np.mean([g.n for g in ds.graphs])),
        avg_edges=float(np.mean([g.num_edges for g in ds.graphs])),
    )


def prepare_dataset(directory, degree_cap=DEFAULT_DEGREE_CAP):
    """Parse, connectivity-filter, and featurize a TU directory."""
    ds = filter_connected(parse_tu_dataset(directory))
    graphs = [synthesize_features(g, degree_cap) for g in ds.graphs]
    return Dataset(name=ds.name, graphs=graphs, num_classes=ds.num_classes)
