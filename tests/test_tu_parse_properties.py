"""Property test: the array-based TU parser against the line-by-line parser
it replaced, kept here as the reference.

Generated directories are either valid (blank lines, both edge directions,
duplicate edges, unsorted raw labels, mixed spacing) or carry one or two
defects. Both parsers must return equal Datasets, or raise the same
exception type naming the same file and line. Values stay inside int64;
values beyond it have their own tests in test_data.py.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dsgc.data import (  # noqa: E402
    Dataset,
    Graph,
    _dataset_prefix,
    canonical_edges,
    parse_tu_dataset,
)
from dsgc.errors import ContractError, TUParseError  # noqa: E402


# ---------------------------------------------------------------------------
# reference: the per-line parser as it was before the array reader


def reference_canonical_edges(pairs, n):
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if len(arr) == 0:
        return arr
    lo = arr.min(axis=1)
    hi = arr.max(axis=1)
    keys = np.unique(lo * n + hi)
    return np.stack([keys // n, keys % n], axis=1)


def _read_required(directory, filename):
    path = os.path.join(directory, filename)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    with open(path) as fh:
        return path, fh.read().splitlines()


def reference_parse_tu_dataset(directory):
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    name = _dataset_prefix(directory)
    a_path, edge_lines = _read_required(directory, f"{name}_A.txt")
    ind_path, ind_lines = _read_required(directory, f"{name}_graph_indicator.txt")
    lab_path, label_lines = _read_required(directory, f"{name}_graph_labels.txt")

    node_graph = np.empty(len(ind_lines), dtype=np.int64)  # node -> graph, 0-indexed
    count = 0
    for i, line in enumerate(ind_lines):
        line = line.strip()
        if not line:
            continue
        try:
            node_graph[count] = int(line) - 1
        except ValueError:
            raise TUParseError(f"bad graph indicator {line!r}", ind_path, i + 1) from None
        count += 1
    node_graph = node_graph[:count]
    num_nodes = count
    if num_nodes == 0:
        raise TUParseError("empty graph indicator file", ind_path)

    raw_labels = []
    for i, line in enumerate(label_lines):
        line = line.strip()
        if not line:
            continue
        try:
            raw_labels.append(int(line))
        except ValueError:
            raise TUParseError(f"bad graph label {line!r}", lab_path, i + 1) from None
    num_graphs = len(raw_labels)
    if node_graph.min() < 0 or node_graph.max() >= num_graphs:
        raise TUParseError(
            f"graph indicator outside 1..{num_graphs}", ind_path
        )

    # local node index within each graph, in order of global node id
    sizes = np.bincount(node_graph, minlength=num_graphs)
    offsets = np.zeros(num_graphs, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    local_idx = np.arange(num_nodes) - offsets[node_graph]
    if (local_idx < 0).any():
        raise TUParseError("graph indicator is not grouped by graph", ind_path)

    per_graph_edges = [set() for _ in range(num_graphs)]
    for i, line in enumerate(edge_lines):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TUParseError(f"expected 'i, j', got {line!r}", a_path, i + 1)
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise TUParseError(f"non-integer edge endpoint in {line!r}", a_path, i + 1) from None
        if not (1 <= u <= num_nodes) or not (1 <= v <= num_nodes):
            raise TUParseError(
                f"node id out of range in edge ({u}, {v}), have {num_nodes} nodes",
                a_path,
                i + 1,
            )
        if u == v:
            raise TUParseError(f"self-loop on node {u}", a_path, i + 1)
        gu, gv = node_graph[u - 1], node_graph[v - 1]
        if gu != gv:
            raise TUParseError(
                f"edge ({u}, {v}) crosses graphs {gu + 1} and {gv + 1}", a_path, i + 1
            )
        lu, lv = int(local_idx[u - 1]), int(local_idx[v - 1])
        per_graph_edges[gu].add((min(lu, lv), max(lu, lv)))

    label_map = {raw: k for k, raw in enumerate(sorted(set(raw_labels)))}
    graphs = []
    for gid in range(num_graphs):
        n = int(sizes[gid])
        if n == 0:
            raise TUParseError(f"graph {gid + 1} has no nodes", ind_path)
        edges = reference_canonical_edges(per_graph_edges[gid], n) if per_graph_edges[gid] else np.empty((0, 2), dtype=np.int64)
        graphs.append(Graph(n=n, edges=edges, label=label_map[raw_labels[gid]]))
    return Dataset(name=name, graphs=graphs, num_classes=len(label_map))


# ---------------------------------------------------------------------------
# generated TU directories

FILES = ("A", "graph_indicator", "graph_labels")
DEFECTS = ("malformed line", "field count", "out-of-range id", "self-loop",
           "cross-graph edge", "ungrouped indicator", "indicator beyond labels",
           "graph without nodes", "empty indicator", "missing file")
EDGE_FORMATS = ("{}, {}", "{},{}", " {} ,  {} ", "{}\t,{}")
MALFORMED = ("x", "1.5", "1 2", "--3", "0x1", ",", "one, 2")


def _insert(draw, lines, line):
    lines.insert(draw(st.integers(0, len(lines))), line)


@st.composite
def tu_directories(draw, defect_counts):
    """(files, defects): file lines keyed by suffix (None: not written)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    starts = np.cumsum([0] + sizes)
    num_nodes = int(starts[-1])
    indicator = [g + 1 for g, n in enumerate(sizes) for _ in range(n)]
    edges = []
    for g, n in enumerate(sizes):
        if n < 2:
            continue
        # (a, a + step mod n) with step in 1..n-1: never a self-loop
        local = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        for a, step in draw(st.lists(local, max_size=8)):
            u, v = int(starts[g]) + a + 1, int(starts[g]) + (a + step) % n + 1
            edges.append((u, v))
            if draw(st.booleans()):
                edges.append((v, u))
    edges = draw(st.permutations(edges))
    labels = draw(st.lists(st.integers(-5, 10**12), min_size=len(sizes), max_size=len(sizes)))

    defects = [draw(st.sampled_from(DEFECTS)) for _ in range(draw(defect_counts))]
    for defect in defects:
        if defect == "out-of-range id":
            u = draw(st.integers(1, num_nodes))
            bad = draw(st.sampled_from([0, -1, num_nodes + 1, num_nodes + 7]))
            _insert(draw, edges, draw(st.sampled_from([(u, bad), (bad, u)])))
        elif defect == "self-loop":
            u = draw(st.integers(1, num_nodes))
            _insert(draw, edges, (u, u))
        elif defect == "cross-graph edge" and len(sizes) > 1:
            a, b = draw(st.permutations(range(len(sizes))))[:2]
            u = draw(st.integers(int(starts[a]) + 1, int(starts[a + 1])))
            v = draw(st.integers(int(starts[b]) + 1, int(starts[b + 1])))
            _insert(draw, edges, (u, v))
        elif defect == "ungrouped indicator" and len(set(indicator)) > 1:
            i = draw(st.integers(0, len(indicator) - 1))
            j = draw(st.sampled_from([j for j, x in enumerate(indicator) if x != indicator[i]]))
            indicator[i], indicator[j] = indicator[j], indicator[i]
        elif defect == "indicator beyond labels":
            if labels and draw(st.booleans()):
                labels.pop()
            else:
                indicator[draw(st.integers(0, len(indicator) - 1))] = len(labels) + 1
        elif defect == "graph without nodes":
            g = draw(st.integers(1, len(labels) + 1))
            labels.insert(g - 1, draw(st.integers(-5, 5)))
            indicator = [x + 1 if x >= g else x for x in indicator]

    files = {
        "A": [draw(st.sampled_from(EDGE_FORMATS)).format(u, v) for u, v in edges],
        "graph_indicator": [f"{x}" for x in indicator],
        "graph_labels": [f" {x}" if draw(st.booleans()) else f"{x}" for x in labels],
    }
    for defect in defects:
        suffix = draw(st.sampled_from(FILES))
        if defect == "malformed line":
            bad = draw(st.sampled_from(MALFORMED))
            _insert(draw, files[suffix], f"{bad}, 1" if suffix == "A" else bad)
        elif defect == "field count":
            _insert(draw, files[suffix], "1, 2, 3" if suffix == "A" else "1, 2")
        elif defect == "empty indicator":
            files["graph_indicator"] = []
    for lines in files.values():
        for _ in range(draw(st.integers(0, 3))):
            _insert(draw, lines, draw(st.sampled_from(["", "  ", "\t"])))
    if "missing file" in defects:
        files[draw(st.sampled_from(FILES))] = None
    return files, defects


def _write(root, files):
    directory = os.path.join(root, "GEN")
    os.mkdir(directory)
    for suffix, lines in files.items():
        if lines is not None:
            with open(os.path.join(directory, f"GEN_{suffix}.txt"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
    return directory


def _outcome(parse, directory):
    try:
        return parse(directory)
    except (FileNotFoundError, TUParseError) as exc:
        return exc


# malformed-line messages are the only ones whose wording changed
REWORDED = ("bad graph indicator", "bad graph label", "expected 'i, j'",
            "non-integer edge endpoint")


def assert_same_outcome(new, ref):
    if isinstance(ref, Exception):
        assert type(new) is type(ref), (new, ref)
        if isinstance(ref, TUParseError):
            assert (new.path, new.line) == (ref.path, ref.line), (new, ref)
            if not any(w in str(ref) for w in REWORDED):
                assert str(new) == str(ref)
        else:
            assert str(new) == str(ref)
        return
    assert isinstance(new, Dataset), new
    assert (new.name, new.num_classes, len(new)) == (ref.name, ref.num_classes, len(ref))
    for a, b in zip(new.graphs, ref.graphs):
        assert (a.n, a.label, type(a.label)) == (b.n, b.label, type(b.label))
        assert a.edges.dtype == b.edges.dtype and np.array_equal(a.edges, b.edges)
        assert a.features is None and a.orig_ids is None


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def check_against_reference(files, defects):
    with tempfile.TemporaryDirectory() as root:
        directory = _write(root, files)
        ref = _outcome(reference_parse_tu_dataset, directory)
        new = _outcome(parse_tu_dataset, directory)
    hypothesis.event(type(ref).__name__)
    for defect in defects:
        hypothesis.event(defect)
    assert_same_outcome(new, ref)


@PROPERTY
@given(tu_directories(st.just(0)))
def test_valid_directories_parse_as_the_reference_does(case):
    check_against_reference(*case)


@PROPERTY
@given(tu_directories(st.integers(1, 2)))
def test_defects_raise_as_the_reference_does(case):
    check_against_reference(*case)


@st.composite
def edge_pairs(draw):
    """(pairs, n): pairs over n nodes in either direction, with duplicates."""
    n = draw(st.integers(2, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=60))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=10))] if pairs else []
    return draw(st.permutations(pairs)), n


@PROPERTY
@given(edge_pairs(), st.booleans())
def test_canonical_edges_matches_the_unique_form(case, as_array):
    pairs, n = case
    got = canonical_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs, n)
    want = reference_canonical_edges(pairs, n)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


BAD_ENDS = {  # endpoints outside 0..n-1, by the node count n
    "out-of-range": lambda n: st.integers(n, n + 10**6),
    "negative": lambda n: st.integers(-10**6, -1),
}


@st.composite
def edge_pairs_with_bad_ends(draw, kind):
    """(pairs, n, first): edge_pairs with pairs spliced in that have one
    or two endpoints of the kind, and the first such pair."""
    pairs, n = draw(edge_pairs())
    bad, node = BAD_ENDS[kind](n), st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        pair = draw(st.tuples(bad, st.one_of(bad, node)))
        pairs.insert(draw(st.integers(0, len(pairs))), pair[::draw(st.sampled_from([1, -1]))])
    first = next(p for p in pairs if not (0 <= p[0] < n and 0 <= p[1] < n))
    return pairs, n, first


@PROPERTY
@given(st.data(), st.sampled_from(sorted(BAD_ENDS)), st.booleans())
def test_canonical_edges_names_the_first_pair_with_a_bad_endpoint(data, kind, as_array):
    pairs, n, (i, j) = data.draw(edge_pairs_with_bad_ends(kind))
    with pytest.raises(ContractError, match=rf"^edge \({i}, {j}\) has an endpoint outside"):
        canonical_edges(np.array(pairs, dtype=np.int64) if as_array else pairs, n)


@pytest.mark.parametrize("empty", [[], np.zeros((0, 2), dtype=np.int64)])
def test_canonical_edges_of_nothing_is_an_empty_row_block(empty):
    got = canonical_edges(empty, 5)
    assert got.shape == (0, 2) and got.dtype == np.int64
