"""Shared fixtures and helpers: synthetic TU datasets and their writer, the
optional real-data hook, and small references the tests share."""

import os

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.data import Dataset, Graph, canonical_edges
from dsgc.encoders import EncoderKind

MUTAG_HINT = (
    "MUTAG not found: set DSGC_DATA_DIR to a directory containing MUTAG/ in "
    "TU graph-kernel text format (MUTAG_A.txt, MUTAG_graph_indicator.txt, "
    "MUTAG_graph_labels.txt). This sandbox has no network access, so the "
    "dataset cannot be fetched automatically."
)


def mutag_dir():
    """Path to a real MUTAG directory, or None when unavailable."""
    root = os.environ.get("DSGC_DATA_DIR")
    if not root:
        return None
    path = os.path.join(root, "MUTAG")
    if os.path.isfile(os.path.join(path, "MUTAG_A.txt")):
        return path
    return None


def _cycle_graph(n, label):
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n=n, edges=canonical_edges(pairs, n), label=label)


def _star_graph(n, label):
    return Graph(n=n, edges=[(0, i) for i in range(1, n)], label=label)


def synthetic_dataset(num_graphs=24, seed=0, name="RINGS"):
    """Two separable classes: cycles (label 0) versus stars (label 1).

    Degree one-hot features distinguish them sharply, so short training
    runs can reach high accuracy; sizes vary to exercise the samplers.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num_graphs):
        n = int(rng.integers(5, 9))
        if i % 2 == 0:
            graphs.append(_cycle_graph(n, 0))
        else:
            graphs.append(_star_graph(n, 1))
    return Dataset(name=name, graphs=graphs, num_classes=2)


def write_tu_dataset(ds, directory):
    """Write a Dataset in TU text format (both edge directions, 1-indexed)."""
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


def induced_subgraph(g, order):
    """The sub-graph of g induced on the distinct node ids `order`, which
    number its nodes, with g's features and degree classes at them: the
    samplers' views, in plain Python."""
    place = {v: k for k, v in enumerate(order)}
    edges = sorted(tuple(sorted((place[i], place[j]))) for i, j in g.edges.tolist()
                   if i in place and j in place)
    ids = np.array(order, dtype=np.int64)
    view = Graph(n=len(ids), edges=edges, features=None if g.features is None else g.features[ids],
                 label=g.label, orig_ids=ids)
    if "classes" in g.cache:
        view.cache["classes"] = g.cache["classes"][ids]
    return view


def inside(ball, x):
    """Every row of the array or Tensor x lies strictly inside the open ball."""
    return bool((ball.c * (ad.values_of(x) ** 2).sum(axis=-1) < 1.0).all())


def assert_same_batch(got, want):
    """Two GraphBatches hold equal fields (arrays equal in dtype, shape and
    value) and equal operator stacks and neighbor-class counts. Their
    graphs may differ in features alone: a planned batch's views have none."""
    assert (got.n, got.n_max) == (want.n, want.n_max)
    for name in ("slots", "readout", "features"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert (got.classes is None) == (want.classes is None)
    if want.classes is not None:
        assert got.classes.dtype == want.classes.dtype
        assert np.array_equal(got.classes, want.classes)
        assert np.array_equal(got.neighbor_classes(), want.neighbor_classes())
    for kind in EncoderKind:
        assert np.array_equal(got.operators(kind), want.operators(kind)), kind
    assert len(got.graphs) == len(want.graphs)
    for g, w in zip(got.graphs, want.graphs):
        assert Graph.unchecked(g.n, g.edges, w.features, g.label, g.orig_ids, {}) == w
        assert np.array_equal(g.cache.get("classes", []), w.cache.get("classes", []))


def tensors_built(fn):
    """fn()'s result and the number of Tensors it created, read off the
    tape's creation counter (each read takes one number)."""
    start = next(ad._created)
    out = fn()
    return out, next(ad._created) - start - 1


@pytest.fixture
def synthetic_tu_dir(tmp_path):
    """The synthetic dataset written out in TU text format."""
    ds = synthetic_dataset()
    path = tmp_path / "RINGS"
    write_tu_dataset(ds, str(path))
    return str(path)
