"""Shared fixtures: synthetic TU datasets and the optional real-data hook."""

import os

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.data import Dataset, Graph, canonical_edges, write_tu_dataset
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
