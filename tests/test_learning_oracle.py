"""An exact negative control for what the encoders can learn.

A message-passing GNN separates at most the graphs that 1-WL colour
refinement separates (Xu et al., arXiv 1810.00826; Morris et al., arXiv
1810.02244). Two pairs of connected, 3-regular, non-isomorphic graphs that
1-WL does not separate: the triangular prism and K3,3 on 6 nodes, the cube
Q3 and the Wagner graph on 8. Their nodes all start in one degree class, so
every kind, in both spaces and on the Mobius path, must give the two graphs
of a pair equal readouts and equal predictions. With opposite labels, the
evaluation's accuracy over a pair is therefore exactly 0.5. So that this
holds for a reason other than a constant encoder, the first graph less one
edge, which 1-WL separates from it, must get another readout.

Within one GraphBatch the readouts are bit-equal. Encoded one graph at a
time they agree to 1e-12 relative only: each graph's products then run in
matmul calls of another shape, and the rows of every kind may differ in
the last bits (about 4e-16 relative at most over parameter seeds 0-9).
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import (EncoderKind, GraphBatch, GraphEncoder, Predictor, encode_euclidean,
                           encode_hyperbolic)
from dsgc.experiment import evaluate_accuracy
from dsgc.losses import DsgcModel
from dsgc.poincare import PoincareBall

CAP = 4      # degree classes 0..4; every node here is in class 3
HIDDEN = 8
SEEDS = range(5)
BALL = PoincareBall(1.0)


def graph(n, edges, label):
    return synthesize_features(Graph(n=n, edges=sorted(tuple(sorted(e)) for e in edges),
                                     label=label), cap=CAP)


def prism(label):
    return graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], label)


def k33(label):
    return graph(6, [(a, b) for a in range(3) for b in range(3, 6)], label)


def cube(label):
    return graph(8, [(a, b) for a, b in combinations(range(8), 2) if bin(a ^ b).count("1") == 1],
                 label)


def wagner(label):
    return graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)], label)


PAIRS = {"prism-k33": (prism, k33), "cube-wagner": (cube, wagner)}


def neighbors(g):
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def wl_histograms(graphs):
    """Each graph's colour histogram once 1-WL refinement, run on all the
    graphs together, stops splitting colour classes."""
    adjs = [neighbors(g) for g in graphs]
    colours = [[0] * g.n for g in graphs]
    while True:
        signatures = [[(c[v], tuple(sorted(c[u] for u in adj[v]))) for v in range(len(adj))]
                      for c, adj in zip(colours, adjs)]
        palette = {s: k for k, s in enumerate(sorted({s for sig in signatures for s in sig}))}
        refined = [[palette[s] for s in sig] for sig in signatures]
        if len(palette) == len({x for c in colours for x in c}):
            return [Counter(c) for c in refined]
        colours = refined


def is_bipartite(g):
    side, adj = {0: 0}, neighbors(g)
    todo = [0]
    while todo:
        v = todo.pop()
        for u in adj[v]:
            if u not in side:
                side[u] = 1 - side[v]
                todo.append(u)
            elif side[u] == side[v]:
                return False
    return True


@pytest.mark.parametrize("pair", list(PAIRS))
def test_the_pairs_are_1wl_equivalent_and_not_isomorphic(pair):
    a, b = (make(label) for make, label in zip(PAIRS[pair], (0, 1)))
    assert a.n == b.n and a.is_connected() and b.is_connected()
    assert set(a.degrees()) == set(b.degrees()) == {3}
    hist_a, hist_b = wl_histograms([a, b])
    assert hist_a == hist_b
    assert is_bipartite(a) != is_bipartite(b)  # so the two are not isomorphic


def make_encoder(kind, seed, mobius=False):
    """An encoder whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, CAP + 1, HIDDEN, 2, np.random.default_rng(seed), mobius)
    rng = np.random.default_rng(seed + 100)
    for t in enc.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    return enc


def readouts(path, graphs, enc):
    if path == "euclidean":
        return ad.values_of(encode_euclidean(graphs, enc).tensor)
    return ad.values_of(encode_hyperbolic(graphs, enc, BALL).tensor)


PATHS = {"euclidean": False, "hyperbolic": False, "mobius": True}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("pair", list(PAIRS))
@pytest.mark.parametrize("kind", list(EncoderKind), ids=lambda k: k.value)
def test_1wl_equivalent_graphs_get_equal_readouts_and_predictions(kind, pair, path):
    graphs = [make(label) for make, label in zip(PAIRS[pair], (0, 1))]
    cut = graph(graphs[0].n, graphs[0].edges[1:], 0)
    hist_first, hist_cut = wl_histograms([graphs[0], cut])
    assert hist_first != hist_cut
    for seed in SEEDS:
        enc = make_encoder(kind, seed, PATHS[path])
        rows = readouts(path, GraphBatch(graphs + [cut]), enc)
        assert not np.array_equal(rows[0], rows[2])
        rows = rows[:2]
        assert np.array_equal(rows[0], rows[1])
        pred = Predictor(HIDDEN, 2, np.random.default_rng(seed + 200))
        classes = np.argmax(ad.values_of(pred.frozen().logits(rows)), axis=1)
        assert classes[0] == classes[1]
        if path == "euclidean":  # scored by the evaluation, the pair is a coin flip
            model = DsgcModel(encoder_e=enc, encoder_h=None, predictor=pred, ball=BALL)
            assert evaluate_accuracy(model, graphs, [0, 1]) == 0.5
        alone = np.concatenate([readouts(path, g, enc) for g in graphs])
        assert np.linalg.norm(alone - rows) <= 1e-12 * np.linalg.norm(rows)
        assert np.linalg.norm(alone[0] - alone[1]) <= 1e-12 * np.linalg.norm(alone[0])
