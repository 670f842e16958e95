"""Property tests: the row-stacked contrastive terms against per-graph
references, ball identities across curvatures and widths, and the sampler
invariants on random connected graphs, where the batched samplers must
draw exactly the views of the quadratic ones kept here as the reference,
for single graphs and for every graph of a mixed batch."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dsgc import autodiff as ad  # noqa: E402
from dsgc.autodiff import Tensor  # noqa: E402
from dsgc.data import Graph, synthesize_features  # noqa: E402
from dsgc.encoders import HYPERBOLIC, GraphEmbedding  # noqa: E402
from dsgc.losses import LossConfig, info_nce_labeled, info_nce_unlabeled  # noqa: E402
from dsgc.poincare import PoincareBall  # noqa: E402
from dsgc.samplers import (  # noqa: E402
    SamplerConfig,
    _Union,
    _require_connected,
    check_view,
    community_expansion_sample,
    diffusion_sample,
    induced_subgraph,
)

# derandomized: every run draws the same examples, so a failure replays
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

curvatures = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7])
widths = st.integers(1, 16)
seeds = st.integers(0, 2**32 - 1)


def ball_points(rng, ball, n, d, frac=0.9):
    """n rows inside frac of the ball's radius, radii spread over it."""
    x = rng.standard_normal((n, d))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    return x * (frac * rng.random((n, 1)) / ball.sqrt_c)


def hyp(leaf):
    return GraphEmbedding(leaf, HYPERBOLIC)


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= rtol * scale


def reference_labeled(h_l_hyp, h_l_e2h, h_u_hyps, ball, t):
    """The labeled term as it was written before stacking: one similarity
    call per negative, then -log softmax of the positive over the row."""
    sp = ad.mul(ball.geodesic_similarity(h_l_hyp, h_l_e2h), 1.0 / t)
    s_negs = [ball.geodesic_similarity(h_l_e2h, h) for h in h_u_hyps]
    row = ad.concat_cols([sp] + [ad.mul(s, 1.0 / t) for s in s_negs])
    m = ad.amax(row)
    lse = ad.log(ad.asum(ad.exp(ad.sub(row, m))))
    return ad.add(lse, ad.sub(m, sp))


class TestStackedContrastiveTerms:
    @PROPERTY
    @given(n=st.integers(1, 8), d=widths, c=curvatures,
           t=st.floats(0.05, 5.0), seed=seeds)
    def test_unlabeled_stack_equals_one_row_calls(self, n, d, c, t, seed):
        ball, cfg = PoincareBall(c), LossConfig(temperature=t)
        rng = np.random.default_rng(seed)
        u_hyp, u_e2h, l_hyp = (ball_points(rng, ball, k, d) for k in (n, n, 1))

        stacked = [Tensor(u_hyp), Tensor(u_e2h), Tensor(l_hyp)]
        col = info_nce_unlabeled(*map(hyp, stacked), ball, cfg)
        assert col.shape == (n, 1)
        ad.backward(ad.asum(col))

        l_leaf, rows, row_leaves = Tensor(l_hyp), [], []
        for i in range(n):
            leaves = [Tensor(u_hyp[i:i + 1]), Tensor(u_e2h[i:i + 1])]
            term = info_nce_unlabeled(*map(hyp, leaves + [l_leaf]), ball, cfg)
            assert term.shape == (1, 1)
            rows.append(term.item())
            ad.backward(term)          # the shared labeled leaf sums over rows
            row_leaves.append(leaves)
        assert_close(col.values[:, 0], rows)
        for k in (0, 1):
            assert_close(stacked[k].grad, np.vstack([lv[k].grad for lv in row_leaves]))
        assert_close(stacked[2].grad, l_leaf.grad)

    @PROPERTY
    @given(n=st.integers(1, 8), d=widths, c=curvatures,
           t=st.floats(0.05, 5.0), seed=seeds)
    def test_labeled_stack_equals_per_negative_reference(self, n, d, c, t, seed):
        ball, cfg = PoincareBall(c), LossConfig(temperature=t)
        rng = np.random.default_rng(seed)
        l_hyp, l_e2h = ball_points(rng, ball, 1, d), ball_points(rng, ball, 1, d)
        negs = ball_points(rng, ball, n, d)

        stacked = [Tensor(l_hyp), Tensor(l_e2h), Tensor(negs)]
        loss = info_nce_labeled(hyp(stacked[0]), hyp(stacked[1]), [hyp(stacked[2])],
                                ball, cfg)
        assert loss.shape == (1, 1)
        ad.backward(loss)
        ref_leaves = [Tensor(l_hyp), Tensor(l_e2h)] + [Tensor(r[None]) for r in negs]
        ref = reference_labeled(ref_leaves[0], ref_leaves[1], ref_leaves[2:], ball, t)
        ad.backward(ref)

        assert_close(loss.values, ref.values)
        assert_close(stacked[0].grad, ref_leaves[0].grad)
        assert_close(stacked[1].grad, ref_leaves[1].grad)
        assert_close(stacked[2].grad, np.vstack([r.grad for r in ref_leaves[2:]]))


class TestBallIdentities:
    @PROPERTY
    @given(n=st.integers(1, 6), d=widths, c=curvatures, seed=seeds)
    def test_exp_log_round_trip(self, n, d, c, seed):
        ball = PoincareBall(c)
        rng = np.random.default_rng(seed)
        # tangent lengths up to 3/sqrt(c) keep the image clear of the boundary
        t = rng.standard_normal((n, d))
        t *= 3.0 * rng.random((n, 1)) / (ball.sqrt_c * np.linalg.norm(t, axis=1, keepdims=True))
        back = ball.logmap0(ball.expmap0(Tensor(t))).values
        assert np.abs(back - t).max() <= 1e-9 / ball.sqrt_c
        u = ball_points(rng, ball, n, d)
        assert np.abs(ball.expmap0(ball.logmap0(Tensor(u))).values - u).max() <= 1e-12

    @PROPERTY
    @given(n=st.integers(1, 6), d=widths, c=curvatures, seed=seeds)
    def test_similarity_symmetric(self, n, d, c, seed):
        ball = PoincareBall(c)
        rng = np.random.default_rng(seed)
        u, v = ball_points(rng, ball, n, d), ball_points(rng, ball, n, d)
        a = ball.geodesic_similarity(Tensor(u), Tensor(v)).values
        b = ball.geodesic_similarity(Tensor(v), Tensor(u)).values
        assert np.all(a > 0.0)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


@st.composite
def connected_graphs(draw, max_nodes=24):
    """A random spanning tree on shuffled node ids plus random chords."""
    n = draw(st.integers(1, max_nodes))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[i], ids[draw(st.integers(0, i - 1))]))) for i in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        chords = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=2 * n))
        edges |= {tuple(sorted(p)) for p in chords}
    return Graph(n=n, edges=sorted(edges))


@st.composite
def any_graphs(draw, max_nodes=24):
    """Simple graphs of any shape: isolated nodes, several components, no edges."""
    n = draw(st.integers(1, max_nodes))
    edges = set()
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = {tuple(sorted(p)) for p in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]),
                                                         max_size=2 * n))}
    return Graph(n=n, edges=sorted(edges))


def reference_neighbors(g):
    """Each node's sorted neighbors, by a per-edge loop."""
    lists = [[] for _ in range(g.n)]
    for a, b in g.edges:
        lists[a].append(b)
        lists[b].append(a)
    return tuple(np.array(sorted(l), dtype=np.int64) for l in lists)


def reference_is_connected(g):
    """Per-node BFS from node 0 over the reference adjacency."""
    adj, seen, frontier = reference_neighbors(g), {0}, [0]
    while frontier:
        frontier = [int(v) for u in frontier for v in adj[u] if int(v) not in seen]
        seen.update(frontier)
    return len(seen) == g.n


class TestAdjacency:
    @PROPERTY
    @given(g=any_graphs())
    @example(g=Graph(n=1, edges=np.empty((0, 2))))
    @example(g=Graph(n=4, edges=np.empty((0, 2))))
    @example(g=Graph(n=5, edges=[(0, 1), (1, 2)]))            # isolated nodes
    @example(g=Graph(n=6, edges=[(0, 1), (1, 2), (3, 4), (4, 5)]))
    def test_union_adjacency_and_connectivity_match_the_loops(self, g):
        union, want = _Union([g]), reference_neighbors(g)
        assert len(union.indptr) == g.n + 1
        for v, b in enumerate(want):
            assert np.array_equal(union.nbr[union.indptr[v]:union.indptr[v + 1]], b)
            assert np.array_equal(union.neighbors(np.array([v])), b)
        assert g.is_connected() == reference_is_connected(g)


class TestSamplerInvariants:
    @PROPERTY
    @given(g=connected_graphs(), rate=st.floats(0.0, 1.0, exclude_min=True), seed=seeds)
    def test_views_pass_check_view(self, g, rate, seed):
        assert g.is_connected()
        cfg = SamplerConfig(rate=rate, seed=seed)
        for sampler in (diffusion_sample, community_expansion_sample):
            check_view(g, sampler(g, cfg), cfg)


# The quadratic samplers the incremental ones replaced, kept as the reference:
# they rescan S (diffusion) or every candidate (community) on each step.
def reference_diffusion_sample(g, cfg):
    _require_connected(g, "diffusion_sample")
    rng = np.random.default_rng(cfg.seed)
    target = cfg.target_size(g.n)
    adj = reference_neighbors(g)
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


def reference_community_expansion_sample(g, cfg):
    _require_connected(g, "community_expansion_sample")
    rng = np.random.default_rng(cfg.seed)
    target = cfg.target_size(g.n)
    adj = reference_neighbors(g)
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


SAMPLER_PAIRS = [
    (diffusion_sample, reference_diffusion_sample),
    (community_expansion_sample, reference_community_expansion_sample),
]


def assert_same_view(got, want):
    assert got.n == want.n and got.label == want.label
    for a, b in ((got.orig_ids, want.orig_ids), (got.edges, want.edges),
                 (got.features, want.features)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_views(g, cfg):
    for sample, reference in SAMPLER_PAIRS:
        assert_same_view(sample(g, cfg), reference(g, cfg))


def star(leaves, hub):
    """A star whose hub is node `hub` and whose leaves are the other ids."""
    return Graph(n=leaves + 1,
                 edges=[tuple(sorted((hub, v))) for v in range(leaves + 1) if v != hub])


class TestIncrementalSamplers:
    @PROPERTY
    @given(g=connected_graphs(), rate=st.floats(0.0, 1.0, exclude_min=True), seed=seeds)
    def test_views_equal_the_quadratic_reference(self, g, rate, seed):
        assert_same_views(synthesize_features(g, cap=4), SamplerConfig(rate=rate, seed=seed))

    @pytest.mark.parametrize("g", [
        Graph(n=1, edges=np.empty((0, 2))),
        Graph(n=9, edges=[(i, i + 1) for i in range(8)]),
        star(7, hub=0),
        star(7, hub=4),
        Graph(n=6, edges=[(i, j) for i in range(6) for j in range(i + 1, 6)]),
    ], ids=["one-node", "path", "star-hub-0", "star-hub-4", "clique"])
    @pytest.mark.parametrize("rate", [0.3, 0.5, 1.0])
    def test_fixed_graphs_equal_the_reference(self, g, rate):
        g = synthesize_features(g, cap=8)
        for seed in range(12):
            assert_same_views(g, SamplerConfig(rate=rate, seed=seed))

    def test_star_ties_go_to_the_smallest_leaf(self):
        # every leaf's gain is 0, so community growth takes leaves in id order
        g, starts = star(7, hub=4), set()
        for seed in range(16):
            ids = community_expansion_sample(g, SamplerConfig(rate=0.75, seed=seed)).orig_ids
            start = int(ids[0])
            leaves = [v for v in range(8) if v not in (4, start)]
            assert ids.tolist() == ([start] + leaves if start == 4 else [start, 4] + leaves)[:6]
            starts.add(start)
        assert 4 in starts and len(starts) > 2


rates = st.floats(0.0, 1.0, exclude_min=True)
ONE_NODE = Graph(n=1, edges=np.empty((0, 2)))
PATH = Graph(n=9, edges=[(i, i + 1) for i in range(8)])
# every node of a ring has the same gain until growth reaches it
RING = Graph(n=12, edges=sorted(tuple(sorted((i, (i + 1) % 12))) for i in range(12)))


class TestBatchedSamplers:
    # every view of a lockstep batch must be the quadratic reference's view of
    # its graph alone; draws of bound 1 that the batch skips must not shift
    # any later draw
    @PROPERTY
    @given(batch=st.lists(st.tuples(connected_graphs(), rates, seeds), min_size=1, max_size=6))
    @example(batch=[(ONE_NODE, 0.5, 3), (star(7, hub=4), 0.75, 1), (ONE_NODE, 1.0, 0),
                    (PATH, 1.0, 5)])
    # graphs done at passes 0 and 1 ahead of others that grow on for 10+
    # passes: the growing set shrinks, and not from the batch's end
    @example(batch=[(PATH, 0.1, 2), (RING, 1.0, 9), (star(7, hub=4), 0.25, 4),
                    (PATH, 1.0, 1), (RING, 0.9, 6)])
    # tied gains among a ring's candidates while a path and a star grow
    @example(batch=[(RING, 0.75, 3), (PATH, 0.8, 7), (RING, 0.5, 8), (star(7, hub=2), 1.0, 5)])
    # a hub of 200 leaves beside small graphs and a 1-node graph
    @example(batch=[(star(200, hub=117), 0.6, 12), (ONE_NODE, 1.0, 4), (PATH, 0.5, 3),
                    (star(200, hub=0), 1.0, 7), (RING, 1.0, 2)])
    def test_batch_views_equal_the_quadratic_reference(self, batch):
        graphs = [synthesize_features(g, cap=4) for g, _, _ in batch]
        cfgs = [SamplerConfig(rate=rate, seed=seed) for _, rate, seed in batch]
        for sample, reference in SAMPLER_PAIRS:
            views = sample(graphs, cfgs)
            assert len(views) == len(graphs)
            for g, cfg, view in zip(graphs, cfgs, views):
                want = reference(g, cfg)
                assert_same_view(view, want)
                assert_same_view(sample([g], [cfg])[0], want)
