"""Sampler behavior: size, connectivity, induced completeness, determinism,
and the batch contract (errors, lengths, views independent of the batch)."""

import numpy as np
import pytest

from conftest import induced_subgraph
from dsgc.data import Graph, synthesize_features
from dsgc.errors import ContractError
from dsgc.samplers import SamplerConfig, check_view, community_expansion_sample, diffusion_sample

SAMPLERS = [diffusion_sample, community_expansion_sample]


def random_connected_graph(rng, max_n=30):
    """Random tree plus extra random edges: connected by construction."""
    n = int(rng.integers(2, max_n + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.integers(n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    arr = np.array(sorted(edges), dtype=np.int64)
    return Graph(n=n, edges=arr)


class TestConfig:
    def test_rate_bounds(self):
        with pytest.raises(ContractError):
            SamplerConfig(rate=0.0)
        with pytest.raises(ContractError):
            SamplerConfig(rate=1.2)

    @pytest.mark.parametrize("seed", [-1, -2**40, 1.0, 2.5, "3", None, True])
    def test_rejects_negative_or_non_integer_seed(self, seed):
        with pytest.raises(ContractError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            SamplerConfig(rate=0.5, seed=seed)

    @pytest.mark.parametrize("seed", [2**32, 2**40, np.int64(2**32), np.uint64(2**64 - 1)])
    def test_rejects_seeds_wider_than_32_bits(self, seed):
        with pytest.raises(ContractError, match="one 32-bit word, below 2\\*\\*32"):
            SamplerConfig(rate=0.5, seed=seed)

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_numpy_integer_seeds_give_the_int_seeds_views(self, sample):
        g = Graph(n=6, edges=[(i, i + 1) for i in range(5)])
        for seed in (np.uint32(7), np.int64(2**32 - 1), np.uint64(0), np.int8(3)):
            view = sample(g, SamplerConfig(rate=0.5, seed=seed))
            want = sample(g, SamplerConfig(rate=0.5, seed=int(seed)))
            assert np.array_equal(view.orig_ids, want.orig_ids)

    def test_target_size(self):
        assert SamplerConfig(rate=0.5).target_size(10) == 5
        assert SamplerConfig(rate=0.1).target_size(3) == 1
        assert SamplerConfig(rate=1.0).target_size(7) == 7


class TestSamplerContracts:
    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_full_rate_is_isomorphic(self, sample):
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng)
        sub = sample(g, SamplerConfig(rate=1.0, seed=3))
        assert sub.n == g.n
        assert sub.num_edges == g.num_edges
        check_view(g, sub, SamplerConfig(rate=1.0, seed=3))

    def test_path_half_rate(self):
        g = Graph(n=10, edges=[(i, i + 1) for i in range(9)])
        sub = diffusion_sample(g, SamplerConfig(rate=0.5, seed=1))
        assert sub.n == 5
        assert sub.is_connected()

    def test_star_greedy_picks_center(self):
        g = Graph(n=10, edges=[(0, i) for i in range(1, 10)])
        for seed in range(20):
            sub = community_expansion_sample(g, SamplerConfig(rate=0.2, seed=seed))
            assert sub.n == 2
            assert sub.num_edges == 1
            assert 0 in set(sub.orig_ids.tolist())

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_determinism(self, sample):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng)
        a = sample(g, SamplerConfig(rate=0.6, seed=11))
        b = sample(g, SamplerConfig(rate=0.6, seed=11))
        assert np.array_equal(a.orig_ids, b.orig_ids)
        assert np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_disconnected_rejected(self, sample):
        g = Graph(n=4, edges=[(0, 1), (2, 3)])
        with pytest.raises(ContractError):
            sample(g, SamplerConfig(rate=0.5, seed=0))

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_single_node_graph(self, sample):
        g = Graph(n=1, edges=np.empty((0, 2)))
        sub = sample(g, SamplerConfig(rate=0.5, seed=0))
        assert sub.n == 1
        assert sub.num_edges == 0

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_features_carried_over(self, sample):
        rng = np.random.default_rng(8)
        g = synthesize_features(random_connected_graph(rng), cap=5)
        sub = sample(g, SamplerConfig(rate=0.5, seed=2))
        assert np.array_equal(sub.features, g.features[sub.orig_ids])

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_property_sweep(self, sample):
        rng = np.random.default_rng(123)
        for trial in range(250):
            g = random_connected_graph(rng)
            cfg = SamplerConfig(rate=float(rng.uniform(0.1, 1.0)), seed=trial)
            check_view(g, sample(g, cfg), cfg)


class TestBatchContract:
    PATH = Graph(n=3, edges=[(0, 1), (1, 2)])
    SPLIT = Graph(n=4, edges=[(0, 1), (2, 3)])

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_disconnected_graph_is_named_by_its_batch_index(self, sample):
        cfg = SamplerConfig(rate=0.5, seed=0)
        with pytest.raises(ContractError) as one:
            sample(self.SPLIT, cfg)
        assert str(one.value) == (f"{sample.__name__}: graph must be connected "
                                  f"(filter the dataset first)")
        with pytest.raises(ContractError) as batch:
            sample([self.PATH, self.SPLIT, self.PATH, self.SPLIT], [cfg] * 4)
        assert str(batch.value) == f"{one.value} (batch index 1)"

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_lengths_must_match(self, sample):
        with pytest.raises(ContractError, match="2 graphs but 1 sampler configs"):
            sample([self.PATH, self.PATH], [SamplerConfig(rate=0.5)])

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_empty_batch_gives_no_views(self, sample):
        assert sample([], []) == []

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_a_view_does_not_depend_on_its_batch(self, sample):
        rng = np.random.default_rng(9)
        graphs = [synthesize_features(random_connected_graph(rng), cap=6) for _ in range(12)]
        cfgs = [SamplerConfig(rate=float(rng.uniform(0.1, 1.0)), seed=s) for s in range(12)]
        for g, cfg, view in zip(graphs, cfgs, sample(graphs, cfgs)):
            alone = sample(g, cfg)
            check_view(g, view, cfg)
            assert view.label == alone.label
            for a, b in ((view.orig_ids, alone.orig_ids), (view.edges, alone.edges),
                         (view.features, alone.features)):
                assert np.array_equal(a, b)


class TestViewClasses:
    def test_views_carry_their_nodes_classes(self):
        g = synthesize_features(Graph(n=5, edges=[(0, 1), (0, 2), (0, 3), (3, 4)]), cap=2)
        view = diffusion_sample(g, SamplerConfig(0.6, seed=1))
        assert np.array_equal(view.cache["classes"], g.cache["classes"][view.orig_ids])
        # one graph without classes: no view of the call gets them
        bare = Graph(n=g.n, edges=g.edges, features=g.features)
        views = diffusion_sample([g, bare], [SamplerConfig(1.0), SamplerConfig(1.0)])
        assert [v.cache for v in views] == [{}, {}]
        assert all(np.array_equal(v.features, g.features[v.orig_ids]) for v in views)


class TestCheckView:
    # a 6-cycle with one chord: every edge lies on a cycle
    RING = Graph(n=6, edges=[(0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)])
    FULL = SamplerConfig(rate=1.0)

    @pytest.mark.parametrize("sample", SAMPLERS)
    def test_sampled_views_pass(self, sample):
        rng = np.random.default_rng(77)
        for trial in range(100):
            g = random_connected_graph(rng)
            cfg = SamplerConfig(rate=float(rng.uniform(0.1, 1.0)), seed=trial)
            check_view(g, sample(g, cfg), cfg)

    def test_wrong_size_rejected(self):
        view = induced_subgraph(self.RING, [0, 1, 2, 3, 4])
        with pytest.raises(ContractError, match="target size is 6"):
            check_view(self.RING, view, self.FULL)

    def test_dropped_induced_edge_rejected(self):
        view = diffusion_sample(self.RING, self.FULL)
        tampered = Graph(n=view.n, edges=view.edges[1:], orig_ids=view.orig_ids)
        with pytest.raises(ContractError, match="induced edges"):
            check_view(self.RING, tampered, self.FULL)

    def test_edge_outside_the_graph_rejected(self):
        view = induced_subgraph(self.RING, [0, 1, 2])  # the path 0-1-2
        tampered = Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)], orig_ids=view.orig_ids)
        with pytest.raises(ContractError, match=r"\(0, 2\)\] are not in the graph"):
            check_view(self.RING, tampered, SamplerConfig(rate=0.5))

    def test_duplicated_node_id_rejected(self):
        view = community_expansion_sample(self.RING, self.FULL)
        ids = view.orig_ids.copy()
        ids[1] = ids[0]
        tampered = Graph(n=view.n, edges=view.edges, orig_ids=ids)
        with pytest.raises(ContractError, match="one-to-one"):
            check_view(self.RING, tampered, self.FULL)

    def test_disconnected_view_rejected(self):
        view = induced_subgraph(self.RING, [1, 4, 2])  # 1-2 plus an isolated 4
        with pytest.raises(ContractError, match="not connected"):
            check_view(self.RING, view, SamplerConfig(rate=0.5))
