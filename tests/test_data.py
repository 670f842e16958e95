"""TU parsing, filtering, featurization, stats, and round-trip tests."""

import dataclasses
import re

import numpy as np
import pytest

from dsgc.data import (
    Dataset,
    Graph,
    check_edge_rows,
    dataset_stats,
    filter_connected,
    parse_tu_dataset,
    prepare_dataset,
    synthesize_features,
    write_tu_dataset,
)
from dsgc.errors import ContractError, TUParseError
from dsgc.samplers import SamplerConfig, community_expansion_sample, diffusion_sample


def write_tu(tmp_path, name, edges, indicator, labels, node_labels=None):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / f"{name}_A.txt").write_text("".join(f"{u}, {v}\n" for u, v in edges))
    (d / f"{name}_graph_indicator.txt").write_text("".join(f"{g}\n" for g in indicator))
    (d / f"{name}_graph_labels.txt").write_text("".join(f"{l}\n" for l in labels))
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text("".join(f"{l}\n" for l in node_labels))
    return d


class TestGraphInvariants:
    def test_valid_graph(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert list(g.degrees()) == [1, 2, 1]

    def test_rejects_no_nodes(self):
        with pytest.raises(ContractError, match="at least one node"):
            Graph(n=0, edges=np.empty((0, 2)))

    def test_dataset_needs_a_class(self):
        with pytest.raises(ContractError, match="num_classes must be positive"):
            Dataset(name="E", graphs=[Graph(n=1, edges=[])], num_classes=0)

    def test_dataset_rejects_label_outside_its_classes(self):
        for label in (-1, 2):
            with pytest.raises(ContractError, match="outside"):
                Dataset(name="L", graphs=[Graph(n=1, edges=[], label=label)], num_classes=2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            Graph(n=2, edges=[(0, 2)])

    def test_rejects_self_loop_and_disorder(self):
        with pytest.raises(ContractError):
            Graph(n=2, edges=[(1, 1)])
        with pytest.raises(ContractError):
            Graph(n=2, edges=[(1, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ContractError):
            Graph(n=3, edges=[(0, 1), (0, 1)])

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ContractError, match="sorted"):
            Graph(n=3, edges=[(1, 2), (0, 1)])

    def test_stacked_edge_rows_are_checked_graph_by_graph(self):
        sizes, counts = np.array([3, 2, 4]), [2, 1, 2]
        # each graph's rows ascend; the stack falls back at each new graph
        good = np.array([(0, 1), (1, 2), (0, 1), (0, 3), (2, 3)])
        check_edge_rows(good, sizes, counts)
        check_edge_rows(np.empty((0, 2), dtype=np.int64), sizes, [0, 0, 0])
        for rows, message in (
                ([(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)], "out of range"),  # 2 >= n of graph 1
                ([(0, 1), (1, 2), (0, 1), (0, 3), (3, 3)], "canonical"),
                ([(0, 1), (0, 1), (0, 1), (0, 3), (2, 3)], "sorted"),
                ([(0, 1), (1, 2), (0, 1), (2, 3), (0, 3)], "sorted")):
            with pytest.raises(ContractError, match=message):
                check_edge_rows(np.array(rows), sizes, counts)
        with pytest.raises(ContractError, match="at least one node, got n=0"):
            check_edge_rows(good[:3], np.array([3, 0, 2]), [2, 0, 1])

    def test_rejects_feature_mismatch(self):
        with pytest.raises(ContractError):
            Graph(n=2, edges=[(0, 1)], features=np.ones((3, 2)))

    @pytest.mark.parametrize("features", [[1.0, 2.0], 5.0])
    def test_rejects_features_that_are_not_a_matrix(self, features):
        message = f"features of shape {np.shape(features)} are not an (n, F) matrix"
        with pytest.raises(ContractError, match=re.escape(message)):
            Graph(n=2, edges=[(0, 1)], features=features)

    def test_equality_compares_every_field_but_the_cache(self):
        def graph(**over):
            fields = dict(n=3, edges=[(0, 1), (1, 2)], features=np.eye(3), label=1,
                          orig_ids=np.array([4, 7, 9]))
            return Graph(**{**fields, **over})

        a, b = graph(), graph()
        b.cache["connected"] = True
        assert a == b and not a != b
        for over in (dict(label=0), dict(label=None), dict(edges=[(0, 1)]),
                     dict(edges=[(0, 1), (0, 2)]), dict(features=np.eye(3)[::-1]),
                     dict(features=np.ones((3, 1))), dict(features=None),
                     dict(orig_ids=np.array([4, 7, 8])), dict(orig_ids=None)):
            assert a != graph(**over) and graph(**over) != a, over
        bare = graph(features=None, orig_ids=None)
        assert bare == graph(features=None, orig_ids=None)
        assert bare != graph(n=4, features=None, orig_ids=None)
        assert a != "graph"
        with pytest.raises(TypeError):
            hash(a)

    def test_views_from_one_seed_compare_equal(self):
        g = synthesize_features(Graph(n=6, edges=[(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]),
                                cap=4)
        for sample in (diffusion_sample, community_expansion_sample):
            a, b = (sample(g, SamplerConfig(rate=0.6, seed=11)) for _ in range(2))
            assert a.num_edges and a.orig_ids is not None and a == b

    def test_edgeless_graphs_compare(self):
        assert Graph(n=2, edges=np.empty((0, 2))) == Graph(n=2, edges=[])
        assert Graph(n=2, edges=[]) != Graph(n=3, edges=[])
        assert Graph(n=2, edges=[]) != Graph(n=2, edges=[(0, 1)])

    def test_connectivity(self):
        assert Graph(n=3, edges=[(0, 1), (1, 2)]).is_connected()
        assert not Graph(n=3, edges=[(0, 1)]).is_connected()
        assert Graph(n=1, edges=np.empty((0, 2))).is_connected()


class TestEdgeCheckOrder:
    # rows that break several invariants name the first in this order:
    # endpoint range, then i < j, then sorted unique keys
    @pytest.mark.parametrize("n, edges, message", [
        (3, [(1, 0), (0, 5)], "edge endpoint out of range"),
        (3, [(2, 1), (-1, 2)], "edge endpoint out of range"),
        (3, [(1, 2), (1, 1), (0, 1)], "edges must be canonical"),
        (2, [(0, -1)], "edges must be canonical"),
        (3, [(1, 2), (0, 1), (0, 1)], "sorted with no duplicate edge"),
    ])
    def test_first_broken_invariant_is_named(self, n, edges, message):
        with pytest.raises(ContractError, match=message):
            Graph(n=n, edges=edges)


class TestParse:
    def test_two_graph_toy(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2), (2, 1)], [1, 1, 2], [1, -1])
        ds = parse_tu_dataset(d)
        assert len(ds) == 2
        assert ds.num_classes == 2
        g1, g2 = ds.graphs
        assert (g1.n, g1.num_edges) == (2, 1)
        assert (g2.n, g2.num_edges) == (1, 0)
        # labels remapped densely in ascending raw order: -1 -> 0, 1 -> 1
        assert (g1.label, g2.label) == (1, 0)

    def test_node_labels_file_ignored(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2), (2, 1)], [1, 1], [1], node_labels=[7, 9])
        ds = parse_tu_dataset(d)
        assert len(ds) == 1 and ds.graphs[0].features is None

    def test_missing_file_named(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2)], [1, 1], [1])
        (d / "TOY_graph_labels.txt").unlink()
        with pytest.raises(FileNotFoundError, match="TOY_graph_labels.txt"):
            parse_tu_dataset(d)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_tu_dataset(tmp_path / "nope")

    def test_two_edge_files_in_one_directory(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2)], [1, 1], [1])
        (d / "OTHER_A.txt").write_text("1, 2\n")
        with pytest.raises(TUParseError, match="multiple edge files"):
            parse_tu_dataset(d)

    def test_node_id_out_of_range_reports_line(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2), (1, 9)], [1, 1], [1])
        with pytest.raises(TUParseError, match=r"_A\.txt:2"):
            parse_tu_dataset(d)

    def test_cross_graph_edge_rejected(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 3)], [1, 1, 2], [1, 2])
        with pytest.raises(TUParseError, match="crosses"):
            parse_tu_dataset(d)

    def test_self_loop_rejected(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(2, 2)], [1, 1], [1])
        with pytest.raises(TUParseError, match="self-loop"):
            parse_tu_dataset(d)

    @pytest.mark.parametrize("a, ind, lab, where", [
        # a bad edge row of any kind: the first line wins, blank lines counted
        ("1, 2\n\n2, 2\nx, 1\n", "1\n1\n", "0\n", ("_A.txt", 3)),
        ("1, 2\nx, 1\n2, 2\n", "1\n1\n", "0\n", ("_A.txt", 2)),
        ("1, 2, 3\n1, 9\n", "1\n1\n", "0\n", ("_A.txt", 1)),
        # indicator and label faults come before any edge fault
        ("x\n", "1\n1\n", "0\n\nzero\n", ("_graph_labels.txt", 3)),
        ("2, 2\n", "1\n3\n", "0\n", ("_graph_indicator.txt", None)),
        # an empty indicator comes before a bad label line
        ("1, 2\n", "\n\n", "x\n", ("_graph_indicator.txt", None)),
        ("1, 2\n", "1\n1, 1\n", "x\n", ("_graph_indicator.txt", 2)),
        # a graph without nodes is reported after the edges
        ("1, 1\n", "1\n3\n", "0\n1\n2\n", ("_A.txt", 1)),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, a, ind, lab, where):
        d = tmp_path / "ORD"
        d.mkdir()
        for suffix, text in (("A", a), ("graph_indicator", ind), ("graph_labels", lab)):
            (d / f"ORD_{suffix}.txt").write_text(text)
        with pytest.raises(TUParseError) as err:
            parse_tu_dataset(d)
        assert err.value.path.endswith("ORD" + where[0])
        assert err.value.line == where[1]

    BEYOND_INT64 = 99999999999999999999

    def test_indicator_beyond_int64_names_the_line(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2)], [1, 1], [1])
        (d / "TOY_graph_indicator.txt").write_text(f"1\n\n{self.BEYOND_INT64}\n")
        with pytest.raises(TUParseError, match=r"_graph_indicator\.txt:3") as err:
            parse_tu_dataset(d)
        assert err.value.line == 3

    def test_label_beyond_int64_names_the_line(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2)], [1, 1, 2], [1, -self.BEYOND_INT64])
        with pytest.raises(TUParseError, match=r"_graph_labels\.txt:2"):
            parse_tu_dataset(d)
        # the int64 extremes themselves are valid labels
        d = write_tu(tmp_path, "TOY", [(1, 2)], [1, 1, 2], [2**63 - 1, -(2**63)])
        assert [g.label for g in parse_tu_dataset(d).graphs] == [1, 0]

    def test_edge_endpoint_beyond_int64_names_the_line(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2), (2, self.BEYOND_INT64)], [1, 1], [1])
        with pytest.raises(TUParseError, match=r"_A\.txt:2"):
            parse_tu_dataset(d)

    def test_duplicate_direction_collapsed(self, tmp_path):
        d = write_tu(tmp_path, "TOY", [(1, 2), (2, 1), (2, 3), (3, 2)], [1, 1, 1], [5])
        ds = parse_tu_dataset(d)
        assert ds.graphs[0].num_edges == 2
        assert ds.num_classes == 1

    def test_writer_emits_both_directions_one_indexed(self, tmp_path):
        ds = Dataset(name="W", graphs=[Graph(n=2, edges=[(0, 1)], label=1),
                                       Graph(n=3, edges=[(0, 2), (1, 2)]),
                                       Graph(n=1, edges=np.empty((0, 2)), label=0)],
                     num_classes=2)
        write_tu_dataset(ds, tmp_path / "W")
        text = {s: (tmp_path / "W" / f"W_{s}.txt").read_text()
                for s in ("A", "graph_indicator", "graph_labels")}
        assert text == {"A": "1, 2\n2, 1\n3, 5\n5, 3\n4, 5\n5, 4\n",
                        "graph_indicator": "1\n1\n2\n2\n2\n3\n",
                        "graph_labels": "1\n0\n0\n"}

    def test_roundtrip_isomorphic(self, tmp_path):
        rng = np.random.default_rng(0)
        graphs = []
        for _ in range(12):
            n = int(rng.integers(2, 9))
            full = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = rng.random(len(full)) < 0.5
            edges = np.array([e for e, t in zip(full, take) if t], dtype=np.int64).reshape(-1, 2)
            graphs.append(Graph(n=n, edges=edges, label=int(rng.integers(3))))
        ds = Dataset(name="RT", graphs=graphs, num_classes=3)
        out = tmp_path / "RT"
        write_tu_dataset(ds, out)
        back = parse_tu_dataset(out)
        assert len(back) == len(ds)
        assert back.num_classes <= ds.num_classes
        for a, b in zip(ds.graphs, back.graphs):
            assert a.n == b.n
            assert np.array_equal(a.edges, b.edges)  # identical node order -> identical rows
        assert [g.label for g in ds.graphs] == [
            sorted({g.label for g in ds.graphs})[b.label] for b in back.graphs
        ]


class TestFilterAndFeatures:
    def test_filter_drops_disconnected(self):
        ds = Dataset(
            name="F",
            graphs=[
                Graph(n=3, edges=[(0, 1), (1, 2)], label=0),
                Graph(n=3, edges=[(0, 1)], label=0),  # isolated node 2
                Graph(n=1, edges=np.empty((0, 2)), label=0),
            ],
            num_classes=1,
        )
        out = filter_connected(ds)
        assert [g.n for g in out.graphs] == [3, 1]

    def test_filter_idempotent(self):
        ds = Dataset(
            name="F",
            graphs=[Graph(n=2, edges=[(0, 1)], label=0), Graph(n=2, edges=np.empty((0, 2)), label=0)],
            num_classes=1,
        )
        once = filter_connected(ds)
        twice = filter_connected(once)
        assert [id(g) for g in once.graphs] == [id(g) for g in twice.graphs]

    def test_path_graph_features(self):
        g = synthesize_features(Graph(n=3, edges=[(0, 1), (1, 2)]), cap=4)
        assert g.features.shape == (3, 5)
        assert list(np.argmax(g.features, axis=1)) == [1, 2, 1]

    def test_single_edge_cap_one(self):
        g = synthesize_features(Graph(n=2, edges=[(0, 1)]), cap=1)
        assert np.array_equal(g.features, [[0.0, 1.0], [0.0, 1.0]])

    def test_cap_below_one_rejected(self):
        with pytest.raises(ContractError, match="degree cap must be positive, got 0"):
            synthesize_features(Graph(n=2, edges=[(0, 1)]), cap=0)

    def test_star_center_clamped(self):
        edges = [(0, i) for i in range(1, 11)]
        g = synthesize_features(Graph(n=11, edges=edges), cap=4)
        assert np.argmax(g.features[0]) == 4
        assert g.features[0].sum() == 1.0

    def test_classes_are_cached_and_replaced_on_refeaturizing(self):
        g = Graph(n=4, edges=[(0, 1), (0, 2), (0, 3)])
        g.is_connected()
        wide = synthesize_features(g, cap=4)
        assert wide.cache["classes"].tolist() == [3, 1, 1, 1]
        assert np.array_equal(wide.cache["classes"], np.argmax(wide.features, axis=1))
        assert wide.cache["connected"] is True and "classes" not in g.cache
        narrow = synthesize_features(wide, cap=2)
        assert narrow.cache["classes"].tolist() == [2, 1, 1, 1]
        assert np.array_equal(narrow.cache["classes"], np.argmax(narrow.features, axis=1))
        assert wide.cache["classes"].tolist() == [3, 1, 1, 1]
        # derived structure: the classes take no part in equality
        assert narrow == Graph(n=4, edges=g.edges, features=narrow.features)
        # a Graph built with other features never carries the old classes
        other = dataclasses.replace(narrow, features=np.eye(3)[[0, 0, 0, 0]])
        assert other.cache == {} and other.cache is not narrow.cache
        assert "classes" in narrow.cache

    def test_replaced_edges_are_not_read_from_the_old_cache(self):
        g = Graph(n=3, edges=[(0, 1), (1, 2)])
        assert g.is_connected() and g.cache == {"connected": True}
        cut = dataclasses.replace(g, edges=np.array([[0, 1]]))
        assert cut.cache == {} and not cut.is_connected()
        assert g.is_connected()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            full = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = rng.random(len(full)) < 0.4
            edges = np.array([e for e, t in zip(full, take) if t], dtype=np.int64).reshape(-1, 2)
            g = synthesize_features(Graph(n=n, edges=edges), cap=3)
            assert np.array_equal(g.features.sum(axis=1), np.ones(n))


class TestStats:
    def test_triangle(self):
        ds = Dataset(name="T", graphs=[Graph(n=3, edges=[(0, 1), (0, 2), (1, 2)], label=0)], num_classes=1)
        s = dataset_stats(ds)
        assert (s.num_graphs, s.num_classes, s.avg_nodes, s.avg_edges) == (1, 1, 3.0, 3.0)

    def test_mean_nodes(self):
        ds = Dataset(
            name="T",
            graphs=[Graph(n=2, edges=[(0, 1)], label=0), Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)], label=0)],
            num_classes=1,
        )
        assert dataset_stats(ds).avg_nodes == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            dataset_stats(Dataset(name="E", graphs=[], num_classes=1))


class TestPrepare:
    def test_prepare_filters_and_featurizes(self, tmp_path):
        d = write_tu(
            tmp_path, "P",
            [(1, 2), (2, 1), (3, 4), (4, 3)],
            [1, 1, 2, 2, 2],  # graph 2 has an isolated node 5
            [1, 2],
        )
        ds = prepare_dataset(d, degree_cap=3)
        assert len(ds) == 1
        assert ds.graphs[0].features.shape == (2, 4)

    def test_prepared_graphs_keep_the_filter_cache(self, tmp_path):
        d = write_tu(tmp_path, "C", [(1, 2), (2, 1)], [1, 1], [0])
        assert prepare_dataset(d).graphs[0].cache["connected"] is True
