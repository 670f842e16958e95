"""CLI behavior: exit codes, output layout, determinism, printed formats."""

import concurrent.futures
import json
import os

import pytest

from conftest import synthetic_dataset
from dsgc import cli
from dsgc.cli import main
from dsgc.data import write_tu_dataset
from dsgc.samplers import diffusion_sample, induced_subgraph


def _die(*args):
    """A fold worker that ends its process without a result."""
    os._exit(1)


def write_config(tmp_path, **over):
    cfg = {
        "dataset": "RINGS",
        "epochs": 2,
        "hidden_dim": 4,
        "num_layers": 2,
        "batch_size": 3,
        "label_ratio": 0.3,
        "folds": 3,
        "learning_rate": 1e-3,
        "degree_cap": 8,
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def data_root(tmp_path):
    write_tu_dataset(synthetic_dataset(12), str(tmp_path / "data" / "RINGS"))
    return str(tmp_path / "data")


class TestStats:
    def test_prints_table(self, synthetic_tu_dir, capsys):
        assert main(["stats", synthetic_tu_dir]) == 0
        out = capsys.readouterr().out
        assert "graphs: 24" in out
        assert "classes: 2" in out
        assert "avg_nodes:" in out and "avg_edges:" in out

    def test_no_filter_flag(self, synthetic_tu_dir, capsys):
        assert main(["stats", synthetic_tu_dir, "--no-filter"]) == 0
        assert "graphs: 24" in capsys.readouterr().out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nowhere")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_parse_failure_names_file_and_line(self, tmp_path, capsys):
        d = tmp_path / "BAD"
        d.mkdir()
        (d / "BAD_A.txt").write_text("1, 2\nbogus\n")
        (d / "BAD_graph_indicator.txt").write_text("1\n1\n")
        (d / "BAD_graph_labels.txt").write_text("0\n")
        assert main(["stats", str(d)]) == 2
        err = capsys.readouterr().err
        assert "BAD_A.txt:2" in err

    def test_value_beyond_int64_exits_2_naming_the_line(self, tmp_path, capsys):
        d = tmp_path / "BIG"
        d.mkdir()
        (d / "BIG_A.txt").write_text("1, 2\n")
        (d / "BIG_graph_indicator.txt").write_text("1\n99999999999999999999\n")
        (d / "BIG_graph_labels.txt").write_text("0\n")
        assert main(["stats", str(d)]) == 2
        assert "BIG_graph_indicator.txt:2" in capsys.readouterr().err


class TestSample:
    def test_full_rate_keeps_edge_count(self, synthetic_tu_dir, capsys):
        assert main(["sample", synthetic_tu_dir, "0", "--rate", "1.0"]) == 0
        out = capsys.readouterr().out
        head = out.split("\n")[0]
        n = int(head.split("n=")[1].split()[0])
        m = int(head.split("m=")[1].split()[0])
        assert f"view n={n} m={m}" in head

    def test_check_passes_over_seeds(self, synthetic_tu_dir, capsys):
        for sampler in ("diffusion", "community"):
            for seed in range(10):
                rc = main([
                    "sample", synthetic_tu_dir, "3", "--sampler", sampler,
                    "--rate", "0.6", "--seed", str(seed), "--check",
                ])
                assert rc == 0
                assert "check: ok" in capsys.readouterr().out

    def test_failed_check_exits_2_naming_the_invariant(
        self, synthetic_tu_dir, capsys, monkeypatch
    ):
        def short_view(g, cfg):
            return induced_subgraph(g, diffusion_sample(g, cfg).orig_ids[:-1])

        monkeypatch.setitem(cli._SAMPLERS, "diffusion", short_view)
        assert main(["sample", synthetic_tu_dir, "3", "--rate", "0.6", "--check"]) == 2
        captured = capsys.readouterr()
        assert "check: ok" not in captured.out
        assert "target size" in captured.err

    def test_internal_assertion_is_not_a_config_error(
        self, synthetic_tu_dir, monkeypatch
    ):
        def broken(g, cfg):
            raise AssertionError("internal bug")

        monkeypatch.setitem(cli._SAMPLERS, "diffusion", broken)
        with pytest.raises(AssertionError, match="internal bug"):
            main(["sample", synthetic_tu_dir, "3"])

    def test_bad_index_exits_2(self, synthetic_tu_dir, capsys):
        assert main(["sample", synthetic_tu_dir, "999"]) == 2
        assert "999" in capsys.readouterr().err

    def test_bad_sampler_name_exits_2_listing_choices(self, synthetic_tu_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", synthetic_tu_dir, "0", "--sampler", "walk"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "diffusion" in err and "community" in err


class TestTrain:
    def test_writes_artifacts_and_summary(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", cfg_path, "--data-dir", data_root, "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "mean_accuracy:" in printed
        for name in ("manifest.json", "folds.csv", "summary.json",
                     "loss_trace_fold0.csv"):
            assert (out / name).exists(), name
        with open(out / "summary.json") as f:
            summary = json.load(f)
        assert len(summary["fold_accuracies"]) == 3
        assert abs(
            summary["mean"]
            - sum(summary["fold_accuracies"]) / len(summary["fold_accuracies"])
        ) < 1e-12
        assert not any(p.suffix == ".tmp" for p in out.iterdir())

    def test_set_override_and_rerun_from_manifest(self, tmp_path, data_root):
        cfg_path = write_config(tmp_path)
        out1 = tmp_path / "a"
        rc = main(["train", cfg_path, "--data-dir", data_root, "--out", str(out1),
                   "--set", "epochs=1", "--set", "seed=5", "--set", "omega=0"])
        assert rc == 0
        with open(out1 / "manifest.json") as f:
            body = json.load(f)
        assert body["config"]["epochs"] == 1
        assert body["config"]["seed"] == 5
        assert body["config"]["omega"] == 0.0
        out2 = tmp_path / "b"
        rc = main(["train", str(out1 / "manifest.json"), "--data-dir", data_root,
                   "--out", str(out2)])
        assert rc == 0
        assert (out1 / "folds.csv").read_text() == (out2 / "folds.csv").read_text()

    def test_unknown_config_key_exits_2_naming_it(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path)
        rc = main(["train", cfg_path, "--data-dir", data_root,
                   "--out", str(tmp_path / "x"), "--set", "leraning_rate=1"])
        assert rc == 2
        assert "leraning_rate" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_finite_value_exits_2_without_outputs(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "x"
        rc = main(["train", cfg_path, "--data-dir", data_root, "--out", str(out),
                   "--set", "learning_rate=nan"])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_a_json_list_exits_2(self, tmp_path, data_root, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        out = tmp_path / "x"
        rc = main(["train", str(path), "--data-dir", data_root, "--out", str(out)])
        assert rc == 2
        assert "expected a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_override_without_equals_exits_2(self, tmp_path, data_root, capsys):
        out = tmp_path / "x"
        rc = main(["train", write_config(tmp_path), "--data-dir", data_root,
                   "--out", str(out), "--set", "foo"])
        assert rc == 2
        assert "override 'foo' is not KEY=VALUE" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_exits_2_without_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "never"
        rc = main(["train", cfg_path, "--data-dir", str(tmp_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_divergence_exits_3_with_epoch(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path, learning_rate=1e200)
        out = tmp_path / "run"
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["train", cfg_path, "--data-dir", data_root, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "fold 0" in err and "epoch" in err
        assert "expmap0: row" in err  # the DomainError that ended the fold
        # manifest precedes training; no result files exist
        assert (out / "manifest.json").exists()
        assert not (out / "folds.csv").exists()

    def test_dead_fold_worker_exits_4(self, tmp_path, data_root, monkeypatch, capsys):
        from dsgc import experiment

        monkeypatch.setattr(experiment, "_train_fold", _die)
        cfg_path = write_config(tmp_path, epochs=1, folds=2)
        out = tmp_path / "run"
        rc = main(["train", cfg_path, "--data-dir", data_root, "--out", str(out),
                   "--parallel-folds", "2"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: a fold worker process died") and err.count("\n") == 1
        assert not (out / "folds.csv").exists()

    @pytest.mark.parametrize("command,n", [("train", "0"), ("sweep", "-2")])
    def test_parallel_folds_below_one_exits_2(self, tmp_path, data_root, capsys,
                                              command, n):
        out = tmp_path / "run"
        argv = [command, write_config(tmp_path), "--data-dir", data_root,
                "--out", str(out), "--parallel-folds", n]
        assert main(argv + (["--kind", "dim"] if command == "sweep" else [])) == 2
        assert "--parallel-folds must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_dataset_root(self, tmp_path, data_root, monkeypatch):
        monkeypatch.setenv("DSGC_DATA_DIR", data_root)
        cfg_path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", cfg_path, "--out", str(out), "--set",
                     "epochs=1"]) == 0
        assert (out / "summary.json").exists()
        with open(out / "manifest.json") as f:
            assert json.load(f)["dataset_path"] == os.path.join(data_root, "RINGS")


class TestSweep:
    def test_dim_sweep_rows(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path, epochs=1, folds=2)
        out = tmp_path / "sweep"
        rc = main(["sweep", cfg_path, "--kind", "dim", "--data-dir", data_root,
                   "--out", str(out)])
        assert rc == 0
        lines = [ln for ln in (out / "sweep_dim.csv").read_text().split("\n") if ln]
        assert lines[0] == "config,fold,accuracy"
        assert len(lines) == 1 + 4 * 2
        labels = [ln.split(",")[0] for ln in lines[1::2]]
        assert labels == ["d8", "d16", "d32", "d64"]

    def test_encoders_sweep_rows(self, tmp_path, data_root):
        cfg_path = write_config(tmp_path, epochs=1, folds=2, num_layers=1)
        out = tmp_path / "sweep"
        rc = main(["sweep", cfg_path, "--kind", "encoders", "--data-dir", data_root,
                   "--out", str(out)])
        assert rc == 0
        lines = [
            ln for ln in (out / "sweep_encoders.csv").read_text().split("\n") if ln
        ]
        assert len(lines) == 1 + 16 * 2
        labels = [ln.split(",")[0] for ln in lines[1::2]]
        assert len(set(labels)) == 16 and labels == sorted(labels)
        assert "gcn-gin" in labels

    def test_parallel_sweep_builds_one_pool_and_matches_serial(self, tmp_path, data_root,
                                                               monkeypatch):
        made = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg_path = write_config(tmp_path, epochs=1, folds=2, num_layers=1)
        csv = {}
        for n in ("1", "2"):
            out = tmp_path / f"sweep{n}"
            assert main(["sweep", cfg_path, "--kind", "encoders", "--data-dir", data_root,
                         "--out", str(out), "--parallel-folds", n]) == 0
            csv[n] = (out / "sweep_encoders.csv").read_text()
        assert made == [2]
        assert csv["1"] == csv["2"] and csv["1"].count("\n") == 1 + 16 * 2

    def test_kind_is_required(self, tmp_path, data_root, capsys):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg_path, "--data-dir", data_root])
        assert exc.value.code == 2
