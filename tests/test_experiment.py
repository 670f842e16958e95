"""Config validation, fold splitting, seeded determinism, small full runs."""

import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import synthetic_dataset
from dsgc.data import synthesize_features
from dsgc.errors import ConfigError, ContractError, DomainError, TrainingDivergedError
from dsgc.experiment import (
    ExperimentConfig,
    MetricsRecord,
    _train_fold,
    derive_seed,
    encoder_pair_grid,
    hidden_dim_sweep,
    run_experiment,
    split_folds,
    write_dim_sweep_csv,
    write_manifest,
    write_results,
)

FAST = dict(
    dataset="RINGS", epochs=2, hidden_dim=4, num_layers=2, batch_size=3,
    label_ratio=0.3, folds=4, learning_rate=1e-3, degree_cap=8,
)


class TestConfig:
    def test_defaults_follow_reference_setup(self):
        cfg = ExperimentConfig()
        assert cfg.euclidean_encoder == "gcn"
        assert cfg.hyperbolic_encoder == "gin"
        assert (cfg.num_layers, cfg.hidden_dim, cfg.epochs) == (3, 16, 200)
        assert (cfg.learning_rate, cfg.weight_decay) == (5e-5, 1e-5)
        assert (cfg.temperature, cfg.omega, cfg.batch_size) == (1.0, 0.01, 8)
        assert (cfg.label_ratio, cfg.folds, cfg.test_fraction) == (0.5, 10, 0.1)

    def test_from_dict_coerces_strings(self):
        cfg = ExperimentConfig.from_dict(
            {"epochs": "50", "learning_rate": "1e-3", "independent_draws": "true",
             "dataset": "RINGS"}
        )
        assert cfg.epochs == 50
        assert cfg.learning_rate == 1e-3
        assert cfg.independent_draws is True

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="learningrate"):
            ExperimentConfig.from_dict({"learningrate": 0.1})

    def test_uninterpretable_value(self):
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig.from_dict({"epochs": "many"})

    @pytest.mark.parametrize(
        "field,value",
        [("label_ratio", 0.0), ("label_ratio", 1.0), ("test_fraction", 1.5),
         ("batch_size", 1), ("folds", 1), ("learning_rate", 0.0),
         ("temperature", -1.0), ("curvature", 0.0), ("omega", -0.01),
         ("alpha_e", 0.0), ("alpha_h", 1.2), ("num_layers", 0),
         ("euclidean_encoder", "mlp")],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    def test_round_trip(self):
        cfg = ExperimentConfig(hidden_dim=32, omega=0.0)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed("view", 0, 1, 2) == derive_seed("view", 0, 1, 2)
        assert derive_seed("view", 0, 1, 2) != derive_seed("view", 0, 2, 1)
        assert derive_seed("view", 0) != derive_seed("sched", 0)

    def test_fits_in_32_bits(self):
        for parts in (("a", 1), (2 ** 40,), ("model", 7, 3, 0)):
            s = derive_seed(*parts)
            assert 0 <= s < 2 ** 32


class TestSplitFolds:
    def featurized(self, num_graphs=24):
        ds = synthetic_dataset(num_graphs)
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        return dataclasses.replace(ds, graphs=graphs)

    def test_partition_sizes_for_188(self):
        ds = self.featurized(188)
        cfg = ExperimentConfig(**{**FAST, "folds": 10})
        splits = split_folds(ds, cfg)
        sizes = sorted(len(s.test) for s in splits)
        assert sizes == [18, 18] + [19] * 8

    def test_test_slices_partition_everything(self):
        ds = self.featurized()
        splits = split_folds(ds, ExperimentConfig(**FAST))
        seen = np.sort(np.concatenate([s.test for s in splits]))
        assert np.array_equal(seen, np.arange(len(ds.graphs)))

    def test_labeled_disjoint_from_test_and_sized(self):
        ds = self.featurized()
        cfg = ExperimentConfig(**FAST)
        want = round(cfg.label_ratio * len(ds.graphs))
        for s in split_folds(ds, cfg):
            assert np.intersect1d(s.labeled, s.test).size == 0
            assert len(s.labeled) == min(want, len(ds.graphs) - len(s.test))

    def test_unlabeled_is_complement_of_labeled(self):
        ds = self.featurized()
        for s in split_folds(ds, ExperimentConfig(**FAST)):
            assert np.array_equal(
                np.sort(np.concatenate([s.labeled, s.unlabeled])),
                np.arange(len(ds.graphs)),
            )
            # transductive: test graphs sit in the unlabeled pool
            assert np.intersect1d(s.test, s.unlabeled).size == len(s.test)

    def test_pure_function_of_dataset_and_seed(self):
        ds = self.featurized()
        cfg = ExperimentConfig(**FAST)
        a = split_folds(ds, cfg)
        b = split_folds(ds, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.labeled, y.labeled)
            assert np.array_equal(x.test, y.test)
        c = split_folds(ds, cfg.replace(seed=1))
        assert any(
            not np.array_equal(x.test, y.test) for x, y in zip(a, c)
        )

    def test_independent_draws_mode(self):
        ds = self.featurized(30)
        cfg = ExperimentConfig(**{**FAST, "independent_draws": True})
        splits = split_folds(ds, cfg)
        for s in splits:
            assert len(s.test) == 3
            assert np.intersect1d(s.labeled, s.test).size == 0
        # overlapping draws are allowed, a partition is not expected
        total = np.concatenate([s.test for s in splits])
        assert len(np.unique(total)) <= len(total)

    def test_too_few_graphs(self):
        ds = self.featurized(24)
        small = dataclasses.replace(ds, graphs=ds.graphs[:3])
        with pytest.raises(ContractError):
            split_folds(small, ExperimentConfig(**FAST))

    def test_zero_labeled_rejected(self):
        ds = self.featurized(24)
        cfg = ExperimentConfig(**{**FAST, "label_ratio": 0.01})
        with pytest.raises(ContractError):
            split_folds(ds, cfg)


class TestMetricsRecord:
    def test_aggregates_match_recomputation(self):
        accs = [0.5, 0.75, 1.0, 0.25]
        rec = MetricsRecord.from_folds(accs)
        assert abs(rec.mean - np.mean(accs)) < 1e-12
        assert abs(rec.std - np.std(accs)) < 1e-12


class TestRunExperiment:
    def run(self, **over):
        ds = synthetic_dataset()
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        ds = dataclasses.replace(ds, graphs=graphs)
        cfg = ExperimentConfig(**{**FAST, **over})
        return cfg, ds, run_experiment(cfg, dataset=ds)

    def test_shape_and_ranges(self):
        cfg, ds, rec = self.run()
        assert len(rec.fold_accuracies) == cfg.folds
        assert all(0.0 <= a <= 1.0 for a in rec.fold_accuracies)
        assert len(rec.traces) == cfg.folds
        assert rec.traces[0].shape == (cfg.epochs, 3)
        assert np.isfinite(rec.traces[0]).all()

    def test_deterministic_rerun(self):
        _, _, a = self.run()
        _, _, b = self.run()
        assert a.fold_accuracies == b.fold_accuracies
        for x, y in zip(a.traces, b.traces):
            assert np.array_equal(x, y)

    def test_seed_changes_outcome(self):
        _, _, a = self.run()
        _, _, b = self.run(seed=99)
        different = a.fold_accuracies != b.fold_accuracies or any(
            not np.array_equal(x, y) for x, y in zip(a.traces, b.traces)
        )
        assert different

    def test_learnable_synthetic_dataset(self):
        # cycles versus stars are separable from degree features alone;
        # a short supervised-only run must beat coin flipping on average
        _, _, rec = self.run(epochs=30, omega=0.0, learning_rate=0.01)
        assert rec.mean > 0.75

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_location(self):
        ds = synthetic_dataset()
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        ds = dataclasses.replace(ds, graphs=graphs)
        cfg = ExperimentConfig(**{**FAST, "learning_rate": 1e200})
        with pytest.raises(TrainingDivergedError) as err:
            run_experiment(cfg, dataset=ds)
        assert err.value.fold == 0
        assert "fold 0" in str(err.value)

    def test_domain_error_in_step_becomes_divergence(self, monkeypatch):
        from dsgc import experiment

        def leave_the_ball(*args):
            raise DomainError("project: row 0 has a non-finite norm inf")

        monkeypatch.setattr(experiment, "train_step", leave_the_ball)
        ds = synthetic_dataset()
        ds = dataclasses.replace(ds, graphs=[synthesize_features(g, cap=8) for g in ds.graphs])
        with pytest.raises(TrainingDivergedError) as err:
            run_experiment(ExperimentConfig(**FAST), dataset=ds)
        assert (err.value.fold, err.value.epoch) == (0, 0)
        assert isinstance(err.value.__cause__, DomainError)
        assert "project: row 0" in str(err.value.__cause__)
        assert "project: row 0" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parallel_divergence_keeps_the_domain_error_text(self):
        # a worker's __cause__ comes back as a remote traceback; the op and
        # row must survive in the error's own message
        ds = synthetic_dataset()
        ds = dataclasses.replace(ds, graphs=[synthesize_features(g, cap=8) for g in ds.graphs])
        cfg = ExperimentConfig(**{**FAST, "learning_rate": 1e200, "folds": 2})
        with pytest.raises(TrainingDivergedError, match="project: row") as err:
            run_experiment(cfg, dataset=ds, parallel=2)
        assert err.value.detail.startswith("project: row")

    def test_parallel_folds_match_serial(self):
        ds = synthetic_dataset()
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        ds = dataclasses.replace(ds, graphs=graphs)
        cfg = ExperimentConfig(**{**FAST, "epochs": 1, "folds": 2})
        serial = run_experiment(cfg, dataset=ds, parallel=1)
        parallel = run_experiment(cfg, dataset=ds, parallel=2)
        assert serial.fold_accuracies == parallel.fold_accuracies
        for x, y in zip(serial.traces, parallel.traces):
            assert np.array_equal(x, y)


class TestSweeps:
    @pytest.fixture
    def tiny(self):
        ds = synthetic_dataset(12)
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        ds = dataclasses.replace(ds, graphs=graphs)
        cfg = ExperimentConfig(**{**FAST, "epochs": 1, "folds": 2, "hidden_dim": 4})
        return cfg, ds

    def test_encoder_grid_is_complete_and_consistent(self, tiny):
        cfg, ds = tiny
        kinds = ("gcn", "gin")
        grid = encoder_pair_grid(cfg, dataset=ds, kinds=kinds)
        assert set(grid) == {(e, h) for e in kinds for h in kinds}
        alone = run_experiment(
            cfg.replace(euclidean_encoder="gcn", hyperbolic_encoder="gcn"),
            dataset=ds,
        )
        assert grid[("gcn", "gcn")].fold_accuracies == alone.fold_accuracies

    def test_dim_sweep_keys_and_consistency(self, tiny):
        cfg, ds = tiny
        sweep = hidden_dim_sweep(cfg, dims=(4, 8), dataset=ds)
        assert sorted(sweep) == [4, 8]
        alone = run_experiment(cfg.replace(hidden_dim=8), dataset=ds)
        assert sweep[8].fold_accuracies == alone.fold_accuracies


class TestRunArtifacts:
    def test_manifest_written_before_results_and_reusable(self, tmp_path):
        cfg = ExperimentConfig(**FAST)
        out = tmp_path / "run"
        path = write_manifest(cfg, str(out), {"command": "train"})
        assert os.path.exists(path)
        assert not os.path.exists(out / "folds.csv")
        with open(path) as f:
            body = json.load(f)
        assert body["config"]["omega"] == cfg.omega
        assert ExperimentConfig.from_dict(body["config"]) == cfg

    def test_results_layout(self, tmp_path):
        rec = MetricsRecord.from_folds(
            [0.5, 1.0], [np.zeros((2, 3)), np.ones((2, 3))]
        )
        write_results(rec, str(tmp_path))
        lines = (tmp_path / "folds.csv").read_text().strip().split("\n")
        assert lines[0] == "fold,accuracy"
        assert lines[1].startswith("0,") and lines[2].startswith("1,")
        with open(tmp_path / "summary.json") as f:
            summary = json.load(f)
        assert summary["mean"] == 0.75
        assert summary["fold_accuracies"] == [0.5, 1.0]
        trace0 = (tmp_path / "loss_trace_fold0.csv").read_text().split("\n")
        assert trace0[0] == "epoch,total,supervised,contrastive"
        assert len([ln for ln in trace0 if ln]) == 3
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())

    def test_dim_sweep_csv_row_count(self, tmp_path):
        sweep = {
            8: MetricsRecord.from_folds([0.1, 0.2]),
            16: MetricsRecord.from_folds([0.3, 0.4]),
        }
        path = write_dim_sweep_csv(sweep, str(tmp_path))
        lines = [ln for ln in open(path).read().split("\n") if ln]
        assert lines[0] == "config,fold,accuracy"
        assert len(lines) == 1 + 4
        assert lines[1] == "d8,0,0.1"
