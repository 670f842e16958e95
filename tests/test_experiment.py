"""Config validation, fold splitting, seeded determinism, small full runs."""

import ctypes
import dataclasses
import io
import json
import os
import pickle
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import per_graph_reference as ref
from conftest import assert_same_batch, synthetic_dataset
from dsgc import experiment
from dsgc.data import Graph, canonical_edges, synthesize_features
from dsgc.encoders import EUCLIDEAN, GraphBatch, GraphEmbedding, predict
from dsgc.errors import ConfigError, ContractError, DomainError, TrainingDivergedError
from dsgc.experiment import (
    DEFAULT_SWEEP_DIMS,
    _EpochViews,
    ExperimentConfig,
    MetricsRecord,
    _build_model,
    _train_fold,
    derive_seed,
    evaluate_accuracy,
    fold_pool,
    keep_freed_heap,
    mallopt_function,
    openblas_function,
    run_experiment,
    split_folds,
    sweep_configs,
    write_manifest,
    write_results,
    write_sweep_csv,
)
from dsgc.losses import StepMetrics
from dsgc.samplers import SamplerConfig, community_expansion_sample, diffusion_sample

FAST = dict(
    dataset="RINGS", epochs=2, hidden_dim=4, num_layers=2, batch_size=3,
    label_ratio=0.3, folds=4, learning_rate=1e-3, degree_cap=8,
)
ROOT = Path(__file__).resolve().parents[1]


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
             "dataset": "RINGS", "hidden_dim": 32.0, "mobius_layers": 0.0}
        )
        assert cfg.epochs == 50
        assert cfg.learning_rate == 1e-3
        assert cfg.independent_draws is True
        assert cfg.hidden_dim == 32 and isinstance(cfg.hidden_dim, int)
        assert cfg.mobius_layers is False

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
         ("euclidean_encoder", "mlp"), ("epochs", 2.7), ("epochs", "2.7"),
         ("hidden_dim", 16.9), ("epochs", float("inf")), ("epochs", True),
         ("independent_draws", 2), ("mobius_layers", -1), ("mobius_layers", 0.5),
         ("learning_rate", "nan"), ("weight_decay", "nan"), ("omega", float("nan")),
         ("lambda_u", "inf"), ("temperature", float("inf")), ("curvature", "inf"),
         ("learning_rate", "inf"), ("omega", "inf"), ("omega", True), ("alpha_h", False),
         ("dataset", None), ("euclidean_encoder", 3), ("seed", -1), ("seed", 2**32),
         ("omega", 10**400)],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict({field: value})

    @pytest.mark.parametrize("field", ["num_layers", "hidden_dim", "epochs", "batch_size",
                                       "folds", "seed", "degree_cap"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.5, 3.0, "3", None])
    def test_int_fields_are_type_checked_when_built_directly(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value,kind",
        [("mobius_layers", "false", "a bool"), ("independent_draws", 1, "a bool"),
         ("mobius_layers", None, "a bool"), ("omega", "0.1", "a real number"),
         ("omega", True, "a real number"), ("learning_rate", np.bool_(True), "a real number"),
         ("temperature", None, "a real number"), ("curvature", 1j, "a real number"),
         ("dataset", 5, "a string"), ("euclidean_encoder", 3, "a string"),
         ("hyperbolic_encoder", None, "a string"), ("curvature", 10**400, "finite")],
    )
    def test_fields_take_their_annotated_type_when_built_directly(self, field, value, kind):
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}, got"):
            ExperimentConfig(**{field: value})

    def test_numpy_integers_become_ints(self):
        cfg = ExperimentConfig(epochs=np.int64(3), seed=np.uint32(7))
        assert (cfg.epochs, cfg.seed) == (3, 7)
        assert type(cfg.epochs) is int and type(cfg.seed) is int

    def test_numbers_in_float_fields_become_floats(self):
        cfg = ExperimentConfig(omega=np.float32(0.25), temperature=2, curvature=np.int64(3),
                               mobius_layers=np.bool_(True))
        assert (cfg.omega, cfg.temperature, cfg.curvature) == (0.25, 2.0, 3.0)
        assert all(type(v) is float for v in (cfg.omega, cfg.temperature, cfg.curvature))
        assert cfg.mobius_layers is True
        # so that the config is written as JSON and reruns equal
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

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

    def test_test_set_of_every_graph_is_rejected(self):
        # round(0.99 * 12) = 12: the fold's test set leaves no graph to label
        ds = self.featurized(12)
        cfg = ExperimentConfig(**{**FAST, "independent_draws": True, "test_fraction": 0.99})
        with pytest.raises(ContractError, match="fold 0: its test set of 12 graphs"):
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

    def test_graphs_without_features_are_refused_before_any_fold(self, monkeypatch):
        monkeypatch.setattr(experiment, "_train_fold", _no_fold)
        ds = synthetic_dataset()   # parsed graphs, not featurized
        with pytest.raises(ContractError, match="graph 0 has no features; synthesize them first"):
            run_experiment(ExperimentConfig(**FAST), dataset=ds)

    def test_graphs_of_two_feature_widths_are_refused_before_any_fold(self, monkeypatch):
        monkeypatch.setattr(experiment, "_train_fold", _no_fold)
        ds = synthetic_dataset()
        graphs = [synthesize_features(g, cap=4 if i == 5 else 8) for i, g in enumerate(ds.graphs)]
        with pytest.raises(ContractError, match="graph 5 has 5 feature columns where graph 0 "
                                                "has 9; synthesize them first"):
            run_experiment(ExperimentConfig(**FAST), dataset=dataclasses.replace(ds, graphs=graphs))

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

    @pytest.mark.parametrize("readout, message", [
        ("encode_euclidean", "expmap0: row 2 of the Euclidean readout has a non-finite norm nan"),
        ("tangent_readout", "expmap0: row 2 of the hyperbolic readout has a non-finite norm nan"),
    ])
    def test_head_domain_error_names_fold_epoch_and_batch_row(self, monkeypatch, readout, message):
        # row 2 of a step's readouts turns NaN from the second epoch on; the
        # contrastive head rejects it, naming the readout and the batch row
        from dsgc import losses
        ds, cfg, fold = featured_rings(), ExperimentConfig(**FAST), 1
        split = split_folds(ds, cfg)[fold]
        real, steps = getattr(losses, readout), []

        def corrupt(*args):
            out = real(*args)
            steps.append(1)
            if len(steps) > len(split.labeled):
                getattr(out, "tensor", out).values[2] = np.nan
            return out

        monkeypatch.setattr(losses, readout, corrupt)
        with pytest.raises(TrainingDivergedError) as err:
            _train_fold(cfg, ds.graphs, ds.num_classes, split, fold)
        assert (err.value.fold, err.value.epoch) == (1, 1)
        assert isinstance(err.value.__cause__, DomainError)
        assert err.value.detail.startswith(message)

    def test_non_finite_loss_in_step_becomes_divergence(self, monkeypatch):
        from dsgc import experiment

        def nan_step(*args):
            return StepMetrics(float("nan"), 0.0, 0.0, np.zeros(2))

        monkeypatch.setattr(experiment, "train_step", nan_step)
        with pytest.raises(TrainingDivergedError, match="non-finite loss") as err:
            run_experiment(ExperimentConfig(**FAST), dataset=featured_rings())
        assert (err.value.fold, err.value.epoch) == (0, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_parallel_divergence_keeps_the_domain_error_text(self):
        # a worker's __cause__ comes back as a remote traceback; the op and
        # row must survive in the error's own message
        ds = synthetic_dataset()
        ds = dataclasses.replace(ds, graphs=[synthesize_features(g, cap=8) for g in ds.graphs])
        cfg = ExperimentConfig(**{**FAST, "learning_rate": 1e200, "folds": 2})
        with pytest.raises(TrainingDivergedError, match="expmap0: row") as err, \
                fold_pool(2) as pool:
            run_experiment(cfg, dataset=ds, pool=pool)
        assert err.value.detail.startswith("expmap0: row")

    def test_divergence_message_names_its_cause(self):
        plain = TrainingDivergedError(2, 5)
        domain = TrainingDivergedError(0, 1, "project: row 0 has a non-finite norm nan")
        for err in (plain, pickle.loads(pickle.dumps(plain))):
            assert str(err) == "training diverged at fold 2, epoch 5: non-finite loss"
            assert (err.fold, err.epoch, err.detail) == (2, 5, "non-finite loss")
        for err in (domain, pickle.loads(pickle.dumps(domain))):
            assert str(err) == ("training diverged at fold 0, epoch 1: "
                                "project: row 0 has a non-finite norm nan")
            assert "non-finite loss" not in str(err)
            assert (err.fold, err.epoch) == (0, 1)

    def test_parallel_folds_match_serial(self):
        ds = synthetic_dataset()
        graphs = [synthesize_features(g, cap=8) for g in ds.graphs]
        ds = dataclasses.replace(ds, graphs=graphs)
        cfg = ExperimentConfig(**{**FAST, "epochs": 1, "folds": 2})
        serial = run_experiment(cfg, dataset=ds)
        with fold_pool(2) as pool:
            parallel = run_experiment(cfg, dataset=ds, pool=pool)
        assert serial.fold_accuracies == parallel.fold_accuracies
        for x, y in zip(serial.traces, parallel.traces):
            assert np.array_equal(x, y)

    def test_fold_workers_run_one_blas_thread(self):
        if openblas_function("get_num_threads") is None:
            pytest.skip("no OpenBLAS get_num_threads symbol resolves")
        with fold_pool(2) as pool:
            counts = [pool.submit(_blas_threads).result(timeout=60) for _ in range(4)]
        assert counts == [1, 1, 1, 1]


def _no_fold(*args):
    raise AssertionError("a fold started training")


def _raise_os_error(*args, **kwargs):
    raise OSError("not available")


class TestNativeLookups:
    def test_openblas_lookup_is_none_without_the_process_maps(self, monkeypatch):
        monkeypatch.setattr(experiment, "open", _raise_os_error, raising=False)
        assert openblas_function("get_num_threads") is None

    def test_openblas_lookup_skips_libraries_that_do_not_load(self, monkeypatch):
        maps = "7f00-7f01 r-xp 00000000 00:00 0 /lib/libopenblas.so\n"
        monkeypatch.setattr(experiment, "open", lambda path: io.StringIO(maps), raising=False)
        monkeypatch.setattr(experiment.ctypes, "CDLL", _raise_os_error)
        assert openblas_function("get_num_threads") is None

    def test_mallopt_lookup_is_none_when_the_c_library_does_not_load(self, monkeypatch):
        monkeypatch.setattr(experiment.ctypes, "CDLL", _raise_os_error)
        assert mallopt_function() is None


needs_mallopt = pytest.mark.skipif(mallopt_function() is None,
                                   reason="no mallopt resolves in this process")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def heap_probe(rounds=5):
    """Minor faults of each round of allocating eight 1 MiB arrays and
    freeing them. Where glibc trims the freed top of the heap, every round
    faults the 2048 pages in again."""
    faults = []
    for _ in range(rounds):
        before = minor_faults()
        arrays = [np.ones(1 << 17) for _ in range(8)]
        del arrays
        faults.append(minor_faults() - before)
    return faults


def train_then_probe():
    """Train fold 0 of a tiny run in this process, then run the heap probe."""
    ds = featured_rings()
    cfg = ExperimentConfig(**{**FAST, "epochs": 1})
    _train_fold(cfg, ds.graphs, ds.num_classes, split_folds(ds, cfg)[0], 0)
    return heap_probe()


def steady_step_faults():
    """Minor faults of each training step in the second epoch of fold 0
    over ten cycle-plus-chord graphs of 100-140 nodes, the first step of
    the epoch (which samples its views) left out."""
    graphs = sparse_graphs((100, 140, 110, 130, 120, 105, 135, 115, 125, 128))
    ds = dataclasses.replace(synthetic_dataset(), graphs=graphs)
    cfg = ExperimentConfig(dataset="SPARSE", epochs=2, folds=5, label_ratio=0.8)
    faults, real = [], experiment.train_step

    def counted(*args):
        before = minor_faults()
        out = real(*args)
        faults.append(minor_faults() - before)
        return out

    experiment.train_step = counted
    try:
        split = split_folds(ds, cfg)[0]
        _train_fold(cfg, graphs, 2, split, 0)
    finally:
        experiment.train_step = real
    return faults[len(split.labeled) + 1:]


def in_fresh_interpreter(name):
    """The JSON result of this module's function `name`, called in a new
    Python process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    code = f"import json, test_experiment as t; print(json.dumps(t.{name}()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@needs_mallopt
class TestFreedHeap:
    """Training pins glibc's trim and mmap thresholds, so memory a step
    frees stays in the heap for the next step instead of being faulted in
    again. The fault counts come from processes whose heap no other test
    touched."""

    def test_serial_training_keeps_freed_memory(self):
        faults = in_fresh_interpreter("train_then_probe")
        assert faults[-3:] == [0, 0, 0], faults

    def test_fold_workers_keep_freed_memory(self):
        with fold_pool(2) as pool:
            faults = pool.submit(train_then_probe).result(timeout=120)
        assert faults[-3:] == [0, 0, 0], faults

    def test_steady_training_steps_fault_in_no_memory(self):
        # Re-faulting a step's freed working memory (its operator stacks are
        # about 1.2 MB) costs hundreds of faults in every step. What is left
        # is at most one fault in a typical step, from memory glibc's
        # malloc does not manage (CPython maps its frame-stack chunks
        # itself), and now and then a step whose batch needs more heap than
        # any before it, which faults in fresh pages once.
        faults = in_fresh_interpreter("steady_step_faults")
        assert len(faults) == 7
        assert np.median(faults) <= 1, faults

    def test_setting_is_a_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(experiment, "mallopt_function", lambda: None)
        assert keep_freed_heap.__wrapped__() is False

    def test_both_thresholds_are_accepted_once(self):
        assert keep_freed_heap() is True
        assert keep_freed_heap() is True
        assert keep_freed_heap.cache_info().currsize == 1


def featured_rings():
    ds = synthetic_dataset()
    return dataclasses.replace(ds, graphs=[synthesize_features(g, cap=8) for g in ds.graphs])


class TestEpochViews:
    CFG = ExperimentConfig(**FAST)
    SPACES = [("euclidean_view", 0, "alpha_e", diffusion_sample),
              ("hyperbolic_view", 1, "alpha_h", community_expansion_sample)]

    def seeded(self, ds, gid, fold, epoch, space, cfg=CFG):
        _, _, rate, sampler = self.SPACES[space]
        seed = derive_seed("view", cfg.seed, fold, epoch, gid, space)
        return sampler(ds.graphs[gid], SamplerConfig(getattr(cfg, rate), seed))

    @staticmethod
    def count_calls(monkeypatch):
        """Batch sizes of every sampler call the provider makes, by sampler."""
        calls = {"diffusion_sample": [], "community_expansion_sample": []}
        for name, sizes in calls.items():
            def counted(graphs, cfgs, real=getattr(experiment, name), sizes=sizes):
                sizes.append(len(graphs))
                return real(graphs, cfgs)
            monkeypatch.setattr(experiment, name, counted)
        return calls

    @staticmethod
    def served_batches(monkeypatch, ds):
        """(graph ids, (Euclidean, hyperbolic) batches) of every step the
        provider serves."""
        gid_of = {id(g): i for i, g in enumerate(ds.graphs)}
        served = []

        def serve(views, graphs, hyperbolic=True, real=_EpochViews.batches):
            got = real(views, graphs, hyperbolic)
            served.append(([gid_of[id(g)] for g in graphs], got))
            return got

        monkeypatch.setattr(_EpochViews, "batches", serve)
        return served

    def test_served_views_are_the_seeded_samples(self, monkeypatch):
        # a step reads its two batches: each must be the batch of the seeded views
        ds, cfg, fold = featured_rings(), self.CFG.replace(epochs=1), 1
        served = self.served_batches(monkeypatch, ds)
        _train_fold(cfg, ds.graphs, ds.num_classes, split_folds(ds, cfg)[fold], fold)
        assert served and all(h is not None for _, (_, h) in served)
        for gids, batches in served:
            for space, batch in enumerate(batches):
                assert_same_batch(batch, GraphBatch(
                    [self.seeded(ds, gid, fold, 0, space, cfg) for gid in gids]))

    def test_every_served_view_carries_its_degree_classes(self, monkeypatch):
        # the first layer reads them; without them it takes the dense path
        ds, cfg = featured_rings(), self.CFG.replace(epochs=1)
        served = self.served_batches(monkeypatch, ds)
        _train_fold(cfg, ds.graphs, ds.num_classes, split_folds(ds, cfg)[0], 0)
        assert served
        for gids, batches in served:
            for batch in batches:
                parts = [ds.graphs[gid].cache["classes"][view.orig_ids]
                         for gid, view in zip(gids, batch.graphs)]
                for part, view in zip(parts, batch.graphs):
                    assert np.array_equal(view.cache["classes"], part)
                assert np.array_equal(batch.classes, np.concatenate(parts))
                assert np.array_equal(batch.classes, np.argmax(batch.features, axis=1))

    def test_set_epoch_and_plan_sample_nothing(self, monkeypatch):
        ds, calls = featured_rings(), self.count_calls(monkeypatch)
        views = _EpochViews(self.CFG, ds.graphs, 0)
        views.set_epoch(3)
        views.plan(range(len(ds.graphs)))
        assert calls == {"diffusion_sample": [], "community_expansion_sample": []}
        views.euclidean_view(ds.graphs[2])
        views.euclidean_view(ds.graphs[5])
        assert calls == {"diffusion_sample": [len(ds.graphs)], "community_expansion_sample": []}

    @pytest.mark.parametrize("omega", [0.01, 0.0])
    def test_a_fold_epoch_makes_one_call_per_space(self, monkeypatch, omega):
        ds, calls = featured_rings(), self.count_calls(monkeypatch)
        cfg = self.CFG.replace(omega=omega)
        split = split_folds(ds, cfg)[0]
        _train_fold(cfg, ds.graphs, ds.num_classes, split, 0)
        assert len(calls["diffusion_sample"]) == cfg.epochs
        # with omega == 0 a step views only its labeled anchor, in one space
        if omega:
            assert len(calls["community_expansion_sample"]) == cfg.epochs
        else:
            assert calls["community_expansion_sample"] == []
            assert calls["diffusion_sample"] == [len(split.labeled)] * cfg.epochs

    def test_a_view_outside_the_plan_is_a_contract_error(self, monkeypatch):
        ds, calls = featured_rings(), self.count_calls(monkeypatch)
        views = _EpochViews(self.CFG, ds.graphs, 2)
        views.set_epoch(1)
        views.plan([0, 1, 2])
        with pytest.raises(ContractError, match="graph 7 .* fold 2, epoch 1"):
            views.euclidean_view(ds.graphs[7])
        assert calls == {"diffusion_sample": [], "community_expansion_sample": []}
        served = views.hyperbolic_view(ds.graphs[1])
        assert served == self.seeded(ds, 1, 2, 1, 1)
        with pytest.raises(ContractError, match="graph 7 .* fold 2, epoch 1"):
            views.hyperbolic_view(ds.graphs[7])
        assert calls["community_expansion_sample"] == [3]

    @pytest.mark.parametrize("omega", [0.0, 0.01])
    def test_one_graph_object_at_two_positions_is_refused(self, omega):
        ds = featured_rings()
        ds.graphs[22] = ds.graphs[0]
        with pytest.raises(ContractError, match="graphs 0 and 22 are one Graph object"):
            run_experiment(self.CFG.replace(omega=omega), ds)


class TestEpochSchedule:
    CFG = ExperimentConfig(**{**FAST, "epochs": 3})

    def record(self, monkeypatch, cfg, fold=1):
        """Each epoch's (anchor, negatives) batches and plan of one fold."""
        ds = featured_rings()
        gid_of = {id(g): i for i, g in enumerate(ds.graphs)}
        batches, plans = [], []
        step = experiment.train_step

        def recording_step(batch, *args):
            batches[-1].append((gid_of[id(batch.labeled)], [gid_of[id(g)] for g in batch.unlabeled]))
            return step(batch, *args)

        def recording_plan(views, rows, real=_EpochViews.plan):
            batches.append([])
            plans.append(np.asarray(rows).tolist())
            return real(views, rows)

        monkeypatch.setattr(experiment, "train_step", recording_step)
        monkeypatch.setattr(_EpochViews, "plan", recording_plan)
        split = split_folds(ds, cfg)[fold]
        _train_fold(cfg, ds.graphs, ds.num_classes, split, fold)
        return split, batches, plans

    @pytest.mark.parametrize("omega", [0.01, 0.0])
    def test_anchors_shuffle_and_negatives_run_round_robin(self, monkeypatch, omega):
        cfg, fold = self.CFG.replace(omega=omega), 1
        split, batches, plans = self.record(monkeypatch, cfg, fold)
        pool = np.random.default_rng(derive_seed("pool", cfg.seed, fold)).permutation(
            split.unlabeled).tolist()
        assert len(batches) == cfg.epochs
        pos = 0
        for epoch, (steps, plan) in enumerate(zip(batches, plans)):
            order = split.labeled.copy()
            np.random.default_rng(derive_seed("sched", cfg.seed, fold, epoch)).shuffle(order)
            assert [anchor for anchor, _ in steps] == order.tolist()
            for _, negatives in steps:
                assert negatives == [pool[(pos + j) % len(pool)]
                                     for j in range(cfg.batch_size - 1)]
                pos += cfg.batch_size - 1
            assert plan == [[anchor] + (negs if omega else []) for anchor, negs in steps]
        assert pos > len(pool)  # the round robin wrapped within the fold


def _blas_threads():
    fn = openblas_function("get_num_threads")
    fn.argtypes, fn.restype = [], ctypes.c_int
    return fn()


def reference_logits(model, g):
    return model.predictor.logits(ref.encode_euclidean(g, model.encoder_e)).values[0]


def reference_accuracy(model, graphs, ids):
    """The per-graph loop: each graph encoded alone on the reference path."""
    hits = 0
    for i in ids:
        h = GraphEmbedding(ref.encode_euclidean(graphs[i], model.encoder_e), EUCLIDEAN)
        hits += int(np.argmax(predict(h, model.predictor).values[0])) == graphs[i].label
    return hits / len(ids)


def split_model(kind, hidden, graphs):
    """A model with random parameters whose class-0 logit is moved so the
    margins over `graphs` split between two distinct values: both classes
    get predicted, and no graph sits on a tie."""
    cfg = ExperimentConfig(**{**FAST, "euclidean_encoder": kind, "hidden_dim": hidden})
    model = _build_model(cfg, graphs[0].features.shape[1], 2, 0)
    rng = np.random.default_rng(3)
    for t in model.encoder_e.params + model.predictor.params:
        t.values[...] = rng.uniform(-1.0, 1.0, t.values.shape)
    margins = np.array([np.subtract(*reference_logits(model, g)) for g in graphs])
    distinct = np.unique(np.round(margins, 6))
    assert len(distinct) > 1
    mid = len(distinct) // 2
    model.predictor.layer_params[0]["b2"].values[0, 0] -= (distinct[mid - 1] + distinct[mid]) / 2
    return model


def sparse_graphs(sizes, seed=0):
    """Connected graphs of the given sizes, each a cycle plus n // 4 random
    chords, labels alternating, with 65 degree features (cap 64)."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, n in enumerate(sizes):
        pairs = [(j, (j + 1) % n) for j in range(n)]
        pairs += [tuple(rng.choice(n, size=2, replace=False)) for _ in range(n // 4)]
        g = Graph(n=n, edges=canonical_edges(pairs, n), label=i % 2)
        graphs.append(synthesize_features(g, cap=64))
    return graphs


class TestBatchedEvaluation:
    @pytest.fixture
    def rings(self):
        return featured_rings()

    def test_empty_id_list_is_a_contract_error(self, rings):
        model = _build_model(ExperimentConfig(**FAST), rings.graphs[0].features.shape[1], 2, 0)
        with pytest.raises(ContractError, match="empty id list"):
            evaluate_accuracy(model, rings.graphs, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("rows", [None, 16])
    @pytest.mark.parametrize("kind", ["gat", "gcn", "gin", "graphsage"])
    def test_matches_the_per_graph_loop(self, rings, kind, rows, monkeypatch):
        model = split_model(kind, FAST["hidden_dim"], rings.graphs)
        if rows is not None:  # a budget of 16 rows makes chunks of 2 RINGS graphs
            widest = max(t.values.size for t in model.encoder_e.layer_params[0].values())
            monkeypatch.setattr(experiment, "_EVAL_MACS", rows * widest)
        cfg = ExperimentConfig(**{**FAST, "euclidean_encoder": kind})
        every = np.arange(len(rings.graphs))
        id_sets = [split.test for split in split_folds(rings, cfg)]
        id_sets += [every[:11], every[5:6], every[::-1]]  # 11 crosses a chunk of 2, one id, reversed
        for ids in id_sets:
            assert evaluate_accuracy(model, rings.graphs, ids) == \
                reference_accuracy(model, rings.graphs, ids)

    # rows of the largest first-layer weight for 65 input features: gat's W,
    # gcn's W, gin's W1, graphsage's W over concat(H, mean of neighbours)
    FIRST_ROWS = {"gat": 65, "gcn": 65, "gin": 65, "graphsage": 130}

    @pytest.mark.parametrize("hidden", [16, 64])
    @pytest.mark.parametrize("kind", ["gat", "gcn", "gin", "graphsage"])
    def test_chunks_stay_within_the_budget(self, kind, hidden, monkeypatch):
        graphs = sparse_graphs((100, 140, 110, 130, 120, 105, 135, 115, 125, 170))
        widest = self.FIRST_ROWS[kind] * hidden
        budget = experiment._EVAL_MACS
        # at hidden 64 the 170-node graph alone is over the budget
        assert (170 * widest > budget) == (hidden == 64)
        model = split_model(kind, hidden, graphs)
        chunks = []

        def recording(chosen, rows, width, plan=experiment.BatchPlan):
            chunks.extend([chosen[i] for i in row] for row in rows)
            return plan(chosen, rows, width)

        monkeypatch.setattr(experiment, "BatchPlan", recording)
        every = np.arange(len(graphs))
        for ids in (every, every[:-1], every[::-1]):  # with and without the 170-node graph
            chunks.clear()
            accuracy = evaluate_accuracy(model, graphs, ids)
            assert [id(g) for chunk in chunks for g in chunk] == [id(graphs[i]) for i in ids]
            size = max(1, budget // (widest * max(graphs[i].n for i in ids)))
            assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
            for chunk in chunks:
                if len(chunk) > 1:
                    assert sum(g.n for g in chunk) * widest <= budget
                if any(g.n * widest > budget for g in chunk):
                    assert len(chunk) == 1
            assert accuracy == reference_accuracy(model, graphs, ids)


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
        grid = sweep_configs(cfg, "encoders")
        kinds = ("gat", "gcn", "gin", "graphsage")
        assert list(grid) == [f"{e}-{h}" for e in kinds for h in kinds]
        assert list(grid) == sorted(grid)
        for label, sub in grid.items():
            assert label == f"{sub.euclidean_encoder}-{sub.hyperbolic_encoder}"
            assert sub.replace(euclidean_encoder="gcn", hyperbolic_encoder="gin") == cfg
        alone = run_experiment(
            cfg.replace(euclidean_encoder="gcn", hyperbolic_encoder="gcn"),
            dataset=ds,
        )
        swept = run_experiment(grid["gcn-gcn"], dataset=ds)
        assert swept.fold_accuracies == alone.fold_accuracies

    def test_dim_sweep_keys_and_consistency(self, tiny):
        cfg, ds = tiny
        sweep = sweep_configs(cfg, "dim")
        assert list(sweep) == ["d8", "d16", "d32", "d64"]
        assert [sub.hidden_dim for sub in sweep.values()] == list(DEFAULT_SWEEP_DIMS)
        assert all(sub.replace(hidden_dim=cfg.hidden_dim) == cfg for sub in sweep.values())
        alone = run_experiment(cfg.replace(hidden_dim=8), dataset=ds)
        assert run_experiment(sweep["d8"], dataset=ds).fold_accuracies == alone.fold_accuracies

    def test_unknown_kind_is_named(self, tiny):
        with pytest.raises(ContractError, match="layers"):
            sweep_configs(tiny[0], "layers")


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
            "d8": MetricsRecord.from_folds([0.1, 0.2]),
            "d16": MetricsRecord.from_folds([0.3, 1 / 3]),
        }
        path = write_sweep_csv(sweep, str(tmp_path), "dim")
        assert path == str(tmp_path / "sweep_dim.csv")
        assert Path(path).read_text() == (
            "config,fold,accuracy\n"
            "d8,0,0.1\nd8,1,0.2\nd16,0,0.3\nd16,1,0.3333333333333333\n"
        )
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())
