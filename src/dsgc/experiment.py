"""Transductive evaluation protocol: fold splits, training runs, sweeps.

A run partitions a seeded shuffle of the dataset into `folds` test slices.
Per fold, a seeded subset of the non-test graphs (size round(ratio * |ds|),
capped at the pool) is labeled; every other graph — test graphs included —
participates unlabeled in the contrastive terms. One epoch gives each
labeled graph one batch as anchor, with batch_size - 1 unlabeled graphs
drawn round-robin from a seeded ordering of the unlabeled pool. Views are
resampled once per epoch per graph (cached within the epoch), with seeds
derived from (base seed, fold, epoch, graph index, space), so reruns are
bit-identical. Test accuracy is the argmax rule over the predictor's
sigmoid vector, evaluated on the full graph rather than a sampled view.

Folds are independent; `parallel` > 1 trains them in separate processes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam
from .data import prepare_dataset
from .encoders import (
    EncoderKind,
    GraphEncoder,
    Predictor,
    encode_euclidean,
    predict,
)
from .errors import ConfigError, ContractError, DomainError, TrainingDivergedError
from .losses import Batch, DsgcModel, LossConfig, train_step
from .poincare import PoincareBall
from .samplers import SamplerConfig, community_expansion_sample, diffusion_sample

DEFAULT_SWEEP_DIMS = (8, 16, 32, 64)


@dataclass(frozen=True)
class ExperimentConfig:
    """One training run's full recipe; defaults follow the reference setup."""

    dataset: str = "MUTAG"
    euclidean_encoder: str = "gcn"
    hyperbolic_encoder: str = "gin"
    num_layers: int = 3
    hidden_dim: int = 16
    temperature: float = 1.0
    learning_rate: float = 5e-5
    weight_decay: float = 1e-5
    epochs: int = 200
    omega: float = 0.01
    lambda_u: float = 1.0
    batch_size: int = 8
    label_ratio: float = 0.5
    folds: int = 10
    test_fraction: float = 0.1
    seed: int = 0
    alpha_e: float = 0.8
    alpha_h: float = 0.8
    curvature: float = 1.0
    degree_cap: int = 64
    independent_draws: bool = False
    mobius_layers: bool = False

    def __post_init__(self):
        if not (0.0 < self.label_ratio < 1.0):
            raise ConfigError(f"label_ratio must lie in (0, 1), got {self.label_ratio}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(
                f"test_fraction must lie in (0, 1), got {self.test_fraction}"
            )
        for name in ("alpha_e", "alpha_h"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1], got {v}")
        for name in ("num_layers", "hidden_dim", "epochs", "degree_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be at least 2 (one labeled anchor plus "
                f"negatives), got {self.batch_size}"
            )
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.curvature <= 0:
            raise ConfigError(f"curvature must be positive, got {self.curvature}")
        for name in ("weight_decay", "omega", "lambda_u"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("euclidean_encoder", "hyperbolic_encoder"):
            try:
                EncoderKind.parse(getattr(self, name))
            except ContractError as exc:
                raise ConfigError(f"{name}: {exc}") from None

    @classmethod
    def from_dict(cls, raw):
        known = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for key, value in raw.items():
            f = known.get(key)
            if f is None:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                if f.type in ("int", int):
                    value = int(value)
                elif f.type in ("float", float):
                    value = float(value)
                elif f.type in ("bool", bool):
                    if isinstance(value, str):
                        low = value.strip().lower()
                        if low not in ("true", "false", "1", "0"):
                            raise ValueError(value)
                        value = low in ("true", "1")
                    else:
                        value = bool(value)
                else:
                    value = str(value)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r}: cannot interpret {value!r}") from None
            values[key] = value
        return cls(**values)

    def to_dict(self):
        return dataclasses.asdict(self)

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


def derive_seed(*parts):
    """Fold strings and integers into one 32-bit stream seed, order-sensitive."""
    entropy = [
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p) % (2 ** 32)
        for p in parts
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass(frozen=True)
class FoldSplit:
    labeled: np.ndarray
    unlabeled: np.ndarray
    test: np.ndarray


def split_folds(ds, cfg):
    """Per-fold (labeled, unlabeled, test) graph indices.

    Test sets are the `folds` slices of one seeded shuffle (a partition);
    with `independent_draws` each fold instead draws its own test set of
    round(test_fraction * n) graphs. The unlabeled pool is everything not
    labeled, test graphs included.
    """
    n = len(ds.graphs)
    if n < cfg.folds:
        raise ContractError(f"dataset has {n} graphs, fewer than {cfg.folds} folds")
    n_labeled = int(round(cfg.label_ratio * n))
    if n_labeled == 0:
        raise ContractError(
            f"label_ratio {cfg.label_ratio} selects zero labeled graphs out of {n}"
        )
    everyone = np.arange(n)
    if cfg.independent_draws:
        size = max(1, int(round(cfg.test_fraction * n)))
        tests = [
            np.sort(
                np.random.default_rng(derive_seed("test", cfg.seed, k)).choice(
                    n, size=size, replace=False
                )
            )
            for k in range(cfg.folds)
        ]
    else:
        shuffle = np.random.default_rng(derive_seed("test", cfg.seed)).permutation(n)
        tests = [np.sort(chunk) for chunk in np.array_split(shuffle, cfg.folds)]
    splits = []
    for k, test in enumerate(tests):
        pool = np.setdiff1d(everyone, test)
        take = min(n_labeled, len(pool))
        lab_rng = np.random.default_rng(derive_seed("labeled", cfg.seed, k))
        labeled = np.sort(lab_rng.choice(pool, size=take, replace=False))
        unlabeled = np.setdiff1d(everyone, labeled)
        splits.append(FoldSplit(labeled=labeled, unlabeled=unlabeled, test=test))
    return splits


@dataclass
class MetricsRecord:
    """Per-fold accuracies with their aggregates and loss traces."""

    fold_accuracies: list
    mean: float
    std: float
    traces: list = field(default_factory=list)  # per fold: (epochs, 3) arrays

    @classmethod
    def from_folds(cls, accuracies, traces=None):
        acc = [float(a) for a in accuracies]
        return cls(
            fold_accuracies=acc,
            mean=float(np.mean(acc)),
            std=float(np.std(acc)),
            traces=list(traces) if traces is not None else [],
        )


class _EpochViews:
    """Two views per graph per epoch, cached; seeds derived per
    (base seed, fold, epoch, graph, space) so every rerun resamples
    identically."""

    def __init__(self, cfg, gid_of, fold):
        self._cfg = cfg
        self._gid_of = gid_of
        self._fold = fold
        self._epoch = 0
        self._cache = {}

    def set_epoch(self, epoch):
        self._epoch = epoch
        self._cache.clear()

    def _view(self, g, space, rate, sampler):
        key = (id(g), space)
        view = self._cache.get(key)
        if view is None:
            seed = derive_seed(
                "view", self._cfg.seed, self._fold, self._epoch,
                self._gid_of[id(g)], space,
            )
            view = sampler(g, SamplerConfig(rate=rate, seed=seed))
            self._cache[key] = view
        return view

    def euclidean_view(self, g):
        return self._view(g, 0, self._cfg.alpha_e, diffusion_sample)

    def hyperbolic_view(self, g):
        return self._view(g, 1, self._cfg.alpha_h, community_expansion_sample)


def _build_model(cfg, in_dim, num_classes, fold):
    enc_e = GraphEncoder(
        cfg.euclidean_encoder, in_dim, cfg.hidden_dim, cfg.num_layers,
        np.random.default_rng(derive_seed("model", cfg.seed, fold, 0)),
    )
    enc_h = GraphEncoder(
        cfg.hyperbolic_encoder, in_dim, cfg.hidden_dim, cfg.num_layers,
        np.random.default_rng(derive_seed("model", cfg.seed, fold, 1)),
        mobius=cfg.mobius_layers,
    )
    pred = Predictor(
        cfg.hidden_dim, num_classes,
        np.random.default_rng(derive_seed("model", cfg.seed, fold, 2)),
    )
    return DsgcModel(enc_e, enc_h, pred, PoincareBall(cfg.curvature))


def evaluate_accuracy(model, graphs, ids):
    """Fraction of the chosen graphs whose argmax prediction matches the label.

    Evaluation encodes the full graph; sampling is a training-time device.
    """
    if len(ids) == 0:
        raise ContractError("cannot evaluate on an empty id list")
    hits = 0
    for i in ids:
        g = graphs[i]
        p = predict(encode_euclidean(g, model.encoder_e), model.predictor)
        hits += int(np.argmax(p.values[0])) == g.label
    return hits / len(ids)


def _train_fold(cfg, graphs, num_classes, split, fold):
    """Train one fold's fresh model; returns (test accuracy, loss trace)."""
    model = _build_model(cfg, graphs[0].features.shape[1], num_classes, fold)
    opt = Adam(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    loss_cfg = LossConfig(
        temperature=cfg.temperature, lambda_u=cfg.lambda_u, omega=cfg.omega
    )
    views = _EpochViews(cfg, {id(g): i for i, g in enumerate(graphs)}, fold)
    pool = np.random.default_rng(derive_seed("pool", cfg.seed, fold)).permutation(
        split.unlabeled
    )
    negatives = cfg.batch_size - 1
    pos = 0
    trace = np.zeros((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        views.set_epoch(epoch)
        order = split.labeled.copy()
        np.random.default_rng(derive_seed("sched", cfg.seed, fold, epoch)).shuffle(order)
        sums = np.zeros(3)
        for anchor in order:
            chosen = [int(pool[(pos + j) % len(pool)]) for j in range(negatives)]
            pos += negatives
            batch = Batch(
                labeled=graphs[anchor],
                unlabeled=[graphs[i] for i in chosen],
            )
            try:
                m = train_step(batch, model, views, loss_cfg, opt)
            except DomainError as exc:  # a value left its op's domain: diverged
                raise TrainingDivergedError(fold, epoch, str(exc)) from exc
            if not np.isfinite(m.total):
                raise TrainingDivergedError(fold, epoch)
            sums += (m.total, m.supervised, m.contrastive)
        trace[epoch] = sums / len(order)
    return evaluate_accuracy(model, graphs, split.test), trace


def _fold_worker(args):
    return _train_fold(*args)


def load_dataset(cfg, data_dir=None):
    """Resolve the dataset directory (argument, then $DSGC_DATA_DIR, then
    the working directory) and load/featurize cfg.dataset from it."""
    root = data_dir or os.environ.get("DSGC_DATA_DIR") or "."
    return prepare_dataset(os.path.join(root, cfg.dataset), degree_cap=cfg.degree_cap)


def run_experiment(cfg, dataset=None, data_dir=None, parallel=1):
    """Full protocol: split, train each fold from scratch, aggregate."""
    ds = dataset if dataset is not None else load_dataset(cfg, data_dir)
    splits = split_folds(ds, cfg)
    jobs = [
        (cfg, ds.graphs, ds.num_classes, split, fold)
        for fold, split in enumerate(splits)
    ]
    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as ex:
            results = list(ex.map(_fold_worker, jobs))
    else:
        results = [_train_fold(*job) for job in jobs]
    return MetricsRecord.from_folds(
        [acc for acc, _ in results], [trace for _, trace in results]
    )


def encoder_pair_grid(cfg, dataset=None, data_dir=None, kinds=None, parallel=1):
    """run_experiment for every (euclidean, hyperbolic) encoder-kind pair."""
    ds = dataset if dataset is not None else load_dataset(cfg, data_dir)
    kinds = [EncoderKind.parse(k).value for k in (kinds or list(EncoderKind))]
    grid = {}
    for e_kind in kinds:
        for h_kind in kinds:
            sub = cfg.replace(euclidean_encoder=e_kind, hyperbolic_encoder=h_kind)
            grid[(e_kind, h_kind)] = run_experiment(sub, dataset=ds, parallel=parallel)
    return grid


def hidden_dim_sweep(cfg, dims=DEFAULT_SWEEP_DIMS, dataset=None, data_dir=None,
                     parallel=1):
    """run_experiment at each hidden dimension, same splits and seeds."""
    ds = dataset if dataset is not None else load_dataset(cfg, data_dir)
    return {
        int(d): run_experiment(cfg.replace(hidden_dim=int(d)), dataset=ds,
                               parallel=parallel)
        for d in dims
    }


# --- run artifacts ---------------------------------------------------------


def _write_atomic(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def write_manifest(cfg, out_dir, extra=None):
    """Record the full config before training starts; the file doubles as a
    rerun input (the CLI accepts it wherever a config is expected)."""
    os.makedirs(out_dir, exist_ok=True)
    body = {"config": cfg.to_dict()}
    if extra:
        body.update(extra)
    path = os.path.join(out_dir, "manifest.json")
    _write_atomic(path, json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def write_results(record, out_dir):
    """folds.csv, summary.json, and one loss-trace CSV per fold."""
    os.makedirs(out_dir, exist_ok=True)
    rows = ["fold,accuracy"]
    rows += [f"{i},{acc!r}" for i, acc in enumerate(record.fold_accuracies)]
    _write_atomic(os.path.join(out_dir, "folds.csv"), "\n".join(rows) + "\n")
    summary = {
        "folds": len(record.fold_accuracies),
        "fold_accuracies": record.fold_accuracies,
        "mean": record.mean,
        "std": record.std,
    }
    _write_atomic(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    for i, trace in enumerate(record.traces):
        lines = ["epoch,total,supervised,contrastive"]
        lines += [
            f"{e},{row[0]!r},{row[1]!r},{row[2]!r}"
            for e, row in enumerate(np.asarray(trace))
        ]
        _write_atomic(
            os.path.join(out_dir, f"loss_trace_fold{i}.csv"), "\n".join(lines) + "\n"
        )


def _write_sweep_csv(path, labeled_records):
    """Long-form sweep table: one row per (config label, fold)."""
    out = ["config,fold,accuracy"]
    for label, record in labeled_records:
        out += [
            f"{label},{i},{acc!r}"
            for i, acc in enumerate(record.fold_accuracies)
        ]
    _write_atomic(path, "\n".join(out) + "\n")


def write_grid_csv(grid, out_dir):
    path = os.path.join(out_dir, "sweep_encoders.csv")
    _write_sweep_csv(
        path, [(f"{e}-{h}", rec) for (e, h), rec in sorted(grid.items())]
    )
    return path


def write_dim_sweep_csv(sweep, out_dir):
    path = os.path.join(out_dir, "sweep_dim.csv")
    _write_sweep_csv(path, [(f"d{d}", sweep[d]) for d in sorted(sweep)])
    return path
