"""Transductive evaluation protocol: fold splits, training runs, sweeps.

A run partitions a seeded shuffle of the dataset into `folds` test slices.
Per fold, a seeded subset of the non-test graphs (size round(ratio * |ds|),
capped at the pool) is labeled; every other graph — test graphs included —
participates unlabeled in the contrastive terms. One epoch gives each
labeled graph one batch as anchor, with batch_size - 1 unlabeled graphs
drawn round-robin from a seeded ordering of the unlabeled pool. Views are
resampled once per epoch per graph: the epoch's batches are drawn before
its first step, and each space's first request samples every graph they
touch in one batched sampler call, then plans every step's GraphBatch of
the space in one `encoders.BatchPlan`, so a step only slices its two
batches out of the plans. Seeds are derived from (base seed,
fold, epoch, graph index, space), so reruns are bit-identical; the view
seeds of a space's pass come from one array pass of the hash that
`derive_seed` runs one seed at a time (`streams.generate_state`, a replay
of `SeedSequence`), and each view's words from numpy's own PCG64. Test
accuracy is the argmax rule over the predictor's sigmoid vector, evaluated
on the full graph rather than a sampled view, in chunks that one
`BatchPlan` builds.

Folds are independent; given a `fold_pool`, they train in its worker
processes, one BLAS thread each. Every process that trains a fold pins
glibc's heap trim and mmap thresholds (`keep_freed_heap`), so the arrays a
step frees are reused by the next step instead of being returned to the
kernel and faulted in again; only glibc is affected, and outputs do not
change.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import dataclasses
import functools
import json
import multiprocessing
import numbers
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .data import Graph, prepare_dataset
from .encoders import (
    BatchPlan,
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
from .streams import generate_state

DEFAULT_SWEEP_DIMS = (8, 16, 32, 64)
# An evaluation chunk's first product, its node rows (graphs x the largest
# graph evaluated) by the encoder's largest first-layer weight, stays within
# _EVAL_MACS multiply-adds. Past about 1e6 multiply-adds OpenBLAS hands a
# product to its thread pool; with 2 idle threads on a 2-vCPU machine,
# (967, 65) @ (65, 16), 1.006e6 multiply-adds, took 5.2 ms where
# (953, 65) @ (65, 16), 0.991e6, took 0.09 ms. The budget is 640 rows of
# the default gcn's 65 x 16 weight. With the degree classes the graphs
# cache, gcn's first product is now a gather of weight rows; the budget
# stays so that evaluation batches, and with them outputs, do not move.
_EVAL_MACS = 640 * 65 * 16
# mallopt parameters from glibc's malloc.h, and the values keep_freed_heap
# pins: the ceilings glibc's own dynamic thresholds reach on 64-bit,
# DEFAULT_MMAP_THRESHOLD_MAX for mmap and twice that for trim.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


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
        # each field takes its annotated type only (numpy scalars included),
        # stored as the Python type, so a manifest reruns the same config
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            boolean = isinstance(v, (bool, np.bool_))
            if f.type in ("bool", bool):
                if not boolean:
                    raise ConfigError(f"{f.name} must be a bool, got {v!r}")
                v = bool(v)
            elif f.type in ("int", int):
                if boolean or not isinstance(v, (int, np.integer)):
                    raise ConfigError(f"{f.name} must be an integer, got {v!r}")
                v = int(v)
            elif f.type in ("float", float):
                if boolean or not isinstance(v, numbers.Real):
                    raise ConfigError(f"{f.name} must be a real number, got {v!r}")
                try:
                    v = float(v)
                except OverflowError:   # an int past the float range
                    v = np.inf
                if not np.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v}")
            elif not isinstance(v, str):
                raise ConfigError(f"{f.name} must be a string, got {v!r}")
            object.__setattr__(self, f.name, v)
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
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must lie in [0, 2**32), got {self.seed}")
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
                    if isinstance(value, bool) or (
                        isinstance(value, float) and not value.is_integer()
                    ):
                        raise ValueError(value)
                    value = int(value)
                elif f.type in ("float", float):
                    if isinstance(value, bool):
                        raise ValueError(value)
                    value = float(value)
                elif f.type in ("bool", bool):
                    text = value.strip().lower() if isinstance(value, str) else value
                    if text not in ("true", "false", "1", "0", 1, 0):
                        raise ValueError(value)
                    value = text in ("true", "1", 1)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"config key {key!r}: cannot interpret {value!r}") from None
            values[key] = value
        return cls(**values)

    def to_dict(self):
        return dataclasses.asdict(self)

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


def _entropy(parts):
    return [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) % (2 ** 32)
            for p in parts]


def derive_seed(*parts):
    """Fold strings and integers into one 32-bit stream seed, order-sensitive."""
    return int(np.random.SeedSequence(_entropy(parts)).generate_state(1)[0])


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
        if not len(pool):
            raise ContractError(f"fold {k}: its test set of {len(test)} graphs holds every "
                                "graph, so none is left to label; lower test_fraction")
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
    """Two views per graph per epoch, seeded per (base seed, fold, epoch,
    graph, space) so every rerun resamples identically, and every step's
    two GraphBatches.

    `plan` takes the epoch's batches, one row of graph ids per step.
    Nothing is sampled until a space's first request of the epoch; that
    request samples every graph the plan names in one batched sampler
    call, then plans every step's batch of the space at once
    (`encoders.BatchPlan`). `batches` serves a step's two planned
    GraphBatches. When every graph caches its degree classes, the views
    are cut from stand-ins without features, and a batch writes the
    one-hot rows of the classes; `euclidean_view` and `hyperbolic_view`
    give a view with its rows gathered from the graph. Asking for a graph
    outside the plan, or a batch that is not one of its rows, is a
    ContractError, and so is a list that holds one Graph object twice, as
    graphs are found by object.
    """

    def __init__(self, cfg, graphs, fold):
        self._cfg = cfg
        self._graphs = graphs
        self._gid_of = {}
        for i, g in enumerate(graphs):
            first = self._gid_of.setdefault(id(g), i)
            if first != i:
                raise ContractError(f"graphs {first} and {i} are one Graph object; "
                                    "give each position its own")
        self._width = _one_hot_width(graphs)
        self._sources = graphs if self._width is None else [
            Graph.unchecked(g.n, g.edges, None, g.label, g.orig_ids, g.cache) for g in graphs]
        self._fold = fold
        self._epoch = 0
        self._use([])

    def set_epoch(self, epoch):
        self._epoch = epoch
        self._use([])

    def plan(self, rows):
        """This epoch's batches, one row of graph ids per step (a flat list
        is one graph per step); their graphs are sampled together."""
        self._use(rows)

    def _use(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        self._rows = rows[:, None] if rows.ndim == 1 else rows
        self._ids = np.unique(self._rows)
        self._index = {gid: k for k, gid in enumerate(self._ids.tolist())}
        self._step_of = {tuple(row): s for s, row in enumerate(self._rows.tolist())}
        self._spaces = [None, None]

    def _space(self, space):
        """(views, plan) of a space: the views of the planned graphs in id
        order, and the BatchPlan of the epoch's steps over them."""
        got = self._spaces[space]
        if got is None:
            rate, sampler = ((self._cfg.alpha_e, diffusion_sample) if space == 0
                             else (self._cfg.alpha_h, community_expansion_sample))
            # derive_seed("view", seed, fold, epoch, i, space) for every i at once
            entropy = np.empty((len(self._ids), 6), dtype=np.uint32)
            entropy[:, :4] = _entropy(("view", self._cfg.seed, self._fold, self._epoch))
            entropy[:, 4], entropy[:, 5] = self._ids, space
            cfgs = [SamplerConfig(rate, s) for s in generate_state(entropy, 1)[:, 0].tolist()]
            views = sampler([self._sources[i] for i in self._ids.tolist()], cfgs)
            plan = BatchPlan(views, np.searchsorted(self._ids, self._rows), self._width)
            got = self._spaces[space] = views, plan
        return got

    def batches(self, graphs, hyperbolic=True):
        """The planned GraphBatch of the graphs' Euclidean views and, with
        `hyperbolic`, that of their hyperbolic views (else None)."""
        key = tuple(map(self._gid_of.get, map(id, graphs)))
        s = self._step_of.get(key)
        if s is None:
            raise ContractError(f"graphs {list(key)} are not a batch of the plan of fold "
                                f"{self._fold}, epoch {self._epoch}")
        return (self._space(0)[1].batch(s),
                self._space(1)[1].batch(s) if hyperbolic else None)

    def _view(self, g, space):
        gid = self._gid_of[id(g)]
        k = self._index.get(gid)
        if k is None:
            raise ContractError(
                f"graph {gid} is outside the view plan of fold {self._fold}, "
                f"epoch {self._epoch}")
        v = self._space(space)[0][k]
        if v.features is not None:
            return v
        return Graph.unchecked(v.n, v.edges, g.features[v.orig_ids], v.label, v.orig_ids,
                               dict(v.cache))

    def euclidean_view(self, g):
        return self._view(g, 0)

    def hyperbolic_view(self, g):
        return self._view(g, 1)


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


def _one_hot_width(graphs):
    """The feature width when every graph caches its degree classes, whose
    one-hot rows its features then are (`data.synthesize_features`), else
    None."""
    if all("classes" in g.cache for g in graphs):
        return graphs[0].features.shape[1]
    return None


def evaluate_accuracy(model, graphs, ids):
    """Fraction of the chosen graphs whose argmax prediction matches the label.

    Evaluation encodes the full graph; sampling is a training-time device.
    The graphs go through frozen copies of the encoder and predictor, which
    build no tape, in GraphBatches of equal size (the last may be short),
    in `ids` order, all planned in one `BatchPlan`. A batch holds as many
    graphs as _EVAL_MACS allows, and at least one.
    """
    if len(ids) == 0:
        raise ContractError("cannot evaluate on an empty id list")
    enc, pred = model.encoder_e.frozen(), model.predictor.frozen()
    chosen = [graphs[i] for i in ids]
    widest = max(w.size for w in enc.layer_params[0].values())
    size = max(1, _EVAL_MACS // (widest * max(g.n for g in chosen)))
    plan = BatchPlan(chosen, [range(a, min(a + size, len(ids))) for a in range(0, len(ids), size)],
                     _one_hot_width(chosen))
    hits = 0
    for s in range(len(plan.n_max)):
        batch = plan.batch(s)
        p = ad.values_of(predict(encode_euclidean(batch, enc), pred))
        hits += int((np.argmax(p, axis=1) == [g.label for g in batch.graphs]).sum())
    return hits / len(ids)


def _train_fold(cfg, graphs, num_classes, split, fold):
    """Train one fold's fresh model; returns (test accuracy, loss trace)."""
    keep_freed_heap()
    model = _build_model(cfg, graphs[0].features.shape[1], num_classes, fold)
    opt = Adam(model.params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    loss_cfg = LossConfig(
        temperature=cfg.temperature, lambda_u=cfg.lambda_u, omega=cfg.omega
    )
    views = _EpochViews(cfg, graphs, fold)
    pool = np.random.default_rng(derive_seed("pool", cfg.seed, fold)).permutation(
        split.unlabeled
    )
    # each epoch's negatives continue the round robin over the pool
    picks = np.arange(len(split.labeled) * (cfg.batch_size - 1))
    trace = np.zeros((cfg.epochs, 3))
    for epoch in range(cfg.epochs):
        views.set_epoch(epoch)
        order = split.labeled.copy()
        np.random.default_rng(derive_seed("sched", cfg.seed, fold, epoch)).shuffle(order)
        negatives = pool[(epoch * len(picks) + picks) % len(pool)]
        batches = np.column_stack([order, negatives.reshape(len(order), -1)])
        # with omega == 0 a step views only its labeled anchor
        views.plan(batches if cfg.omega else batches[:, :1])
        sums = np.zeros(3)
        for anchor, *chosen in batches.tolist():
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


def openblas_function(name):
    """The loaded OpenBLAS's `name` function (say get_num_threads), found
    under its scipy-openblas or plain name, with or without the 64-bit
    suffix; None when no loaded OpenBLAS exports it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_",
                    f"scipy_openblas_{name}", f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return fn
    return None


def mallopt_function():
    """The C library's mallopt(param, value), found among the process's
    loaded symbols; None where no loaded library exports it."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


@functools.cache
def keep_freed_heap():
    """Pin glibc's heap trim and mmap thresholds for the rest of the process;
    True when both settings took. Only the first call sets anything. Where
    mallopt does not resolve this is a no-op, and only glibc's malloc reads
    the two parameters.

    This changes a process-wide allocator setting. Each training step frees
    a few MB of arrays (padded operator stacks, the first layer's block).
    By default glibc hands the top of the heap back to the kernel once more
    than its trim threshold sits free, so the next step faults the same
    pages in again: hundreds of minor faults per step on 40 graphs of
    100-140 nodes. With the trim threshold at _TRIM_THRESHOLD the freed memory stays
    in the heap for the next step. Setting it also turns off glibc's dynamic
    mmap threshold, which would leave every block over 128 KiB in a mapping
    of its own that is faulted in anew each time, so blocks below
    _MMAP_THRESHOLD are kept on the heap as well. No arithmetic changes.
    """
    fn = mallopt_function()
    return fn is not None and all(
        fn(param, value) == 1
        for param, value in ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                             (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)))


def _one_blas_thread():
    """Fold-worker initializer: folds already run side by side, so each
    worker's BLAS keeps to one thread."""
    fn = openblas_function("set_num_threads")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)


def fold_pool(workers):
    """A process pool for run_experiment's folds: spawned workers, each with
    one BLAS thread. One pool serves every run of a command."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
        initializer=_one_blas_thread,
    )


def dataset_path(cfg, data_dir=None):
    """cfg.dataset's directory under the dataset root: `data_dir`, then
    $DSGC_DATA_DIR, then the working directory."""
    root = data_dir or os.environ.get("DSGC_DATA_DIR") or "."
    return os.path.join(root, cfg.dataset)


def load_dataset(cfg, data_dir=None):
    """Load and featurize cfg.dataset from its `dataset_path`."""
    return prepare_dataset(dataset_path(cfg, data_dir), degree_cap=cfg.degree_cap)


def fold_jobs(cfg, ds):
    """The protocol's per-fold `_train_fold` arguments on `ds`, after the
    checks that refuse a run before any fold trains: every graph has
    features as wide as graph 0's, and `split_folds` accepts the config."""
    for i, g in enumerate(ds.graphs):   # every fold's model reads graph 0's width
        if g.features is None:
            raise ContractError(f"graph {i} has no features; synthesize them first")
        if g.features.shape[1] != ds.graphs[0].features.shape[1]:
            raise ContractError(f"graph {i} has {g.features.shape[1]} feature columns where "
                                f"graph 0 has {ds.graphs[0].features.shape[1]}; synthesize "
                                "them first, with one degree cap")
    return [
        (cfg, ds.graphs, ds.num_classes, split, fold)
        for fold, split in enumerate(split_folds(ds, cfg))
    ]


def run_folds(jobs, pool=None):
    """Train the folds of `fold_jobs`, in `pool` (see fold_pool) when one
    is given, else in turn, and aggregate them."""
    results = list((map if pool is None else pool.map)(_train_fold, *zip(*jobs)))
    return MetricsRecord.from_folds(
        [acc for acc, _ in results], [trace for _, trace in results]
    )


def run_experiment(cfg, dataset=None, data_dir=None, pool=None):
    """Full protocol: split, train each fold from scratch, aggregate. The
    folds run in `pool` (see fold_pool) when one is given, else in turn."""
    ds = dataset if dataset is not None else load_dataset(cfg, data_dir)
    return run_folds(fold_jobs(cfg, ds), pool)


def sweep_configs(cfg, kind):
    """Label -> config of one sweep, in row order. `dim` varies hidden_dim
    over DEFAULT_SWEEP_DIMS (d8 ... d64); `encoders` pairs every euclidean
    with every hyperbolic encoder kind (e-h, in sorted label order)."""
    if kind == "dim":
        return {f"d{d}": cfg.replace(hidden_dim=d) for d in DEFAULT_SWEEP_DIMS}
    if kind == "encoders":
        kinds = sorted(k.value for k in EncoderKind)
        return {
            f"{e}-{h}": cfg.replace(euclidean_encoder=e, hyperbolic_encoder=h)
            for e in kinds for h in kinds
        }
    raise ContractError(f"unknown sweep kind {kind!r}; expected dim or encoders")


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


def write_sweep_csv(records, out_dir, kind):
    """sweep_<kind>.csv: one row per (config label, fold), labels in
    `records` order."""
    out = ["config,fold,accuracy"]
    for label, record in records.items():
        out += [
            f"{label},{i},{acc!r}"
            for i, acc in enumerate(record.fold_accuracies)
        ]
    path = os.path.join(out_dir, f"sweep_{kind}.csv")
    _write_atomic(path, "\n".join(out) + "\n")
    return path
