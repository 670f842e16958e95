"""Command-line entry point: dataset stats, sampling inspection, training, sweeps.

    dsgc stats  DIR [--no-filter]
    dsgc sample DIR INDEX [--sampler diffusion|community] [--rate R]
                [--seed S] [--check]
    dsgc train  CONFIG [--data-dir DIR] [--out DIR] [--set KEY=VALUE ...]
                [--omega W] [--parallel-folds N]
    dsgc sweep  CONFIG --kind dim|encoders [same train flags]

Configs are flat JSON key-value files; a previously written manifest.json
also works (its top-level "config" block is used), so any run can be
reproduced from its own output directory. $DSGC_DATA_DIR supplies the
default dataset root. Exit codes: 2 for configuration, parsing, or path
problems and for a failed `sample --check`; 3 when training diverges; 4 when
a `--parallel-folds` worker process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime

from .data import dataset_stats, parse_tu_dataset, prepare_dataset
from .errors import ConfigError, ContractError, TrainingDivergedError, TUParseError
from .experiment import (
    DEFAULT_SWEEP_DIMS,
    ExperimentConfig,
    encoder_pair_grid,
    hidden_dim_sweep,
    load_dataset,
    run_experiment,
    write_dim_sweep_csv,
    write_grid_csv,
    write_manifest,
    write_results,
)
from .samplers import SamplerConfig, check_view, community_expansion_sample, diffusion_sample

_SAMPLERS = {"diffusion": diffusion_sample, "community": community_expansion_sample}


def _load_config(path, overrides):
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object of config keys")
    if isinstance(raw.get("config"), dict):  # a manifest re-fed as config
        raw = raw["config"]
    merged = dict(raw)
    merged.update(overrides)
    return ExperimentConfig.from_dict(merged)


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not KEY=VALUE")
        out[key] = value
    return out


def _default_out_dir(cfg, command):
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    return os.path.join("runs", f"{cfg.dataset}-{command}-{stamp}-s{cfg.seed}")


def _manifest_extra(cfg, command, data_dir, out_dir):
    return {
        "command": command,
        "dataset_path": os.path.join(
            data_dir or os.environ.get("DSGC_DATA_DIR") or ".", cfg.dataset
        ),
        "out_dir": out_dir,
        "created": datetime.now().isoformat(timespec="seconds"),
        "seed": cfg.seed,
    }


def cmd_stats(args):
    ds = (
        prepare_dataset(args.directory)
        if not args.no_filter
        else parse_tu_dataset(args.directory)
    )
    s = dataset_stats(ds)
    print(f"dataset: {ds.name}")
    print(f"graphs: {s.num_graphs}")
    print(f"classes: {s.num_classes}")
    print(f"avg_nodes: {s.avg_nodes:.4f}")
    print(f"avg_edges: {s.avg_edges:.4f}")
    return 0


def cmd_sample(args):
    ds = prepare_dataset(args.directory)
    if not (0 <= args.index < len(ds.graphs)):
        raise ContractError(
            f"graph index {args.index} outside [0, {len(ds.graphs)})"
        )
    g = ds.graphs[args.index]
    cfg = SamplerConfig(rate=args.rate, seed=args.seed)
    view = _SAMPLERS[args.sampler](g, cfg)
    print(f"graph {args.index}: n={g.n} m={g.num_edges} "
          f"-> view n={view.n} m={view.num_edges}")
    print("node_map: " + " ".join(
        f"{i}:{orig}" for i, orig in enumerate(view.orig_ids)
    ))
    print("edges:")
    for a, b in view.edges:
        print(f"{a} {b}")
    if args.check:
        check_view(g, view, cfg)
        print("check: ok")
    return 0


def cmd_train(args):
    cfg = _load_config(args.config, _parse_overrides(args.set_))
    if args.omega is not None:
        cfg = cfg.replace(omega=float(args.omega))
    ds = load_dataset(cfg, args.data_dir)
    out_dir = args.out or _default_out_dir(cfg, "train")
    write_manifest(cfg, out_dir, _manifest_extra(cfg, "train", args.data_dir, out_dir))
    record = run_experiment(cfg, dataset=ds, parallel=args.parallel_folds)
    write_results(record, out_dir)
    print(f"mean_accuracy: {record.mean:.4f}")
    print(f"std_accuracy: {record.std:.4f}")
    print(f"out_dir: {out_dir}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config, _parse_overrides(args.set_))
    if args.omega is not None:
        cfg = cfg.replace(omega=float(args.omega))
    ds = load_dataset(cfg, args.data_dir)
    out_dir = args.out or _default_out_dir(cfg, f"sweep-{args.kind}")
    write_manifest(
        cfg, out_dir, _manifest_extra(cfg, f"sweep-{args.kind}", args.data_dir, out_dir)
    )
    if args.kind == "dim":
        sweep = hidden_dim_sweep(cfg, dims=DEFAULT_SWEEP_DIMS, dataset=ds,
                                 parallel=args.parallel_folds)
        path = write_dim_sweep_csv(sweep, out_dir)
    else:
        grid = encoder_pair_grid(cfg, dataset=ds, parallel=args.parallel_folds)
        path = write_grid_csv(grid, out_dir)
    print(f"sweep_csv: {path}")
    print(f"out_dir: {out_dir}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dsgc",
        description="Dual-space contrastive graph classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics after the connectivity filter")
    p.add_argument("directory", help="TU-format dataset directory")
    p.add_argument("--no-filter", action="store_true",
                   help="report on the raw dataset, before filtering")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sample", help="print one sampled view of one graph")
    p.add_argument("directory", help="TU-format dataset directory")
    p.add_argument("index", type=int, help="graph index within the dataset")
    p.add_argument("--sampler", choices=sorted(_SAMPLERS), default="diffusion")
    p.add_argument("--rate", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="check size/connectivity/induced-subgraph invariants")
    p.set_defaults(fn=cmd_sample)

    for name, help_text in (
        ("train", "run the full protocol for one config"),
        ("sweep", "run a hidden-dim or encoder-pair sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config (or a manifest.json)")
        p.add_argument("--data-dir", default=None,
                       help="dataset root (default: $DSGC_DATA_DIR, then .)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", dest="set_", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--omega", default=None,
                       help="shortcut override for the contrastive weight")
        p.add_argument("--parallel-folds", type=int, default=1,
                       help="train up to N folds in parallel processes")
        if name == "sweep":
            p.add_argument("--kind", choices=("dim", "encoders"), required=True)
        p.set_defaults(fn=cmd_train if name == "train" else cmd_sweep)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, TUParseError, ContractError, FileNotFoundError,
            NotADirectoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"error: a fold worker process died ({exc})", file=sys.stderr)
        return 4


def cli():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
