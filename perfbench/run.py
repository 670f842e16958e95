"""The dsgc benchmark: one command per workload, metrics on the last line.

    python3 perfbench/run.py --workload mutag-default --seed 0 --seconds 60 --trace 0

It generates the workload's graph set from --seed, writes it as TU text and
runs the protocol through `dsgc.experiment.run_experiment` in fresh
interpreters (perfbench/workload.py), each with its BLAS thread count set
before numpy loads. End-to-end times are scaled by a calibration kernel
timed around each sample (perfbench/calibrate.py), so that the machine's
own speed drifts do not read as changes of the program. It checks the
outputs, prints every metric with its unit and sample count, writes a
record under perfbench/out/records/ and ends with one JSON line:

    {"correct": ..., "attempted": <steps>, "failed": <steps>, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from a traced run at the default BLAS thread count and
one pinned to a single thread, beside an untraced run for the overhead.
See perfbench/README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from calibrate import NOMINAL_S, Speed  # noqa: E402
from graphs import LARGE_SPARSE, SMALL_MOLECULES, generate, write_tu  # noqa: E402
from tracing import percentile  # noqa: E402

PROTOCOL_FOLDS, PROTOCOL_EPOCHS = 10, 200   # the default protocol protocol_s_est projects
BATCH_SIZE = 8                # the default config's batch size
MIN_STEPS = 100               # p90 needs ten samples beyond it
SETUP_PROBES = 3              # set-ups before and again after each repeat's measured run
EVAL_CALLS = 10               # calls of each fold's evaluation per repeat
REFERENCE_SEED = 0
REFERENCE_EPOCHS = 2
REFERENCE_STRIDE = 8          # the reference set keeps every 8th graph size
LOSS_RTOL = 1e-6              # final-epoch losses against reference.json
ACCURACY_ATOL = 1e-12         # fold accuracies against reference.json
RUN_BUDGET_S = 170            # the whole run, children included
REFERENCE = BENCH / "reference.json"
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    graphs: object                   # graphs.GraphSet, run with the default config
    folds: int                       # per measured run; steps per epoch do not depend on it
    epochs: int                      # per measured run: at least MIN_STEPS steps in all


WORKLOADS = {
    "mutag-default": Workload(SMALL_MOLECULES, folds=2, epochs=1),
    "large-sparse": Workload(LARGE_SPARSE, folds=5, epochs=1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "fold_epoch_s": "s",
    "train_graphs_per_s": "1/s",
    "eval_graphs_per_s": "1/s",
    "protocol_s_est": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(("_ms", "ms_per_step", "ms_per_call", "ms_per_graph")) or ".blas1" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_per_step"):
        return "bytes"
    if name.endswith(("share_of_step", "_frac")):
        return "fraction"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def config_for(workload, seed, epochs, dataset):
    return {"dataset": dataset, "seed": seed, "epochs": epochs, "folds": workload.folds}


def run_child(spec, work, tag, threads, deadline):
    """Run perfbench/workload.py in a fresh interpreter; returns its output."""
    spec_path, out_path = work / f"{tag}.spec.json", work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"   # repeats lay out their dicts and sets alike
    env["TMPDIR"] = str(work / "tmp")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workload.py"), str(spec_path), str(out_path)],
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    finally:
        try:  # stops anything the child left running in its process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if not out_path.exists():
        return {"error": f"exited with {proc.returncode} and wrote nothing"}
    return json.loads(out_path.read_text())


def close(a, b, rtol):
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=rtol) for x, y in zip(a, b))


def flat(rows):
    return [v for row in rows for v in row]


def check_reference(found, expected):
    """Problems with the reference-set outputs, as text (empty when they match)."""
    if expected is None:
        return ["no reference recorded for this workload (run with --update-reference)"]
    problems = []
    acc, want = found["fold_accuracies"], expected["fold_accuracies"]
    if len(acc) != len(want) or any(abs(x - y) > ACCURACY_ATOL for x, y in zip(acc, want)):
        problems.append(f"reference fold accuracies {acc} != {want}")
    if not close(flat(found["final_epoch_loss"]), flat(expected["final_epoch_loss"]), LOSS_RTOL):
        problems.append(f"reference final-epoch losses {found['final_epoch_loss']} "
                        f"!= {expected['final_epoch_loss']} (rtol {LOSS_RTOL})")
    return problems


def mean_over_repeats(samples):
    """{key: mean seconds} of (key, seconds) samples, in key order."""
    seen = {}
    for key, seconds in samples:
        seen.setdefault(key, []).append(seconds)
    return {k: statistics.fmean(seen[k]) for k in sorted(seen)}


def end_to_end(children, num_graphs):
    """Metric -> (value, sample count).

    Each sample (a step, the rest of an epoch, an evaluation call, a
    set-up) is first scaled by the speed of the calibration kernel timed
    around it (calibrate.py): the shared 2-vCPU virtual machine the
    benchmark was tuned on drifts between speeds up to 1.8x apart, in
    stretches from under a second to about a minute, and the kernel drifts
    with it. Every repeat of a run then does identical work: same inputs,
    seeds and config, so the same set-ups, steps and evaluation calls in
    the same order. Each of them is timed as its mean over the repeats,
    and the medians and percentiles are over those means.
    """
    step_samples, between, setup_samples, eval_samples = [], [], [], []
    for c in children:
        speed = Speed(c["calibrations"])
        for e in c["epochs"]:
            at = (e["fold"], e["epoch"])
            step_samples += [((*at, i), speed.scale(s, t))
                             for i, (s, t) in enumerate(zip(e["steps"], e["step_at"]))]
            between.append((at, speed.scale(e["s"] - sum(e["steps"]), e["t"])))
        setup_samples += [(i, speed.scale(s, t))
                          for i, (s, t) in enumerate(zip(c["setup_s"], c["setup_at"]))]
        eval_samples += [((e["fold"], e["call"]), speed.scale(e["s"], e["t"]))
                         for e in c["evals"]]
    steps = mean_over_repeats(step_samples)
    step_ms = [1e3 * s for s in steps.values()]
    epoch_s = mean_over_repeats(between)
    for at, s in steps.items():
        epoch_s[at[:2]] += s
    fold_epoch = statistics.median(epoch_s.values())
    setup = statistics.median(mean_over_repeats(setup_samples).values())
    evals = [e for c in children for e in c["evals"]]
    eval_s = mean_over_repeats(eval_samples)
    eval_graphs = {(e["fold"], e["call"]): e["graphs"] for e in evals}
    eval_rate = sum(eval_graphs.values()) / sum(eval_s.values())
    eval_per_fold = (num_graphs / PROTOCOL_FOLDS) / eval_rate
    epochs_seen = len(epoch_s) * len(children)
    return {
        "setup_s": (setup, sum(len(c["setup_s"]) for c in children)),
        "step_ms_p50": (percentile(step_ms, 50), len(step_ms)),
        "step_ms_p90": (percentile(step_ms, 90), len(step_ms)),
        "fold_epoch_s": (fold_epoch, epochs_seen),
        "train_graphs_per_s": (BATCH_SIZE * len(steps) / sum(epoch_s.values()), epochs_seen),
        "eval_graphs_per_s": (eval_rate, sum(e["graphs"] for e in evals)),
        "protocol_s_est": (
            setup + PROTOCOL_FOLDS * (PROTOCOL_EPOCHS * fold_epoch + eval_per_fold), epochs_seen),
        "peak_rss_mb": (max(c["rss_mb"] for c in children), len(children)),
    }


def step_p50(child):
    return percentile([1e3 * s for e in child["epochs"] for s in e["steps"]], 50)


def per_layer(untraced, traced, pinned):
    """Metric -> (value, sample count) from the traced children."""
    out = {name: (value, traced["steps"]) for name, value in traced["layers"].items()}
    for name in ("encoders.euclidean.self_ms_per_step", "encoders.hyperbolic.self_ms_per_step"):
        out[f"{name}.blas1"] = (pinned["layers"][name], pinned["steps"])
    out["trace.overhead_frac"] = (step_p50(traced) / step_p50(untraced) - 1.0, traced["steps"])
    return out


def run_workload(name, seed, seconds, trace, update_reference=False):
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    work = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        return _run_workload(name, workload, seed, seconds, trace, update_reference,
                             work, start, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name, workload, seed, seconds, trace, update_reference, work, start,
                  deadline):
    spec = workload.graphs
    graphs, labels = generate(spec, seed)
    data = write_tu(graphs, labels, work / "data" / spec.name, spec.name)
    ref_spec = replace(spec, sizes=spec.sizes[::REFERENCE_STRIDE])
    ref_graphs, ref_labels = generate(ref_spec, REFERENCE_SEED)
    write_tu(ref_graphs, ref_labels, work / "ref" / ref_spec.name, ref_spec.name)

    base = {
        "src": str(ROOT / "src"),
        "config": config_for(workload, seed, workload.epochs, spec.name),
        "data_dir": str(work / "data"),
        "setup_probes": SETUP_PROBES,
        "eval_calls": EVAL_CALLS,
    }
    reference_run = {
        "config": config_for(workload, REFERENCE_SEED, REFERENCE_EPOCHS, ref_spec.name),
        "data_dir": str(work / "ref"),
    }
    children, plan = {}, []

    def launch(tag, threads, traced):
        child_spec = dict(base, traced=traced)
        if not plan:
            child_spec["reference"] = reference_run
        plan.append((tag, threads, traced))
        began = time.monotonic()
        children[tag] = run_child(child_spec, work, tag, threads, deadline)
        return time.monotonic() - began

    # (tag, BLAS threads, traced); the first child also trains the reference set
    if trace:
        for args in (("untraced", NPROC, False), ("traced", NPROC, True),
                     ("traced-blas1", 1, True)):
            launch(*args)
    else:
        # identical repeats while another one fits in --seconds, and at
        # least two, so that reruns can be compared
        last = launch("repeat0", NPROC, False)
        while len(plan) < 2 or time.monotonic() - start + last <= seconds:
            last = launch(f"repeat{len(plan)}", NPROC, False)

    problems, failed_tags = [], set()
    for tag, child in children.items():
        if child.get("error"):
            problems.append(f"{tag}: {child['error'].strip()}")
            failed_tags.add(tag)
        elif child["nonfinite_steps"]:
            problems.append(f"{tag}: {child['nonfinite_steps']} non-finite step losses")
    first = plan[0][0]
    if first not in failed_tags:
        found = children[first]["reference"]
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        if update_reference:
            reference[name] = found
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        else:
            bad = check_reference(found, reference.get(name))
            problems += [f"{first}: {p}" for p in bad]
            if bad:
                failed_tags.add(first)
        # same seed and BLAS threads: bit-identical; one BLAS thread may sum
        # in another order, so it is held to the reference tolerance
        a = children[first]
        for tag, threads, _ in plan[1:]:
            b = children[tag]
            if tag in failed_tags:
                continue
            if threads == plan[0][1]:
                same = (a["fold_accuracies"], a["traces"]) == (b["fold_accuracies"], b["traces"])
            else:
                same = a["fold_accuracies"] == b["fold_accuracies"] and close(
                    flat(flat(a["traces"])), flat(flat(b["traces"])), LOSS_RTOL)
            if not same:
                problems.append(f"{tag}: fold accuracies or loss traces differ from {first}")
                failed_tags.update({first, tag})

    steps = {tag: c.get("steps", 0) for tag, c in children.items()}
    attempted = max(1, sum(steps.values()))
    failed = sum(steps[t] for t in failed_tags) + sum(
        c.get("nonfinite_steps", 0) for t, c in children.items() if t not in failed_tags)
    failed = min(attempted, max(failed, 1 if problems else 0))
    correct = not problems

    metrics = {}
    if correct:
        if trace:
            metrics = per_layer(*(children[tag] for tag, _, _ in plan))
        else:
            metrics = end_to_end(list(children.values()), len(graphs))
    env = next((c["env"] for c in children.values() if "env" in c), {})
    walls = [c["wall_s"] for c in children.values() if "wall_s" in c]
    kernel = [s for c in children.values() for _, s in c.get("calibrations", ())]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "repeats": len(plan), "epochs": workload.epochs, "folds": workload.folds,
        "env": env, "data": data,
        "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
        "wall_s": min(walls, default=None),
        "kernel_ms": 1e3 * statistics.median(kernel) if kernel else None,
        "metrics": {k: {"value": v, "unit": layer_unit(k) if trace else END_TO_END_UNITS[k],
                        "samples": n}
                    for k, (v, n) in metrics.items()},
        "samples": {tag: {k: c[k] for k in ("setup_s", "setup_at", "epochs", "evals",
                                            "calibrations", "wall_s", "rss_mb")
                          if k in c}
                    for tag, c in children.items()},
    }


def report(record):
    env = record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['repeats']} runs of {record['epochs']} epochs x {record['folds']} folds")
    print(f"env: nproc={env.get('nproc')} python={env.get('python')} numpy={env.get('numpy')} "
          f"blas={env.get('blas')} {env.get('blas_version')} threads={env.get('blas_threads')}")
    d = record["data"]
    print(f"data: {d['name']} graphs={d['graphs']} classes={d['classes']} "
          f"mean_nodes={d['mean_nodes']:.2f} mean_edges={d['mean_edges']:.2f}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:9s} (n={m['samples']})")
    if record["wall_s"] is not None:
        print(f"  {'wall_s (fastest repeat, not gated)':44s} {record['wall_s']:14.6g} {'s':9s} "
              f"(n={record['repeats']})")
    if record["kernel_ms"] is not None:
        scaled = ("per-layer times are not scaled" if record["trace"]
                  else f"times above are scaled to {1e3 * NOMINAL_S:g} ms")
        print(f"  {'calibration kernel (median, unscaled)':44s} {record['kernel_ms']:14.6g} "
              f"{'ms':9s} ({scaled})")
    frac = record["failed"] / record["attempted"]
    print(f"  {'ops_failed_frac':44s} {frac:14.6g} {'fraction':9s} "
          f"(n={record['attempted']} steps, {record['failed']} failed)")
    for p in record["problems"]:
        print(f"check FAILED: {p}")
    if not record["problems"]:
        print("check: ok")


def _stop(signum, frame):
    # unwinds through run_child's and run_workload's cleanup, which kill the
    # running child's process group and remove the work directory
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="record the reference-set outputs instead of checking them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dsgc" / "__init__.py").is_file():
        print(f"perfbench: no dsgc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.update_reference)
        records = OUT / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        report(record)
        all_correct &= record["correct"]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()},
        }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
