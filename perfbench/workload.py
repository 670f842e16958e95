"""Child process of the benchmark: one workload run in a fresh interpreter.

    python perfbench/workload.py SPEC.json OUT.json

`run.py` writes SPEC.json, sets the BLAS thread variables and PYTHONPATH
before this interpreter starts, and reads OUT.json when it exits. The run:

  1. optionally trains the small reference set (output check);
  2. sets up the protocol several times, stopping at the first step, to
     sample set-up time;
  3. trains the measured protocol once through `run_experiment`, the call
     `dsgc train` makes, calling each fold's evaluation `eval_calls` times
     (the calls must agree) so that evaluation time has many samples;
  4. sets the protocol up several times more.

Wrappers are installed where `dsgc` looks the names up (module globals and
class attributes), so nothing under `src/` changes. The untraced run wraps
only the step, epoch, evaluation, fold and dataset-loading boundaries; the
traced run also wraps every layer's public functions. Both time the
calibration kernel (calibrate.py) before every step, every evaluation call
and every set-up, outside their spans.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
from tracing import Recorder, self_times, within  # noqa: E402

STEP = "losses.train_step"
CALIB = "calibrate"
SETUP_CALIBRATIONS = 8    # kernel calls before each set-up, a window's worth


class SetupDone(Exception):
    """Raised at the first step of a set-up probe; args[0] is its time."""


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
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
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _reachable(root):
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in getattr(node, "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class Instrument:
    """Installs the wrappers and owns the recorder they write to."""

    def __init__(self, traced, eval_calls=1):
        self.rec = Recorder()
        self.probe = False
        self.eval_calls = eval_calls
        self._install_boundaries()
        if traced:
            self._install_layers()

    def calibrate(self, times=1):
        """Time the calibration kernel, each call as a top-level span."""
        for _ in range(times):
            idx = self.rec.open(CALIB)
            calibrate.kernel()
            self.rec.close(idx)

    def _patch(self, owner, attr, name, before=None):
        setattr(owner, attr, self.rec.wrap(getattr(owner, attr), name, before))

    def _install_boundaries(self):
        from dsgc import experiment

        rec, inst = self.rec, self
        train_step = experiment.train_step

        def step(*args, **kwargs):
            if inst.probe:
                raise SetupDone(time.perf_counter())
            inst.calibrate()
            tensors = rec.counts["tensors"]
            idx = rec.open(STEP)
            try:
                metrics = train_step(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.counts["step_tensors"] += rec.counts["tensors"] - tensors
            if not math.isfinite(metrics.total):
                rec.counts["nonfinite_steps"] += 1
            return metrics

        experiment.train_step = step

        set_epoch = experiment._EpochViews.set_epoch

        def epoch_mark(views, epoch):
            rec.values["epoch_start"].append(time.perf_counter())
            return set_epoch(views, epoch)

        experiment._EpochViews.set_epoch = epoch_mark

        evaluate = experiment.evaluate_accuracy
        calls = self.eval_calls

        def repeated_eval(model, graphs, ids):
            # forward-only: every call starts from the graph caches the
            # first one found, so each times the protocol's single call,
            # and all must give the same accuracy
            caches = {i: dict(graphs[i].cache) for i in ids}
            results = []
            for _ in range(calls):
                for i, cache in caches.items():
                    graphs[i].cache.clear()
                    graphs[i].cache.update(cache)
                rec.values["eval_graphs"].append(len(ids))
                inst.calibrate()
                idx = rec.open("experiment.eval")
                try:
                    results.append(evaluate(model, graphs, ids))
                finally:
                    rec.close(idx)
            if len(set(results)) != 1:
                raise RuntimeError(f"repeated evaluations disagree: {results}")
            return results[0]

        experiment.evaluate_accuracy = repeated_eval

        def note_fold(args):
            rec.values["fold"].append(args[4])

        self._patch(experiment, "_train_fold", "experiment.fold", note_fold)
        self._patch(experiment, "prepare_dataset", "data.prepare")

    def _install_layers(self):
        from dsgc import autodiff, experiment, losses
        from dsgc.poincare import PoincareBall

        rec = self.rec

        def count_nodes(args):
            rec.counts["view_nodes"] += args[0].n

        def count_request(fn):
            def wrapper(views, g):
                rec.counts["view_requests"] += 1
                return fn(views, g)
            return wrapper

        def count_tensor(fn):
            def wrapper(self, *args, **kwargs):
                rec.counts["tensors"] += 1
                fn(self, *args, **kwargs)
            return wrapper

        self._patch(experiment, "diffusion_sample", "samplers.diffusion")
        self._patch(experiment, "community_expansion_sample", "samplers.community")
        views = experiment._EpochViews
        views.euclidean_view = count_request(views.euclidean_view)
        views.hyperbolic_view = count_request(views.hyperbolic_view)
        self._patch(losses, "encode_euclidean", "encoders.euclidean", count_nodes)
        self._patch(losses, "encode_hyperbolic", "encoders.hyperbolic", count_nodes)
        self._patch(losses, "predict", "encoders.predict")
        self._patch(experiment, "encode_euclidean", "encoders.euclidean")
        self._patch(experiment, "predict", "encoders.predict")
        self._patch(PoincareBall, "geodesic_similarity", "poincare.similarity")
        for attr in ("expmap0", "logmap0", "project"):
            self._patch(PoincareBall, attr, "poincare.maps")
        for attr in ("mobius_matvec", "mobius_bias_add", "hyperbolic_activation"):
            self._patch(PoincareBall, attr, "poincare.mobius")
        self._patch(losses, "info_nce_labeled", "losses.nce")
        self._patch(losses, "info_nce_unlabeled", "losses.nce")
        self._patch(losses, "supervised_loss", "losses.supervised")
        self._patch(autodiff.Adam, "step", "autodiff.adam")
        autodiff.Tensor.__init__ = count_tensor(autodiff.Tensor.__init__)

        backward = autodiff.backward

        def traced_backward(root):
            # node counting is timed as its own span so no layer absorbs it
            idx = rec.open("trace.count")
            nodes = _reachable(root)
            rec.close(idx)
            idx = rec.open("autodiff.backward")
            try:
                backward(root)
            finally:
                rec.close(idx)
            idx = rec.open("trace.count")
            rec.counts["tape_nodes"] += len(nodes)
            rec.counts["grad_bytes"] += sum(
                g.nbytes for g in (getattr(n, "grad", None) for n in nodes)
                if hasattr(g, "nbytes")
            )
            rec.close(idx)

        autodiff.backward = traced_backward


def probe_setup(inst, run, cfg, data_dir):
    """(start, seconds) from calling run_experiment to its first train_step."""
    inst.calibrate(SETUP_CALIBRATIONS)
    inst.probe = True
    start = time.perf_counter()
    try:
        run(cfg, data_dir=data_dir)
    except SetupDone as done:
        return start, done.args[0] - start
    finally:
        inst.probe = False
    raise RuntimeError("run_experiment finished without taking a step")


def _fold_at(dump, t):
    """The fold whose _train_fold span holds time t."""
    spans = [s for s in dump["spans"] if s[0] == "experiment.fold"]
    return next(fold for (_, start, end, _), fold in zip(spans, dump["values"]["fold"])
                if start <= t < end)


def calibrations_of(dump):
    """[start, seconds] of every calibration kernel call, in time order."""
    return [[s[1], s[2] - s[1]] for s in dump["spans"] if s[0] == CALIB]


def epochs_of(dump):
    """The run's epochs, each {"fold", "epoch", "t": start, "s": seconds,
    "steps": [step seconds], "step_at": [step starts]}: an epoch runs from
    its set_epoch call to the next one or to its fold's evaluation,
    whichever comes first, less the calibration calls inside it."""
    spans = dump["spans"]
    starts = dump["values"]["epoch_start"]
    ends = sorted(starts + [s[1] for s in spans if s[0] == "experiment.eval"])
    steps = sorted((s[1], s[2] - s[1]) for s in spans if s[0] == STEP)
    calib = calibrations_of(dump)
    out, seen = [], {}
    for t in starts:
        end = min(e for e in ends if e > t)
        fold = _fold_at(dump, t)
        seen[fold] = seen.get(fold, -1) + 1
        inside = [(s, d) for s, d in steps if t <= s < end]
        out.append({"fold": fold, "epoch": seen[fold], "t": t,
                    "s": end - t - sum(d for s, d in calib if t <= s < end),
                    "steps": [d for _, d in inside], "step_at": [s for s, _ in inside]})
    return out


def evals_of(dump):
    """The run's evaluation calls, each {"fold", "call", "t": start, "s",
    "graphs"}; `call` numbers the repeated calls of one fold's evaluation."""
    calls = [s for s in dump["spans"] if s[0] == "experiment.eval"]
    out, seen = [], {}
    for s, n in zip(calls, dump["values"]["eval_graphs"]):
        fold = _fold_at(dump, s[1])
        seen[fold] = seen.get(fold, -1) + 1
        out.append({"fold": fold, "call": seen[fold], "t": s[1], "s": s[2] - s[1],
                    "graphs": n})
    return out


def layer_metrics(dump, prepare):
    """Per-layer figures of the measured run; `prepare` holds every
    prepare_dataset time of the process, set-up probes included."""
    in_step, total, calls, count = {}, {}, {}, {}
    counts = dump["counts"]
    steps, step_time = 0, 0.0
    spans = dump["spans"]
    for (name, start, end, _), own, inside in zip(spans, self_times(spans), within(spans, STEP)):
        if name == STEP:
            steps += 1
            step_time += end - start
        total[name] = total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if inside:
            in_step[name] = in_step.get(name, 0.0) + own
            count[name] = count.get(name, 0) + 1
    epochs = epochs_of(dump)

    def ms_per_step(name):
        return 1e3 * in_step.get(name, 0.0) / steps

    def per_step(name):
        return count.get(name, 0) / steps

    def share(*prefixes):
        own = sum(v for k, v in in_step.items() if k.startswith(prefixes))
        return own / step_time

    def ms_per_call(name):
        return 1e3 * total.get(name, 0.0) / max(1, calls.get(name, 0))

    sampler_calls = calls.get("samplers.diffusion", 0) + calls.get("samplers.community", 0)
    eval_s = sum(e - s for n, s, e, _ in spans if n == "experiment.eval")
    return {
        "autodiff.backward.ms_per_step": ms_per_step("autodiff.backward"),
        "autodiff.backward.share_of_step": share("autodiff.backward"),
        "autodiff.adam.ms_per_step": ms_per_step("autodiff.adam"),
        "autodiff.tape_nodes_per_step": counts.get("tape_nodes", 0) / steps,
        "autodiff.tensors_per_step": counts.get("step_tensors", 0) / steps,
        "autodiff.grad_bytes_per_step": counts.get("grad_bytes", 0) / steps,
        "poincare.similarity.calls_per_step": per_step("poincare.similarity"),
        "poincare.similarity.self_ms_per_step": ms_per_step("poincare.similarity"),
        "losses.nce.self_ms_per_step": ms_per_step("losses.nce"),
        "losses.supervised.self_ms_per_step": ms_per_step("losses.supervised"),
        "losses.train_step.self_ms_per_step": ms_per_step(STEP),
        "poincare.maps.calls_per_step": per_step("poincare.maps"),
        "poincare.maps.self_ms_per_step": ms_per_step("poincare.maps"),
        "poincare.mobius.self_ms_per_step": ms_per_step("poincare.mobius"),
        "poincare.share_of_step": share("poincare."),
        "encoders.hyperbolic.calls_per_step": per_step("encoders.hyperbolic"),
        "encoders.hyperbolic.self_ms_per_step": ms_per_step("encoders.hyperbolic"),
        "samplers.diffusion.calls": calls.get("samplers.diffusion", 0),
        "samplers.diffusion.ms_per_call": ms_per_call("samplers.diffusion"),
        "samplers.community.calls": calls.get("samplers.community", 0),
        "samplers.community.ms_per_call": ms_per_call("samplers.community"),
        "samplers.view_reuse_ratio": counts.get("view_requests", 0) / max(1, sampler_calls),
        "samplers.share_of_step": share("samplers."),
        "encoders.euclidean.calls_per_step": per_step("encoders.euclidean"),
        "encoders.euclidean.self_ms_per_step": ms_per_step("encoders.euclidean"),
        "encoders.predict.self_ms_per_step": ms_per_step("encoders.predict"),
        "encoders.view_nodes_per_step": counts.get("view_nodes", 0) / steps,
        "encoders.share_of_step": share("encoders."),
        "experiment.epoch_overhead_ms": 1e3 * statistics.median(
            e["s"] - sum(e["steps"]) for e in epochs
        ),
        "experiment.eval.ms_per_graph": 1e3 * eval_s / sum(dump["values"]["eval_graphs"]),
        "data.prepare_s": statistics.median(prepare),
    }


def measure(inst, run, cfg, data_dir):
    """One measured run_experiment: (its record, wall seconds, start time)."""
    inst.rec.reset()
    inst.calibrate(SETUP_CALIBRATIONS)
    start = time.perf_counter()
    record = run(cfg, data_dir=data_dir)
    return record, time.perf_counter() - start, start


def run_child(spec, out):
    import dsgc
    from dsgc.experiment import ExperimentConfig, run_experiment

    if not os.path.abspath(dsgc.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise RuntimeError(f"dsgc imported from {dsgc.__file__}, not from {spec['src']}")
    inst = Instrument(spec["traced"], spec.get("eval_calls", 1))
    out["env"] = environment()

    ref = spec.get("reference")
    if ref is not None:
        record, _, _ = measure(inst, run_experiment, ExperimentConfig.from_dict(ref["config"]),
                               ref["data_dir"])
        out["reference"] = {
            "fold_accuracies": record.fold_accuracies,
            "final_epoch_loss": [list(map(float, t[-1])) for t in record.traces],
        }

    cfg = ExperimentConfig.from_dict(spec["config"])
    setup, prepare, calib = [], [], []

    def probes():
        # before and after the measured run, so set-ups sample two moments
        for _ in range(spec["setup_probes"]):
            inst.rec.reset()
            setup.append(probe_setup(inst, run_experiment, cfg, spec["data_dir"]))
            calib.extend(calibrations_of(inst.rec.snapshot()))
            prepare.extend(e - s for name, s, e, _ in inst.rec.spans if name == "data.prepare")

    probes()
    record, wall, start = measure(inst, run_experiment, cfg, spec["data_dir"])
    dump = inst.rec.snapshot()
    calib += calibrations_of(dump)
    step_spans = [s for s in dump["spans"] if s[0] == STEP]
    first = min([step_spans[0][1]] + [t for t, _ in calibrations_of(dump) if t > start])
    setup.append((start, first - start))
    prepare += [e - s for name, s, e, _ in dump["spans"] if name == "data.prepare"]
    probes()
    out.update({
        "setup_s": [s for _, s in setup],
        "setup_at": [t for t, _ in setup],
        "calibrations": sorted(calib),
        "steps": len(step_spans),
        "epochs": epochs_of(dump),
        "evals": evals_of(dump),
        "nonfinite_steps": dump["counts"].get("nonfinite_steps", 0),
        "wall_s": wall,
        "rss_mb": maxrss_mb(),
        "fold_accuracies": record.fold_accuracies,
        "traces": [[list(map(float, row)) for row in t] for t in record.traces],
    })
    if spec["traced"]:
        out["layers"] = layer_metrics(dump, prepare)


def main(argv):
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    out = {"error": None}
    try:
        run_child(spec, out)
    except Exception:  # the parent reports the failure and counts the steps lost
        out["error"] = traceback.format_exc()
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0 if out["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
