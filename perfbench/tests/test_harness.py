"""Tests of the benchmark harness itself: span arithmetic, the percentile
rule, epoch boundaries, calibration scaling, the graph generator and the
run sizing."""

import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import graphs  # noqa: E402
import run  # noqa: E402
from tracing import InsufficientSamples, Recorder, percentile, self_times, within  # noqa: E402
from workload import epochs_of, evals_of  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_their_parent():
    spans = [("root", 0.0, 10.0, -1), ("late", 8.0, 12.0, 0), ("early", -3.0, 1.0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_within_marks_descendants_of_the_named_span():
    spans = [
        ("fold", 0, 9, -1),
        ("step", 1, 4, 0),
        ("sim", 2, 3, 1),
        ("eval", 5, 8, 0),
        ("enc", 6, 7, 3),
    ]
    assert within(spans, "step") == [False, True, True, False, False]


def test_recorder_nests_wrapped_calls():
    rec = Recorder()
    inner = rec.wrap(lambda x: x + 1, "inner")
    outer = rec.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    spans = rec.snapshot()["spans"]
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0)]
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]


def test_recorder_closes_spans_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert rec.spans[0][2] is not None and rec._stack == []


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values[::-1], 50) == 50
    with pytest.raises(InsufficientSamples):
        percentile(values[:99], 90)
    assert percentile(values[:20], 50) == 10
    with pytest.raises(InsufficientSamples):
        percentile(values[:19], 50)


def test_epochs_end_at_the_next_epoch_or_the_evaluation():
    dump = {
        "spans": [
            ("experiment.fold", -1.0, 16.0, -1),
            ("losses.train_step", 1.0, 3.0, 0),
            ("losses.train_step", 4.0, 8.0, 0),
            ("losses.train_step", 11.0, 12.0, 0),
            ("experiment.eval", 14.0, 15.0, 0),
            ("experiment.eval", 15.0, 15.5, 0),
            ("experiment.fold", 20.0, 30.0, -1),
            ("losses.train_step", 22.0, 23.0, 6),
            ("experiment.eval", 25.0, 27.0, 6),
            ("calibrate", 0.5, 1.0, 0),
            ("calibrate", 13.5, 14.0, 0),
        ],
        "values": {"epoch_start": [0.0, 10.0, 21.0], "fold": [3, 4],
                   "eval_graphs": [9, 9, 10]},
    }
    epochs = epochs_of(dump)
    assert [(e["fold"], e["epoch"]) for e in epochs] == [(3, 0), (3, 1), (4, 0)]
    # calibration calls inside an epoch are not part of it
    assert [e["s"] for e in epochs] == pytest.approx([9.5, 3.5, 4.0])
    assert [e["steps"] for e in epochs] == [[2.0, 4.0], [1.0], [1.0]]
    assert [e["step_at"] for e in epochs] == [[1.0, 4.0], [11.0], [22.0]]
    assert evals_of(dump) == [{"fold": 3, "call": 0, "t": 14.0, "s": 1.0, "graphs": 9},
                              {"fold": 3, "call": 1, "t": 15.0, "s": 0.5, "graphs": 9},
                              {"fold": 4, "call": 0, "t": 25.0, "s": 2.0, "graphs": 10}]


def test_units_are_scaled_by_the_kernel_speed_around_them():
    nominal = calibrate.NOMINAL_S
    fast = [(float(t), nominal) for t in range(10)]
    slow = [(float(t), 2 * nominal) for t in range(10, 20)]
    speed = calibrate.Speed(fast + slow)
    assert speed.scale(1.0, 2.5) == pytest.approx(1.0)
    assert speed.scale(1.0, 16.5) == pytest.approx(0.5)
    # the window straddles the change: the median of 4 fast and 4 slow samples
    assert speed.kernel_s(10.0) == pytest.approx(1.5 * nominal)


def test_each_unit_is_timed_as_its_mean_over_the_repeats():
    samples = [((1, 0), 5.0), ((0, 0), 2.0), ((0, 0), 1.0), ((0, 0), 3.0)]
    assert run.mean_over_repeats(samples) == {(0, 0): 2.0, (1, 0): 5.0}
    assert list(run.mean_over_repeats(samples)) == [(0, 0), (1, 0)]


@pytest.mark.parametrize("spec", [graphs.SMALL_MOLECULES, graphs.LARGE_SPARSE])
def test_generated_sets_are_connected_seeded_and_keep_their_sizes(spec, tmp_path):
    from dsgc.data import prepare_dataset

    first, labels = graphs.generate(spec, 3)
    again, _ = graphs.generate(spec, 3)
    other, _ = graphs.generate(spec, 4)
    assert all(n == m and np.array_equal(e, f) for (n, e), (m, f) in zip(first, again))
    assert sorted(n for n, _ in first) == sorted(n for n, _ in other)
    assert any(not np.array_equal(e, f) for (_, e), (_, f) in zip(first, other))
    summary = graphs.write_tu(first, labels, tmp_path / spec.name, spec.name)
    ds = prepare_dataset(str(tmp_path / spec.name))
    assert len(ds.graphs) == summary["graphs"] == len(spec.sizes)
    assert ds.num_classes == summary["classes"] == 2
    assert [g.n for g in ds.graphs] == [n for n, _ in first]
    assert summary["mean_edges"] == pytest.approx(np.mean([g.num_edges for g in ds.graphs]))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_run_times_enough_steps_for_p90(name):
    workload = run.WORKLOADS[name]
    n = len(workload.graphs.sizes)
    labeled = min(round(0.5 * n), n - math.ceil(n / workload.folds))  # default label ratio
    assert workload.epochs * workload.folds * labeled >= run.MIN_STEPS
