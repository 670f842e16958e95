"""The pass/fail logic of `.github/workflows/tier1.yml`: its two heredoc
gate scripts, cut out of the workflow text and run on made-up reports."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTAG = [f"test_{name}" for name in
         ("dataset_suite", "overfit_oracle", "desk_scale_reproduction", "sweep_smoke")]


def gate_scripts():
    """The workflow's `python - <<'PY'` ... `PY` scripts, in file order."""
    scripts, body = [], None
    for line in (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines():
        if body is None:
            if line.strip() == "python - <<'PY'":
                body = []
        elif line.strip() == "PY":
            scripts.append(textwrap.dedent("\n".join(body)) + "\n")
            body = None
        else:
            body.append(line)
    assert body is None and len(scripts) == 2, "expected two closed heredoc scripts"
    return scripts


def run_gate(index, cwd):
    return subprocess.run([sys.executable, "-"], input=gate_scripts()[index], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def write_report(path, mutag_failed, extra=(), kind="failure"):
    """A junit report: the MUTAG tests in `mutag_failed` fail and the others
    pass, one more test passes, and each (classname, name) in `extra` fails."""
    cases = [("tests.test_acceptance", name, name in mutag_failed) for name in MUTAG]
    cases += [("tests.test_cli.TestTrain", "test_ok", False)] + [(*e, True) for e in extra]
    rows = "".join(
        f'<testcase classname="{cls}" name="{name}">'
        + (f'<{kind} message="boom"/>' if bad else "") + "</testcase>"
        for cls, name, bad in cases)
    path.write_text(f'<testsuites><testsuite name="pytest">{rows}</testsuite></testsuites>')


class TestTier1Gate:
    def test_only_the_mutag_failures_pass(self, tmp_path):
        write_report(tmp_path / "tier1.xml", MUTAG)
        done = run_gate(0, tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "5 test cases, 4 failed" in done.stdout

    @pytest.mark.parametrize("kind", ["failure", "error"])
    def test_one_more_failure_fails_naming_it(self, tmp_path, kind):
        extra = [("tests.test_cli.TestTrain", "test_broken")]
        write_report(tmp_path / "tier1.xml", MUTAG, extra, kind=kind)
        done = run_gate(0, tmp_path)
        assert done.returncode == 1
        assert "UNEXPECTED: tests.test_cli.TestTrain::test_broken" in done.stdout

    def test_a_mutag_test_that_passes_fails_naming_it(self, tmp_path):
        write_report(tmp_path / "tier1.xml", MUTAG[:3])
        done = run_gate(0, tmp_path)
        assert done.returncode == 1
        assert ("expected to fail but did not: tests.test_acceptance::test_sweep_smoke"
                in done.stdout)


class TestBenchmarkGate:
    @staticmethod
    def write_log(tmp_path, correct):
        """BENCHMARK.json beside a bench.log with one result line per entry
        of `correct`, each after a report line like those run.py prints."""
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        lines = []
        for name, ok in zip(names, correct):
            lines.append(f"workload {name}  seed 0  trace 0")
            lines.append(json.dumps({"correct": ok, "attempted": 12, "failed": 0,
                                     "metrics": {}}))
        (tmp_path / "bench.log").write_text("\n".join(lines) + "\n")
        return len(names)

    def test_every_workload_correct_passes(self, tmp_path):
        assert self.write_log(tmp_path, [True, True]) == 2
        done = run_gate(1, tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "2 result lines" in done.stdout

    @pytest.mark.parametrize("correct", [[True, False], [False, True], [True]])
    def test_an_incorrect_or_missing_workload_fails(self, tmp_path, correct):
        self.write_log(tmp_path, correct)
        assert run_gate(1, tmp_path).returncode == 1
