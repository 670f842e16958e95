"""The names the benchmark in perfbench/ wraps by lookup.

perfbench/workload.py installs its timers where dsgc looks these names up
(module globals and class attributes) and counts tape nodes through
`Tensor._parents` and gradient bytes through `Tensor.grad`. A refactor that
drops or renames one of them breaks the benchmark, so it fails here first.
The list mirrors the standing constraints in ROADMAP.md.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_dataset
from dsgc import autodiff as ad
from dsgc.data import write_tu_dataset

ROOT = Path(__file__).resolve().parents[1]
# the traced child's autodiff.tensors_per_step on the tiny set: 6 layers, 2 readouts,
# the hyperbolic exp0 and the objective node
TENSORS_PER_STEP = 10

WRAPPED = [
    "experiment.train_step",
    "experiment._EpochViews.set_epoch",
    "experiment._EpochViews.euclidean_view",
    "experiment._EpochViews.hyperbolic_view",
    "experiment.evaluate_accuracy",
    "experiment._train_fold",
    "experiment.prepare_dataset",
    "experiment.diffusion_sample",
    "experiment.community_expansion_sample",
    "experiment.encode_euclidean",
    "experiment.predict",
    "losses.encode_euclidean",
    "losses.encode_hyperbolic",
    "losses.predict",
    "losses.info_nce_labeled",
    "losses.info_nce_unlabeled",
    "losses.supervised_loss",
    "poincare.PoincareBall.geodesic_similarity",
    "poincare.PoincareBall.expmap0",
    "poincare.PoincareBall.logmap0",
    "poincare.PoincareBall.project",
    "poincare.PoincareBall.mobius_matvec",
    "poincare.PoincareBall.mobius_bias_add",
    "poincare.PoincareBall.hyperbolic_activation",
    "autodiff.Adam.step",
    "autodiff.Tensor.__init__",
    "autodiff.backward",
    "experiment.ExperimentConfig.from_dict",
    "experiment.run_experiment",
]


@pytest.mark.parametrize("dotted", WRAPPED)
def test_wrapped_name_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"dsgc.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"dsgc.{dotted} is gone"
        obj = getattr(obj, attr)
    assert callable(obj)


def test_tensor_keeps_parents_and_grad():
    x = ad.Tensor([[1.0, 2.0]])
    y = ad.mul(x, x)
    assert x._parents == () and isinstance(x.grad, np.ndarray)
    assert y._parents == (x, x) and y.grad is None


def test_traced_benchmark_child_runs_on_a_tiny_set(tmp_path):
    # the traced child wraps the encoders and reads `.n` off their first
    # argument; a batch object without it fails here before the benchmark
    write_tu_dataset(synthetic_dataset(), str(tmp_path / "data" / "RINGS"))
    spec = {
        "src": str(ROOT / "src"),
        "traced": True,
        "eval_calls": 2,
        "setup_probes": 1,
        "data_dir": str(tmp_path / "data"),
        "config": {"dataset": "RINGS", "seed": 0, "epochs": 1, "folds": 2},
    }
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "workload.py"),
                    str(spec_path), str(out_path)], env=env, cwd=str(ROOT), timeout=300)
    out = json.loads(out_path.read_text())
    assert out["error"] is None, out["error"]
    assert out["steps"] > 0 and out["nonfinite_steps"] == 0
    assert out["layers"]["encoders.view_nodes_per_step"] > 0
    # the provider samples each space once per fold-epoch through the wrapped
    # globals; sampling around them would leave these spans reading 0
    passes = spec["config"]["folds"] * spec["config"]["epochs"]
    assert out["layers"]["samplers.diffusion.calls"] == passes
    assert out["layers"]["samplers.community.calls"] == passes
    # every step builds the same tape, so the count repeats exactly
    assert out["layers"]["autodiff.tensors_per_step"] <= TENSORS_PER_STEP
