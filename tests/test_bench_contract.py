"""The names the benchmark in perfbench/ wraps by lookup.

perfbench/workload.py installs its timers where dsgc looks these names up
(module globals and class attributes) and counts tape nodes through
`Tensor._parents` and gradient bytes through `Tensor.grad`. A refactor that
drops or renames one of them breaks the benchmark, so it fails here first.
The list mirrors the standing constraints in ROADMAP.md.
"""

import importlib

import numpy as np
import pytest

from dsgc import autodiff as ad

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
