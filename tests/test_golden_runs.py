"""Golden outputs of short training runs, for configs perfbench/reference.json
does not cover. Between them the configs run every encoder kind in both
spaces, and the `NO_CLASSES` runs train on graphs without cached degree
classes.

Each config trains RINGS (`conftest.synthetic_dataset`, degree features at
the default cap) for 3 folds x 3 epochs; its fold accuracies and loss traces
must match `golden_runs.json` to 1e-12 relative. A refactor that claims
unchanged outputs must pass this unedited. To regenerate the file after a
deliberate change of outputs:

    PYTHONPATH=src:tests python tests/test_golden_runs.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_dataset
from dsgc.data import synthesize_features
from dsgc.experiment import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).with_name("golden_runs.json")
BASE = dict(dataset="RINGS", folds=3, epochs=3)
CONFIGS = {
    "default": {},
    "omega0": {"omega": 0.0},
    "label_ratio_0.1": {"label_ratio": 0.1},
    "gat-graphsage-c2": {"euclidean_encoder": "gat", "hyperbolic_encoder": "graphsage",
                         "curvature": 2.0},
    "gat-graphsage-c2-mobius": {"euclidean_encoder": "gat", "hyperbolic_encoder": "graphsage",
                                "curvature": 2.0, "mobius_layers": True},
    "gin-gat-mobius": {"euclidean_encoder": "gin", "hyperbolic_encoder": "gat",
                       "mobius_layers": True},
    "gat-gin-c1.5-mobius": {"euclidean_encoder": "gat", "hyperbolic_encoder": "gin",
                            "curvature": 1.5, "mobius_layers": True},
    "gin-gcn":{"euclidean_encoder": "gin", "hyperbolic_encoder": "gcn"},
    "graphsage-gat": {"euclidean_encoder": "graphsage", "hyperbolic_encoder": "gat"},
    "default-no-classes": {},
}
# graphs that keep their one-hot features but drop the cached degree
# classes (a new Graph starts with an empty cache), so that the first
# layer runs on the dense features
NO_CLASSES = {"default-no-classes"}


def golden_run(name):
    cfg = ExperimentConfig(**BASE, **CONFIGS[name])
    ds = synthetic_dataset()
    graphs = [synthesize_features(g, cfg.degree_cap) for g in ds.graphs]
    if name in NO_CLASSES:
        graphs = [dataclasses.replace(g, features=g.features) for g in graphs]
    ds = dataclasses.replace(ds, graphs=graphs)
    record = run_experiment(cfg, dataset=ds)
    return {"fold_accuracies": record.fold_accuracies,
            "traces": [np.asarray(t).tolist() for t in record.traces]}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_matches_golden_output(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = golden_run(name)
    np.testing.assert_allclose(got["fold_accuracies"], want["fold_accuracies"],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(got["traces"], want["traces"], rtol=1e-12, atol=0)


if __name__ == "__main__":
    runs = {name: golden_run(name) for name in CONFIGS}
    GOLDEN.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
