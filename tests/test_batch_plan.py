"""Planned batches against GraphBatch, field by field and bit for bit.

`encoders.BatchPlan` builds the batches of many steps in one pass. Batch s
must equal `GraphBatch` of the same views, and encoders must give equal
outputs and gradients on both under np.array_equal. `GraphBatch` is itself
the one-row plan, so these tests pin the offsets of plans of many rows: a
view twice in one step and again in later steps, batches of one, graphs
without cached degree classes, and every kind in each space. Training
serves its steps from `experiment._EpochViews`, whose batches must equal
those built step by step from the views it serves.
"""

import dataclasses

import numpy as np
import pytest

from conftest import assert_same_batch, synthetic_dataset
from dsgc import autodiff as ad
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import (
    BatchPlan,
    EncoderKind,
    GraphBatch,
    GraphEncoder,
    encode_euclidean,
    encode_hyperbolic,
)
from dsgc.errors import ContractError
from dsgc.experiment import ExperimentConfig, _EpochViews, _train_fold, split_folds
from dsgc.poincare import PoincareBall
from dsgc.samplers import SamplerConfig, community_expansion_sample, diffusion_sample

CAP = 4
ROWS = {
    "repeats": [[2, 0, 5], [1, 1, 4], [5, 3, 0], [4, 2, 2]],  # view 1 twice in step 1
    "batches-of-one": [[3], [0], [3]],
}
SOURCES = ["parents", "diffusion", "community"]
CLASSES = ["cached", "none", "mixed"]  # mixed: the last graph has none
SPACES = ["euclidean", "tangent", "mobius"]


def parent_graphs(seed=0):
    """Connected graphs with one-hot degree features: a single node, a
    pair and larger graphs, some degrees above the cap."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in (6, 1, 9, 2, 13, 7):
        edges = {(int(rng.integers(v)), v) for v in range(1, n)}
        for _ in range(n):
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            if a != b:
                edges.add((a, b))
        g = Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2), label=n % 2)
        graphs.append(synthesize_features(g, cap=CAP))
    return graphs


def graphs_from(source, classes):
    graphs = parent_graphs()
    if source != "parents":
        sampler = diffusion_sample if source == "diffusion" else community_expansion_sample
        graphs = sampler(graphs, [SamplerConfig(0.7, seed) for seed in range(len(graphs))])
    drop = {"cached": 0, "none": len(graphs), "mixed": 1}[classes]
    keep = len(graphs) - drop
    return graphs[:keep] + [dataclasses.replace(g, features=g.features) for g in graphs[keep:]]


def plan_of(graphs, rows):
    """The plan training builds: over featureless stand-ins writing one-hot
    rows when every graph caches its classes, else over the graphs."""
    if all("classes" in g.cache for g in graphs):
        bare = [Graph.unchecked(g.n, g.edges, None, g.label, g.orig_ids, g.cache) for g in graphs]
        return BatchPlan(bare, rows, graphs[0].features.shape[1])
    return BatchPlan(graphs, rows)


@pytest.mark.parametrize("classes", CLASSES)
@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("rows", sorted(ROWS))
def test_planned_batches_equal_graph_batches(rows, source, classes):
    graphs, rows = graphs_from(source, classes), ROWS[rows]
    plan = plan_of(graphs, rows)
    assert (plan.width is None) == (classes != "cached")
    lacking = any("classes" not in graphs[i].cache for row in rows for i in row)
    assert lacking == (classes == "none" or (classes == "mixed" and rows is ROWS["repeats"]))
    for s, row in enumerate(rows):
        got, want = plan.batch(s), GraphBatch([graphs[i] for i in row])
        if lacking:  # a plan with a graph lacking classes gives them to no batch
            assert got.classes is None
            want.classes = None
        assert_same_batch(got, want)


def make_encoder(kind, space, seed=0):
    """An encoder whose parameters, biases included, are all nonzero."""
    enc = GraphEncoder(kind, in_dim=CAP + 1, hidden_dim=5, num_layers=2,
                       rng=np.random.default_rng(seed), mobius=space == "mobius")
    rng = np.random.default_rng(seed + 1)
    for t in enc.params:
        t.values[...] = rng.uniform(-0.5, 0.5, t.values.shape)
    return enc


def outputs_and_gradients(batch, enc, space, ball):
    for p in enc.params:
        p.zero_grad()
    if space == "euclidean":
        rows = encode_euclidean(batch, enc).tensor
    else:
        rows = encode_hyperbolic(batch, enc, ball).tensor
    weights = np.random.default_rng(9).uniform(-1.0, 1.0, rows.shape)
    ad.backward(ad.asum(ad.mul(rows, weights)))
    return rows.values.copy(), [p.grad.copy() for p in enc.params]


@pytest.mark.parametrize("classes", CLASSES)  # mixed: dense first layers against the classes
@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("kind", [k.value for k in EncoderKind])
def test_encoders_give_equal_outputs_and_gradients(kind, space, classes):
    graphs, ball = graphs_from("community", classes), PoincareBall(1.3)
    enc = make_encoder(kind, space)
    for rows in ROWS.values():
        plan = plan_of(graphs, rows)
        for s, row in enumerate(rows):
            got = outputs_and_gradients(plan.batch(s), enc, space, ball)
            want = outputs_and_gradients(GraphBatch([graphs[i] for i in row]), enc, space, ball)
            assert np.array_equal(got[0], want[0])
            assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


FAST = dict(dataset="RINGS", epochs=2, hidden_dim=4, num_layers=2, folds=4,
            learning_rate=1e-3, degree_cap=8)


def rings(classes=True):
    graphs = [synthesize_features(g, cap=8) for g in synthetic_dataset().graphs]
    if not classes:
        graphs = [dataclasses.replace(g, features=g.features) for g in graphs]
    return graphs


@pytest.mark.parametrize("classes", [True, False])
@pytest.mark.parametrize("omega", [0.01, 0.0])
def test_epoch_views_serve_the_batches_of_their_views(omega, classes):
    graphs, cfg = rings(classes), ExperimentConfig(**FAST, omega=omega, batch_size=3)
    rows = np.array([[4, 9, 9], [0, 3, 11], [7, 11, 4]])  # graph 9 twice in step 0
    views = _EpochViews(cfg, graphs, 1)
    views.set_epoch(2)
    views.plan(rows if omega else rows[:, :1])
    for row in (rows if omega else rows[:, :1]).tolist():
        step = [graphs[i] for i in row]
        got_e, got_h = views.batches(step, hyperbolic=bool(omega))
        assert_same_batch(got_e, GraphBatch([views.euclidean_view(g) for g in step]))
        if omega:
            assert_same_batch(got_h, GraphBatch([views.hyperbolic_view(g) for g in step]))
        else:
            assert got_h is None
        assert all((v.features is None) == classes for v in got_e.graphs)


def test_a_batch_outside_the_plan_is_a_contract_error():
    graphs, cfg = rings(), ExperimentConfig(**FAST)
    views = _EpochViews(cfg, graphs, 2)
    views.set_epoch(1)
    views.plan([[0, 1, 2], [3, 4, 5]])
    for step in ([0, 2, 1], [0, 1], [3, 4, 5, 6]):
        with pytest.raises(ContractError, match=r"not a batch of the plan of fold 2, epoch 1"):
            views.batches([graphs[i] for i in step])
    foreign = synthesize_features(graphs[0], cap=8)
    with pytest.raises(ContractError, match=r"\[None, 1, 2\] are not a batch"):
        views.batches([foreign, graphs[1], graphs[2]])


def per_step_batches(views, graphs, hyperbolic=True):
    """A step's batches as the step built them one by one from the views."""
    return (GraphBatch([views.euclidean_view(g) for g in graphs]),
            GraphBatch([views.hyperbolic_view(g) for g in graphs]) if hyperbolic else None)


@pytest.mark.parametrize("classes", [True, False])
@pytest.mark.parametrize("setting", [
    {}, {"omega": 0.0},
    {"euclidean_encoder": "gat", "hyperbolic_encoder": "graphsage", "mobius_layers": True},
    {"euclidean_encoder": "graphsage", "hyperbolic_encoder": "gat"},
    {"euclidean_encoder": "gin", "hyperbolic_encoder": "gcn"},
])
def test_a_fold_trains_as_on_batches_built_step_by_step(monkeypatch, setting, classes):
    # 18 labeled graphs leave an unlabeled pool of 6 for 7 negatives a step,
    # so every step holds one view twice
    graphs = rings(classes)
    cfg = ExperimentConfig(**FAST, label_ratio=0.9, batch_size=8, **setting)
    split = split_folds(dataclasses.replace(synthetic_dataset(), graphs=graphs), cfg)[0]
    assert len(split.unlabeled) < cfg.batch_size - 1
    planned = _train_fold(cfg, graphs, 2, split, 0)
    monkeypatch.setattr(_EpochViews, "batches", per_step_batches)
    built = _train_fold(cfg, graphs, 2, split, 0)
    assert planned[0] == built[0]
    assert np.array_equal(planned[1], built[1])
