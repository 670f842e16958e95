"""Contrastive/supervised loss oracles, objective arithmetic, train_step."""

import math

import numpy as np
import pytest

from dsgc import autodiff as ad
from dsgc.autodiff import Adam, Tensor
from dsgc.data import Graph, synthesize_features
from dsgc.encoders import (
    EUCLIDEAN,
    HYPERBOLIC,
    GraphEmbedding,
    GraphEncoder,
    Predictor,
    encode_euclidean,
    encode_hyperbolic,
    predict,
)
from dsgc.errors import ContractError
from dsgc.losses import (
    Batch,
    DsgcModel,
    LossConfig,
    ViewSampler,
    _nce,
    info_nce_labeled,
    info_nce_unlabeled,
    supervised_loss,
    to_hyperbolic,
    total_objective,
    train_step,
)
from dsgc.poincare import PoincareBall


def hyp(point):
    return GraphEmbedding(Tensor(np.atleast_2d(point)), HYPERBOLIC)


def euc(point):
    return GraphEmbedding(Tensor(np.atleast_2d(point)), EUCLIDEAN)


def toy_graphs():
    """Three small connected graphs with degree-one-hot features (F = 4)."""
    path = Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)], label=0)
    star = Graph(n=5, edges=[(0, 1), (0, 2), (0, 3), (0, 4)], label=1)
    tri = Graph(n=4, edges=[(0, 1), (0, 2), (1, 2), (2, 3)], label=1)
    return [synthesize_features(g, cap=3) for g in (path, star, tri)]


def build_model(seed, in_dim=4, d=8, num_classes=2, layers=2):
    enc_e = GraphEncoder("gcn", in_dim, d, layers, np.random.default_rng(seed))
    enc_h = GraphEncoder("gin", in_dim, d, layers, np.random.default_rng(seed + 1))
    pred = Predictor(d, num_classes, np.random.default_rng(seed + 2))
    return DsgcModel(enc_e, enc_h, pred, PoincareBall())


class TestConfigAndBatch:
    def test_temperature_must_be_positive(self):
        for t in (0.0, math.inf, math.nan):
            with pytest.raises(ContractError):
                LossConfig(temperature=t)

    def test_negative_weights_rejected(self):
        for w in (-0.1, math.inf, math.nan):  # and non-finite ones
            with pytest.raises(ContractError):
                LossConfig(omega=w)
            with pytest.raises(ContractError):
                LossConfig(lambda_u=w)

    def test_batch_needs_label_and_unlabeled(self):
        g_l, g_u, _ = toy_graphs()
        unlabeled = Graph(n=g_u.n, edges=g_u.edges, features=g_u.features)
        with pytest.raises(ContractError):
            Batch(labeled=unlabeled, unlabeled=[g_l])
        with pytest.raises(ContractError):
            Batch(labeled=g_l, unlabeled=[])


class TestToHyperbolic:
    def test_zero_maps_to_origin(self):
        ball = PoincareBall()
        out = to_hyperbolic(euc(np.zeros((2, 3))), ball)
        assert out.space == HYPERBOLIC
        assert np.allclose(out.values, 0.0)

    def test_radial_worked_value(self):
        ball = PoincareBall()
        emb = euc([0.5, 0.0])
        out = to_hyperbolic(emb, ball)
        assert abs(out.values[0, 0] - np.tanh(0.5)) < 1e-12

    def test_rejects_hyperbolic_input(self):
        ball = PoincareBall()
        with pytest.raises(ContractError):
            to_hyperbolic(hyp([0.1, 0.0]), ball)


class TestInfoNce:
    def test_equal_scores_give_ln_n_plus_one_exactly(self):
        # all embeddings coincide, so every similarity hits the cap and the
        # shifted logsumexp must reduce to ln(N + 1) with no rounding slack
        ball = PoincareBall()
        cfg = LossConfig(temperature=1.0)
        for n_neg in (1, 2, 3):
            point = [0.3, 0.4]
            loss = info_nce_labeled(
                hyp(point), hyp(point), [hyp(point) for _ in range(n_neg)],
                ball, cfg,
            )
            assert abs(loss.item() - math.log(n_neg + 1)) < 1e-12

    def test_score_level_worked_values(self):
        # s+ = 10, s- = 0, t = 1  ->  log(1 + e^-10)
        loss = _nce(Tensor([[10.0]]), Tensor([[0.0]]), 1.0)
        assert abs(loss.item() - np.log1p(np.exp(-10.0))) < 1e-12
        assert abs(loss.item() - 4.5398899216870535e-05) < 1e-12
        # s+ = 0, s- = 10, t = 100  ->  log(1 + e^0.1)
        loss = _nce(Tensor([[0.0]]), Tensor([[10.0]]), 100.0)
        assert abs(loss.item() - np.log1p(np.exp(0.1))) < 1e-12

    def test_labeled_embedding_route_worked_value(self):
        # radial points: dist(0, r) = 2 artanh(r), so tanh(1/4) sits at
        # geodesic distance 1/2 (sim 2) and tanh(1/2) at distance 1 (sim 1)
        ball = PoincareBall()
        cfg = LossConfig(temperature=1.0)
        h_l = hyp([np.tanh(0.25), 0.0])
        h_eh = hyp([0.0, 0.0])
        h_u = hyp([0.0, np.tanh(0.5)])
        loss = info_nce_labeled(h_l, h_eh, [h_u], ball, cfg)
        assert abs(loss.item() - np.log1p(np.exp(-1.0))) < 1e-9

    def test_unlabeled_embedding_route_worked_value(self):
        ball = PoincareBall()
        cfg = LossConfig(temperature=1.0)
        h_u_hyp = hyp([np.tanh(0.25), 0.0])
        h_u_eh = hyp([0.0, 0.0])
        h_l = hyp([0.0, np.tanh(0.5)])
        loss = info_nce_unlabeled(h_u_hyp, h_u_eh, h_l, ball, cfg)
        assert abs(loss.item() - np.log1p(np.exp(-1.0))) < 1e-9

    def test_temperature_rescales_scores(self):
        ball = PoincareBall()
        h_l = hyp([np.tanh(0.25), 0.0])
        h_eh = hyp([0.0, 0.0])
        h_u = hyp([0.0, np.tanh(0.5)])
        loss = info_nce_labeled(h_l, h_eh, [h_u], ball, LossConfig(temperature=2.0))
        assert abs(loss.item() - np.log1p(np.exp(-0.5))) < 1e-9

    def test_positive_and_finite_on_random_embeddings(self):
        ball = PoincareBall()
        cfg = LossConfig()
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = rng.uniform(-0.5, 0.5, size=(4, 3))
            loss = info_nce_labeled(
                hyp(pts[0]), hyp(pts[1]), [hyp(pts[2]), hyp(pts[3])], ball, cfg
            )
            assert np.isfinite(loss.item())
            assert loss.item() > 0.0

    def test_loss_moves_against_positive_similarity(self):
        # negatives depend only on the e->h view and the unlabeled points,
        # so nudging the labeled hyperbolic view isolates s+
        ball = PoincareBall()
        cfg = LossConfig()
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(200):
            pts = rng.uniform(-0.4, 0.4, size=(3, 2))
            moved = pts[0] + rng.normal(scale=1e-3, size=2)
            # keep the positive pair separated: a near-coincident pair
            # saturates s+ until the loss response underflows doubles
            if (np.linalg.norm(pts[0] - pts[1]) < 0.02
                    or np.linalg.norm(moved - pts[1]) < 0.02):
                continue
            base = ball.geodesic_similarity(Tensor(pts[:1]), Tensor(pts[1:2]))
            loss0 = info_nce_labeled(
                hyp(pts[0]), hyp(pts[1]), [hyp(pts[2])], ball, cfg
            ).item()
            s1 = ball.geodesic_similarity(Tensor([moved]), Tensor(pts[1:2]))
            loss1 = info_nce_labeled(
                hyp(moved), hyp(pts[1]), [hyp(pts[2])], ball, cfg
            ).item()
            ds = s1.item() - base.item()
            if abs(ds) < 1e-12:
                continue
            checked += 1
            assert (loss1 - loss0) * ds < 0.0
        assert checked > 150

    def test_space_and_arity_contracts(self):
        ball = PoincareBall()
        cfg = LossConfig()
        e = euc([0.1, 0.1])
        h = hyp([0.1, 0.1])
        with pytest.raises(ContractError):
            info_nce_labeled(e, h, [h], ball, cfg)
        with pytest.raises(ContractError):
            info_nce_labeled(h, h, [], ball, cfg)
        with pytest.raises(ContractError):
            info_nce_unlabeled(h, e, h, ball, cfg)
        with pytest.raises(ContractError, match="differ in rows"):
            info_nce_unlabeled(hyp([[0.1, 0.1], [0.2, 0.0]]), h, h, ball, cfg)


class TestSupervisedLoss:
    def test_uniform_binary_is_two_ln_two(self):
        loss = supervised_loss(Tensor([[0.5, 0.5]]), 0)
        assert abs(loss.item() - 2 * math.log(2)) < 1e-12

    def test_near_perfect_prediction(self):
        p = Tensor([[1.0 - 1e-9, 1e-9]])
        loss = supervised_loss(p, 0)
        assert abs(loss.item() - 2e-9) < 1e-12

    def test_saturated_wrong_prediction_stays_finite(self):
        loss = supervised_loss(Tensor([[1.0, 0.0]]), 1)
        assert np.isfinite(loss.item())
        assert abs(loss.item() - 2 * -math.log(1e-15)) < 1e-9

    def test_monotone_in_true_class_probability(self):
        prev = None
        for p_true in (0.1, 0.3, 0.5, 0.7, 0.9):
            loss = supervised_loss(Tensor([[0.2, p_true]]), 1).item()
            if prev is not None:
                assert loss < prev
            prev = loss

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            supervised_loss(Tensor([[0.5, 0.5]]), 2)


class TestTotalObjective:
    def scalar(self, x):
        return Tensor([[float(x)]])

    def test_worked_value(self):
        cfg = LossConfig(temperature=1.0, lambda_u=1.0, omega=0.01)
        total = total_objective(
            self.scalar(1.0), self.scalar(0.5),
            [self.scalar(0.4), self.scalar(0.6)], cfg,
        )
        assert abs(total.item() - 1.01) < 1e-12

    def test_omega_zero_returns_supervised_object(self):
        cfg = LossConfig(omega=0.0)
        sup = self.scalar(0.7)
        total = total_objective(sup, self.scalar(9.0), [self.scalar(9.0)], cfg)
        assert total is sup

    def test_lambda_u_zero_keeps_labeled_term(self):
        cfg = LossConfig(lambda_u=0.0, omega=0.5)
        total = total_objective(
            self.scalar(1.0), self.scalar(0.4), [self.scalar(100.0)], cfg
        )
        assert abs(total.item() - (1.0 + 0.5 * 0.4)) < 1e-12

    def test_affine_in_omega(self):
        slope = 0.3 + 0.5 * (0.2 + 0.9)
        for omega in (0.0, 1e-3, 0.01, 0.1, 1.0):
            cfg = LossConfig(omega=omega)
            total = total_objective(
                self.scalar(0.7), self.scalar(0.3),
                [self.scalar(0.2), self.scalar(0.9)], cfg,
            )
            assert abs(total.item() - (0.7 + omega * slope)) < 1e-12

    def test_needs_unlabeled_terms(self):
        with pytest.raises(ContractError):
            total_objective(self.scalar(1.0), self.scalar(0.5), [], LossConfig())


class TestViewSampler:
    def test_same_seed_same_views(self):
        g = toy_graphs()[1]
        a = ViewSampler(0.8, 0.8, seed=5)
        b = ViewSampler(0.8, 0.8, seed=5)
        assert np.array_equal(a.euclidean_view(g).orig_ids, b.euclidean_view(g).orig_ids)
        assert np.array_equal(a.hyperbolic_view(g).orig_ids, b.hyperbolic_view(g).orig_ids)

    def test_views_are_connected_subgraphs(self):
        g = toy_graphs()[2]
        vs = ViewSampler(0.5, 0.5, seed=0)
        for view in (vs.euclidean_view(g), vs.hyperbolic_view(g)):
            assert view.n == 2
            assert view.is_connected()


class TestTrainStep:
    def step_once(self, omega, lr=1e-3, seed=0):
        g0, g1, g2 = toy_graphs()
        model = build_model(seed)
        cfg = LossConfig(omega=omega)
        opt = Adam(model.params, lr=lr)
        views = ViewSampler(0.8, 0.8, seed=seed)
        batch = Batch(labeled=g0, unlabeled=[g1, g2])
        return model, train_step(batch, model, views, cfg, opt)

    def test_metrics_are_consistent(self):
        _, m = self.step_once(omega=0.01)
        assert np.isfinite([m.total, m.supervised, m.contrastive]).all()
        assert abs(m.total - (m.supervised + 0.01 * m.contrastive)) < 1e-9
        assert m.prediction.shape == (2,)
        assert ((m.prediction > 0) & (m.prediction < 1)).all()

    def test_every_parameter_gets_gradient(self):
        model, _ = self.step_once(omega=0.01, lr=0.0)
        for t in model.params:
            assert np.abs(t.grad).max() > 0.0

    @pytest.mark.parametrize("kind_e,kind_h,mobius", [
        ("gcn", "gin", False), ("graphsage", "gat", False),
        ("gat", "graphsage", True), ("gin", "gin", True),
    ])
    def test_only_parameters_are_leaves(self, monkeypatch, kind_e, kind_h, mobius):
        # graph features, masks and ball constants stay plain arrays, so the
        # objective's tape ends at the model's parameters and nowhere else
        g0, g1, g2 = toy_graphs()
        rng = np.random.default_rng(5)
        model = DsgcModel(
            GraphEncoder(kind_e, 4, 8, 2, rng),
            GraphEncoder(kind_h, 4, 8, 2, rng, mobius=mobius),
            Predictor(8, 2, rng), PoincareBall(0.5),
        )
        roots = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: (roots.append(root), backward(root)))
        train_step(Batch(labeled=g0, unlabeled=[g1, g2]), model, ViewSampler(0.8, 0.8, 2),
                   LossConfig(omega=0.01), Adam(model.params, lr=1e-3))
        seen, stack, leaves = {id(roots[0])}, [roots[0]], set()
        while stack:
            node = stack.pop()
            assert isinstance(node, Tensor)
            if not node._parents:
                leaves.add(id(node))
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert leaves == {id(t) for t in model.params}

    def test_omega_zero_skips_contrastive_half(self):
        g0, g1, _ = toy_graphs()
        model = build_model(3)
        before = [t.values.copy() for t in model.encoder_h.params]
        cfg = LossConfig(omega=0.0)
        opt = Adam(model.params, lr=1e-3)
        m = train_step(Batch(g0, [g1]), model, ViewSampler(0.8, 0.8, 1), cfg, opt)
        assert m.contrastive == 0.0
        assert m.total == m.supervised
        for t, v in zip(model.encoder_h.params, before):
            assert np.array_equal(t.values, v)

    def test_loss_decreases_on_fixed_batch(self):
        g0, g1, g2 = toy_graphs()
        for seed in range(10):
            model = build_model(100 + seed)
            cfg = LossConfig(omega=0.01)
            opt = Adam(model.params, lr=1e-3)
            views = ViewSampler(1.0, 1.0, seed=seed)
            batch = Batch(labeled=g0, unlabeled=[g1, g2])
            totals = [train_step(batch, model, views, cfg, opt).total
                      for _ in range(10)]
            assert totals[-1] < totals[0], f"seed {seed}: {totals[0]} -> {totals[-1]}"

    def test_two_graph_overfit(self):
        g0, g1, _ = toy_graphs()
        model = build_model(7)
        cfg = LossConfig(omega=0.0)
        opt = Adam(model.params, lr=0.01)
        views = ViewSampler(1.0, 1.0, seed=0)
        batches = [Batch(g0, [g1]), Batch(g1, [g0])]
        for step in range(200):
            train_step(batches[step % 2], model, views, cfg, opt)
        for g in (g0, g1):
            p = predict(encode_euclidean(g, model.encoder_e), model.predictor)
            assert int(np.argmax(p.values)) == g.label


def gradcheck_model():
    model = build_model(42, d=4)
    # move zero-initialized biases off the relu kink, where central
    # differences and the one-sided analytic convention disagree
    gen = np.random.default_rng(99)
    for t in model.params:
        if not t.values.any():
            t.values[...] = gen.uniform(0.01, 0.05, size=t.values.shape)
    return model


class TestFullObjectiveGradcheck:
    def test_frozen_batch_matches_finite_differences(self):
        g0, g1, g2 = toy_graphs()
        model = gradcheck_model()
        cfg = LossConfig(omega=0.01)
        vs = ViewSampler(0.8, 0.8, seed=3)
        v_e = {id(g): vs.euclidean_view(g) for g in (g0, g1, g2)}
        v_h = {id(g): vs.hyperbolic_view(g) for g in (g0, g1, g2)}

        def objective():
            h_e_l = encode_euclidean(v_e[id(g0)], model.encoder_e)
            sup = supervised_loss(predict(h_e_l, model.predictor), g0.label)
            h_h_l = encode_hyperbolic(v_h[id(g0)], model.encoder_h, model.ball)
            h_eh_l = to_hyperbolic(h_e_l, model.ball)
            u_hyps, u_terms = [], []
            for g_u in (g1, g2):
                h_h_u = encode_hyperbolic(v_h[id(g_u)], model.encoder_h, model.ball)
                h_eh_u = to_hyperbolic(
                    encode_euclidean(v_e[id(g_u)], model.encoder_e), model.ball
                )
                u_hyps.append(h_h_u)
                u_terms.append(
                    info_nce_unlabeled(h_h_u, h_eh_u, h_h_l, model.ball, cfg)
                )
            l_term = info_nce_labeled(h_h_l, h_eh_l, u_hyps, model.ball, cfg)
            return total_objective(sup, l_term, u_terms, cfg)

        err = ad.finite_difference_gradcheck(objective, model.params, h=1e-5)
        assert err < 1e-4, f"worst relative gradient error {err}"

    def test_train_step_gradient_matches_finite_differences(self):
        # the row-stacked objective exactly as train_step builds it: an
        # lr-0 optimizer keeps the parameters put, and train_step's own
        # backward leaves the analytic gradient in .grad
        g0, g1, g2 = toy_graphs()
        model = gradcheck_model()
        batch, views = Batch(g0, [g1, g2, g0]), ViewSampler(0.8, 0.8, seed=3)
        cfg, frozen = LossConfig(omega=1.0), Adam(model.params, lr=0.0)

        def objective():
            return Tensor(train_step(batch, model, views, cfg, frozen).total)

        err = ad.finite_difference_gradcheck(objective, model.params, h=1e-5)
        assert err < 1e-4, f"worst relative gradient error {err}"
