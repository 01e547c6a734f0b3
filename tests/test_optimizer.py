import math
from dataclasses import replace

import numpy as np
import pytest

from gkm import optimizer as optimizer_mod
from gkm.bounds import compute_bounds
from gkm.data import Dataset, hide_labels, synth_two_gaussians
from gkm.exceptions import (
    EmptyEdgeSetError,
    NoLabeledDataError,
    NonFiniteStateError,
)
from gkm.graph import ExplicitEdges, GraphSpec, build_fully_connected, build_knn
from gkm.harness import solve_reference_optimum
from gkm.kernel import KernelSpec, SparseVector, kernel_matrix_from_sq_dists
from gkm.labelprop import PropagationProblem, solve_exact, threshold_labels
from gkm.losses import LossSpec, SmoothnessSpec, loss_value, lp_value
from gkm.optimizer import (
    ModelState,
    TrainConfig,
    decision_values,
    default_iterations,
    hilbert_norm,
    load_model,
    objective,
    predict,
    predict_batch,
    save_model,
    train,
)

KERNEL = KernelSpec(1.0, 1.0)


def hinge_cfg(T, seed=0, C=1.0, C_prime=0.05, p=2.0, **kw):
    return TrainConfig(
        C=C,
        C_prime=C_prime,
        loss=LossSpec("hinge"),
        smoothness=SmoothnessSpec(p),
        T=T,
        seed=seed,
        **kw,
    )


@pytest.fixture(scope="module")
def small_problem():
    full = synth_two_gaussians(12, 2, 4.0, seed=3)
    hidden, truth = hide_labels(full, 0.5, seed=3)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    return hidden, truth, graph


class TestTrainBasics:
    def test_first_step_closed_form(self, small_problem):
        hidden, _, graph = small_problem
        model, diag = train(hidden, graph, hinge_cfg(T=1), KERNEL, record_iterates=True)
        # at t = 1 the smoothness gradient vanishes (w_1 = 0 so o_edge = 0);
        # only the sampled labeled point moves: coefficient = -C * (-y) = y
        w2 = diag.iterates[-1]
        nz = np.flatnonzero(w2)
        assert nz.size == 1
        i = nz[0]
        assert i < hidden.labeled_count
        assert w2[i] == pytest.approx(float(hidden.labels[i]))
        # averaged iterate equals w_2 after one step
        assert np.allclose(model.beta, w2, rtol=0, atol=0)

    def test_zero_gradients_keep_zero_vector(self):
        # labeled targets already far outside the eps tube, C' edge term uses
        # p >= 2 so its gradient vanishes at w = 0 too: w stays 0 forever
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(3))
        ds = Dataset(pts, np.array([1, -1, 0], dtype=np.int8))
        graph = build_fully_connected(ds, GraphSpec("full", 1.0))
        cfg = TrainConfig(
            C=1.0,
            C_prime=0.05,
            loss=LossSpec("eps-insensitive", epsilon=5.0),
            smoothness=SmoothnessSpec(2.0),
            T=200,
            seed=0,
        )
        model, _ = train(ds, graph, cfg, KERNEL)
        assert np.all(model.beta == 0.0)
        assert hilbert_norm(model) == 0.0

    def test_rejects_unlabeled_only(self):
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(3))
        ds = Dataset(pts, np.zeros(3, dtype=np.int8))
        graph = build_fully_connected(ds, GraphSpec("full", 1.0))
        with pytest.raises(NoLabeledDataError):
            train(ds, graph, hinge_cfg(T=5), KERNEL)

    def test_rejects_empty_edges(self, small_problem):
        hidden, _, _ = small_problem
        empty = ExplicitEdges([], [], [], n=hidden.n)
        with pytest.raises(EmptyEdgeSetError):
            train(hidden, empty, hinge_cfg(T=5), KERNEL)

    def test_graph_must_belong_to_dataset(self):
        """A graph built on another dataset is rejected naming both sizes, and
        an edge list rejects an endpoint outside its n vertices."""
        small, _ = hide_labels(synth_two_gaussians(30, 2, 4.0, seed=0), 0.5, seed=0)
        large, _ = hide_labels(synth_two_gaussians(60, 2, 4.0, seed=0), 0.5, seed=0)
        cfg = hinge_cfg(T=5)
        mismatched = [
            (large, build_fully_connected(small, GraphSpec("full", 1.0))),
            (small, build_fully_connected(large, GraphSpec("full", 1.0))),
            (small, build_knn(large, GraphSpec("knn", 1.0, k=3))),
        ]
        for ds, graph in mismatched:
            sizes = f"graph has {graph.n} vertices but the dataset has {ds.n} points"
            with pytest.raises(ValueError, match=sizes):
                train(ds, graph, cfg, KERNEL)
            with pytest.raises(ValueError, match=sizes):
                objective(np.zeros(ds.n), ds, graph, cfg, KERNEL)
            with pytest.raises(ValueError, match=sizes):
                solve_reference_optimum(ds, graph, cfg, KERNEL)
        with pytest.raises(ValueError, match=r"endpoints must lie in \[0, 3\)"):
            ExplicitEdges([0, 1], [1, 7], [0.5, 0.5], n=3)

    def test_divergent_config_raises_nonfinite(self, small_problem):
        hidden, _, graph = small_problem
        # wildly uncertified: p = 3 with a huge C' blows up |o|^2 growth
        cfg = TrainConfig(
            C=1.0,
            C_prime=500.0,
            loss=LossSpec("hinge"),
            smoothness=SmoothnessSpec(3.0),
            T=5000,
            seed=1,
        )
        with pytest.raises(NonFiniteStateError):
            train(hidden, graph, cfg, KERNEL)

    def test_default_iterations_rule(self):
        assert default_iterations(4000) == 4000
        assert default_iterations(10_000) == 2000

    def test_config_validation(self):
        loss, p = LossSpec("hinge"), SmoothnessSpec(2.0)
        with pytest.raises(ValueError):
            TrainConfig(C=0.0, C_prime=0.05, loss=loss, smoothness=p, T=1)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.0, loss=loss, smoothness=p, T=1)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=0)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=1,
                        objective_mode="bogus")


class TestAveragingIdentity:
    def test_closed_form_matches_recurrence(self, small_problem):
        hidden, _, graph = small_problem
        for T in (1, 2, 7, 60):
            model, diag = train(
                hidden, graph, hinge_cfg(T=T, seed=4), KERNEL, record_iterates=True
            )
            ref = sum((i + 1) * diag.iterates[i] for i in range(T))
            ref *= 2.0 / (T * (T + 1.0))
            stored = model.beta
            assert np.allclose(stored, ref, rtol=1e-10, atol=1e-14)

    def test_identity_over_a_long_run(self, small_problem):
        # the scale 2/(t(t+1)) is below 1e-6 from t = 1414 on
        hidden, _, graph = small_problem
        T = 2000
        model, diag = train(
            hidden, graph, hinge_cfg(T=T, seed=2), KERNEL, record_iterates=True
        )
        ref = sum((i + 1) * diag.iterates[i] for i in range(T)) * (2.0 / (T * (T + 1.0)))
        assert np.allclose(model.beta, ref, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize(
        "loss,p", [("hinge", 2.0), ("logistic", 1.0), ("l1", 3.0)]
    )
    def test_every_step_contracts_by_the_paper_factor(self, small_problem, loss, p):
        # w_{t+1} = (t-1)/(t+1) w_t - 2/(t+1) g_t and g_t - w_t touches at most
        # the sampled labeled point and the two edge endpoints
        hidden, _, graph = small_problem
        cfg = replace(hinge_cfg(T=3000, seed=6, p=p), loss=LossSpec(loss))
        _, diag = train(hidden, graph, cfg, KERNEL, record_iterates=True)
        w = diag.iterates  # w[t - 1] is w_{t+1}
        for t in range(2, cfg.T + 1):
            gap = np.abs(w[t - 1] - (t - 1.0) / (t + 1.0) * w[t - 2])
            tol = 1e-12 * (np.max(np.abs(w[t - 1])) + np.max(np.abs(w[t - 2])))
            assert np.count_nonzero(gap > tol) <= 3, t


class TestDeterminismAndPaths:
    def test_bit_identical_repeat(self, small_problem):
        hidden, _, graph = small_problem
        m1, d1 = train(hidden, graph, hinge_cfg(T=300, seed=9), KERNEL, record_iterates=True)
        m2, d2 = train(hidden, graph, hinge_cfg(T=300, seed=9), KERNEL, record_iterates=True)
        assert np.array_equal(d1.iterates[-1], d2.iterates[-1])
        assert np.array_equal(m1.beta, m2.beta)
        assert np.array_equal(d1.trace_j_avg, d2.trace_j_avg)

    def test_seed_changes_trajectory(self, small_problem):
        hidden, _, graph = small_problem
        m1, _ = train(hidden, graph, hinge_cfg(T=300, seed=0), KERNEL)
        m2, _ = train(hidden, graph, hinge_cfg(T=300, seed=1), KERNEL)
        assert not np.array_equal(m1.beta, m2.beta)

    def test_streaming_path_matches_gram_path(self, small_problem, monkeypatch):
        hidden, _, graph = small_problem
        cfg = hinge_cfg(T=400, seed=5, diagnostics_every=1)
        m_gram, d_gram = train(hidden, graph, cfg, KERNEL)
        monkeypatch.setattr(optimizer_mod, "_GRAM_CAP", 0)
        m_str, d_str = train(hidden, graph, cfg, KERNEL)
        assert np.allclose(m_gram.beta, m_str.beta, rtol=1e-10, atol=1e-14)
        assert np.allclose(d_gram.trace_norm_w, d_str.trace_norm_w, rtol=1e-9, atol=1e-12)
        for d in (d_gram, d_str):  # traced at every step: the maxima are the trace's
            assert d.max_norm_w == np.max(d.trace_norm_w)
            assert d.max_norm_g == np.max(d.trace_norm_g)


class TestNormTracking:
    def test_incremental_norm_matches_quadratic_form(self, small_problem):
        hidden, _, graph = small_problem
        model, diag = train(
            hidden, graph, hinge_cfg(T=500, seed=7, diagnostics_every=500), KERNEL,
            record_iterates=True,
        )
        current = replace(model, beta=diag.iterates[-1])  # w_{T+1}
        assert diag.trace_norm_w[-1] == pytest.approx(hilbert_norm(current), rel=1e-9)
        assert diag.max_norm_w >= diag.trace_norm_w[-1]

    def test_certified_bounds_hold(self, small_problem):
        hidden, _, graph = small_problem
        report = compute_bounds(1.0, 0.05, 2.0, R=1.0, A=1.0)
        assert report.condition_holds
        for seed in range(3):
            _, diag = train(hidden, graph, hinge_cfg(T=2000, seed=seed), KERNEL)
            assert diag.max_norm_w <= report.M * (1 + 1e-6)
            assert diag.max_norm_g <= report.G * (1 + 1e-6)


class TestObjective:
    def test_hinge_at_zero_equals_C(self, small_problem):
        hidden, _, graph = small_problem
        cfg = hinge_cfg(T=1, C=1.7)
        got = objective(np.zeros(hidden.n), hidden, graph, cfg, KERNEL)
        assert got == pytest.approx(1.7, rel=1e-12)

    def test_smoothness_term_zero_at_zero(self, small_problem):
        hidden, _, graph = small_problem
        for p in (1.0, 2.0, 3.0):
            cfg = TrainConfig(
                C=1.0,
                C_prime=5.0,
                loss=LossSpec("hinge"),
                smoothness=SmoothnessSpec(p),
                T=1,
                seed=0,
            )
            got = objective(np.zeros(hidden.n), hidden, graph, cfg, KERNEL)
            assert got == pytest.approx(1.0, rel=1e-12)

    def test_hand_computed_two_point_instance(self):
        # one labeled, one unlabeled point at squared distance 2, one edge
        a = SparseVector.from_pairs([(1, 1.0)])
        b = SparseVector.from_pairs([(2, 1.0)])
        ds = Dataset((a, b), np.array([1, 0], dtype=np.int8))
        edges = ExplicitEdges([0], [1], [0.25], n=2)
        cfg = TrainConfig(
            C=2.0,
            C_prime=3.0,
            loss=LossSpec("hinge"),
            smoothness=SmoothnessSpec(2.0),
            T=1,
            seed=0,
        )
        coefs = np.array([0.5, -0.25])
        k = math.exp(-1.0)
        # dec_a = 0.5 - 0.25 k, dec_b = 0.5 k - 0.25
        dec_a = 0.5 - 0.25 * k
        dec_b = 0.5 * k - 0.25
        norm_sq = 0.25 + 0.0625 - 2 * 0.5 * 0.25 * k
        expected = (
            0.5 * norm_sq
            + 2.0 * max(0.0, 1.0 - dec_a)
            + 3.0 * 0.25 * (dec_a - dec_b) ** 2
        )
        got = objective(coefs, ds, edges, cfg, KERNEL)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_sampled_mode_unbiased(self, small_problem):
        hidden, _, graph = small_problem
        rng = np.random.default_rng(0)
        coefs = rng.normal(size=hidden.n) * 0.3
        exact_cfg = hinge_cfg(T=1, objective_mode="exact")
        exact = objective(coefs, hidden, graph, exact_cfg, KERNEL)
        sampled_cfg = hinge_cfg(T=1, objective_mode="sampled", objective_samples=1)
        draws = np.array(
            [
                objective(coefs, hidden, graph, sampled_cfg, KERNEL, rng=rng)
                for _ in range(10_000)
            ]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 3 * se


def old_objective(coefs, dataset, graph, config, kernel, rng):
    """The objective as three separate kernel blocks (support x support,
    support x labeled, support x edge endpoints), kept as the reference for
    the single-evaluation objective."""

    def decisions_at(targets):
        X, sq = dataset.dense()
        sup = np.flatnonzero(coefs)
        m = dataset.n if targets is None else len(targets)
        if sup.size == 0:
            return np.zeros(m)
        Xt = X if targets is None else X[targets]
        sqt = sq if targets is None else sq[targets]
        d2 = sq[sup][:, None] + sqt[None, :] - 2.0 * (X[sup] @ Xt.T)
        np.maximum(d2, 0.0, out=d2)
        return coefs[sup] @ kernel_matrix_from_sq_dists(kernel, d2)

    X, sq = dataset.dense()
    sup = np.flatnonzero(coefs)
    reg = 0.0
    if sup.size:
        d2 = sq[sup][:, None] + sq[sup][None, :] - 2.0 * (X[sup] @ X[sup].T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        c = coefs[sup]
        reg = 0.5 * max(float(c @ kernel_matrix_from_sq_dists(kernel, d2) @ c), 0.0)
    l = dataset.labeled_count
    losses = loss_value(config.loss, decisions_at(np.arange(l)), dataset.labels[:l].astype(float))
    lab = config.C / l * float(np.sum(losses))
    if config.objective_mode == "exact":
        us, vs, ws = graph.enumerate_edges()
        dec = decisions_at(None)
        edge = config.C_prime / graph.n_edges * float(
            ws @ lp_value(config.smoothness, dec[us] - dec[vs])
        )
    else:
        us, vs, ws = graph.sample_batch(rng, config.objective_samples)
        dec = decisions_at(np.concatenate([us, vs]))
        t_e = dec[: us.size] - dec[us.size :]
        edge = config.C_prime * float(np.mean(ws * lp_value(config.smoothness, t_e)))
    return reg + lab + edge


class TestSingleEvaluationObjective:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_matches_three_block_reference(self, mode):
        full = synth_two_gaussians(300, 5, 3.0, seed=11)
        hidden, _ = hide_labels(full, 0.7, seed=11)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.5))
        cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=700)
        coefs = np.random.default_rng(0).normal(size=hidden.n)
        coefs[np.random.default_rng(1).random(hidden.n) < 0.6] = 0.0  # partial support
        kernel = KernelSpec(1.2, 1.7)
        got = objective(coefs, hidden, graph, cfg, kernel, rng=np.random.default_rng(5))
        ref = old_objective(coefs, hidden, graph, cfg, kernel, np.random.default_rng(5))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_matches_reference_for_trained_model(self, small_problem):
        hidden, _, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=300, seed=2), KERNEL)
        for mode in ("exact", "sampled"):
            cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=50)
            got = objective(model, hidden, graph, cfg, rng=np.random.default_rng(8))
            ref = old_objective(model.beta, hidden, graph, cfg, KERNEL, np.random.default_rng(8))
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestPredict:
    def test_zero_model_predicts_positive(self, small_problem):
        hidden, truth, graph = small_problem
        cfg = TrainConfig(
            C=1.0,
            C_prime=0.05,
            loss=LossSpec("eps-insensitive", epsilon=9.0),
            smoothness=SmoothnessSpec(2.0),
            T=3,
            seed=0,
        )
        model, _ = train(hidden, graph, cfg, KERNEL)
        assert np.all(model.beta == 0.0)
        assert np.all(predict_batch(model, truth.points) == 1)

    def test_sign_threshold(self, small_problem):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=3000, seed=0), KERNEL)
        from gkm.optimizer import decision_values

        dec = decision_values(model, truth.points)
        preds = predict_batch(model, truth.points)
        assert np.array_equal(preds, np.where(dec >= 0, 1, -1))
        assert predict_batch(model, []).shape == (0,)

    def test_two_cluster_accuracy_matches_labelprop_oracle(self):
        # the trained model and the exact propagation oracle agree on the
        # unlabeled points of a clean two-cluster instance
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(0, 0.4, (15, 2)), rng.normal(3.5, 0.4, (15, 2))])
        y = np.array([1] * 15 + [-1] * 15, dtype=np.int8)
        pts = tuple(SparseVector.from_dense(r) for r in X)
        hidden, truth = hide_labels(Dataset(pts, y), 28 / 30, seed=2)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, hinge_cfg(T=5000, seed=0), KERNEL)

        unlabeled = np.arange(hidden.labeled_count, hidden.n)
        test_truth = truth.subset(unlabeled)
        preds = predict_batch(model, test_truth.points)
        assert np.array_equal(preds, test_truth.labels)

        us, vs, ws = graph.enumerate_edges()
        prop = solve_exact(
            PropagationProblem(ExplicitEdges(us, vs, ws, hidden.n), hidden.labels)
        )
        oracle_labels = threshold_labels(prop)[unlabeled]
        model_labels = predict_batch(model, [hidden.points[i] for i in unlabeled])
        assert np.array_equal(oracle_labels, model_labels)


class TestHilbertNorm:
    def test_zero_state(self, small_problem):
        hidden, _, graph = small_problem
        model, _ = train(
            hidden,
            graph,
            TrainConfig(
                C=1.0,
                C_prime=0.05,
                loss=LossSpec("eps-insensitive", epsilon=9.0),
                smoothness=SmoothnessSpec(2.0),
                T=2,
                seed=0,
            ),
            KERNEL,
        )
        assert hilbert_norm(model) == 0.0

    def test_single_coefficient(self):
        x = SparseVector.from_pairs([(1, 1.0)])
        state = ModelState(
            kernel=KERNEL,
            points=(x,),
            beta=np.array([2.0]),
            config=hinge_cfg(T=1),
            sigma_s=1.0,
        )
        assert hilbert_norm(state) == pytest.approx(2.0)

    def test_cancellation_of_equal_points(self):
        x = SparseVector.from_pairs([(1, 1.0)])
        y = SparseVector.from_pairs([(1, 1.0)])
        state = ModelState(
            kernel=KERNEL,
            points=(x, y),
            beta=np.array([1.0, -1.0]),
            config=hinge_cfg(T=1),
            sigma_s=1.0,
        )
        assert hilbert_norm(state) == pytest.approx(0.0, abs=1e-8)


class TestModelFile:
    def test_round_trip_predictions(self, small_problem, tmp_path):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=500, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.kernel == model.kernel
        assert back.config.C == model.config.C
        p1 = predict_batch(model, truth.points)
        p2 = predict_batch(back, truth.points)
        assert np.array_equal(p1, p2)

    def test_hilbert_norm_survives_round_trip(self, small_problem, tmp_path):
        hidden, _, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=200, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert hilbert_norm(model) > 0.0
        assert hilbert_norm(load_model(path)) == pytest.approx(hilbert_norm(model), rel=1e-12)

    def test_reads_kernel_line_with_zero_offset(self, small_problem, tmp_path):
        """The kernel line carries no offset and no 't' line is written; a
        file whose kernel line ends in 'offset 0.0', or that carries the 't'
        line of older files, loads as the same model."""
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=200, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        expected = decision_values(load_model(path), truth.points)
        text = path.read_text()
        assert "kernel sigma_f 1.0 sigma_l 1.0\n" in text and "\nt " not in text
        for older in (
            text.replace("sigma_l 1.0\n", "sigma_l 1.0 offset 0.0\n"),
            text.replace("\nsupport ", "\nt 201\nsupport "),
        ):
            path.write_text(older)
            assert np.array_equal(decision_values(load_model(path), truth.points), expected)

    def test_byte_identical_for_identical_runs(self, small_problem, tmp_path):
        hidden, _, graph = small_problem
        m1, _ = train(hidden, graph, hinge_cfg(T=400, seed=8), KERNEL)
        m2, _ = train(hidden, graph, hinge_cfg(T=400, seed=8), KERNEL)
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m1, f1)
        save_model(m2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_decision_consistency_after_load(self, small_problem, tmp_path):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=500, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        d1 = decision_values(model, truth.points)
        d2 = decision_values(back, truth.points)
        assert np.allclose(d1, d2, rtol=1e-12, atol=1e-15)
