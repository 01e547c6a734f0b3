import numpy as np
import pytest

from gkm.data import Dataset, hide_labels, synth_two_gaussians
from gkm.graph import ExplicitEdges, GraphSpec, build_fully_connected
from gkm.kernel import KernelSpec, SparseVector
from gkm.losses import LOSS_KINDS, LossSpec, SmoothnessSpec
from gkm.optimizer import ModelState, TrainConfig, objective, train
from gkm.harness import (
    MAX_REFERENCE_POINTS,
    evaluate,
    run_convergence_experiment,
    solve_reference_optimum,
    write_trace,
)

KERNEL = KernelSpec(1.0, 1.0)


def cfg_for(loss, p, T=1, seed=0, C=1.0, C_prime=0.05):
    return TrainConfig(
        C=C,
        C_prime=C_prime,
        loss=LossSpec(loss),
        smoothness=SmoothnessSpec(p),
        T=T,
        seed=seed,
        objective_mode="exact",
    )


def constant_model(points, value):
    """A model whose decision value has the sign of `value` everywhere."""
    coefs = np.zeros(len(points))
    coefs[0] = value
    return ModelState(
        kernel=KERNEL,
        points=tuple(points),
        beta=coefs,
        config=cfg_for("hinge", 2.0),
        sigma_s=1.0,
    )


class TestEvaluate:
    def make_truth(self, labels):
        pts = tuple(SparseVector.from_pairs([(1, 0.1 * i)]) for i in range(len(labels)))
        return Dataset(pts, np.array(labels, dtype=np.int8))

    def test_perfect_predictions(self):
        truth = self.make_truth([1, 1, 1])
        rep = evaluate(constant_model(truth.points, 1.0), truth)
        assert rep.accuracy == 1.0 and rep.f1 == 1.0

    def test_half_precision_case(self):
        # tp=1 fp=1 -> precision 1/2, recall 1, f1 = 2/3
        truth = self.make_truth([1, -1])
        rep = evaluate(constant_model(truth.points, 1.0), truth)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (1, 1, 0, 0)
        assert rep.accuracy == 0.5
        assert rep.f1 == pytest.approx(2.0 / 3.0)

    def test_degenerate_all_negative_predictions(self):
        truth = self.make_truth([1, 1])
        rep = evaluate(constant_model(truth.points, -1.0), truth)
        assert rep.accuracy == 0.0 and rep.f1 == 0.0

    def test_confusion_identity(self):
        full = synth_two_gaussians(40, 2, 3.0, seed=0)
        hidden, truth = hide_labels(full, 0.5, seed=0)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, cfg_for("hinge", 2.0, T=500), KERNEL)
        rep = evaluate(model, truth)
        total = rep.tp + rep.fp + rep.tn + rep.fn
        assert total == truth.n
        assert rep.accuracy == (rep.tp + rep.tn) / total

    def test_requires_full_labels(self):
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(2))
        partial = Dataset(pts, np.array([1, 0], dtype=np.int8))
        with pytest.raises(ValueError):
            evaluate(constant_model(pts, 1.0), partial)


class TestReferenceOptimum:
    def test_tiny_trade_offs_give_zero(self):
        full = synth_two_gaussians(10, 2, 3.0, seed=1)
        hidden, _ = hide_labels(full, 0.5, seed=1)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        cfg = cfg_for("hinge", 2.0, C=1e-8, C_prime=1e-8)
        ref = solve_reference_optimum(hidden, graph, cfg, KERNEL)
        assert ref.j_star == pytest.approx(0.0, abs=1e-7)
        assert np.max(np.abs(ref.coefficients)) < 1e-6

    def test_single_labeled_point_closed_form(self):
        # J(w) = ||w||^2/2 + max(0, 1 - y w.Phi(x)); minimizer y Phi(x), J* = 1/2
        x = SparseVector.from_pairs([(1, 0.4)])
        ds = Dataset((x,), np.array([-1], dtype=np.int8))
        empty = ExplicitEdges([], [], [], n=1)
        ref = solve_reference_optimum(ds, empty, cfg_for("hinge", 2.0, C=1.0), KERNEL)
        assert ref.j_star == pytest.approx(0.5, abs=1e-6)
        assert ref.coefficients[0] == pytest.approx(-1.0, abs=1e-4)

    def test_smooth_config_reaches_gradient_tolerance(self):
        full = synth_two_gaussians(20, 2, 3.0, seed=2)
        hidden, _ = hide_labels(full, 0.5, seed=2)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        ref = solve_reference_optimum(hidden, graph, cfg_for("logistic", 2.0), KERNEL)
        assert ref.residual <= 0.5 * (1e-6) ** 2

    def test_optimum_below_trained_values(self):
        full = synth_two_gaussians(24, 2, 3.0, seed=3)
        hidden, _ = hide_labels(full, 0.75, seed=3)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        cfg = cfg_for("hinge", 2.0)
        ref = solve_reference_optimum(hidden, graph, cfg, KERNEL)
        for T in (50, 500):
            for seed in (0, 1):
                run_cfg = cfg_for("hinge", 2.0, T=T, seed=seed)
                model, _ = train(hidden, graph, run_cfg, KERNEL)
                j = objective(model, hidden, graph, run_cfg)
                assert j >= ref.j_star - 10 * ref.residual

    def test_cap_enforced(self):
        """MAX_REFERENCE_POINTS points solve; one more is rejected."""
        full = synth_two_gaussians(MAX_REFERENCE_POINTS + 1, 2, 3.0, seed=4)
        cfg = cfg_for("hinge", 2.0)
        at_cap = full.subset(np.arange(MAX_REFERENCE_POINTS))
        edge = ExplicitEdges([0], [1], [1.0], n=at_cap.n)
        assert solve_reference_optimum(at_cap, edge, cfg, KERNEL).residual <= 1e-12
        edge = ExplicitEdges([0], [1], [1.0], n=full.n)
        with pytest.raises(ValueError, match=f"capped at {MAX_REFERENCE_POINTS} points"):
            solve_reference_optimum(full, edge, cfg, KERNEL)

    def test_rejects_unlabeled_dataset(self):
        from gkm.exceptions import NoLabeledDataError
        from gkm.kernel import SparseVector as SV

        pts = tuple(SV.from_pairs([(1, float(i))]) for i in range(3))
        ds = Dataset(pts, np.zeros(3, dtype=np.int8))
        graph = build_fully_connected(ds, GraphSpec("full", 1.0))
        with pytest.raises(NoLabeledDataError):
            solve_reference_optimum(ds, graph, cfg_for("hinge", 2.0), KERNEL)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("loss", LOSS_KINDS)
    def test_certificate_holds_for_every_loss(self, loss, p):
        """j_star is J at the returned coefficients, and no perturbation of
        them gets below j_star - residual."""
        full = synth_two_gaussians(12, 2, 2.0, seed=8)
        hidden, _ = hide_labels(full, 0.5, seed=8)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        cfg = cfg_for(loss, p, C=4.0, C_prime=0.5)
        ref = solve_reference_optimum(hidden, graph, cfg, KERNEL)
        assert 0.0 <= ref.residual <= 1e-12
        c = ref.coefficients
        assert objective(c, hidden, graph, cfg, KERNEL) == pytest.approx(ref.j_star, rel=1e-12)
        rng = np.random.default_rng(0)
        for scale in (1e-6, 1e-3, 1e-1):
            for _ in range(10):
                bumped = c + scale * rng.standard_normal(c.size)
                assert objective(bumped, hidden, graph, cfg, KERNEL) >= ref.j_star - ref.residual

    def test_edge_between_identical_points_is_skipped(self):
        x, z = SparseVector.from_pairs([(1, 0.3)]), SparseVector.from_pairs([(1, -0.8)])
        ds = Dataset((x, z, x), np.array([1, -1, 0], dtype=np.int8))
        edges = ExplicitEdges([0, 1], [2, 2], [1.0, 0.5], n=3)
        cfg = cfg_for("hinge", 2.0)
        ref = solve_reference_optimum(ds, edges, cfg, KERNEL)
        assert ref.residual <= 1e-12
        assert objective(ref.coefficients, ds, edges, cfg, KERNEL) == pytest.approx(
            ref.j_star, rel=1e-12
        )

    def test_not_converged_on_tiny_budget(self):
        from gkm.exceptions import NotConvergedError

        full = synth_two_gaussians(16, 2, 3.0, seed=5)
        hidden, _ = hide_labels(full, 0.5, seed=5)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        with pytest.raises(NotConvergedError):
            solve_reference_optimum(
                hidden, graph, cfg_for("logistic", 2.0), KERNEL, max_iter=2
            )


@pytest.fixture(scope="module")
def setup():
    full = synth_two_gaussians(20, 2, 4.0, seed=5)
    hidden, _ = hide_labels(full, 0.7, seed=5)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    return hidden, graph


class TestConvergenceExperiment:

    def test_shapes_and_reproducibility(self, setup):
        hidden, graph = setup
        configs = [cfg_for("hinge", 2.0), cfg_for("logistic", 1.0)]
        runs1 = run_convergence_experiment(
            hidden, graph, configs, [50, 150], [0, 1, 2], KERNEL
        )
        runs2 = run_convergence_experiment(
            hidden, graph, configs, [50, 150], [0, 1, 2], KERNEL
        )
        assert len(runs1) == 2
        for r1, r2 in zip(runs1, runs2):
            assert r1.delta_jt.shape == (2, 3)
            assert np.array_equal(r1.delta_jt, r2.delta_jt)
            assert r1.j_star == r2.j_star

    def test_gaps_nonnegative_up_to_residual(self, setup):
        hidden, graph = setup
        runs = run_convergence_experiment(
            hidden, graph, [cfg_for("hinge", 2.0)], [50, 200], [0, 1, 2], KERNEL
        )
        run = runs[0]
        for ti, T in enumerate(run.T_grid):
            floor = -10.0 * run.oracle_residual * T
            assert np.all(run.delta_jt[ti] >= floor)


def test_distance_bound_is_twice_the_gap_bound():
    """The squared-distance guarantee is the objective-gap guarantee scaled
    by 2 (strong convexity modulus 1): median ||bar_w - w*||^2 * T stays
    under 4 G^2 = 2 * (2 G^2)."""
    from gkm.bounds import compute_bounds
    from gkm.kernel import gram_sq_dists, kernel_matrix_from_sq_dists

    full = synth_two_gaussians(20, 2, 4.0, seed=9)
    hidden, _ = hide_labels(full, 0.7, seed=9)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    cfg = cfg_for("hinge", 2.0, C=1.0, C_prime=0.05)
    report = compute_bounds(1.0, 0.05, 2.0, 1.0, 1.0)
    assert report.condition_holds
    ref = solve_reference_optimum(hidden, graph, cfg, KERNEL)
    K = kernel_matrix_from_sq_dists(KERNEL, gram_sq_dists(*hidden.dense()))
    T = 500
    dists = []
    for seed in range(5):
        run_cfg = cfg_for("hinge", 2.0, T=T, seed=seed)
        model, _ = train(hidden, graph, run_cfg, KERNEL)
        d = model.beta - ref.coefficients
        dists.append(float(d @ K @ d))
    assert float(np.median(dists)) * T <= 2.0 * (2.0 * report.G**2)


def test_write_trace_format(tmp_path):
    full = synth_two_gaussians(14, 2, 3.0, seed=6)
    hidden, _ = hide_labels(full, 0.5, seed=6)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    cfg = TrainConfig(
        C=1.0,
        C_prime=0.05,
        loss=LossSpec("hinge"),
        smoothness=SmoothnessSpec(2.0),
        T=100,
        seed=0,
        diagnostics_every=25,
    )
    _, diag = train(hidden, graph, cfg, KERNEL)
    path = tmp_path / "trace.csv"
    write_trace(diag, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,J_avg,norm_w,norm_g"
    assert len(lines) == 1 + 4  # t = 25, 50, 75, 100
    assert lines[1].split(",")[0] == "25"
