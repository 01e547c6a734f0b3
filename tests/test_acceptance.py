"""Acceptance gate: every release-blocking check in one module.

Each test is one criterion; the conftest summary hook prints a PASS/FAIL
line per criterion at the end of the run. Tolerances are fixed here, not
configurable. The slower experiments keep their runtime budgets asserted.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

import gkm
from gkm.bounds import case_M, compute_bounds, max_cprime, recommended_sigma_f, sample_certified_region
from gkm.data import hide_labels, separation_for_bayes_accuracy, synth_two_gaussians
from gkm.graph import ExplicitEdges, GraphSpec, build_fully_connected
from gkm.kernel import KernelSpec
from gkm.labelprop import PropagationProblem, solve_exact
from gkm.losses import LossSpec, SmoothnessSpec, loss_grad_scalar, loss_value, lp_grad_scalar, lp_value
from gkm.optimizer import TrainConfig, decision_values, save_model, train
from gkm.harness import run_convergence_experiment, write_trace

from test_labelprop import brute_force, is_solvable, random_connected_problem


def _residual_overflow_safe(M, a, b, p):
    """bound_residual in float64; where M**(p-1) overflows, decide the sign of
    a M^(p-1) - M + b in log space (it stays far below zero there)."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = a * M ** (p - 1.0) - M + b
    bad = ~np.isfinite(f)
    if np.any(bad):
        # a M^(p-1) + b <= M  <=>  log a + (p-1) log M <= log(M - b)
        logM = np.log(M[bad])
        lhs = np.logaddexp(np.log(a[bad]) + (p[bad] - 1.0) * logM, np.log(b[bad]))
        rhs = np.log(M[bad] - b[bad])
        f[bad] = np.where(lhs <= rhs, -np.inf, np.inf)
    return f


def test_criterion_01_bound_residual_property_suite():
    """f(M; a, b, p) <= 1e-9 on 1000 random draws per case branch, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # case i: p ~ U[1, 2), a, b ~ U(0, 2]
    p = rng.uniform(1.0, 2.0, 1000)
    a = np.maximum(rng.uniform(0.0, 2.0, 1000), 1e-12)
    b = np.maximum(rng.uniform(0.0, 2.0, 1000), 1e-12)
    M = case_M(a, b, p)
    f = _residual_overflow_safe(M, a, b, p)
    assert np.max(f) <= 1e-9

    # case ii: p = 2, a ~ U(0, 1)
    a, b = sample_certified_region(2.0, rng, 1000)
    M = case_M(a, b, 2.0)
    assert np.max(a * M - M + b) <= 1e-9

    # case iii: p ~ U(2, 4], a b^(p-2) under the threshold (rejection)
    for pv in rng.uniform(2.0 + 1e-9, 4.0, 20):
        a, b = sample_certified_region(float(pv), rng, 50)
        M = case_M(a, b, float(pv))
        assert np.max(a * M ** (pv - 1.0) - M + b) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"residual suite took {elapsed:.2f}s"


KERNEL1 = KernelSpec(1.0, 1.0)

# certified configurations rotated across the criterion-2 datasets; bounds
# from compute_bounds with R = A = sigma_f = 1
RUNTIME_CONFIGS = [
    ("hinge", 2.0, 1.0, 0.05),
    ("hinge", 1.0, 1.0, 0.10),
    ("logistic", 3.0, 1.0, 0.01),
]


def test_criterion_02_runtime_norm_bounds():
    """||w_t|| <= M and ||g_t|| <= G at all 5000 steps, 10 datasets x 10
    seeds, certified configs, < 30 s."""
    start = time.perf_counter()
    for di in range(10):
        loss_kind, p, C, cp = RUNTIME_CONFIGS[di % len(RUNTIME_CONFIGS)]
        report = compute_bounds(C, cp, p, R=1.0, A=1.0)
        assert report.condition_holds
        full = synth_two_gaussians(40, 5, 3.0, seed=100 + di)
        hidden, _ = hide_labels(full, 0.8, seed=100 + di)
        assert hidden.labeled_count == 8
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        for seed in range(10):
            cfg = TrainConfig(
                C=C,
                C_prime=cp,
                loss=LossSpec(loss_kind),
                smoothness=SmoothnessSpec(p),
                T=5000,
                seed=seed,
            )
            _, diag = train(hidden, graph, cfg, KERNEL1)
            assert diag.max_norm_w <= report.M * (1 + 1e-6)
            assert diag.max_norm_g <= report.G * (1 + 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime-bounds suite took {elapsed:.1f}s"


def test_criterion_03_averaging_identity():
    """Stored averaged iterate equals 2/((T+1)T) sum_i i w_i over the
    recorded per-step iterates, coefficient-wise within relative 1e-8."""
    full = synth_two_gaussians(16, 3, 3.0, seed=7)
    hidden, _ = hide_labels(full, 0.5, seed=7)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    for loss_kind, p in (("hinge", 2.0), ("logistic", 1.0), ("l1", 3.0)):
        for T in (1, 3, 25, 200):
            cfg = TrainConfig(
                C=1.0,
                C_prime=0.05,
                loss=LossSpec(loss_kind),
                smoothness=SmoothnessSpec(p),
                T=T,
                seed=11,
            )
            model, diag = train(hidden, graph, cfg, KERNEL1, record_iterates=True)
            ref = sum((i + 1) * diag.iterates[i] for i in range(T))
            ref = ref * (2.0 / ((T + 1.0) * T))
            stored = model.beta
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            assert float(np.max(np.abs(stored - ref))) <= 1e-8 * scale


# ---- criterion 4: rate experiment ------------------------------------------
# Experiment design (all certified): a 50-dimensional stand-in matching the
# benchmark geometry, with C large enough that the decaying early transient
# of the averaged iterate stays visible across the whole pinned T grid
# instead of being swamped by the asymptotic sampling-noise constant.
C4_C = 64.0
C4_CPRIME = {1.0: 0.05, 2.0: 0.05, 3.0: 0.9 / (96.0 * C4_C)}
C4_SIGMA = 2.4
C4_DATA_SEED = 2


@pytest.fixture(scope="module")
def convergence_runs():
    sep = separation_for_bayes_accuracy(0.95)
    full = synth_two_gaussians(30, 50, sep, seed=C4_DATA_SEED)
    hidden, _ = hide_labels(full, 0.8, seed=C4_DATA_SEED)
    assert hidden.labeled_count == 6
    graph = build_fully_connected(hidden, GraphSpec("full", C4_SIGMA))
    kernel = KernelSpec(1.0, C4_SIGMA)
    configs = []
    for loss_kind in ("hinge", "logistic"):
        for p in (1.0, 2.0, 3.0):
            configs.append(
                TrainConfig(
                    C=C4_C,
                    C_prime=C4_CPRIME[p],
                    loss=LossSpec(loss_kind),
                    smoothness=SmoothnessSpec(p),
                    T=1,
                    seed=0,
                    objective_mode="exact",
                )
            )
    start = time.perf_counter()
    runs = run_convergence_experiment(
        hidden, graph, configs, [500, 2000, 8000], list(range(10)), kernel
    )
    return runs, time.perf_counter() - start


def test_criterion_04_rate_trend_and_bound(convergence_runs):
    """Median scaled gap: non-increasing within 1.1 from T=500 to T=8000 and
    below 2 G^2 at every grid point, for all six certified configs, < 5 min."""
    runs, elapsed = convergence_runs
    assert elapsed < 300.0, f"rate experiment took {elapsed:.0f}s"
    for run in runs:
        cfg = run.config
        report = compute_bounds(cfg.C, cfg.C_prime, cfg.smoothness.p, R=1.0, A=1.0)
        assert report.condition_holds
        med = np.median(run.delta_jt, axis=1)
        label = f"{cfg.loss.kind} p={cfg.smoothness.p}"
        assert med[-1] <= 1.1 * med[0], f"{label}: medians {med}"
        assert np.all(med <= 2.0 * report.G**2), f"{label}: medians {med}"
        # sanity: the reference optimum really is lower, up to oracle slack
        for ti, T in enumerate(run.T_grid):
            assert np.all(run.delta_jt[ti] >= -10.0 * run.oracle_residual * T)


# ---- criterion 5: accuracy on the 550-point stand-in ------------------------
C5_SIGMA_L = 2.4
C5_T = 5000


def test_criterion_05_standin_accuracy():
    """Median test accuracy >= 0.90 over 5 seeds for hinge with p in {1, 2},
    after a coarse grid over C in {2^-3 .. 2^3}; runtime < 60 s."""
    start = time.perf_counter()
    sep = separation_for_bayes_accuracy(0.95)
    full = synth_two_gaussians(550, 50, sep, seed=0)
    kernel = KernelSpec(1.0, C5_SIGMA_L)
    grid = [2.0**k for k in range(-3, 4)]
    for p in (1.0, 2.0):
        cp = 0.1  # certified for p = 2 (cap 0.125 at sigma_f = 1); p = 1 unconstrained
        assert compute_bounds(1.0, cp, p, 1.0, 1.0).condition_holds
        best = 0.0
        for C in grid:
            accs = []
            for seed in range(5):
                hidden, truth = hide_labels(full, 0.8, seed=seed)
                graph = build_fully_connected(hidden, GraphSpec("full", C5_SIGMA_L))
                cfg = TrainConfig(
                    C=C,
                    C_prime=cp,
                    loss=LossSpec("hinge"),
                    smoothness=SmoothnessSpec(p),
                    T=C5_T,
                    seed=seed,
                )
                model, _ = train(hidden, graph, cfg, kernel)
                unlabeled = np.arange(hidden.labeled_count, hidden.n)
                sub = truth.subset(unlabeled)
                dec = decision_values(model, sub.points)
                accs.append(float(np.mean(np.where(dec >= 0, 1, -1) == sub.labels)))
            best = max(best, float(np.median(accs)))
        assert best >= 0.90, f"p={p}: best median accuracy {best:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"stand-in accuracy experiment took {elapsed:.0f}s"


def test_criterion_06_labelprop_oracle():
    """Exact solver equals brute force on 100 random graphs (<= 1e-6), the
    maximum principle holds, and the 4-chain yields (1/3, -1/3)."""
    rng = np.random.default_rng(99)
    done = 0
    while done < 100:
        prob = random_connected_problem(rng, int(rng.integers(4, 21)))
        if not is_solvable(prob):
            continue
        f = solve_exact(prob)
        ref = brute_force(prob)
        assert float(np.max(np.abs(f - ref))) <= 1e-6
        lab = prob.labels != 0
        assert np.all(f >= f[lab].min() - 1e-10)
        assert np.all(f <= f[lab].max() + 1e-10)
        done += 1

    chain = ExplicitEdges([0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0], n=4)
    f = solve_exact(PropagationProblem(chain, np.array([1, 0, 0, -1], dtype=np.int8)))
    assert abs(f[1] - 1.0 / 3.0) <= 1e-10
    assert abs(f[2] + 1.0 / 3.0) <= 1e-10


def test_criterion_07_parameter_rules():
    """max_cprime(p=2, R=1) = 0.125 exactly; recommended sigma_f certifies
    through compute_bounds for 100 random draws per case."""
    assert max_cprime(2.0, 1.0, 1.0) == 0.125
    rng = np.random.default_rng(5)
    for _ in range(100):
        C = float(rng.uniform(0.1, 8.0))
        cp = float(rng.uniform(1e-3, 20.0))
        sf = recommended_sigma_f(2.0, C, cp)
        assert compute_bounds(C, cp, 2.0, R=sf, A=sf).condition_holds
    for _ in range(100):
        p = float(rng.uniform(2.0 + 1e-3, 4.0))
        C = float(rng.uniform(0.1, 8.0))
        cp = float(rng.uniform(1e-3, 20.0))
        sf = recommended_sigma_f(p, C, cp)
        assert compute_bounds(C, cp, p, R=sf, A=sf).condition_holds


def test_criterion_08_gradient_correctness():
    """Central finite differences match the analytic (sub)gradients to 1e-5
    relative away from kinks, all five losses and p in {1.5, 2, 2.5, 3}."""
    h = 1e-6
    rng = np.random.default_rng(8)
    specs = [
        LossSpec("hinge"),
        LossSpec("smooth-hinge", tau=0.5),
        LossSpec("logistic"),
        LossSpec("l1"),
        LossSpec("eps-insensitive", epsilon=0.1),
    ]

    def kinks(spec, y):
        if spec.kind == "hinge":
            return [1.0 / y]
        if spec.kind == "smooth-hinge":
            return [1.0 / y, (1.0 - spec.tau) / y]
        if spec.kind == "l1":
            return [y]
        if spec.kind == "eps-insensitive":
            return [y - spec.epsilon, y + spec.epsilon]
        return []

    for spec in specs:
        checked = 0
        while checked < 1000:
            o = float(rng.uniform(-4, 4))
            y = float(rng.choice([-1.0, 1.0])) if spec.is_classification else float(rng.uniform(-2, 2))
            if any(abs(o - k) < 1e-3 for k in kinks(spec, y)):
                continue
            fd = (loss_value(spec, o + h, y) - loss_value(spec, o - h, y)) / (2 * h)
            an = loss_grad_scalar(spec, o, y)
            assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-8)
            checked += 1

    for p in (1.5, 2.0, 2.5, 3.0):
        spec = SmoothnessSpec(p)
        checked = 0
        while checked < 1000:
            t = float(rng.uniform(-3, 3))
            if abs(t) <= 1e-3:
                continue
            fd = (lp_value(spec, t + h) - lp_value(spec, t - h)) / (2 * h)
            an = lp_grad_scalar(spec, t)
            assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd))
            checked += 1


def test_criterion_09_determinism(tmp_path):
    """Identical config and seed give byte-identical model files and traces."""
    full = synth_two_gaussians(40, 3, 3.0, seed=21)
    hidden, _ = hide_labels(full, 0.7, seed=21)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    cfg = TrainConfig(
        C=1.0,
        C_prime=0.05,
        loss=LossSpec("hinge"),
        smoothness=SmoothnessSpec(2.0),
        T=1000,
        seed=13,
        diagnostics_every=100,
    )
    blobs = []
    for tag in ("first", "second"):
        model, diag = train(hidden, graph, cfg, KERNEL1)
        mpath = tmp_path / f"model_{tag}.txt"
        tpath = tmp_path / f"trace_{tag}.csv"
        save_model(model, mpath)
        write_trace(diag, tpath)
        blobs.append((mpath.read_bytes(), tpath.read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_criterion_10_edge_sampling_uniformity():
    """Chi-square goodness of fit against the uniform law over the implicit
    edge universe at n = 12 with labeled vertices, 1e6 draws, alpha 0.001."""
    full = synth_two_gaussians(12, 2, 2.0, seed=31)
    hidden, _ = hide_labels(full, 2.0 / 3.0, seed=31)
    l = hidden.labeled_count
    assert 0 < l < 12
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    n_edges = graph.n_edges
    rng = np.random.default_rng(4242)
    us, vs, _ = graph.sample_batch(rng, 1_000_000)
    counts = np.bincount(us * 12 + vs, minlength=144)
    observed = counts[counts > 0]
    assert observed.size == n_edges  # every edge hit, no invalid pair
    stat, pvalue = chisquare(observed)
    assert pvalue >= 0.001, f"chi-square p-value {pvalue:.5f}"
