"""Evaluation metrics, the reference-optimum solver, and the iteration-count
sweep that watches T * (J(bar_w) - J*) settle to a constant."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .exceptions import NoLabeledDataError, NotConvergedError
from .graph import EdgeSet
from .kernel import KernelSpec, gram_sq_dists, kernel_matrix_from_sq_dists
from .losses import loss_grad_scalar, loss_value, lp_grad_scalar, lp_value
from .optimizer import Diagnostics, ModelState, TrainConfig, objective, predict_batch, train


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    wall_time: float


def evaluate(model: ModelState, truth: Dataset) -> EvalReport:
    """Accuracy, F1 (positive class = +1) and confusion counts on a fully
    labeled dataset."""
    if truth.unlabeled_count:
        raise ValueError("evaluate needs a fully labeled truth dataset")
    start = time.perf_counter()
    preds = predict_batch(model, truth.points)
    wall = time.perf_counter() - start
    y = truth.labels
    tp = int(np.count_nonzero((preds == 1) & (y == 1)))
    fp = int(np.count_nonzero((preds == 1) & (y == -1)))
    tn = int(np.count_nonzero((preds == -1) & (y == -1)))
    fn = int(np.count_nonzero((preds == -1) & (y == 1)))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(accuracy, f1, tp, fp, tn, fn, wall)


@dataclass
class ReferenceSolution:
    """Best coefficients found for argmin J, with a residual certificate."""

    coefficients: np.ndarray
    j_star: float
    residual: float
    iterations: int
    converged: bool


def _gram(dataset: Dataset, kernel: KernelSpec) -> np.ndarray:
    return kernel_matrix_from_sq_dists(kernel, gram_sq_dists(*dataset.dense()))


def solve_reference_optimum(
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    *,
    max_iter: int = 1_000_000,
    grad_tol: float = 1e-6,
    cap: int = 200,
    stagnation_window: int = 10_000,
    stagnation_rtol: float = 1e-10,
) -> ReferenceSolution:
    """Full-batch deterministic (sub)gradient descent on J in coefficient
    space.

    Differentiable configurations (logistic loss with p >= 2) stop once the
    RKHS gradient norm drops below ``grad_tol`` and raise NotConvergedError
    if the budget runs out first. Non-differentiable ones run diminishing
    steps 2/(k+1) with best-iterate and averaged-iterate tracking, exiting
    early only when the best value stagnates for a full window.
    The unique minimizer exists because of the (1/2)||w||^2 term.
    """
    n = dataset.n
    if n > cap:
        raise ValueError(f"reference solver capped at {cap} points, got {n}")
    l = dataset.labeled_count
    if l < 1:
        raise NoLabeledDataError("the objective needs at least one labeled point")
    K = _gram(dataset, kernel)
    y = dataset.labels[:l].astype(np.float64)
    p = config.smoothness.p
    C, Cp = config.C, config.C_prime

    if graph.n_edges:
        us, vs, ws = graph.enumerate_edges()
        edge_scale = Cp / graph.n_edges
    else:
        us = vs = np.empty(0, dtype=np.int64)
        ws = np.empty(0)
        edge_scale = 0.0

    def value_and_grad(c: np.ndarray):
        dec = K @ c
        j = 0.5 * float(c @ dec)
        g = c.copy()
        losses = loss_value(config.loss, dec[:l], y)
        j += C / l * float(np.sum(losses))
        g[:l] += C / l * np.asarray(loss_grad_scalar(config.loss, dec[:l], y))
        if us.size:
            t_e = dec[us] - dec[vs]
            j += edge_scale * float(ws @ lp_value(config.smoothness, t_e))
            sp = ws * np.asarray(lp_grad_scalar(config.smoothness, t_e))
            g += edge_scale * (
                np.bincount(us, weights=sp, minlength=n)
                - np.bincount(vs, weights=sp, minlength=n)
            )
        return j, g

    smooth = config.loss.kind == "logistic" and p >= 2.0

    c = np.zeros(n)
    j_c, g = value_and_grad(c)
    best_c, best_j = c.copy(), j_c

    if smooth:
        # Armijo backtracking along -g; linear convergence from the strongly
        # convex quadratic core, so grad_tol is reached in a modest number of
        # full-batch steps.
        step = 1.0
        for it in range(1, max_iter + 1):
            grad_h_sq = float(g @ (K @ g))
            if grad_h_sq <= grad_tol * grad_tol:
                return ReferenceSolution(best_c, best_j, grad_h_sq / 2.0, it - 1, True)
            step = min(step * 2.0, 1.0)
            accepted = False
            while step > 1e-18:
                cand = c - step * g
                j_cand, g_cand = value_and_grad(cand)
                if j_cand <= j_c - 0.5 * step * grad_h_sq:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break  # float noise floor reached; fall through to budget error
            c, j_c, g = cand, j_cand, g_cand
            if j_c < best_j:
                best_j, best_c = j_c, c.copy()
        raise NotConvergedError(
            f"gradient norm above {grad_tol} after {max_iter} iterations"
        )

    # Non-differentiable path: strongly convex subgradient descent.
    bar = np.zeros(n)
    g_h_max_sq = 0.0
    window_best = best_j
    next_check = stagnation_window
    it = 0
    for it in range(1, max_iter + 1):
        g_h_sq = float(g @ (K @ g))
        if g_h_sq > g_h_max_sq:
            g_h_max_sq = g_h_sq
        eta = 2.0 / (it + 1.0)
        c = c - eta * g
        bar = ((it - 1.0) / (it + 1.0)) * bar + (2.0 / (it + 1.0)) * c
        j_c, g = value_and_grad(c)
        if j_c < best_j:
            best_j, best_c = j_c, c.copy()
        if it % 16 == 0:
            j_bar, _ = value_and_grad(bar)
            if j_bar < best_j:
                best_j, best_c = j_bar, bar.copy()
        if it >= next_check:
            if (window_best - best_j) < stagnation_rtol * max(abs(best_j), 1.0):
                break
            window_best = best_j
            next_check = it + stagnation_window
    # deterministic averaged-iterate guarantee: J(bar_K) - J* <= 2 G^2 / K
    residual = 2.0 * g_h_max_sq / max(it, 1)
    return ReferenceSolution(best_c, best_j, residual, it, True)


@dataclass
class ConvergenceRun:
    """Scaled suboptimality gaps for one (loss, p) configuration."""

    config: TrainConfig
    T_grid: list[int]
    seeds: list[int]
    delta_jt: np.ndarray  # shape (len(T_grid), len(seeds))
    j_star: float
    oracle_residual: float


def run_convergence_experiment(
    dataset: Dataset,
    graph: EdgeSet,
    configs,
    T_grid,
    seeds,
    kernel: KernelSpec,
    *,
    oracle_max_iter: int = 1_000_000,
) -> list[ConvergenceRun]:
    """Train every (config, T, seed) cell and record (J(bar_w) - J*) * T
    against the shared per-config optimum."""
    runs = []
    for cfg in configs:
        exact_cfg = replace(cfg, objective_mode="exact")
        ref = solve_reference_optimum(
            dataset, graph, exact_cfg, kernel, max_iter=oracle_max_iter
        )
        delta = np.empty((len(T_grid), len(seeds)))
        for ti, T in enumerate(T_grid):
            for si, seed in enumerate(seeds):
                run_cfg = replace(exact_cfg, T=int(T), seed=int(seed))
                model, _ = train(dataset, graph, run_cfg, kernel)
                j_avg = objective(model, dataset, graph, run_cfg)
                delta[ti, si] = (j_avg - ref.j_star) * T
        runs.append(
            ConvergenceRun(
                config=cfg,
                T_grid=[int(T) for T in T_grid],
                seeds=[int(s) for s in seeds],
                delta_jt=delta,
                j_star=ref.j_star,
                oracle_residual=ref.residual,
            )
        )
    return runs


def write_trace(diag: Diagnostics, path) -> None:
    """Trace CSV with header t,J_avg,norm_w,norm_g; floats via repr so equal
    runs give identical bytes."""
    with open(path, "w") as fh:
        fh.write("t,J_avg,norm_w,norm_g\n")
        for t, j, nw, ng in zip(
            diag.trace_t, diag.trace_j_avg, diag.trace_norm_w, diag.trace_norm_g
        ):
            fh.write(f"{int(t)},{repr(float(j))},{repr(float(nw))},{repr(float(ng))}\n")


def write_convergence_csv(runs: list[ConvergenceRun], path) -> None:
    """Long-form CSV of the experiment: one row per (config, T, seed)."""
    with open(path, "w") as fh:
        fh.write("loss,p,T,seed,delta_jt,j_star,oracle_residual\n")
        for run in runs:
            for ti, T in enumerate(run.T_grid):
                for si, seed in enumerate(run.seeds):
                    fh.write(
                        f"{run.config.loss.kind},{repr(float(run.config.smoothness.p))},{T},{seed},"
                        f"{repr(float(run.delta_jt[ti, si]))},{repr(float(run.j_star))},"
                        f"{repr(float(run.oracle_residual))}\n"
                    )
