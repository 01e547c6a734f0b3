"""Evaluation metrics, the reference-optimum solver, and the iteration-count
sweep that watches T * (J(bar_w) - J*) settle to a constant."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, write_lines
from .exceptions import NoLabeledDataError, NotConvergedError
from .graph import EdgeSet, check_vertices
from .kernel import KernelSpec, gram_sq_dists, kernel_matrix_from_sq_dists
from .losses import loss_conjugate, loss_prox_slope, loss_value
from .losses import lp_conjugate, lp_prox_slope, lp_value
from .optimizer import Diagnostics, ModelState, TrainConfig, objective, predict_batch, train

MAX_REFERENCE_POINTS = 200  # the solver holds the dense (n+1) x (n+1) Gram
_GAP_RTOL = 1e-13  # certified once the duality gap is this small relative to max(J, 1)
_EPS = float(np.finfo(np.float64).eps)


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


def solve_reference_optimum(
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    *,
    max_iter: int = 10_000,
) -> ReferenceSolution:
    """Dual coordinate ascent (SDCA; Shalev-Shwartz & Zhang, JMLR 2013) on
    J = ||w||^2 / 2 + sum_j kappa_j phi_j(a_j . w) over the labeled points
    (a_j = Phi(x_i), kappa_j = C / l, phi_j = loss) and the edges
    (a_j = Phi(x_u) - Phi(x_v), kappa_j = C' mu_uv / |E|, phi_j = |t|^p).

    ``max_iter`` counts epochs: cyclic passes of scalar prox steps over the
    dual slopes s_j, with w = -sum_j kappa_j s_j a_j (terms with a_j = 0 are
    skipped). Each epoch ends with the duality gap, an upper bound on J(c) - J*.
    Once it is <= _GAP_RTOL * max(J, 1), it is returned as ``residual``, widened
    by the float rounding in computing it; NotConvergedError if the budget runs out."""
    n = dataset.n
    if n > MAX_REFERENCE_POINTS:
        raise ValueError(f"reference solver capped at {MAX_REFERENCE_POINTS} points, got {n}")
    check_vertices(graph, dataset)
    l = dataset.labeled_count
    if l < 1:
        raise NoLabeledDataError("the objective needs at least one labeled point")
    K = kernel_matrix_from_sq_dists(kernel, gram_sq_dists(*dataset.dense()))
    K = np.pad(K, (0, 1))  # index n is a zero feature vector: label i is the pair (i, n)
    y, loss, smooth = dataset.labels[:l].astype(np.float64), config.loss, config.smoothness
    e_us, e_vs, ws = graph.enumerate_edges()
    us, vs = np.concatenate([np.arange(l), e_us]), np.concatenate([np.full(l, n), e_vs])
    kappa = np.concatenate([np.full(l, config.C / l), ws * config.C_prime / max(ws.size, 1)])
    q = K[us, us] + K[vs, vs] - 2.0 * K[us, vs]
    live = np.flatnonzero(q > 0.0).tolist()
    s, dec, gap = np.zeros(us.size), np.zeros(n + 1), np.inf
    for epoch in range(1, max_iter + 1):
        for j in live:
            u, v, gamma = us[j], vs[j], kappa[j] * q[j]
            z = dec[u] - dec[v] + gamma * s[j]
            new = loss_prox_slope(loss, z, y[j], gamma) if j < l else lp_prox_slope(smooth, z, gamma)
            dec -= kappa[j] * (new - s[j]) * (K[u] - K[v])  # dec = K c as c moves
            s[j] = new
        ks = kappa * s  # c from the duals and dec from c: the certificate carries no drift
        c = np.bincount(vs, ks, minlength=n + 1) - np.bincount(us, ks, minlength=n + 1)
        dec = K @ c
        t = dec[us] - dec[vs]
        phi = np.concatenate([loss_value(loss, t[:l], y), lp_value(smooth, t[l:])])
        conj = np.concatenate([loss_conjugate(loss, s[:l], y), lp_conjugate(smooth, s[l:])])
        gap, j_c = float(kappa @ (phi + conj - s * t)), 0.5 * float(c @ dec) + float(kappa @ phi)
        if gap <= _GAP_RTOL * max(j_c, 1.0):  # + a few ulps of what J and its dual sum
            size = np.abs(c) @ K @ np.abs(c) + kappa @ (np.abs(phi) + np.abs(conj) + np.abs(s * t))
            return ReferenceSolution(c[:n], j_c, max(gap, 0.0) + 4 * _EPS * size, epoch)
    raise NotConvergedError(f"duality gap {gap:.3g} still open after {max_iter} epochs")


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
    oracle_max_iter: int = 10_000,
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
    rows = zip(diag.trace_t, diag.trace_j_avg, diag.trace_norm_w, diag.trace_norm_g)
    lines = (f"{int(t)},{float(j)!r},{float(nw)!r},{float(ng)!r}" for t, j, nw, ng in rows)
    write_lines(path, ["t,J_avg,norm_w,norm_g", *lines])


def write_convergence_csv(runs: list[ConvergenceRun], path) -> None:
    """Long-form CSV of the experiment: one row per (config, T, seed)."""
    lines = (
        f"{run.config.loss.kind},{float(run.config.smoothness.p)!r},{T},{seed},"
        f"{float(run.delta_jt[ti, si])!r},{float(run.j_star)!r},{float(run.oracle_residual)!r}"
        for run in runs
        for ti, T in enumerate(run.T_grid)
        for si, seed in enumerate(run.seeds)
    )
    write_lines(path, ["loss,p,T,seed,delta_jt,j_star,oracle_residual", *lines])
