"""Primal SGD trainer in kernel-coefficient space.

The step w_{t+1} = (t-1)/(t+1) w_t - 2/(t+1) h_t, where h_t is the loss and
edge part of the stochastic gradient, contracts w by factors whose product
after step t is exactly 2/(t(t+1)). So the model is kept as
w_{t+1} = 2/(t(t+1)) * sum_i u_i Phi(x_i), and the unscaled coefficients
follow the plain sum u_t = u_{t-1} - t h_t: one training step samples a
labeled point and a graph edge and adds at most three coefficient
increments, O(1) coefficient work per step, with no running scale to
renormalize. The averaged iterate (the one the model predicts with) is
carried through two auxiliary quantities (a scalar prefix sum Q and a
companion vector v) so that it is also O(1) per step and can be materialized
at any time as bar_w = 2/(t(t+1)) * (Q u - v).

Hilbert norms of the iterate and of each stochastic gradient are maintained
incrementally from the sampled kernel entries, which is what makes
recording their maxima on every run affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import RNG_ALGORITHM, Dataset, format_point, parse_float, parse_label, parse_point
from .data import records, write_lines
from .exceptions import EmptyEdgeSetError, NoLabeledDataError, NonFiniteStateError, ParseError
from .graph import EdgeSet, check_vertices
from .kernel import (
    KernelSpec,
    SparseVector,
    block_decisions,
    dense_rows,
    gram_sq_dists,
    kernel_matrix_from_sq_dists,
)
from .losses import LossSpec, SmoothnessSpec, loss_slope, loss_value, lp_slope, lp_value

OBJECTIVE_MODES = ("auto", "exact", "sampled")

_GRAM_CAP = 2048  # n above which the trainer streams kernel values
_SAMPLE_CHUNK = 4096  # per-chunk RNG draws; fixed so streams are reproducible
_AUTO_EXACT_EDGES = 100_000


@dataclass(frozen=True)
class TrainConfig:
    """Trade-offs, loss/smoothness choice and the iteration budget."""

    C: float
    C_prime: float
    loss: LossSpec
    smoothness: SmoothnessSpec
    T: int
    seed: int = 0
    diagnostics_every: int | None = None
    objective_mode: str = "auto"
    objective_samples: int = 10_000

    def __post_init__(self):
        if self.C <= 0 or self.C_prime <= 0:
            raise ValueError("C and C_prime must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"objective_mode must be one of {OBJECTIVE_MODES}")
        if self.objective_samples < 1:
            raise ValueError("objective_samples must be >= 1")
        if self.diagnostics_every is not None and self.diagnostics_every < 1:
            raise ValueError("diagnostics_every must be >= 1")


def default_iterations(n: int) -> int:
    """Iteration budget heuristic: 0.2 n above 5000 points, n otherwise."""
    return int(0.2 * n) if n > 5000 else n


@dataclass
class Diagnostics:
    """Training trace, max ||w_t|| and ||g_t|| over all steps, optional iterates."""

    trace_t: np.ndarray
    trace_j_avg: np.ndarray
    trace_norm_w: np.ndarray
    trace_norm_g: np.ndarray
    max_norm_w: float
    max_norm_g: float
    iterates: list[np.ndarray] | None = None


@dataclass
class ModelState:
    """The model: coefficients ``beta`` of the averaged iterate over
    ``points``, which it predicts with, and everything needed to evaluate
    decisions."""

    kernel: KernelSpec
    points: tuple[SparseVector, ...]
    beta: np.ndarray
    config: TrainConfig
    sigma_s: float
    labels: np.ndarray | None = None


class _Geometry:
    """Decision values and kernel entries, with a Gram cache at small n."""

    def __init__(self, dataset: Dataset, kernel: KernelSpec):
        self.kernel = kernel
        self.X, self.sq = dataset.dense()
        self.n = dataset.n
        self.kxx = kernel.sigma_f**2
        if self.n <= _GRAM_CAP:
            d2 = gram_sq_dists(self.X, self.sq)
            self.K = kernel_matrix_from_sq_dists(kernel, d2, out=d2)
        else:
            self.K = None
            # support rows gathered contiguously as coefficients get touched
            self._sup = np.empty(self.n, dtype=np.int64)
            self._sup_rows = np.empty_like(self.X)
            self._sup_sq = np.empty(self.n)
            self._in_sup = np.zeros(self.n, dtype=bool)
            self._nsup = 0

    def note_touched(self, idx: int) -> None:
        if self.K is None and not self._in_sup[idx]:
            k = self._nsup
            self._sup[k] = idx
            self._sup_rows[k] = self.X[idx]
            self._sup_sq[k] = self.sq[idx]
            self._in_sup[idx] = True
            self._nsup = k + 1

    def decision(self, u: np.ndarray, scale: float, target: int) -> float:
        if self.K is not None:
            return scale * float(u @ self.K[target])
        k = self._nsup
        if k == 0:
            return 0.0
        d2 = self._sup_sq[:k] + self.sq[target] - 2.0 * (self._sup_rows[:k] @ self.X[target])
        np.maximum(d2, 0.0, out=d2)
        kvec = kernel_matrix_from_sq_dists(self.kernel, d2, out=d2)
        return scale * float(u[self._sup[:k]] @ kvec)

    def kernel_entry(self, i: int, j: int) -> float:
        if i == j:
            return self.kxx
        if self.K is not None:
            return float(self.K[i, j])
        d2 = max(self.sq[i] + self.sq[j] - 2.0 * float(self.X[i] @ self.X[j]), 0.0)
        return float(kernel_matrix_from_sq_dists(self.kernel, np.float64(d2)))


def train(
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    *,
    record_iterates: bool = False,
) -> tuple[ModelState, Diagnostics]:
    """Run the stochastic training loop for exactly config.T steps.

    Per step t: draw a labeled index and an edge and form the stochastic
    gradient g_t = w_t + C s_loss Phi_i + C' mu s_p (Phi_u - Phi_v). The step
    w_{t+1} = w_t - 2/(t+1) g_t is applied in closed form: w_{t+1} = s_t u_t
    with s_t = 2/(t(t+1)), where u_t = u_{t-1} - t (C s_loss Phi_i +
    C' mu s_p (Phi_u - Phi_v)). The returned model predicts with the averaged
    iterate 2/(T(T+1)) sum_t t w_{t+1} and records the graph's sigma_s
    (sigma_l when the graph has none).
    """
    check_vertices(graph, dataset)
    l = dataset.labeled_count
    if l < 1:
        raise NoLabeledDataError("training requires at least one labeled point")
    if graph.n_edges == 0:
        raise EmptyEdgeSetError("training requires a non-empty edge set")
    sigma_s = graph.sigma_s if graph.sigma_s is not None else kernel.sigma_l

    main_ss, diag_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(main_ss)
    diag_rng = np.random.default_rng(diag_ss)

    geom = _Geometry(dataset, kernel)
    n, T = dataset.n, config.T
    labels = dataset.labels.astype(np.float64).tolist()

    C, Cp = config.C, config.C_prime
    loss_grad = loss_slope(config.loss)
    lp_grad = lp_slope(config.smoothness)
    kxx = geom.kxx

    u = np.zeros(n)
    v = np.zeros(n)
    s = 1.0  # scale of u: w_t = s u (u = 0 until step 1)
    Q = 0.0
    nw2 = 0.0  # ||w_t||^2, tracked incrementally
    max_nw2 = max_g2 = 0.0

    every = config.diagnostics_every
    trace: list[tuple[int, float, float, float]] = []
    iterates: list[np.ndarray] | None = [] if record_iterates else None

    isfinite = math.isfinite
    t = 0
    # overflow of a divergent configuration is detected by the finiteness
    # checks below; keep numpy quiet on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk_start in range(1, T + 1, _SAMPLE_CHUNK):
            chunk = min(_SAMPLE_CHUNK, T + 1 - chunk_start)
            lab_idx = rng.integers(0, l, size=chunk).tolist()
            eu, ev, ew = graph.sample_batch(rng, chunk)
            eu, ev, ew = eu.tolist(), ev.tolist(), ew.tolist()

            for j in range(chunk):
                t = chunk_start + j
                i, a, b, mu = lab_idx[j], eu[j], ev[j], ew[j]

                o_i = geom.decision(u, s, i)
                o_e = geom.decision(u, s, a) - geom.decision(u, s, b)
                sl = loss_grad(o_i, labels[i])
                sp = lp_grad(o_e)
                if not (isfinite(o_i) and isfinite(o_e) and isfinite(sp)):
                    raise NonFiniteStateError(
                        f"non-finite decision value or gradient at step {t}"
                    )

                dl = C * sl
                de = Cp * mu * sp
                k_ab = geom.kernel_entry(a, b)
                k_ia = geom.kernel_entry(i, a)
                k_ib = geom.kernel_entry(i, b)
                wdelta = dl * o_i + de * o_e
                dd2 = (
                    dl * dl * kxx
                    + de * de * (2.0 * kxx - 2.0 * k_ab)
                    + 2.0 * dl * de * (k_ia - k_ib)
                )
                g2 = nw2 + 2.0 * wdelta + dd2

                eta = 2.0 / (t + 1.0)
                c = (t - 1.0) / (t + 1.0)
                nw2 = max(c * c * nw2 - 2.0 * c * eta * wdelta + eta * eta * dd2, 0.0)
                if nw2 > max_nw2:
                    max_nw2 = nw2
                if g2 > max_g2:
                    max_g2 = g2

                # w_{t+1} = s u_t: the product of the contractions; eta / s = t
                s = 2.0 / (t * (t + 1.0))
                if dl != 0.0:
                    e_i = -t * dl
                    v[i] += e_i * Q
                    u[i] += e_i
                    geom.note_touched(i)
                if de != 0.0:
                    e_a = -t * de
                    v[a] += e_a * Q
                    u[a] += e_a
                    v[b] -= e_a * Q
                    u[b] -= e_a
                    geom.note_touched(a)
                    geom.note_touched(b)
                Q += 2.0 / (t + 1.0)  # t s_t

                if iterates is not None:
                    iterates.append(u * s)

                if every is not None and (t % every == 0 or t == T):
                    bar = s * (Q * u - v)
                    j_avg = _objective_core(bar, dataset, graph, config, kernel, diag_rng)
                    trace.append((t, j_avg, math.sqrt(nw2), math.sqrt(max(g2, 0.0))))

    beta = s * (Q * u - v)
    state = ModelState(
        kernel=kernel,
        points=dataset.points,
        beta=beta,
        config=config,
        sigma_s=float(sigma_s),
        labels=dataset.labels,
    )
    diag = Diagnostics(
        trace_t=np.array([r[0] for r in trace], dtype=np.int64),
        trace_j_avg=np.array([r[1] for r in trace]),
        trace_norm_w=np.array([r[2] for r in trace]),
        trace_norm_g=np.array([r[3] for r in trace]),
        max_norm_w=math.sqrt(max_nw2),
        max_norm_g=math.sqrt(max_g2),
        iterates=iterates,
    )
    return state, diag


def _resolve_mode(config: TrainConfig, graph: EdgeSet) -> str:
    if config.objective_mode != "auto":
        return config.objective_mode
    return "exact" if graph.n_edges <= _AUTO_EXACT_EDGES else "sampled"


def _objective_core(
    coefs: np.ndarray,
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    rng: np.random.Generator | None,
) -> float:
    """J from one decision evaluation: at every point when the edge term is
    exact, otherwise at the support, the labeled points and the sampled edge
    endpoints. The regularizer is c . dec[support]."""
    l = dataset.labeled_count
    exact = graph.n_edges > 0 and _resolve_mode(config, graph) == "exact"
    us = vs = np.empty(0, dtype=np.int64)
    if exact:
        us, vs, ws = graph.enumerate_edges()
    elif graph.n_edges > 0:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        us, vs, ws = graph.sample_batch(rng, config.objective_samples)

    sup = np.flatnonzero(coefs)
    dec = np.zeros(dataset.n)
    if sup.size:
        X, sq = dataset.dense()
        at = slice(None) if exact else np.unique(np.concatenate([sup, np.arange(l), us, vs]))
        dec[at] = block_decisions(kernel, coefs[sup], X[sup], sq[sup], X[at], sq[at])

    reg = 0.5 * max(float(coefs[sup] @ dec[sup]), 0.0)
    lab = 0.0
    if l:
        losses = loss_value(config.loss, dec[:l], dataset.labels[:l].astype(np.float64))
        lab = config.C / l * float(np.sum(losses))
    edge = 0.0
    if us.size:
        t_e = lp_value(config.smoothness, dec[us] - dec[vs])
        if exact:
            edge = config.C_prime / graph.n_edges * float(ws @ t_e)
        else:
            edge = config.C_prime * float(np.mean(ws * t_e))
    return reg + lab + edge


def objective(
    model_or_coefs,
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Full objective J: regularizer + labeled loss term + edge smoothness.

    Accepts a ModelState (evaluates its coefficients ``beta``) or a raw
    coefficient array over the dataset points. Exact mode enumerates the
    edge universe (capped at graph.EXACT_EDGE_CAP); sampled mode draws
    config.objective_samples edges for an unbiased estimate, labeled term
    always exact.
    """
    if isinstance(model_or_coefs, ModelState):
        coefs = model_or_coefs.beta
        kernel = model_or_coefs.kernel
    else:
        coefs = np.asarray(model_or_coefs, dtype=np.float64)
        if kernel is None:
            raise ValueError("kernel is required with raw coefficients")
    if coefs.shape != (dataset.n,):
        raise ValueError("coefficient array must align with the dataset")
    check_vertices(graph, dataset)
    return _objective_core(coefs, dataset, graph, config, kernel, rng)


def decision_values(state: ModelState, points: Sequence[SparseVector]) -> np.ndarray:
    """Decision function of the model on arbitrary points."""
    sup = np.flatnonzero(state.beta)
    if sup.size == 0 or len(points) == 0:
        return np.zeros(len(points))
    X, sq = dense_rows([state.points[i] for i in sup] + list(points))
    k = sup.size
    return block_decisions(state.kernel, state.beta[sup], X[:k], sq[:k], X[k:], sq[k:])


def predict(state: ModelState, x: SparseVector) -> int:
    """Thresholded label: +1 when the decision value is >= 0, else -1."""
    return int(predict_batch(state, [x])[0])


def predict_batch(state: ModelState, points: Sequence[SparseVector]) -> np.ndarray:
    dec = decision_values(state, points)
    return np.where(dec >= 0.0, 1, -1).astype(np.int8)


def hilbert_norm(state: ModelState) -> float:
    """RKHS norm of the model (the averaged iterate it predicts with) via the
    kernel quadratic form."""
    sup = np.flatnonzero(state.beta)
    dec = decision_values(state, [state.points[i] for i in sup])
    return math.sqrt(max(float(state.beta[sup] @ dec), 0.0))


MODEL_FORMAT_TAG = "gkm-model 1"


def save_model(state: ModelState, path) -> None:
    """Self-contained line-oriented text dump of the predicting iterate.

    Stores the kernel spec, a config echo, and one line per nonzero
    coefficient carrying the coefficient, the point's label and its sparse
    features. Float fields use repr, so identical states give identical bytes.
    """
    sup = np.flatnonzero(state.beta)
    labels = state.labels if state.labels is not None else np.zeros(len(state.points), np.int8)
    cfg = state.config
    header = [
        MODEL_FORMAT_TAG,
        f"rng {RNG_ALGORITHM}",
        f"kernel sigma_f {repr(float(state.kernel.sigma_f))} sigma_l {repr(float(state.kernel.sigma_l))}",
        f"sigma_s {repr(float(state.sigma_s))}",
        (
            f"config loss {cfg.loss.kind} tau {repr(float(cfg.loss.tau))} epsilon {repr(float(cfg.loss.epsilon))}"
            f" p {repr(float(cfg.smoothness.p))} C {repr(float(cfg.C))} C_prime {repr(float(cfg.C_prime))}"
            f" T {cfg.T} seed {cfg.seed} objective_mode {cfg.objective_mode}"
        ),
        f"support {sup.size}",
    ]
    support = (
        f"{repr(float(state.beta[i]))} {int(labels[i])} {format_point(state.points[i])}".rstrip()
        for i in sup
    )
    write_lines(path, [*header, *support, "end"])


def load_model(path) -> ModelState:
    """Rebuild a prediction-ready ModelState from a model file.

    A missing or malformed line raises ParseError naming it; every float
    must be finite and support lines follow the data-file point rules.
    Unknown header lines (such as the ``t`` line of older files) are
    ignored. Files whose kernel line carries ``offset 0.0`` still load; a
    nonzero kernel offset is rejected.
    """
    lines = list(records(path))
    if not lines or lines[0][1] != MODEL_FORMAT_TAG.split():
        raise ParseError(f"not a model file (missing '{MODEL_FORMAT_TAG}' header)", 1)
    cursor = next((i for i, (_, tok) in enumerate(lines) if tok[0] == "support"), len(lines))
    if cursor == len(lines):
        raise ParseError("missing support section")
    header = {tok[0]: i for i, (_, tok) in enumerate(lines[:cursor])}  # key -> its record
    at = lines[cursor][0]  # the line being parsed, named in errors

    def field(key: str) -> list[str]:
        nonlocal at
        if key not in header:
            raise ParseError(f"missing '{key}' line")
        at, tok = lines[header[key]]
        return tok[1:]

    def num(token: str) -> float:
        return parse_float(token, at)

    try:
        tok = field("kernel")
        kv = dict(zip(tok[::2], tok[1::2]))
        kernel = KernelSpec(num(kv["sigma_f"]), num(kv["sigma_l"]))
        if num(kv.get("offset", "0")) != 0.0:
            raise ParseError(f"kernel offset {kv['offset']} is not supported (R = sigma_f)", at)
        tok = field("config")
        kv = dict(zip(tok[::2], tok[1::2]))
        config = TrainConfig(
            C=num(kv["C"]),
            C_prime=num(kv["C_prime"]),
            loss=LossSpec(kv["loss"], tau=num(kv["tau"]), epsilon=num(kv["epsilon"])),
            smoothness=SmoothnessSpec(num(kv["p"])),
            T=int(kv["T"]),
            seed=int(kv["seed"]),
            objective_mode=kv.get("objective_mode", "auto"),
        )
        sigma_s = num(field("sigma_s")[0])
        at, tok = lines[cursor]
        k = int(tok[1])
        if k < 0:
            raise ValueError(f"negative support size {k}")
        coefs: list[float] = []
        points: list[SparseVector] = []
        sup_labels: list[int] = []
        rest = iter(lines[cursor + 1 :])
        for j in range(k):
            at, tok = next(rest, (at + 1, ["end"]))
            if tok == ["end"]:
                raise ParseError(f"support section ends after {j} of {k} points", at)
            coefs.append(num(tok[0]))
            sup_labels.append(parse_label(tok[1], at))
            points.append(parse_point(tok[2:], at))
    except (ValueError, IndexError, KeyError, OverflowError) as exc:
        raise ParseError(f"bad line ({type(exc).__name__}: {exc})", at) from None
    at, tok = next(rest, (at + 1, None))
    if tok != ["end"]:
        raise ParseError("missing 'end' terminator", at)

    return ModelState(
        kernel=kernel,
        points=tuple(points),
        beta=np.array(coefs, dtype=np.float64),
        config=config,
        sigma_s=sigma_s,
        labels=np.array(sup_labels, dtype=np.int8),
    )
