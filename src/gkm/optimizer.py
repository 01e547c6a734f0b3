"""Primal SGD trainer in kernel-coefficient space.

The model lives in the RKHS as w = scale * sum_i u_i Phi(x_i). One training
step samples a labeled point and a graph edge, contracts w by (t-1)/(t+1),
and adds at most three coefficient increments, so the per-step coefficient
work is O(1). The averaged iterate (the one the model predicts with) is
carried through two auxiliary quantities (a scalar prefix sum Q and a
companion vector v) so that it is also O(1) per step and can be materialized
at any time as bar_w = 2/(t(t+1)) * (Q u - v).

Hilbert norms of the iterate and of each stochastic gradient are maintained
incrementally from the sampled kernel entries, which is what makes the
per-step bound checks affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import RNG_ALGORITHM, Dataset
from .exceptions import (
    EmptyEdgeSetError,
    NoLabeledDataError,
    NonFiniteStateError,
    ParseError,
)
from .graph import EXACT_EDGE_CAP, EdgeSet
from .kernel import (
    KernelSpec,
    SparseVector,
    block_decisions,
    gram_sq_dists,
    kernel_matrix_from_sq_dists,
)
from .losses import LossSpec, SmoothnessSpec, loss_value, lp_value

OBJECTIVE_MODES = ("auto", "exact", "sampled")

_GRAM_CAP = 2048  # n above which the trainer streams kernel values
_SAMPLE_CHUNK = 4096  # per-chunk RNG draws; fixed so streams are reproducible
_FOLD_EVERY = 100_000
_FOLD_SCALE = 1e-6
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
    """Training trace plus optional per-step records."""

    trace_t: np.ndarray
    trace_j_avg: np.ndarray
    trace_norm_w: np.ndarray
    trace_norm_g: np.ndarray
    step_norm_w: np.ndarray | None = None
    step_norm_g: np.ndarray | None = None
    iterates: list[np.ndarray] | None = None
    rng_algorithm: str = RNG_ALGORITHM


@dataclass
class ModelState:
    """Current iterate (scale_w, alpha), averaged iterate (scale_avg, beta),
    and everything needed to evaluate decisions."""

    kernel: KernelSpec
    points: tuple[SparseVector, ...]
    alpha: np.ndarray
    scale_w: float
    beta: np.ndarray
    scale_avg: float
    t: int
    config: TrainConfig
    sigma_s: float
    labels: np.ndarray | None = None

    def coefficients(self, which: str = "model") -> tuple[np.ndarray, float]:
        """(coefs, scale) of the requested iterate; the model predicts with
        the averaged one."""
        if which in ("model", "averaged"):
            return self.beta, self.scale_avg
        if which == "current":
            return self.alpha, self.scale_w
        raise ValueError("which must be 'model', 'averaged' or 'current'")


class _Geometry:
    """Decision values and kernel entries, with a Gram cache at small n."""

    def __init__(self, dataset: Dataset, kernel: KernelSpec, gram_cap: int):
        self.kernel = kernel
        self.X, self.sq = dataset.dense()
        self.n = dataset.n
        self.kxx = kernel.sigma_f**2 + kernel.offset
        if self.n <= gram_cap:
            self.K = kernel_matrix_from_sq_dists(kernel, gram_sq_dists(self.X, self.sq))
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
        kvec = kernel_matrix_from_sq_dists(self.kernel, d2)
        return scale * float(u[self._sup[:k]] @ kvec)

    def kernel_entry(self, i: int, j: int) -> float:
        if i == j:
            return self.kxx
        if self.K is not None:
            return float(self.K[i, j])
        d2 = max(self.sq[i] + self.sq[j] - 2.0 * float(self.X[i] @ self.X[j]), 0.0)
        return float(kernel_matrix_from_sq_dists(self.kernel, np.float64(d2)))


def _fast_loss_grad(spec: LossSpec):
    """Scalar-specialized gradient closure for the hot loop."""
    kind = spec.kind
    if kind == "hinge":
        return lambda o, y: -y if y * o <= 1.0 else 0.0
    if kind == "smooth-hinge":
        tau = spec.tau

        def grad(o, y, tau=tau):
            yo = y * o
            if yo < 1.0 - tau:
                return -y
            if yo <= 1.0:
                return (yo - 1.0) * y / tau
            return 0.0

        return grad
    if kind == "logistic":

        def grad(o, y):
            yo = y * o
            if yo >= 0.0:
                e = math.exp(-yo)
                return -y * e / (1.0 + e)
            return -y / (1.0 + math.exp(yo))

        return grad
    if kind == "l1":
        return lambda o, y: float(np.sign(o - y))
    eps = spec.epsilon
    return lambda o, y: (float(np.sign(o - y)) if abs(y - o) > eps else 0.0)


def _fast_lp_grad(p: float):
    if p == 1.0:
        return lambda t: -1.0 if t < 0.0 else (1.0 if t > 0.0 else 0.0)
    if p == 2.0:
        return lambda t: 2.0 * t
    pm1 = p - 1.0

    def grad(t, p=p, pm1=pm1):
        if t == 0.0:
            return 0.0
        return p * math.copysign(abs(t) ** pm1, t)

    return grad


def train(
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    sigma_s: float | None = None,
    *,
    track_step_norms: bool = False,
    record_iterates: bool = False,
    gram_cap: int = _GRAM_CAP,
) -> tuple[ModelState, Diagnostics]:
    """Run the stochastic training loop for exactly config.T steps.

    Per step t: draw a labeled index and an edge, form the stochastic
    gradient g_t = w_t + C s_loss Phi_i + C' mu s_p (Phi_u - Phi_v) and apply
    w_{t+1} = w_t - 2/(t+1) g_t, then fold w_{t+1} into the running average.
    The returned model predicts with the averaged iterate.
    """
    l = dataset.labeled_count
    if l < 1:
        raise NoLabeledDataError("training requires at least one labeled point")
    if graph.n_edges == 0:
        raise EmptyEdgeSetError("training requires a non-empty edge set")
    if sigma_s is None:
        sigma_s = getattr(graph, "sigma_s", None)
    if sigma_s is None:
        sigma_s = kernel.sigma_l

    main_ss, diag_ss = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(main_ss)
    diag_rng = np.random.default_rng(diag_ss)

    geom = _Geometry(dataset, kernel, gram_cap)
    n, T = dataset.n, config.T
    labels = dataset.labels.astype(np.float64).tolist()

    C, Cp = config.C, config.C_prime
    loss_grad = _fast_loss_grad(config.loss)
    lp_grad = _fast_lp_grad(config.smoothness.p)
    kxx = geom.kxx

    u = np.zeros(n)
    v = np.zeros(n)
    s = 1.0
    Q = 0.0
    nw2 = 0.0  # ||w_t||^2, tracked incrementally

    every = config.diagnostics_every
    trace: list[tuple[int, float, float, float]] = []
    snw = np.empty(T) if track_step_norms else None
    sng = np.empty(T) if track_step_norms else None
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

                # contract the scale; step 1 zeroes w exactly, so reset instead
                s = 1.0 if t == 1 else s * c
                if dl != 0.0:
                    e_i = -eta * dl / s
                    v[i] += e_i * Q
                    u[i] += e_i
                    geom.note_touched(i)
                if de != 0.0:
                    e_a = -eta * de / s
                    v[a] += e_a * Q
                    u[a] += e_a
                    v[b] -= e_a * Q
                    u[b] -= e_a
                    geom.note_touched(a)
                    geom.note_touched(b)
                Q += t * s

                if track_step_norms:
                    snw[t - 1] = math.sqrt(nw2)
                    sng[t - 1] = math.sqrt(g2) if g2 > 0.0 else 0.0
                if iterates is not None:
                    iterates.append(u * s)

                if abs(s) < _FOLD_SCALE or t % _FOLD_EVERY == 0:
                    u *= s
                    Q /= s
                    s = 1.0

                if every is not None and (t % every == 0 or t == T):
                    bar = (2.0 / (t * (t + 1.0))) * (Q * u - v)
                    j_avg = _objective_core(
                        bar, 1.0, dataset, graph, config, kernel, diag_rng
                    )
                    trace.append((t, j_avg, math.sqrt(nw2), math.sqrt(max(g2, 0.0))))

    beta = (2.0 / (T * (T + 1.0))) * (Q * u - v)
    state = ModelState(
        kernel=kernel,
        points=dataset.points,
        alpha=u.copy(),
        scale_w=s,
        beta=beta,
        scale_avg=1.0,
        t=T + 1,
        config=config,
        sigma_s=float(sigma_s),
        labels=dataset.labels,
    )
    diag = Diagnostics(
        trace_t=np.array([r[0] for r in trace], dtype=np.int64),
        trace_j_avg=np.array([r[1] for r in trace]),
        trace_norm_w=np.array([r[2] for r in trace]),
        trace_norm_g=np.array([r[3] for r in trace]),
        step_norm_w=snw,
        step_norm_g=sng,
        iterates=iterates,
    )
    return state, diag


def _resolve_mode(config: TrainConfig, graph: EdgeSet) -> str:
    if config.objective_mode != "auto":
        return config.objective_mode
    return "exact" if graph.n_edges <= _AUTO_EXACT_EDGES else "sampled"


def _objective_core(
    coefs: np.ndarray,
    scale: float,
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec,
    rng: np.random.Generator | None,
    cap: int = EXACT_EDGE_CAP,
) -> float:
    """J from one decision evaluation: at every point when the edge term is
    exact, otherwise at the support, the labeled points and the sampled edge
    endpoints. The regularizer is scale * c . dec[support]."""
    l = dataset.labeled_count
    exact = graph.n_edges > 0 and _resolve_mode(config, graph) == "exact"
    us = vs = np.empty(0, dtype=np.int64)
    if exact:
        us, vs, ws = graph.enumerate_edges(cap)
    elif graph.n_edges > 0:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        us, vs, ws = graph.sample_batch(rng, config.objective_samples)

    sup = np.flatnonzero(coefs)
    dec = np.zeros(dataset.n)
    if sup.size:
        X, sq = dataset.dense()
        at = slice(None) if exact else np.unique(np.concatenate([sup, np.arange(l), us, vs]))
        dec[at] = scale * block_decisions(kernel, coefs[sup], X[sup], sq[sup], X[at], sq[at])

    reg = 0.5 * max(float(scale * (coefs[sup] @ dec[sup])), 0.0)
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
    cap: int = EXACT_EDGE_CAP,
) -> float:
    """Full objective J: regularizer + labeled loss term + edge smoothness.

    Accepts a ModelState (evaluates its predicting iterate) or a raw
    coefficient array over the dataset points. Exact mode enumerates the
    edge universe (capped); sampled mode draws config.objective_samples
    edges for an unbiased estimate, labeled term always exact.
    """
    if isinstance(model_or_coefs, ModelState):
        coefs, scale = model_or_coefs.coefficients()
        kernel = model_or_coefs.kernel
    else:
        coefs = np.asarray(model_or_coefs, dtype=np.float64)
        scale = 1.0
        if kernel is None:
            raise ValueError("kernel is required with raw coefficients")
    if coefs.shape != (dataset.n,):
        raise ValueError("coefficient array must align with the dataset")
    return _objective_core(coefs, scale, dataset, graph, config, kernel, rng, cap)


def _decisions(state: ModelState, which: str, points: Sequence[SparseVector]) -> np.ndarray:
    """Decision values of the requested iterate at arbitrary points."""
    coefs, scale = state.coefficients(which)
    sup = np.flatnonzero(coefs)
    if sup.size == 0 or len(points) == 0:
        return np.zeros(len(points))
    sup_pts = [state.points[i] for i in sup]
    dim = max(
        max(p.max_index for p in sup_pts),
        max((p.max_index for p in points), default=0),
        1,
    )
    Xs = np.stack([p.to_dense(dim) for p in sup_pts])
    Xq = np.stack([p.to_dense(dim) for p in points])
    sqs = np.einsum("ij,ij->i", Xs, Xs)
    sqq = np.einsum("ij,ij->i", Xq, Xq)
    return scale * block_decisions(state.kernel, coefs[sup], Xs, sqs, Xq, sqq)


def decision_values(state: ModelState, points: Sequence[SparseVector]) -> np.ndarray:
    """Decision function of the model on arbitrary points."""
    return _decisions(state, "model", points)


def predict(state: ModelState, x: SparseVector) -> int:
    """Thresholded label: +1 when the decision value is >= 0, else -1."""
    return int(predict_batch(state, [x])[0])


def predict_batch(state: ModelState, points: Sequence[SparseVector]) -> np.ndarray:
    dec = decision_values(state, points)
    return np.where(dec >= 0.0, 1, -1).astype(np.int8)


def hilbert_norm(state: ModelState, which: str = "current") -> float:
    """RKHS norm of the requested iterate via the kernel quadratic form."""
    coefs, scale = state.coefficients(which)
    sup = np.flatnonzero(coefs)
    dec = _decisions(state, which, [state.points[i] for i in sup])
    return math.sqrt(max(float(scale * (coefs[sup] @ dec)), 0.0))


MODEL_FORMAT_TAG = "gkm-model 1"


def save_model(state: ModelState, path) -> None:
    """Self-contained line-oriented text dump of the predicting iterate.

    Stores the kernel spec, a config echo, and one line per nonzero
    coefficient carrying the coefficient, the point's label and its sparse
    features. Float fields use repr, so identical states give identical bytes.
    """
    coefs, scale = state.coefficients()
    sup = np.flatnonzero(coefs)
    cfg = state.config
    lines = [
        MODEL_FORMAT_TAG,
        f"rng {RNG_ALGORITHM}",
        f"kernel sigma_f {repr(float(state.kernel.sigma_f))} sigma_l {repr(float(state.kernel.sigma_l))} offset {repr(float(state.kernel.offset))}",
        f"sigma_s {repr(float(state.sigma_s))}",
        (
            f"config loss {cfg.loss.kind} tau {repr(float(cfg.loss.tau))} epsilon {repr(float(cfg.loss.epsilon))}"
            f" p {repr(float(cfg.smoothness.p))} C {repr(float(cfg.C))} C_prime {repr(float(cfg.C_prime))}"
            f" T {cfg.T} seed {cfg.seed} objective_mode {cfg.objective_mode}"
        ),
        f"t {state.t}",
        f"support {sup.size}",
    ]
    for i in sup:
        p = state.points[i]
        label = int(state.labels[i]) if state.labels is not None else 0
        feats = " ".join(f"{int(k)}:{repr(float(val))}" for k, val in zip(p.indices, p.values))
        lines.append(f"{repr(float(coefs[i] * scale))} {label} {feats}".rstrip())
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> ModelState:
    """Rebuild a prediction-ready ModelState from a model file.

    A missing or malformed line raises ParseError naming it.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != MODEL_FORMAT_TAG:
        raise ParseError(f"not a model file (missing '{MODEL_FORMAT_TAG}' header)", 1)
    header: dict[str, int] = {}  # key -> index of its line
    cursor = 1
    while cursor < len(lines) and not lines[cursor].startswith("support "):
        header[lines[cursor].partition(" ")[0]] = cursor
        cursor += 1
    if cursor == len(lines):
        raise ParseError("missing support section")
    at = cursor  # the line being parsed, named in errors

    def field(key: str) -> list[str]:
        nonlocal at
        if key not in header:
            raise ParseError(f"missing '{key}' line")
        at = header[key]
        return lines[at].split()[1:]

    try:
        tok = field("kernel")
        kv = dict(zip(tok[::2], tok[1::2]))
        kernel = KernelSpec(float(kv["sigma_f"]), float(kv["sigma_l"]), float(kv["offset"]))
        tok = field("config")
        kv = dict(zip(tok[::2], tok[1::2]))
        config = TrainConfig(
            C=float(kv["C"]),
            C_prime=float(kv["C_prime"]),
            loss=LossSpec(kv["loss"], tau=float(kv["tau"]), epsilon=float(kv["epsilon"])),
            smoothness=SmoothnessSpec(float(kv["p"])),
            T=int(kv["T"]),
            seed=int(kv["seed"]),
            objective_mode=kv.get("objective_mode", "auto"),
        )
        sigma_s = float(field("sigma_s")[0])
        t = int(field("t")[0]) if "t" in header else config.T + 1
        at = cursor
        k = int(lines[at].split()[1])
        coefs = np.zeros(k)
        points: list[SparseVector] = []
        sup_labels: list[int] = []
        for j in range(k):
            at = cursor + 1 + j
            if at == len(lines) or lines[at] == "end":
                raise ParseError(f"support section ends after {j} of {k} points", at + 1)
            tok = lines[at].split()
            coefs[j] = float(tok[0])
            sup_labels.append(int(tok[1]))
            pairs = []
            for feat in tok[2:]:
                idx_s, _, val_s = feat.partition(":")
                pairs.append((int(idx_s), float(val_s)))
            points.append(SparseVector.from_pairs(pairs))
    except (ValueError, IndexError, KeyError) as exc:
        raise ParseError(f"bad line ({type(exc).__name__}: {exc})", at + 1) from None
    if cursor + k + 1 >= len(lines) or lines[cursor + k + 1] != "end":
        raise ParseError("missing 'end' terminator")

    return ModelState(
        kernel=kernel,
        points=tuple(points),
        alpha=np.zeros(k),
        scale_w=1.0,
        beta=coefs,
        scale_avg=1.0,
        t=t,
        config=config,
        sigma_s=sigma_s,
        labels=np.array(sup_labels, dtype=np.int8),
    )
