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

import contextlib
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .bounds import _require_positive
from .data import RNG_ALGORITHM, Dataset, checked_labels, format_points, parse_float, parse_label
from .data import parse_point, records, write_lines
from .exceptions import EmptyEdgeSetError, GkmError, NoLabeledDataError, NonFiniteStateError, ParseError
from .graph import EdgeSet, ExplicitEdges, check_vertices
from .kernel import (
    KernelSpec,
    Points,
    Rows,
    block_decisions,
    columns,
    dense_rows,
    equal_rows,
    gram,
    require_count,
    require_scale,
    support_decisions,
)
from .labelprop import threshold_labels
from .losses import LossSpec, SmoothnessSpec, loss_slope, loss_value, lp_slope, lp_value

OBJECTIVE_MODES = ("auto", "exact", "sampled")

_GRAM_CAP = 2048  # n above which the trainer streams kernel values
_SAMPLE_CHUNK = 4096  # per-chunk RNG draws; fixed so streams are reproducible
_BLOCK_STEPS = 64  # steps per block above _GRAM_CAP; fixed, so is every sum's order
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
        _require_positive(C=self.C, C_prime=self.C_prime)
        for name, least in (("T", 1), ("seed", 0), ("objective_samples", 1), ("diagnostics_every", 1)):
            value = getattr(self, name)
            if value is None and name == "diagnostics_every":
                continue
            object.__setattr__(self, name, require_count(name, value, least))
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"objective_mode must be one of {OBJECTIVE_MODES}")


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


@dataclass(frozen=True, eq=False)
class ModelState:
    """The model: coefficients ``beta`` of the averaged iterate over
    ``points``, which it predicts with, and everything needed to evaluate
    decisions. Its inputs are checked when it is built (ValueError): one
    finite coefficient per point and, when ``labels`` are given, one label
    in {-1, 0, +1} per point. It is immutable, ``beta`` and ``labels``
    read-only copies, so it keeps every decision at its own points that it
    computes (decisions_at); ``dataclasses.replace`` makes a new model,
    which starts with none."""

    kernel: KernelSpec
    points: Points
    beta: np.ndarray
    config: TrainConfig
    sigma_s: float
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.points)
        beta = np.array(self.beta, dtype=np.float64)
        if beta.shape != (n,):
            raise ValueError(f"beta must hold one coefficient per point ({n}), got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("beta must be finite (no NaN or inf)")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        if self.labels is not None:
            object.__setattr__(self, "labels", checked_labels(self.labels, n))

    @cached_property
    def _memo(self) -> np.ndarray:
        """The decision at each of the model's points, NaN where none is
        computed yet (a NaN decision is computed again)."""
        return np.full(len(self.points), np.nan)

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The support's columns, and the dense rows of all the model's
        points over them with their squared norms (kernel.dense_rows)."""
        cols = columns(self.points[np.flatnonzero(self.beta)])
        return (cols, *dense_rows(self.points, cols))

    def decisions_at(self, rows: np.ndarray) -> np.ndarray:
        """The decisions at the model's own points ``rows`` (indices, in any
        order, repeats allowed), each computed once per model and kept. As
        soon as any support row is asked for, f(S) = beta[S] @ K(S, S) at
        the whole support S (beta's nonzeros) comes from the upper triangle
        of K(S, S) (support_decisions); any other point goes through
        block_decisions, its row gathered one slab at a time (Rows). Both
        read the rows of ``_rows``, so a decision has the same bits however
        it is reached."""
        memo = self._memo
        todo = np.zeros(memo.size, dtype=bool)  # a mask: np.unique would load numpy.ma
        todo[rows] = True
        todo &= np.isnan(memo)
        if todo.any():
            sup = np.flatnonzero(self.beta)
            _, X, sq = self._rows
            c, XS, sqS = self.beta[sup], X[sup], sq[sup]
            if todo[sup].any():
                memo[sup] = support_decisions(self.kernel, c, XS, sqS)
                todo[sup] = False
            at = np.flatnonzero(todo)
            if at.size:
                memo[at] = block_decisions(self.kernel, c, XS, sqS, Rows(X, at), sq[at])
        return memo[rows]


def _gram_values(K_rows: list[np.ndarray], u: np.ndarray, lab_idx, eu, ev):
    """The step values of a chunk's targets (i, a, b), read from the cached
    Gram's rows: the unscaled decisions u . K[:, t] at t = i, a, b, then
    K(a, b), K(i, a) and K(i, b), as Python floats. A decision is one BLAS
    dot ``u.dot(K_rows[i])`` and an entry one ``K_rows[a].item(b)``, which
    spares each step numpy's matmul dispatch and per-call row views."""
    for i, a, b in zip(lab_idx, eu, ev):
        K_i, K_a = K_rows[i], K_rows[a]
        yield (
            float(u.dot(K_i)), float(u.dot(K_a)), float(u.dot(K_rows[b])),
            K_a.item(b), K_i.item(a), K_i.item(b),
        )


def _block_values(kernel: KernelSpec, X, sq, u: np.ndarray, lab_idx, eu, ev):
    """The values of _gram_values, computed _BLOCK_STEPS steps at a time.

    When a block's first values are pulled, it takes the block's distinct
    targets P, the decisions at P of the nonzero coefficients outside P (one
    slabbed ``block_decisions`` pass) and the kernel K_P among P. A step's
    decisions are then base + K_P u[P] at its rows of P, and its entries are
    read from K_P: exact as long as u changes only at the block's targets
    between pulls, which is what a step does."""
    targets = np.stack([lab_idx, eu, ev], axis=1)
    for start in range(0, len(targets), _BLOCK_STEPS):
        block = targets[start : start + _BLOCK_STEPS]
        P, rows = np.unique(block, return_inverse=True)
        outside = u != 0.0
        outside[P] = False
        old = np.flatnonzero(outside)
        base = block_decisions(kernel, u[old], X[old], sq[old], X[P], sq[P])
        K = gram(kernel, X[P], sq[P])
        for r in rows.reshape(block.shape).tolist():
            r_i, r_a, r_b = r
            yield (
                *(base[r] + K[r] @ u[P]).tolist(),
                float(K[r_a, r_b]), float(K[r_i, r_a]), float(K[r_i, r_b]),
            )


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
    with s_t = 2/(t(t+1)), where u_t = u_{t-1} - t (C s_loss Phi_i + C' mu s_p
    (Phi_u - Phi_v)). The returned model predicts with the averaged iterate
    2/(T(T+1)) sum_t t w_{t+1}, the model the last trace point (t = T)
    evaluates, and records the graph's sigma_s (sigma_l when the graph has
    none). A diverging run raises NonFiniteStateError at the first step whose
    decision, edge slope or averaged coefficients are not finite, or at the
    first trace point (or t = T) where ||w_t||^2, its running maximum, the
    largest ||g_t||^2 or the traced J is not finite.
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

    n, T = dataset.n, config.T
    labels = dataset.labels.astype(np.float64).tolist()

    C, Cp = config.C, config.C_prime
    loss_grad = loss_slope(config.loss)
    lp_grad = lp_slope(config.smoothness)
    kxx = kernel.sigma_f**2

    u = np.zeros(n)
    X, sq = dataset.dense()
    if n <= _GRAM_CAP:
        values = partial(_gram_values, list(gram(kernel, X, sq)), u)
    else:
        values = partial(_block_values, kernel, X, sq, u)
    v = [0.0] * n  # read only at trace points and at the end, so a list
    s = 1.0  # scale of u: w_t = s u (u = 0 until step 1)
    Q = 0.0
    nw2 = 0.0  # ||w_t||^2, tracked incrementally
    max_nw2 = max_g2 = 0.0

    every = config.diagnostics_every
    # an exact trace enumerates the edges once, before step 1, so an edge set
    # over graph.EXACT_EDGE_CAP fails before any training step
    trace_graph = graph
    if every is not None and _resolve_mode(config, graph) == "exact":
        trace_graph = ExplicitEdges(*graph.enumerate_edges(), n)
    trace: list[tuple[int, float, float, float]] = []
    iterates: list[np.ndarray] | None = [] if record_iterates else None

    isfinite = math.isfinite
    uw = memoryview(u)  # u's own memory: a write adds the double, unboxed
    # overflow of a divergent configuration is detected by the finiteness
    # checks below; keep numpy quiet on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk_start in range(1, T + 1, _SAMPLE_CHUNK):
            chunk = min(_SAMPLE_CHUNK, T + 1 - chunk_start)
            lab_idx = rng.integers(0, l, size=chunk)
            eu, ev, ew = graph.sample_batch(rng, chunk)
            lab_idx, eu, ev, ew = lab_idx.tolist(), eu.tolist(), ev.tolist(), ew.tolist()
            # the chunk's step schedule: numpy's float64 + - * / round as
            # Python's do, so each value is the float the step would compute
            ts = np.arange(chunk_start, chunk_start + chunk, dtype=np.float64)
            etas = (2.0 / (ts + 1.0)).tolist()  # eta_t = 2/(t+1) = t s_t
            cs = ((ts - 1.0) / (ts + 1.0)).tolist()
            scales = (2.0 / (ts * (ts + 1.0))).tolist()  # s_t = 2/(t(t+1))
            neg_ts = (-ts).tolist()
            steps = range(chunk_start, chunk_start + chunk)

            # each step's values are computed as it pulls them, after the
            # previous step's coefficient writes
            for t, i, a, b, mu, eta, c, s_t, neg_t, (d_i, d_a, d_b, k_ab, k_ia, k_ib) in zip(
                steps, lab_idx, eu, ev, ew, etas, cs, scales, neg_ts, values(lab_idx, eu, ev)
            ):
                o_i = s * d_i
                o_e = s * d_a - s * d_b
                sl = loss_grad(o_i, labels[i])
                sp = lp_grad(o_e)
                if not (isfinite(o_i) and isfinite(o_e) and isfinite(sp)):
                    raise NonFiniteStateError(
                        f"non-finite decision value or gradient at step {t}"
                    )

                dl = C * sl
                de = Cp * mu * sp
                wdelta = dl * o_i + de * o_e
                dd2 = (
                    dl * dl * kxx
                    + de * de * (2.0 * kxx - 2.0 * k_ab)
                    + 2.0 * dl * de * (k_ia - k_ib)
                )
                g2 = nw2 + 2.0 * wdelta + dd2

                nw2 = c * c * nw2 - 2.0 * c * eta * wdelta + eta * eta * dd2
                if nw2 < 0.0:
                    nw2 = 0.0
                if nw2 > max_nw2:
                    max_nw2 = nw2
                if g2 > max_g2:
                    max_g2 = g2

                # w_{t+1} = s u_t: the product of the contractions; eta / s = t
                s = s_t
                if dl != 0.0:
                    e_i = neg_t * dl
                    v[i] += e_i * Q
                    uw[i] += e_i
                if de != 0.0:
                    e_a = neg_t * de
                    v[a] += e_a * Q
                    uw[a] += e_a
                    v[b] -= e_a * Q
                    uw[b] -= e_a
                Q += eta  # t s_t

                if iterates is not None:
                    iterates.append(u * s)

                if every is not None and t % every == 0 or t == T:  # t = T: the model returned
                    try:
                        model = ModelState(kernel, dataset.points, s * (Q * u - np.array(v)),
                                           config, float(sigma_s), dataset.labels)
                    except ValueError:  # beta, the one input not yet checked, is not finite
                        raise NonFiniteStateError(f"non-finite coefficient at step {t}") from None
                    j_avg = 0.0
                    if every is not None:
                        j_avg = objective(model, dataset, trace_graph, config, rng=diag_rng)
                        trace.append((t, j_avg, math.sqrt(nw2), math.sqrt(max(g2, 0.0))))
                    if not all(map(isfinite, (nw2, max_nw2, max_g2, j_avg))):
                        raise NonFiniteStateError(f"non-finite norm or objective at step {t}")

    diag = Diagnostics(
        trace_t=np.array([r[0] for r in trace], dtype=np.int64),
        trace_j_avg=np.array([r[1] for r in trace]),
        trace_norm_w=np.array([r[2] for r in trace]),
        trace_norm_g=np.array([r[3] for r in trace]),
        max_norm_w=math.sqrt(max_nw2),
        max_norm_g=math.sqrt(max_g2),
        iterates=iterates,
    )
    return model, diag


def _resolve_mode(config: TrainConfig, graph: EdgeSet) -> str:
    if config.objective_mode != "auto":
        return config.objective_mode
    return "exact" if graph.n_edges <= _AUTO_EXACT_EDGES else "sampled"


def objective(
    model_or_coefs,
    dataset: Dataset,
    graph: EdgeSet,
    config: TrainConfig,
    kernel: KernelSpec | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """The paper's objective J = ||w||^2 / 2 + (C / l) sum_labeled loss +
    (C' / |E|) sum_edges mu_uv |f(u) - f(v)|^p, its one definition.

    Evaluates a ModelState, or raw coefficients over the dataset's points
    with ``kernel``, as a model over the dataset's points: the model itself
    when its ``points`` are the dataset's object, so it keeps the decisions
    it computes here (decisions_at) at the support, the labeled points and
    the edge endpoints (every point when the edge term is exact), otherwise
    a new one; the bits are the same either way. ||w||^2 is beta[S] . f(S).
    Exact mode enumerates the edge universe (an implicit full graph only up
    to graph.EXACT_EDGE_CAP edges); sampled mode draws
    config.objective_samples edges for an unbiased estimate of the edge term.
    """
    model = model_or_coefs
    if not isinstance(model, ModelState):
        if kernel is None:
            raise ValueError("kernel is required with raw coefficients")
        model = ModelState(kernel, dataset.points, model, config, kernel.sigma_l)
    elif model.points is not dataset.points:
        model = replace(model, points=dataset.points)
    check_vertices(graph, dataset)
    l = dataset.labeled_count
    exact = graph.n_edges > 0 and _resolve_mode(config, graph) == "exact"
    us = vs = np.empty(0, dtype=np.int64)
    if exact:
        us, vs, ws = graph.enumerate_edges()
    elif graph.n_edges > 0:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        us, vs, ws = graph.sample_batch(rng, config.objective_samples)

    sup = np.flatnonzero(model.beta)
    wanted = np.full(dataset.n, exact)
    wanted[sup] = wanted[:l] = wanted[us] = wanted[vs] = True
    at = np.flatnonzero(wanted)
    dec = np.zeros(dataset.n)
    dec[at] = model.decisions_at(at)

    reg = 0.5 * max(float(model.beta[sup] @ dec[sup]), 0.0)
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


def decision_values(state: ModelState, points: Points) -> np.ndarray:
    """Decision function of the model on arbitrary points: f(x) depends on
    the model and x alone. Query rows are dense over the support's columns,
    with squared norms from all their stored values (kernel.dense_rows).
    A row with the dense row, bit for bit, and the norm of one of the
    model's points (the first, kernel.equal_rows) takes that point's
    decision (decisions_at, which keeps it); every other row goes through
    block_decisions, which gives a row the same bits in any query. So
    under one BLAS thread a decision never depends on the rest of the query
    or on earlier calls."""
    cols, XM, sqM = state._rows
    XT, sqT = dense_rows(points, cols)
    mine = equal_rows(XM, XT)
    hit = mine >= 0
    hit[hit] = sqM[mine[hit]] == sqT[hit]
    out = np.empty(len(points))
    out[hit] = state.decisions_at(mine[hit])
    rest = np.flatnonzero(~hit)
    if rest.size:
        sup = np.flatnonzero(state.beta)
        c, XS, sqS = state.beta[sup], XM[sup], sqM[sup]
        out[rest] = block_decisions(state.kernel, c, XS, sqS, Rows(XT, rest), sqT[rest])
    return out


def predict_batch(state: ModelState, points: Points) -> np.ndarray:
    """Thresholded labels: +1 where the decision value is >= 0, else -1."""
    return threshold_labels(decision_values(state, points))


def hilbert_norm(state: ModelState) -> float:
    """RKHS norm of the model (the averaged iterate it predicts with):
    sqrt(beta[S] . f(S)) over its support S, as the objective's
    regularizer reads it (decisions_at)."""
    sup = np.flatnonzero(state.beta)
    return math.sqrt(max(float(state.beta[sup] @ state.decisions_at(sup)), 0.0))


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
    rows = zip(state.beta[sup].tolist(), labels[sup].tolist(), format_points(state.points[sup]))
    support = (f"{beta!r} {label} {point}".rstrip() for beta, label, point in rows)
    write_lines(path, [*header, *support, "end"])


def load_model(path) -> ModelState:
    """Rebuild a prediction-ready ModelState from a model file.

    A missing or malformed line raises ParseError naming it; every float
    must be finite, every bandwidth positive, and support lines follow the
    data-file point rules. A header key given twice, or any record after
    ``end``, is a ParseError too; comments and blank lines are not records.
    Unknown header lines (such as the ``t`` line of older files) are
    ignored. Files whose kernel line carries ``offset 0.0`` still load; a
    nonzero kernel offset is rejected.
    """
    # one pass: the header, the support section, end, nothing after it
    with contextlib.closing(records(path)) as lines:
        first = next(lines, None)
        if first is None or first[1] != MODEL_FORMAT_TAG.split():
            raise ParseError(f"not a model file (missing '{MODEL_FORMAT_TAG}' header)", 1)
        header = {}  # key -> its record
        for record in lines:
            if record[1][0] == "support":
                break
            if record[1][0] in header:
                raise ParseError(f"repeated '{record[1][0]}' line", record[0])
            header[record[1][0]] = record
        else:
            raise ParseError("missing support section")
        at = record[0]  # the line being parsed, named in errors

        def field(key: str) -> list[str]:
            nonlocal at
            if key not in header:
                raise ParseError(f"missing '{key}' line")
            at, tok = header[key]
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
            require_scale(sigma_s=sigma_s)
            at, tok = record
            k = int(tok[1])
            if k < 0:
                raise ValueError(f"negative support size {k}")
            coefs, sup_labels = [], []

            def support():
                nonlocal at
                for j in range(k):
                    at, tok = next(lines, (at + 1, ["end"]))
                    if tok == ["end"]:
                        raise ParseError(f"support section ends after {j} of {k} points", at)
                    coefs.append(num(tok[0]))
                    sup_labels.append(parse_label(tok[1], at))
                    yield parse_point(tok[2:], at)

            points = Points.from_rows(support())
        except (UnicodeDecodeError, GkmError):
            raise  # text that does not decode fails as reading the header does; a named line stands
        except (ValueError, IndexError, KeyError, OverflowError) as exc:
            raise ParseError(f"bad line ({type(exc).__name__}: {exc})", at) from None
        at, tok = next(lines, (at + 1, None))
        if tok != ["end"]:
            raise ParseError("missing 'end' terminator", at)
        at, tok = next(lines, (at, None))
        if tok is not None:
            raise ParseError("text after 'end'", at)

    return ModelState(
        kernel=kernel,
        points=points,
        beta=np.array(coefs, dtype=np.float64),
        config=config,
        sigma_s=sigma_s,
        labels=np.array(sup_labels, dtype=np.int8),
    )
