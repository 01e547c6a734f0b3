"""Loss functions and the |t|^p smoothness family.

Every loss gradient factors as s * Phi(x) for a scalar s with |s| <= 1,
which is what pins the gradient bound A to the feature-space radius R.
loss_slope and lp_slope return the plain-float slopes the trainer steps with;
the rest accept plain floats, and all but the *_prox_slope ones broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidLabelError

LOSS_KINDS = ("hinge", "smooth-hinge", "logistic", "l1", "eps-insensitive")
CLASSIFICATION_KINDS = frozenset({"hinge", "smooth-hinge", "logistic"})


@dataclass(frozen=True)
class LossSpec:
    """Selected loss with its shape parameters.

    ``tau`` is the smooth-hinge corner width (only read for that kind);
    ``epsilon`` the insensitivity tube half-width (only for eps-insensitive).
    """

    kind: str
    tau: float = 0.5
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}; expected one of {LOSS_KINDS}")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if not self.epsilon >= 0.0:
            raise ValueError("epsilon must be non-negative")

    @property
    def is_classification(self) -> bool:
        return self.kind in CLASSIFICATION_KINDS


@dataclass(frozen=True)
class SmoothnessSpec:
    """Edge penalty |t|^p with finite p >= 1."""

    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p!r}")


def _check_labels(spec: LossSpec, y) -> None:
    if spec.is_classification:
        arr = np.asarray(y)
        if not np.all(np.isin(arr, (-1.0, 1.0))):
            raise InvalidLabelError(
                f"{spec.kind} loss requires labels in {{-1, +1}}, got {y!r}"
            )


def loss_value(spec: LossSpec, o, y):
    """Loss value at decision value o and target y; non-negative, convex in o."""
    _check_labels(spec, y)
    o = np.asarray(o, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kind = spec.kind
    if kind == "hinge":
        out = np.maximum(0.0, 1.0 - y * o)
    elif kind == "smooth-hinge":
        tau = spec.tau
        yo = y * o
        out = np.where(
            yo > 1.0,
            0.0,
            np.where(yo < 1.0 - tau, 1.0 - yo - tau / 2.0, (1.0 - yo) ** 2 / (2.0 * tau)),
        )
    elif kind == "logistic":
        out = np.logaddexp(0.0, -y * o)
    elif kind == "l1":
        out = np.abs(y - o)
    else:  # eps-insensitive
        out = np.maximum(0.0, np.abs(y - o) - spec.epsilon)
    return out if out.ndim else float(out)


def loss_slope(spec: LossSpec):
    """(Sub)gradient scalar s(o, y) of s * Phi(x), |s| <= 1, as a plain-float
    function: the one definition, which the trainer steps with and
    loss_grad_scalar maps over arrays. At a kink, hinge takes -y at y o = 1,
    l1 takes 0 at o = y and eps-insensitive 0 at |o - y| = epsilon;
    smooth-hinge and logistic are differentiable."""
    kind = spec.kind
    if kind == "hinge":
        return lambda o, y: -y if y * o <= 1.0 else 0.0
    if kind == "smooth-hinge":
        tau = spec.tau

        def slope(o, y, tau=tau):
            yo = y * o
            if yo < 1.0 - tau:
                return -y
            if yo <= 1.0:
                return (yo - 1.0) * y / tau
            return 0.0

        return slope
    if kind == "logistic":

        def slope(o, y):
            yo = y * o
            if yo >= 0.0:
                e = math.exp(-yo)
                return -y * e / (1.0 + e)
            return -y / (1.0 + math.exp(yo))

        return slope
    if kind == "l1":
        return lambda o, y: float(np.sign(o - y))
    eps = spec.epsilon
    return lambda o, y: (float(np.sign(o - y)) if abs(y - o) > eps else 0.0)


def _elementwise(fn, *args):
    """fn applied to the broadcast float64 arguments, one element at a time
    as Python floats; a float for scalar arguments."""
    out = np.frompyfunc(fn, len(args), 1)(*(np.asarray(a, dtype=np.float64) for a in args))
    out = np.asarray(out, dtype=np.float64)
    return out if out.ndim else float(out)


def loss_grad_scalar(spec: LossSpec, o, y):
    """loss_slope(spec) at every (o, y); broadcasts, labels checked."""
    _check_labels(spec, y)
    return _elementwise(loss_slope(spec), o, y)


def expit(x: float) -> float:
    """1 / (1 + exp(-x)), 0 where exp(-x) overflows: scipy.special.expit's
    formula, bit for bit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def xlogx(a: float) -> float:
    """a log a, 0 at a = 0: scipy.special.xlogy(a, a), bit for bit."""
    return a * math.log(a) if a else 0.0


def _increasing_root(g, dg, lo, hi):
    """Root of increasing g, g(lo) <= 0 <= g(hi): Newton from hi, bisecting as rtsafe does."""
    x, dx = hi, hi - lo
    for _ in range(200):
        gx = g(x)
        lo, hi = (x, hi) if gx < 0.0 else (lo, x)
        nx = x - gx / dg(x) if gx else x
        if gx and not (lo < nx < hi and abs(nx - x) <= 0.5 * abs(dx)):
            nx = 0.5 * (lo + hi)
        if nx == x:
            break
        x, dx = nx, nx - x
    return x


def loss_prox_slope(spec: LossSpec, v: float, y: float, gamma: float) -> float:
    """Scalar s in d loss(u, y) at u = prox_{gamma loss(., y)}(v) = v - gamma * s."""
    if spec.kind == "logistic":
        m = _increasing_root(lambda m: m - y * v - gamma * expit(-m),
                             lambda m: 1.0 + gamma * expit(m) * expit(-m), y * v, y * v + gamma)
        return -y * expit(-m)
    if spec.is_classification:  # hinge is smooth-hinge with a zero-width corner
        width = gamma + (spec.tau if spec.kind == "smooth-hinge" else 0.0)
        return -y * min(max((1.0 - y * v) / width, 0.0), 1.0)
    eps = spec.epsilon if spec.kind == "eps-insensitive" else 0.0  # l1 has eps = 0
    return float(np.copysign(min(max((abs(v - y) - eps) / gamma, 0.0), 1.0), v - y))


def loss_conjugate(spec: LossSpec, s, y):
    """Convex conjugate sup_o [s * o - loss(o, y)]; inf off its domain."""
    s, r = np.asarray(s, dtype=np.float64), np.multiply(y, s)
    inside = (r >= -1.0) & (r <= 0.0) if spec.is_classification else np.abs(s) <= 1.0
    if spec.kind == "logistic":  # clipped into the domain; the rest is masked below
        r = _elementwise(lambda r: xlogx(-r) + xlogx(1.0 + r), np.clip(r, -1.0, 0.0))
    r = r + (0.5 * spec.tau * r * r if spec.kind == "smooth-hinge" else 0.0)
    r = r + (spec.epsilon * np.abs(s) if spec.kind == "eps-insensitive" else 0.0)
    out = np.where(inside, r, np.inf)
    return out if out.ndim else float(out)


def lp_value(spec: SmoothnessSpec, t):
    """|t|^p, even in t."""
    t = np.asarray(t, dtype=np.float64)
    out = np.abs(t) ** spec.p
    return out if out.ndim else float(out)


def lp_slope(spec: SmoothnessSpec):
    """p * sign(t) * |t|^(p-1) as a plain-float function, odd and zero at 0,
    +-inf where |t|^(p-1) overflows: the one definition, which the trainer
    steps with and lp_grad_scalar maps."""
    p = spec.p
    if p == 1.0:
        return lambda t: -1.0 if t < 0.0 else (1.0 if t > 0.0 else 0.0)
    if p == 2.0:
        return lambda t: 2.0 * t
    pm1 = p - 1.0

    def slope(t, p=p, pm1=pm1):
        if t == 0.0:
            return 0.0
        try:
            return p * math.copysign(abs(t) ** pm1, t)
        except OverflowError:
            return math.copysign(math.inf, t)

    return slope


def lp_grad_scalar(spec: SmoothnessSpec, t):
    """lp_slope(spec) at every t; broadcasts."""
    return _elementwise(lp_slope(spec), t)


def lp_prox_slope(spec: SmoothnessSpec, v: float, gamma: float) -> float:
    """Scalar s = lp_grad_scalar(u) at u = prox_{gamma |.|^p}(v) = v - gamma * s: closed
    form for p in {1, 2}, else Newton on (b / p)^(1 / (p - 1)) + gamma * b = |v| for
    b = |s|, started from an upper bound within 2x of the root."""
    p, r = spec.p, np.float64(abs(v))
    if p == 1.0:
        return min(max(v / gamma, -1.0), 1.0)
    if p == 2.0:
        return 2.0 * v / (1.0 + 2.0 * gamma)
    q = 1.0 / (p - 1.0)
    with np.errstate(all="ignore"):  # numpy scalars: overflow gives inf, not an error
        b = _increasing_root(lambda b: (b / p) ** q + gamma * b - r,
                             lambda b: q / p * (b / p) ** (q - 1.0) + gamma,
                             0.0, min(r / gamma, p * r ** (p - 1.0)))
    return float(np.copysign(b, v))


def lp_conjugate(spec: SmoothnessSpec, s):
    """Convex conjugate of |t|^p: (p-1) (|s|/p)^(p/(p-1)); for p = 1, 0 on |s| <= 1, else inf."""
    s, p = np.abs(np.asarray(s, dtype=np.float64)), spec.p
    out = np.where(s <= 1.0, 0.0, np.inf) if p == 1.0 else (p - 1) * (s / p) ** (p / (p - 1))
    return out if out.ndim else float(out)

