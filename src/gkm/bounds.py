"""Executable convergence-bound machinery.

Given the trade-offs (C, C'), the smoothness exponent p, the feature radius
R and the loss gradient bound A, this module computes the iterate bound M,
the stochastic-gradient bound G, checks the rate condition, and inverts the
condition into the recommended output scale sigma_f or the maximal C'.

Shorthand used throughout: a = C' (2R)^p p and b = C A.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleSigmaError
from .losses import SmoothnessSpec

REASON_P_LT_2 = "p_less_than_2"
REASON_P_EQ_2 = "p_eq_2_a_lt_1"
REASON_P_GT_2 = "p_gt_2_product"
REASON_VIOLATED = "violated"

# past this log, exp is beyond the float range (ln of the largest float64 is
# 709.78), and long double's exp would overflow somewhat later
_EXP_OVERFLOW = 710.0


@dataclass(frozen=True)
class BoundsReport:
    R: float
    A: float
    a: float
    b: float
    p: float
    M: float | None
    G: float | None
    condition_holds: bool
    reason: str

    def as_lines(self) -> list[str]:
        """Key-value text rendering used by the CLI."""
        rows = [
            ("R", repr(float(self.R))),
            ("A", repr(float(self.A))),
            ("a", repr(float(self.a))),
            ("b", repr(float(self.b))),
            ("p", repr(float(self.p))),
            ("M", repr(float(self.M)) if self.M is not None else "undefined"),
            ("G", repr(float(self.G)) if self.G is not None else "undefined"),
            ("condition_holds", str(self.condition_holds).lower()),
            ("reason", self.reason),
        ]
        return [f"{k} {v}" for k, v in rows]


def bound_residual(M: float, a: float, b: float, p: float) -> float:
    """a M^(p-1) - M + b: the recursion slack whose non-positivity
    certifies M as an invariant iterate-norm bound."""
    return _power((a, 1.0), (M, p - 1.0)) - M + b


def _power(*factors: tuple[float, float], log_c: float = 0.0, root: float = 1.0) -> float:
    """(exp(log_c) prod(base^exponent))^(1/root) over (base, exponent)
    factors, bases >= 0, root > 0, as one exp of a sum of logs divided by
    root: saturates to inf, never raises; 0 at a 0 base. The sum and exp run
    in numpy's long double and round once to a float, so where long double
    has a 64-bit significand (x86-64) a result is within about an ulp even
    where its log is near 700; where long double is double, the sum's
    rounding error grows with the size of the logs."""
    if any(base == 0.0 for base, _ in factors):
        return 0.0
    t = np.longdouble(log_c)
    for base, exponent in factors:
        t += np.longdouble(exponent) * np.log(np.longdouble(base))
    t /= np.longdouble(root)
    return math.inf if t > _EXP_OVERFLOW else float(np.exp(t))


def product_threshold(p: float) -> float:
    """(p-2)^(p-2) / (p-1)^(p-1) = ((p-2)/(p-1))^(p-2) / (p-1), the p > 2
    condition threshold; 1 at p = 2, where 0^0 = 1."""
    log_c = (p - 2.0) * math.log1p(-1.0 / (p - 1.0)) if p > 2.0 else 0.0
    return _power((p - 1.0, -1.0), log_c=log_c)


def _certified_M(a: float, b: float, p: float, a_factors=None) -> float | None:
    """The case table: the iterate bound M of case p at (a, b), or None
    where the rate condition fails.

    p < 2 always certifies with M = max(1, (a+b)^(1/(2-p))), a + b summed in
    long double (a float sum would err by up to 0.5/(2-p) ulp in M); p = 2 needs
    a < 1 and gives M = b/(1-a); p > 2 needs a b^(p-2) <= product_threshold(p)
    and gives M = (1/((p-1)a))^(1/(p-2)), each one power over ``a_factors``
    (by default [(a, 1)]): a or (p-1)a may leave the float range. Powers saturate to inf.
    """
    if p < 2.0:
        return max(1.0, _power((np.longdouble(a) + b, 1.0), root=2.0 - p))
    if p == 2.0:
        return b / (1.0 - a) if a < 1.0 else None
    fa = a_factors or [(a, 1.0)]
    if not _power(*fa, (b, p - 2.0)) <= product_threshold(p):
        return None
    if not all(f > 0.0 for f, _ in fa):
        return math.inf
    return _power((p - 1.0, -1.0), *((f, -e) for f, e in fa), root=p - 2.0)


def _require_positive(**values: float) -> None:
    """Reject zero, negative, NaN and infinite arguments, naming them."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def compute_bounds(C: float, C_prime: float, p: float, R: float, A: float) -> BoundsReport:
    """Evaluate the iterate bound M (see ``_certified_M``) and the gradient
    bound G = M + b + a M^(p-1), its last term one power of a's factors and
    M: finite wherever it is in the float range, even where a (shown as inf,
    0 or a subnormal), (2R)^p or M^(p-1) is not. A violated condition is
    reported, never raised.
    """
    _require_positive(C=C, C_prime=C_prime, R=R, A=A)
    SmoothnessSpec(p)  # p finite and >= 1: the trainer's rule
    try:
        rp = (2.0 * R) ** p
    except OverflowError:
        rp = math.inf
    a = C_prime * rp * p
    b = C * A
    # a's factors wherever a rounding on the way to a left the normal range
    normal = all(sys.float_info.min <= x < math.inf for x in (rp, C_prime * rp, a))
    a_factors = [(a, 1.0)] if normal else [(C_prime, 1.0), (2.0 * R, p), (p, 1.0)]
    M = _certified_M(a, b, p, a_factors)
    if M is None:
        return BoundsReport(R, A, a, b, p, None, None, False, REASON_VIOLATED)
    reason = REASON_P_LT_2 if p < 2.0 else REASON_P_EQ_2 if p == 2.0 else REASON_P_GT_2
    G = M + b + _power(*a_factors, (M, p - 1.0)) if math.isfinite(M) else math.inf
    return BoundsReport(R, A, a, b, p, M, G, True, reason)


def min_iterations(epsilon: float, delta: float, G: float) -> int:
    """T0 = ceil(2 G^2 / (epsilon delta)): iterations for an epsilon-accurate
    objective with probability at least 1 - delta."""
    if not (0.0 < epsilon < math.inf and G > 0.0):
        raise ValueError("epsilon must be positive and finite, and G positive")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    denom = epsilon * delta
    t0 = 2.0 * G * G / denom if denom > 0.0 else math.inf
    if t0 == math.inf:
        raise ValueError(f"T0 = 2 G^2/(epsilon delta) is not finite for G = {G!r}")
    return math.ceil(t0)


def max_cprime(p: float, C: float = 1.0, R: float = 1.0) -> float:
    """Largest smoothness trade-off keeping the rate condition satisfiable.

    For p < 2 there is no constraint (returns inf). For p = 2 the bound is
    strict (C' < 1/(8 R^2)); for p > 2 it is non-strict.
    """
    _require_positive(C=C, R=R)
    SmoothnessSpec(p)  # p finite and >= 1: the trainer's rule
    if p < 2.0:
        return math.inf
    if p == 2.0:
        return 1.0 / ((2.0 * R) ** 2 * 2.0)
    return _power(*_cap_factors(p, C), (R, 2.0 - 2.0 * p))


def _cap_factors(p: float, C: float) -> list[tuple[float, float]]:
    """max_cprime(p, C, R) = thr/p 2^-p C^(2-p) R^(2-2p) without R^(2-2p), p >= 2."""
    return [(product_threshold(p), 1.0), (p, -1.0), (2.0, -p), (C, 2.0 - p)]


def recommended_sigma_f(p: float, C: float, C_prime: float, rho: float | None = None) -> float:
    """Output scale sigma_f = R making the rate condition hold for (C, C', p).

    ``rho`` is the safety margin subtracted from the exact boundary value;
    when omitted it defaults to 1e-3 of that value, which keeps the
    certification strict in floating point.
    """
    _require_positive(C=C, C_prime=C_prime)
    if not 2.0 <= p < math.inf:
        raise ValueError("sigma_f selection applies to finite p >= 2 only")
    # C' <= max_cprime(p, C, R) = F R^(2-2p) holds for R <= (F / C')^(1/(2p-2))
    k = 1.0 / (2.0 * p - 2.0)
    base = _power(*((f, e * k) for f, e in _cap_factors(p, C)), (C_prime, -k))
    if rho is None:
        rho = 1e-3 * base
    sigma = base - rho
    if not sigma > 0.0:
        raise InfeasibleSigmaError(
            f"recommended sigma_f is non-positive (base {base!r}, rho {rho!r})"
        )
    return sigma


def case_M(a, b, p):
    """``_certified_M`` elementwise over broadcast (a, b, p): the M that
    compute_bounds reports, nan where the rate condition fails."""
    a, b, p = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in (a, b, p)))
    M = [_certified_M(*abp) for abp in zip(a.ravel().tolist(), b.ravel().tolist(), p.ravel().tolist())]
    return np.array([math.nan if m is None else m for m in M]).reshape(a.shape)


def sample_certified_region(p: float, rng: np.random.Generator, size: int):
    """Draw (a, b) pairs satisfying the case condition for exponent p.

    Test helper for the property suites; rejection-samples from U(0, 2]^2
    (with a ~ U(0,1) at p = 2), then nudges exact zeros to 1e-12.
    """
    a_high = 1.0 if p == 2.0 else 2.0
    kept, filled = [], 0
    while filled < size:
        ab = np.stack([rng.uniform(0.0, a_high, size), rng.uniform(0.0, 2.0, size)])
        kept.append(ab[:, ~np.isnan(case_M(ab[0], ab[1], p))])
        filled += kept[-1].shape[1]
    a, b = np.concatenate(kept, axis=1)[:, :size]
    return np.maximum(a, 1e-12), np.maximum(b, 1e-12)
