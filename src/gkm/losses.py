"""Loss functions and the |t|^p smoothness family.

Every loss gradient factors as s * Phi(x) for a scalar s with |s| <= 1,
which is what pins the gradient bound A to the feature-space radius R.
All functions broadcast over numpy arrays and accept plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")

    @property
    def is_classification(self) -> bool:
        return self.kind in CLASSIFICATION_KINDS


@dataclass(frozen=True)
class SmoothnessSpec:
    """Edge penalty |t|^p with p >= 1."""

    p: float

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError("p must be >= 1")


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


def loss_grad_scalar(spec: LossSpec, o, y):
    """Scalar s of the (sub)gradient s * Phi(x); |s| <= 1 for every kind.

    At kinks the zero subgradient is chosen (sign(0) = 0 convention), which
    keeps updates deterministic.
    """
    _check_labels(spec, y)
    o = np.asarray(o, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    kind = spec.kind
    if kind == "hinge":
        out = np.where(y * o <= 1.0, -y, 0.0)
    elif kind == "smooth-hinge":
        tau = spec.tau
        yo = y * o
        out = np.where(
            yo < 1.0 - tau,
            -y,
            np.where(yo <= 1.0, (yo - 1.0) * y / tau, 0.0),
        )
    elif kind == "logistic":
        out = -y * expit(-y * o)
    elif kind == "l1":
        out = np.sign(o - y)
    else:  # eps-insensitive
        out = np.where(np.abs(y - o) > spec.epsilon, np.sign(o - y), 0.0)
    return out if out.ndim else float(out)


def lp_value(spec: SmoothnessSpec, t):
    """|t|^p, even in t."""
    t = np.asarray(t, dtype=np.float64)
    out = np.abs(t) ** spec.p
    return out if out.ndim else float(out)


def lp_grad_scalar(spec: SmoothnessSpec, t):
    """p * sign(t) * |t|^(p-1); odd in t, zero at t = 0 for every p >= 1."""
    t = np.asarray(t, dtype=np.float64)
    out = spec.p * np.sign(t) * np.abs(t) ** (spec.p - 1.0)
    return out if out.ndim else float(out)


def gradient_bound_A(spec: LossSpec, R: float) -> float:
    """Uniform gradient bound A for the loss; A = R for all five kinds."""
    if R <= 0:
        raise ValueError("R must be positive")
    return float(R)

