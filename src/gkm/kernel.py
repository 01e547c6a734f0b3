"""Squared-exponential kernel and the sparse-vector geometry built on it.

The kernel is K(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 sigma_l^2)), so
every feature vector has norm ||Phi(x)|| = sigma_f. That constant norm is
what the convergence machinery in :mod:`gkm.bounds` leans on (R = sigma_f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector with 1-based feature indices.

    Indices must be strictly increasing positive integers; absent indices
    are zero. Instances are immutable and hashable by identity.
    """

    indices: np.ndarray
    values: np.ndarray
    norm_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size and (idx[0] < 1 or np.any(np.diff(idx) <= 0)):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        object.__setattr__(self, "norm_sq", float(val @ val))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        pairs = list(pairs)
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        val = np.array([p[1] for p in pairs], dtype=np.float64)
        return cls(idx, val)

    @classmethod
    def from_dense(cls, dense: Sequence[float]) -> "SparseVector":
        arr = np.asarray(dense, dtype=np.float64)
        return cls(np.arange(1, arr.size + 1, dtype=np.int64), arr.copy())

    @property
    def max_index(self) -> int:
        return int(self.indices[-1]) if self.indices.size else 0

    def to_dense(self, dim: int) -> np.ndarray:
        out = np.zeros(dim, dtype=np.float64)
        if self.indices.size:
            out[self.indices - 1] = self.values
        return out


def squared_distance(x: SparseVector, y: SparseVector) -> float:
    """||x - y||^2 via a merged index walk; exact zero when x is y."""
    if x is y:
        return 0.0
    _, ix, iy = np.intersect1d(
        x.indices, y.indices, assume_unique=True, return_indices=True
    )
    cross = float(x.values[ix] @ y.values[iy]) if ix.size else 0.0
    d2 = x.norm_sq + y.norm_sq - 2.0 * cross
    return d2 if d2 > 0.0 else 0.0


@dataclass(frozen=True)
class KernelSpec:
    """Squared-exponential kernel parameters.

    ``sigma_f`` is the output scale (K(x,x) = sigma_f^2), ``sigma_l`` the
    length-scale in input-distance units. ``offset`` is an optional additive
    constant absorbing a bias term; it defaults to 0 and stays off unless a
    caller explicitly wants the constant-feature trick.
    """

    sigma_f: float
    sigma_l: float
    offset: float = 0.0

    def __post_init__(self):
        if not (self.sigma_f > 0 and self.sigma_l > 0):
            raise ValueError("sigma_f and sigma_l must be positive")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    @classmethod
    def from_gamma(cls, gamma: float) -> "KernelSpec":
        """Map the exp(-gamma ||x-x'||^2) parameterization to (sigma_f=1, sigma_l)."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return cls(sigma_f=1.0, sigma_l=math.sqrt(1.0 / (2.0 * gamma)))


def eval_kernel(spec: KernelSpec, x: SparseVector, y: SparseVector) -> float:
    """K(x, y); lies in (0, sigma_f^2] and is symmetric."""
    d2 = squared_distance(x, y)
    return spec.sigma_f**2 * math.exp(-d2 / (2.0 * spec.sigma_l**2)) + spec.offset


def feature_norm(spec: KernelSpec, x: SparseVector) -> float:
    """||Phi(x)|| = K(x,x)^(1/2); equals sigma_f for every x (offset off)."""
    if spec.offset == 0.0:
        return spec.sigma_f
    return math.sqrt(spec.sigma_f**2 + spec.offset)


def decision_value(
    spec: KernelSpec,
    coefficients: Sequence[tuple[SparseVector, float]],
    x: SparseVector,
) -> float:
    """Evaluate sum_i alpha_i K(x_i, x) for a kernel expansion."""
    return sum(alpha * eval_kernel(spec, xi, x) for xi, alpha in coefficients)


def kernel_matrix_from_sq_dists(spec: KernelSpec, d2: np.ndarray) -> np.ndarray:
    """Vectorized kernel from precomputed squared distances."""
    return spec.sigma_f**2 * np.exp(-d2 / (2.0 * spec.sigma_l**2)) + spec.offset


# Bytes of one support x targets slab in block_decisions. Slabs that stay in
# a core's L2 cache ran fastest: 1-4 MB timed alike on a Xeon with 2 MB of
# L2 per core.
SLAB_BYTES = 2 << 20


def sq_dist_block(XA: np.ndarray, sqA: np.ndarray, XB: np.ndarray, sqB: np.ndarray, out=None):
    """Squared distances (sqA + sqB) - 2 XA XB^T between the rows of XA and
    XB, in that order, clamped at 0; into ``out`` when given. Passing one
    array as both XA and XB keeps numpy's symmetric (syrk) product."""
    d2 = np.add(sqA[:, None], sqB[None, :], out=out)
    d2 -= 2.0 * (XA @ XB.T)
    return np.maximum(d2, 0.0, out=d2)


def gram_sq_dists(X: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of the rows of X; exact-zero diagonal."""
    d2 = sq_dist_block(X, sq, X, sq)
    np.fill_diagonal(d2, 0.0)
    return d2


def block_decisions(spec: KernelSpec, coefs, XS, sqS, XT, sqT) -> np.ndarray:
    """coefs @ K(S, T) for support rows XS and target rows XT, over slabs of
    T of at most SLAB_BYTES built in one reused buffer: memory is O(slab)
    beyond the inputs. The kernel repeats kernel_matrix_from_sq_dists's
    operations in order, in place, so one slab gives the one-shot bits."""
    k, m = XS.shape[0], XT.shape[0]
    width = max(1, SLAB_BYTES // (8 * max(k, 1)))
    buf = np.empty(k * min(width, m))
    out = np.empty(m)
    for start in range(0, m, width):
        stop = min(start + width, m)
        block = buf[: k * (stop - start)].reshape(k, stop - start)
        sq_dist_block(XS, sqS, XT[start:stop], sqT[start:stop], out=block)
        np.negative(block, out=block)
        block /= 2.0 * spec.sigma_l**2
        np.exp(block, out=block)
        block *= spec.sigma_f**2
        block += spec.offset
        out[start:stop] = coefs @ block
    return out
