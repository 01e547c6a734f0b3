"""Squared-exponential kernel and the sparse-vector geometry built on it.

The kernel is K(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 sigma_l^2)), so
every feature vector has norm ||Phi(x)|| = sigma_f. That constant norm is
what the convergence machinery in :mod:`gkm.bounds` leans on (R = sigma_f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sorted sparse vector with 1-based feature indices.

    Indices must be strictly increasing positive integers; absent indices
    are zero. Instances are immutable and hashable by identity.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size and (idx[0] < 1 or np.any(np.diff(idx) <= 0)):
            raise ValueError("indices must be strictly increasing and >= 1")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

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


@dataclass(frozen=True)
class KernelSpec:
    """Squared-exponential kernel parameters.

    ``sigma_f`` is the output scale (K(x,x) = sigma_f^2), ``sigma_l`` the
    length-scale in input-distance units.
    """

    sigma_f: float
    sigma_l: float

    def __post_init__(self):
        if not (self.sigma_f > 0 and self.sigma_l > 0):
            raise ValueError("sigma_f and sigma_l must be positive")


def kernel_matrix_from_sq_dists(spec: KernelSpec, d2, out=None):
    """Vectorized kernel from precomputed squared distances; into ``out``
    when given, which may be ``d2`` itself."""
    k = np.divide(d2, -2.0 * spec.sigma_l**2, out=out)
    k = np.exp(k, out=out)
    scale = spec.sigma_f**2
    if scale == 1.0:
        return k  # x * 1.0 is x: the pass would change no bit
    return np.multiply(k, scale, out=out)


# Bytes of one support x targets slab in block_decisions. Slabs that stay in
# a core's L2 cache ran fastest: 1-4 MB timed alike on a Xeon with 2 MB of
# L2 per core.
SLAB_BYTES = 2 << 20

# Bytes of the rows that sq_dist_block carries through its elementwise passes
# at once. With their norm sums they stay in L2 from pass to pass: on a
# 4200 x 62 slab, 256 KB and 512 KB chunks ran alike and ~15% faster than
# passes over the whole slab, which spill to L3.
_PASS_BYTES = 256 << 10


_SCATTER_ROWS = 1024  # rows filled per step in dense_rows; bounds its index temporaries


def dense_rows(points: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray]:
    """Dense (X, squared row norms) of sparse vectors with one column per
    feature index that occurs, in increasing order, so memory follows the
    distinct indices, not the largest one. Distances are unchanged: a column
    no vector uses adds only zeros.

    Beyond X and the norms, memory is the scan of all indices for the
    columns, freed before X is allocated, and the temporaries of one
    _SCATTER_ROWS chunk of rows."""
    n = len(points)
    if not n:
        return np.zeros((0, 0)), np.zeros(0)
    indices = [p.indices for p in points]
    values = [p.values for p in points]
    idx = np.concatenate(indices)
    top = int(idx.max(initial=0))
    # full rows (every dense input): a row's indices rise from 1, so it has
    # at most top of them, and n * top of them means each row is 1..top.
    # X is then the values in row order, the only allocation.
    if idx.size == n * top:
        del idx, indices
        X = np.concatenate(values).reshape(n, top)
        return X, np.einsum("ij,ij->i", X, X)
    # compact indices: an occupancy table no larger than the input, much
    # faster than np.unique
    if top <= idx.size:
        occupied = np.zeros(top + 1, dtype=bool)
        occupied[idx] = True
        cols = np.flatnonzero(occupied)
    else:
        cols = np.unique(idx)
    del idx  # freed before X is allocated: peak memory stays near X alone
    width = cols.size
    X = np.zeros((n, width))
    flat = X.reshape(-1)  # a view: X is C-contiguous
    for start in range(0, n, _SCATTER_ROWS):
        stop = min(start + _SCATTER_ROWS, n)
        chunk = indices[start:stop]
        pos = np.concatenate(chunk)
        if width == top:  # every index 1..top occurs: its column is index - 1
            pos -= 1
        else:
            pos = np.searchsorted(cols, pos)
        pos += np.repeat(np.arange(start * width, stop * width, width), [a.size for a in chunk])
        flat[pos] = np.concatenate(values[start:stop])
    return X, np.einsum("ij,ij->i", X, X)


def sq_dist_block(
    XA: np.ndarray,
    sqA: np.ndarray,
    XB: np.ndarray,
    sqB: np.ndarray,
    out=None,
    spec: KernelSpec | None = None,
):
    """Squared distances (sqA + sqB) - 2 XA XB^T between the rows of XA and
    XB, in that order, clamped at 0; into ``out`` when given. Passing one
    array as both XA and XB keeps numpy's symmetric (syrk) product. With a
    KernelSpec ``spec``, the result is instead the kernel block
    kernel_matrix_from_sq_dists(spec, d2), bit for bit.

    The product is formed in the result. Then, _PASS_BYTES of rows at a time
    while they stay in cache, it is scaled by -2 (exact), the norm sums
    sqA[i] + sqB[j] are added, the sum is clamped at 0 and, with ``spec``,
    turned into kernel values. Every pass is elementwise, so each entry is
    rounded as in the one-shot formula; the only temporary beyond the result
    is one chunk of norm sums."""
    d2 = np.matmul(XA, XB.T, out=out)
    step = max(1, _PASS_BYTES // (8 * max(d2.shape[1], 1)))
    sums = np.empty(min(step, d2.shape[0]) * d2.shape[1])
    for r in range(0, d2.shape[0], step):
        rows = d2[r : r + step]
        norms = sums[: rows.size].reshape(rows.shape)
        np.copyto(norms, sqA[r : r + step, None])  # a two-operand broadcast add: ~2x slower
        norms += sqB
        rows *= -2.0
        rows += norms
        np.maximum(rows, 0.0, out=rows)
        if spec is not None:
            kernel_matrix_from_sq_dists(spec, rows, out=rows)
    return d2


def sq_dist_pairs(X: np.ndarray, sq: np.ndarray, us, vs) -> np.ndarray:
    """Squared distances of the row pairs (us[k], vs[k]) of X, clamped at 0
    and exactly 0 where us[k] == vs[k]. The rows are gathered SLAB_BYTES at
    a time; each distance depends on its own pair only, so the chunking
    changes no bit."""
    us, vs = np.asarray(us), np.asarray(vs)
    d2 = np.empty(us.size)
    step = max(1, SLAB_BYTES // (8 * max(X.shape[1], 1)))
    for start in range(0, us.size, step):
        u, v = us[start : start + step], vs[start : start + step]
        d2[start : start + step] = sq[u] + sq[v] - 2.0 * np.einsum("ij,ij->i", X[u], X[v])
    np.maximum(d2, 0.0, out=d2)
    d2[us == vs] = 0.0
    return d2


def gram_sq_dists(X: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Pairwise squared distances of the rows of X; exact-zero diagonal."""
    d2 = sq_dist_block(X, sq, X, sq)
    np.fill_diagonal(d2, 0.0)
    return d2


def block_decisions(spec: KernelSpec, coefs, XS, sqS, XT, sqT) -> np.ndarray:
    """coefs @ K(S, T) for support rows XS and target rows XT, over slabs of
    T of at most SLAB_BYTES built in one reused buffer: memory is O(slab)
    beyond the inputs. It runs in the calling thread; BLAS threads, as the
    environment sets them, serve the slab's product. The product's last bits
    can depend on that thread count, so the decisions are reproducible for
    a fixed BLAS library and thread count only."""
    k, m = XS.shape[0], XT.shape[0]
    width = max(1, SLAB_BYTES // (8 * max(k, 1)))
    buf = np.empty(k * min(width, m))
    out = np.empty(m)
    for start in range(0, m, width):
        stop = min(start + width, m)
        block = buf[: k * (stop - start)].reshape(k, stop - start)
        sq_dist_block(XS, sqS, XT[start:stop], sqT[start:stop], out=block, spec=spec)
        out[start:stop] = coefs @ block
    return out
