"""Squared-exponential kernel and the sparse-point geometry built on it.

The kernel is K(x, x') = sigma_f^2 * exp(-||x - x'||^2 / (2 sigma_l^2)), so
every feature vector has norm ||Phi(x)|| = sigma_f. That constant norm is
what the convergence machinery in :mod:`gkm.bounds` leans on (R = sigma_f).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True, eq=False)
class Points:
    """Points as one CSR triple: point r holds the 1-based feature indices
    ``indices[indptr[r]:indptr[r + 1]]``, strictly increasing, and the
    ``values`` there; absent indices are zero. The arrays are read-only
    int64, int64 and float64 copies, validated once (values finite). Keys act
    as on a sequence: an integer gives a one-row Points of views of its row;
    slices, index arrays and bool masks gather rows. A gather of full rows
    (each 1..d) copies only values and shares a prefix of the index array."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ptr, idx = np.array(self.indptr, np.int64), np.array(self.indices, np.int64)
        _checked(ptr, idx, np.array(self.values, np.float64), self)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[tuple[int, float]]]) -> "Points":
        """Points from rows of (index, value) pairs, taken one row at a time
        into flat 8-byte arrays, which the points keep: no second copy."""
        ptr, idx, val = array("q", [0]), array("q"), array("d")
        for row in rows:
            for i, v in row:
                idx.append(i)
                val.append(v)
            ptr.append(len(idx))
        return _checked(*(np.frombuffer(a, a.typecode) for a in (ptr, idx, val)))

    @classmethod
    def from_dense(cls, X) -> "Points":
        """The rows of a 2-d array (1-d: one row), storing every index 1..d.
        The arrays are built once; only the caller's values are copied."""
        X = np.array(X, dtype=np.float64, order="C", ndmin=2)
        n, d = X.shape
        return _checked(np.arange(n + 1) * d, np.tile(np.arange(1, d + 1), n), X.reshape(-1))

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, key) -> "Points":  # iteration stops at its IndexError
        if not (isinstance(key, slice) or np.ndim(key)):
            r = range(len(self))[key]
            a, b = self.indptr[r : r + 2]
            return _points(np.array([0, b - a]), self.indices[a:b], self.values[a:b])
        n, rows = len(self), np.arange(len(self))[key]
        width = int(self.indices.max(initial=0))
        # dense_rows' counting rule: then each row is 1..width
        if rows.size <= n and self.indices.size == n * width:
            values = self.values.reshape(n, width)[rows].reshape(-1)
            return _points(np.arange(rows.size + 1) * width, self.indices[: values.size], values)
        sizes = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        shift = self.indptr[rows] - indptr[:-1]  # source minus gathered position, per row
        indices, values = np.empty(indptr[-1], np.int64), np.empty(indptr[-1])
        # positions a chunk of rows at a time, so they stay small and in cache;
        # mode="clip": they are in range, and the default mode buffers ``out``
        for start in range(0, rows.size, _SCATTER_ROWS):
            r = slice(start, start + _SCATTER_ROWS)
            pos = np.repeat(shift[r], sizes[r])
            out = slice(indptr[start], indptr[start] + pos.size)
            pos += np.arange(out.start, out.stop)
            self.indices.take(pos, out=indices[out], mode="clip")
            self.values.take(pos, out=values[out], mode="clip")
        return _points(indptr, indices, values)


def _checked(ptr, idx, val, points: Points | None = None) -> Points:
    """_points over the arrays once they pass the Points checks."""
    if not (ptr.ndim == idx.ndim == 1 and idx.shape == val.shape and ptr.size
            and ptr[0] == 0 and ptr[-1] == idx.size and np.all(ptr[1:] >= ptr[:-1])):
        raise ValueError("indptr must rise from 0 to len(indices), and indices and values "
                         "be 1-d of equal length")
    rising, starts = idx[1:] > idx[:-1], ptr[1:-1]
    rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True  # where a point starts
    if not rising.all() or idx.min(initial=1) < 1:
        raise ValueError("indices must be strictly increasing and >= 1 within each point")
    if not np.isfinite(val).all():
        raise ValueError("feature values must be finite (no NaN or inf)")
    return _points(ptr, idx, val, points)


def _points(indptr, indices, values, points: Points | None = None) -> Points:
    """A Points (or ``points``) made read-only over valid arrays: no copy, no check."""
    points = object.__new__(Points) if points is None else points
    for name, a in (("indptr", indptr), ("indices", indices), ("values", values)):
        a.flags.writeable = False
        object.__setattr__(points, name, a)
    return points


@dataclass(frozen=True)
class KernelSpec:
    """Squared-exponential kernel parameters.

    ``sigma_f`` is the output scale (K(x,x) = sigma_f^2), ``sigma_l`` the
    length-scale in input-distance units.
    """

    sigma_f: float
    sigma_l: float

    def __post_init__(self):
        require_scale(sigma_f=self.sigma_f, sigma_l=self.sigma_l)


def require_scale(**values: float) -> None:
    """Reject a scale sigma, naming it, unless it is positive with sigma^2 and
    2 sigma^2 normal floats: squaring it neither overflows nor underflows to 0."""
    for name, value in values.items():
        x = float(value or 0.0)  # None as 0
        if not (x > 0.0 and sys.float_info.min <= x * x and 2.0 * x * x <= sys.float_info.max):
            raise ValueError(f"{name} must be positive with {name}^2 and 2 {name}^2 normal, got {value!r}")


def kernel_matrix_from_sq_dists(spec: KernelSpec, d2, out=None):
    """Vectorized kernel from precomputed squared distances; into ``out``
    when given, which may be ``d2`` itself."""
    k = np.divide(d2, -2.0 * spec.sigma_l**2, out=out)
    k = np.exp(k, out=out)
    scale = spec.sigma_f**2
    if scale == 1.0:
        return k  # x * 1.0 is x: the pass would change no bit
    return np.multiply(k, scale, out=out)


# Bytes of one kernel slab in block_decisions and support_decisions. Slabs
# that stay in a core's L2 cache ran fastest: 1-4 MB timed alike on a Xeon
# with 2 MB of L2 per core.
SLAB_BYTES = 2 << 20

# Bytes of the rows that sq_dist_block carries through its elementwise passes
# at once. With their norm sums they stay in L2 from pass to pass: on a
# 4200 x 62 slab, 256 KB and 512 KB chunks ran alike and ~15% faster than
# passes over the whole slab, which spill to L3.
_PASS_BYTES = 256 << 10


# rows per step of dense_rows' scatter and of a Points gather: bounds their temporaries
_SCATTER_ROWS = 1024


def columns(points: Points) -> np.ndarray:
    """The feature indices that occur in the points, increasing: the
    columns of dense_rows(points), one per index."""
    top = int(points.indices.max(initial=0))
    # a row's indices rise from 1, so it has at most top of them, and
    # n * top of them means each row is 1..top
    if points.indices.size == len(points) * top:
        return np.arange(1, top + 1)
    if top <= points.indices.size:
        # compact indices: an occupancy table no larger than the input, much
        # faster than np.unique
        occupied = np.zeros(top + 1, dtype=bool)
        occupied[points.indices] = True
        return np.flatnonzero(occupied)
    return np.unique(points.indices)


def dense_rows(points: Points, cols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense X of the points over the increasing feature indices ``cols``
    (by default columns(points): memory follows the distinct indices, not
    the largest one), and their squared norms from all their stored values:
    a row's sum over X (einsum), plus the squares of its values at indices
    outside ``cols``, which X drops, added in order. Both depend on the row
    and ``cols`` alone, never on the other rows. Full rows (each 1..top)
    over cols 1..top make X a read-only reshape of the values. Otherwise a
    scatter fills X, holding beyond it the scan of all indices for the
    default columns, freed before X is allocated, and the temporaries of one
    _SCATTER_ROWS chunk of rows."""
    own = cols is None
    if own:
        cols = columns(points)
    n, width = len(points), cols.size
    top = int(cols[-1]) if width else 0
    if (width == top and points.indices.size == n * top
            and (own or points.indices.max(initial=0) <= top)):  # each row is 1..top
        X = points.values.reshape(n, top)
        return X, np.einsum("ij,ij->i", X, X)
    X, extra = np.zeros((n, width)), np.zeros(0 if own else n)
    flat = X.reshape(-1)  # a view: X is C-contiguous
    for start in range(0, n, _SCATTER_ROWS):
        stop = min(start + _SCATTER_ROWS, n)
        a, b = points.indptr[start], points.indptr[stop]
        idx, val = points.indices[a:b], points.values[a:b]
        counts = np.diff(points.indptr[start : stop + 1])
        # where every index 1..top is a column, an index's column is index - 1
        pos = idx - 1 if width == top else np.searchsorted(cols, idx)
        if not own:  # the values at indices that are not columns
            out = idx > top if width == top else cols.take(pos, mode="clip") != idx
        pos += np.repeat(np.arange(start, stop) * width, counts)
        if not own and out.any():
            row = np.repeat(np.arange(stop - start), counts)[out]
            extra[start:stop] += np.bincount(row, np.square(val[out]), stop - start)
            pos, val = pos[~out], val[~out]
        flat[pos] = val
    sq = np.einsum("ij,ij->i", X, X)
    if not own:
        sq += extra  # + 0.0 where a row has no value outside cols: no bit changes
    return X, sq


def sq_dist_block(
    XA: np.ndarray,
    sqA: np.ndarray,
    XB: np.ndarray,
    sqB: np.ndarray,
    out=None,
    spec: KernelSpec | None = None,
):
    """Squared distances (sqA + sqB) - 2 XA XB^T between the rows of XA and
    XB, in that order, clamped at 0; into ``out`` when given. With a
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


@dataclass(frozen=True, eq=False)
class Rows:
    """The rows ``index`` of the 2-d array ``X``, gathered only when sliced:
    ``rows[a:b]`` is the array ``X[index[a:b]]``."""

    X: np.ndarray
    index: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.size, self.X.shape[1]

    def __getitem__(self, key: slice) -> np.ndarray:
        return self.X[self.index[key]]


def slab_width(k: int) -> int:
    """Targets per slab of block_decisions, and rows per slab of
    _triangle, for k support rows: a multiple of
    8 from 8 to 64, the most whose k x width slab fits SLAB_BYTES, so a slab
    holds at most max(SLAB_BYTES, 64 k) bytes."""
    return min(64, max(8, 8 * (SLAB_BYTES // (64 * max(k, 1)))))


def block_decisions(spec: KernelSpec, coefs, XS, sqS, XT, sqT) -> np.ndarray:
    """coefs @ K(S, T) for support rows XS and target rows XT, an array or
    a Rows, over slabs of slab_width(len(XS)) targets built in one reused
    buffer; the last slab is padded with zero rows to that width. Memory is
    one slab beyond the inputs, plus one slab's rows of a Rows. Every slab
    has one shape, so under one BLAS thread a target's decision depends on
    coefs, the support rows and its own row alone, never on the rest of T:
    decisions at any subset of T, in any order, have the same bits. It runs
    in the calling thread; BLAS threads, as the environment sets them,
    serve the slab's product, whose last bits can depend on that count."""
    k, m = XS.shape[0], XT.shape[0]
    width = slab_width(k)
    block = np.empty((k, width))
    out = np.empty(m)
    for start in range(0, m, width):
        stop = min(start + width, m)
        rows, sq = XT[start:stop], sqT[start:stop]
        if stop - start < width:  # the last slab: its targets, then zero rows
            rows = np.concatenate([rows, np.zeros((width - rows.shape[0], rows.shape[1]))])
            sq = np.concatenate([sq, np.zeros(width - sq.size)])
        sq_dist_block(XS, sqS, rows, sq, out=block, spec=spec)
        out[start:stop] = (coefs @ block)[: stop - start]
    return out


def _triangle(spec: KernelSpec, X, sq):
    """The upper triangle of the symmetric K(X, X), as (start, stop, block)
    with block = K[start:stop, start:]: row slabs [start, stop) of
    w = slab_width(k) rows for k rows of X, the width of block_decisions'
    target slabs, each one sq_dist_block against the columns [start, k) in
    one reused buffer, about k (k + w) / 2 entries in all. The diagonal is
    sigma_f^2 exactly, as an exact-zero distance gives. A block is valid
    until the next one is built."""
    k = X.shape[0]
    rows = slab_width(k)
    buf = np.empty(min(rows, k) * k)
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        block = buf[: (stop - start) * (k - start)].reshape(stop - start, k - start)
        sq_dist_block(X[start:stop], sq[start:stop], X[start:], sq[start:], out=block, spec=spec)
        block.reshape(-1)[:: k - start + 1] = spec.sigma_f**2  # entries (r, r)
        yield start, stop, block


def gram(spec: KernelSpec, X, sq) -> np.ndarray:
    """The kernel matrix K(X, X) from _triangle's slabs: each slab is
    written into K's upper triangle and mirrored into the lower one, its
    square from the square's upper triangle, so K equals K.T exactly.
    Memory is K and one slab."""
    n = X.shape[0]
    K = np.empty((n, n))
    r = np.arange(slab_width(n))
    lower = r[:, None] > r  # the strict lower triangle of a slab's square
    for start, stop, block in _triangle(spec, X, sq):
        w = stop - start
        K[start:stop, start:] = block
        K[stop:, start:stop] = block[:, w:].T
        np.copyto(K[start:stop, start:stop], block[:, :w].T, where=lower[:w, :w])
    return K


def support_decisions(spec: KernelSpec, coefs, XS, sqS) -> np.ndarray:
    """coefs @ K(S, S) for support rows XS, from _triangle's slabs of the
    upper triangle: a slab's rows add to out[start:], and its columns past
    the slab add to out[start:stop]. Memory and reproducibility are as for
    block_decisions."""
    out = np.zeros(XS.shape[0])
    for start, stop, block in _triangle(spec, XS, sqS):
        out[start:] += coefs[start:stop] @ block
        out[start:stop] += block[:, stop - start :] @ coefs[stop:]
    return out


def equal_rows(XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
    """For each row of XB, the index of a row of XA with the same bits, or
    -1. Rows are hashed to 64 bits _PASS_BYTES of rows at a time, and a row
    of XB is checked bit for bit against the first row of XA with its hash
    only: rows equal but for a signed zero, and the rare rows whose hash
    another row shares, get -1. Memory beyond the inputs is
    O(len(XA) + len(XB)) and one chunk of rows."""
    hA, hB = _row_hashes(XA), _row_hashes(XB)
    order = np.argsort(hA, kind="stable")  # among equal hashes, the first row first
    hA = hA[order]
    pos = np.minimum(np.searchsorted(hA, hB), max(hA.size - 1, 0))
    own = np.full(hB.size, -1)
    cand = np.flatnonzero(hA[pos] == hB) if hA.size else own[:0]
    step = max(1, _PASS_BYTES // (8 * max(XA.shape[1], 1)))
    for start in range(0, cand.size, step):
        b = cand[start : start + step]
        a = order[pos[b]]
        same = (XA[a].view(np.uint64) == XB[b].view(np.uint64)).all(axis=1)
        own[b[same]] = a[same]
    return own


def _row_hashes(X: np.ndarray) -> np.ndarray:
    """64-bit hashes of the rows of the float64 array X: each value's bits,
    their high half folded onto the low, times one fixed odd word per
    column, summed modulo 2^64. Rows with equal bits hash equal."""
    n, d = X.shape
    weights = np.random.SeedSequence(d).generate_state(d, np.uint64) | np.uint64(1)
    out = np.empty(n, dtype=np.uint64)
    step = max(1, _PASS_BYTES // (8 * max(d, 1)))
    for start in range(0, n, step):
        bits = np.ascontiguousarray(X[start : start + step]).view(np.uint64)
        folded = bits >> np.uint64(32)
        folded ^= bits
        out[start : start + step] = folded @ weights
    return out
