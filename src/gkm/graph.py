"""Similarity-graph construction and uniform edge sampling.

The vertex set is the whole dataset; edges carry Gaussian weights
mu_ij = exp(-||x_i - x_j||^2 / (2 sigma_s^2)), all computed by one formula
(``_pair_weights``), so every graph kind gives a pair the same bits. Pairs of
labeled vertices are never connected, since no label needs to propagate
between them. The fully connected graph is kept implicit: edges are drawn
by rejection sampling of ordered pairs and weights computed on the fly. The
k-NN and eps graphs are found by scanning the squared distances in row slabs
of at most ``kernel.SLAB_BYTES``. So no graph kind ever materializes anything
O(n^2) beyond its own edge list, which for the full graph only an explicitly
requested exact enumeration builds, and only up to ``EXACT_EDGE_CAP`` edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, records, write_lines
from .exceptions import (
    EdgeEnumerationTooLargeError,
    EmptyEdgeSetError,
    InvalidKError,
    ParseError,
)
from .kernel import SLAB_BYTES, KernelSpec, kernel_matrix_from_sq_dists, require_scale
from .kernel import sq_dist_block, sq_dist_pairs

GRAPH_KINDS = ("full", "knn", "eps")

EXACT_EDGE_CAP = 10**7

# Gaussian weights are positive in exact arithmetic but underflow to 0.0
# around 38 bandwidths; keep the (0, 1] invariant with a floor
_WEIGHT_FLOOR = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class GraphSpec:
    """How the graph is formed: fully connected, k-NN union, or eps-ball."""

    kind: str
    sigma_s: float
    k: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        require_scale(sigma_s=self.sigma_s)
        if self.kind == "knn" and (self.k is None or self.k < 1):
            raise ValueError("knn graphs need k >= 1")
        if self.kind == "eps":
            require_scale(radius=self.epsilon)


class FullyConnectedEdges:
    """Implicit edge universe: all unordered pairs minus labeled-labeled.

    |E| = n(n-1)/2 - l(l-1)/2. Sampling draws an ordered pair uniformly and
    rejects self-loops and labeled-labeled pairs, which is exactly uniform on
    the unordered universe; weights come from the dataset's dense view.
    """

    def __init__(self, dataset: Dataset, sigma_s: float):
        self.dataset = dataset
        self.sigma_s = float(sigma_s)
        self.n = dataset.n
        self.labeled_count = dataset.labeled_count

    @property
    def n_edges(self) -> int:
        n, l = self.n, self.labeled_count
        return n * (n - 1) // 2 - l * (l - 1) // 2

    def weights_for(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return _pair_weights(*self.dataset.dense(), us, vs, self.sigma_s)

    def sample_batch(self, rng: np.random.Generator, size: int):
        if self.n_edges == 0:
            raise EmptyEdgeSetError("fully connected universe is empty")
        n, l = self.n, self.labeled_count
        us = np.empty(size, dtype=np.int64)
        vs = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            want = size - filled
            a = rng.integers(0, n, size=want)
            b = rng.integers(0, n, size=want)
            ok = (a != b) & ~((a < l) & (b < l))
            k = int(ok.sum())
            us[filled : filled + k] = a[ok]
            vs[filled : filled + k] = b[ok]
            filled += k
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        return lo, hi, self.weights_for(lo, hi)

    def enumerate_edges(self):
        if self.n_edges > EXACT_EDGE_CAP:
            raise EdgeEnumerationTooLargeError(
                f"{self.n_edges} edges exceed the enumeration cap {EXACT_EDGE_CAP}"
            )
        iu, iv = np.triu_indices(self.n, k=1)
        keep = ~((iu < self.labeled_count) & (iv < self.labeled_count))
        us, vs = iu[keep].astype(np.int64), iv[keep].astype(np.int64)
        return us, vs, self.weights_for(us, vs)


class ExplicitEdges:
    """Materialized edge list with canonical i < j pairs and stored weights.

    ``sigma_s`` is the bandwidth the weights were computed with: set by
    build_knn and build_eps, None for an edge list read from a file.
    """

    def __init__(self, us, vs, weights, n: int, sigma_s: float | None = None):
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ws = np.asarray(weights, dtype=np.float64)
        if not (us.shape == vs.shape == ws.shape):
            raise ValueError("edge arrays must align")
        if us.size and not np.all(us < vs):
            raise ValueError("edges must be canonical i < j")
        if us.size and (us.min() < 0 or vs.max() >= n):
            raise ValueError(f"edge endpoints must lie in [0, {n})")
        if not np.all((ws > 0.0) & (ws <= 1.0)):
            raise ValueError("weights must lie in (0, 1]")
        self.us, self.vs, self.ws = us, vs, ws
        self.n = int(n)
        self.sigma_s = sigma_s

    @property
    def n_edges(self) -> int:
        return int(self.us.size)

    def sample_batch(self, rng: np.random.Generator, size: int):
        if self.n_edges == 0:
            raise EmptyEdgeSetError("explicit edge set is empty")
        idx = rng.integers(0, self.n_edges, size=size)
        return self.us[idx], self.vs[idx], self.ws[idx]

    def enumerate_edges(self):
        return self.us, self.vs, self.ws


EdgeSet = FullyConnectedEdges | ExplicitEdges


def check_vertices(graph: EdgeSet, dataset: Dataset) -> None:
    """Raise ValueError unless the graph's vertices are the dataset's points."""
    if graph.n != dataset.n:
        raise ValueError(f"the graph has {graph.n} vertices but the dataset has {dataset.n} points")


def _pair_weights(X, sq, us, vs, sigma_s: float) -> np.ndarray:
    """Gaussian weights of the pairs (us[i], vs[i]) of rows of X (squared
    norms sq), floored at _WEIGHT_FLOOR."""
    w = kernel_matrix_from_sq_dists(KernelSpec(1.0, sigma_s), sq_dist_pairs(X, sq, us, vs))
    return np.maximum(w, _WEIGHT_FLOOR, out=w)


def _row_slabs(X, sq):
    """Yield (start, d2) over row slabs of the squared-distance matrix of
    the rows of X: d2[r, c] is the distance of rows start + r and c. Each
    slab holds at most SLAB_BYTES, or one row where a row is larger."""
    n = X.shape[0]
    rows = max(1, SLAB_BYTES // (8 * n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield start, sq_dist_block(X[start:stop], sq[start:stop], X, sq)


def _weighted_edges(X, sq, us, vs, sigma_s: float) -> ExplicitEdges:
    return ExplicitEdges(us, vs, _pair_weights(X, sq, us, vs, sigma_s), X.shape[0], sigma_s)


def build_fully_connected(dataset: Dataset, spec: GraphSpec) -> FullyConnectedEdges:
    if spec.kind != "full":
        raise ValueError("spec kind must be 'full'")
    edges = FullyConnectedEdges(dataset, spec.sigma_s)
    if edges.n_edges == 0:
        raise EmptyEdgeSetError("every pair of vertices is labeled-labeled")
    return edges


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """The columns of the k smallest entries of each row of d2, increasing:
    the entries below the row's k-th smallest value tau (np.partition),
    then its entries equal to tau from the lowest column on, until there
    are k. As a set that is the first k of a stable argsort, in O(n) per
    row; the cumulative tie count runs on the rows that tie past k only."""
    tau = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    pick = d2 < tau
    tie = d2 == tau
    need = k - np.count_nonzero(pick, axis=1)
    over = np.flatnonzero(np.count_nonzero(tie, axis=1) > need)
    if over.size:
        t = tie[over]
        tie[over] = t & (np.cumsum(t, axis=1) <= need[over, None])
    pick |= tie
    return np.nonzero(pick)[1].reshape(-1, k)


def build_knn(dataset: Dataset, spec: GraphSpec) -> ExplicitEdges:
    """Union-symmetrized k-NN graph: (i, j) present when either endpoint
    nominates the other; ties broken toward the lower index. Labeled-labeled
    pairs are dropped, so a fully labeled dataset raises EmptyEdgeSetError,
    as build_fully_connected does."""
    if spec.kind != "knn":
        raise ValueError("spec kind must be 'knn'")
    n, k, l = dataset.n, spec.k, dataset.labeled_count
    if k >= n:
        raise InvalidKError(f"k = {k} must be below n = {n}")
    if l == n:  # an unlabeled point's nominations would be kept
        raise EmptyEdgeSetError("every pair of vertices is labeled-labeled")
    X, sq = dataset.dense()
    nn = np.empty((n, k), dtype=np.int64)
    for start, d2 in _row_slabs(X, sq):
        rows = np.arange(d2.shape[0])
        d2[rows, start + rows] = np.inf
        nn[start : start + rows.size] = _nearest(d2, k)
    rows, cols = np.repeat(np.arange(n), k), nn.ravel()
    # canonical pairs u < v, deduplicated, in (u, v) order
    code = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    us, vs = code // n, code % n
    keep = vs >= l  # u < v, so a labeled-labeled pair has v < l
    return _weighted_edges(X, sq, us[keep], vs[keep], spec.sigma_s)


def build_eps(dataset: Dataset, spec: GraphSpec) -> ExplicitEdges:
    """All pairs within distance epsilon, minus labeled-labeled; may be empty."""
    if spec.kind != "eps":
        raise ValueError("spec kind must be 'eps'")
    l, eps2 = dataset.labeled_count, spec.epsilon**2
    X, sq = dataset.dense()
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start, d2 in _row_slabs(X, sq):
        # row-major nonzero: pairs come out in (u, v) order
        u, v = np.nonzero(d2 <= eps2)
        u += start
        keep = (u < v) & (v >= l)  # u < v, so a labeled-labeled pair has v < l
        us.append(u[keep])
        vs.append(v[keep])
    return _weighted_edges(X, sq, np.concatenate(us), np.concatenate(vs), spec.sigma_s)


def build_graph(dataset: Dataset, spec: GraphSpec) -> EdgeSet:
    if spec.kind == "full":
        return build_fully_connected(dataset, spec)
    if spec.kind == "knn":
        return build_knn(dataset, spec)
    return build_eps(dataset, spec)


def write_edges(edges: EdgeSet, path) -> None:
    """Serialize as text lines ``i j weight`` with 1-based vertex indices
    (an implicit full graph only up to EXACT_EDGE_CAP edges)."""
    us, vs, ws = edges.enumerate_edges()
    write_lines(path, (f"{u + 1} {v + 1} {repr(float(w))}" for u, v, w in zip(us, vs, ws)))


def read_edges(path, n: int | None = None) -> ExplicitEdges:
    """Parse an ``i j weight`` edge file back into an explicit edge set."""
    us, vs, ws = [], [], []
    for lineno, tok in records(path):
        try:
            i_s, j_s, w_s = tok
            i, j, w = int(i_s) - 1, int(j_s) - 1, float(w_s)
        except ValueError:
            raise ParseError(f"expected 'i j weight', got {' '.join(tok)!r}", lineno) from None
        if i == j or min(i, j) < 0 or max(i, j) >= 2**63:
            raise ParseError("self-loops and indices outside [1, 2^63] are invalid", lineno)
        if not 0.0 < w <= 1.0:
            raise ParseError(f"weights must lie in (0, 1], got {w_s!r}", lineno)
        us.append(min(i, j))
        vs.append(max(i, j))
        ws.append(w)
    n_seen = max((v + 1 for v in vs), default=0)
    return ExplicitEdges(us, vs, ws, n if n is not None else n_seen)
