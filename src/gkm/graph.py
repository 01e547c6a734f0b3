"""Similarity-graph construction and uniform edge sampling.

The vertex set is the whole dataset; edges carry Gaussian weights
mu_ij = exp(-||x_i - x_j||^2 / (2 sigma_s^2)), all computed by one formula
(``_pair_weights``), so every graph kind gives a pair the same bits. With
the l labeled vertices first, every kind keeps a pair u < v when v >= l (the
edge rule): no label needs to propagate between two labeled vertices. The
fully connected graph is kept implicit: edges are drawn by rejection
sampling of ordered pairs and weights computed on the fly. The k-NN and eps
graphs are found by scanning the squared distances in row slabs of at most
``kernel.SLAB_BYTES``. Passes over the edges (exact J, export) read one walk
of chunks of at most SLAB_BYTES per array, ``edge_chunks``. So no graph
kind materializes anything O(n^2) beyond its own edge list, which for the
full graph only ``enumerate_edges`` builds, up to ``EXACT_EDGE_CAP`` edges.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .data import Dataset, records, write_lines
from .exceptions import (
    EdgeEnumerationTooLargeError,
    EmptyEdgeSetError,
    InvalidKError,
    ParseError,
)
from .kernel import SLAB_BYTES, KernelSpec, kernel_matrix_from_sq_dists, require_count, require_scale
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
        if self.kind == "knn":
            object.__setattr__(self, "k", require_count("k", self.k, 1))
        if self.kind == "eps":
            require_scale(radius=self.epsilon)


class FullyConnectedEdges:
    """Implicit edge universe: all unordered pairs minus labeled-labeled.

    |E| = n(n-1)/2 - l(l-1)/2. Sampling draws an ordered pair uniformly, sorts
    it and rejects u == v and v < l, which is exactly uniform on the
    unordered universe; weights come from the dataset's dense view.
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
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ok = (lo != hi) & (hi >= l)  # the edge rule: u < v, kept when v >= l
            k = int(ok.sum())
            us[filled : filled + k] = lo[ok]
            vs[filled : filled + k] = hi[ok]
            filled += k
        return us, vs, self.weights_for(us, vs)

    def _rows(self, lo: int, hi: int):
        """The edges of rows lo..hi-1 in (u, v) order, by the edge rule: row
        u's partners are v in [max(u + 1, l), n), built from those pairs only."""
        rows = np.arange(lo, hi)
        counts = self.n - np.maximum(rows + 1, self.labeled_count)
        us = np.repeat(rows, counts)
        vs = np.arange(us.size)  # edge k of row u, which starts at s_u, has v = first_u + k - s_u
        vs -= np.repeat(np.cumsum(counts) - self.n, counts)  # s_u - first_u = s_u + count_u - n
        return us, vs, self.weights_for(us, vs)

    def edge_chunks(self):
        """Yield (us, vs, ws) over whole rows, in enumerate_edges' order, each
        array at most SLAB_BYTES, or one row where a row is larger."""
        lo = size = 0
        for u in range(self.n):
            count = self.n - max(u + 1, self.labeled_count)
            if size and size + count > SLAB_BYTES // 8:
                yield self._rows(lo, u)
                lo, size = u, 0
            size += count
        if size:
            yield self._rows(lo, self.n)

    def enumerate_edges(self):
        """edge_chunks' rows at once, capped at EXACT_EDGE_CAP: only it and
        the reference solver hold every edge."""
        if self.n_edges > EXACT_EDGE_CAP:
            raise EdgeEnumerationTooLargeError(
                f"{self.n_edges} edges exceed the enumeration cap {EXACT_EDGE_CAP}"
            )
        return self._rows(0, self.n)


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

    def edge_chunks(self):
        """Yield (us, vs, ws) slices of the list, in order, SLAB_BYTES each."""
        step = SLAB_BYTES // 8
        for start in range(0, self.n_edges, step):
            yield self.us[start : start + step], self.vs[start : start + step], self.ws[start : start + step]

    def enumerate_edges(self):
        return self.us, self.vs, self.ws


EdgeSet = FullyConnectedEdges | ExplicitEdges


def check_vertices(graph: EdgeSet, dataset: Dataset) -> None:
    """Raise ValueError unless the graph's vertices are the dataset's points."""
    if graph.n != dataset.n:
        raise ValueError(f"the graph has {graph.n} vertices but the dataset has {dataset.n} points")


def _pair_weights(X, sq, us, vs, sigma_s: float) -> np.ndarray:
    """Gaussian weights of the pairs (us[i], vs[i]) of rows of X (squared
    norms sq), floored at _WEIGHT_FLOOR, computed in place over the distances."""
    d2 = sq_dist_pairs(X, sq, us, vs)
    w = kernel_matrix_from_sq_dists(KernelSpec(1.0, sigma_s), d2, out=d2)
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


def _require_unlabeled(dataset: Dataset) -> None:
    """EmptyEdgeSetError where no pair has an unlabeled end (the edge rule)."""
    if dataset.labeled_count == dataset.n:
        raise EmptyEdgeSetError("every pair of vertices is labeled-labeled")


def _weighted_edges(X, sq, us, vs, sigma_s: float) -> ExplicitEdges:
    return ExplicitEdges(us, vs, _pair_weights(X, sq, us, vs, sigma_s), X.shape[0], sigma_s)


def build_fully_connected(dataset: Dataset, spec: GraphSpec) -> FullyConnectedEdges:
    if spec.kind != "full":
        raise ValueError("spec kind must be 'full'")
    _require_unlabeled(dataset)
    return FullyConnectedEdges(dataset, spec.sigma_s)


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
    _require_unlabeled(dataset)
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
    keep = vs >= l  # the edge rule
    return _weighted_edges(X, sq, us[keep], vs[keep], spec.sigma_s)


def build_eps(dataset: Dataset, spec: GraphSpec) -> ExplicitEdges:
    """All pairs within distance epsilon, minus labeled-labeled: empty at a
    small radius, EmptyEdgeSetError on a fully labeled dataset (build_knn)."""
    if spec.kind != "eps":
        raise ValueError("spec kind must be 'eps'")
    _require_unlabeled(dataset)
    l, eps2 = dataset.labeled_count, spec.epsilon**2
    X, sq = dataset.dense()
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start, d2 in _row_slabs(X, sq):
        # row-major nonzero: pairs come out in (u, v) order
        u, v = np.nonzero(d2 <= eps2)
        u += start
        keep = (u < v) & (v >= l)  # the edge rule
        us.append(u[keep])
        vs.append(v[keep])
    return _weighted_edges(X, sq, np.concatenate(us), np.concatenate(vs), spec.sigma_s)


def build_graph(dataset: Dataset, spec: GraphSpec) -> EdgeSet:
    if spec.kind == "full":
        return build_fully_connected(dataset, spec)
    if spec.kind == "knn":
        return build_knn(dataset, spec)
    return build_eps(dataset, spec)


def write_edges(edges: EdgeSet, path, numbering=None) -> None:
    """Serialize as text lines ``i j weight``, one per edge in the order of
    edge_chunks, streamed a chunk at a time, with 1-based vertex indices:
    vertex u is numbering[u] + 1 (u + 1 without one), the smaller first."""

    def lines():
        for us, vs, ws in edges.edge_chunks():
            if numbering is not None:
                us, vs = np.sort(numbering[np.stack([us, vs])], axis=0)
            yield from map("{} {} {!r}".format, (us + 1).tolist(), (vs + 1).tolist(), ws.tolist())

    write_lines(path, lines())


def read_edges(path, n: int | None = None) -> ExplicitEdges:
    """Parse an ``i j weight`` edge file into an explicit edge set, via flat arrays."""
    us, vs, ws = array("q"), array("q"), array("d")
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
    return ExplicitEdges(us, vs, ws, n if n is not None else max(vs, default=-1) + 1)
