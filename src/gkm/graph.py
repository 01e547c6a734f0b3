"""Similarity-graph construction and uniform edge sampling.

The vertex set is the whole dataset; edges carry Gaussian weights
mu_ij = exp(-||x_i - x_j||^2 / (2 sigma_s^2)). Pairs of labeled vertices are
never connected, since no label needs to propagate between them. The fully
connected graph is kept implicit: edges are sampled by index arithmetic and
weights computed on the fly, so nothing O(n^2) is ever materialized unless
an exact enumeration is explicitly requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import (
    EdgeEnumerationTooLargeError,
    EmptyEdgeSetError,
    InvalidKError,
    ParseError,
)
from .kernel import SparseVector, gram_sq_dists, squared_distance

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
        if self.sigma_s <= 0:
            raise ValueError("sigma_s must be positive")
        if self.kind == "knn" and (self.k is None or self.k < 1):
            raise ValueError("knn graphs need k >= 1")
        if self.kind == "eps" and (self.epsilon is None or self.epsilon <= 0):
            raise ValueError("eps graphs need epsilon > 0")


def edge_weight(x_i: SparseVector, x_j: SparseVector, sigma_s: float) -> float:
    """Gaussian edge weight in (0, 1]; equals 1 iff x_i = x_j."""
    if sigma_s <= 0:
        raise ValueError("sigma_s must be positive")
    return math.exp(-squared_distance(x_i, x_j) / (2.0 * sigma_s**2))


class FullyConnectedEdges:
    """Implicit edge universe: all unordered pairs minus labeled-labeled.

    |E| = n(n-1)/2 - l(l-1)/2. Sampling draws an ordered pair uniformly and
    rejects self-loops and labeled-labeled pairs, which is exactly uniform on
    the unordered universe; weights come from the dataset's dense view.
    """

    kind = "full"

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
        X, sq = self.dataset.dense()
        d2 = sq[us] + sq[vs] - 2.0 * np.einsum("ij,ij->i", X[us], X[vs])
        return _gaussian_weights(np.maximum(d2, 0.0, out=d2), self.sigma_s)

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

    def enumerate_edges(self, cap: int = EXACT_EDGE_CAP):
        if self.n_edges > cap:
            raise EdgeEnumerationTooLargeError(
                f"{self.n_edges} edges exceed the enumeration cap {cap}"
            )
        iu, iv = np.triu_indices(self.n, k=1)
        keep = ~((iu < self.labeled_count) & (iv < self.labeled_count))
        us, vs = iu[keep].astype(np.int64), iv[keep].astype(np.int64)
        return us, vs, self.weights_for(us, vs)


class ExplicitEdges:
    """Materialized edge list with canonical i < j pairs and stored weights."""

    kind = "explicit"

    def __init__(self, us, vs, weights, n: int):
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ws = np.asarray(weights, dtype=np.float64)
        if not (us.shape == vs.shape == ws.shape):
            raise ValueError("edge arrays must align")
        if us.size and not np.all(us < vs):
            raise ValueError("edges must be canonical i < j")
        if us.size and (np.any(ws <= 0.0) or np.any(ws > 1.0)):
            raise ValueError("weights must lie in (0, 1]")
        self.us, self.vs, self.ws = us, vs, ws
        self.n = int(n)

    @property
    def n_edges(self) -> int:
        return int(self.us.size)

    def sample_batch(self, rng: np.random.Generator, size: int):
        if self.n_edges == 0:
            raise EmptyEdgeSetError("explicit edge set is empty")
        idx = rng.integers(0, self.n_edges, size=size)
        return self.us[idx], self.vs[idx], self.ws[idx]

    def enumerate_edges(self, cap: int = EXACT_EDGE_CAP):
        if self.n_edges > cap:
            raise EdgeEnumerationTooLargeError(
                f"{self.n_edges} edges exceed the enumeration cap {cap}"
            )
        return self.us, self.vs, self.ws


EdgeSet = FullyConnectedEdges | ExplicitEdges


def sample_edge(edges: EdgeSet, rng: np.random.Generator):
    """Draw one edge uniformly from the universe; returns (u, v, mu_uv)."""
    us, vs, ws = edges.sample_batch(rng, 1)
    return int(us[0]), int(vs[0]), float(ws[0])


def _gaussian_weights(d2: np.ndarray, sigma_s: float) -> np.ndarray:
    return np.maximum(np.exp(-d2 / (2.0 * sigma_s**2)), _WEIGHT_FLOOR)


def build_fully_connected(dataset: Dataset, spec: GraphSpec) -> FullyConnectedEdges:
    if spec.kind != "full":
        raise ValueError("spec kind must be 'full'")
    edges = FullyConnectedEdges(dataset, spec.sigma_s)
    if edges.n_edges == 0:
        raise EmptyEdgeSetError("every pair of vertices is labeled-labeled")
    return edges


def build_knn(dataset: Dataset, spec: GraphSpec) -> ExplicitEdges:
    """Union-symmetrized k-NN graph: (i, j) present when either endpoint
    nominates the other; ties broken toward the lower index."""
    if spec.kind != "knn":
        raise ValueError("spec kind must be 'knn'")
    n, k, l = dataset.n, spec.k, dataset.labeled_count
    if k >= n:
        raise InvalidKError(f"k = {k} must be below n = {n}")
    d2 = gram_sq_dists(*dataset.dense())
    nn = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        row = d2[i].copy()
        row[i] = np.inf
        nn[i] = np.argsort(row, kind="stable")[:k]
    rows, cols = np.repeat(np.arange(n), k), nn.ravel()
    # canonical pairs u < v, deduplicated, in (u, v) order
    code = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    us, vs = code // n, code % n
    keep = ~((us < l) & (vs < l))
    us, vs = us[keep], vs[keep]
    ws = _gaussian_weights(d2[us, vs], spec.sigma_s) if us.size else np.empty(0)
    return ExplicitEdges(us, vs, ws, n)


def build_eps(dataset: Dataset, spec: GraphSpec) -> ExplicitEdges:
    """All pairs within distance epsilon, minus labeled-labeled; may be empty."""
    if spec.kind != "eps":
        raise ValueError("spec kind must be 'eps'")
    n, l = dataset.n, dataset.labeled_count
    d2 = gram_sq_dists(*dataset.dense())
    iu, iv = np.triu_indices(n, k=1)
    keep = (d2[iu, iv] <= spec.epsilon**2) & ~((iu < l) & (iv < l))
    us, vs = iu[keep].astype(np.int64), iv[keep].astype(np.int64)
    ws = _gaussian_weights(d2[us, vs], spec.sigma_s) if us.size else np.empty(0)
    return ExplicitEdges(us, vs, ws, n)


def build_graph(dataset: Dataset, spec: GraphSpec) -> EdgeSet:
    if spec.kind == "full":
        return build_fully_connected(dataset, spec)
    if spec.kind == "knn":
        return build_knn(dataset, spec)
    return build_eps(dataset, spec)


def write_edges(edges: EdgeSet, path, cap: int = EXACT_EDGE_CAP) -> None:
    """Serialize as text lines ``i j weight`` with 1-based vertex indices."""
    us, vs, ws = edges.enumerate_edges(cap)
    with open(path, "w") as fh:
        for u, v, w in zip(us, vs, ws):
            fh.write(f"{u + 1} {v + 1} {repr(float(w))}\n")


def read_edges(path, n: int | None = None) -> ExplicitEdges:
    """Parse an ``i j weight`` edge file back into an explicit edge set."""
    us, vs, ws = [], [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            tok = line.split()
            if len(tok) != 3:
                raise ParseError(f"expected 'i j weight', got {line!r}", lineno)
            try:
                i, j, w = int(tok[0]) - 1, int(tok[1]) - 1, float(tok[2])
            except ValueError:
                raise ParseError(f"expected 'i j weight', got {line!r}", lineno) from None
            if i == j or i < 0 or j < 0:
                raise ParseError("self-loops and non-positive indices are invalid", lineno)
            us.append(min(i, j))
            vs.append(max(i, j))
            ws.append(w)
    n_seen = max((v + 1 for v in vs), default=0)
    return ExplicitEdges(us, vs, ws, n if n is not None else n_seen)
