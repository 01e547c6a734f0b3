"""Exact solver for graph label propagation on small graphs.

Minimizes sum_{(i,j) in E} mu_ij (f_i - f_j)^2 with labeled values clamped,
by solving the Laplacian system L_uu f_u = -L_ul y_l directly. Each unlabeled
value ends up a weighted average of its neighbors, so the solution obeys the
maximum principle. This is the pedagogical oracle the trainer is checked
against, not a production path; it refuses systems above 2000 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import checked_labels
from .exceptions import DisconnectedUnlabeledError, SingularSystemError
from .graph import ExplicitEdges

MAX_DENSE_VERTICES = 2000


@dataclass
class PropagationProblem:
    """Explicit weighted graph plus per-vertex labels (0 = unlabeled)."""

    edges: ExplicitEdges
    labels: np.ndarray

    def __post_init__(self):
        labels = checked_labels(self.labels, np.size(self.labels))
        if labels.size < self.edges.n:
            raise ValueError("labels must cover every vertex")
        if not np.any(labels != 0):
            raise ValueError("at least one vertex must be labeled")
        self.labels = labels

    @property
    def n(self) -> int:
        return self.labels.size


def solve_exact(problem: PropagationProblem) -> np.ndarray:
    """Return the per-vertex minimizer f with labeled entries clamped.

    A repeated edge counts once per listing, as in the objective. Only the
    unlabeled rows of the Laplacian are formed, so the dense system is
    (unlabeled x unlabeled). Raises DisconnectedUnlabeledError when the
    solution would be underdetermined, SingularSystemError if the
    factorization fails or the residual exceeds 1e-10 relative.
    """
    # imported here, not at module level: scipy.sparse adds ~4 MB to every
    # process that imports gkm, scipy.linalg slows every `import gkm`, and
    # only this oracle needs them
    import scipy.linalg
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    n = problem.n
    if n > MAX_DENSE_VERTICES:
        raise ValueError(f"dense solver capped at {MAX_DENSE_VERTICES} vertices, got {n}")
    edges = problem.edges
    W = coo_array((edges.ws, (edges.us, edges.vs)), shape=(n, n)).tocsr()  # sums repeats
    W = W + W.T
    labeled = problem.labels != 0
    _, component = connected_components(W, directed=False)
    stranded = np.flatnonzero(~np.isin(component, component[labeled]))
    if stranded.size:
        raise DisconnectedUnlabeledError(
            f"unlabeled vertices {stranded.tolist()} are unreachable from any label"
        )

    f = problem.labels.astype(np.float64)
    if labeled.all():
        return f
    uu = ~labeled
    W_u = W[uu]  # unlabeled rows: L_uu = diag(deg_u) - W_uu, -L_ul = W_ul
    deg = W_u.sum(axis=1)
    W_uu = W_u[:, uu]
    rhs = W_u[:, labeled] @ f[labeled]
    L_uu = -W_uu.toarray(order="F")
    L_uu[np.diag_indices_from(L_uu)] += deg
    try:
        f_u = scipy.linalg.solve(L_uu, rhs, assume_a="pos", overwrite_a=True)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(str(exc)) from exc

    residual = np.linalg.norm(deg * f_u - W_uu @ f_u - rhs)
    scale = max(np.linalg.norm(rhs), 1.0)
    if not np.isfinite(f_u).all() or residual > 1e-10 * scale:
        raise SingularSystemError(
            f"linear solve residual {residual:.3e} exceeds tolerance"
        )
    f[uu] = f_u
    return f


def threshold_labels(f: np.ndarray) -> np.ndarray:
    """Discrete labels from real-valued scores: +1 where f >= 0, else -1."""
    f = np.asarray(f, dtype=np.float64)
    return np.where(f >= 0.0, 1, -1).astype(np.int8)
