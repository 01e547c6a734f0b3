"""Dataset container, sparse-format I/O, label hiding, synthetic data.

On disk we use the plain sparse text format ``label idx:val idx:val ...``
with one extension: label ``0`` marks an unlabeled point. In memory the
labeled points always occupy the leading positions, so samplers can draw a
labeled index as a bare integer below ``labeled_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .exceptions import DegenerateSplitError, InvalidLabelError, ParseError
from .kernel import SparseVector, gram_sq_dists

RNG_ALGORITHM = "numpy.random.PCG64"


def _reorder_labeled_first(points, labels):
    """Stable permutation putting labeled points first.

    Returns (points, labels, perm) with new[i] = old[perm[i]].
    """
    labels = np.asarray(labels, dtype=np.int8)
    perm = np.concatenate(
        [np.flatnonzero(labels != 0), np.flatnonzero(labels == 0)]
    ).astype(np.int64)
    return tuple(points[i] for i in perm), labels[perm], perm


@dataclass
class Dataset:
    """Immutable-by-convention collection of points with {-1, 0, +1} labels,
    0 meaning unlabeled. Labeled points occupy indices 0..l-1."""

    points: tuple[SparseVector, ...]
    labels: np.ndarray
    _dense: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.points = tuple(self.points)
        labels = np.asarray(self.labels, dtype=np.int8)
        if labels.shape != (len(self.points),):
            raise ValueError("labels must align with points")
        if not np.all(np.isin(labels, (-1, 0, 1))):
            raise InvalidLabelError("labels must be -1, 0 (unlabeled) or +1")
        l = int(np.count_nonzero(labels))
        if np.any(labels[:l] == 0):
            raise ValueError("labeled points must occupy the leading indices")
        self.labels = labels

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def labeled_count(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def unlabeled_count(self) -> int:
        return self.n - self.labeled_count

    @property
    def dim(self) -> int:
        return max((p.max_index for p in self.points), default=0)

    def dense(self):
        """Cached dense (X, squared row norms) view used by the numeric paths."""
        if self._dense is None:
            d = max(self.dim, 1)
            X = np.zeros((self.n, d), dtype=np.float64)
            for i, p in enumerate(self.points):
                if p.indices.size:
                    X[i, p.indices - 1] = p.values
            self._dense = (X, np.einsum("ij,ij->i", X, X))
        return self._dense

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        pts, labels, _ = _reorder_labeled_first(
            [self.points[i] for i in indices], self.labels[indices]
        )
        return Dataset(pts, labels)


def load_libsvm(path) -> tuple[Dataset, np.ndarray]:
    """Parse a sparse text file; returns the dataset and the stable
    permutation applied to put labeled points first (new[i] = old[perm[i]]).

    Labels +1/1/-1 are accepted (also their float spellings); 0 means
    unlabeled. Feature indices must be strictly increasing within a line,
    and labels and feature values must be finite.
    """
    points: list[SparseVector] = []
    labels: list[int] = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                y = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
            if not math.isfinite(y):
                raise ParseError(f"non-finite label {tokens[0]!r}", lineno)
            if y not in (-1.0, 0.0, 1.0):
                raise InvalidLabelError(f"line {lineno}: label must be -1, 0 or +1, got {tokens[0]}")
            pairs = []
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                if not val_s:
                    raise ParseError(f"expected idx:val, got {tok!r}", lineno)
                try:
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"expected idx:val, got {tok!r}", lineno) from None
                if not math.isfinite(val):
                    raise ParseError(f"non-finite feature value {tok!r}", lineno)
                pairs.append((idx, val))
            try:
                points.append(SparseVector.from_pairs(pairs))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            labels.append(int(y))
    pts, lab, perm = _reorder_labeled_first(points, labels)
    return Dataset(pts, lab), perm


def save_libsvm(dataset: Dataset, path) -> None:
    """Write the dataset in the same sparse text format (17-digit floats,
    exact round trip)."""
    with open(path, "w") as fh:
        for p, y in zip(dataset.points, dataset.labels):
            feats = " ".join(f"{int(i)}:{repr(float(v))}" for i, v in zip(p.indices, p.values))
            label = "+1" if y == 1 else ("-1" if y == -1 else "0")
            fh.write(f"{label} {feats}\n".rstrip() + "\n")


def hide_labels(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Hide round(fraction * n) labels, chosen uniformly without replacement.

    Returns (hidden, truth): the semi-supervised view and the fully labeled
    dataset in the same (reordered) point order. Raises DegenerateSplitError
    if any class would lose all its labeled points.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError("fraction must lie in [0, 1)")
    k = int(round(fraction * dataset.n))
    return apply_mask(dataset, np.random.default_rng(seed).choice(dataset.n, size=k, replace=False))


def load_mask(path) -> np.ndarray:
    """Read a hide mask: one 0-based point index per line."""
    idx = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                idx.append(int(line))
            except ValueError:
                raise ParseError(f"bad index {line!r}", lineno) from None
    return np.array(idx, dtype=np.int64)


def save_mask(indices, path) -> None:
    with open(path, "w") as fh:
        for i in np.asarray(indices, dtype=np.int64):
            fh.write(f"{i}\n")


def apply_mask(dataset: Dataset, indices) -> tuple[Dataset, Dataset]:
    """hide_labels with an externally supplied index set instead of a draw."""
    if dataset.unlabeled_count:
        raise ValueError("label hiding expects a fully labeled dataset")
    indices = np.asarray(indices, dtype=np.int64)
    new_labels = dataset.labels.copy()
    new_labels[indices] = 0
    for cls in (-1, 1):
        had = np.count_nonzero(dataset.labels == cls)
        if had and not np.count_nonzero(new_labels == cls):
            raise DegenerateSplitError(f"class {cls:+d} would lose all labels")
    pts, lab, perm = _reorder_labeled_first(dataset.points, new_labels)
    return Dataset(pts, lab), Dataset(pts, dataset.labels[perm])


def synth_two_gaussians(n: int, dim: int, separation: float, seed: int) -> Dataset:
    """Two unit-variance isotropic Gaussians with means +-(separation/2) e1.

    n//2 points carry label -1, the rest +1; deterministic per seed.
    """
    if n < 2 or dim < 1:
        raise ValueError("need n >= 2 and dim >= 1")
    rng = np.random.default_rng(seed)
    n_neg = n // 2
    n_pos = n - n_neg
    X = rng.standard_normal((n, dim))
    X[:n_pos, 0] += separation / 2.0
    X[n_pos:, 0] -= separation / 2.0
    labels = np.concatenate([np.ones(n_pos, dtype=np.int8), -np.ones(n_neg, dtype=np.int8)])
    points = tuple(SparseVector.from_dense(row) for row in X)
    return Dataset(points, labels)


def separation_for_bayes_accuracy(accuracy: float) -> float:
    """Mean separation giving the requested Bayes accuracy along one axis."""
    if not (0.5 < accuracy < 1.0):
        raise ValueError("accuracy must lie in (0.5, 1)")
    return 2.0 * float(norm.ppf(accuracy))


def median_pairwise_distance(dataset: Dataset, cap: int = 1000, seed: int = 0) -> float:
    """Median Euclidean distance over (subsampled) point pairs; the usual
    bandwidth heuristic for kernel and graph scales."""
    X, sq = dataset.dense()
    n = dataset.n
    if n > cap:
        rng = np.random.default_rng(seed)
        keep = rng.choice(n, size=cap, replace=False)
        X, sq = X[keep], sq[keep]
        n = cap
    iu = np.triu_indices(n, k=1)
    return float(np.sqrt(np.median(gram_sq_dists(X, sq)[iu])))
