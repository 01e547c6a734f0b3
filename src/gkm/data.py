"""Dataset container, the text layer, label hiding, synthetic data.

On disk we use the plain sparse text format ``label idx:val idx:val ...``
with one extension: label ``0`` marks an unlabeled point. In memory the
labeled points always occupy the leading positions, so samplers can draw a
labeled index as a bare integer below ``labeled_count``.

Every file gkm reads or writes goes through the text layer here: one line
reader (``records``), one line writer (``write_lines``) and one sparse-point
format (``parse_point``/``format_point``), which data and model files share.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .exceptions import DegenerateSplitError, InvalidLabelError, ParseError
from .kernel import SparseVector, dense_rows

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

    def dense(self):
        """Cached dense (X, squared row norms) view used by the numeric paths."""
        if self._dense is None:
            self._dense = dense_rows(self.points)
        return self._dense

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        pts, labels, _ = _reorder_labeled_first(
            [self.points[i] for i in indices], self.labels[indices]
        )
        return Dataset(pts, labels)


def records(path):
    """Yield (line number, tokens) for every line of the text file at path
    that has a token before any ``#``."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                yield lineno, tokens


def write_lines(path, lines) -> None:
    """Write each line and a newline to the file at path, or to standard
    output when path is None."""
    with open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout) as out:
        out.writelines(f"{line}\n" for line in lines)


def parse_float(token: str, lineno: int) -> float:
    """A finite float token, else ParseError naming the line."""
    try:
        x = float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", lineno) from None
    if not math.isfinite(x):
        raise ParseError(f"non-finite value {token!r}", lineno)
    return x


def parse_label(token: str, lineno: int) -> int:
    """A label token as -1, 0 or +1 (float spellings accepted)."""
    y = parse_float(token, lineno)
    if y not in (-1.0, 0.0, 1.0):
        raise InvalidLabelError(f"line {lineno}: label must be -1, 0 or +1, got {token}")
    return int(y)


def parse_point(tokens, lineno: int) -> SparseVector:
    """The point of ``idx:val`` tokens: indices strictly increasing and >= 1,
    values finite, else ParseError naming the line."""
    pairs = []
    for tok in tokens:
        idx_s, _, val_s = tok.partition(":")
        try:
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            raise ParseError(f"expected idx:val, got {tok!r}", lineno) from None
        if not math.isfinite(val):
            raise ParseError(f"non-finite feature value {tok!r}", lineno)
        pairs.append((idx, val))
    try:
        return SparseVector.from_pairs(pairs)
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), lineno) from None


def format_point(point: SparseVector) -> str:
    """``idx:val`` tokens of a point; repr floats, so parse_point reads the
    same bits back."""
    return " ".join(f"{int(i)}:{repr(float(v))}" for i, v in zip(point.indices, point.values))


def load_libsvm(path) -> tuple[Dataset, np.ndarray]:
    """Parse a sparse text file; returns the dataset and the stable
    permutation applied to put labeled points first (new[i] = old[perm[i]]).

    Labels +1/1/-1 are accepted (also their float spellings); 0 means
    unlabeled. Feature indices must be strictly increasing within a line,
    and labels and feature values must be finite.
    """
    points: list[SparseVector] = []
    labels: list[int] = []
    for lineno, tokens in records(path):
        labels.append(parse_label(tokens[0], lineno))
        points.append(parse_point(tokens[1:], lineno))
    pts, lab, perm = _reorder_labeled_first(points, labels)
    return Dataset(pts, lab), perm


def save_libsvm(dataset: Dataset, path) -> None:
    """Write the dataset in the same sparse text format (17-digit floats,
    exact round trip)."""
    signs = {1: "+1", -1: "-1", 0: "0"}
    pairs = zip(dataset.points, dataset.labels.tolist())
    write_lines(path, (f"{signs[y]} {format_point(p)}".rstrip() for p, y in pairs))


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
    for lineno, tokens in records(path):
        line = " ".join(tokens)
        try:
            idx.append(np.int64(line))
        except (ValueError, OverflowError):
            raise ParseError(f"bad index {line!r}", lineno) from None
    return np.array(idx, dtype=np.int64)


def load_labels(path) -> np.ndarray:
    """Read a vertex label file: one of -1, 0 (unlabeled) or +1 per line, the
    label check of load_libsvm."""
    labels = [parse_label(" ".join(tokens), lineno) for lineno, tokens in records(path)]
    return np.array(labels, dtype=np.int8)


def save_mask(indices, path) -> None:
    write_lines(path, np.asarray(indices, dtype=np.int64))


def apply_mask(dataset: Dataset, indices) -> tuple[Dataset, Dataset]:
    """hide_labels with an externally supplied index set instead of a draw."""
    if dataset.unlabeled_count:
        raise ValueError("label hiding expects a fully labeled dataset")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= dataset.n):
        raise ValueError(f"mask indices must lie in [0, {dataset.n})")
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
    return 2.0 * float(ndtri(accuracy))

