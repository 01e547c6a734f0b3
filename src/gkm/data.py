"""Dataset container, the text layer, label hiding, synthetic data.

On disk we use the plain sparse text format ``label idx:val idx:val ...``
with one extension: label ``0`` marks an unlabeled point. In memory the
labeled points always occupy the leading positions, so samplers can draw a
labeled index as a bare integer below ``labeled_count``.

Every file gkm reads or writes goes through the text layer here: one line
reader (``records``), one line writer (``write_lines``) and one sparse-point
format (``parse_point``/``format_points``), which data and model files share.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSplitError, InvalidLabelError, ParseError
from .kernel import Points, dense_rows, require_count

RNG_ALGORITHM = "numpy.random.PCG64"


def _labeled_first(labels: np.ndarray) -> np.ndarray:
    """The stable permutation putting labeled points first: new[i] = old[perm[i]]."""
    return np.concatenate([np.flatnonzero(labels != 0), np.flatnonzero(labels == 0)])


def checked_labels(labels, n: int) -> np.ndarray:
    """The one label rule: a read-only int8 copy of ``labels``, or
    InvalidLabelError unless they hold one of -1, 0, +1 per point (n)."""
    labels = np.asarray(labels)
    # before the cast, which would truncate; three compares: np.isin is ~5x slower
    if labels.shape != (n,) or not ((labels == 1) | (labels == 0) | (labels == -1)).all():
        raise InvalidLabelError(f"labels must be -1, 0 or +1, one per point ({n})")
    labels = labels.astype(np.int8)
    labels.flags.writeable = False
    return labels


@dataclass
class Dataset:
    """Points with {-1, 0, +1} labels, 0 meaning unlabeled, kept as a
    read-only copy (checked_labels). Labeled points occupy indices 0..l-1."""

    points: Points
    labels: np.ndarray
    _dense: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = checked_labels(self.labels, len(self.points))
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
        rows = np.asarray(indices, dtype=np.int64)
        rows = rows[_labeled_first(self.labels[rows])]
        return Dataset(self.points[rows], self.labels[rows])


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


def parse_point(tokens, lineno: int) -> list[tuple[int, float]]:
    """The (index, value) pairs of a point's ``idx:val`` tokens: indices
    strictly increasing, >= 1 and below 2^63, values finite, else ParseError
    naming the line. Points.from_rows builds points from them."""
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
    idx = [i for i, _ in pairs]  # checked once every token has parsed
    if idx != sorted(set(idx)) or idx and not 1 <= idx[0] <= idx[-1] < 2**63:
        raise ParseError("indices must be strictly increasing, >= 1 and below 2^63", lineno)
    return pairs


def format_points(points: Points):
    """The ``idx:val`` tokens of each point, one string per point; repr
    floats, so parse_point reads the same bits back."""
    ptr = points.indptr.tolist()
    for a, b in zip(ptr, ptr[1:]):
        pairs = zip(points.indices[a:b].tolist(), points.values[a:b].tolist())
        yield " ".join(f"{i}:{v!r}" for i, v in pairs)


def load_libsvm(path) -> tuple[Dataset, np.ndarray]:
    """Parse a sparse text file; returns the dataset and the stable
    permutation applied to put labeled points first (new[i] = old[perm[i]]).

    Labels +1/1/-1 are accepted (also their float spellings); 0 means
    unlabeled. Feature indices must be strictly increasing within a line,
    and labels and feature values must be finite.
    """
    labels = []

    def rows():
        for lineno, tokens in records(path):
            labels.append(parse_label(tokens[0], lineno))
            yield parse_point(tokens[1:], lineno)

    points = Points.from_rows(rows())  # in file order
    lab = np.array(labels, dtype=np.int8)
    perm = _labeled_first(lab)
    return Dataset(points[perm], lab[perm]), perm


def save_libsvm(dataset: Dataset, path) -> None:
    """Write the dataset in the same sparse text format (17-digit floats,
    exact round trip)."""
    signs = {1: "+1", -1: "-1", 0: "0"}
    pairs = zip(format_points(dataset.points), dataset.labels.tolist())
    write_lines(path, (f"{signs[y]} {p}".rstrip() for p, y in pairs))


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
    perm = _labeled_first(new_labels)
    pts = dataset.points[perm]
    return Dataset(pts, new_labels[perm]), Dataset(pts, dataset.labels[perm])


def synth_two_gaussians(n: int, dim: int, separation: float, seed: int) -> Dataset:
    """Two unit-variance isotropic Gaussians with means +-(separation/2) e1.

    n//2 points carry label -1, the rest +1; deterministic per seed.
    """
    n, dim = require_count("n", n, 2), require_count("dim", dim, 1)
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation!r}")
    rng = np.random.default_rng(seed)
    n_neg = n // 2
    n_pos = n - n_neg
    X = rng.standard_normal((n, dim))
    X[:n_pos, 0] += separation / 2.0
    X[n_pos:, 0] -= separation / 2.0
    labels = np.concatenate([np.ones(n_pos, dtype=np.int8), -np.ones(n_neg, dtype=np.int8)])
    return Dataset(Points.from_dense(X), labels)


def separation_for_bayes_accuracy(accuracy: float) -> float:
    """Mean separation giving the requested Bayes accuracy along one axis."""
    if not (0.5 < accuracy < 1.0):
        raise ValueError("accuracy must lie in (0.5, 1)")
    return 2.0 * ndtri(accuracy)


# Cephes ndtri's coefficients (S. L. Moshier): the ratio P0/Q0 for
# |y - 1/2| <= 1/2 - exp(-2), in y - 1/2; the tails' P1/Q1 for
# z = sqrt(-2 log y) in [2, 8) and P2/Q2 for z in [8, 64), in 1/z. The Q
# lists omit their leading coefficient, 1.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(x: float, p: tuple, q: tuple) -> float:
    """x p(x) / q(x), q with a leading 1, each by Horner's rule (Cephes'
    polevl and p1evl) and rounded in Cephes' order, (x p(x)) / q(x)."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def ndtri(y: float) -> float:
    """The standard normal quantile at y in [0, 1] (nan outside): Cephes'
    ndtri, which scipy.special.ndtri also runs, in its operation order, so
    the two agree bit for bit."""
    if y == 0.0 or y == 1.0:
        return math.copysign(math.inf, y - 0.5)
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    t = 1.0 - y if upper else y
    if t > _EXP_M2:
        t -= 0.5
        t2 = t * t
        return (t + t * _ratio(t2, _P0, _Q0)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(t))
    z = 1.0 / x
    x = x - math.log(x) / x - _ratio(z, *((_P1, _Q1) if x < 8.0 else (_P2, _Q2)))
    return x if upper else -x

