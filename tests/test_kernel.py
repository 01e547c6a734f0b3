import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import kernel as kernel_mod
from gkm.data import Dataset, separation_for_bayes_accuracy, synth_two_gaussians
from gkm.kernel import (
    SLAB_BYTES,
    KernelSpec,
    Points,
    Rows,
    block_decisions,
    columns,
    dense_rows,
    equal_rows,
    gram,
    kernel_matrix_from_sq_dists,
    sq_dist_block,
    support_decisions,
)


def sv(*pairs):
    """One point of (index, value) pairs."""
    return Points.from_rows([pairs])


def row(indices, values):
    return Points([0, len(indices)], indices, values)


def stack(*points):
    """One Points of the rows of one-row Points."""
    return Points.from_rows(zip(p.indices.tolist(), p.values.tolist()) for p in points)


def shared(*parts):
    """dense_rows of each part over the columns of all of them, flat: X0,
    sq0, X1, sq1, ..."""
    cols = columns(stack(*[r for p in parts for r in p]))
    return tuple(a for p in parts for a in dense_rows(p, cols))


# Literal scalar references, one pair or point at a time. Each test below
# checks a property on the reference and on the block primitive that
# computes the same quantity: sq_dist_block, gram and block_decisions.


def squared_distance(x: Points, y: Points) -> float:
    """||x - y||^2 via a merged index walk; exact zero when x is y."""
    if x is y:
        return 0.0
    _, ix, iy = np.intersect1d(x.indices, y.indices, assume_unique=True, return_indices=True)
    cross = float(x.values[ix] @ y.values[iy]) if ix.size else 0.0
    d2 = float(x.values @ x.values) + float(y.values @ y.values) - 2.0 * cross
    return d2 if d2 > 0.0 else 0.0


def eval_kernel(spec: KernelSpec, x: Points, y: Points) -> float:
    return spec.sigma_f**2 * math.exp(-squared_distance(x, y) / (2.0 * spec.sigma_l**2))


def feature_norm(spec: KernelSpec, x: Points) -> float:
    """||Phi(x)|| = K(x, x)^(1/2) = sigma_f for every x."""
    return spec.sigma_f


def decision_value(spec: KernelSpec, coefficients, x: Points) -> float:
    return sum(alpha * eval_kernel(spec, xi, x) for xi, alpha in coefficients)


def block_sq_dist(x: Points, y: Points) -> float:
    return float(sq_dist_block(*shared(x, y))[0, 0])


def block_gram(spec: KernelSpec, *points: Points) -> np.ndarray:
    return gram(spec, *dense_rows(stack(*points)))


def block_kernel(spec: KernelSpec, x: Points, y: Points) -> float:
    return float(block_gram(spec, x, y)[0, 1])


def block_feature_norms(spec: KernelSpec, *points: Points) -> np.ndarray:
    return np.sqrt(np.diagonal(block_gram(spec, *points)))


def block_decision(spec: KernelSpec, coefficients, x: Points) -> float:
    support = stack(*[xi for xi, _ in coefficients])
    coefs = np.array([alpha for _, alpha in coefficients])
    return float(block_decisions(spec, coefs, *shared(support, x))[0])


class TestSparseVector:
    """The rules for one sparse vector, held as a one-row Points."""

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            sv((3, 1.0), (2, 1.0))
        with pytest.raises(ValueError):
            sv((1, 1.0), (1, 2.0))

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError):
            sv((0, 1.0))

    def test_hashable_and_equal_by_identity(self):
        v = sv((1, 0.5), (3, -2.0))
        w = sv((1, 0.5), (3, -2.0))
        assert v == v and v != w
        assert {v: 1, w: 2}[v] == 1
        assert len({v, w, v}) == 2

    def test_dense_round_trip(self):
        v = sv((1, 0.5), (3, -2.0))
        w = Points.from_dense([0.5, 0.0, -2.0])
        X, _ = dense_rows(stack(v, w))
        assert np.array_equal(X, [[0.5, 0.0, -2.0], [0.5, 0.0, -2.0]])
        assert squared_distance(v, w) == 0.0
        assert block_sq_dist(v, w) == 0.0


class TestPoints:
    @pytest.mark.parametrize(
        "indptr, indices, match",
        [
            ([0, 2], [3, 2], "strictly increasing"),  # decreasing
            ([0, 2], [2, 2], "strictly increasing"),  # duplicate
            ([0, 1, 3], [5, 0, 1], "strictly increasing"),  # index 0 in the second point
            ([0, 3, 2, 3], [1, 2, 3], "indptr"),  # indptr falls
            ([1, 3], [1, 2, 3], "indptr"),  # indptr does not start at 0
            ([0, 2], [1, 2, 3], "indptr"),  # indptr does not end at the entry count
            ([], [], "indptr"),  # no indptr at all
        ],
    )
    def test_validation_errors(self, indptr, indices, match):
        with pytest.raises(ValueError, match=match):
            Points(indptr, indices, np.ones(len(indices)))

    def test_rows_may_restart_their_indices(self):
        p = Points([0, 2, 2, 4], [3, 9, 1, 2], [1.0, 2.0, 3.0, 4.0])
        assert [q.indices.tolist() for q in p] == [[3, 9], [], [1, 2]]

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            Points([0, 2], [1, 2], [1.0])
        with pytest.raises(ValueError, match="1-d"):
            Points([[0, 1]], [1], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        """In memory as in files: a NaN or inf feature fails where the point
        is built, not as a NaN decision or a non-finite training state."""
        with pytest.raises(ValueError, match="finite"):
            Points.from_dense([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            Points([0, 1], [2], [bad])

    def test_arrays_are_read_only_copies(self):
        indices, values = np.array([1, 4]), np.array([0.5, -1.0])
        p = Points([0, 2], indices, values)
        indices[0], values[0] = 3, 9.0
        assert p.indices.tolist() == [1, 4] and p.values.tolist() == [0.5, -1.0]
        assert (p.indptr.dtype, p.indices.dtype, p.values.dtype) == (np.int64, np.int64, np.float64)
        for a in (p.indptr, p.indices, p.values, p[0].values, p[[0]].values, p[:1].indices):
            with pytest.raises(ValueError):
                a[0] = 2
        with pytest.raises(AttributeError):
            p.values = values

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_from_dense_builds_its_arrays_once(self, layout):
        """from_dense holds, at its peak, the three arrays it keeps and the
        validation's two one-byte masks: the caller's values are copied
        once and nothing is copied again. The arrays equal those of the
        constructor, which copies all three."""
        n, d = 10_000, 50
        X = np.random.default_rng(3).normal(size=(n, 2 * d if layout == "strided" else d))
        X = {"C": X, "F": np.asfortranarray(X), "strided": X[:, ::2]}[layout]
        Points.from_dense(X[:2])
        tracemalloc.start()
        try:
            p = Points.from_dense(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = p.indptr.nbytes + p.indices.nbytes + p.values.nbytes
        assert peak <= kept + 2 * X.size + (64 << 10)
        want = Points(np.arange(n + 1) * d, np.tile(np.arange(1, d + 1), n), X.reshape(-1))
        for name in ("indptr", "indices", "values"):
            assert np.array_equal(getattr(p, name), getattr(want, name))
        assert not np.shares_memory(p.values, X) and not p.values.flags.writeable

    def test_dense_view_cannot_write_the_stored_values(self):
        labels = np.array([1, -1], dtype=np.int8)
        full = Points.from_dense([[1.0, 2.0], [3.0, 4.0]])
        X, _ = Dataset(full, labels).dense()
        with pytest.raises(ValueError):
            X[0, 0] = 7.0
        sparse = Points.from_rows([[(1, 1.0)], [(3, 2.0)]])
        X, _ = Dataset(sparse, labels).dense()
        assert not np.shares_memory(X, sparse.values)

    def test_no_points(self):
        p = Points.from_rows([])
        assert len(p) == 0 and list(p) == [] and len(p[:]) == 0 and len(p[np.array([], int)]) == 0
        with pytest.raises(IndexError):
            p[0]
        X, sq = dense_rows(p)
        assert X.shape == (0, 0) and sq.shape == (0,)

    def test_one_point_and_a_huge_index(self):
        p = sv((2, 0.5), (10**15, -1.0))
        assert len(p) == 1 and p[0].indices.tolist() == [2, 10**15] and p[-1].values.tolist() == [0.5, -1.0]
        with pytest.raises(IndexError):
            p[1]
        with pytest.raises(IndexError):
            p[-2]

    @pytest.mark.parametrize("shape", ["ragged", "one size", "full"])
    def test_gathers_span_chunks_and_repeat_rows(self, shape):
        """Gathers of more rows than one chunk, in a new order, and with
        repeats (more rows than the source: full rows too take the general
        gather), against a list of the rows."""
        rng = np.random.default_rng(8)
        n = 2 * kernel_mod._SCATTER_ROWS + 300
        sizes = rng.integers(0, 9, n) if shape == "ragged" else np.full(n, 6)
        rows = [sorted(rng.choice(40, k, replace=False) + 1) for k in sizes]
        if shape == "full":
            rows = [range(1, 7)] * n
        rows = [[(int(i), float(v)) for i, v in zip(r, rng.standard_normal(len(r)))] for r in rows]
        p = Points.from_rows(rows)
        for key in (rng.permutation(n), rng.integers(0, n, n + 700)):
            assert rows_of(p[key]) == [rows[j] for j in key]

    def test_out_of_range_index_arrays_rejected(self):
        p = Points.from_dense(np.ones((3, 2)))
        with pytest.raises(IndexError):
            p[np.array([0, 3])]
        with pytest.raises(IndexError):
            p[[-4]]
        with pytest.raises(IndexError):
            p[np.array([True, False])]  # a mask of the wrong length


POINT_ROWS = st.lists(
    st.lists(
        st.tuples(st.integers(1, 40) | st.just(10**15), st.floats(-1e6, 1e6)),
        max_size=4,
        unique_by=lambda pair: pair[0],
    ).map(sorted),
    max_size=7,
)


def rows_of(points):
    return [list(zip(p.indices.tolist(), p.values.tolist())) for p in points]


@given(rows=POINT_ROWS, data=st.data())
@settings(max_examples=200, deadline=None)
def test_points_access_matches_a_list_of_rows(rows, data):
    """len, iteration, integer (negative too), slice, index-array and
    bool-mask access agree with a plain list of the same rows, on rows of
    several sizes, of one size and full rows (a shared index array)."""
    shape = data.draw(st.sampled_from(["ragged", "one size", "full"]))
    if shape != "ragged":
        rows = [row[: min(map(len, rows))] for row in rows]
    if shape == "full":  # every row 1..d: gathers share one index array
        rows = [[(j + 1, v) for j, (_, v) in enumerate(row)] for row in rows]
    p = Points.from_rows(rows)
    n = len(rows)
    assert len(p) == n and rows_of(p) == rows
    i = data.draw(st.integers(-n - 2, n + 1))
    if -n <= i < n:
        assert len(p[i]) == 1 and rows_of(p[i]) == [rows[i]]
    else:
        with pytest.raises(IndexError):
            p[i]
    key = data.draw(st.slices(n + 2))
    assert rows_of(p[key]) == rows[key]
    picks = data.draw(st.lists(st.integers(-n, n - 1), max_size=9)) if n else []
    assert rows_of(p[np.array(picks, dtype=np.int64)]) == [rows[j] for j in picks]
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    got = p[np.array(mask, dtype=bool)]
    assert rows_of(got) == [r for r, keep in zip(rows, mask) if keep]
    again = Points(got.indptr, got.indices, got.values)  # a gather is itself valid
    assert rows_of(again) == rows_of(got)


def reference_dense_rows(points):
    """dense_rows written plainly: the distinct indices as columns, then one
    row assignment per point."""
    cols = np.unique(np.concatenate([p.indices for p in points] + [np.empty(0, dtype=np.int64)]))
    column = {c: j for j, c in enumerate(cols.tolist())}
    X = np.zeros((len(points), cols.size))
    for r, p in enumerate(points):
        X[r, [column[i] for i in p.indices.tolist()]] = p.values
    return X, np.einsum("ij,ij->i", X, X)


def random_rows(rng, n, dim, k):
    """n rows of k distinct indices drawn from 1..dim."""
    return [
        row(np.sort(rng.choice(dim, size=k, replace=False)) + 1, rng.standard_normal(k))
        for _ in range(n)
    ]


class TestDenseRows:
    """dense_rows pinned bit for bit to reference_dense_rows on each of its
    branches: full rows reshaped, the scatter at compact columns, at columns
    with a gap (occupancy table) and at a huge index (np.unique)."""

    N = 2 * kernel_mod._SCATTER_ROWS + 300  # the scatter spans three chunks
    CASES = [
        "full", "one-row-missing-an-index", "index-gap", "sparse", "huge-index",
        "empty-rows", "only-empty-rows", "single-point", "single-point-with-gap", "no-points",
    ]

    def full(self):
        return synth_two_gaussians(self.N, 50, 3.0, seed=1).points

    def inputs(self):
        rng = np.random.default_rng(0)
        full = self.full()
        missing = row(np.r_[1:30, 31:51], rng.standard_normal(49))
        return {
            "full": full,
            "one-row-missing-an-index": stack(*full[:1500], missing, *full[1500:]),
            "index-gap": stack(
                *[row(np.r_[1:30, 40:60], rng.standard_normal(49)) for _ in range(self.N)]
            ),
            "sparse": stack(*random_rows(rng, self.N, 500, 20)),
            "huge-index": stack(*random_rows(rng, self.N, 500, 20), sv((3, 1.0), (10**15, -2.0))),
            "empty-rows": stack(sv(), sv((2, 1.5)), sv(), sv((1, -0.0), (2, 3.0))),
            "only-empty-rows": stack(sv(), sv()),
            "single-point": sv((1, 0.5), (2, -1.0), (3, 2.0)),
            "single-point-with-gap": sv((2, 0.5), (7, -1.0)),
            "no-points": stack(),
        }

    @pytest.mark.parametrize("name", CASES)
    def test_equals_the_reference(self, name):
        inputs = self.inputs()
        assert list(inputs) == self.CASES
        points = inputs[name]
        X, sq = dense_rows(points)
        want_X, want_sq = reference_dense_rows(points)
        assert X.dtype == sq.dtype == np.float64
        assert X.shape == want_X.shape and sq.shape == want_sq.shape
        assert np.array_equal(X, want_X) and np.array_equal(sq, want_sq)
        assert np.array_equal(np.signbit(X), np.signbit(want_X))  # -0.0 kept

    @pytest.mark.parametrize(
        "a, b",
        [("full", "single-point"), ("single-point", "single-point-with-gap"),
         ("sparse", "empty-rows"), ("no-points", "full")],
    )
    def test_parts_share_columns(self, a, b):
        """dense_rows of each part over the columns of both gives it its rows
        of the dense view of both stacked, bit for bit."""
        inputs = self.inputs()
        cols = columns(stack(*inputs[a], *inputs[b]))
        (XA, sqA), (XB, sqB) = dense_rows(inputs[a], cols), dense_rows(inputs[b], cols)
        X, sq = dense_rows(stack(*inputs[a], *inputs[b]))
        k = len(inputs[a])
        assert np.array_equal(XA, X[:k]) and np.array_equal(XB, X[k:])
        assert np.array_equal(sqA, sq[:k]) and np.array_equal(sqB, sq[k:])

    @pytest.mark.parametrize("name", ["full", "index-gap", "sparse", "huge-index", "empty-rows",
                                      "single-point-with-gap", "no-points"])
    def test_rows_over_given_columns(self, name):
        """Over given columns X keeps the values at those indices, and a
        norm adds the squares of the row's other values, in order, to its
        sum over X: each row's X and norm are those of the row alone."""
        points = self.inputs()[name]
        own = columns(points)
        for cols in (own, own[::2], own[1:], np.union1d(own, [1, 3, 10**6]), own[:0]):
            X, sq = dense_rows(points, cols)
            assert X.shape == (len(points), cols.size) and sq.shape == (len(points),)
            for r in range(0, len(points), 97):
                p = points[r]
                inside = np.isin(p.indices, cols)
                want = np.zeros((1, cols.size))
                want[0, np.searchsorted(cols, p.indices[inside])] = p.values[inside]
                rest = sum(v * v for v in p.values[~inside].tolist())
                assert np.array_equal(X[r], want[0])
                assert sq[r] == np.einsum("ij,ij->i", want, want)[0] + rest
                assert np.array_equal(dense_rows(p, cols)[1], sq[r : r + 1])

    def test_stream_workload_data_equals_the_reference(self):
        points = synth_two_gaussians(10_000, 50, separation_for_bayes_accuracy(0.95), seed=81).points
        X, sq = dense_rows(points)
        want_X, want_sq = reference_dense_rows(points)
        assert np.array_equal(X, want_X) and np.array_equal(sq, want_sq)

    @staticmethod
    def traced_peak(points):
        dense_rows(points)  # the first np.unique call keeps ~1 MB of state for good
        tracemalloc.start()
        try:
            X, sq = dense_rows(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, X, sq

    def test_full_rows_allocate_only_x_and_norms(self):
        """X is a read-only reshape of the stored values, so it allocates
        nothing and only the norms remain."""
        points = self.full()
        peak, X, sq = self.traced_peak(points)
        assert np.shares_memory(X, points.values) and not X.flags.writeable
        assert peak <= sq.nbytes + (4 << 10)

    @pytest.mark.parametrize("name", ["one-row-missing-an-index", "index-gap", "huge-index"])
    def test_scatter_holds_x_and_one_chunk(self, name):
        """Beyond X and its norms, the scatter holds two arrays of one chunk's
        entries (positions and values). The column scan before X is smaller
        than X on these inputs."""
        points = self.inputs()[name]
        chunk = max(
            sum(p.indices.size for p in points[s : s + kernel_mod._SCATTER_ROWS])
            for s in range(0, len(points), kernel_mod._SCATTER_ROWS)
        )
        peak, X, sq = self.traced_peak(points)
        assert peak - X.nbytes - sq.nbytes <= 2 * 8 * chunk + (8 << 10)


class TestSquaredDistance:
    def test_zero_iff_equal(self):
        v = sv((1, 1.0), (2, 2.0))
        w = sv((1, 1.0), (2, 2.0))
        assert squared_distance(v, w) == 0.0
        assert block_sq_dist(v, w) == 0.0

    def test_disjoint_support(self):
        v = sv((1, 3.0))
        w = sv((2, 4.0))
        assert squared_distance(v, w) == pytest.approx(25.0)
        assert block_sq_dist(v, w) == pytest.approx(25.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            iv = np.sort(rng.choice(20, size=5, replace=False)) + 1
            iw = np.sort(rng.choice(20, size=7, replace=False)) + 1
            v = row(iv, rng.normal(size=5))
            w = row(iw, rng.normal(size=7))
            assert squared_distance(v, w) == squared_distance(w, v)
            assert block_sq_dist(v, w) == block_sq_dist(w, v)
            assert block_sq_dist(v, w) == pytest.approx(squared_distance(v, w), rel=1e-12, abs=1e-12)


class TestEvalKernel:
    def test_identity_cases(self):
        x = sv((1, 0.3), (4, -1.0))
        for sf, want in [(1.0, 1.0), (2.0, 4.0)]:
            spec = KernelSpec(sf, 1.0)
            assert eval_kernel(spec, x, x) == pytest.approx(want)
            assert block_gram(spec, x)[0, 0] == pytest.approx(want)
            assert block_kernel(spec, x, x) == pytest.approx(want)

    def test_unit_distance_value(self):
        # ||x - y||^2 = 2 at sigma_l = 1 gives exp(-1)
        x = sv((1, 1.0))
        y = sv((2, 1.0))
        spec = KernelSpec(1.0, 1.0)
        assert eval_kernel(spec, x, y) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert block_kernel(spec, x, y) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_bounded_and_positive(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec(1.7, 0.8)
        for _ in range(200):
            x = Points.from_dense(rng.normal(size=4))
            y = Points.from_dense(rng.normal(size=4))
            k = eval_kernel(spec, x, y)
            assert 0.0 < k <= spec.sigma_f**2 + 1e-15
            assert eval_kernel(spec, y, x) == k
            K = block_gram(spec, x, y)
            assert np.all((K > 0.0) & (K <= spec.sigma_f**2))
            assert K[0, 1] == K[1, 0]
            assert K[0, 1] == pytest.approx(k, rel=1e-12)

    def test_feature_map_distance_nonnegative(self):
        # ||Phi(x) - Phi(y)||^2 = K(x,x) + K(y,y) - 2K(x,y) >= 0, and <= (2R)^2
        rng = np.random.default_rng(2)
        spec = KernelSpec(1.3, 1.1)
        for _ in range(200):
            x = Points.from_dense(rng.normal(size=3))
            y = Points.from_dense(rng.normal(size=3))
            d2 = 2.0 * spec.sigma_f**2 - 2.0 * eval_kernel(spec, x, y)
            assert -1e-12 <= d2 <= (2.0 * spec.sigma_f) ** 2
            K = block_gram(spec, x, y)
            d2 = K[0, 0] + K[1, 1] - 2.0 * K[0, 1]
            assert -1e-12 <= d2 <= (2.0 * spec.sigma_f) ** 2

    @given(
        sf=st.floats(0.1, 5.0),
        sl=st.floats(0.1, 5.0),
        xv=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_self_kernel_is_sigma_f_squared(self, sf, sl, xv):
        spec = KernelSpec(sf, sl)
        x = Points.from_dense(xv)
        assert eval_kernel(spec, x, x) == pytest.approx(sf**2, rel=1e-12)
        assert block_gram(spec, x)[0, 0] == pytest.approx(sf**2, rel=1e-12)


class TestFeatureNorm:
    def test_constant_in_x(self):
        spec = KernelSpec(3.0, 0.5)
        a = sv((1, 1.0))
        b = sv((2, -5.0), (7, 2.0))
        assert feature_norm(spec, a) == feature_norm(spec, b) == 3.0
        assert np.array_equal(block_feature_norms(spec, a, b), [3.0, 3.0])

    def test_values(self):
        x = sv((1, 1.0))
        for sf in (1.0, 0.5):
            assert feature_norm(KernelSpec(sf, 2.0), x) == sf
            assert block_feature_norms(KernelSpec(sf, 2.0), x)[0] == sf


class TestDecisionValue:
    def test_empty_sum(self):
        assert decision_value(KernelSpec(1.0, 1.0), [], sv((1, 1.0))) == 0.0
        assert block_decision(KernelSpec(1.0, 1.0), [], sv((1, 1.0))) == 0.0

    def test_single_self_term(self):
        x = sv((1, 1.0))
        assert decision_value(KernelSpec(1.0, 1.0), [(x, 1.0)], x) == pytest.approx(1.0)
        assert block_decision(KernelSpec(1.0, 1.0), [(x, 1.0)], x) == pytest.approx(1.0)

    def test_two_term_hand_value(self):
        a = sv((1, 1.0))
        b = sv((2, 1.0))
        want = 1.0 - math.exp(-1.0)
        got = decision_value(KernelSpec(1.0, 1.0), [(a, 1.0), (b, -1.0)], a)
        assert got == pytest.approx(want, rel=1e-12)
        got = block_decision(KernelSpec(1.0, 1.0), [(a, 1.0), (b, -1.0)], a)
        assert got == pytest.approx(want, rel=1e-12)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(1.0, -1.0)
        # sigma^2 and 2 sigma^2 must be normal floats: 1.49e-154 squares to a
        # subnormal, 9.5e153 doubles its square past the largest float
        for sigma in (1e160, 1e-170, 1.49e-154, np.float64(9.5e153), math.inf, math.nan):
            for name, spec in [("sigma_f", (sigma, 1.0)), ("sigma_l", (1.0, sigma))]:
                with pytest.raises(ValueError, match=f"^{name} must be positive"):
                    KernelSpec(*spec)
        for sigma in (1.5e-154, 9.4e153):
            KernelSpec(sigma, sigma)


class TestBlockPrimitives:
    """sq_dist_block / block_decisions / support_decisions against the
    literal one-shot formula."""

    SPEC = KernelSpec(sigma_f=1.3, sigma_l=0.9)

    @staticmethod
    def rows(rng, n, dim=7):
        X = rng.standard_normal((n, dim))
        return X, np.einsum("ij,ij->i", X, X)

    @staticmethod
    def old_block(XA, sqA, XB, sqB):
        d2 = sqA[:, None] + sqB[None, :] - 2.0 * (XA @ XB.T)
        np.maximum(d2, 0.0, out=d2)
        return d2

    def test_block_equals_old_formula(self):
        rng = np.random.default_rng(0)
        XA, sqA = self.rows(rng, 37)
        XB, sqB = self.rows(rng, 53)
        assert np.array_equal(sq_dist_block(XA, sqA, XB, sqB), self.old_block(XA, sqA, XB, sqB))
        out = np.empty((37, 53))
        assert sq_dist_block(XA, sqA, XB, sqB, out=out) is out
        assert np.array_equal(out, self.old_block(XA, sqA, XB, sqB))

    def triangle_slabs(self, spec, X, sq):
        """The row slabs of support_decisions' walk, built one by one:
        rows [start, stop) against the columns [start, n), diagonal
        sigma_f^2."""
        n = X.shape[0]
        w = kernel_mod.slab_width(n)
        for start in range(0, n, w):
            stop = min(start + w, n)
            block = sq_dist_block(X[start:stop], sq[start:stop], X[start:], sq[start:], spec=spec)
            block[:, : stop - start][np.diag_indices(stop - start)] = spec.sigma_f**2
            yield start, stop, block

    @pytest.mark.parametrize("n", [0, 1, 5, 64, 65, 300, 1100])
    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_gram_is_the_triangle_walk_mirrored(self, n, sigma_f):
        """K's upper triangle has the bits of the slabs support_decisions
        builds, K equals K.T exactly, and its diagonal is exactly sigma_f^2,
        also at repeated points."""
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=0.9)
        rng = np.random.default_rng(n)
        X, _ = self.rows(rng, n)
        X[n // 2 :: 7] = X[n // 3 : n // 3 + 1]  # repeated points off the diagonal
        sq = np.einsum("ij,ij->i", X, X)
        K = gram(spec, X, sq)
        assert K.shape == (n, n) and K.flags.c_contiguous
        for start, stop, block in self.triangle_slabs(spec, X, sq):
            upper = np.triu(np.ones(block.shape, dtype=bool))
            assert np.array_equal(K[start:stop, start:][upper], block[upper]), start
        assert np.array_equal(K, K.T)
        assert np.all(np.diagonal(K) == sigma_f**2)

    def test_gram_equals_old_formula(self):
        """The literal formula with an exact-zero distance diagonal, to
        rtol 1e-13: slab gemms and one full product round alike."""
        rng = np.random.default_rng(1)
        for n, sigma_f in [(64, 1.0), (300, 1.3), (1100, 1.3)]:
            spec = KernelSpec(sigma_f=sigma_f, sigma_l=0.9)
            X, sq = self.rows(rng, n)
            d2 = self.old_block(X, sq, X, sq)
            np.fill_diagonal(d2, 0.0)
            np.testing.assert_allclose(gram(spec, X, sq), self.literal_kernel(spec, d2), rtol=1e-13, atol=0.0)

    def test_gram_over_the_narrowest_slabs(self, monkeypatch):
        rng = np.random.default_rng(11)
        X, sq = self.rows(rng, 60)
        monkeypatch.setattr(kernel_mod, "SLAB_BYTES", 8 * 60 - 1)  # below one row
        assert kernel_mod.slab_width(60) == 8  # eight row slabs, the last of 4 rows
        K = gram(self.SPEC, X, sq)
        for start, stop, block in self.triangle_slabs(self.SPEC, X, sq):
            upper = np.triu(np.ones(block.shape, dtype=bool))
            assert np.array_equal(K[start:stop, start:][upper], block[upper]), start
        assert np.array_equal(K, K.T)

    def test_gram_build_holds_one_gram_plus_slabs(self):
        rng = np.random.default_rng(5)
        X, sq = self.rows(rng, 1024)
        tracemalloc.start()
        try:
            K = gram(self.SPEC, X, sq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= K.nbytes + 2 * SLAB_BYTES

    def test_in_place_kernel_equals_allocating_kernel(self):
        rng = np.random.default_rng(4)
        for i in range(200):
            spec = KernelSpec(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            if i == 0:
                spec = KernelSpec(1.0, spec.sigma_l)  # the sigma_f^2 multiply is skipped
            d2 = rng.exponential(rng.uniform(0.1, 50.0), 1000)
            d2[:3] = 0.0
            want = spec.sigma_f**2 * np.exp(-d2 / (2.0 * spec.sigma_l**2))
            assert np.array_equal(kernel_matrix_from_sq_dists(spec, d2), want)
            buf = d2.copy()
            assert kernel_matrix_from_sq_dists(spec, buf, out=buf) is buf
            assert np.array_equal(buf, want)

    @staticmethod
    def padded(XT, sqT, width):
        """The target rows and norms with zero rows after them, up to a
        multiple of ``width`` rows."""
        pad = -XT.shape[0] % width
        return np.vstack([XT, np.zeros((pad, XT.shape[1]))]), np.concatenate([sqT, np.zeros(pad)])

    def test_one_slab_decisions_equal_one_shot_block(self):
        rng = np.random.default_rng(2)
        XS, sqS = self.rows(rng, 40)
        XT, sqT = self.rows(rng, 50)
        c = rng.standard_normal(40)
        assert kernel_mod.slab_width(40) == 64  # one slab, padded with 14 zero rows
        block = self.old_block(XS, sqS, *self.padded(XT, sqT, 64))
        one_shot = (c @ kernel_matrix_from_sq_dists(self.SPEC, block))[:50]
        assert np.array_equal(block_decisions(self.SPEC, c, XS, sqS, XT, sqT), one_shot)

    def test_chunked_decisions_match_one_shot_block(self):
        rng = np.random.default_rng(3)
        XS, sqS = self.rows(rng, 1100, dim=20)
        XT, sqT = self.rows(rng, 3000, dim=20)
        c = rng.standard_normal(1100)
        width = SLAB_BYTES // (8 * 1100)
        assert math.ceil(3000 / width) >= 3  # the check spans several slabs
        one_shot = c @ kernel_matrix_from_sq_dists(self.SPEC, self.old_block(XS, sqS, XT, sqT))
        got = block_decisions(self.SPEC, c, XS, sqS, XT, sqT)
        assert np.allclose(got, one_shot, rtol=1e-12, atol=0.0)

    @staticmethod
    def literal_kernel(spec, d2):
        return spec.sigma_f**2 * np.exp(-d2 / (2.0 * spec.sigma_l**2))

    @pytest.mark.parametrize("shape", [(1000, 500), (37, 53), (3, 90_000), (0, 5), (5, 0)])
    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_kernel_block_equals_distances_then_kernel(self, shape, sigma_f):
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=2.1)
        rng = np.random.default_rng(6)
        XA = 30.0 * rng.standard_normal((shape[0], 7))
        XB = 30.0 * rng.standard_normal((shape[1], 7))
        shared = min(shape) // 2
        XB[:shared] = XA[:shared]  # targets that are support rows, as in the objective
        sqA, sqB = np.einsum("ij,ij->i", XA, XA), np.einsum("ij,ij->i", XB, XB)
        raw = sqA[:, None] + sqB[None, :] - 2.0 * (XA @ XB.T)
        assert shared < 10 or (raw < 0.0).any()  # the clamp is exercised
        want = self.literal_kernel(spec, self.old_block(XA, sqA, XB, sqB))
        out = np.empty(shape)
        assert sq_dist_block(XA, sqA, XB, sqB, out=out, spec=spec) is out
        assert np.array_equal(out, want)
        d2 = sq_dist_block(XA, sqA, XB, sqB)
        assert np.array_equal(kernel_matrix_from_sq_dists(spec, d2), want)

    K = 1600  # several pass chunks a slab
    WIDTH = min(64, max(8, 8 * (SLAB_BYTES // (64 * K))))  # targets per slab of block_decisions

    def slab_problem(self, m, seed=0):
        rng = np.random.default_rng(seed)
        XS, sqS = self.rows(rng, self.K, dim=9)
        XT, sqT = self.rows(rng, m, dim=9)
        return rng.standard_normal(self.K), XS, sqS, XT, sqT

    def literal_decisions(self, spec, c, XS, sqS, XT, sqT):
        """block_decisions as a plain loop over slabs of the same width, the
        targets padded with zero rows to a whole number of slabs."""
        width, m = self.WIDTH, XT.shape[0]
        XT, sqT = self.padded(XT, sqT, width)
        out = np.empty(XT.shape[0])
        for s in range(0, XT.shape[0], width):
            d2 = self.old_block(XS, sqS, XT[s : s + width], sqT[s : s + width])
            out[s : s + width] = c @ self.literal_kernel(spec, d2)
        return out[:m]

    @pytest.mark.parametrize(
        "m", [7 * WIDTH + 5, WIDTH + 1, WIDTH - 17, 23 * WIDTH], ids=["tail", "width+1", "one", "many"]
    )
    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_decisions_equal_the_literal_slab_loop(self, m, sigma_f):
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=0.9)
        args = self.slab_problem(m)
        assert self.K // (kernel_mod._PASS_BYTES // (8 * self.WIDTH)) >= 3  # several passes a slab
        assert np.array_equal(block_decisions(spec, *args), self.literal_decisions(spec, *args))

    @pytest.mark.parametrize("dim", [5, 50])
    @pytest.mark.parametrize("k", [1, 5, 63, 550, 1894, 4203])
    def test_a_decision_does_not_depend_on_the_other_targets(self, k, dim):
        """Every slab has one shape, so a target's decision has the same bits
        in any query that holds it: one row, and random subsets in random
        order one short of, at and one past a slab, and of any size."""
        rng = np.random.default_rng(k + dim)
        XS, sqS = self.rows(rng, k, dim)
        c = rng.standard_normal(k)
        width = kernel_mod.slab_width(k)
        m = 3 * width + 5
        XT, sqT = self.rows(rng, m, dim)
        everything = block_decisions(self.SPEC, c, XS, sqS, XT, sqT)
        for size in [1, width - 1, width, width + 1, int(rng.integers(2, m))]:
            sel = rng.permutation(m)[:size]
            got = block_decisions(self.SPEC, c, XS, sqS, XT[sel], sqT[sel])
            assert np.array_equal(got, everything[sel]), size

    @pytest.mark.parametrize("k, width", [(0, 64), (1, 64), (4096, 64), (4097, 56), (8191, 32),
                                          (32767, 8), (32768, 8), (10**6, 8)])
    def test_slab_width_is_fixed_by_the_support_size(self, k, width):
        """A multiple of 8 from 8 to 64, so a slab holds at most
        max(SLAB_BYTES, 64 k) bytes."""
        assert kernel_mod.slab_width(k) == width
        assert 8 * k * width <= max(SLAB_BYTES, 64 * k)

    def test_decisions_hold_one_slab_and_one_pass_chunk(self):
        c, XS, sqS, XT, sqT = self.slab_problem(23 * self.WIDTH, seed=1)
        tracemalloc.start()
        try:
            out = block_decisions(self.SPEC, c, XS, sqS, XT, sqT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= SLAB_BYTES + kernel_mod._PASS_BYTES + out.nbytes + (64 << 10)

    def literal_support_decisions(self, spec, c, XS, sqS):
        """c @ K(S, S) from the dense Gram with its exact-zero distance diagonal."""
        d2 = self.old_block(XS, sqS, XS, sqS)
        np.fill_diagonal(d2, 0.0)
        return c @ self.literal_kernel(spec, d2)

    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_support_decisions_match_the_dense_gram(self, sigma_f):
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=0.9)
        rng = np.random.default_rng(7)
        k = 1100
        XS, sqS = self.rows(rng, k, dim=20)
        XS[k // 2 :: 97] = XS[k // 3]  # repeated points off the diagonal
        sqS = np.einsum("ij,ij->i", XS, XS)
        c = rng.standard_normal(k)
        assert math.ceil(k / kernel_mod.slab_width(k)) >= 3  # several row slabs
        got = support_decisions(spec, c, XS, sqS)
        assert np.allclose(got, self.literal_support_decisions(spec, c, XS, sqS), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [0, 1, 50])
    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_support_decisions_diagonal_is_exact(self, k, sigma_f):
        """Far-apart points and a tiny length-scale make K(S, S) sigma_f^2 I up
        to underflow, so a self-distance rounded above 0 would show."""
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=1e-6)
        rng = np.random.default_rng(8)
        X = 30.0 * rng.standard_normal((k, 7))
        c = rng.standard_normal(k)
        got = support_decisions(spec, c, X, np.einsum("ij,ij->i", X, X))
        assert np.array_equal(got, c * sigma_f**2)

    def test_support_decisions_over_the_narrowest_slabs(self, monkeypatch):
        rng = np.random.default_rng(9)
        XS, sqS = self.rows(rng, 60)
        c = rng.standard_normal(60)
        monkeypatch.setattr(kernel_mod, "SLAB_BYTES", 8 * 60 - 1)  # below one row
        assert kernel_mod.slab_width(60) == 8  # eight row slabs, the last of 4 rows
        got = support_decisions(self.SPEC, c, XS, sqS)
        assert np.allclose(got, self.literal_support_decisions(self.SPEC, c, XS, sqS), rtol=1e-12, atol=0.0)

    def test_support_decisions_hold_one_slab_and_one_pass_chunk(self):
        rng = np.random.default_rng(10)
        XS, sqS = self.rows(rng, 3000, dim=9)
        c = rng.standard_normal(3000)
        tracemalloc.start()
        try:
            out = support_decisions(self.SPEC, c, XS, sqS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= SLAB_BYTES + kernel_mod._PASS_BYTES + out.nbytes + (64 << 10)


class TestRowMatching:
    """Rows, and equal_rows: the exact row matcher behind prediction at the
    model's own points."""

    def test_rows_gather_on_slicing(self):
        X = np.arange(12.0).reshape(6, 2)
        rows = Rows(X, np.array([4, 0, 4]))
        assert rows.shape == (3, 2)
        assert np.array_equal(rows[1:], X[[0, 4]])
        assert rows[3:].shape == (0, 2)

    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_decisions_at_rows_equal_decisions_at_their_copy(self, sigma_f):
        spec = KernelSpec(sigma_f=sigma_f, sigma_l=0.9)
        rng = np.random.default_rng(11)
        XS, sqS = TestBlockPrimitives.rows(rng, 600, dim=9)
        X, sq = TestBlockPrimitives.rows(rng, 2500, dim=9)
        c = rng.standard_normal(600)
        index = rng.permutation(2500)[:2000]
        assert math.ceil(2000 / (SLAB_BYTES // (8 * 600))) >= 3  # several slabs
        got = block_decisions(spec, c, XS, sqS, Rows(X, index), sq[index])
        assert np.array_equal(got, block_decisions(spec, c, XS, sqS, X[index], sq[index]))

    def test_shuffled_and_repeated_rows_match(self):
        rng = np.random.default_rng(12)
        XA = rng.standard_normal((300, 6))
        picks = rng.integers(0, 300, size=900)  # each row of XA several times
        XB = np.vstack([XA[picks], rng.standard_normal((100, 6))])
        got = equal_rows(XA, XB)
        assert np.array_equal(got, np.concatenate([picks, np.full(100, -1)]))

    def test_duplicate_rows_match_the_first(self):
        XA = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        got = equal_rows(XA, np.array([[3.0, 4.0], [1.0, 2.0], [1.0, 2.5]]))
        assert got.tolist() == [1, 0, -1]

    def test_a_signed_zero_is_not_a_match(self):
        XA = np.array([[0.0, 1.0], [-0.0, 2.0]])
        got = equal_rows(XA, np.array([[-0.0, 1.0], [0.0, 2.0], [0.0, 1.0]]))
        assert got.tolist() == [-1, -1, 0]

    def test_empty_sides_and_empty_rows(self):
        X = np.ones((3, 4))
        assert equal_rows(X[:0], X).tolist() == [-1, -1, -1]
        assert equal_rows(X, X[:0]).shape == (0,)
        assert equal_rows(np.ones((2, 0)), np.ones((3, 0))).tolist() == [0, 0, 0]

    def test_a_shared_hash_checks_one_candidate(self, monkeypatch):
        """With every hash equal, each row is checked against the first row
        of XA only: equal rows elsewhere in XA are missed, never mismatched,
        and the check is on bits, so a signed zero is a mismatch."""
        monkeypatch.setattr(kernel_mod, "_row_hashes", lambda X: np.zeros(X.shape[0], np.uint64))
        XA = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        XB = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, -0.0]])
        assert equal_rows(XA, XB).tolist() == [-1, 0, -1, -1]

    def test_matching_holds_index_arrays_and_one_chunk(self):
        rng = np.random.default_rng(13)
        XA = rng.standard_normal((3000, 50))
        XB = np.vstack([XA[rng.permutation(3000)], rng.standard_normal((2000, 50))])
        tracemalloc.start()
        try:
            got = equal_rows(XA, XB)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(got >= 0) == 3000
        # two gathered chunks of rows with their comparison, and at most six
        # 8-byte arrays of len(XA) + len(XB) entries
        assert peak <= 3 * kernel_mod._PASS_BYTES + 6 * 8 * (3000 + 5000)
