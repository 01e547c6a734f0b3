import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gkm import graph as graph_mod
from gkm.data import Dataset
from gkm.exceptions import EmptyEdgeSetError, InvalidKError, ParseError
from gkm.graph import (
    ExplicitEdges,
    FullyConnectedEdges,
    GraphSpec,
    build_eps,
    build_fully_connected,
    build_knn,
    read_edges,
    write_edges,
)
from gkm.kernel import SLAB_BYTES, Points, dense_rows, sq_dist_block, sq_dist_pairs


def point(*pairs):
    """One point of (index, value) pairs."""
    return Points.from_rows([pairs])


def line_dataset(coords, labels):
    pts = Points.from_rows([(1, float(c))] for c in coords)
    return Dataset(pts, np.array(labels, dtype=np.int8))


def random_dataset(n, l, dim, seed):
    rng = np.random.default_rng(seed)
    pts = Points.from_dense(rng.normal(size=(n, dim)))
    labels = np.zeros(n, dtype=np.int8)
    labels[:l] = rng.choice([-1, 1], size=l)
    return Dataset(pts, labels)


# Literal references: the scalar weight of one pair, and the k-NN and eps
# builders over the whole n x n distance matrix. The package's slab scans
# and its one pair-distance primitive (kernel.sq_dist_pairs, which every
# edge weight goes through) are pinned to them.


def dense_pair(x_i: Points, x_j: Points):
    """The dense view of the two one-row points as one Points."""
    return dense_rows(Points.from_rows(zip(p.indices.tolist(), p.values.tolist()) for p in (x_i, x_j)))


def edge_weight(x_i: Points, x_j: Points, sigma_s: float) -> float:
    """Gaussian edge weight in (0, 1]; equals 1 iff x_i = x_j."""
    X, _ = dense_pair(x_i, x_j)
    return math.exp(-float(np.sum((X[0] - X[1]) ** 2)) / (2.0 * sigma_s**2))


def gaussian_weights(d2, sigma_s):
    return np.maximum(np.exp(-d2 / (2.0 * sigma_s**2)), np.finfo(np.float64).tiny)


def pair_weight(x_i: Points, x_j: Points, sigma_s: float) -> float:
    d2 = sq_dist_pairs(*dense_pair(x_i, x_j), [0], [1])
    return float(gaussian_weights(d2, sigma_s)[0])


def sq_dists(dataset):
    """Squared distances among the dataset's points; exact-zero diagonal."""
    X, sq = dataset.dense()
    d2 = sq_dist_block(X, sq, X, sq)
    np.fill_diagonal(d2, 0.0)
    return d2


def knn_reference(dataset, k):
    n, l = dataset.n, dataset.labeled_count
    d2 = sq_dists(dataset)
    nn = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        row = d2[i].copy()
        row[i] = np.inf
        nn[i] = np.argsort(row, kind="stable")[:k]
    rows, cols = np.repeat(np.arange(n), k), nn.ravel()
    code = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    us, vs = code // n, code % n
    keep = ~((us < l) & (vs < l))
    return us[keep], vs[keep], d2


def eps_reference(dataset, epsilon):
    n, l = dataset.n, dataset.labeled_count
    d2 = sq_dists(dataset)
    iu, iv = np.triu_indices(n, k=1)
    keep = (d2[iu, iv] <= epsilon**2) & ~((iu < l) & (iv < l))
    return iu[keep].astype(np.int64), iv[keep].astype(np.int64), d2


class TestEdgeWeight:
    def test_identical_points(self):
        x = point((1, 2.0))
        assert edge_weight(x, x, 1.0) == 1.0
        assert pair_weight(x, x, 1.0) == 1.0

    def test_formula_value(self):
        # ||x - y||^2 = 2 sigma_s^2 gives exp(-1)
        x = point((1, 0.0))
        y = point((1, 2.0))
        assert edge_weight(x, y, math.sqrt(2.0)) == pytest.approx(math.exp(-1.0))
        assert pair_weight(x, y, math.sqrt(2.0)) == pytest.approx(math.exp(-1.0))

    def test_symmetry(self):
        x = point((1, 0.3), (2, 1.0))
        y = point((2, -1.0), (3, 0.5))
        assert edge_weight(x, y, 0.7) == edge_weight(y, x, 0.7)
        assert pair_weight(x, y, 0.7) == pair_weight(y, x, 0.7)
        assert pair_weight(x, y, 0.7) == pytest.approx(edge_weight(x, y, 0.7), rel=1e-13)

    def test_distant_points_do_not_underflow_the_invariant(self):
        # exp(-d^2 / (2 sigma^2)) underflows to 0.0 for unscaled features;
        # constructed edge sets must still satisfy weights in (0, 1]
        ds = line_dataset([0.0, 1.0, 5000.0, 5001.0], [0, 0, 0, 0])
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=1))
        assert np.all(edges.ws > 0.0)
        full = build_fully_connected(ds, GraphSpec("full", 1.0))
        _, _, ws = full.enumerate_edges()
        assert np.all(ws > 0.0)


class TestFullyConnected:
    def test_count_with_two_labeled(self):
        ds = line_dataset([0, 1, 2], [1, -1, 0])
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        assert edges.n_edges == 2
        us, vs, _ = edges.enumerate_edges()
        assert sorted(zip(us.tolist(), vs.tolist())) == [(0, 2), (1, 2)]

    def test_all_labeled_pair_is_empty(self):
        ds = line_dataset([0, 1], [1, -1])
        with pytest.raises(EmptyEdgeSetError):
            build_fully_connected(ds, GraphSpec("full", 1.0))

    def test_one_point_graph_is_empty(self):
        """One unlabeled vertex has no pair: the full and eps graphs are
        empty edge sets, not errors."""
        ds = line_dataset([0.0], [0])
        full = build_fully_connected(ds, GraphSpec("full", 1.0))
        eps = build_eps(ds, GraphSpec("eps", 1.0, epsilon=5.0))
        assert full.n_edges == eps.n_edges == 0
        assert all(a.size == 0 for a in full.enumerate_edges())

    def test_no_labels_gives_complete_graph(self):
        ds = line_dataset([0, 1, 2, 3], [0, 0, 0, 0])
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        assert edges.n_edges == 6

    def test_count_formula_matches_enumeration(self):
        for n in range(2, 31):
            for l in range(0, n + 1):
                expected = sum(
                    1
                    for i, j in itertools.combinations(range(n), 2)
                    if not (i < l and j < l)
                )
                formula = n * (n - 1) // 2 - l * (l - 1) // 2
                assert formula == expected
                if formula > 0:
                    ds = random_dataset(n, l, 2, seed=n * 37 + l)
                    assert build_fully_connected(ds, GraphSpec("full", 1.0)).n_edges == formula

    def test_no_labeled_labeled_and_canonical(self):
        ds = random_dataset(12, 5, 3, seed=0)
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        us, vs, ws = edges.enumerate_edges()
        assert np.all(us < vs)
        assert not np.any((us < 5) & (vs < 5))
        assert np.all((ws > 0) & (ws <= 1))


class TestKnn:
    @pytest.mark.parametrize("bad", [2.5, True, np.float64(3), None])
    def test_k_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="k must be an integer"):
            GraphSpec("knn", 1.0, k=bad)

    def test_numpy_k_is_stored_as_int(self):
        spec = GraphSpec("knn", 1.0, k=np.int32(3))
        assert spec.k == 3 and type(spec.k) is int
        with pytest.raises(ValueError, match="k must be >= 1"):
            GraphSpec("knn", 1.0, k=0)

    def test_collinear_example(self):
        ds = line_dataset([0, 1, 10], [0, 0, 0])
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=1))
        pairs = set(zip(edges.us.tolist(), edges.vs.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_saturated_k_equals_complete(self):
        ds = random_dataset(8, 0, 2, seed=1)
        knn = build_knn(ds, GraphSpec("knn", 1.0, k=7))
        assert knn.n_edges == 8 * 7 // 2

    def test_labeled_pair_excluded(self):
        # two labeled mutual nearest neighbors lose their edge
        ds = line_dataset([0.0, 0.1, 5.0, 5.1], [1, -1, 0, 0])
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=1))
        pairs = set(zip(edges.us.tolist(), edges.vs.tolist()))
        assert (0, 1) not in pairs
        assert (2, 3) in pairs

    def test_k_too_large(self):
        ds = line_dataset([0, 1, 2], [0, 0, 0])
        with pytest.raises(InvalidKError):
            build_knn(ds, GraphSpec("knn", 1.0, k=3))

    def test_fully_labeled_raises_as_the_full_graph_does(self):
        """Every nominated pair (every pair within the radius) is
        labeled-labeled, so no edge is left."""
        ds = line_dataset([0, 1, 2, 3], [1, -1, 1, -1])
        for build, spec in ((build_knn, GraphSpec("knn", 1.0, k=2)),
                            (build_eps, GraphSpec("eps", 1.0, epsilon=5.0)),
                            (build_fully_connected, GraphSpec("full", 1.0))):
            with pytest.raises(EmptyEdgeSetError, match="every pair of vertices is labeled-labeled"):
                build(ds, spec)

    def test_tie_break_toward_lower_index(self):
        # vertex 0 is equidistant to 1 and 2, and nobody else nominates 0,
        # so the (0, 1) vs (0, 2) choice is decided purely by the tie break
        coords = [0.0, 1.0, -1.0, 1.4, -1.4]
        ds = line_dataset(coords, [0] * 5)
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=1))
        pairs = set(zip(edges.us.tolist(), edges.vs.tolist()))
        assert pairs == {(0, 1), (1, 3), (2, 4)}


class TestEps:
    def test_distance_cutoff(self):
        ds = line_dataset([0, 1, 10], [0, 0, 0])
        edges = build_eps(ds, GraphSpec("eps", 1.0, epsilon=1.5))
        assert set(zip(edges.us.tolist(), edges.vs.tolist())) == {(0, 1)}

    def test_large_radius_complete(self):
        ds = line_dataset([0, 1, 2], [0, 0, 0])
        edges = build_eps(ds, GraphSpec("eps", 1.0, epsilon=10.0))
        assert edges.n_edges == 3

    def test_small_radius_empty_is_representable(self):
        ds = line_dataset([0, 5, 10], [0, 0, 0])
        edges = build_eps(ds, GraphSpec("eps", 1.0, epsilon=0.1))
        assert edges.n_edges == 0
        with pytest.raises(EmptyEdgeSetError):
            edges.sample_batch(np.random.default_rng(0), 1)


GRID_SIDE = 20


def grid_dataset():
    """The integer grid: every distance is exact, with many ties."""
    pts = Points.from_dense([[float(i), float(j)] for i in range(GRID_SIDE) for j in range(GRID_SIDE)])
    labels = np.zeros(GRID_SIDE**2, dtype=np.int8)
    labels[:30] = 1
    return Dataset(pts, labels)


# n=300 fits one slab; n=2497 takes 25, the last of them a single row
SLAB_CASES = [(n, dim) for n in (300, 2497) for dim in (3, 50)]
EPSILON = {3: 0.5, 50: 7.7}  # about 1% of the pairs at either dim


def assert_weights_pinned(ds, edges, d2, sigma_s):
    """Bitwise equal to the full graph's weights of the same pairs, and
    within rounding of the weights of the n x n distances."""
    full = FullyConnectedEdges(ds, sigma_s)
    assert np.array_equal(edges.ws, full.weights_for(edges.us, edges.vs))
    ref = gaussian_weights(d2[edges.us, edges.vs], sigma_s)
    np.testing.assert_allclose(edges.ws, ref, rtol=1e-13, atol=0.0)


class TestSlabBuildsMatchFullMatrix:
    @pytest.mark.parametrize("n,dim", SLAB_CASES)
    def test_knn(self, n, dim):
        rows = SLAB_BYTES // (8 * n)
        assert n <= rows or n % rows == 1  # one slab, or several ending in one row
        ds = random_dataset(n, n // 5, dim, seed=n + dim)
        edges = build_knn(ds, GraphSpec("knn", 2.0, k=5))
        us, vs, d2 = knn_reference(ds, 5)
        assert np.array_equal(edges.us, us) and np.array_equal(edges.vs, vs)
        assert_weights_pinned(ds, edges, d2, 2.0)
        assert edges.sigma_s == 2.0

    @pytest.mark.parametrize("n,dim", SLAB_CASES)
    def test_eps(self, n, dim):
        ds = random_dataset(n, n // 5, dim, seed=n + dim)
        edges = build_eps(ds, GraphSpec("eps", 2.0, epsilon=EPSILON[dim]))
        us, vs, d2 = eps_reference(ds, EPSILON[dim])
        assert us.size > n
        assert np.array_equal(edges.us, us) and np.array_equal(edges.vs, vs)
        assert_weights_pinned(ds, edges, d2, 2.0)
        assert edges.sigma_s == 2.0

    @pytest.mark.parametrize("dim", [3, 50])
    def test_full_graph_weights(self, dim):
        ds = random_dataset(300, 60, dim, seed=dim)
        us, vs, ws = build_fully_connected(ds, GraphSpec("full", 2.0)).enumerate_edges()
        d2 = sq_dists(ds)
        np.testing.assert_allclose(ws, gaussian_weights(d2[us, vs], 2.0), rtol=1e-13, atol=0.0)

    def test_grid_ties(self):
        ds = grid_dataset()
        knn = build_knn(ds, GraphSpec("knn", 1.0, k=4))
        us, vs, d2 = knn_reference(ds, 4)
        assert np.array_equal(knn.us, us) and np.array_equal(knn.vs, vs)
        assert_weights_pinned(ds, knn, d2, 1.0)
        eps = build_eps(ds, GraphSpec("eps", 1.0, epsilon=1.0))
        us, vs, _ = eps_reference(ds, 1.0)
        assert np.array_equal(eps.us, us) and np.array_equal(eps.vs, vs)


class TestKnnTies:
    """build_knn takes each row's k nearest by partition; at the k-th
    distance the lower indices win, so its pairs are the stable sort's."""

    @pytest.mark.parametrize("k", [1, 3, 4, 5, 8, 9, 12])
    def test_grid(self, k):
        """Interior points have 4 neighbors at 1, 4 at sqrt 2 and 4 at 2: k
        cuts inside a tie, at its end (4, 8, 12) and just past it."""
        ds = grid_dataset()
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=k))
        us, vs, d2 = knn_reference(ds, k)
        assert np.array_equal(edges.us, us) and np.array_equal(edges.vs, vs)
        assert_weights_pinned(ds, edges, d2, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_duplicated_points(self, k):
        """Each point three times: distance-0 ties, then ties among copies."""
        rng = np.random.default_rng(k)
        X = np.repeat(rng.integers(0, 3, size=(40, 2)).astype(float), 3, axis=0)
        ds = Dataset(Points.from_dense(X[rng.permutation(X.shape[0])]), np.zeros(120, dtype=np.int8))
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=k))
        us, vs, d2 = knn_reference(ds, k)
        assert np.array_equal(edges.us, us) and np.array_equal(edges.vs, vs)
        assert_weights_pinned(ds, edges, d2, 1.0)

    def test_k_is_n_minus_one(self):
        ds = line_dataset([0, 1, 1, 2, 4, 4, 4, 9], [1, -1, 0, 0, 0, 0, 0, 0])
        edges = build_knn(ds, GraphSpec("knn", 1.0, k=7))
        us, vs, _ = knn_reference(ds, 7)
        assert np.array_equal(edges.us, us) and np.array_equal(edges.vs, vs)
        assert edges.n_edges == 8 * 7 // 2 - 1  # every pair but the labeled one

    def test_selection_is_the_stable_sort_on_tied_rows(self):
        """Rows of a few distinct values, some infinite, at every k."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            r, n = rng.integers(1, 20), rng.integers(2, 40)
            d2 = rng.integers(0, rng.integers(1, 5), size=(r, n)).astype(float)
            d2[rng.random((r, n)) < 0.1] = np.inf
            k = int(rng.integers(1, n + 1))
            want = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
            assert np.array_equal(graph_mod._nearest(d2.copy(), k), want)


@pytest.mark.parametrize(
    "build,spec",
    [(build_knn, GraphSpec("knn", 2.0, k=10)), (build_eps, GraphSpec("eps", 2.0, epsilon=7.7))],
    ids=["knn", "eps"],
)
def test_build_memory_stays_far_below_the_distance_matrix(build, spec):
    ds = random_dataset(3000, 600, 50, seed=4)
    ds.dense()
    tracemalloc.start()
    try:
        edges = build(ds, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert edges.n_edges > 3000
    assert peak < 16 * 2**20  # the 3000 x 3000 float64 distance matrix is 72 MB


class TestSampling:
    def test_single_edge_always_returned(self):
        edges = ExplicitEdges([0], [1], [0.5], n=2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            us, vs, ws = edges.sample_batch(rng, 1)
            assert (us.tolist(), vs.tolist(), ws.tolist()) == ([0], [1], [0.5])

    def test_small_frequencies_within_three_sigma(self):
        ds = line_dataset([0, 1, 2], [1, -1, 0])
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        rng = np.random.default_rng(7)
        us, vs, _ = edges.sample_batch(rng, 10_000)
        count01 = int(np.sum((us == 0) & (vs == 2)))
        se = math.sqrt(10_000 * 0.5 * 0.5)
        assert abs(count01 - 5000) < 3 * se

    def test_weight_attached_matches_edge_weight(self):
        ds = random_dataset(10, 3, 2, seed=5)
        edges = build_fully_connected(ds, GraphSpec("full", 0.8))
        rng = np.random.default_rng(1)
        us, vs, ws = edges.sample_batch(rng, 1)
        u, v, w = int(us[0]), int(vs[0]), float(ws[0])
        assert w == pytest.approx(edge_weight(ds.points[u], ds.points[v], 0.8), rel=1e-12)
        assert w == gaussian_weights(sq_dist_pairs(*ds.dense(), us, vs), 0.8)[0]

    def test_never_returns_invalid_pairs(self):
        ds = random_dataset(9, 4, 2, seed=2)
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        us, vs, _ = edges.sample_batch(np.random.default_rng(3), 50_000)
        assert np.all(us < vs)
        assert not np.any((us < 4) & (vs < 4))

    def test_large_universe_frequencies_uniform(self):
        from scipy.stats import chisquare

        ds = random_dataset(100, 20, 2, seed=8)
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        assert edges.n_edges == 100 * 99 // 2 - 20 * 19 // 2
        us, vs, _ = edges.sample_batch(np.random.default_rng(17), 1_000_000)
        counts = np.bincount(us * 100 + vs, minlength=100 * 100)
        observed = counts[counts > 0]
        assert observed.size == edges.n_edges
        _, pvalue = chisquare(observed)
        assert pvalue >= 0.001


@pytest.mark.parametrize("n, l", [(40, 0), (40, 1), (40, 17), (40, 39), (2, 1)])
def test_edge_rule_keeps_the_pairs_of_the_first_rules(n, l):
    """The sampler keeps the pairs, in order, of the rule as first written:
    ordered draws rejected where they are equal or both labeled, then sorted."""
    edges = build_fully_connected(random_dataset(n, l, 3, seed=n + l), GraphSpec("full", 1.0))
    for seed in range(3):
        rng, literal = np.random.default_rng(seed), np.random.default_rng(seed)
        us, vs, ws = edges.sample_batch(rng, 3000)
        a_all, b_all = [], []
        while sum(map(len, a_all)) < 3000:
            want = 3000 - sum(map(len, a_all))
            a = literal.integers(0, n, size=want)
            b = literal.integers(0, n, size=want)
            ok = (a != b) & ~((a < l) & (b < l))
            a_all.append(a[ok])
            b_all.append(b[ok])
        a, b = np.concatenate(a_all), np.concatenate(b_all)
        assert np.array_equal(us, np.minimum(a, b)) and np.array_equal(vs, np.maximum(a, b))
        assert np.array_equal(ws, edges.weights_for(us, vs))
        assert rng.bit_generator.state == literal.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, 50, 301])
def test_enumeration_keeps_the_triangle_pairs_of_the_edge_rule(n):
    """The enumeration gives the pairs, in order, of the triangle rule as
    first written: every pair u < v of the upper triangle, dropped where both
    ends are labeled. Built directly, so l = n (no edge) is checked too."""
    for l in sorted({0, 1, n // 2, n - 1, n}):
        edges = FullyConnectedEdges(random_dataset(n, l, 3, seed=n + l), 1.0)
        iu, iv = np.triu_indices(n, k=1)
        keep = ~((iu < l) & (iv < l))
        us, vs, ws = edges.enumerate_edges()
        assert us.dtype == vs.dtype == np.int64
        assert np.array_equal(us, iu[keep]) and np.array_equal(vs, iv[keep])
        assert np.array_equal(ws, edges.weights_for(us, vs))


def test_enumeration_holds_little_beyond_its_edges():
    """At n = 2000, 80% unlabeled (1.92 M edges), the enumeration's peak is
    at most 1.5x the three arrays it returns."""
    edges = build_fully_connected(random_dataset(2000, 400, 5, seed=6), GraphSpec("full", 1.0))
    edges.dataset.dense()
    tracemalloc.start()
    try:
        us, vs, ws = edges.enumerate_edges()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert us.size == edges.n_edges == 1_919_200
    assert peak <= 1.5 * (us.nbytes + vs.nbytes + ws.nbytes)


@pytest.mark.parametrize("l, n_edges", [(1999, 1999), (1900, 194_950)])
def test_enumeration_memory_follows_its_edges_not_n_squared(l, n_edges):
    """At n = 2000 with few unlabeled vertices, the enumeration's peak is at
    most 1.5x the three arrays it returns plus the weights' row slabs: no
    n(n-1)/2 index array is built beside the kept pairs."""
    edges = build_fully_connected(random_dataset(2000, l, 5, seed=6), GraphSpec("full", 1.0))
    edges.dataset.dense()
    tracemalloc.start()
    try:
        us, vs, ws = edges.enumerate_edges()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert us.size == edges.n_edges == n_edges
    assert peak <= 1.5 * (us.nbytes + vs.nbytes + ws.nbytes) + 3 * SLAB_BYTES


class TestEnumerationCap:
    def test_implicit_enumeration_respects_cap(self, monkeypatch):
        from gkm.exceptions import EdgeEnumerationTooLargeError

        ds = random_dataset(30, 5, 2, seed=11)
        edges = build_fully_connected(ds, GraphSpec("full", 1.0))
        monkeypatch.setattr(graph_mod, "EXACT_EDGE_CAP", 10)
        with pytest.raises(EdgeEnumerationTooLargeError):
            edges.enumerate_edges()
        monkeypatch.setattr(graph_mod, "EXACT_EDGE_CAP", edges.n_edges)
        us, _, _ = edges.enumerate_edges()
        assert us.size == edges.n_edges

    def test_explicit_edges_enumerate_above_cap(self, monkeypatch, tmp_path):
        # the list is already in memory, so the cap guards no allocation
        knn = build_knn(random_dataset(30, 5, 2, seed=11), GraphSpec("knn", 1.0, k=3))
        monkeypatch.setattr(graph_mod, "EXACT_EDGE_CAP", 10)
        assert knn.n_edges > 10
        us, vs, ws = knn.enumerate_edges()
        assert (us is knn.us) and (vs is knn.vs) and (ws is knn.ws)
        path = tmp_path / "knn.txt"
        write_edges(knn, path)
        back = read_edges(path, knn.n)
        assert np.array_equal(back.us, knn.us) and np.array_equal(back.vs, knn.vs)
        assert np.array_equal(back.ws, knn.ws)


@pytest.mark.parametrize(
    "kind, fields",
    [("full", {"sigma_s": math.nan}), ("full", {"sigma_s": 0.0}),
     ("eps", {"epsilon": math.nan}), ("eps", {"epsilon": 0.0}),
     ("full", {"sigma_s": 1e200}), ("full", {"sigma_s": 1e-170}), ("eps", {"epsilon": 1e200})],
)
def test_graph_spec_rejects_nan_and_nonpositive(kind, fields):
    with pytest.raises(ValueError):
        GraphSpec(kind, **{"sigma_s": 1.0, **fields})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = random_dataset(8, 2, 3, seed=9)
        edges = build_knn(ds, GraphSpec("knn", 1.2, k=2))
        path = tmp_path / "edges.txt"
        write_edges(edges, path)
        back = read_edges(path)
        assert back.n_edges == edges.n_edges
        assert np.array_equal(back.us, edges.us)
        assert np.array_equal(back.vs, edges.vs)
        assert np.array_equal(back.ws, edges.ws)

    def test_sigma_s_recorded_only_when_given(self, tmp_path):
        edges = ExplicitEdges([0], [2], [1.0], n=3, sigma_s=2.0)
        assert edges.sigma_s == 2.0
        assert ExplicitEdges([0], [2], [1.0], n=3).sigma_s is None
        path = tmp_path / "e.txt"
        write_edges(edges, path)
        assert read_edges(path).sigma_s is None  # the file holds no bandwidth

    def test_one_based_indices_in_file(self, tmp_path):
        edges = ExplicitEdges([0], [2], [1.0], n=3)
        path = tmp_path / "e.txt"
        write_edges(edges, path)
        assert path.read_text().split()[:2] == ["1", "3"]

    @pytest.mark.parametrize("weight", ["nan", "inf", "0", "1.5", "1e-400"])
    def test_weight_outside_unit_interval_rejected(self, tmp_path, weight):
        path = tmp_path / "e.txt"
        path.write_text(f"1 2 {weight}\n")
        with pytest.raises(ParseError, match=r"^line 1: weights must lie in \(0, 1\]"):
            read_edges(path)
