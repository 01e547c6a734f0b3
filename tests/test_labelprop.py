import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gkm
from gkm.data import hide_labels, synth_two_gaussians
from gkm.exceptions import DisconnectedUnlabeledError
from gkm.graph import ExplicitEdges, GraphSpec, build_graph, build_knn
from gkm.labelprop import PropagationProblem, solve_exact, threshold_labels


def chain(n, weights=None):
    w = weights if weights is not None else [1.0] * (n - 1)
    return ExplicitEdges(list(range(n - 1)), list(range(1, n)), w, n=n)


def brute_force(problem, iters=500_000, tol=1e-9):
    """Projected gradient descent on the edge-weighted quadratic, free
    coordinates only. Independent of the linear-system path."""
    n = problem.n
    labeled = problem.labels != 0
    f = problem.labels.astype(np.float64)
    us, vs, ws = problem.edges.us, problem.edges.vs, problem.edges.ws
    deg = np.bincount(us, weights=ws, minlength=n) + np.bincount(vs, weights=ws, minlength=n)
    step = 1.0 / (2.0 * max(deg.max(), 1e-12))
    free = ~labeled
    for _ in range(iters):
        diff = f[us] - f[vs]
        grad = 2.0 * (np.bincount(us, weights=ws * diff, minlength=n)
                      - np.bincount(vs, weights=ws * diff, minlength=n))
        grad[labeled] = 0.0
        if np.linalg.norm(grad) <= tol:
            break
        f[free] -= step * grad[free]
    return f


def random_connected_problem(rng, n):
    # random tree keeps it connected, plus a few extra edges
    us, vs = [], []
    for v in range(1, n):
        us.append(int(rng.integers(0, v)))
        vs.append(v)
    extra = rng.integers(0, n, size=(n // 2, 2))
    for a, b in extra:
        if a != b:
            us.append(int(min(a, b)))
            vs.append(int(max(a, b)))
    pairs = sorted(set(zip(us, vs)))
    ws = rng.uniform(0.05, 1.0, size=len(pairs))
    labels = np.zeros(n, dtype=np.int8)
    k = int(rng.integers(1, max(2, n // 3)))
    chosen = rng.choice(n, size=k, replace=False)
    labels[chosen] = rng.choice([-1, 1], size=k)
    if not np.any(labels != 0):
        labels[0] = 1
    edges = ExplicitEdges([p[0] for p in pairs], [p[1] for p in pairs], ws, n=n)
    # labeled-labeled edges are excluded by construction elsewhere; drop them here
    keep = ~((labels[edges.us] != 0) & (labels[edges.vs] != 0))
    edges = ExplicitEdges(edges.us[keep], edges.vs[keep], edges.ws[keep], n=n)
    return PropagationProblem(edges, labels)


def is_solvable(problem):
    try:
        solve_exact(problem)
        return True
    except DisconnectedUnlabeledError:
        return False


class TestSolveExact:
    def test_three_chain_symmetry(self):
        prob = PropagationProblem(chain(3), np.array([1, 0, -1], dtype=np.int8))
        f = solve_exact(prob)
        assert f[1] == pytest.approx(0.0, abs=1e-12)

    def test_four_chain_interior_values(self):
        prob = PropagationProblem(chain(4), np.array([1, 0, 0, -1], dtype=np.int8))
        f = solve_exact(prob)
        assert f[1] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert f[2] == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_fully_labeled_returns_labels(self):
        edges = ExplicitEdges([0], [1], [0.5], n=3)
        prob = PropagationProblem(edges, np.array([1, -1, 1], dtype=np.int8))
        # vertex 0-1 edge joins two labeled vertices; clamping returns labels
        f = solve_exact(prob)
        assert f.tolist() == [1.0, -1.0, 1.0]

    def test_disconnected_unlabeled_raises(self):
        edges = ExplicitEdges([0], [1], [1.0], n=3)
        prob = PropagationProblem(edges, np.array([1, 0, 0], dtype=np.int8))
        with pytest.raises(DisconnectedUnlabeledError):
            solve_exact(prob)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 30:
            prob = random_connected_problem(rng, int(rng.integers(4, 21)))
            if not is_solvable(prob):
                continue
            exact = solve_exact(prob)
            approx = brute_force(prob)
            assert np.max(np.abs(exact - approx)) <= 1e-6
            done += 1

    def test_maximum_principle(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 30:
            prob = random_connected_problem(rng, int(rng.integers(4, 21)))
            if not is_solvable(prob):
                continue
            f = solve_exact(prob)
            lab = prob.labels != 0
            lo, hi = f[lab].min(), f[lab].max()
            assert np.all(f >= lo - 1e-10) and np.all(f <= hi + 1e-10)
            done += 1

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(2)
        prob = random_connected_problem(rng, 12)
        if not is_solvable(prob):
            pytest.skip("unsolvable draw")
        f1 = solve_exact(prob)
        # scaling weights must not move the solution; rescale into (0, 1]
        scaled = ExplicitEdges(prob.edges.us, prob.edges.vs, prob.edges.ws * 0.25, prob.n)
        f2 = solve_exact(PropagationProblem(scaled, prob.labels))
        assert np.max(np.abs(f1 - f2)) < 1e-9

    def test_repeated_edges_count_once_per_listing(self):
        # the (0, 1) edge is listed twice: f_1 = (2 * .5 * 1 + .5 * -1) / 1.5
        edges = ExplicitEdges([0, 1, 0], [1, 2, 1], [0.5, 0.5, 0.5], n=3)
        prob = PropagationProblem(edges, np.array([1, 0, -1], dtype=np.int8))
        f = solve_exact(prob)
        assert f[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert np.max(np.abs(f - brute_force(prob))) <= 1e-6
        rng = np.random.default_rng(3)
        done = 0
        while done < 10:
            prob = random_connected_problem(rng, int(rng.integers(4, 21)))
            e = prob.edges
            again = rng.integers(0, e.n_edges, size=max(1, e.n_edges // 2))
            edges = ExplicitEdges(np.concatenate([e.us, e.us[again]]),
                                  np.concatenate([e.vs, e.vs[again]]),
                                  np.concatenate([e.ws, e.ws[again]]), n=e.n)
            prob = PropagationProblem(edges, prob.labels)
            if not is_solvable(prob):
                continue
            assert np.max(np.abs(solve_exact(prob) - brute_force(prob))) <= 1e-6
            done += 1

    @pytest.mark.parametrize("spec", [GraphSpec("full", 1.5), GraphSpec("knn", 1.5, k=5)], ids=["full", "knn"])
    def test_any_edge_set_solves_as_its_enumerated_edges(self, spec):
        """The implicit full graph and a kNN list give the bits their
        enumerated edges give as an ExplicitEdges."""
        full = synth_two_gaussians(200, 5, 2.0, seed=3)
        hidden, _ = hide_labels(full, 0.8, seed=3)
        graph = build_graph(hidden, spec)
        explicit = ExplicitEdges(*graph.enumerate_edges(), hidden.n)
        got = solve_exact(PropagationProblem(graph, hidden.labels))
        assert np.array_equal(got, solve_exact(PropagationProblem(explicit, hidden.labels)))

    def test_memory_stays_below_one_vertex_square_array(self):
        # 400 labeled of 2000: the only dense array is the 1600 x 1600 system
        # (20 MB), factored in place, below one n x n array (32 MB)
        n = 2000
        full = synth_two_gaussians(n, 5, 2.0, seed=0)
        hidden, _ = hide_labels(full, 0.8, seed=0)
        prob = PropagationProblem(build_knn(hidden, GraphSpec("knn", 1.0, k=10)), hidden.labels)
        tracemalloc.start()
        try:
            f = solve_exact(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
        lab = prob.labels != 0
        assert np.all((f >= -1.0) & (f <= 1.0)) and np.array_equal(f[lab], prob.labels[lab])

    def test_refuses_large_systems(self):
        n = 2001
        edges = ExplicitEdges(list(range(n - 1)), list(range(1, n)), [1.0] * (n - 1), n=n)
        labels = np.zeros(n, dtype=np.int8)
        labels[0] = 1
        with pytest.raises(ValueError):
            solve_exact(PropagationProblem(edges, labels))


class TestThresholdLabels:
    def test_zero_goes_positive(self):
        assert threshold_labels(np.array([0.2, 0.0, -0.1])).tolist() == [1, 1, -1]

    def test_all_positive(self):
        assert threshold_labels(np.array([0.5, 2.0])).tolist() == [1, 1]

    def test_four_chain_labels(self):
        prob = PropagationProblem(chain(4), np.array([1, 0, 0, -1], dtype=np.int8))
        assert threshold_labels(solve_exact(prob)).tolist() == [1, 1, -1, -1]


class TestProblemValidation:
    def test_needs_a_label(self):
        with pytest.raises(ValueError):
            PropagationProblem(chain(3), np.zeros(3, dtype=np.int8))

    @pytest.mark.parametrize("bad", [1.5, -0.7, np.nan, np.inf, 255.0])
    def test_inexact_labels_are_rejected_not_truncated(self, bad):
        with pytest.raises(ValueError, match=r"labels must be -1, 0 or \+1"):
            PropagationProblem(chain(3), np.array([bad, 0.0, 1.0]))

    def test_exact_float_labels_load(self):
        labels = PropagationProblem(chain(3), np.array([1.0, 0.0, -1.0])).labels
        assert labels.dtype == np.int8 and labels.tolist() == [1, 0, -1]

    def test_labels_cover_vertices(self):
        with pytest.raises(ValueError):
            PropagationProblem(chain(4), np.array([1, 0], dtype=np.int8))


def test_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse adds ~4 MB to a process; only solve_exact needs it."""
    code = "import sys, gkm; sys.exit('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gkm.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
