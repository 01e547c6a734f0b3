import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gkm
from gkm.data import (
    Dataset,
    apply_mask,
    hide_labels,
    load_libsvm,
    load_mask,
    ndtri,
    save_libsvm,
    separation_for_bayes_accuracy,
    synth_two_gaussians,
)
from gkm.exceptions import DegenerateSplitError, InvalidLabelError, ParseError
from gkm import kernel as kernel_mod
from gkm.graph import ExplicitEdges
from gkm.kernel import KernelSpec, Points
from gkm.labelprop import PropagationProblem
from gkm.losses import LossSpec, SmoothnessSpec
from gkm.optimizer import ModelState, TrainConfig


THREE_POINTS = Points.from_dense(np.arange(3.0).reshape(3, 1))


def _model_labels(labels):
    config = TrainConfig(C=1.0, C_prime=1.0, loss=LossSpec("hinge"), smoothness=SmoothnessSpec(2.0), T=1)
    return ModelState(KernelSpec(1.0, 1.0), THREE_POINTS, np.ones(3), config, 1.0, labels).labels


LABEL_HOLDERS = {  # each builds one over three points and returns its labels
    "Dataset": lambda labels: Dataset(THREE_POINTS, labels).labels,
    "ModelState": _model_labels,
    "PropagationProblem": lambda labels: PropagationProblem(
        ExplicitEdges([0, 1], [1, 2], [1.0, 1.0], 3), labels).labels,
}


@pytest.mark.parametrize("holder", LABEL_HOLDERS)
@pytest.mark.parametrize("labels, kept", [
    (np.array([1.5, 1.0, 0.0]), None),
    (np.array([np.nan, 1.0, 0.0]), None),
    (np.array([2**40, 1, 0], dtype=np.int64), None),  # the int8 cast would keep 0
    (np.array(["1", "-1", "0"]), None),
    (np.array([[1], [-1], [0]]), None),
    (np.array([True, True, False]), [1, 1, 0]),
    (np.array([1.0, -1.0, -0.0]), [1, -1, 0]),
    (np.array([1, -1, 0], dtype=np.float32), [1, -1, 0]),
    ([1, -1, 0], [1, -1, 0]),
], ids=["1.5", "nan", "2**40", "strings", "2-d", "bool", "float", "float32", "list"])
def test_one_label_rule(holder, labels, kept):
    """Dataset, ModelState and PropagationProblem take labels by one rule
    (checked_labels): one of -1, 0, +1 per point, checked before the cast
    and kept as a read-only int8 copy."""
    build = LABEL_HOLDERS[holder]
    if kept is None:
        with pytest.raises(InvalidLabelError, match=r"labels must be -1, 0 or \+1, one per point \(3\)"):
            build(labels)
        return
    got = build(labels)
    assert got.dtype == np.int8 and got.tolist() == kept and not got.flags.writeable


class TestLoadLibsvm:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("+1 1:0.5 3:-2\n")
        ds, perm = load_libsvm(f)
        assert ds.labels.tolist() == [1]
        assert ds.points[0].indices.tolist() == [1, 3]
        assert ds.points[0].values.tolist() == [0.5, -2.0]
        assert perm.tolist() == [0]

    def test_zero_label_means_unlabeled(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2:1\n+1 1:1\n")
        ds, perm = load_libsvm(f)
        # labeled point reordered to the front
        assert ds.labels.tolist() == [1, 0]
        assert perm.tolist() == [1, 0]

    def test_label_spellings(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1\n+1 1:2\n-1 1:3\n1.0 1:4\n-1.0 1:5\n0 1:6\n")
        ds, _ = load_libsvm(f)
        assert sorted(ds.labels.tolist()) == [-1, -1, 0, 1, 1, 1]

    def test_decreasing_indices_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("+1 3:1 2:1\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(f)
        assert "line 1" in str(err.value)

    def test_bad_label_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("2 1:1\n")
        with pytest.raises(InvalidLabelError):
            load_libsvm(f)

    def test_malformed_pair_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("+1 1:1\n-1 oops\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(f)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "bad_line", ["+1 1:0.5 2:nan", "-1 1:inf", "0 2:-inf", "nan 1:1", "-inf 1:1"]
    )
    def test_non_finite_values_rejected(self, tmp_path, bad_line):
        f = tmp_path / "d.txt"
        f.write_text(f"+1 1:1\n{bad_line}\n")
        with pytest.raises(ParseError) as err:
            load_libsvm(f)
        assert err.value.line == 2
        assert "non-finite" in str(err.value)

    def test_reader_holds_the_entries_twice_at_most(self, tmp_path):
        """Lines go straight into flat 8-byte arrays in file order, which one
        gather puts labeled first: the peak is those arrays (array's growth
        slack is under 1/8), the gathered copy, the positions of one chunk of
        rows and a few per-row arrays, not a Python object per entry."""
        rng = np.random.default_rng(5)
        n = 3000
        sizes = rng.integers(10, 31, n)
        indices = np.concatenate([np.sort(rng.choice(500, k, replace=False)) + 1 for k in sizes])
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        points = Points(indptr, indices, rng.standard_normal(indices.size))
        labels = rng.choice(np.array([-1, 0, 1], dtype=np.int8), n)
        labels = labels[np.argsort(labels == 0, kind="stable")]  # 0 last
        path = tmp_path / "ragged.txt"
        save_libsvm(Dataset(points, labels), path)
        path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))  # 0 first
        load_libsvm(path)  # warm up
        tracemalloc.start()
        try:
            ds, perm = load_libsvm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert perm[0] != 0 and ds.labeled_count == np.count_nonzero(labels)
        step = kernel_mod._SCATTER_ROWS
        chunk = max(sizes[s : s + step].sum() for s in range(0, n, step))
        assert peak <= 2.125 * 16 * indices.size + 2 * 8 * chunk + 16 * 8 * n + (64 << 10)

    def test_round_trip_exact(self, tmp_path):
        ds = synth_two_gaussians(20, 3, 2.5, seed=9)
        hidden, _ = hide_labels(ds, 0.5, seed=1)
        path = tmp_path / "rt.txt"
        save_libsvm(hidden, path)
        back, _ = load_libsvm(path)
        assert back.labels.tolist() == hidden.labels.tolist()
        for p, q in zip(back.points, hidden.points):
            assert np.array_equal(p.indices, q.indices)
            assert np.array_equal(p.values, q.values)


class TestDataset:
    def test_ordering_invariant_enforced(self):
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        with pytest.raises(ValueError):
            Dataset(pts, np.array([0, 1, 1], dtype=np.int8))

    @pytest.mark.parametrize("bad", [1.5, -0.7, np.nan, np.inf, 255.0])
    def test_inexact_labels_are_rejected_not_truncated(self, bad):
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        with pytest.raises(InvalidLabelError, match="labels must be -1, 0"):
            Dataset(pts, np.array([bad, 1.0, 0.0]))

    @pytest.mark.parametrize("labels, ok", [
        (np.array([1.5, 1.0, 0.0]), False),
        (np.array([np.nan, 1.0, 0.0]), False),
        (np.array([1.0, -1.0, -0.0]), True),
        (np.array([True, True, False]), True),
        (np.array([2**40, 1, 0], dtype=np.int64), False),
        (np.array(["1", "-1", "0"]), False),
    ])
    def test_label_values_accepted_or_rejected_before_the_cast(self, labels, ok):
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        if ok:
            ds = Dataset(pts, labels)
            assert ds.labels.dtype == np.int8 and ds.labels.tolist() == labels.astype(int).tolist()
        else:
            with pytest.raises(InvalidLabelError, match="labels must be -1, 0"):
                Dataset(pts, labels)

    def test_exact_float_labels_load(self):
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        ds = Dataset(pts, np.array([1.0, -1.0, 0.0]))
        assert ds.labels.dtype == np.int8 and ds.labels.tolist() == [1, -1, 0]

    def test_labels_are_a_read_only_copy(self):
        """Writing the caller's array afterwards changes nothing: no unlabeled
        point joins the leading labeled block."""
        pts = Points.from_rows([(1, float(i))] for i in range(4))
        lab = np.array([1, -1, 0, 0], dtype=np.int8)
        ds = Dataset(pts, lab)
        lab[1], lab[3] = 0, 1
        assert ds.labels.tolist() == [1, -1, 0, 0] and ds.labeled_count == 2
        with pytest.raises(ValueError):
            ds.labels[0] = 0

    def test_counts(self):
        pts = Points.from_rows([(1, float(i))] for i in range(4))
        ds = Dataset(pts, np.array([1, -1, 0, 0], dtype=np.int8))
        assert (ds.n, ds.labeled_count, ds.unlabeled_count) == (4, 2, 2)

    def test_dense_view(self):
        pts = Points.from_rows([[(2, 3.0)], [(1, 1.0)]])
        ds = Dataset(pts, np.array([1, -1], dtype=np.int8))
        X, sq = ds.dense()
        assert X.shape == (2, 2)
        assert X[0].tolist() == [0.0, 3.0]
        assert sq.tolist() == [9.0, 1.0]

    def test_dense_view_has_a_column_per_index_that_occurs(self):
        pts = Points.from_rows([[(2, 3.0), (10**15, 1.0)], [(1, 1.0)], []])
        X, sq = Dataset(pts, np.array([1, -1, 0], dtype=np.int8)).dense()
        assert X.tolist() == [[0.0, 3.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert sq.tolist() == [10.0, 1.0, 0.0]


class TestHideLabels:
    def base(self, n=10, seed=0):
        return synth_two_gaussians(n, 2, 3.0, seed=seed)

    def test_fraction_zero_is_identity(self):
        ds = self.base()
        hidden, truth = hide_labels(ds, 0.0, seed=4)
        assert hidden.unlabeled_count == 0
        assert np.array_equal(hidden.labels, truth.labels)

    def test_exact_count(self):
        hidden, _ = hide_labels(self.base(), 0.8, seed=4)
        assert hidden.unlabeled_count == 8

    def test_deterministic(self):
        a, _ = hide_labels(self.base(), 0.5, seed=11)
        b, _ = hide_labels(self.base(), 0.5, seed=11)
        assert np.array_equal(a.labels, b.labels)
        for p, q in zip(a.points, b.points):
            assert np.array_equal(p.values, q.values)

    def test_truth_aligned_with_hidden(self):
        hidden, truth = hide_labels(self.base(), 0.6, seed=4)
        for i in range(hidden.n):
            assert np.array_equal(hidden.points[i].values, truth.points[i].values)
            if hidden.labels[i] != 0:
                assert hidden.labels[i] == truth.labels[i]

    def test_points_preserved_as_multiset(self):
        ds = self.base()
        hidden, _ = hide_labels(ds, 0.7, seed=3)
        orig = sorted(tuple(p.values) for p in ds.points)
        new = sorted(tuple(p.values) for p in hidden.points)
        assert orig == new

    def test_degenerate_split_raises(self):
        pts = Points.from_rows([(1, float(i))] for i in range(4))
        ds = Dataset(pts, np.array([1, 1, 1, -1], dtype=np.int8))
        with pytest.raises(DegenerateSplitError):
            apply_mask(ds, [3])  # hides the only -1 point

    @pytest.mark.parametrize("index", [10, -1])
    def test_mask_index_outside_dataset_rejected(self, index):
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            apply_mask(self.base(), [0, index])

    def test_mask_file_round_trip(self, tmp_path):
        ds = self.base()
        path = tmp_path / "mask.txt"
        path.write_text("2\n5\n7\n")
        assert load_mask(path).tolist() == [2, 5, 7]
        path.write_text("# hidden points\n2\n\n5  # second\n7\n")
        assert load_mask(path).tolist() == [2, 5, 7]
        hidden, truth = apply_mask(ds, [2, 5, 7])
        assert hidden.unlabeled_count == 3


class TestSynth:
    def test_balanced_classes(self):
        ds = synth_two_gaussians(10, 3, 2.0, seed=0)
        assert int(np.sum(ds.labels == 1)) == 5
        assert int(np.sum(ds.labels == -1)) == 5

    def test_deterministic_per_seed(self):
        a = synth_two_gaussians(12, 2, 1.0, seed=5)
        b = synth_two_gaussians(12, 2, 1.0, seed=5)
        for p, q in zip(a.points, b.points):
            assert np.array_equal(p.values, q.values)

    def test_mean_separation_along_first_axis(self):
        ds = synth_two_gaussians(4000, 2, 3.0, seed=1)
        X, _ = ds.dense()
        pos = X[ds.labels == 1, 0].mean()
        neg = X[ds.labels == -1, 0].mean()
        assert pos - neg == pytest.approx(3.0, abs=0.15)

    @pytest.mark.parametrize("field, least", [("n", 2), ("dim", 1)])
    def test_counts_are_checked_integers(self, field, least):
        def synth(value):
            counts = {"n": 10, "dim": 2, field: value}
            return synth_two_gaussians(counts["n"], counts["dim"], 2.0, seed=0)

        for bad in (2.5, True, np.float64(3), None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                synth(bad)
        with pytest.raises(ValueError, match=f"{field} must be >= {least}"):
            synth(least - 1)
        assert synth(np.int32(3)).dense()[0].shape == ((3, 2) if field == "n" else (10, 3))

    @pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            synth_two_gaussians(10, 2, separation, seed=0)

    def test_bayes_separation_value(self):
        # one-dimensional risk of 5 percent inverts to 2 * 1.6449
        assert separation_for_bayes_accuracy(0.95) == pytest.approx(3.2897, abs=1e-4)

    @pytest.mark.parametrize("accuracy", [0.95, 0.9])
    def test_bayes_separation_matches_norm_ppf_exactly(self, accuracy):
        from scipy.stats import norm

        assert separation_for_bayes_accuracy(accuracy) == 2.0 * float(norm.ppf(accuracy))

    def test_ndtri_matches_scipy_bit_for_bit(self):
        """The Cephes port against scipy.special.ndtri on 212 007 draws: the
        central rational function, the tails in their P1 (z < 8) and P2
        (z >= 8) branches, the last floats below 1, the lower half, and the
        ends; nan outside [0, 1]."""
        from scipy.special import ndtri as scipy_ndtri

        rng = np.random.default_rng(11)
        y = np.concatenate([
            rng.uniform(0.5, 1.0, 100_000),
            1.0 - np.exp(-rng.uniform(2.0, 32.0, 50_000)),
            1.0 - np.exp(-rng.uniform(32.0, 36.7, 50_000)),
            np.nextafter(1.0, 0.0) - np.arange(2_000) * 2.0**-53,
            rng.uniform(0.0, 0.5, 5_000),
            np.exp(-rng.uniform(2.0, 740.0, 5_000)),
            [0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - math.exp(-2.0), math.exp(-2.0)],
        ])
        got = np.frompyfunc(ndtri, 1, 1)(y).astype(np.float64)
        assert np.array_equal(got.view(np.uint64), scipy_ndtri(y).view(np.uint64))
        assert all(math.isnan(ndtri(bad)) for bad in (-0.5, 1.5, math.nan))

    def test_bayes_rate_empirically(self):
        sep = separation_for_bayes_accuracy(0.95)
        ds = synth_two_gaussians(20000, 1, sep, seed=3)
        X, _ = ds.dense()
        preds = np.where(X[:, 0] >= 0, 1, -1)
        acc = float(np.mean(preds == ds.labels))
        assert acc == pytest.approx(0.95, abs=0.01)


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of a second and ~40 MB on import; the CLI
    needs nothing from it."""
    code = "import sys, gkm.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gkm.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_leaves_scipy_special_and_linalg_unloaded(tmp_path):
    """Importing scipy.special or scipy.linalg made a cold `import gkm.cli`
    about three times slower, and scipy.special keeps ~18 MB resident:
    importing gkm, the Bayes separation, `gkm synth --bayes-accuracy` and
    the logistic prox and conjugate load neither; only labelprop.solve_exact
    imports scipy."""
    code = textwrap.dedent(f"""
        import sys, gkm.cli
        from gkm.data import separation_for_bayes_accuracy
        from gkm.losses import LossSpec, loss_conjugate, loss_prox_slope
        separation_for_bayes_accuracy(0.95)
        argv = ["synth", "--n", "20", "--dim", "2", "--bayes-accuracy", "0.95"]
        assert gkm.cli.main([*argv, "--out", {str(tmp_path / "s.txt")!r}]) == 0
        spec = LossSpec("logistic")
        loss_prox_slope(spec, 0.3, 1.0, 0.5)
        loss_conjugate(spec, [-0.5, 0.0, -1.0], [1.0, 1.0, 1.0])
        sys.exit('scipy.special' in sys.modules or 'scipy.linalg' in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(gkm.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert (tmp_path / "s.txt").read_text().count("\n") == 20
