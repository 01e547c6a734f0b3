import os
import subprocess
import sys
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
    save_libsvm,
    save_mask,
    separation_for_bayes_accuracy,
    synth_two_gaussians,
)
from gkm.exceptions import DegenerateSplitError, InvalidLabelError, ParseError
from gkm.kernel import SparseVector


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
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(3))
        with pytest.raises(ValueError):
            Dataset(pts, np.array([0, 1, 1], dtype=np.int8))

    def test_counts(self):
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(4))
        ds = Dataset(pts, np.array([1, -1, 0, 0], dtype=np.int8))
        assert (ds.n, ds.labeled_count, ds.unlabeled_count) == (4, 2, 2)

    def test_dense_view(self):
        pts = (SparseVector.from_pairs([(2, 3.0)]), SparseVector.from_pairs([(1, 1.0)]))
        ds = Dataset(pts, np.array([1, -1], dtype=np.int8))
        X, sq = ds.dense()
        assert X.shape == (2, 2)
        assert X[0].tolist() == [0.0, 3.0]
        assert sq.tolist() == [9.0, 1.0]

    def test_dense_view_has_a_column_per_index_that_occurs(self):
        pts = (
            SparseVector.from_pairs([(2, 3.0), (10**15, 1.0)]),
            SparseVector.from_pairs([(1, 1.0)]),
            SparseVector.from_pairs([]),
        )
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
        pts = tuple(SparseVector.from_pairs([(1, float(i))]) for i in range(4))
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
        save_mask([2, 5, 7], path)
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

    def test_bayes_separation_value(self):
        # one-dimensional risk of 5 percent inverts to 2 * 1.6449
        assert separation_for_bayes_accuracy(0.95) == pytest.approx(3.2897, abs=1e-4)

    @pytest.mark.parametrize("accuracy", [0.95, 0.9])
    def test_bayes_separation_matches_norm_ppf_exactly(self, accuracy):
        from scipy.stats import norm

        assert separation_for_bayes_accuracy(accuracy) == 2.0 * float(norm.ppf(accuracy))

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
