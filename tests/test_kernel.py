import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm.kernel import (
    SLAB_BYTES,
    KernelSpec,
    SparseVector,
    block_decisions,
    decision_value,
    eval_kernel,
    feature_norm,
    gram_sq_dists,
    kernel_matrix_from_sq_dists,
    sq_dist_block,
    squared_distance,
)


def sv(*pairs):
    return SparseVector.from_pairs(pairs)


class TestSparseVector:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            sv((3, 1.0), (2, 1.0))
        with pytest.raises(ValueError):
            sv((1, 1.0), (1, 2.0))

    def test_indices_start_at_one(self):
        with pytest.raises(ValueError):
            sv((0, 1.0))

    def test_dense_round_trip(self):
        v = sv((1, 0.5), (3, -2.0))
        assert np.array_equal(v.to_dense(4), [0.5, 0.0, -2.0, 0.0])
        w = SparseVector.from_dense([0.5, 0.0, -2.0])
        assert squared_distance(v, w) == 0.0


class TestSquaredDistance:
    def test_zero_iff_equal(self):
        v = sv((1, 1.0), (2, 2.0))
        w = sv((1, 1.0), (2, 2.0))
        assert squared_distance(v, w) == 0.0

    def test_disjoint_support(self):
        v = sv((1, 3.0))
        w = sv((2, 4.0))
        assert squared_distance(v, w) == pytest.approx(25.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            iv = np.sort(rng.choice(20, size=5, replace=False)) + 1
            iw = np.sort(rng.choice(20, size=7, replace=False)) + 1
            v = SparseVector(iv, rng.normal(size=5))
            w = SparseVector(iw, rng.normal(size=7))
            assert squared_distance(v, w) == squared_distance(w, v)


class TestEvalKernel:
    def test_identity_cases(self):
        x = sv((1, 0.3), (4, -1.0))
        assert eval_kernel(KernelSpec(1.0, 1.0), x, x) == pytest.approx(1.0)
        assert eval_kernel(KernelSpec(2.0, 1.0), x, x) == pytest.approx(4.0)

    def test_unit_distance_value(self):
        # ||x - y||^2 = 2 at sigma_l = 1 gives exp(-1)
        x = sv((1, 1.0))
        y = sv((2, 1.0))
        k = eval_kernel(KernelSpec(1.0, 1.0), x, y)
        assert k == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_bounded_and_positive(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec(1.7, 0.8)
        for _ in range(200):
            x = SparseVector.from_dense(rng.normal(size=4))
            y = SparseVector.from_dense(rng.normal(size=4))
            k = eval_kernel(spec, x, y)
            assert 0.0 < k <= spec.sigma_f**2 + 1e-15
            assert eval_kernel(spec, y, x) == k

    def test_feature_map_distance_nonnegative(self):
        # ||Phi(x) - Phi(y)||^2 = K(x,x) + K(y,y) - 2K(x,y) >= 0, and <= (2R)^2
        rng = np.random.default_rng(2)
        spec = KernelSpec(1.3, 1.1)
        for _ in range(200):
            x = SparseVector.from_dense(rng.normal(size=3))
            y = SparseVector.from_dense(rng.normal(size=3))
            d2 = 2.0 * spec.sigma_f**2 - 2.0 * eval_kernel(spec, x, y)
            assert -1e-12 <= d2 <= (2.0 * spec.sigma_f) ** 2

    @given(
        sf=st.floats(0.1, 5.0),
        sl=st.floats(0.1, 5.0),
        xv=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_self_kernel_is_sigma_f_squared(self, sf, sl, xv):
        spec = KernelSpec(sf, sl)
        x = SparseVector.from_dense(xv)
        assert eval_kernel(spec, x, x) == pytest.approx(sf**2, rel=1e-12)


class TestFeatureNorm:
    def test_constant_in_x(self):
        spec = KernelSpec(3.0, 0.5)
        a = sv((1, 1.0))
        b = sv((2, -5.0), (7, 2.0))
        assert feature_norm(spec, a) == feature_norm(spec, b) == 3.0

    def test_values(self):
        x = sv((1, 1.0))
        assert feature_norm(KernelSpec(1.0, 1.0), x) == 1.0
        assert feature_norm(KernelSpec(0.5, 2.0), x) == 0.5


class TestDecisionValue:
    def test_empty_sum(self):
        assert decision_value(KernelSpec(1.0, 1.0), [], sv((1, 1.0))) == 0.0

    def test_single_self_term(self):
        x = sv((1, 1.0))
        assert decision_value(KernelSpec(1.0, 1.0), [(x, 1.0)], x) == pytest.approx(1.0)

    def test_two_term_hand_value(self):
        a = sv((1, 1.0))
        b = sv((2, 1.0))
        got = decision_value(KernelSpec(1.0, 1.0), [(a, 1.0), (b, -1.0)], a)
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(1.0, -1.0)

    def test_gamma_constructor(self):
        spec = KernelSpec.from_gamma(0.5)
        assert spec.sigma_f == 1.0
        assert spec.sigma_l == pytest.approx(1.0)
        x, y = sv((1, 1.0)), sv((1, 3.0))
        assert eval_kernel(spec, x, y) == pytest.approx(math.exp(-0.5 * 4.0), rel=1e-12)


class TestBlockPrimitives:
    """sq_dist_block / block_decisions against the literal one-shot formula."""

    SPEC = KernelSpec(sigma_f=1.3, sigma_l=0.9, offset=0.2)

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

    def test_gram_equals_old_formula(self):
        rng = np.random.default_rng(1)
        X, sq = self.rows(rng, 64)
        old = self.old_block(X, sq, X, sq)
        np.fill_diagonal(old, 0.0)
        got = gram_sq_dists(X, sq)
        assert np.array_equal(got, old)
        assert np.array_equal(got, got.T)

    def test_one_slab_decisions_equal_one_shot_block(self):
        rng = np.random.default_rng(2)
        XS, sqS = self.rows(rng, 40)
        XT, sqT = self.rows(rng, 90)
        c = rng.standard_normal(40)
        one_shot = c @ kernel_matrix_from_sq_dists(self.SPEC, self.old_block(XS, sqS, XT, sqT))
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
