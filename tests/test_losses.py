import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm.exceptions import InvalidLabelError
from gkm.losses import (
    LOSS_KINDS,
    LossSpec,
    SmoothnessSpec,
    gradient_bound_A,
    loss_grad_scalar,
    loss_value,
    lp_grad_scalar,
    lp_value,
)
from gkm.optimizer import _fast_loss_grad, _fast_lp_grad

ALL_SPECS = [
    LossSpec("hinge"),
    LossSpec("smooth-hinge", tau=0.5),
    LossSpec("logistic"),
    LossSpec("l1"),
    LossSpec("eps-insensitive", epsilon=0.1),
]


def kink_positions(spec, y):
    """o-locations where the loss is not differentiable (or barely C^1)."""
    if spec.kind == "hinge":
        return [1.0 / y]
    if spec.kind == "smooth-hinge":
        return [1.0 / y, (1.0 - spec.tau) / y]
    if spec.kind == "l1":
        return [y]
    if spec.kind == "eps-insensitive":
        return [y - spec.epsilon, y + spec.epsilon]
    return []


class TestLossValues:
    def test_hinge_at_origin(self):
        assert loss_value(LossSpec("hinge"), 0.0, 1) == 1.0

    def test_logistic_at_origin(self):
        assert loss_value(LossSpec("logistic"), 0.0, 1) == pytest.approx(math.log(2.0))

    def test_smooth_hinge_middle_branch(self):
        got = loss_value(LossSpec("smooth-hinge", tau=0.5), 0.75, 1)
        assert got == pytest.approx(0.0625)

    def test_eps_insensitive_inside_tube(self):
        assert loss_value(LossSpec("eps-insensitive", epsilon=0.1), 1.95, 2.0) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        o = rng.uniform(-5, 5, 500)
        for spec in ALL_SPECS:
            for y in (-1.0, 1.0):
                assert np.all(loss_value(spec, o, np.full(500, y)) >= 0.0)

    def test_classification_labels_validated(self):
        for kind in ("hinge", "smooth-hinge", "logistic"):
            with pytest.raises(InvalidLabelError):
                loss_value(LossSpec(kind), 0.0, 0.5)
        # regression losses accept arbitrary real targets
        assert loss_value(LossSpec("l1"), 0.0, 0.5) == 0.5


class TestGradScalars:
    def test_hinge_cases(self):
        spec = LossSpec("hinge")
        assert loss_grad_scalar(spec, 0.0, 1) == -1.0
        assert loss_grad_scalar(spec, 2.0, 1) == 0.0

    def test_logistic_at_origin(self):
        assert loss_grad_scalar(LossSpec("logistic"), 0.0, 1) == pytest.approx(-0.5)

    def test_l1_zero_subgradient_at_kink(self):
        assert loss_grad_scalar(LossSpec("l1"), 0.0, 0.0) == 0.0

    def test_magnitude_at_most_one(self):
        rng = np.random.default_rng(1)
        o = rng.uniform(-10, 10, 2000)
        for spec in ALL_SPECS:
            ys = rng.choice([-1.0, 1.0], 2000)
            if not spec.is_classification:
                ys = rng.uniform(-3, 3, 2000)
            s = loss_grad_scalar(spec, o, ys)
            assert np.max(np.abs(s)) <= 1.0 + 1e-15

    def test_smooth_hinge_branch_continuity(self):
        # value and gradient agree across both branch boundaries
        spec = LossSpec("smooth-hinge", tau=0.3)
        for y in (-1.0, 1.0):
            for yo in (1.0, 1.0 - spec.tau):
                o = yo / y
                lo = loss_value(spec, o - 1e-13 * y, y)
                hi = loss_value(spec, o + 1e-13 * y, y)
                assert abs(lo - hi) < 1e-12


class TestFiniteDifferences:
    H = 1e-6

    def fd(self, fn, o):
        return (fn(o + self.H) - fn(o - self.H)) / (2 * self.H)

    def test_loss_gradients_match_fd(self):
        rng = np.random.default_rng(42)
        for spec in ALL_SPECS:
            checked = 0
            while checked < 1000:
                o = float(rng.uniform(-4, 4))
                y = float(rng.choice([-1.0, 1.0])) if spec.is_classification else float(rng.uniform(-2, 2))
                if any(abs(o - k) < 1e-3 for k in kink_positions(spec, y)):
                    continue
                fd = self.fd(lambda t: loss_value(spec, t, y), o)
                an = loss_grad_scalar(spec, o, y)
                assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd), 1e-8), (spec, o, y)
                checked += 1

    def test_lp_gradients_match_fd(self):
        rng = np.random.default_rng(43)
        for p in (1.5, 2.0, 2.5, 3.0):
            spec = SmoothnessSpec(p)
            checked = 0
            while checked < 1000:
                t = float(rng.uniform(-3, 3))
                if abs(t) <= 1e-3:
                    continue
                fd = self.fd(lambda s: lp_value(spec, s), t)
                an = lp_grad_scalar(spec, t)
                assert abs(fd - an) <= 1e-5 * max(abs(an), abs(fd)), (p, t)
                checked += 1


class TestConvexity:
    def test_loss_convex_in_o(self):
        rng = np.random.default_rng(7)
        for spec in ALL_SPECS:
            a = rng.uniform(-5, 5, 10_000)
            b = rng.uniform(-5, 5, 10_000)
            lam = rng.uniform(0, 1, 10_000)
            y = rng.choice([-1.0, 1.0], 10_000)
            mid = loss_value(spec, lam * a + (1 - lam) * b, y)
            chord = lam * loss_value(spec, a, y) + (1 - lam) * loss_value(spec, b, y)
            assert np.all(mid <= chord + 1e-10)


class TestLpFamily:
    def test_values(self):
        assert lp_value(SmoothnessSpec(2.0), -3.0) == 9.0
        assert lp_value(SmoothnessSpec(1.0), 0.0) == 0.0
        assert lp_value(SmoothnessSpec(3.0), 0.5) == pytest.approx(0.125)

    def test_grad_values(self):
        assert lp_grad_scalar(SmoothnessSpec(2.0), -3.0) == -6.0
        assert lp_grad_scalar(SmoothnessSpec(1.0), 0.0) == 0.0
        assert lp_grad_scalar(SmoothnessSpec(3.0), 2.0) == 12.0

    @given(t=st.floats(-50, 50), p=st.floats(1.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_grad_is_odd(self, t, p):
        spec = SmoothnessSpec(p)
        assert lp_grad_scalar(spec, -t) == -lp_grad_scalar(spec, t)

    def test_zero_grad_at_origin_all_p(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_grad_scalar(SmoothnessSpec(p), 0.0) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            SmoothnessSpec(0.5)


class TestGradientBound:
    def test_equals_R_for_all_kinds(self):
        for kind in LOSS_KINDS:
            assert gradient_bound_A(LossSpec(kind), 1.0) == 1.0
            assert gradient_bound_A(LossSpec(kind), 2.0) == 2.0
        assert gradient_bound_A(LossSpec("eps-insensitive"), 0.5) == 0.5

    def test_rejects_nonpositive_R(self):
        with pytest.raises(ValueError):
            gradient_bound_A(LossSpec("hinge"), 0.0)


@st.composite
def loss_grad_case(draw):
    """(spec, o, y) with o often exactly at a kink: y*o = 1, y*o = 1 - tau,
    |y - o| = epsilon, o = y, or o = 0."""
    spec = draw(st.sampled_from(ALL_SPECS + [LossSpec("smooth-hinge", tau=1.0),
                                            LossSpec("eps-insensitive", epsilon=0.0)]))
    labels = st.sampled_from([-1.0, 1.0])
    if not spec.is_classification:
        labels = labels | st.floats(-3.0, 3.0)
    y = draw(labels)
    kinks = kink_positions(spec, y) + [0.0, y]
    o = draw(st.sampled_from(kinks) | st.floats(-1e3, 1e3))
    return spec, o, y


class TestFastGradientCopies:
    """The trainer's scalar closures agree with the vectorized reference."""

    @given(case=loss_grad_case())
    @settings(max_examples=600, deadline=None)
    def test_loss_grad_matches_reference(self, case):
        spec, o, y = case
        fast = _fast_loss_grad(spec)(o, y)
        ref = loss_grad_scalar(spec, o, y)
        if spec.kind == "logistic":  # exp/(1+exp) against scipy's expit
            assert fast == pytest.approx(ref, rel=1e-12, abs=1e-300)
        else:
            assert fast == ref

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        t=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3),
    )
    @settings(max_examples=400, deadline=None)
    def test_lp_grad_matches_reference(self, p, t):
        assert _fast_lp_grad(p)(t) == lp_grad_scalar(SmoothnessSpec(p), t)
