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
    expit,
    loss_conjugate,
    loss_grad_scalar,
    loss_prox_slope,
    loss_slope,
    loss_value,
    lp_conjugate,
    lp_grad_scalar,
    lp_prox_slope,
    lp_slope,
    lp_value,
    xlogx,
)
from gkm.losses import _increasing_root

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

    @pytest.mark.parametrize("field", [{"tau": math.nan}, {"epsilon": math.nan}, {"epsilon": -0.1}])
    def test_shape_parameters_validated(self, field):
        with pytest.raises(ValueError):
            LossSpec("eps-insensitive", **field)

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

    def test_grad_is_infinite_where_the_power_overflows(self):
        """|t|^(p-1) past the float range gives +-inf, not an OverflowError;
        the overflow sets the FP flag that np.frompyfunc reports."""
        spec = SmoothnessSpec(3.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            grad = lp_grad_scalar(spec, [1e200, -1e200])
        assert grad.tolist() == [math.inf, -math.inf]
        assert lp_slope(spec)(1e200) == math.inf and lp_slope(spec)(-1e200) == -math.inf

    def test_zero_grad_at_origin_all_p(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert lp_grad_scalar(SmoothnessSpec(p), 0.0) == 0.0

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            SmoothnessSpec(0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # at p = inf the reference solver's duality gap never closes
        with pytest.raises(ValueError, match="p must be finite"):
            SmoothnessSpec(p)


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


def lp_slope_formula(p, t):
    """p * sign(t) * |t|^(p - 1), written out as the reference for lp_slope."""
    return float(p * np.sign(t) * np.abs(np.float64(t)) ** (p - 1.0))


class TestSlopes:
    """The slopes the trainer takes, through the public array wrappers."""

    @given(case=loss_grad_case())
    @settings(max_examples=600, deadline=None)
    def test_loss_slope_lies_between_difference_quotients(self, case):
        # convexity: (f(o) - f(o - h)) / h <= s <= (f(o + h) - f(o)) / h for
        # every subgradient s at o, kinks included
        spec, o, y = case
        s = loss_slope(spec)(o, y)
        assert loss_grad_scalar(spec, o, y) == s
        h = 1e-6 * max(1.0, abs(o))
        lo, hi = o - h, o + h
        f = loss_value(spec, np.array([lo, o, hi]), np.full(3, y))
        below = (f[1] - f[0]) / (o - lo)
        above = (f[2] - f[1]) / (hi - o)
        assert below - 1e-8 <= s <= above + 1e-8, (spec, o, y, below, s, above)

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        t=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3),
    )
    @settings(max_examples=400, deadline=None)
    def test_lp_slope_matches_formula(self, p, t):
        spec = SmoothnessSpec(p)
        assert lp_slope(spec)(t) == lp_slope_formula(p, t)
        assert lp_grad_scalar(spec, t) == lp_slope_formula(p, t)


class TestProxAndConjugate:
    """A prox slope s is a subgradient at its prox point u = v - gamma * s, so
    Fenchel-Young holds there with equality; each conjugate is the sup that
    defines it."""

    @given(case=loss_grad_case(), gamma=st.floats(1e-3, 1e3))
    @settings(max_examples=400, deadline=None)
    def test_loss_prox_slope_meets_fenchel_young(self, case, gamma):
        spec, v, y = case
        s = loss_prox_slope(spec, v, y, gamma)
        u = v - gamma * s
        gap = loss_value(spec, u, y) + loss_conjugate(spec, s, y) - s * u
        assert abs(gap) <= 1e-12 * max(1.0, abs(v))

    @given(
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 4.0),
        v=st.sampled_from([0.0, 1.0]) | st.floats(-1e3, 1e3),
        gamma=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=400, deadline=None)
    def test_lp_prox_slope_meets_fenchel_young(self, p, v, gamma):
        spec = SmoothnessSpec(p)
        s = lp_prox_slope(spec, v, gamma)
        u = v - gamma * s
        gap = lp_value(spec, u) + lp_conjugate(spec, s) - s * u
        assert abs(gap) <= 1e-9 * max(1.0, abs(v))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
    def test_loss_conjugate_is_the_sup(self, spec):
        o = np.linspace(-30.0, 30.0, 600_001)
        y = 1.0 if spec.is_classification else 0.7
        slopes = [-0.9, -0.5, -0.1] if spec.is_classification else [-0.9, -0.3, 0.5]
        for s in slopes:
            sup = float(np.max(s * o - loss_value(spec, o, np.full_like(o, y))))
            assert loss_conjugate(spec, s, y) == pytest.approx(sup, abs=1e-8)
        outside = 0.5 if spec.is_classification else 1.5
        assert loss_conjugate(spec, outside, y) == math.inf

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_lp_conjugate_is_the_sup(self, p):
        spec = SmoothnessSpec(p)
        t = np.linspace(-30.0, 30.0, 600_001)
        for s in (-0.9, 0.5, 2.0 if p > 1.0 else 1.0):
            sup = float(np.max(s * t - lp_value(spec, t)))
            assert lp_conjugate(spec, s) == pytest.approx(sup, abs=1e-8)
        if p == 1.0:
            assert lp_conjugate(spec, 1.5) == math.inf


def same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got, dtype=np.float64).view(np.uint64),
                          np.asarray(want, dtype=np.float64).view(np.uint64))


class TestScipyReplacements:
    """expit and xlogx compute scipy.special's expit and xlogy(a, a) in gkm,
    bit for bit, so the logistic prox and conjugate load no scipy."""

    def test_expit_matches_scipy(self):
        from scipy.special import expit as scipy_expit

        rng = np.random.default_rng(12)
        x = np.concatenate([
            rng.uniform(-800.0, 800.0, 100_000),  # exp(-x) overflows below -709.78
            rng.uniform(-40.0, 40.0, 100_000),
            [0.0, -0.0, -709.78, -709.79, -745.2, -1e308, 1e308, -math.inf, math.inf],
        ])
        assert same_bits([expit(v) for v in x.tolist()], scipy_expit(x))

    def test_xlogx_matches_scipy_xlogy(self):
        from scipy.special import xlogy

        rng = np.random.default_rng(13)
        a = np.concatenate([
            rng.uniform(0.0, 1.0, 100_000),
            np.exp(-rng.uniform(0.0, 745.0, 50_000)),  # subnormals included
            [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308],
        ])
        assert same_bits(np.frompyfunc(xlogx, 1, 1)(a), xlogy(a, a))

    def test_logistic_conjugate_and_prox_match_the_scipy_formulas(self):
        from scipy.special import expit as scipy_expit
        from scipy.special import xlogy

        spec, rng = LossSpec("logistic"), np.random.default_rng(14)
        y = rng.choice([-1.0, 1.0], 20_000)
        s = np.concatenate([-y[:19_990] * rng.uniform(0.0, 1.0, 19_990),
                            [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1e-300, -1e-300]])
        r = np.clip(y * s, -1.0, 0.0)
        want = np.where((y * s >= -1.0) & (y * s <= 0.0),
                        xlogy(-r, -r) + xlogy(1.0 + r, 1.0 + r), np.inf)
        assert same_bits(loss_conjugate(spec, s, y), want)
        for v, yv, gamma in zip(rng.uniform(-800.0, 800.0, 300), y, rng.uniform(1e-3, 1e3, 300)):
            m = _increasing_root(lambda m: m - yv * v - gamma * scipy_expit(-m),
                                 lambda m: 1.0 + gamma * scipy_expit(m) * scipy_expit(-m),
                                 yv * v, yv * v + gamma)
            assert same_bits(loss_prox_slope(spec, v, yv, gamma), -yv * float(scipy_expit(-m)))
