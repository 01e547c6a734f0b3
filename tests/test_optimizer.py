import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm import graph as graph_mod
from gkm import kernel as kernel_mod
from gkm import cli as cli_mod
from gkm import optimizer as optimizer_mod
from gkm.bounds import compute_bounds
from gkm.data import Dataset, hide_labels, load_libsvm, synth_two_gaussians
from gkm.exceptions import (
    EdgeEnumerationTooLargeError,
    EmptyEdgeSetError,
    NoLabeledDataError,
    NonFiniteStateError,
)
from gkm.graph import ExplicitEdges, GraphSpec, build_fully_connected, build_knn
from gkm.harness import evaluate, solve_reference_optimum
from gkm.kernel import KernelSpec, Points, dense_rows, gram, kernel_matrix_from_sq_dists
from gkm.labelprop import PropagationProblem, solve_exact, threshold_labels
from gkm.losses import LossSpec, SmoothnessSpec, loss_slope, loss_value, lp_slope, lp_value
from gkm.optimizer import (
    Diagnostics,
    ModelState,
    TrainConfig,
    decision_values,
    default_iterations,
    hilbert_norm,
    load_model,
    objective,
    predict_batch,
    save_model,
    train,
)
from test_kernel import POINT_ROWS

KERNEL = KernelSpec(1.0, 1.0)


def count_halves(monkeypatch):
    """Count the value streams train() starts, one per sampling chunk, by half."""
    calls = {"_gram_values": 0, "_block_values": 0}
    for name, stream in [(name, getattr(optimizer_mod, name)) for name in calls]:

        def counted(*args, name=name, stream=stream):
            calls[name] += 1
            return stream(*args)

        monkeypatch.setattr(optimizer_mod, name, counted)
    return calls


def hinge_cfg(T, seed=0, C=1.0, C_prime=0.05, p=2.0, **kw):
    return TrainConfig(
        C=C,
        C_prime=C_prime,
        loss=LossSpec("hinge"),
        smoothness=SmoothnessSpec(p),
        T=T,
        seed=seed,
        **kw,
    )


@pytest.fixture(scope="module")
def small_problem():
    full = synth_two_gaussians(12, 2, 4.0, seed=3)
    hidden, truth = hide_labels(full, 0.5, seed=3)
    graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
    return hidden, truth, graph


class TestTrainBasics:
    def test_first_step_closed_form(self, small_problem):
        hidden, _, graph = small_problem
        model, diag = train(hidden, graph, hinge_cfg(T=1), KERNEL, record_iterates=True)
        # at t = 1 the smoothness gradient vanishes (w_1 = 0 so o_edge = 0);
        # only the sampled labeled point moves: coefficient = -C * (-y) = y
        w2 = diag.iterates[-1]
        nz = np.flatnonzero(w2)
        assert nz.size == 1
        i = nz[0]
        assert i < hidden.labeled_count
        assert w2[i] == pytest.approx(float(hidden.labels[i]))
        # averaged iterate equals w_2 after one step
        assert np.allclose(model.beta, w2, rtol=0, atol=0)

    def test_zero_gradients_keep_zero_vector(self):
        # labeled targets already far outside the eps tube, C' edge term uses
        # p >= 2 so its gradient vanishes at w = 0 too: w stays 0 forever
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        ds = Dataset(pts, np.array([1, -1, 0], dtype=np.int8))
        graph = build_fully_connected(ds, GraphSpec("full", 1.0))
        cfg = TrainConfig(
            C=1.0,
            C_prime=0.05,
            loss=LossSpec("eps-insensitive", epsilon=5.0),
            smoothness=SmoothnessSpec(2.0),
            T=200,
            seed=0,
        )
        model, _ = train(ds, graph, cfg, KERNEL)
        assert np.all(model.beta == 0.0)
        assert hilbert_norm(model) == 0.0

    def test_rejects_unlabeled_only(self):
        pts = Points.from_rows([(1, float(i))] for i in range(3))
        ds = Dataset(pts, np.zeros(3, dtype=np.int8))
        graph = build_fully_connected(ds, GraphSpec("full", 1.0))
        with pytest.raises(NoLabeledDataError):
            train(ds, graph, hinge_cfg(T=5), KERNEL)

    def test_rejects_empty_edges(self, small_problem):
        hidden, _, _ = small_problem
        empty = ExplicitEdges([], [], [], n=hidden.n)
        with pytest.raises(EmptyEdgeSetError):
            train(hidden, empty, hinge_cfg(T=5), KERNEL)

    def test_graph_must_belong_to_dataset(self):
        """A graph built on another dataset is rejected naming both sizes, and
        an edge list rejects an endpoint outside its n vertices."""
        small, _ = hide_labels(synth_two_gaussians(30, 2, 4.0, seed=0), 0.5, seed=0)
        large, _ = hide_labels(synth_two_gaussians(60, 2, 4.0, seed=0), 0.5, seed=0)
        cfg = hinge_cfg(T=5)
        mismatched = [
            (large, build_fully_connected(small, GraphSpec("full", 1.0))),
            (small, build_fully_connected(large, GraphSpec("full", 1.0))),
            (small, build_knn(large, GraphSpec("knn", 1.0, k=3))),
        ]
        for ds, graph in mismatched:
            sizes = f"graph has {graph.n} vertices but the dataset has {ds.n} points"
            with pytest.raises(ValueError, match=sizes):
                train(ds, graph, cfg, KERNEL)
            with pytest.raises(ValueError, match=sizes):
                objective(np.zeros(ds.n), ds, graph, cfg, KERNEL)
            with pytest.raises(ValueError, match=sizes):
                solve_reference_optimum(ds, graph, cfg, KERNEL)
        with pytest.raises(ValueError, match=r"endpoints must lie in \[0, 3\)"):
            ExplicitEdges([0, 1], [1, 7], [0.5, 0.5], n=3)

    def test_divergent_config_raises_nonfinite(self, small_problem, monkeypatch):
        """A diverging run (p = 3 with a huge C') leaves through
        NonFiniteStateError, at the same step on both value streams: where a
        decision goes non-finite, where the slope |t|^2 overflows while the
        decisions are finite (C' = 1e5), or where the coefficients of the
        model built at t = T do (C' = 1e50)."""
        hidden, _, graph = small_problem
        overflows = []  # finite edge differences whose slope overflowed

        def recording(spec):
            slope = lp_slope(spec)

            def recorded(t):
                out = slope(t)
                if math.isfinite(t) and not math.isfinite(out):
                    overflows.append(t)
                return out

            return recorded

        monkeypatch.setattr(optimizer_mod, "lp_slope", recording)
        calls = count_halves(monkeypatch)
        halves = [(optimizer_mod._GRAM_CAP, "_gram_values"), (0, "_block_values")]
        for C_prime, T, seed, message, overflowed in [
            (500.0, 5000, 1, "non-finite decision value or gradient at step 13", False),
            (1e5, 5000, 1, "non-finite decision value or gradient at step 9", True),
            (1e50, 4, 0, "non-finite coefficient at step 4", False),
        ]:
            cfg = TrainConfig(C=1.0, C_prime=C_prime, loss=LossSpec("hinge"),
                              smoothness=SmoothnessSpec(3.0), T=T, seed=seed)
            for gram_cap, half in halves:
                monkeypatch.setattr(optimizer_mod, "_GRAM_CAP", gram_cap)
                overflows.clear()
                with pytest.raises(NonFiniteStateError, match=f"^{message}$"):
                    train(hidden, graph, cfg, KERNEL)
                assert bool(overflows) == overflowed, (C_prime, half)
                assert calls[half] > 0 and sum(calls.values()) == calls[half]
                calls.update(dict.fromkeys(calls, 0))

    def test_default_iterations_rule(self):
        assert default_iterations(4000) == 4000
        assert default_iterations(10_000) == 2000

    def test_config_validation(self):
        loss, p = LossSpec("hinge"), SmoothnessSpec(2.0)
        with pytest.raises(ValueError):
            TrainConfig(C=0.0, C_prime=0.05, loss=loss, smoothness=p, T=1)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.0, loss=loss, smoothness=p, T=1)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=0)
        with pytest.raises(ValueError):
            TrainConfig(C=math.nan, C_prime=0.05, loss=loss, smoothness=p, T=1)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=math.nan, loss=loss, smoothness=p, T=1)
        for field in ("C", "C_prime"):
            for bad in (math.inf, -math.inf, np.float64(math.inf)):
                kw = {"C": 1.0, "C_prime": 0.05, field: bad}
                with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
                    TrainConfig(loss=loss, smoothness=p, T=1, **kw)
        with pytest.raises(ValueError):
            TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=1,
                        objective_mode="bogus")
        for field, bad in [
            ("T", 2.5), ("T", True), ("T", np.float64(3.0)),
            ("objective_samples", 2.5), ("objective_samples", False),
            ("diagnostics_every", 2.5), ("diagnostics_every", True),
        ]:
            kw = {"T": 1, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, **kw)
        for bad in (2.5, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=1, seed=bad)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=1, seed=-1)
        cfg = TrainConfig(C=1.0, C_prime=0.05, loss=loss, smoothness=p, T=np.uint8(255),
                          seed=np.uint8(3), objective_samples=np.int32(7),
                          diagnostics_every=np.int64(5))
        assert (cfg.T, cfg.seed, cfg.objective_samples, cfg.diagnostics_every) == (255, 3, 7, 5)
        assert type(cfg.T) is int  # T + 1 must not wrap in uint8
        assert type(cfg.seed) is int


class TestAveragingIdentity:
    def test_closed_form_matches_recurrence(self, small_problem):
        hidden, _, graph = small_problem
        for T in (1, 2, 7, 60):
            model, diag = train(
                hidden, graph, hinge_cfg(T=T, seed=4), KERNEL, record_iterates=True
            )
            ref = sum((i + 1) * diag.iterates[i] for i in range(T))
            ref *= 2.0 / (T * (T + 1.0))
            stored = model.beta
            assert np.allclose(stored, ref, rtol=1e-10, atol=1e-14)

    def test_identity_over_a_long_run(self, small_problem):
        # the scale 2/(t(t+1)) is below 1e-6 from t = 1414 on
        hidden, _, graph = small_problem
        T = 2000
        model, diag = train(
            hidden, graph, hinge_cfg(T=T, seed=2), KERNEL, record_iterates=True
        )
        ref = sum((i + 1) * diag.iterates[i] for i in range(T)) * (2.0 / (T * (T + 1.0)))
        assert np.allclose(model.beta, ref, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize(
        "loss,p", [("hinge", 2.0), ("logistic", 1.0), ("l1", 3.0)]
    )
    def test_every_step_contracts_by_the_paper_factor(self, small_problem, loss, p):
        # w_{t+1} = (t-1)/(t+1) w_t - 2/(t+1) g_t and g_t - w_t touches at most
        # the sampled labeled point and the two edge endpoints
        hidden, _, graph = small_problem
        cfg = replace(hinge_cfg(T=3000, seed=6, p=p), loss=LossSpec(loss))
        _, diag = train(hidden, graph, cfg, KERNEL, record_iterates=True)
        w = diag.iterates  # w[t - 1] is w_{t+1}
        for t in range(2, cfg.T + 1):
            gap = np.abs(w[t - 1] - (t - 1.0) / (t + 1.0) * w[t - 2])
            tol = 1e-12 * (np.max(np.abs(w[t - 1])) + np.max(np.abs(w[t - 2])))
            assert np.count_nonzero(gap > tol) <= 3, t


class TestDeterminismAndPaths:
    def test_bit_identical_repeat(self, small_problem):
        hidden, _, graph = small_problem
        m1, d1 = train(hidden, graph, hinge_cfg(T=300, seed=9), KERNEL, record_iterates=True)
        m2, d2 = train(hidden, graph, hinge_cfg(T=300, seed=9), KERNEL, record_iterates=True)
        assert np.array_equal(d1.iterates[-1], d2.iterates[-1])
        assert np.array_equal(m1.beta, m2.beta)
        assert np.array_equal(d1.trace_j_avg, d2.trace_j_avg)

    def test_the_last_trace_point_is_the_returned_model(self, small_problem):
        """Tracing changes no coefficient bit. The trace runs at every
        multiple of diagnostics_every and at T, and its last J is the
        objective of the model returned, which holds every decision that J
        computed (exact mode: all of them)."""
        hidden, _, graph = small_problem
        untraced, _ = train(hidden, graph, hinge_cfg(T=300, seed=9), KERNEL)
        for every, ts in [(97, [97, 194, 291, 300]), (100, [100, 200, 300]), (300, [300])]:
            cfg = hinge_cfg(T=300, seed=9, diagnostics_every=every)
            model, diag = train(hidden, graph, cfg, KERNEL)
            assert np.array_equal(model.beta, untraced.beta)
            assert diag.trace_t.tolist() == ts
            held = model._memo.copy()
            assert not np.isnan(held).any()
            assert diag.trace_j_avg[-1] == objective(model, hidden, graph, cfg)
            assert diag.trace_j_avg[-1] == objective(untraced, hidden, graph, cfg)
            assert np.array_equal(model._memo, held)

    def test_seed_changes_trajectory(self, small_problem):
        hidden, _, graph = small_problem
        m1, _ = train(hidden, graph, hinge_cfg(T=300, seed=0), KERNEL)
        m2, _ = train(hidden, graph, hinge_cfg(T=300, seed=1), KERNEL)
        assert not np.array_equal(m1.beta, m2.beta)

    def test_streaming_path_matches_gram_path(self, small_problem, monkeypatch):
        hidden, _, graph = small_problem
        # the long run ends mid-block in its second sampling chunk
        long_T = optimizer_mod._SAMPLE_CHUNK + optimizer_mod._BLOCK_STEPS + 13
        gram_cap = optimizer_mod._GRAM_CAP
        calls = count_halves(monkeypatch)
        for T in (400, long_T):
            chunks = -(-T // optimizer_mod._SAMPLE_CHUNK)
            cfg = hinge_cfg(T=T, seed=5, diagnostics_every=1)
            monkeypatch.setattr(optimizer_mod, "_GRAM_CAP", gram_cap)
            m_gram, d_gram = train(hidden, graph, cfg, KERNEL)
            assert calls == {"_gram_values": chunks, "_block_values": 0}
            monkeypatch.setattr(optimizer_mod, "_GRAM_CAP", 0)
            m_str, d_str = train(hidden, graph, cfg, KERNEL)
            assert calls == {"_gram_values": chunks, "_block_values": chunks}
            calls.update(dict.fromkeys(calls, 0))
            assert np.allclose(m_gram.beta, m_str.beta, rtol=1e-10, atol=1e-14)
            assert np.allclose(d_gram.trace_norm_w, d_str.trace_norm_w, rtol=1e-9, atol=1e-12)
            for d in (d_gram, d_str):  # traced at every step: the maxima are the trace's
                assert d.max_norm_w == np.max(d.trace_norm_w)
                assert d.max_norm_g == np.max(d.trace_norm_g)

    def test_streaming_repeat_is_bit_identical(self, small_problem, monkeypatch):
        hidden, _, graph = small_problem
        monkeypatch.setattr(optimizer_mod, "_GRAM_CAP", 0)
        calls = count_halves(monkeypatch)
        cfg = hinge_cfg(T=optimizer_mod._SAMPLE_CHUNK + 100, seed=9, diagnostics_every=500)
        m1, d1 = train(hidden, graph, cfg, KERNEL)
        m2, d2 = train(hidden, graph, cfg, KERNEL)
        assert calls == {"_gram_values": 0, "_block_values": 4}  # two chunks per run
        assert np.array_equal(m1.beta, m2.beta)
        for field in fields(Diagnostics):
            assert np.array_equal(getattr(d1, field.name), getattr(d2, field.name)), field.name


class TestStreamingKernelBlocks:
    """train() past _GRAM_CAP is bit for bit the same with block_decisions
    replaced by a plain slab loop: one-shot distances, then the kernel."""

    def test_train_bit_identical_to_literal_slab_loop(self, monkeypatch):
        full = synth_two_gaussians(optimizer_mod._GRAM_CAP + 52, 5, 3.0, seed=11)
        hidden, _ = hide_labels(full, 0.8, seed=11)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        cfg = hinge_cfg(T=1600, seed=3, diagnostics_every=400)  # sampled trace J
        calls = []

        def literal(spec, coefs, XS, sqS, XT, sqT):
            m = XT.shape[0]
            calls.append(m)
            width = min(64, max(8, 8 * (kernel_mod.SLAB_BYTES // (64 * max(XS.shape[0], 1)))))
            pad = -m % width  # zero rows up to a whole number of slabs
            XT = np.vstack([XT[:m], np.zeros((pad, XT.shape[1]))])
            sqT = np.concatenate([sqT, np.zeros(pad)])
            out = np.empty(m + pad)
            for s in range(0, m + pad, width):
                d2 = sqS[:, None] + sqT[None, s : s + width] - 2.0 * (XS @ XT[s : s + width].T)
                np.maximum(d2, 0.0, out=d2)
                K = spec.sigma_f**2 * np.exp(-d2 / (2.0 * spec.sigma_l**2))
                out[s : s + width] = coefs @ K
            return out[:m]

        m1, d1 = train(hidden, graph, cfg, KERNEL)
        monkeypatch.setattr(optimizer_mod, "block_decisions", literal)
        m2, d2 = train(hidden, graph, cfg, KERNEL)
        assert len(calls) > 10 and max(calls) > 1000  # step blocks and the sampled objectives
        assert np.array_equal(m1.beta, m2.beta)
        assert np.array_equal(d1.trace_t, d2.trace_t)
        assert np.array_equal(d1.trace_j_avg, d2.trace_j_avg)
        assert d1.max_norm_w == d2.max_norm_w and d1.max_norm_g == d2.max_norm_g


def literal_gram_train(dataset, graph, config, kernel):
    """train()'s Gram half as a plain step loop: the trainer's draws, one
    numpy decision and kernel read at a time, and the step's arithmetic
    written out. Returns beta, the iterates, ||w_t|| and ||g_t|| per step
    and their maxima."""
    main_ss, _ = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(main_ss)
    K = gram(kernel, *dataset.dense())
    loss_grad, lp_grad = loss_slope(config.loss), lp_slope(config.smoothness)
    y = dataset.labels.astype(np.float64)
    kxx = kernel.sigma_f**2
    u, v = np.zeros(dataset.n), np.zeros(dataset.n)
    s, Q, nw2, max_nw2, max_g2 = 1.0, 0.0, 0.0, 0.0, 0.0
    iterates, norms = [], []
    chunk_size = optimizer_mod._SAMPLE_CHUNK
    for chunk_start in range(1, config.T + 1, chunk_size):
        chunk = min(chunk_size, config.T + 1 - chunk_start)
        lab_idx = rng.integers(0, dataset.labeled_count, size=chunk)
        eu, ev, ew = graph.sample_batch(rng, chunk)
        for j in range(chunk):
            t = chunk_start + j
            i, a, b, mu = int(lab_idx[j]), int(eu[j]), int(ev[j]), float(ew[j])
            o_i = s * float(u @ K[i])
            o_e = s * float(u @ K[a]) - s * float(u @ K[b])
            dl = config.C * loss_grad(o_i, float(y[i]))
            de = config.C_prime * mu * lp_grad(o_e)
            wdelta = dl * o_i + de * o_e
            dd2 = (
                dl * dl * kxx
                + de * de * (2.0 * kxx - 2.0 * float(K[a, b]))
                + 2.0 * dl * de * (float(K[i, a]) - float(K[i, b]))
            )
            g2 = nw2 + 2.0 * wdelta + dd2
            eta = 2.0 / (t + 1.0)
            c = (t - 1.0) / (t + 1.0)
            nw2 = max(c * c * nw2 - 2.0 * c * eta * wdelta + eta * eta * dd2, 0.0)
            max_nw2, max_g2 = max(max_nw2, nw2), max(max_g2, g2)
            s = 2.0 / (t * (t + 1.0))
            if dl != 0.0:
                e = -t * dl
                v[i] += e * Q
                u[i] += e
            if de != 0.0:
                e = -t * de
                v[a] += e * Q
                u[a] += e
                v[b] -= e * Q
                u[b] -= e
            Q += 2.0 / (t + 1.0)
            iterates.append(u * s)
            norms.append((math.sqrt(nw2), math.sqrt(max(g2, 0.0))))
    return s * (Q * u - v), iterates, norms, math.sqrt(max_nw2), math.sqrt(max_g2)


class TestLiteralStepLoop:
    @pytest.mark.parametrize(
        "loss,p", [("hinge", 2.0), ("logistic", 1.5), ("smooth-hinge", 2.0)]
    )
    def test_train_is_bit_identical_to_the_literal_loop(self, small_problem, loss, p):
        """Past one sampling chunk, train() gives the very floats of the
        step written out plainly: its per-chunk schedule and in-place
        coefficient writes change no bit. The traced norms pin the
        contraction (t-1)/(t+1), which only the norm tracking reads."""
        self.check(small_problem, loss, p, KERNEL)

    def test_kernel_scale_factors_are_pinned(self, small_problem):
        """At sigma_f != 1, K(x, x) = sigma_f^2 != 1: the kxx factors of
        ||g_t||^2 and of the norm update count, which kxx = 1 hides."""
        self.check(small_problem, "hinge", 2.0, KernelSpec(1.3, 0.9))

    @staticmethod
    def check(small_problem, loss, p, kernel):
        hidden, _, graph = small_problem
        cfg = TrainConfig(
            C=2.0, C_prime=0.3, loss=LossSpec(loss), smoothness=SmoothnessSpec(p),
            T=optimizer_mod._SAMPLE_CHUNK + 77, seed=6, diagnostics_every=97,
        )
        model, diag = train(hidden, graph, cfg, kernel, record_iterates=True)
        beta, iterates, norms, max_norm_w, max_norm_g = literal_gram_train(
            hidden, graph, cfg, kernel
        )
        assert np.any(beta != 0.0)
        assert np.array_equal(model.beta, beta)
        assert len(diag.iterates) == len(iterates) == cfg.T
        assert all(np.array_equal(x, y) for x, y in zip(diag.iterates, iterates))
        assert diag.max_norm_w == max_norm_w
        assert diag.max_norm_g == max_norm_g
        traced = [norms[t - 1] for t in diag.trace_t]
        assert diag.trace_t[-1] == cfg.T and len(traced) == cfg.T // 97 + 1
        assert diag.trace_norm_w.tolist() == [w for w, _ in traced]
        assert diag.trace_norm_g.tolist() == [g for _, g in traced]


class TestGeometry:
    """Both halves of the step's value stream pinned to the dense Gram."""

    @staticmethod
    def triples(n):
        """Every index as i, with i == a, i == b, a == b, three distinct
        targets and one triple twice in a row; each index's triples stay
        near it, so a block's targets leave out indices whose coefficients
        earlier blocks made nonzero."""
        return [
            t for i in range(n)
            for t in 3 * [
                (i, i, (i + 1) % n),
                (i, (i + 2) % n, i),
                (i, (i + 1) % n, (i + 1) % n),
                (i, (i + 1) % n, (i + 2) % n),
                (i, (i + 1) % n, (i + 2) % n),
            ]
        ]

    @staticmethod
    def stream(dataset, kernel, gram_cap, u, triples):
        """The value stream train() reads at this Gram cap."""
        X, sq = dataset.dense()
        targets = np.array(triples).T.tolist()
        if dataset.n <= gram_cap:
            K = gram(kernel, X, sq)
            return optimizer_mod._gram_values(list(K), u, *targets)
        return optimizer_mod._block_values(kernel, X, sq, u, *targets)

    @pytest.mark.parametrize("gram_cap", [optimizer_mod._GRAM_CAP, 0])
    def test_halves_match_dense_gram(self, small_problem, gram_cap):
        hidden, _, _ = small_problem
        kernel = KernelSpec(1.3, 0.9)
        K = gram(kernel, *hidden.dense())
        n, kxx = hidden.n, kernel.sigma_f**2
        triples = self.triples(n)
        assert len(triples) > 2 * optimizer_mod._BLOCK_STEPS
        rng = np.random.default_rng(0)
        u = np.zeros(n)
        stream = self.stream(hidden, kernel, gram_cap, u, triples)
        for (i, a, b), values in zip(triples, stream, strict=True):
            assert all(type(x) is float for x in values)
            *decisions, k_ab, k_ia, k_ib = values
            np.testing.assert_allclose(decisions, K[[i, a, b]] @ u, rtol=1e-12, atol=0)
            np.testing.assert_allclose([k_ab, k_ia, k_ib], [K[a, b], K[i, a], K[i, b]], rtol=1e-12)
            assert k_ab == kxx if a == b else k_ab < kxx
            assert k_ia == kxx if i == a else k_ia < kxx
            assert k_ib == kxx if i == b else k_ib < kxx
            # as in a step, only the targets' coefficients change; positive
            # increments keep the decision sums free of cancellation
            u[[i, a, b]] += rng.uniform(0.5, 1.5, size=3)

    def test_gram_half_is_bit_exact_to_its_reference(self, small_problem):
        """The Gram half's row-view reads give the very floats of the plain
        numpy expressions on the cached Gram, not merely close ones."""
        hidden, _, _ = small_problem
        kernel = KernelSpec(1.3, 0.9)
        K = gram(kernel, *hidden.dense())
        rng = np.random.default_rng(1)
        u = rng.standard_normal(hidden.n)
        triples = self.triples(hidden.n)
        stream = self.stream(hidden, kernel, optimizer_mod._GRAM_CAP, u, triples)
        for (i, a, b), values in zip(triples, stream, strict=True):
            assert np.all(u != 0.0)
            assert values == (
                float(u @ K[i]), float(u @ K[a]), float(u @ K[b]),
                float(K[a, b]), float(K[i, a]), float(K[i, b]),
            )
            u[:] = rng.standard_normal(hidden.n)  # each pull reads u as it is then


class TestNormTracking:
    def test_incremental_norm_matches_quadratic_form(self, small_problem):
        hidden, _, graph = small_problem
        model, diag = train(
            hidden, graph, hinge_cfg(T=500, seed=7, diagnostics_every=500), KERNEL,
            record_iterates=True,
        )
        current = replace(model, beta=diag.iterates[-1])  # w_{T+1}
        assert diag.trace_norm_w[-1] == pytest.approx(hilbert_norm(current), rel=1e-9)
        assert diag.max_norm_w >= diag.trace_norm_w[-1]

    def test_certified_bounds_hold(self, small_problem):
        hidden, _, graph = small_problem
        report = compute_bounds(1.0, 0.05, 2.0, R=1.0, A=1.0)
        assert report.condition_holds
        for seed in range(3):
            _, diag = train(hidden, graph, hinge_cfg(T=2000, seed=seed), KERNEL)
            assert diag.max_norm_w <= report.M * (1 + 1e-6)
            assert diag.max_norm_g <= report.G * (1 + 1e-6)


class TestObjective:
    def test_hinge_at_zero_equals_C(self, small_problem):
        hidden, _, graph = small_problem
        cfg = hinge_cfg(T=1, C=1.7)
        got = objective(np.zeros(hidden.n), hidden, graph, cfg, KERNEL)
        assert got == pytest.approx(1.7, rel=1e-12)

    def test_smoothness_term_zero_at_zero(self, small_problem):
        hidden, _, graph = small_problem
        for p in (1.0, 2.0, 3.0):
            cfg = TrainConfig(
                C=1.0,
                C_prime=5.0,
                loss=LossSpec("hinge"),
                smoothness=SmoothnessSpec(p),
                T=1,
                seed=0,
            )
            got = objective(np.zeros(hidden.n), hidden, graph, cfg, KERNEL)
            assert got == pytest.approx(1.0, rel=1e-12)

    def test_hand_computed_two_point_instance(self):
        # one labeled, one unlabeled point at squared distance 2, one edge
        ds = Dataset(Points.from_rows([[(1, 1.0)], [(2, 1.0)]]), np.array([1, 0], dtype=np.int8))
        edges = ExplicitEdges([0], [1], [0.25], n=2)
        cfg = TrainConfig(
            C=2.0,
            C_prime=3.0,
            loss=LossSpec("hinge"),
            smoothness=SmoothnessSpec(2.0),
            T=1,
            seed=0,
        )
        coefs = np.array([0.5, -0.25])
        k = math.exp(-1.0)
        # dec_a = 0.5 - 0.25 k, dec_b = 0.5 k - 0.25
        dec_a = 0.5 - 0.25 * k
        dec_b = 0.5 * k - 0.25
        norm_sq = 0.25 + 0.0625 - 2 * 0.5 * 0.25 * k
        expected = (
            0.5 * norm_sq
            + 2.0 * max(0.0, 1.0 - dec_a)
            + 3.0 * 0.25 * (dec_a - dec_b) ** 2
        )
        got = objective(coefs, ds, edges, cfg, KERNEL)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_traced_exact_objective_over_the_cap_fails_before_step_one(
        self, small_problem, monkeypatch
    ):
        hidden, _, graph = small_problem
        monkeypatch.setattr(graph_mod, "EXACT_EDGE_CAP", graph.n_edges - 1)
        drawn, sample_batch = [], type(graph).sample_batch

        def spy(self, rng, size):
            drawn.append(size)
            return sample_batch(self, rng, size)

        monkeypatch.setattr(type(graph), "sample_batch", spy)
        cfg = hinge_cfg(T=100, diagnostics_every=50, objective_mode="exact")
        with pytest.raises(EdgeEnumerationTooLargeError):
            train(hidden, graph, cfg, KERNEL)
        assert drawn == []

    def test_sampled_mode_unbiased(self, small_problem):
        hidden, _, graph = small_problem
        rng = np.random.default_rng(0)
        coefs = rng.normal(size=hidden.n) * 0.3
        exact_cfg = hinge_cfg(T=1, objective_mode="exact")
        exact = objective(coefs, hidden, graph, exact_cfg, KERNEL)
        sampled_cfg = hinge_cfg(T=1, objective_mode="sampled", objective_samples=1)
        draws = np.array(
            [
                objective(coefs, hidden, graph, sampled_cfg, KERNEL, rng=rng)
                for _ in range(10_000)
            ]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 3 * se


def old_objective(coefs, dataset, graph, config, kernel, rng):
    """The objective as three separate kernel blocks (support x support,
    support x labeled, support x edge endpoints), kept as the reference for
    the single-evaluation objective."""

    def decisions_at(targets):
        X, sq = dataset.dense()
        sup = np.flatnonzero(coefs)
        m = dataset.n if targets is None else len(targets)
        if sup.size == 0:
            return np.zeros(m)
        Xt = X if targets is None else X[targets]
        sqt = sq if targets is None else sq[targets]
        d2 = sq[sup][:, None] + sqt[None, :] - 2.0 * (X[sup] @ Xt.T)
        np.maximum(d2, 0.0, out=d2)
        return coefs[sup] @ kernel_matrix_from_sq_dists(kernel, d2)

    X, sq = dataset.dense()
    sup = np.flatnonzero(coefs)
    reg = 0.0
    if sup.size:
        d2 = sq[sup][:, None] + sq[sup][None, :] - 2.0 * (X[sup] @ X[sup].T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, 0.0)
        c = coefs[sup]
        reg = 0.5 * max(float(c @ kernel_matrix_from_sq_dists(kernel, d2) @ c), 0.0)
    l = dataset.labeled_count
    losses = loss_value(config.loss, decisions_at(np.arange(l)), dataset.labels[:l].astype(float))
    lab = config.C / l * float(np.sum(losses))
    if config.objective_mode == "exact":
        us, vs, ws = graph.enumerate_edges()
        dec = decisions_at(None)
        edge = config.C_prime / graph.n_edges * float(
            ws @ lp_value(config.smoothness, dec[us] - dec[vs])
        )
    else:
        us, vs, ws = graph.sample_batch(rng, config.objective_samples)
        dec = decisions_at(np.concatenate([us, vs]))
        t_e = dec[: us.size] - dec[us.size :]
        edge = config.C_prime * float(np.mean(ws * lp_value(config.smoothness, t_e)))
    return reg + lab + edge


class TestSingleEvaluationObjective:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_matches_three_block_reference(self, mode):
        full = synth_two_gaussians(300, 5, 3.0, seed=11)
        hidden, _ = hide_labels(full, 0.7, seed=11)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.5))
        cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=700)
        coefs = np.random.default_rng(0).normal(size=hidden.n)
        coefs[np.random.default_rng(1).random(hidden.n) < 0.6] = 0.0  # partial support
        kernel = KernelSpec(1.2, 1.7)
        got = objective(coefs, hidden, graph, cfg, kernel, rng=np.random.default_rng(5))
        ref = old_objective(coefs, hidden, graph, cfg, kernel, np.random.default_rng(5))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mode, support", [
        ("exact", "every point"), ("sampled", "every point"), ("sampled", "off the endpoints"),
    ])
    def test_matches_reference_at_the_split_edges(self, mode, support, monkeypatch):
        """Every point in the support leaves exact mode no other target; a
        support off the sampled endpoints leaves them all to block_decisions,
        which sees no support point."""
        full = synth_two_gaussians(300, 5, 3.0, seed=13)
        hidden, _ = hide_labels(full, 0.7, seed=13)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.5))
        cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=25)
        coefs = np.random.default_rng(3).normal(size=hidden.n)
        us, vs, _ = graph.sample_batch(np.random.default_rng(7), cfg.objective_samples)
        if support == "off the endpoints":
            coefs[us] = coefs[vs] = 0.0
        wanted = np.union1d(np.arange(hidden.labeled_count), np.concatenate([us, vs]))
        if mode == "exact":
            wanted = np.arange(hidden.n)
        targets = []

        def block_decisions(spec, c, XS, sqS, XT, sqT):
            targets.append(XT.shape[0])
            return kernel_mod.block_decisions(spec, c, XS, sqS, XT, sqT)

        monkeypatch.setattr(optimizer_mod, "block_decisions", block_decisions)
        kernel = KernelSpec(1.3, 1.7)
        got = objective(coefs, hidden, graph, cfg, kernel, rng=np.random.default_rng(7))
        ref = old_objective(coefs, hidden, graph, cfg, kernel, np.random.default_rng(7))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        outside = np.count_nonzero(coefs[wanted] == 0)  # the targets outside the support
        assert targets == ([outside] if outside else [])  # one call, none when it has no target

    def test_matches_reference_for_trained_model(self, small_problem):
        hidden, _, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=300, seed=2), KERNEL)
        for mode in ("exact", "sampled"):
            cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=50)
            got = objective(model, hidden, graph, cfg, rng=np.random.default_rng(8))
            ref = old_objective(model.beta, hidden, graph, cfg, KERNEL, np.random.default_rng(8))
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_sampled_objective_holds_the_support_rows_and_one_slab(self):
        """The targets outside the support are gathered one slab at a time,
        never copied whole: beyond its inputs a sampled objective() holds
        the gathered support rows, one SLAB_BYTES slab with its pass chunk and
        gathered target rows, and index and decision arrays of n and of
        objective_samples entries."""
        rng = np.random.default_rng(21)
        n, d, l, k, samples = 6000, 50, 600, 3000, 10_000
        labels = np.zeros(n, dtype=np.int8)
        labels[:l] = rng.choice([-1, 1], size=l)
        dataset = Dataset(Points.from_dense(rng.normal(size=(n, d))), labels)
        a = rng.integers(0, n, size=20_000)
        b = (a + rng.integers(1, n, size=a.size)) % n
        graph = ExplicitEdges(np.minimum(a, b), np.maximum(a, b), rng.uniform(0.1, 1.0, a.size), n)
        coefs = np.zeros(n)
        coefs[rng.permutation(n)[:k]] = rng.normal(size=k)
        cfg = hinge_cfg(T=1, objective_mode="sampled", objective_samples=samples)
        want = objective(coefs, dataset, graph, cfg, KERNEL, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            got = objective(coefs, dataset, graph, cfg, KERNEL, rng=np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        slab = kernel_mod.SLAB_BYTES + kernel_mod._PASS_BYTES + 8 * d * kernel_mod.slab_width(k)
        arrays = 8 * (12 * n + 4 * samples)
        assert peak <= 8 * k * d + slab + arrays


class TestPredict:
    def test_zero_model_predicts_positive(self, small_problem):
        hidden, truth, graph = small_problem
        cfg = TrainConfig(
            C=1.0,
            C_prime=0.05,
            loss=LossSpec("eps-insensitive", epsilon=9.0),
            smoothness=SmoothnessSpec(2.0),
            T=3,
            seed=0,
        )
        model, _ = train(hidden, graph, cfg, KERNEL)
        assert np.all(model.beta == 0.0)
        assert np.all(predict_batch(model, truth.points) == 1)

    def test_sign_threshold(self, small_problem):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=3000, seed=0), KERNEL)
        from gkm.optimizer import decision_values

        dec = decision_values(model, truth.points)
        preds = predict_batch(model, truth.points)
        assert np.array_equal(preds, np.where(dec >= 0, 1, -1))
        assert predict_batch(model, truth.points[:0]).shape == (0,)

    def test_two_cluster_accuracy_matches_labelprop_oracle(self):
        # the trained model and the exact propagation oracle agree on the
        # unlabeled points of a clean two-cluster instance
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(0, 0.4, (15, 2)), rng.normal(3.5, 0.4, (15, 2))])
        y = np.array([1] * 15 + [-1] * 15, dtype=np.int8)
        hidden, truth = hide_labels(Dataset(Points.from_dense(X), y), 28 / 30, seed=2)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, hinge_cfg(T=5000, seed=0), KERNEL)

        unlabeled = np.arange(hidden.labeled_count, hidden.n)
        test_truth = truth.subset(unlabeled)
        preds = predict_batch(model, test_truth.points)
        assert np.array_equal(preds, test_truth.labels)

        us, vs, ws = graph.enumerate_edges()
        prop = solve_exact(
            PropagationProblem(ExplicitEdges(us, vs, ws, hidden.n), hidden.labels)
        )
        oracle_labels = threshold_labels(prop)[unlabeled]
        model_labels = predict_batch(model, hidden.points[unlabeled])
        assert np.array_equal(oracle_labels, model_labels)

    def test_decisions_hold_the_support_rows_and_one_slab(self):
        """On full rows the query's dense rows are a view of its values, so
        beyond the gathered support (its dense rows and their indices)
        decision_values holds one SLAB_BYTES slab: no copy of the query and no
        support + query concatenation."""
        rng = np.random.default_rng(0)
        k, m, d = 3000, 5000, 50
        support = Points.from_dense(rng.normal(size=(k, d)))
        query = Points.from_dense(rng.normal(size=(m, d)))
        state = ModelState(KERNEL, support, rng.normal(size=k), hinge_cfg(T=1), 1.0)
        want = decision_values(state, query)
        tracemalloc.start()
        try:
            got = decision_values(state, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        support_rows = 8 * k * d
        assert peak <= 2 * support_rows + kernel_mod.SLAB_BYTES + (8 << 10)

    def test_matched_decisions_hold_the_support_rows_and_one_slab(self):
        """A query holding every support row, shuffled, among other points:
        the bound above plus the matcher's and the split's index arrays, at
        most eight 8-byte arrays of k + m entries, whether or not the model
        holds its decisions at the support already. The m - k other rows
        (2 MB) are more than the bound leaves over, so copying them fails."""
        rng = np.random.default_rng(1)
        k, m, d = 3000, 8000, 50
        X = rng.normal(size=(k, d))
        support = Points.from_dense(X)
        query = Points.from_dense(np.vstack([X, rng.normal(size=(m - k, d))])[rng.permutation(m)])
        state = ModelState(KERNEL, support, rng.normal(size=k), hinge_cfg(T=1), 1.0)
        want = decision_values(state, query)
        support_rows = 8 * k * d
        index_arrays = 8 * 8 * (k + m)
        for model in (replace(state), state):  # without, then with, the decisions at the support
            tracemalloc.start()
            try:
                got = decision_values(model, query)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, want)
            assert peak <= 2 * support_rows + kernel_mod.SLAB_BYTES + (8 << 10) + index_arrays


class TestMatchedDecisions:
    """decision_values where query rows are support rows, against c @ the
    dense kernel block whose distance is exactly 0 where two rows are equal."""

    K, N = 700, 1400  # support and points: K^2 entries span several slabs

    @staticmethod
    def reference(state, query):
        sup = np.flatnonzero(state.beta)
        XS, sqS = dense_rows(state.points[sup])
        XT, sqT = dense_rows(query, kernel_mod.columns(state.points[sup]))
        d2 = np.maximum(sqS[:, None] + sqT[None, :] - 2.0 * (XS @ XT.T), 0.0)
        d2[(XS[:, None, :] == XT[None, :, :]).all(axis=2)] = 0.0
        K = state.kernel.sigma_f**2 * np.exp(-d2 / (2.0 * state.kernel.sigma_l**2))
        return state.beta[sup] @ K

    def model(self, sigma_f, X=None, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(self.N, 5)) if X is None else X
        beta = np.zeros(len(X))
        # positive coefficients keep the decision sums free of cancellation
        beta[rng.permutation(len(X))[: self.K]] = rng.uniform(0.5, 1.5, size=self.K)
        return ModelState(KernelSpec(sigma_f, 1.7), Points.from_dense(X), beta, hinge_cfg(T=1), 1.0), X

    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    @pytest.mark.parametrize("case", ["all points", "shuffled, repeated", "most of the support",
                                      "part of the support", "duplicate support rows", "signed zero"])
    def test_matches_the_dense_gram(self, case, sigma_f, monkeypatch):
        """Rows matched to support rows read the support's triangle, and the
        rest go through block_decisions; rows equal but for a signed zero
        are not matched."""
        X = None
        if case == "duplicate support rows":
            X = np.random.default_rng(5).normal(size=(self.N, 5))
            X[1::2] = X[::2]  # every point twice
        elif case == "signed zero":
            X = np.random.default_rng(5).normal(size=(self.N, 5))
            X[:, 2] = 0.0
        state, X = self.model(sigma_f, X)
        sup = np.flatnonzero(state.beta)
        rng = np.random.default_rng(6)
        Q = {
            "all points": X,
            "shuffled, repeated": X[np.concatenate([rng.permutation(self.N), rng.integers(0, self.N, size=500)])],
            "most of the support": np.vstack([X[sup[600:0:-1]], rng.normal(size=(200, 5))]),
            "part of the support": np.vstack([X[sup[:300]], rng.normal(size=(400, 5))]),
            "duplicate support rows": X,
            "signed zero": np.vstack([X[sup], X[sup]]),
        }[case]
        if case == "signed zero":
            Q[self.K :, 2] = -0.0  # the second copies differ in a signed zero only
        query = Points.from_dense(Q)
        matched, triangles = [], []

        def match(XA, XB):
            matched.append(kernel_mod.equal_rows(XA, XB))
            return matched[-1]

        def triangle(*args):
            triangles.append(args[1].size)
            return kernel_mod.support_decisions(*args)

        monkeypatch.setattr(optimizer_mod, "equal_rows", match)
        monkeypatch.setattr(optimizer_mod, "support_decisions", triangle)
        got = decision_values(state, query)
        assert np.allclose(got, self.reference(state, query), rtol=1e-12, atol=0.0)
        hits = matched[0] >= 0
        want_hits = {
            "most of the support": np.arange(len(Q)) < 600,
            "part of the support": np.arange(len(Q)) < 300,
            "signed zero": np.arange(len(Q)) < self.K,
        }.get(case)
        assert hits.any() if want_hits is None else np.array_equal(hits, want_hits)
        assert len(matched) == 1 and triangles == [self.K]  # one row match, one f(S)

    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    @pytest.mark.parametrize("k, m", [(0, 50), (50, 0), (0, 0)])
    def test_empty_support_or_query(self, k, m, sigma_f):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 5))
        beta = np.zeros(50)
        beta[:k] = rng.normal(size=k)
        state = ModelState(KernelSpec(sigma_f, 1.7), Points.from_dense(X), beta, hinge_cfg(T=1), 1.0)
        got = decision_values(state, Points.from_dense(X[:m]))
        assert np.array_equal(got, np.zeros(m))

    @pytest.mark.parametrize("sigma_f", [1.0, 1.3])
    def test_a_matched_row_has_kernel_entry_sigma_f_squared(self, sigma_f):
        """Far-apart points and a tiny length-scale make K(S, Q) 0 but for
        matched pairs, which are sigma_f^2 exactly: a self-distance rounded
        above 0 would show. The query holds every point, then 600 of the
        700 support rows, so that the triangle runs both times."""
        X = 30.0 * np.random.default_rng(8).normal(size=(self.N, 7))
        state, _ = self.model(sigma_f, X, seed=9)
        state = replace(state, kernel=KernelSpec(sigma_f, 1e-6))
        assert np.array_equal(decision_values(state, state.points), state.beta * sigma_f**2)
        sup = np.flatnonzero(state.beta)
        part = state.points[sup[:600]]
        assert np.array_equal(decision_values(state, part), state.beta[sup[:600]] * sigma_f**2)

    @pytest.mark.parametrize("matched", [0, 1, 700])
    def test_matched_support_rows_read_the_triangle(self, matched, monkeypatch):
        """A query of 300 other points and ``matched`` support rows: however
        few the support rows, they read f(S), computed once, and the other
        rows get block_decisions' decisions over those rows alone, bit for
        bit."""
        state, X = self.model(1.0)
        sup = np.flatnonzero(state.beta)
        rng = np.random.default_rng(10)
        query = Points.from_dense(np.vstack([rng.normal(size=(300, 5)), X[sup[:matched]]]))
        triangles = count_triangles(monkeypatch)
        got = decision_values(state, query)
        assert triangles == ([] if matched == 0 else [self.K])
        XT, sqT = dense_rows(query[:300])
        want = kernel_mod.block_decisions(state.kernel, state.beta[sup], *dense_rows(state.points[sup]), XT, sqT)
        assert np.array_equal(got[:300], want)
        assert np.array_equal(got[300:], state.decisions_at(sup[:matched]))
        assert triangles == ([] if matched == 0 else [self.K])  # read, not computed again


def count_triangles(monkeypatch) -> list[int]:
    """The support sizes of the support_decisions calls made from now on."""
    calls = []

    def triangle(*args):
        calls.append(args[1].size)
        return kernel_mod.support_decisions(*args)

    monkeypatch.setattr(optimizer_mod, "support_decisions", triangle)
    return calls


@pytest.fixture(scope="module")
def past_the_cap(tmp_path_factory):
    """The CI file just past the Gram cap (gkm synth --n 2100 --dim 5
    --bayes-accuracy 0.9) and gkm train's problem and traced config on it
    (--hide-fraction 0.8, defaults otherwise)."""
    path = tmp_path_factory.mktemp("past-the-cap") / "data.txt"
    assert cli_mod.main(["synth", "--n", "2100", "--dim", "5", "--bayes-accuracy", "0.9",
                         "--out", str(path)]) == 0
    args = cli_mod.build_parser().parse_args(["train", str(path), "--hide-fraction", "0.8"])
    dataset, kernel, graph = cli_mod._training_problem(args)
    T = default_iterations(dataset.n)
    config = cli_mod._train_config(args, args.loss, args.p, T=T, diagnostics_every=T,
                                   objective_mode=args.objective_mode)
    return path, dataset, graph, config, kernel


class TestModelMemo:
    """A model is immutable and computes its decisions at its own support,
    f(S) = beta[S] @ K(S, S), at most once."""

    @staticmethod
    def model(n=1000, k=700, seed=0):
        rng = np.random.default_rng(seed)
        beta = np.zeros(n)
        beta[rng.permutation(n)[:k]] = rng.uniform(0.5, 1.5, size=k)
        points = Points.from_dense(rng.normal(size=(n, 4)))
        return ModelState(KernelSpec(1.3, 1.7), points, beta, hinge_cfg(T=1), 1.0), beta

    def test_beta_is_a_read_only_copy(self):
        state, beta = self.model()
        beta[:] = 7.0
        assert not np.any(state.beta == 7.0) and state.beta.dtype == np.float64
        with pytest.raises(ValueError):
            state.beta[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            state.beta = beta
        with pytest.raises(TypeError):
            ModelState(KERNEL, state.points, state.beta, hinge_cfg(T=1), 1.0, None, np.zeros(3))

    def test_the_memo_is_computed_once_and_replace_drops_it(self, monkeypatch):
        state, _ = self.model()
        calls = count_triangles(monkeypatch)
        norm = hilbert_norm(state)
        assert hilbert_norm(state) == norm and calls == [700]
        dec = decision_values(state, state.points)  # its support rows read the memo
        assert calls == [700]
        other = replace(state, kernel=KernelSpec(1.0, 1.7))
        other_norm = hilbert_norm(other)
        assert calls == [700, 700]
        fresh = ModelState(KernelSpec(1.0, 1.7), state.points, state.beta, hinge_cfg(T=1), 1.0)
        assert other_norm == hilbert_norm(fresh) != norm
        again = replace(state)
        assert np.array_equal(decision_values(again, state.points), dec)  # no history in the bits
        assert calls == [700, 700, 700, 700]

    def test_objective_reads_the_memo_of_its_own_points_only(self, small_problem, monkeypatch):
        hidden, _, graph = small_problem
        cfg = hinge_cfg(T=500, seed=2)
        model, _ = train(hidden, graph, cfg, KERNEL)
        k = np.count_nonzero(model.beta)
        calls = count_triangles(monkeypatch)
        j = objective(model, hidden, graph, cfg)
        assert objective(model, hidden, graph, cfg) == j and calls == [k]
        copy = Dataset(hidden.points[:], hidden.labels)  # equal points, another object
        assert objective(model, copy, graph, cfg) == j and calls == [k, k]

    def test_a_traced_fit_leaves_evaluate_and_the_norm_no_triangle(self, past_the_cap, monkeypatch,
                                                                   tmp_path):
        """train() takes its last trace point's decisions at the support from
        the model it returns, so evaluate and hilbert_norm compute none;
        their bits are those of the model read back from its file, which
        computes its own."""
        path, dataset, graph, config, kernel = past_the_cap
        calls = count_triangles(monkeypatch)
        model, _ = train(dataset, graph, config, kernel)
        k = np.count_nonzero(model.beta)
        assert calls == [k]  # the sampled J at t = T
        truth, _ = load_libsvm(path)
        report, norm = evaluate(model, truth), hilbert_norm(model)
        assert calls == [k]
        save_model(model, tmp_path / "model.txt")
        back = load_model(tmp_path / "model.txt")
        back_report = evaluate(back, truth)
        assert calls == [k, k]
        assert replace(back_report, wall_time=0.0) == replace(report, wall_time=0.0)
        assert hilbert_norm(back) == norm
        assert np.array_equal(decision_values(back, truth.points), decision_values(model, truth.points))

    def test_the_tail_query_reads_the_full_files_decisions(self, past_the_cap, monkeypatch, tmp_path):
        """CI's last 700 lines hold support rows and other points. Each gets
        the decision the whole file's query gives it, bit for bit, whether
        or not the model holds f(S) yet: the tail computes f(S) once, and a
        model without it reads the file's decisions too."""
        path, dataset, graph, config, kernel = past_the_cap
        model, _ = train(dataset, graph, replace(config, diagnostics_every=None), kernel)
        tail_path = tmp_path / "tail.txt"
        tail_path.write_text("\n".join(path.read_text().splitlines()[-700:]) + "\n")
        tail, tail_perm = load_libsvm(tail_path)
        full, perm = load_libsvm(path)
        want = decision_values(replace(model), full.points)[perm.argsort()][-700:]
        calls = count_triangles(monkeypatch)
        for _ in range(2):  # without, then with, f(S)
            assert np.array_equal(decision_values(model, tail.points)[tail_perm.argsort()], want)
        assert calls == [np.count_nonzero(model.beta)]


def count_block_targets(monkeypatch) -> list[int]:
    """The target counts of the block_decisions calls made from now on."""
    calls = []

    def block(spec, c, XS, sqS, XT, sqT):
        calls.append(XT.shape[0])
        return kernel_mod.block_decisions(spec, c, XS, sqS, XT, sqT)

    monkeypatch.setattr(optimizer_mod, "block_decisions", block)
    return calls


class TestOwnDecisions:
    """A model keeps the decisions its objective computes at its own points
    outside the support, and a query reads those it can: each decision has
    the bits a model without them computes, since block_decisions gives a
    target the same decision in any query."""

    @pytest.mark.parametrize("n", [600, optimizer_mod._GRAM_CAP + 52])
    def test_a_traced_fit_changes_no_decision(self, n, monkeypatch):
        full = synth_two_gaussians(n, 5, 3.0, seed=n)
        hidden, truth = hide_labels(full, 0.8, seed=n)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        T = n // 5
        model, _ = train(hidden, graph, hinge_cfg(T=T, seed=3, diagnostics_every=T), KERNEL)
        rng = np.random.default_rng(n)
        queries = {
            "all points": truth.points,
            "a shuffled part": truth.points[rng.permutation(n)[: n // 3]],
            "fresh points": synth_two_gaussians(300, 5, 3.0, seed=n + 1).points,
        }
        for name, query in queries.items():
            without = count_block_targets(monkeypatch)
            want = decision_values(replace(model), query)
            held = count_block_targets(monkeypatch)
            assert np.array_equal(decision_values(model, query), want), name
            # the final J's decisions cover the points outside the support
            assert sum(held) < sum(without) if name != "fresh points" else held == without, name

    def test_objective_reads_and_fills_the_memo(self, monkeypatch):
        """objective(model, its own dataset) computes only the decisions the
        model lacks, and J keeps its bits."""
        full = synth_two_gaussians(400, 5, 3.0, seed=4)
        hidden, _ = hide_labels(full, 0.8, seed=4)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, hinge_cfg(T=80, seed=2), KERNEL)
        cfg = hinge_cfg(T=1, objective_mode="sampled", objective_samples=60)
        want = [objective(replace(model), hidden, graph, cfg, rng=np.random.default_rng(s))
                for s in (0, 1)]
        targets = count_block_targets(monkeypatch)
        first = objective(model, hidden, graph, cfg, rng=np.random.default_rng(0))
        again = objective(model, hidden, graph, cfg, rng=np.random.default_rng(0))
        other = objective(model, hidden, graph, cfg, rng=np.random.default_rng(1))
        assert [first, other] == want and again == first
        assert len(targets) == 2 and 0 < targets[1] < targets[0]  # again computes none

    def test_decisions_at_computes_each_decision_once(self, monkeypatch):
        """decisions_at on empty, non-support, repeated and support-only
        rows: each decision is computed once, f(S) as one triangle over the
        whole support, the others as block_decisions targets, with the bits
        of those kernel functions over the model's dense rows."""
        rng = np.random.default_rng(23)
        n, k = 300, 120
        beta = np.zeros(n)
        sup = np.sort(rng.permutation(n)[:k])
        beta[sup] = rng.normal(size=k)
        model = ModelState(KernelSpec(1.3, 1.7), Points.from_dense(rng.normal(size=(n, 4))), beta,
                           hinge_cfg(T=1), 1.0)
        other = np.setdiff1d(np.arange(n), sup)
        X, sq = dense_rows(model.points)
        f_S = kernel_mod.support_decisions(model.kernel, beta[sup], X[sup], sq[sup])
        f_other = kernel_mod.block_decisions(model.kernel, beta[sup], X[sup], sq[sup], X[other], sq[other])
        targets, triangles = count_block_targets(monkeypatch), count_triangles(monkeypatch)
        assert model.decisions_at(np.empty(0, dtype=np.int64)).shape == (0,)
        assert targets == triangles == []
        assert np.array_equal(model.decisions_at(other[:50]), f_other[:50])
        assert targets == [50] and triangles == []
        rows = np.r_[other[40:60], other[:50], other[45:55]]  # ten new, the rest repeats
        assert np.array_equal(model.decisions_at(rows), f_other[np.r_[40:60, :50, 45:55]])
        assert targets == [50, 10] and triangles == []
        assert np.array_equal(model.decisions_at(sup[[5, 0, 5]]), f_S[[5, 0, 5]])
        assert targets == [50, 10] and triangles == [k]
        assert np.array_equal(model.decisions_at(np.arange(n))[sup], f_S)
        assert targets == [50, 10, other.size - 60] and triangles == [k]
        assert np.array_equal(model.decisions_at(other), f_other)
        assert targets == [50, 10, other.size - 60] and triangles == [k]

    def test_a_second_query_of_its_own_points_computes_nothing(self, monkeypatch):
        """decision_values keeps the decisions it takes at the model's own
        points, so asking again computes no kernel entry."""
        full = synth_two_gaussians(400, 5, 3.0, seed=6)
        hidden, truth = hide_labels(full, 0.8, seed=6)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, hinge_cfg(T=80, seed=2), KERNEL)
        first = decision_values(model, truth.points)
        targets, triangles = count_block_targets(monkeypatch), count_triangles(monkeypatch)
        assert np.array_equal(decision_values(model, truth.points), first)
        part = np.random.default_rng(6).permutation(truth.n)[:150]
        assert np.array_equal(decision_values(model, hidden.points[part]), first[part])
        assert targets == [] and triangles == []

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_objective_of_coefficients_or_equal_points_leaves_the_model_alone(self, mode):
        """objective on raw coefficients, and on a model with a dataset whose
        points are equal but another object, evaluates a new model over the
        dataset's points: J has the bits of a fresh model's, and the
        caller's model keeps the decisions it held, no more."""
        full = synth_two_gaussians(300, 5, 3.0, seed=8)
        hidden, _ = hide_labels(full, 0.8, seed=8)
        graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
        model, _ = train(hidden, graph, hinge_cfg(T=60, seed=1), KERNEL)
        cfg = hinge_cfg(T=1, objective_mode=mode, objective_samples=40)
        hilbert_norm(model)  # the model holds f(S), nothing else
        held = model._memo.copy()
        rng = np.random.default_rng
        want = objective(replace(model), hidden, graph, cfg, rng=rng(3))
        copy = Dataset(hidden.points[:], hidden.labels)
        got = [objective(model.beta, hidden, graph, cfg, KERNEL, rng=rng(3)),
               objective(model, copy, graph, cfg, rng=rng(3)),
               objective(model.beta, copy, graph, cfg, KERNEL, rng=rng(3))]
        assert [j.hex() for j in got] == [want.hex()] * 3
        assert np.array_equal(model._memo, held, equal_nan=True)

    def test_a_query_over_other_columns_reads_the_memo(self, monkeypatch):
        """On sparse rows every decision comes from dense rows over the
        support's columns, with norms from all stored values. A query over
        other columns than the model's points reads the decisions the model
        holds, and a fresh row that differs from one of the model's points
        only at an index the support lacks reads that point's decision: the
        bits a model without the memo computes."""
        rng = np.random.default_rng(17)
        n, common = 900, [*range(1, 11), *range(30, 41)]
        rows = []
        for i in range(n):
            idx = np.sort(rng.choice(common, size=rng.integers(2, 8), replace=False))
            rows.append([(int(j), float(rng.normal(1.0 if i % 2 else -1.0, 1.0))) for j in idx])
        rare = [n - 3, n - 2, n - 1]  # unlabeled points with index 20, which no other has
        for i in rare:
            rows[i] = sorted({**dict(rows[i]), 20: 0.5, 40: 0.7}.items())
        labels = np.zeros(n, dtype=np.int8)
        labels[:90] = np.where(np.arange(90) % 2, 1, -1)
        dataset = Dataset(Points.from_rows(rows), labels)
        graph = build_fully_connected(dataset, GraphSpec("full", 1.0))
        model, _ = train(dataset, graph, hinge_cfg(T=150, seed=1, diagnostics_every=150,
                                                   objective_mode="exact"), KERNEL)
        assert not model.beta[rare].any()  # the support lacks index 20
        # rare[0] with its index 20 moved to 50, which no point has
        fresh = sorted((50 if j == 20 else j, v) for j, v in rows[rare[0]])
        other = Points.from_rows([rows[i] for i in rng.permutation(n - 3)] + [fresh])
        assert kernel_mod.columns(other).size == kernel_mod.columns(dataset.points).size
        for query in (other, dataset.points):
            without = count_block_targets(monkeypatch)
            want = decision_values(replace(model), query)
            held = count_block_targets(monkeypatch)
            got = decision_values(model, query)
            assert np.array_equal(got, want) and sum(held) < sum(without)
        assert got[rare[0]] == decision_values(model, other[-1:])[0] == model._memo[rare[0]]
        # one more value, at index 50: each squared distance grows by 0.3^2, and
        # the norm tells the row from rare[0], whose dense row it shares
        more = Points.from_rows([rows[rare[0]] + [(50, 0.3)]])
        want = model._memo[rare[0]] * math.exp(-0.3**2 / (2.0 * KERNEL.sigma_l**2))
        assert decision_values(model, more)[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def sparse_points(rng, n, dim, extra=()):
    """n rows of 2 to 6 of the indices 1..dim and ``extra``, values around
    -1 on even rows and +1 on odd ones."""
    pool = np.r_[1 : dim + 1, list(extra)].astype(np.int64)
    rows = []
    for i in range(n):
        idx = np.sort(rng.choice(pool, size=rng.integers(2, 7), replace=False))
        rows.append(zip(idx.tolist(), rng.normal(1.0 if i % 2 else -1.0, 1.0, idx.size).tolist()))
    return Points.from_rows(rows)


def check_a_decision_depends_on_the_model_and_the_point_alone(seed=0):
    """decision_values(m, Q)[i] has the bits of decision_values(m, Q[[i]])
    and of decision_values(replace(m), Q)[i], for random queries Q and rows
    i, on dense and on sparse rows (omitted indices, and indices the
    support lacks or no point has), for models below and above _GRAM_CAP,
    fresh and traced. Bits are pinned under one BLAS thread."""
    rng = np.random.default_rng(seed)
    bits = lambda a: np.asarray(a, dtype=np.float64).view(np.uint64)
    for n in (300, optimizer_mod._GRAM_CAP + 52):
        for sparse in (False, True):
            if sparse:
                points = sparse_points(rng, n, 12)
                full = Dataset(points, np.where(np.arange(n) % 2, 1, -1).astype(np.int8))
                fresh = sparse_points(rng, 200, 12, extra=(13, 40))
            else:
                full = synth_two_gaussians(n, 5, 3.0, seed=n)
                fresh = synth_two_gaussians(200, 5, 3.0, seed=n + 1).points
            hidden, truth = hide_labels(full, 0.8, seed=seed)
            graph = build_fully_connected(hidden, GraphSpec("full", 1.0))
            T = n // 5
            for every in (None, T):
                model, _ = train(hidden, graph, hinge_cfg(T=T, seed=seed, diagnostics_every=every), KERNEL)
                picks = [truth.points[rng.permutation(n)[: rng.integers(n // 2, n)]], fresh,
                         truth.points[rng.integers(0, n, size=50)]]
                Q = Points.from_rows(zip(p.indices.tolist(), p.values.tolist())
                                     for part in picks for p in part)
                Q = Q[rng.permutation(len(Q))]
                dec, dec_new = decision_values(model, Q), decision_values(replace(model), Q)
                for i in rng.integers(0, len(Q), size=8).tolist():
                    one = Q[[i]]
                    where = f"n={n} sparse={sparse} traced={every is not None} row {i}"
                    assert bits(dec[i]) == bits(decision_values(model, one)[0]), where
                    assert bits(dec[i]) == bits(dec_new[i]), where
                    assert bits(dec[i]) == bits(decision_values(replace(model), one)[0]), where


def test_a_decision_depends_on_the_model_and_the_point_alone():
    """The check above in a child process with one BLAS thread."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), str(Path(optimizer_mod.__file__).parents[1])]),
    }
    code = "import test_optimizer as t; t.check_a_decision_depends_on_the_model_and_the_point_alone()"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestHilbertNorm:
    def test_zero_state(self, small_problem):
        hidden, _, graph = small_problem
        model, _ = train(
            hidden,
            graph,
            TrainConfig(
                C=1.0,
                C_prime=0.05,
                loss=LossSpec("eps-insensitive", epsilon=9.0),
                smoothness=SmoothnessSpec(2.0),
                T=2,
                seed=0,
            ),
            KERNEL,
        )
        assert hilbert_norm(model) == 0.0

    def test_single_coefficient(self):
        state = ModelState(
            kernel=KERNEL,
            points=Points.from_rows([[(1, 1.0)]]),
            beta=np.array([2.0]),
            config=hinge_cfg(T=1),
            sigma_s=1.0,
        )
        assert hilbert_norm(state) == pytest.approx(2.0)

    def test_cancellation_of_equal_points(self):
        state = ModelState(
            kernel=KERNEL,
            points=Points.from_rows([[(1, 1.0)], [(1, 1.0)]]),
            beta=np.array([1.0, -1.0]),
            config=hinge_cfg(T=1),
            sigma_s=1.0,
        )
        assert hilbert_norm(state) == pytest.approx(0.0, abs=1e-8)

    def test_matches_the_dense_gram(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 6))
        beta = rng.normal(size=400)
        beta[rng.random(400) < 0.3] = 0.0
        kernel = KernelSpec(1.3, 2.2)
        state = ModelState(kernel, Points.from_dense(X), beta, hinge_cfg(T=1), 1.0)
        sq = np.einsum("ij,ij->i", X, X)
        K = gram(kernel, X, sq)
        assert hilbert_norm(state) == pytest.approx(math.sqrt(beta @ K @ beta), rel=1e-12, abs=0.0)


class TestModelChecks:
    """A ModelState checks its inputs when it is built, and every one that
    builds is one save_model writes and load_model reads back."""

    @staticmethod
    def build(beta, labels=None, n=10):
        points = Points.from_dense(np.arange(2.0 * n).reshape(n, 2))
        return ModelState(KERNEL, points, beta, hinge_cfg(T=1), 1.0, labels)

    @pytest.mark.parametrize("beta, labels", [
        (np.ones(5), None),  # 5 coefficients over 10 points
        (np.ones((10, 1)), None),
        (np.r_[np.ones(9), np.nan], None),
        (np.r_[np.ones(9), -np.inf], None),
        (np.ones(10), np.ones(3, dtype=np.int8)),  # 3 labels over 10 points
        (np.ones(10), np.r_[np.ones(9), 5].astype(np.int8)),
        (np.ones(10), np.r_[np.ones(9), 0.5]),
    ])
    def test_bad_inputs_raise_when_built(self, beta, labels):
        with pytest.raises(ValueError):
            self.build(beta, labels)
        good = self.build(np.ones(10), np.ones(10, dtype=np.int8))
        with pytest.raises(ValueError):
            replace(good, beta=beta, labels=labels)
        with pytest.raises(ValueError):  # a model over other points than its beta's
            replace(good, points=good.points[:5])

    def test_labels_are_a_read_only_int8_copy(self):
        labels = np.array([1, -1, 0] * 3 + [1], dtype=np.int64)
        state = self.build(np.ones(10), labels)
        labels[:] = 1
        assert state.labels.dtype == np.int8 and list(state.labels[:3]) == [1, -1, 0]
        with pytest.raises(ValueError):
            state.labels[0] = 0

    @given(rows=POINT_ROWS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_state_that_builds_round_trips(self, rows, data):
        n = len(rows)
        finite = st.just(0.0) | st.floats(allow_nan=False, allow_infinity=False)
        beta = data.draw(st.lists(finite, min_size=n, max_size=n))
        labels = data.draw(st.none() | st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        fault = data.draw(st.sampled_from([None, None, "beta", "labels"]))
        if fault is not None:  # one more entry, one fewer, or a bad value
            bad = st.sampled_from([math.nan, math.inf]) if fault == "beta" else st.sampled_from([2, -5])
            a = beta if fault == "beta" else [0] * n if labels is None else labels
            how = data.draw(st.sampled_from(["more", "fewer", "value"] if n else ["more"]))
            a = a + [0] if how == "more" else a[:-1] if how == "fewer" else a[:-1] + [data.draw(bad)]
            beta, labels = (a, labels) if fault == "beta" else (beta, a)
        valid = (len(beta) == n and np.isfinite(beta).all()
                 and (labels is None or len(labels) == n and all(abs(y) <= 1 for y in labels)))
        points = Points.from_rows(rows)
        if not valid:
            with pytest.raises(ValueError):
                ModelState(KERNEL, points, beta, hinge_cfg(T=1), 1.5, labels)
            return
        state = ModelState(KERNEL, points, beta, hinge_cfg(T=1), 1.5, labels)
        with tempfile.TemporaryDirectory() as tmp:
            save_model(state, Path(tmp) / "model.txt")
            back = load_model(Path(tmp) / "model.txt")
        sup = np.flatnonzero(state.beta)
        assert np.array_equal(back.beta.view(np.uint64), state.beta[sup].view(np.uint64))
        assert np.array_equal(back.labels, np.zeros(sup.size) if labels is None else state.labels[sup])
        for name in ("indptr", "indices", "values"):
            assert np.array_equal(getattr(back.points, name), getattr(points[sup], name))
        assert (back.kernel, back.config, back.sigma_s) == (state.kernel, state.config, state.sigma_s)


class TestModelFile:
    def test_round_trip_predictions(self, small_problem, tmp_path):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=500, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.kernel == model.kernel
        assert back.config.C == model.config.C
        p1 = predict_batch(model, truth.points)
        p2 = predict_batch(back, truth.points)
        assert np.array_equal(p1, p2)

    def test_hilbert_norm_survives_round_trip(self, small_problem, tmp_path):
        hidden, _, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=200, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert hilbert_norm(model) > 0.0
        assert hilbert_norm(load_model(path)) == pytest.approx(hilbert_norm(model), rel=1e-12)

    def test_reads_kernel_line_with_zero_offset(self, small_problem, tmp_path):
        """The kernel line carries no offset and no 't' line is written; a
        file whose kernel line ends in 'offset 0.0', or that carries the 't'
        line of older files, loads as the same model."""
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=200, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        expected = decision_values(load_model(path), truth.points)
        text = path.read_text()
        assert "kernel sigma_f 1.0 sigma_l 1.0\n" in text and "\nt " not in text
        for older in (
            text.replace("sigma_l 1.0\n", "sigma_l 1.0 offset 0.0\n"),
            text.replace("\nsupport ", "\nt 201\nsupport "),
        ):
            path.write_text(older)
            assert np.array_equal(decision_values(load_model(path), truth.points), expected)

    def test_numpy_integer_seed_round_trips(self, small_problem, tmp_path):
        hidden, _, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=50, seed=np.uint8(3)), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert " seed 3 " in path.read_text()
        assert load_model(path).config.seed == 3

    def test_byte_identical_for_identical_runs(self, small_problem, tmp_path):
        hidden, _, graph = small_problem
        m1, _ = train(hidden, graph, hinge_cfg(T=400, seed=8), KERNEL)
        m2, _ = train(hidden, graph, hinge_cfg(T=400, seed=8), KERNEL)
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(m1, f1)
        save_model(m2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_reader_holds_little_beyond_the_model(self, tmp_path):
        """The header, then each support line straight into the model's flat
        arrays: the peak is near what the model keeps, not every line's
        tokens at once."""
        rng = np.random.default_rng(4)
        n = 10_000
        points = Points.from_dense(rng.standard_normal((n, 50)))
        model = ModelState(KERNEL, points, rng.uniform(0.5, 1.5, n), hinge_cfg(T=1), 1.0,
                           labels=np.ones(n, dtype=np.int8))
        path = tmp_path / "model.txt"
        save_model(model, path)
        tracemalloc.start()
        try:
            back = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.beta.size == n
        kept = [back.beta, back.labels, back.points.indptr, back.points.indices, back.points.values]
        assert peak <= 1.5 * sum(a.nbytes for a in kept)

    @pytest.mark.parametrize("line", [1, -3])  # a header line, a late support line
    def test_undecodable_byte_raises_as_reading_does(self, tmp_path, line):
        """A byte that is not text fails the same way wherever it is, not
        as a bad value of some earlier line."""
        rng = np.random.default_rng(5)
        n = 400  # the late support line lies past the first block the file reader decodes
        model = ModelState(KERNEL, Points.from_dense(rng.standard_normal((n, 5))),
                           rng.uniform(0.5, 1.5, n), hinge_cfg(T=1), 1.0,
                           labels=np.ones(n, dtype=np.int8))
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_bytes().splitlines()
        lines[line] += b" \xff"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(UnicodeDecodeError):
            load_model(path)

    def test_comments_and_blank_lines_after_end_load(self, tmp_path):
        model = ModelState(KERNEL, Points.from_dense([[1.0, 2.0]]), np.array([0.5]),
                           hinge_cfg(T=1), 1.0, labels=np.ones(1, dtype=np.int8))
        path = tmp_path / "model.txt"
        save_model(model, path)
        with open(path, "a") as fh:
            fh.write("\n# a note\n   \n")
        assert np.array_equal(load_model(path).beta, model.beta)

    def test_decision_consistency_after_load(self, small_problem, tmp_path):
        hidden, truth, graph = small_problem
        model, _ = train(hidden, graph, hinge_cfg(T=500, seed=3), KERNEL)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        d1 = decision_values(model, truth.points)
        d2 = decision_values(back, truth.points)
        assert np.allclose(d1, d2, rtol=1e-12, atol=1e-15)
