"""The four benchmark workloads, the metrics they report, and the recorder
that counts their operations and failures.

Every workload builds its inputs from the seed it is given and hands gkm
only those inputs. It drives gkm from outside: through the public functions
of ``data``, ``graph``, ``optimizer``, ``harness`` and ``labelprop``, or
through the ``gkm`` command line in child processes. A workload has three
parts: ``setup`` (inputs to ready-to-step, timed as ``setup_s``),
``run_pass`` (one closed-loop pass of the operations a user waits for,
each timed and checked) and ``probe`` (the per-layer measurements of a
traced run).
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import calibrate
import gkm
from gkm import data, graph, harness, labelprop, optimizer
from gkm.kernel import KernelSpec
from gkm.losses import LossSpec, SmoothnessSpec

# name -> unit. Every workload reports every one of these, and none is 0.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit, reported by the traced run of every workload. Counts are
# computed, not timed, and repeat exactly for a given seed.
PER_LAYER = {
    "data.dense_s": "s",
    "graph.build_s": "s",
    "graph.sample_us_per_draw": "us",
    "graph.n_edges": "count",
    "graph.sampler_accept_ratio": "ratio",
    "optimizer.geometry_setup_s": "s",
    "optimizer.step_us": "us",
    "optimizer.objective_s": "s",
    "optimizer.support_size": "count",
    "kernel.objective_block_mb": "MB",
    "kernel.predict_block_mb": "MB",
    "harness.evaluate_s": "s",
    "cli.import_s": "s",
    "data.load_libsvm_s": "s",
    "graph.write_edges_s": "s",
    "graph.read_edges_s": "s",
    "optimizer.save_model_s": "s",
    "optimizer.load_model_s": "s",
    "labelprop.solve_exact_s": "s",
    "trace_overhead.setup_s": "s",
    "trace_overhead.train_s": "s",
    "trace_overhead.pass_s": "s",
}

SIGMA = 2.4  # kernel and edge bandwidth of criteria 04 and 05
KERNEL = KernelSpec(sigma_f=1.0, sigma_l=SIGMA)
HINGE = LossSpec("hinge")
P2 = SmoothnessSpec(2.0)
SEPARATION = data.separation_for_bayes_accuracy(0.95)
MB = 2.0**20
IO_N = labelprop.MAX_DENSE_VERTICES  # the size of cli-knn-2000

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class Recorder:
    """Timed samples per operation kind, plus attempted/failed counts.

    ``op`` runs one operation, times it and checks its result; an exception,
    a non-zero exit code or a failed check counts the operation as failed
    and records no time for it. Right after the operation the workload's
    ``reference`` bursts measure how slowly the CPU runs (see
    ``calibrate``; a workload without a reference is not scaled).
    ``finish`` reports every sample raw or scaled to reference speed.
    Inside ``run_pass`` the samples also add up per kind into that pass's
    totals, and the whole operations' times into the pass's own total,
    ``"pass"``.
    """

    def __init__(self, reference: str | None):
        self.reference = reference
        # (kind, seconds, slowness, pass number or None, whole operation)
        self.records: list[tuple[str, float, float, int | None, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._pass_no: int | None = None
        self._passes_started = 0
        self._good_passes: list[int] = []
        self._slowness = 1.0

    def add(self, kind: str, seconds: float, whole_op: bool = False) -> None:
        """One sample, at the speed measured after the last operation."""
        self.records.append((kind, seconds, self._slowness, self._pass_no, whole_op))

    def op(self, kind: str, work, check=None):
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = work()
            elapsed = time.perf_counter() - start
            slowness = calibrate.speed_after(self.reference, elapsed) if self.reference else 1.0
            if check is not None:
                check(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self._slowness = slowness
        self.add(kind, elapsed, whole_op=True)
        return result

    def times(self, kind: str) -> list[float]:
        """The raw times recorded so far for one kind."""
        return [r[1] for r in self.records if r[0] == kind]

    def run_pass(self, body) -> None:
        """Run one pass; a pass without failures adds one sample per kind."""
        self._pass_no = self._passes_started
        self._passes_started += 1
        failed_before = self.failed
        try:
            body()
        except Exception as exc:  # a failed check or call fails the pass, not the run
            self.failed += 1
            self.failures.append(f"pass: {type(exc).__name__}: {exc}")
        finally:
            number, self._pass_no = self._pass_no, None
        if self.failed == failed_before:
            self._good_passes.append(number)

    def finish(self, scaled: bool) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Samples per kind and pass totals per kind, at reference speed
        (``scaled``) or as measured."""
        samples: dict[str, list[float]] = {}
        passes: dict[int, dict[str, float]] = {n: {} for n in self._good_passes}
        for kind, seconds, slowness, number, whole_op in self.records:
            if scaled:
                seconds /= slowness
            samples.setdefault(kind, []).append(seconds)
            if number in passes:
                for key in (kind, "pass") if whole_op else (kind,):
                    passes[number][key] = passes[number].get(key, 0.0) + seconds
        per_pass: dict[str, list[float]] = {}
        for totals in passes.values():
            for key, seconds in totals.items():
                per_pass.setdefault(key, []).append(seconds)
        return samples, per_pass

    def slowness(self) -> list[float]:
        """Reference burst time over its nominal time, per operation."""
        return [r[2] for r in self.records if r[4]]


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def tracing(tracer):
    return tracer if tracer is not None else nullcontext()


def median_time(fn, reps: int = 5, budget_s: float = 3.0) -> tuple[float, object]:
    """Median wall time of fn() over up to ``reps`` calls (at least one,
    fewer once ``budget_s`` is spent), and the last result."""
    times, result = [], None
    stop = time.perf_counter() + budget_s
    while len(times) < reps and (not times or time.perf_counter() < stop):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def accept_ratio(edges, n: int) -> float:
    """Share of ordered index pairs the edge sampler keeps: 2|E|/n^2 for the
    implicit full graph, which rejection-samples pairs; 1 for explicit edges,
    which are drawn by index."""
    if isinstance(edges, graph.FullyConnectedEdges):
        return 2.0 * edges.n_edges / float(n * n)
    return 1.0


def import_time_s() -> float:
    """Cold ``import gkm.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import gkm.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip())


def probe_layers(dataset, truth, spec, cfg, scratch: Path, import_s=None) -> dict:
    """Per-layer measurements on a workload's own inputs.

    ``optimizer.step_us`` is (train(T) - train(1)) / (T - 1) with diagnostics
    off, and ``optimizer.geometry_setup_s`` is train(1). Block sizes are
    8 bytes x |support| x targets, the dense kernel blocks the objective and
    the prediction materialise.
    """
    fresh = lambda: data.Dataset(dataset.points, dataset.labels)  # noqa: E731
    out = {}
    out["data.dense_s"], _ = median_time(lambda: fresh().dense())
    ds = fresh()
    ds.dense()
    out["graph.build_s"], edges = median_time(lambda: graph.build_graph(ds, spec))
    rng = np.random.default_rng(0)
    draws = 4096
    per_batch, _ = median_time(lambda: edges.sample_batch(rng, draws), reps=20)
    out["graph.sample_us_per_draw"] = per_batch / draws * 1e6
    out["graph.n_edges"] = edges.n_edges
    out["graph.sampler_accept_ratio"] = accept_ratio(edges, ds.n)

    quiet = replace(cfg, diagnostics_every=None)
    t1, _ = median_time(lambda: optimizer.train(ds, edges, replace(quiet, T=1), KERNEL))
    tT, (model, _) = median_time(lambda: optimizer.train(ds, edges, quiet, KERNEL))
    out["optimizer.geometry_setup_s"] = t1
    out["optimizer.step_us"] = (tT - t1) / max(cfg.T - 1, 1) * 1e6
    obj_rng = np.random.default_rng(1)
    out["optimizer.objective_s"], _ = median_time(
        lambda: optimizer.objective(model, ds, edges, cfg, rng=obj_rng)
    )
    support = int(np.count_nonzero(model.beta))
    out["optimizer.support_size"] = support
    # exact mode evaluates all n points, sampled mode both ends of each edge
    targets = ds.n if cfg.objective_mode == "exact" else 2 * cfg.objective_samples
    out["kernel.objective_block_mb"] = 8.0 * support * targets / MB
    out["kernel.predict_block_mb"] = 8.0 * support * truth.n / MB
    out["harness.evaluate_s"], _ = median_time(lambda: harness.evaluate(model, truth))
    if import_s is None:
        import_s, _ = median_time(import_time_s, reps=3, budget_s=10.0)
    out["cli.import_s"] = import_s
    out.update(probe_io(ds, cfg, scratch))
    return out


def probe_io(dataset, cfg, scratch: Path) -> dict:
    """The file and propagation layers the command line uses (the calls that
    ``gkm graph export``, ``train``, ``predict`` and ``labelprop`` make in
    cli-knn-2000), in process, on up to IO_N evenly spaced points of a
    workload's inputs with a kNN graph (k=10)."""
    step = max(1, dataset.n // IO_N)
    sub = dataset.subset(np.arange(0, dataset.n, step)[:IO_N])
    edges = graph.build_graph(sub, graph.GraphSpec("knn", SIGMA, k=10))
    model, _ = optimizer.train(
        sub, edges, replace(cfg, T=min(cfg.T, IO_N), diagnostics_every=None), KERNEL
    )
    paths = {k: str(scratch / f"probe-{k}.txt") for k in ("data", "edges", "model")}
    out = {}
    data.save_libsvm(sub, paths["data"])
    out["data.load_libsvm_s"], _ = median_time(lambda: data.load_libsvm(paths["data"]))
    out["graph.write_edges_s"], _ = median_time(lambda: graph.write_edges(edges, paths["edges"]))
    out["graph.read_edges_s"], explicit = median_time(lambda: graph.read_edges(paths["edges"], sub.n))
    out["optimizer.save_model_s"], _ = median_time(lambda: optimizer.save_model(model, paths["model"]))
    out["optimizer.load_model_s"], _ = median_time(lambda: optimizer.load_model(paths["model"]))
    problem = labelprop.PropagationProblem(explicit, sub.labels)
    out["labelprop.solve_exact_s"], _ = median_time(lambda: labelprop.solve_exact(problem))
    return out


def train_config(C: float, T: int, seed: int, C_prime: float = 0.1, loss=HINGE, **kw):
    """p=2 smoothness, the setting every workload uses; hinge loss unless given."""
    return optimizer.TrainConfig(
        C=C, C_prime=C_prime, loss=loss, smoothness=P2, T=T, seed=seed, **kw
    )


class StandIn550:
    """The paper's 550x50 two-Gaussian stand-in under criterion 05's
    model-selection protocol: hinge, p=2, C'=0.1, C in 2^-3..2^3, five label
    draws, T=5000, implicit full graph. One pass is the whole selection."""

    name = "standin-550"
    reference = "loop"  # times scaled to this burst's speed (calibrate.py)
    why = (
        "Gram-cache side: the per-step Python loop is nearly all the cost, so a "
        "step-loop change shows here and a kernel-block or memory change must read no change"
    )
    layers = {
        "data.dense_s": "setup_s",
        "graph.sample_us_per_draw": "train_s",
        "graph.n_edges": "train_s",
        "graph.sampler_accept_ratio": "train_s",
        "optimizer.geometry_setup_s": "setup_s",
        "optimizer.step_us": "train_s",
        "optimizer.support_size": "pass_s",
        "kernel.predict_block_mb": "pass_s",
        "harness.evaluate_s": "pass_s (predict, small)",
    }

    DATA_SEED = 0  # criterion 05's instance; the 0.90 bar is set on it

    def __init__(self, seed: int, scratch: Path, smoke: bool = False):
        self.scratch = scratch
        n = 80 if smoke else 550
        self.T = 300 if smoke else 5000
        self.grid = [1.0] if smoke else [2.0**k for k in range(-3, 4)]
        # the workload seed picks the five label draws (and SGD seeds)
        self.draws = [5 * seed + k for k in range(2 if smoke else 5)]
        self.full = data.synth_two_gaussians(n, 50, SEPARATION, self.DATA_SEED)
        self.min_accuracy = 0.0 if smoke else 0.90  # criterion 05's bar
        self.config = train_config(C=1.0, T=self.T, seed=0)
        self.spec = graph.GraphSpec("full", SIGMA)

    def setup(self, tracer=None):
        prepared = []
        with tracing(tracer):
            for draw in self.draws:
                hidden, truth = data.hide_labels(self.full, 0.8, seed=draw)
                edges = graph.build_graph(hidden, self.spec)
                hidden.dense()
                optimizer.train(hidden, edges, replace(self.config, T=1, seed=draw), KERNEL)
                test = truth.subset(np.arange(hidden.labeled_count, hidden.n))
                prepared.append((draw, hidden, edges, test))
        return prepared

    def run_pass(self, rec: Recorder, prepared, tracer=None, report=None):
        best = 0.0
        with tracing(tracer):
            for C in self.grid:
                accs = []
                for draw, hidden, edges, test in prepared:
                    cfg = replace(self.config, C=C, seed=draw)
                    fit = rec.op("train", lambda: optimizer.train(hidden, edges, cfg, KERNEL))
                    if fit is None:
                        continue
                    model = fit[0]
                    ev = rec.op("predict", lambda: harness.evaluate(model, test))
                    if ev is not None:
                        accs.append(ev.accuracy)
                require(len(accs) == len(prepared), f"C={C}: fits or evaluations failed")
                best = max(best, float(np.median(accs)))
        report["accuracy"] = best
        require(best >= self.min_accuracy, f"best median hidden-label accuracy {best:.4f} < 0.90")

    def probe(self, prepared):
        draw, hidden, _, test = prepared[0]
        # the stand-in never evaluates J; the probe times the sampled
        # objective gkm would compute on this graph of > 1e5 edges
        cfg = replace(self.config, seed=draw, objective_mode="sampled")
        return probe_layers(hidden, test, self.spec, cfg, self.scratch)


class Stream10k:
    """10 000x50, 80% hidden, full graph, hinge p=2: one fit at gkm train's
    default T (0.2 n) with the final sampled objective gkm train computes,
    then evaluate on all points."""

    name = "stream-10k"
    reference = "blocks"  # times scaled to this burst's speed (calibrate.py)
    why = (
        "streaming side of the Gram cap: the sampled objective and evaluate "
        "materialise support x targets kernel blocks, so chunked blocks and a blocked trainer show here"
    )
    layers = {
        "data.dense_s": "setup_s (small share)",
        "graph.sample_us_per_draw": "train_s (small)",
        "optimizer.step_us": "train_s",
        "optimizer.objective_s": "train_s, peak_rss_mb",
        "kernel.objective_block_mb": "peak_rss_mb",
        "kernel.predict_block_mb": "peak_rss_mb",
        "harness.evaluate_s": "pass_s (predict, dominant)",
    }

    def __init__(self, seed: int, scratch: Path, smoke: bool = False):
        self.scratch = scratch
        n = 2100 if smoke else 10_000  # smoke: just past the Gram cap
        self.seed = seed
        self.full = data.synth_two_gaussians(n, 50, SEPARATION, seed)
        T = optimizer.default_iterations(n)
        # "sampled" is what gkm train's "auto" picks for this many edges
        self.config = train_config(
            C=1.0, T=T, seed=seed, diagnostics_every=T, objective_mode="sampled"
        )
        if smoke:
            self.config = replace(self.config, T=300, diagnostics_every=300, objective_samples=500)
        self.spec = graph.GraphSpec("full", SIGMA)

    def setup(self, tracer=None):
        with tracing(tracer):
            hidden, truth = data.hide_labels(self.full, 0.8, seed=self.seed)
            edges = graph.build_graph(hidden, self.spec)
            hidden.dense()
            optimizer.train(hidden, edges, replace(self.config, T=1, diagnostics_every=None), KERNEL)
        return hidden, truth, edges

    def run_pass(self, rec: Recorder, state, tracer=None, report=None):
        hidden, truth, edges = state
        with tracing(tracer):
            fit = rec.op("train", lambda: optimizer.train(hidden, edges, self.config, KERNEL))
            require(fit is not None, "training failed")
            model, diag = fit
            ev = rec.op("predict", lambda: harness.evaluate(model, truth))
        require(ev is not None, "evaluate failed")
        j = float(diag.trace_j_avg[-1])
        require(math.isfinite(j), f"final objective {j} is not finite")
        hidden_pts = truth.points[hidden.labeled_count:]
        dec = optimizer.decision_values(model, hidden_pts)
        require(bool(np.all(np.isfinite(dec))), "non-finite decision values")
        acc = float(np.mean(np.where(dec >= 0.0, 1, -1) == truth.labels[hidden.labeled_count:]))
        report["accuracy"] = acc
        report["objective_j"] = j

    def probe(self, state):
        hidden, truth, _ = state
        return probe_layers(hidden, truth, self.spec, self.config, self.scratch)


class CliKnn2000:
    """Four ``gkm`` processes on files at n=2000 (labelprop's dense cap):
    graph export --graph knn --k 10, train --graph knn, predict, labelprop."""

    name = "cli-knn-2000"
    # Raw times: the work runs in child processes and is mostly cold
    # imports, whose speed neither burst tracks (scaling made the spread
    # over seeds worse, also with the burst run inside the child).
    reference = None
    why = (
        "the only workload with parsing and writing, the explicit-edge sampler, the kNN build, "
        "model save/load and a cold import per process"
    )
    layers = {
        "cli.import_s": "setup_s, train_s, pass_s",
        "data.load_libsvm_s": "setup_s, train_s, pass_s",
        "graph.build_s": "setup_s, train_s (kNN)",
        "graph.write_edges_s": "setup_s",
        "graph.read_edges_s": "pass_s (labelprop)",
        "optimizer.geometry_setup_s": "train_s",
        "optimizer.objective_s": "train_s (exact)",
        "optimizer.save_model_s": "train_s",
        "optimizer.load_model_s": "pass_s (predict)",
        "labelprop.solve_exact_s": "pass_s (labelprop)",
    }

    def __init__(self, seed: int, scratch: Path, smoke: bool = False):
        n = 200 if smoke else 2000
        self.seed = seed
        self.T = optimizer.default_iterations(n)
        full = data.synth_two_gaussians(n, 50, SEPARATION, seed)
        self.hidden, self.truth = data.hide_labels(full, 0.8, seed=seed)
        self.dir = scratch
        self.files = {k: str(scratch / f"{k}.txt") for k in
                      ("data", "truth", "labels", "edges", "model", "pred", "lp")}
        # labeled points come first in both files, so load_libsvm keeps this order
        data.save_libsvm(self.hidden, self.files["data"])
        data.save_libsvm(self.truth, self.files["truth"])
        with open(self.files["labels"], "w") as fh:
            fh.writelines(f"{int(y)}\n" for y in self.hidden.labels)
        self.graph_flags = ["--graph", "knn", "--k", "10", "--sigma-s", str(SIGMA)]
        self.spec = graph.GraphSpec("knn", SIGMA, k=10)
        self.config = train_config(C=1.0, T=self.T, seed=seed, diagnostics_every=self.T)
        self.import_times: list[float] = []

    def _gkm(self, args, tracer) -> subprocess.CompletedProcess:
        if tracer is None:
            cmd = [sys.executable, "-m", "gkm.cli", *args]
        else:
            spans_path = self.dir / "child-spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=90)
        if proc.returncode != 0:
            raise CheckFailed(f"gkm {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if tracer is not None:
            with open(spans_path) as fh:
                child = json.load(fh)
            tracer.extend(child["spans"])
            self.import_times.append(child["import_s"])
        return proc

    def setup(self, tracer=None):
        args = ["graph", "export", self.files["data"], *self.graph_flags, "--out", self.files["edges"]]
        self._gkm(args, tracer)
        return self.files["edges"]

    def run_pass(self, rec: Recorder, state, tracer=None, report=None):
        f = self.files
        train_args = [
            "train", f["data"], *self.graph_flags, "--sigma-l", str(SIGMA),
            "--loss", "hinge", "--p", "2", "--C", "1", "--C-prime", "0.1",
            "--T", str(self.T), "--seed", str(self.seed), "--model-out", f["model"],
        ]
        ok = rec.op("train", lambda: self._gkm(train_args, tracer))
        require(ok is not None, "gkm train failed")
        predict_args = ["predict", f["truth"], "--model-in", f["model"], "--out", f["pred"]]
        rec.op("predict", lambda: self._gkm(predict_args, tracer), check=lambda _: self._check_predict(report))
        lp_args = ["labelprop", f["edges"], f["labels"], "--out", f["lp"]]
        rec.op("labelprop", lambda: self._gkm(lp_args, tracer), check=lambda _: self._check_labelprop())

    def _check_predict(self, report) -> None:
        with open(self.files["pred"]) as fh:
            got = np.array([int(line) for line in fh if line.strip()], dtype=np.int8)
        model = optimizer.load_model(self.files["model"])
        want = optimizer.predict_batch(model, self.truth.points)
        require(np.array_equal(got, want), "gkm predict output differs from predict_batch")
        l = self.hidden.labeled_count
        report["accuracy"] = float(np.mean(got[l:] == self.truth.labels[l:]))

    def _check_labelprop(self) -> None:
        with open(self.files["lp"]) as fh:
            f = np.array([float(line.split()[0]) for line in fh if line.strip()])
        lab = self.hidden.labels
        require(f.shape == lab.shape, "labelprop output has the wrong length")
        clamped = lab != 0
        require(bool(np.all(f[clamped] == lab[clamped])), "labelprop moved a clamped label")
        lo, hi = float(lab[clamped].min()), float(lab[clamped].max())
        require(bool(np.all((f >= lo - 1e-10) & (f <= hi + 1e-10))),
                "labelprop scores break the maximum principle")

    def probe(self, state):
        import_s = statistics.median(self.import_times) if self.import_times else None
        # gkm train's "auto" objective is exact on a kNN graph this small
        cfg = replace(self.config, objective_mode="exact")
        return probe_layers(self.hidden, self.truth, self.spec, cfg, self.dir, import_s=import_s)


class Converge30:
    """Criterion 04's instance (30x50, data seed 2, C=64, sigma=2.4, exact
    objective): hinge p=2 (subgradient oracle) and logistic p=2 (Armijo
    oracle), T in {500, 2000, 8000}, five SGD seeds drawn from the workload
    seed. Runnable on its own and in ``--workload all``, but not gated in
    BENCHMARK.json: its ~10 s passes leave few samples per run, and a fourth
    gated workload would not fit the time all gated runs may take (see
    README)."""

    name = "converge-30"
    reference = "loop"  # times scaled to this burst's speed (calibrate.py)
    why = (
        "the reference oracle is ~90% of the run and both solver branches run, "
        "so an oracle change that speeds one branch and slows the other shows"
    )
    layers = {
        "harness.reference_subgradient_s": "pass_s (converge)",
        "harness.reference_armijo_s": "pass_s (converge)",
        "harness.reference_iterations": "pass_s (converge)",
        "harness.sweep_train_s": "train_s",
        "optimizer.step_us": "train_s (minor)",
        "optimizer.objective_s": "train_s (exact)",
    }
    DATA_SEED = 2  # the workload seed picks the SGD seeds, not the data

    def __init__(self, seed: int, scratch: Path, smoke: bool = False):
        self.scratch = scratch
        self.full = data.synth_two_gaussians(30, 50, SEPARATION, seed=self.DATA_SEED)
        self.T_grid = [50, 200] if smoke else [500, 2000, 8000]
        self.seeds = [5 * seed + k for k in range(2 if smoke else 5)]
        self.oracle_max_iter = 2000 if smoke else 1_000_000
        self.configs = [
            train_config(C=64.0, C_prime=0.05, loss=LossSpec(kind), T=1, seed=0,
                         objective_mode="exact")
            for kind in ("hinge", "logistic")
        ]
        self.spec = graph.GraphSpec("full", SIGMA)

    def setup(self, tracer=None):
        with tracing(tracer):
            hidden, truth = data.hide_labels(self.full, 0.8, seed=self.DATA_SEED)
            edges = graph.build_graph(hidden, self.spec)
            hidden.dense()
            optimizer.train(hidden, edges, self.configs[0], KERNEL)
        return hidden, truth, edges

    def run_pass(self, rec: Recorder, state, tracer=None, report=None):
        hidden, _, edges = state
        oracle_calls = []
        solve = harness.solve_reference_optimum

        def timed_solve(ds, g, cfg, kernel, **kw):
            start = time.perf_counter()
            ref = solve(ds, g, cfg, kernel, **kw)
            smooth = cfg.loss.kind == "logistic" and cfg.smoothness.p >= 2.0
            oracle_calls.append(("armijo" if smooth else "subgradient",
                                 time.perf_counter() - start, ref.iterations))
            return ref

        # run_convergence_experiment looks the oracle up in gkm.harness at
        # call time; timing it there splits the oracle from the sweep
        harness.solve_reference_optimum = timed_solve
        try:
            with tracing(tracer):
                runs = rec.op("converge", lambda: harness.run_convergence_experiment(
                    hidden, edges, self.configs, self.T_grid, self.seeds, KERNEL,
                    oracle_max_iter=self.oracle_max_iter,
                ))
        finally:
            harness.solve_reference_optimum = solve
        require(runs is not None, "run_convergence_experiment failed")
        require(len(oracle_calls) == len(self.configs), "oracle calls were not observed")
        oracle_s = sum(c[1] for c in oracle_calls)
        rec.add("train", rec.records[-1][1] - oracle_s)
        for kind, seconds, iterations in oracle_calls:
            rec.add(f"oracle.{kind}", seconds)
            report[f"harness.reference_{kind}_iterations"] = iterations
        report["harness.reference_iterations"] = sum(c[2] for c in oracle_calls)
        report["oracle_residual"] = max(r.oracle_residual for r in runs)
        for run in runs:
            cfg = run.config
            bound = gkm.compute_bounds(cfg.C, cfg.C_prime, cfg.smoothness.p, R=1.0, A=1.0)
            med = np.median(run.delta_jt, axis=1)
            label = f"{cfg.loss.kind} p={cfg.smoothness.p}"
            require(bool(np.all(med <= 2.0 * bound.G**2)), f"{label}: median dT {med} above 2G^2")
            floor = -10.0 * run.oracle_residual * np.asarray(run.T_grid, dtype=float)[:, None]
            require(bool(np.all(run.delta_jt >= floor)), f"{label}: dT below -10 residual T")

    def probe(self, state):
        hidden, truth, _ = state
        cfg = replace(self.configs[0], T=max(self.T_grid), seed=self.seeds[0])
        return probe_layers(hidden, truth, self.spec, cfg, self.scratch)


WORKLOADS = {w.name: w for w in (StandIn550, Stream10k, CliKnn2000, Converge30)}
