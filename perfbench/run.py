"""gkm benchmark: one workload per run, or all four in a row.

    python3 perfbench/run.py --workload standin-550 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from the root of a gkm checkout; it imports gkm from ``src/`` and
runs the ``gkm`` command line as ``python3 -m gkm.cli`` with that path.
A run sets up its workload several times (``setup_s`` is the median), then
repeats closed-loop passes for ``--seconds`` (at least three). ``--trace 0`` reports the
end-to-end metrics; a workload with a ``reference`` burst reports its times
at that burst's reference speed (``calibrate.py``), raw times beside them.
``--trace 1`` alternates untraced and traced passes,
probes each layer, and reports the per-layer metrics, including the
tracing overhead (traced minus untraced median).

Standard output holds a report (environment, every timing as median and
tail percentile with its sample count, computed counts, per-layer self
times when traced); its last line is the result object
{"correct", "attempted", "failed", "metrics"}. The full report is also
written under perfbench/out/.
"""

import os
import sys

# BLAS threads are pinned in the benchmark's own environment, before numpy
# loads, and child processes inherit the setting; gkm itself is untouched.
# One thread keeps the benchmark's load on one CPU of a shared host (a
# second BLAS thread competes with other tenants, and gkm's blocks are small).
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SETUPS = 3
MIN_PASSES = 3  # an untraced run's medians rest on at least this many passes
MIN_TRACED_PASSES = 4  # a traced run alternates: two untraced and two traced at least
SETUP_BUDGET_S = 0.25  # a round of cheap set-ups repeats until this much time is spent
SETUPS_PER_ROUND = 20  # at most, in one round of set-ups
CHEAP_SETUP_S = 0.5  # set-ups cheaper than this also run between passes
REPORTED_METRICS = [  # the report's table, per workload
    ("setup_s", "s"), ("train_s", "s"), ("predict_s", "s"), ("labelprop_s", "s"),
    ("converge_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("accuracy", "fraction"),
    ("oracle_residual", "J"), ("error_rate", "fraction"),
]
SAMPLE_OF = {"predict_s": "predict", "labelprop_s": "labelprop", "converge_s": "converge"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_gkm():
    if not (SRC / "gkm" / "__init__.py").is_file():
        fail(f"no gkm sources under {SRC}; run from the root of a gkm checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import gkm

    if Path(gkm.__file__).resolve().parent != (SRC / "gkm").resolve():
        fail(f"imported gkm from {gkm.__file__}, not from {SRC}")


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            ordered = sorted(values)
            best = (f"p{q:g}", ordered[min(n - 1, math.ceil(q / 100.0 * n) - 1)])
    return best


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    t = tail(values)
    if t is not None:
        out[t[0]] = t[1]
    return out


def environment(workload: str, seed: int, smoke: bool) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "workload": workload, "seed": seed, "smoke": smoke, "nproc": NPROC,
        "blas": blas_name, "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, seconds: float, trace: bool) -> dict:
    from spans import Tracer, durations, self_times
    from workloads import Recorder

    plain, traced = Recorder(wl.reference), Recorder(wl.reference)
    tracer = Tracer() if trace else None
    report: dict = {}

    state = None
    setups = 0

    def set_up(min_reps: int, budget_s: float) -> None:
        """Timed set-ups, alternating traced and untraced when tracing; the
        first one that succeeds provides the state the passes use."""
        nonlocal state, setups
        began, done = time.perf_counter(), 0
        while done < min_reps or (
            done < SETUPS_PER_ROUND and time.perf_counter() - began < budget_s
        ):
            use_tracer = trace and setups % 2 == 1
            rec = traced if use_tracer else plain
            gc.collect()  # every timed set-up and pass starts from the same collector state
            got = rec.op("setup", lambda: wl.setup(tracer if use_tracer else None))
            state = got if state is None else state
            setups += 1
            done += 1

    set_up(MIN_SETUPS * (2 if trace else 1), SETUP_BUDGET_S)
    setup_spans = len(tracer.spans) if trace else 0

    # passes: at least the minimum, then more while the next one, as long as
    # the median pass so far, still ends within the run. Untraced,
    # cheap set-ups are also repeated after each pass, so that set-up samples
    # spread over the run like the passes do instead of sitting at its start.
    if state is not None:
        start = time.perf_counter()
        lengths: list[float] = []
        while len(lengths) < (MIN_TRACED_PASSES if trace else MIN_PASSES) or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds
        ):
            use_tracer = trace and len(lengths) % 2 == 1
            rec = traced if use_tracer else plain
            gc.collect()
            began = time.perf_counter()
            rec.run_pass(lambda: wl.run_pass(rec, state, tracer if use_tracer else None, report))
            lengths.append(time.perf_counter() - began)
            if not trace and statistics.median(plain.times("setup") or [1.0]) < CHEAP_SETUP_S:
                set_up(1, SETUP_BUDGET_S)

    samples, per_pass = plain.finish(scaled=True)
    samples_raw, per_pass_raw = plain.finish(scaled=False)
    result = {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
        "timings": {f"{k}_s": summary(v) for k, v in samples.items()},
        "per_pass": {f"{k}_s": summary(v) for k, v in per_pass.items()},
        "timings_raw": {f"{k}_s": summary(v) for k, v in samples_raw.items()},
        "per_pass_raw": {f"{k}_s": summary(v) for k, v in per_pass_raw.items()},
        "reference": wl.reference,
        "reference_slowness": summary(plain.slowness()) if wl.reference else None,
        "peak_rss_mb": peak_rss_mb(),
        "extras": report,
    }
    if trace:
        traced_samples, traced_per_pass = traced.finish(scaled=True)
        result["traced_per_pass"] = {f"{k}_s": summary(v) for k, v in traced_per_pass.items()}
        layer = wl.probe(state) if state is not None else {}
        for k in ("setup", "train", "pass"):
            a = samples.get(k) if k == "setup" else per_pass.get(k)
            b = traced_samples.get(k) if k == "setup" else traced_per_pass.get(k)
            layer[f"trace_overhead.{k}_s"] = (
                statistics.median(b) - statistics.median(a) if a and b else 0.0
            )
        result["per_layer"] = layer
        n_traced = max(len(traced_per_pass.get("pass", [])), 1)
        selfs = self_times(tracer.spans[setup_spans:])
        result["span_self_s_per_pass"] = {k: sum(v) / n_traced for k, v in sorted(selfs.items())}
        layer_self: dict[str, float] = {}
        for name, per_call in result["span_self_s_per_pass"].items():
            mod = name.split(".")[0]
            layer_self[mod] = layer_self.get(mod, 0.0) + per_call
        result["layer_self_s_per_pass"] = layer_self
        result["span_calls"] = {k: summary(v) for k, v in sorted(durations(tracer.spans).items())}
        result["spans"] = tracer.spans
    return result


def reported_table(result: dict, raw: bool = False) -> dict:
    """The ten reported end-to-end figures of one workload (None = n/a);
    times at reference speed, or as measured when ``raw``."""
    per_pass, timings = ("per_pass_raw", "timings_raw") if raw else ("per_pass", "timings")
    t = {**result[per_pass], "setup_s": result[timings].get("setup_s")}
    ex = result["extras"]
    out = {}
    for name, _ in REPORTED_METRICS:
        if name == "peak_rss_mb":
            out[name] = result["peak_rss_mb"]
        elif name in ("accuracy", "oracle_residual"):
            out[name] = ex.get(name)
        elif name == "error_rate":
            out[name] = result["failed"] / max(result["attempted"], 1)
        else:
            key = f"{SAMPLE_OF.get(name, name[:-2])}_s"
            out[name] = t.get(key)
    return out


def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, dict):
        s = f"{v['median']:.4g}"
        extra = [f"{k} {x:.4g}" for k, x in v.items() if k.startswith("p")]
        return s + (f" ({', '.join(extra)}; n={v['n']})" if extra else f" (n={v['n']})")
    return f"{v:.4g}"


def run_one(args) -> int:
    load_gkm()
    from workloads import END_TO_END, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"{tag}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch, smoke=args.smoke)
        result = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["environment"] = environment(args.workload, args.seed, args.smoke)
    result["layer_to_end_to_end"] = wl.layers
    result["reported_metrics"] = reported_table(result)
    raw = reported_table(result, raw=True)

    print(f"# gkm benchmark: {json.dumps(result['environment'])}")
    if wl.reference:
        print(f"# times at the speed of reference burst {wl.reference!r}; raw = as measured; "
              f"burst time over nominal {fmt(result['reference_slowness'])}")
    for name, unit in REPORTED_METRICS:
        line = f"{name:<16} {fmt(result['reported_metrics'][name]):<44} {unit}"
        if unit == "s":
            line += f"  raw {fmt(raw[name])}"
        print(line)
    for name, v in sorted(result["timings"].items()):
        print(f"per operation {name:<24} {fmt(v)} s  raw {fmt(result['timings_raw'][name])}")
    for name, v in sorted(result["extras"].items()):
        print(f"computed {name:<40} {fmt(v)}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for line in result["failures"]:
        print(f"failure: {line}")
    for name, moves in wl.layers.items():
        print(f"layer {name:<34} moves {moves}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{name:<30} {fmt(result['per_layer'].get(name)):<14} {unit}")
        for mod, s in sorted(result["layer_self_s_per_pass"].items()):
            print(f"self time per traced pass  {mod:<10} {s:.4g} s")
        for name, v in result["span_calls"].items():
            print(f"span {name + '_s':<34} {fmt(v)} s per call")

    if args.trace:
        declared = {k: (result["per_layer"].get(k), u) for k, u in PER_LAYER.items()}
    else:
        table = result["reported_metrics"]
        declared = {
            k: (table[k]["median"] if isinstance(table[k], dict) else table[k], u)
            for k, u in END_TO_END.items()
        }
    complete = all(v is not None for v, _ in declared.values())
    metrics = {k: {"value": float(v) if v is not None else 0.0, "unit": u}
               for k, (v, u) in declared.items()}
    line = {
        "correct": result["failed"] == 0 and complete,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**result, "result": line}, fh, indent=1)
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, in a row (peak RSS stays per
    workload), then one table of the reported figures."""
    load_gkm()
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    tables, metrics, totals = {}, {}, {"attempted": 0, "failed": 0}
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"{tag}.json") as fh:
            res = json.load(fh)
        tables[name] = res["reported_metrics"]
        metrics.update({f"{name}.{k}": v for k, v in res["result"]["metrics"].items()})
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
    print()
    print(f"{'metric':<16}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for metric, unit in REPORTED_METRICS:
        cells = []
        for n in names:
            v = tables[n][metric]
            cells.append("n/a" if v is None else f"{(v['median'] if isinstance(v, dict) else v):.4g}")
        print(f"{metric:<16}" + "".join(f"{c:>16}" for c in cells) + f"  {unit}")
    print(json.dumps({"correct": totals["failed"] == 0, **totals, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
