"""Smoke self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload of the benchmark (those in BENCHMARK.json and
cli-knn-2000 and converge-30, which run outside the gated set), runs ``run.py --smoke``
untraced and traced, and asserts that the run exits 0, that its output checks pass, and
that its last line is the result object carrying exactly the declared
end-to-end (untraced) or per-layer (traced) metric names, each with its
declared unit. It also runs the benchmark from a directory that holds only
BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + ["cli-knn-2000", "converge-30"]:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: output checks failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{where}: metrics {got} != declared {declared[trace]}")
            print(f"{where}: {len(got)} metrics, correct={result['correct']}")

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without gkm sources the benchmark did not fail cleanly")
    print(f"without gkm sources: exit {proc.returncode}")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
