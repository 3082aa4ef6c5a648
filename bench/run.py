"""Benchmark of the longicausal CLI, end to end and per layer.

    python3 bench/run.py --workload {mc-n50,mc-n600,analyze-raw} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. It uses the package source under src/
(nothing is installed), generates the workload's inputs from --seed outside
every timed interval, measures the cold import time of longicausal.cli in
fresh interpreters, then runs the workload in one more fresh interpreter
(worker.py) for --seconds. Every invocation's outputs are checked. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The lines before it are the same numbers for a reader, plus the
machine record. NOTES.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
from workloads import DEFAULT_SEED, END_TO_END, PER_LAYER, THREAD_ENV, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
SUBPROCESS_TIMEOUT_S = 150
# import time, then the calibration factor measured in the same interpreter
# right after it (the first kernel run warms up numpy's first calls and is dropped)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import longicausal.cli; s = time.perf_counter() - t; "
    "import calibrate; calibrate.kernel(); print(s, calibrate.scale(calibrate.run_for(0.15)))"
)


def _env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env: dict[str, str]) -> list[tuple[float, float]]:
    """(seconds, calibration factor) of a cold import of longicausal.cli, once per fresh interpreter."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=dict(env, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH_DIR}"),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            check=True,
        )
        seconds, factor = proc.stdout.split()
        out.append((float(seconds), float(factor)))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not (SRC / "longicausal" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'longicausal'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[a.workload]
    env = _env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{a.workload}-", dir=WORK_ROOT))
    try:
        if not workload.is_mc:
            from gen_inputs import generate

            generate(work, a.seed)
        setup = [] if a.trace else setup_seconds(env)  # setup_s is an end-to-end metric
        cmd = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
            "--work", str(work),
            "--src", str(SRC),
        ]
        if a.trace:
            cmd += ["--spans-out", str(WORK_ROOT / f"spans-{a.workload}-seed{a.seed}.jsonl")]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if a.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        res["metrics"]["setup_s"] = statistics.median(s * f for s, f in setup)
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}

    print(f"workload: {a.workload}  seed: {a.seed}  seconds: {a.seconds}  trace: {a.trace}")
    print(f"machine: {json.dumps(res['machine'])}")
    print(f"invocations: {json.dumps(res['invocations'])}  worker import_s: {res['import_s']:.4f}")
    if setup:
        print(f"setup_s raw samples: {', '.join(f'{s:.4f}' for s, _ in setup)}")
        print(f"setup_s calibration factors: {', '.join(f'{f:.4f}' for _, f in setup)}")
    print(f"untraced wall raw samples: {', '.join(f'{s:.4f}' for s, _ in res['raw_untraced'])}")
    print(f"untraced calibration factors: {', '.join(f'{f:.4f}' for _, f in res['raw_untraced'])}")
    print(f"untraced wall samples (reference s): {', '.join(f'{s:.4f}' for s in res['untraced_walls'])}")
    print(f"calibration kernel: mean {res['kernel_mean_s']:.5f} s over {res['kernel_runs']} runs")
    if a.trace:
        print(f"traced wall samples (reference s): {', '.join(f'{s:.4f}' for s in res['traced_walls'])}")
    for err in res["errors"]:
        print(f"check failed: {err}")
    if not a.trace:  # end-to-end figures that carry no bound
        print(f"failed_frac: {res['failed_frac']} ratio ({res['failed']} of {res['attempted']})")
        if workload.is_mc:
            print(f"replicates_per_s: {res['metrics']['ops_per_s']:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
