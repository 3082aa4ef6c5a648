"""Run the benchmark on two checkouts in alternating pairs and write every run to one JSON file.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W [--workload W ...] --pairs N \
        [--seconds S] [--trace 0|1] --out BENCH_<n>.json

For each workload, pair i runs `python3 ROOT/bench/run.py --workload W --trace T [--seconds S]` in
PARENT_ROOT and in CHANGE_ROOT, one after the other: the parent first when i is even, the change first when
it is odd. So each side is timed by its own checkout's bench, as a reviewer would run it, and neither side
always runs on a warmer machine.

The file holds, per workload, every run's `correct`, `attempted`, `failed` and metrics (the end-to-end
metrics with --trace 0, each stage's self time and count with --trace 1), and for every metric that
PARENT_ROOT's BENCHMARK.json gives a direction: each side's median and quartiles, and how many pairs the
change won (ties count for neither side). It also records the machine, the Python, numpy, scipy and
OpenBLAS versions, the PYTHONDONTWRITEBYTECODE value that every bench/run.py inherits (when it is set,
each import probe compiles src/ afresh, and `setup_s` includes that compile time), and each root's commit. It judges nothing; a claim's gate is stated where it is made.
Nothing is written in either checkout except what bench/run.py itself writes there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _commit(root: Path) -> dict:
    """The commit checked out at `root`, and whether tracked files differ from it; None outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    modified = None if head is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"commit": head, "modified": modified}


def _machine() -> dict:
    import numpy as np
    import scipy

    models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")] if Path("/proc/cpuinfo").exists() else []
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": sorted(set(models)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _bench(root: Path, workload: str, args: argparse.Namespace) -> dict:
    """One bench/run.py run in `root`: its verdict and {metric: value}."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**result, "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def _summary(pairs: list[dict], better: str) -> dict:
    """Each side's median and quartiles of one metric, and the pairs the change won."""
    sides = {side: [pair[side] for pair in pairs] for side in ("parent", "change")}
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(sides["parent"], sides["change"]))
    out = {"better": better, "pairs": len(pairs), "change_wins": wins}
    for side, values in sides.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[side] = {"median": median, "q1": q1, "q3": q3}
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    p.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    p.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, help="bench/run.py --seconds (default: its own)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in metrics["end_to_end"] + metrics["per_layer"]}
    end_to_end = [m["name"] for m in metrics["end_to_end"]]

    workloads = {}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs.append({"first": order[0], **{side: _bench(roots[side], workload, args) for side in order}})
            shown = {name: {side: runs[-1][side]["metrics"].get(name) for side in order} for name in end_to_end}
            values = "; ".join(f"{name} {sides}" for name, sides in shown.items())
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): {values}", file=sys.stderr)
        names = [name for name in runs[0]["parent"]["metrics"] if name in better]
        workloads[workload] = {
            "runs": runs,
            "summary": {name: _summary([{side: run[side]["metrics"][name] for side in roots} for run in runs],
                                       better[name]) for name in names},
        }

    record = {
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "trace": args.trace},
        "machine": _machine(),
        **{side: _commit(root) for side, root in roots.items()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
