"""Rewrite the committed reference outputs from one invocation per workload.

    PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

runs each workload once at the default seed and copies its reference files
into bench/reference/<workload>/. Do this only for a change that is meant to
alter the outputs, and record it in CHANGES.md: the reference is what every
run at the default seed is checked against.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import longicausal.cli as cli

from gen_inputs import generate
from workloads import DEFAULT_SEED, REFERENCE_OUTPUTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR.parent / ".bench_work"


def main(names: list[str]) -> None:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            work = Path(tmp)
            argv = list(workload.argv)
            if workload.is_mc:
                argv += ["--seed", str(DEFAULT_SEED)]
            else:
                generate(work, DEFAULT_SEED)
                argv += ["--wells", str(work / "wells.csv"), "--catalog", str(work / "catalog.csv")]
            out = work / "out"
            if cli.main(argv + ["--out-dir", str(out)]) != 0:
                raise SystemExit(f"{name}: the CLI failed")
            ref = BENCH_DIR / "reference" / name
            ref.mkdir(parents=True, exist_ok=True)
            for f in REFERENCE_OUTPUTS:
                if (out / f).exists():
                    shutil.copyfile(out / f, ref / f)
            print(f"{name}: wrote {sorted(p.name for p in ref.iterdir())}")


if __name__ == "__main__":
    main(sys.argv[1:])
