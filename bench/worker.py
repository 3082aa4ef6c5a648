"""One workload run, in a fresh interpreter started by run.py.

Imports the CLI, calls `longicausal.cli.main(argv)` in a closed loop with one
client (the next invocation starts when the previous one has returned) until
the time is up, checks every invocation's outputs, and prints one JSON line
with the measurements. With --trace 1 it alternates untraced and traced
invocations; the traced ones give the per-layer metrics.

run.py sets PYTHONPATH, the thread settings and the inputs; see NOTES.md.
"""

import time

_t0 = time.perf_counter()
import longicausal.cli as cli  # noqa: E402  (timed: the import is what users wait for)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ANALYZE_OUTPUTS,
    DEFAULT_SEED,
    MC_OUTPUTS,
    PER_LAYER,
    REFERENCE_OUTPUTS,
    THREAD_ENV,
    WORKLOADS,
)

BENCH_DIR = Path(__file__).resolve().parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

# span name -> layer metric prefix; spans not listed use their own name
_LAYER_OF_SPAN = {"simulate.replicate": "simulate.harness"}
_ATTR_COUNTS = {
    "simulate.harness": {"replicates": "simulate.replicates", "failed": "simulate.failed"},
    "geo.load_wells": {"n": "geo.wells"},
    "geo.load_catalog": {"n": "geo.events"},
    "geo.assign": {
        "after_cut": "geo.events_after_cut",
        "assigned": "geo.events_assigned",
        "unassigned": "geo.events_unassigned",
    },
}


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_ENV},
    }


class Run:
    """Invokes the CLI for one workload and checks each invocation's outputs."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.argv = list(workload.argv)
        if workload.is_mc:
            self.argv += ["--seed", str(seed)]
            self.outputs = MC_OUTPUTS
            self.input_digests = {}
            self.expected = None
        else:
            wells, catalog = work / "wells.csv", work / "catalog.csv"
            self.argv += ["--wells", str(wells), "--catalog", str(catalog)]
            self.outputs = ANALYZE_OUTPUTS
            self.input_digests = {str(p): checks.sha256(p) for p in (wells, catalog)}
            sites = json.loads((work / "sites.json").read_text())["sites"]
            self.expected = checks.analyze_expectations(wells, catalog, sites)
        self.reference = BENCH_DIR / "reference" / workload.name if seed == DEFAULT_SEED else None
        self.fingerprint = None  # outputs of the first invocation
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def invoke(self, traced: bool) -> tuple[float, int]:
        """One checked CLI call; returns its wall time and the bytes it wrote."""
        out_dir = self.work / f"out-{self.count}"
        self.count += 1
        out_dir.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = cli.main(self.argv + ["--out-dir", str(out_dir)])
            except Exception:  # a crash is a failed invocation, reported below
                rc = traceback.format_exc()
            wall = time.perf_counter() - start
        self._check(out_dir, rc, stdout.getvalue(), stderr.getvalue(), traced)
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
        return wall, written

    def _check(self, out_dir: Path, rc, stdout: str, stderr: str, traced: bool) -> None:
        ops = self.workload.replicates or 1
        self.attempted += ops
        try:
            if rc != 0:
                raise checks.CheckError(f"exit {rc}: {stderr[-2000:]}")
            n_failed = checks.check_mc(out_dir, self.workload) if self.workload.is_mc else 0
            if not self.workload.is_mc:
                checks.check_analyze(out_dir, self.expected)
            checks.check_manifest(out_dir, self.outputs, self.input_digests)
            if self.reference is not None:
                checks.compare_with_reference(out_dir, self.reference, REFERENCE_OUTPUTS)
            fingerprint = checks.output_fingerprint(out_dir)
            fingerprint["<stdout>"] = stdout
            if self.fingerprint is None:
                self.fingerprint = fingerprint
            elif fingerprint != self.fingerprint:
                changed = sorted(k for k in fingerprint.keys() | self.fingerprint.keys()
                                 if fingerprint.get(k) != self.fingerprint.get(k))
                what = "traced outputs differ from untraced" if traced else "outputs differ between invocations"
                raise checks.CheckError(f"{what} with the same seed: {changed}")
            self.failed += n_failed
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += ops
            self.errors.append(f"invocation {self.count - 1}: {type(exc).__name__}: {exc}")


def layer_sample(tracer: tracing.Tracer, wall: float, written: int, replicate_ms: list[float], factor: float) -> dict:
    """Per-layer numbers of one traced invocation; times are scaled by `factor`."""
    own = [s * factor for s in tracer.self_times()]
    m: dict[str, float] = defaultdict(float)
    for (name, start, end, _, attrs), self_s in zip(tracer.spans, own):
        layer = _LAYER_OF_SPAN.get(name, name)
        if name == "glm.fit":
            layer = f"glm.{attrs['family']}"
            m["glm.fits"] += 1
            m["glm.irls_iterations"] += attrs["iterations"]
            m["glm.rows"] += attrs["rows"]
            m["glm.nonconverged"] += not attrs["converged"]
        elif name == "simulate.replicate":
            replicate_ms.append((end - start) * 1e3 * factor)
        for attr, metric in _ATTR_COUNTS.get(name, {}).items():
            m[metric] += attrs[attr]
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.calls"] += 1
    if m["glm.fits"]:
        m["glm.converged_frac"] = 1.0 - m["glm.nonconverged"] / m["glm.fits"]
    if m["geo.events_after_cut"]:
        m["geo.assigned_frac"] = m["geo.events_assigned"] / m["geo.events_after_cut"]
    m["cli.bytes_written"] = written
    m["trace.unaccounted_frac"] = 1.0 - sum(own) / (wall * factor)
    return m


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 0.0, 0.0


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", type=Path, required=True, help="directory with the inputs; outputs go here")
    p.add_argument("--src", type=Path, required=True, help="the package source the run must use")
    p.add_argument("--spans-out", type=Path, help="where the traced run writes its last invocation's spans")
    a = p.parse_args()

    if a.src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the package under {a.src}")

    workload = WORKLOADS[a.workload]
    run = Run(workload, a.seed, a.work)
    tracer = tracing.Tracer()
    untraced: list[float] = []  # wall times in reference seconds
    traced: list[float] = []
    raw_untraced: list[tuple[float, float]] = []  # (seconds, factor)
    samples: list[dict] = []
    replicate_ms: list[float] = []

    # calibration blocks before the first invocation and after each one; an
    # invocation is scaled by the kernel times on both sides of it (calibrate.py)
    blocks = [calibrate.run_for(calibrate.FIRST_BLOCK_S)]
    deadline = time.perf_counter() + a.seconds
    while not untraced or (a.trace and not traced) or time.perf_counter() < deadline:
        trace_this = bool(a.trace) and len(traced) < len(untraced)
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                wall, written = run.invoke(traced=True)
            finally:
                tracer.uninstall()
        else:
            wall, written = run.invoke(traced=False)
        blocks.append(calibrate.run_for(min(calibrate.SHARE * wall, calibrate.MAX_BLOCK_S)))
        factor = calibrate.scale(blocks[-2] + blocks[-1])
        if trace_this:
            traced.append(wall * factor)
            samples.append(layer_sample(tracer, wall, written, replicate_ms, factor))
        else:
            untraced.append(wall * factor)
            raw_untraced.append((wall, factor))

    kernel_times = [k for b in blocks for k in b]
    wall_s = statistics.median(untraced)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:5],
        "machine": machine_record(),
        "import_s": IMPORT_S,
        "invocations": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_walls": untraced,
        "traced_walls": traced,
        "raw_untraced": raw_untraced,
        "kernel_mean_s": statistics.fmean(kernel_times),
        "kernel_runs": len(kernel_times),
        "failed_frac": run.failed / run.attempted,
    }
    if not a.trace:
        result["metrics"] = {
            "wall_s": wall_s,
            "ops_per_s": (workload.replicates or 1) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        layers = {k: statistics.median(s.get(k, 0.0) for s in samples) for k in PER_LAYER}
        layers["failed_frac"] = result["failed_frac"]
        layers["trace.overhead_frac"] = statistics.median(traced) / wall_s - 1.0
        if replicate_ms:
            pct, value = tail(replicate_ms)
            layers["simulate.replicate_ms.p50"] = statistics.median(replicate_ms)
            layers["simulate.replicate_ms.tail"] = value
            layers["simulate.replicate_ms.tail_pct"] = pct
            layers["simulate.replicate_ms.samples"] = len(replicate_ms)
        result["metrics"] = layers
        if a.spans_out is not None:
            tracer.dump(a.spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
