"""Workload definitions and the study constants the output checks rely on.

The constants below restate the CLI defaults that the `analyze-raw` checks
depend on. They are written out here, not imported from the package, so that
a change to a package default shows up as a failed check instead of silently
moving the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0

# analyze-raw: the DFW study box, window and attribution rule (CLI defaults)
BBOX = (32.07, 33.68, -98.38, -96.74)  # lat_min, lat_max, lon_min, lon_max
STUDY_START = "2013-12"
STUDY_END = "2016-03"
MAGNITUDE_CUT = 2.5
RADIUS_KM = 15.0
N_CLUSTERS = 30
N_PERIODS = 7  # 28 months in 4-month periods

# analyze-raw input size, as (wells, events): one of the two analyze sizes in
# ROADMAP item 1. At (200, 100k) one invocation takes 5-8 s, too few fit in a
# run to make its median steady on a shared VM (see NOTES.md).
N_WELLS = 150
N_EVENTS = 20_000

# One client, one thread: on a shared 2-CPU machine a process pool or a BLAS
# thread pool would measure the scheduler rather than the program.
THREAD_ENV = {
    "LONGICAUSAL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

CI_MULTIPLIER = 1.959964
ESTIMATORS = ("naive", "adjusted", "msm")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments before --seed/--out-dir and inputs
    replicates: int  # replicates per invocation; 0 for analyze

    @property
    def is_mc(self) -> bool:
        return self.replicates > 0


def _mc(name: str, n: int, m: int) -> Workload:
    return Workload(name, ("simulate", "--n", str(n), "--k", "8", "--m", str(m)), m)


# M is chosen so that one invocation takes about 0.3-0.5 s on a 2-CPU cloud VM,
# which gives many invocations per run
WORKLOADS = {
    "mc-n50": _mc("mc-n50", 50, 100),
    "mc-n600": _mc("mc-n600", 600, 20),
    "analyze-raw": Workload("analyze-raw", ("analyze",), 0),
}

MC_OUTPUTS = ("mc_summary.csv", "estimate_samples.csv")
ANALYZE_OUTPUTS = ("panel.csv", "panel_outcomes.csv", "estimates.csv", "weights.csv")
# outputs compared with the committed reference at DEFAULT_SEED
REFERENCE_OUTPUTS = ("mc_summary.csv", "estimate_samples.csv", "estimates.csv", "panel.csv", "panel_outcomes.csv")

# end-to-end metrics (--trace 0), with units
END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics, in report order, with units
PER_LAYER = {
    "failed_frac": "ratio",
    "simulate.generate.self_s": "s",
    "simulate.harness.self_s": "s",
    "simulate.replicates": "count",
    "simulate.failed": "count",
    "simulate.replicate_ms.p50": "ms",
    "simulate.replicate_ms.tail": "ms",
    "simulate.replicate_ms.tail_pct": "%",
    "simulate.replicate_ms.samples": "count",
    "panel.to_array.calls": "count",
    "panel.to_array.self_s": "s",
    "panel.csv.self_s": "s",
    "iptw.weights.calls": "count",
    "iptw.weights.self_s": "s",
    "iptw.treatment_models.self_s": "s",
    "glm.fits": "count",
    "glm.irls_iterations": "count",
    "glm.rows": "count",
    "glm.nonconverged": "count",
    "glm.converged_frac": "ratio",
    "glm.linear.self_s": "s",
    "glm.poisson.self_s": "s",
    "glm.sandwich.self_s": "s",
    "estimators.calls": "count",
    "estimators.self_s": "s",
    "geo.load_wells.self_s": "s",
    "geo.load_catalog.self_s": "s",
    "geo.cluster.self_s": "s",
    "geo.assign.self_s": "s",
    "geo.build_panel.self_s": "s",
    "geo.wells": "count",
    "geo.events": "count",
    "geo.events_after_cut": "count",
    "geo.events_assigned": "count",
    "geo.events_unassigned": "count",
    "geo.assigned_frac": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}
