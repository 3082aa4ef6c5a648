"""Command-line entry point.

Subcommands:
  simulate      seeded Monte Carlo comparison of the three estimators
  analyze       panel assembly (or ingestion) plus the three estimators
  baseline gr   Gutenberg-Richter rate factor / expected count

Exit codes: 0 success, 1 runtime or statistical failure, 2 usage or schema
failure. Seeded commands are bit-reproducible given identical inputs and
flags; every file-producing run writes a manifest.json capturing parameters,
input digests, and the tool version.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import GRParams, gr_expected_count, gr_rate_factor
from .estimators import _check_units, estimate
from .exceptions import DomainError, LongicausalError, SchemaError
from .geo import (
    DEFAULT_MAGNITUDE_CUT,
    DEFAULT_N_CLUSTERS,
    DEFAULT_PERIOD_MONTHS,
    DEFAULT_RADIUS_KM,
    DEFAULT_STUDY_END,
    DEFAULT_STUDY_START,
    DFW_BBOX,
    LINKAGES,
    BoundingBox,
    assign_quakes,
    build_panel,
    cluster_wells,
    load_catalog_csv,
    load_wells_csv,
    parse_month,
)
from .glm import ROBUST_KINDS
from .iptw import stabilized_weights
from .panel import read_panel_csv, write_csv, write_panel_csv
from .simulate import DgpParams, SimulationConfig, run_monte_carlo

TRUNCATION_PERCENTILE = 1.0  # --truncate-weights clips to [1st, 99th]
# DgpParams fields exposed as `simulate --u-levels`, `--a-threshold`, ...
DGP_FLAGS = tuple(field.name for field in dataclasses.fields(DgpParams))
# namespace entries that are not run parameters (--out-dir is where, not what)
_NOT_PARAMETERS = ("command", "func", "out_dir")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _month(text: str) -> str:
    """`text` itself, once `parse_month` accepts it, so the manifest keeps the flag as given."""
    try:
        parse_month(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _parse_bbox(text: str) -> BoundingBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bbox must be lat_min,lat_max,lon_min,lon_max")
    lat_min, lat_max, lon_min, lon_max = (_finite_float(p) for p in parts)
    if lat_min >= lat_max or lon_min >= lon_max:
        raise argparse.ArgumentTypeError("bbox must have lat_min < lat_max and lon_min < lon_max")
    return BoundingBox(lat_min=lat_min, lat_max=lat_max, lon_min=lon_min, lon_max=lon_max)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _write_manifest(
    args: argparse.Namespace,
    inputs: list[Path],
    outputs: list[str],
    started: datetime,
    t0: float,
    sections: dict | None = None,
    **extra,
) -> None:
    """Write manifest.json: every parsed flag but --out-dir, plus `extra`; `sections` adds top-level keys."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": {**parameters, **extra},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": outputs,
        "started_utc": started.isoformat(),
        "duration_seconds": time.monotonic() - t0,
        **(sections or {}),
    }
    with open(Path(args.out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in the process, so each `simulate` block reuses the last one's pages.

    M_TRIM_THRESHOLD (-1) at 256 MiB stops the heap top going back to the OS
    after each block, and M_MMAP_THRESHOLD (-3) at 32 MiB keeps a block's
    arrays on the heap instead of in mappings unmapped when freed; either
    call also fixes glibc's otherwise moving mmap threshold. Outputs do not
    change. A no-op where glibc's mallopt cannot be found.
    """
    import ctypes  # already loaded by numpy, so importing it here costs nothing

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-1, 256 << 20)
        mallopt(-3, 32 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def _threads_from_env() -> int:
    """`simulate`'s worker processes from LONGICAUSAL_THREADS (default 1); DomainError unless an integer >= 1."""
    text = os.environ.get("LONGICAUSAL_THREADS", "1")
    try:
        threads = int(text) if text.isdecimal() else 0
    except ValueError:  # more digits than int() converts
        threads = 0
    if threads < 1:
        raise DomainError(f"LONGICAUSAL_THREADS must be an integer >= 1, got {text!r}")
    return threads


def cmd_simulate(args: argparse.Namespace) -> int:
    _keep_freed_memory()  # block workers inherit it only where the pool starts them by fork
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    try:
        threads = _threads_from_env()
    except DomainError as exc:  # a usage error, like a bad flag
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = SimulationConfig(
        causal_effect=args.causal_effect,
        confounding=args.confounding,
        n_units=args.n,
        n_periods=args.k,
        n_replicates=args.m,
        master_seed=args.seed,
        dgp=DgpParams(**{name: getattr(args, name) for name in DGP_FLAGS}),
    )
    summary = run_monte_carlo(config, threads=threads)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = np.array(list(summary.estimators), dtype=object)
    estimators = summary.estimators.values()
    write_csv(
        out_dir / "mc_summary.csv",
        ["estimator", "avg_point_estimate", "avg_se", "coverage95", "n_replicates", "n_failed"],
        [
            names,
            *np.array([(e.avg_point_estimate, e.avg_se, e.coverage95) for e in estimators]).T,
            np.full(len(names), summary.n_replicates),
            np.full(len(names), summary.n_failed),
        ],
    )
    write_csv(
        out_dir / "estimate_samples.csv",
        ["replicate", "estimator", "beta1_hat", "se", "ci_lo", "ci_hi"],
        [
            np.repeat(summary.replicate_indices, len(names)),
            np.tile(names, len(summary.replicate_indices)),
            *(np.stack([getattr(e, field) for e in estimators], axis=1).ravel()
              for field in ("estimates", "ses", "ci_lo", "ci_hi")),
        ],
    )
    _write_manifest(args, [], ["mc_summary.csv", "estimate_samples.csv"], started, t0, n_failed=summary.n_failed)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    inputs: list[Path] = []
    outputs: list[str] = []

    if args.panel:
        data = read_panel_csv(args.panel, args.outcomes)
        inputs += [Path(args.panel), Path(args.outcomes)]
    else:
        wells = load_wells_csv(args.wells, bbox=args.bbox)
        catalog = load_catalog_csv(args.catalog, bbox=args.bbox)
        inputs += [Path(args.wells), Path(args.catalog)]
        if len(wells) < args.clusters:
            raise DomainError(
                f"{len(wells)} wells inside the bounding box cannot form {args.clusters} clusters"
            )
        assignment = cluster_wells(wells, n_clusters=args.clusters, linkage=args.linkage)
        attribution = assign_quakes(
            assignment.centroids, catalog, radius_km=args.radius_km, magnitude_cut=args.mag_cut
        )
        data = build_panel(
            wells,
            assignment,
            attribution,
            study_start=args.start,
            study_end=args.end,
            period_months=args.period_months,
        )

    _check_units(data)

    weights = stabilized_weights(data)
    sw, sections = weights.per_unit_weights, {}
    if args.truncate_weights:
        bounds = np.percentile(sw, [TRUNCATION_PERCENTILE, 100.0 - TRUNCATION_PERCENTILE])
        sw = np.clip(sw, *bounds)
        # weights.csv holds the untruncated factors, so the clip bounds are recorded here
        sections["weights"] = {"truncation": bounds.tolist()}
    reports = estimate(data, sw, robust=args.robust)
    failed = [rep.estimator for rep in reports if not rep.converged]
    if failed:
        raise LongicausalError(f"fit did not converge for: {', '.join(failed)}")

    out_dir = Path(args.out_dir)  # made only now, so a failed run leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.panel:
        write_panel_csv(data, out_dir / "panel.csv", out_dir / "panel_outcomes.csv")
        outputs += ["panel.csv", "panel_outcomes.csv"]
    write_csv(
        out_dir / "estimates.csv",
        ["estimator", "beta1_hat", "se", "ci_lo", "ci_hi", "relative_risk_per_MMbbl", "z", "p"],
        [
            np.array([rep.estimator for rep in reports], dtype=object),
            *np.array([(rep.beta1_hat, rep.se, *rep.ci95, rep.relative_risk_per_MMbbl, rep.z, rep.p)
                       for rep in reports], dtype=float).T,
        ],
    )
    factors = weights.per_time_factors
    n, k = factors.shape
    ids = np.fromiter(data.unit_ids, dtype=object, count=n)  # an inferred dtype would write (True, 2) as 1,2
    write_csv(
        out_dir / "weights.csv",
        ["unit_id", "t", "factor", "cumulative_weight"],
        [
            np.repeat(ids, k),
            np.tile(weights.periods, n),
            factors.ravel(),
            np.cumprod(factors, axis=1).ravel(),
        ],
    )
    outputs += ["estimates.csv", "weights.csv"]

    print("\n\n".join(
        f"estimator: {rep.estimator}\n"
        f"beta1_hat: {rep.beta1_hat:.17g}\n"
        f"se: {rep.se:.17g}\n"
        f"ci95: [{rep.ci95[0]:.17g}, {rep.ci95[1]:.17g}]\n"
        f"relative_risk_per_MMbbl: {rep.relative_risk_per_MMbbl:.17g}\n"
        f"z: {rep.z:.17g}\n"
        f"p: {rep.p:.17g}"
        for rep in reports
    ))
    _write_manifest(args, inputs, outputs, started, t0, sections)
    return 0


def cmd_baseline_gr(args: argparse.Namespace) -> int:
    params = GRParams(sigma=args.sigma, b=args.b, mag_complete=args.m, a_tec=args.a_tec)
    values = [gr_rate_factor(params)]
    if args.volume is not None:
        if args.a_tec is None:
            raise DomainError("--volume requires --a-tec")
        values.append(gr_expected_count(params, args.volume))
    print("\n".join(f"{value:.4g}" for value in values))  # all lines or, on an error, none
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longicausal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"longicausal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the seeded Monte Carlo study")
    defaults = SimulationConfig()
    sim.add_argument("--n", type=int, default=defaults.n_units, help="units per replicate")
    sim.add_argument("--k", type=int, default=defaults.n_periods, help="periods per unit")
    sim.add_argument("--m", type=int, default=defaults.n_replicates, help="replicates")
    sim.add_argument("--seed", type=int, default=defaults.master_seed, help="master seed")
    sim.add_argument("--causal-effect", type=_finite_float, default=defaults.causal_effect)
    sim.add_argument("--confounding", type=_finite_float, default=defaults.confounding)
    for name in DGP_FLAGS:
        default = getattr(defaults.dgp, name)
        kind = int if isinstance(default, int) else _finite_float
        sim.add_argument("--" + name.replace("_", "-"), type=kind, default=default)
    sim.add_argument("--out-dir", default=".", help="directory for output files")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="assemble a panel and estimate the three models")
    src = ana.add_argument_group("inputs (raw wells+catalog, or a prebuilt panel)")
    src.add_argument("--wells", help="wells CSV: well_id,longitude,latitude,year_month,volume_bbl")
    src.add_argument("--catalog", help="catalog CSV: event_id,longitude,latitude,origin_time_iso8601,magnitude")
    src.add_argument("--panel", help="panel CSV: unit_id,period,volume_bbl,quake_indicator")
    src.add_argument("--outcomes", help="outcome CSV: unit_id,cumulative_quakes")
    ana.add_argument("--clusters", type=int, default=DEFAULT_N_CLUSTERS)
    ana.add_argument("--radius-km", type=_finite_float, default=DEFAULT_RADIUS_KM)
    ana.add_argument("--period-months", type=int, default=DEFAULT_PERIOD_MONTHS)
    ana.add_argument("--mag-cut", type=_finite_float, default=DEFAULT_MAGNITUDE_CUT)
    ana.add_argument(
        "--bbox",
        type=_parse_bbox,
        default=DFW_BBOX,
        help="lat_min,lat_max,lon_min,lon_max (default: the study-area box)",
    )
    ana.add_argument("--linkage", choices=LINKAGES, default="ward")
    ana.add_argument("--truncate-weights", action="store_true", help="clip SW to [1st, 99th] percentiles")
    ana.add_argument("--robust", choices=ROBUST_KINDS, default="HC0",
                     help="MSM sandwich SE: HC0, or HC1 (scaled by n/(n-p))")
    ana.add_argument("--start", type=_month, default=DEFAULT_STUDY_START, help="first study month (YYYY-MM)")
    ana.add_argument("--end", type=_month, default=DEFAULT_STUDY_END, help="last study month (YYYY-MM), inclusive")
    ana.add_argument("--out-dir", default=".", help="directory for output files")
    ana.set_defaults(func=cmd_analyze)

    base = sub.add_parser("baseline", help="reference-model quantities")
    base_sub = base.add_subparsers(dest="baseline_command", required=True)
    gr = base_sub.add_parser("gr", help="Gutenberg-Richter rate factor")
    gr.add_argument("--sigma", type=_finite_float, required=True, help="seismogenic index")
    gr.add_argument("--b", type=_finite_float, required=True, help="GR slope")
    gr.add_argument("--m", type=_finite_float, required=True, help="magnitude of completeness")
    gr.add_argument("--a-tec", type=_finite_float, default=None, help="tectonic background term")
    gr.add_argument("--volume", type=_finite_float, default=None, help="also print the expected count at this volume")
    gr.set_defaults(func=cmd_baseline_gr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    if args.command == "analyze":
        given = tuple(path is not None for path in (args.wells, args.catalog, args.panel, args.outcomes))
        if given not in ((True, True, False, False), (False, False, True, True)):
            print(
                "error: analyze needs either --wells and --catalog, or --panel and --outcomes",
                file=sys.stderr,
            )
            return 2

    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:  # an input that cannot be read, an --out-dir that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LongicausalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
