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
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .baselines import GRParams, gr_expected_count, gr_rate_factor
from .estimators import REPORT_CSV_HEADER, adjusted_poisson, msm_iptw, naive_poisson
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
)
from .iptw import iter_weight_rows, stabilized_weights
from .panel import read_panel_csv, write_csv, write_panel_csv
from .simulate import DgpParams, SimulationConfig, run_monte_carlo, threads_from_env

TRUNCATION_PERCENTILE = 1.0  # --truncate-weights clips to [1st, 99th]
# DgpParams fields exposed as `simulate --u-levels`, `--a-threshold`, ...
DGP_FLAGS = ("u_levels", "a_threshold", "a0_mean", "a0_sd", "a_drift", "a_l_penalty", "a_sd")
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
    **extra,
) -> None:
    """Write manifest.json: every parsed flag but --out-dir, plus `extra`."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "parameters": {**parameters, **extra},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": outputs,
        "started_utc": started.isoformat(),
        "duration_seconds": time.monotonic() - t0,
    }
    with open(Path(args.out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    started = datetime.now(timezone.utc)
    t0 = time.monotonic()
    try:
        threads = threads_from_env()
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
    write_csv(
        out_dir / "mc_summary.csv",
        ["estimator", "avg_point_estimate", "avg_se", "coverage95", "n_replicates", "n_failed"],
        (
            [name, est.avg_point_estimate, est.avg_se, est.coverage95, summary.n_replicates, summary.n_failed]
            for name, est in summary.estimators.items()
        ),
    )
    write_csv(
        out_dir / "estimate_samples.csv",
        ["replicate", "estimator", "beta1_hat", "se", "ci_lo", "ci_hi"],
        summary.iter_sample_rows(),
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

    if data.n_units < 2:
        raise DomainError("outcome regressions require at least 2 units")

    truncate = TRUNCATION_PERCENTILE if args.truncate_weights else None
    weights = stabilized_weights(data, truncate_percentile=truncate)
    reports = [
        naive_poisson(data),
        adjusted_poisson(data),
        msm_iptw(data, weights=weights, hc1=(args.robust == "HC1")),
    ]
    failed = [rep.estimator for rep in reports if not rep.converged]
    if failed:
        raise LongicausalError(f"fit did not converge for: {', '.join(failed)}")

    out_dir = Path(args.out_dir)  # made only now, so a failed run leaves nothing behind
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.panel:
        write_panel_csv(data, out_dir / "panel.csv", out_dir / "panel_outcomes.csv")
        outputs += ["panel.csv", "panel_outcomes.csv"]
    write_csv(out_dir / "estimates.csv", REPORT_CSV_HEADER, (rep.to_csv_row() for rep in reports))
    write_csv(
        out_dir / "weights.csv", ["unit_id", "t", "factor", "cumulative_weight"], iter_weight_rows(data, weights)
    )
    outputs += ["estimates.csv", "weights.csv"]

    print("\n\n".join(rep.to_text() for rep in reports))
    _write_manifest(args, inputs, outputs, started, t0)
    return 0



def cmd_baseline_gr(args: argparse.Namespace) -> int:
    params = GRParams(sigma=args.sigma, b=args.b, mag_complete=args.m, a_tec=args.a_tec)
    print(f"{gr_rate_factor(params):.4g}")
    if args.volume is not None:
        if args.a_tec is None:
            raise DomainError("--volume requires --a-tec")
        print(f"{gr_expected_count(params, args.volume):.4g}")
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
    ana.add_argument("--robust", choices=("HC0", "HC1"), default="HC0")
    ana.add_argument("--start", default=DEFAULT_STUDY_START, help="first study month (YYYY-MM)")
    ana.add_argument("--end", default=DEFAULT_STUDY_END, help="last study month (YYYY-MM), inclusive")
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
