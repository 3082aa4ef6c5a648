"""Output checks run on every invocation, traced ones included.

Each check raises CheckError with a message naming the file and the value.
Expected values are computed here from the input files, without calling the
package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from gen_inputs import haversine_km, month_list
from workloads import (
    BBOX,
    CI_MULTIPLIER,
    ESTIMATORS,
    MAGNITUDE_CUT,
    N_CLUSTERS,
    N_PERIODS,
    RADIUS_KM,
    STUDY_END,
    STUDY_START,
    Workload,
)

REL_TOL = 1e-10  # the bound the package promises for numeric results
_INT = re.compile(r"^-?\d+$")
_VOLATILE_MANIFEST_KEYS = ("started_utc", "duration_seconds")


class CheckError(Exception):
    pass


def _close(a: float, b: float, scale: float | None = None) -> bool:
    return abs(a - b) <= REL_TOL * (max(abs(a), abs(b)) if scale is None else scale)


def _read(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        raise CheckError(f"{path.name}: missing")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cell_matches(ref: str, got: str) -> bool:
    if _INT.match(ref):
        return ref == got  # integer columns match exactly
    try:
        r, g = float(ref), float(got)
    except ValueError:
        return ref == got
    return r == g or _close(r, g)


def compare_with_reference(out_dir: Path, ref_dir: Path, names) -> None:
    """Numbers within REL_TOL relative, integers and text exactly."""
    for name in names:
        ref_path = ref_dir / name
        if not ref_path.exists():
            continue
        with open(ref_path, newline="") as fh:
            ref_rows = list(csv.reader(fh))
        got_path = out_dir / name
        if not got_path.exists():
            raise CheckError(f"{name}: missing")
        with open(got_path, newline="") as fh:
            got_rows = list(csv.reader(fh))
        if len(ref_rows) != len(got_rows) or ref_rows[:1] != got_rows[:1]:
            raise CheckError(f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}")
        for line, (ref, got) in enumerate(zip(ref_rows, got_rows), start=1):
            if len(ref) != len(got) or not all(_cell_matches(r, g) for r, g in zip(ref, got)):
                raise CheckError(f"{name} line {line}: {got} differs from reference {ref}")


def _check_interval(where: str, row: dict[str, str]) -> None:
    beta, se = float(row["beta1_hat"]), float(row["se"])
    half = CI_MULTIPLIER * se
    scale = max(abs(beta), abs(half))
    for col, want in (("ci_lo", beta - half), ("ci_hi", beta + half)):
        if not _close(float(row[col]), want, scale):
            raise CheckError(f"{where}: {col}={row[col]} is not beta1_hat -/+ {CI_MULTIPLIER}*se = {want!r}")


def check_mc(out_dir: Path, workload: Workload) -> int:
    """Internal consistency of a simulate run; returns n_failed."""
    summary = _read(out_dir / "mc_summary.csv")
    samples = _read(out_dir / "estimate_samples.csv")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    theta = float(manifest["parameters"]["causal_effect"])
    if [r["estimator"] for r in summary] != list(ESTIMATORS):
        raise CheckError(f"mc_summary.csv: estimators {[r['estimator'] for r in summary]}")
    n_failed = int(summary[0]["n_failed"])
    kept = workload.replicates - n_failed
    for row in summary:
        if int(row["n_replicates"]) != workload.replicates or int(row["n_failed"]) != n_failed:
            raise CheckError(f"mc_summary.csv: counts {row}")
        rows = [s for s in samples if s["estimator"] == row["estimator"]]
        if len(rows) != kept or len({s["replicate"] for s in rows}) != kept:
            raise CheckError(f"estimate_samples.csv: {len(rows)} {row['estimator']} rows, expected {kept}")
        for s in rows:
            _check_interval(f"estimate_samples.csv replicate {s['replicate']}", s)
        betas = [float(s["beta1_hat"]) for s in rows]
        ses = [float(s["se"]) for s in rows]
        covered = [float(s["ci_lo"]) <= theta <= float(s["ci_hi"]) for s in rows]
        for col, want in (
            ("avg_point_estimate", math.fsum(betas) / kept),
            ("avg_se", math.fsum(ses) / kept),
            ("coverage95", sum(covered) / kept),
        ):
            if not _close(float(row[col]), want):
                raise CheckError(f"mc_summary.csv {row['estimator']}: {col}={row[col]}, samples give {want!r}")
    return n_failed


def _in_bbox(lon: float, lat: float) -> bool:
    lat_min, lat_max, lon_min, lon_max = BBOX
    return lat_min <= lat <= lat_max and lon_min <= lon <= lon_max


def analyze_expectations(wells_csv: Path, catalog_csv: Path, sites: list[list[float]]) -> dict:
    """In-window well volume and in-window attributable events, from the input CSVs.

    An event counts when it is inside the box, at or above the magnitude cut,
    dated in the window and within the radius of a site centre. The generator
    keeps every event either within 8 km of a site centre or 20 km from all
    of them, and Ward clusters coincide with sites, so site centres decide
    attribution exactly as cluster centroids do.
    """
    window = set(month_list(STUDY_START, STUDY_END))
    volume = []
    for row in _read(wells_csv):
        if _in_bbox(float(row["longitude"]), float(row["latitude"])) and row["year_month"] in window:
            volume.append(float(row["volume_bbl"]))
    lon, lat = [], []
    for row in _read(catalog_csv):
        x, y = float(row["longitude"]), float(row["latitude"])
        if (
            _in_bbox(x, y)
            and float(row["magnitude"]) >= MAGNITUDE_CUT
            and row["origin_time_iso8601"][:7] in window
        ):
            lon.append(x)
            lat.append(y)
    site = np.asarray(sites)
    dist = haversine_km(np.array(lon)[:, None], np.array(lat)[:, None], site[None, :, 0], site[None, :, 1])
    assigned = int(np.count_nonzero(dist.min(axis=1) <= RADIUS_KM))
    return {"in_window_volume": math.fsum(volume), "in_window_assigned": assigned}


def check_analyze(out_dir: Path, expected: dict) -> None:
    panel = _read(out_dir / "panel.csv")
    outcomes = {r["unit_id"]: int(r["cumulative_quakes"]) for r in _read(out_dir / "panel_outcomes.csv")}
    if len(outcomes) != N_CLUSTERS or len(panel) != N_CLUSTERS * N_PERIODS:
        raise CheckError(f"panel.csv: {len(panel)} rows for {len(outcomes)} units")
    volume = math.fsum(float(r["volume_bbl"]) for r in panel)
    if not _close(volume, expected["in_window_volume"]):
        raise CheckError(f"panel.csv: volume total {volume!r}, wells give {expected['in_window_volume']!r}")
    events = sum(outcomes.values())
    if events != expected["in_window_assigned"]:
        raise CheckError(f"panel_outcomes.csv: {events} events, catalog gives {expected['in_window_assigned']}")
    flagged = {r["unit_id"] for r in panel if r["quake_indicator"] == "1"}
    if flagged != {u for u, y in outcomes.items() if y > 0}:
        raise CheckError("panel.csv: quake indicators disagree with panel_outcomes.csv")
    estimates = _read(out_dir / "estimates.csv")
    if [r["estimator"] for r in estimates] != list(ESTIMATORS):
        raise CheckError(f"estimates.csv: estimators {[r['estimator'] for r in estimates]}")
    for r in estimates:
        _check_interval(f"estimates.csv {r['estimator']}", r)
        if not _close(float(r["z"]), float(r["beta1_hat"]) / float(r["se"])):
            raise CheckError(f"estimates.csv {r['estimator']}: z={r['z']} is not beta1_hat/se")


def sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_dir: Path, outputs, input_digests: dict[str, str]) -> None:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if sorted(manifest["outputs"]) != sorted(outputs):
        raise CheckError(f"manifest.json: outputs {manifest['outputs']}")
    if manifest["input_digests"] != input_digests:
        raise CheckError(f"manifest.json: input digests {manifest['input_digests']}")


def output_fingerprint(out_dir: Path) -> dict[str, str]:
    """Digest of every output file; manifest.json without its clock fields."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            for key in _VOLATILE_MANIFEST_KEYS:
                manifest.pop(key, None)
            out[path.name] = json.dumps(manifest, sort_keys=True)
        else:
            out[path.name] = sha256(path)
    return out
