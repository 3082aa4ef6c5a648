"""Seeded synthetic wells and catalog CSVs for the `analyze-raw` workload.

    python3 bench/gen_inputs.py --seed 0 --out-dir DIR [--wells 200] [--events 100000]

writes DIR/wells.csv, DIR/catalog.csv and DIR/sites.json. The same seed and
size give byte-identical files.

Wells sit in N_CLUSTERS tight groups ("sites", about 0.4 km across) whose
centres are at least 12 km apart, so Ward clustering into N_CLUSTERS units
recovers the sites and every centroid lies within about a kilometre of its
site centre. The catalog then has events whose fate is known from the site
centres alone:

  near      within 8 km of a site centre, above the cut, in the window
  late      near and above the cut, but dated outside the study window
  small     near, below the magnitude cut
  far       inside the box, above the cut, at least 20 km from every site
  outside   outside the bounding box

The wells file also has missing well-months and well-months outside the study
window. Every path through the geo layer is therefore reached by every input.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from workloads import BBOX, MAGNITUDE_CUT, N_CLUSTERS, N_EVENTS, N_WELLS, STUDY_END, STUDY_START

EARTH_RADIUS_KM = 6371.0088
KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0
SITE_REGION = (32.30, 33.45, -98.15, -96.97)  # lat_min, lat_max, lon_min, lon_max
MIN_SITE_SEP_KM = 12.0
WELL_JITTER_DEG = 0.004
NEAR_MAX_KM = 8.0
FAR_MIN_KM = 20.0
MISSING_MONTH_P = 0.04
ACTIVE_MONTH_P = 0.35  # share of (site, month) cells with near events

# share of the catalog per category; "near" takes the rest
EVENT_SHARES = {"late": 0.03, "small": 0.08, "far": 0.04, "outside": 0.03}


def haversine_km(lon1, lat1, lon2, lat2):
    """Great-circle distance; arguments broadcast."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    a = np.sin((phi2 - phi1) / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def month_list(start: str, end: str) -> list[str]:
    y, m = (int(p) for p in start.split("-"))
    y1, m1 = (int(p) for p in end.split("-"))
    out = []
    while (y, m) <= (y1, m1):
        out.append(f"{y:04d}-{m:02d}")
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def _sites(rng) -> np.ndarray:
    lat_min, lat_max, lon_min, lon_max = SITE_REGION
    sites: list[tuple[float, float]] = []
    while len(sites) < N_CLUSTERS:
        lon, lat = rng.uniform(lon_min, lon_max), rng.uniform(lat_min, lat_max)
        if all(haversine_km(lon, lat, s[0], s[1]) >= MIN_SITE_SEP_KM for s in sites):
            sites.append((lon, lat))
    return np.array(sites)


def _check_sites_are_ward_clusters(lon, lat, well_site) -> None:
    # the design guarantee the analyze-raw checks rest on
    x = KM_PER_DEG * math.cos(math.radians(lat.mean())) * (lon - lon.mean())
    y = KM_PER_DEG * (lat - lat.mean())
    labels = fcluster(linkage(np.column_stack([x, y]), "ward"), N_CLUSTERS, "maxclust")
    pairs = set(zip(labels.tolist(), well_site.tolist()))
    if len(pairs) != N_CLUSTERS or len(set(labels.tolist())) != N_CLUSTERS:
        raise RuntimeError("Ward clusters do not coincide with well sites")


def _near_points(rng, sites, site_idx):
    """Points uniform in a NEAR_MAX_KM disk around the given sites."""
    r = NEAR_MAX_KM * np.sqrt(rng.random(len(site_idx)))
    theta = rng.uniform(0.0, 2.0 * math.pi, len(site_idx))
    lat = sites[site_idx, 1] + r * np.cos(theta) / KM_PER_DEG
    lon = sites[site_idx, 0] + r * np.sin(theta) / (KM_PER_DEG * np.cos(np.radians(sites[site_idx, 1])))
    return lon, lat


def _far_points(rng, sites, n):
    lat_min, lat_max, lon_min, lon_max = BBOX
    lon_out, lat_out = [], []
    while sum(len(a) for a in lon_out) < n:
        lon = rng.uniform(lon_min + 0.001, lon_max - 0.001, 4 * n)
        lat = rng.uniform(lat_min + 0.001, lat_max - 0.001, 4 * n)
        dmin = haversine_km(lon[:, None], lat[:, None], sites[None, :, 0], sites[None, :, 1]).min(axis=1)
        keep = dmin >= FAR_MIN_KM
        lon_out.append(lon[keep])
        lat_out.append(lat[keep])
    return np.concatenate(lon_out)[:n], np.concatenate(lat_out)[:n]


def _outside_points(rng, n):
    # half west of the box, half north of it
    lat_min, lat_max, lon_min, lon_max = BBOX
    west = np.arange(n) % 2 == 0
    lon = np.where(west, rng.uniform(lon_min - 0.8, lon_min - 0.05, n), rng.uniform(lon_min, lon_max, n))
    lat = np.where(west, rng.uniform(lat_min, lat_max, n), rng.uniform(lat_max + 0.05, lat_max + 0.6, n))
    return lon, lat


def write_wells(path: Path, rng, sites, n_wells: int) -> None:
    window = month_list(STUDY_START, STUDY_END)
    before = month_list("2013-09", "2013-11")
    after = month_list("2016-04", "2016-06")
    well_site = np.concatenate([np.arange(N_CLUSTERS), rng.integers(0, N_CLUSTERS, n_wells - N_CLUSTERS)])
    lon = np.round(sites[well_site, 0] + rng.normal(0.0, WELL_JITTER_DEG, n_wells), 5)
    lat = np.round(sites[well_site, 1] + rng.normal(0.0, WELL_JITTER_DEG, n_wells), 5)
    _check_sites_are_ward_clusters(lon, lat, well_site)
    base = rng.uniform(2e4, 2.5e5, n_wells)
    volume = base[:, None] * rng.uniform(0.5, 1.5, (n_wells, len(window)))
    missing = rng.random((n_wells, len(window))) < MISSING_MONTH_P
    with open(path, "w", newline="") as fh:
        fh.write("well_id,longitude,latitude,year_month,volume_bbl\n")
        for i in range(n_wells):
            head = f"w{i:04d},{lon[i]:.5f},{lat[i]:.5f}"
            months = [(m, volume[i, j]) for j, m in enumerate(window) if not missing[i, j]]
            if i % 10 == 0:  # reports outside the study window
                months = [(before[i % 3], base[i])] + months + [(after[i % 3], base[i])]
            for month, v in months:
                fh.write(f"{head},{month},{v:.1f}\n")


def write_catalog(path: Path, rng, sites, n_events: int) -> dict[str, int]:
    window = month_list(STUDY_START, STUDY_END)
    outside_window = month_list("2013-06", "2013-11") + month_list("2016-04", "2016-09")
    counts = {k: int(round(share * n_events)) for k, share in EVENT_SHARES.items()}
    counts["near"] = n_events - sum(counts.values())

    # near events cluster in a site's active months, so the confounder L(t)
    # (any attributed event in the period) varies across units and periods
    active = rng.random((N_CLUSTERS, len(window))) < ACTIVE_MONTH_P
    active[np.arange(N_CLUSTERS), rng.integers(0, len(window), N_CLUSTERS)] = True
    near_site = rng.integers(0, N_CLUSTERS, counts["near"])
    near_month = np.empty(counts["near"], dtype=int)
    for s in range(N_CLUSTERS):
        idx = np.flatnonzero(near_site == s)
        near_month[idx] = rng.choice(np.flatnonzero(active[s]), len(idx))

    parts = []  # (lon, lat, month label, magnitude)
    lon, lat = _near_points(rng, sites, near_site)
    parts.append((lon, lat, np.array(window)[near_month], rng.uniform(MAGNITUDE_CUT, 4.5, counts["near"])))
    n = counts["late"]
    lon, lat = _near_points(rng, sites, rng.integers(0, N_CLUSTERS, n))
    parts.append((lon, lat, rng.choice(outside_window, n), rng.uniform(MAGNITUDE_CUT, 4.5, n)))
    n = counts["small"]
    lon, lat = _near_points(rng, sites, rng.integers(0, N_CLUSTERS, n))
    parts.append((lon, lat, rng.choice(window, n), rng.uniform(1.0, MAGNITUDE_CUT - 0.01, n)))
    n = counts["far"]
    lon, lat = _far_points(rng, sites, n)
    parts.append((lon, lat, rng.choice(window, n), rng.uniform(MAGNITUDE_CUT, 4.0, n)))
    n = counts["outside"]
    lon, lat = _outside_points(rng, n)
    parts.append((lon, lat, rng.choice(window, n), rng.uniform(MAGNITUDE_CUT, 4.5, n)))

    lon, lat, month, mag = (np.concatenate(cols) for cols in zip(*parts))
    order = rng.permutation(n_events)
    day = rng.integers(1, 29, n_events)
    second_of_day = rng.integers(0, 86400, n_events)
    with open(path, "w", newline="") as fh:
        fh.write("event_id,longitude,latitude,origin_time_iso8601,magnitude\n")
        for j, i in enumerate(order):
            s = int(second_of_day[i])
            fh.write(
                f"ev{j:06d},{lon[i]:.5f},{lat[i]:.5f},"
                f"{month[i]}-{day[i]:02d}T{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d},{mag[i]:.2f}\n"
            )
    return counts


def generate(out_dir: Path, seed: int, n_wells: int = N_WELLS, n_events: int = N_EVENTS) -> dict:
    """Write wells.csv, catalog.csv and sites.json into `out_dir`; return the sites record."""
    if n_wells < N_CLUSTERS:
        raise ValueError(f"need at least {N_CLUSTERS} wells, got {n_wells}")
    rng = np.random.default_rng(seed)
    sites = _sites(rng)
    write_wells(out_dir / "wells.csv", rng, sites, n_wells)
    counts = write_catalog(out_dir / "catalog.csv", rng, sites, n_events)
    record = {"seed": seed, "sites": sites.tolist(), "event_counts": counts}
    (out_dir / "sites.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--wells", type=int, default=N_WELLS)
    p.add_argument("--events", type=int, default=N_EVENTS)
    a = p.parse_args()
    a.out_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps(generate(a.out_dir, a.seed, a.wells, a.events)["event_counts"]))


if __name__ == "__main__":
    main()
