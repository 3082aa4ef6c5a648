"""Geospatial panel assembly: wells and quakes in, PanelDataset out.

The pipeline is: load well and catalog CSVs (optionally bounding-box
filtered), cluster wells into observational units (agglomerative, Ward by
default, in locally projected km), attribute each catalog event to the
nearest cluster centroid within a radius, then aggregate volumes and event
counts over fixed-length periods.

Clustering distances live in the local equirectangular projection; the
radius rule uses great-circle (haversine) distance on raw coordinates, so it
does not depend on the projection.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import DomainError, SchemaError
from .panel import PanelDataset, _check_header, _parse_float

logger = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088

DEFAULT_N_CLUSTERS = 30
DEFAULT_RADIUS_KM = 15.0
DEFAULT_MAGNITUDE_CUT = 2.5
DEFAULT_PERIOD_MONTHS = 4
DEFAULT_STUDY_START = "2013-12"
DEFAULT_STUDY_END = "2016-03"

LINKAGES = ("ward", "single", "complete", "average")

WELLS_CSV_HEADER = ["well_id", "longitude", "latitude", "year_month", "volume_bbl"]
CATALOG_CSV_HEADER = ["event_id", "longitude", "latitude", "origin_time_iso8601", "magnitude"]

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})(?:-\d{2})?$")


class BoundingBox(NamedTuple):
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def contains(self, longitude: float, latitude: float) -> bool:
        return (
            self.lat_min <= latitude <= self.lat_max
            and self.lon_min <= longitude <= self.lon_max
        )


DFW_BBOX = BoundingBox(lat_min=32.07, lat_max=33.68, lon_min=-98.38, lon_max=-96.74)


def _check_coords(longitude: float, latitude: float, what: str = "point") -> None:
    if not (-180.0 <= longitude <= 180.0) or not (-90.0 <= latitude <= 90.0):
        raise DomainError(f"{what} has out-of-range coordinates ({longitude}, {latitude})")


def parse_month(value: str) -> tuple[int, int]:
    m = _MONTH_RE.match(value.strip())
    if not m:
        raise DomainError(f"expected YYYY-MM, got {value!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not (1 <= month <= 12):
        raise DomainError(f"month out of range in {value!r}")
    return year, month


def month_key(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


def month_range(start: str, end: str) -> list[str]:
    """Calendar months from `start` to `end`, both inclusive."""
    y0, m0 = parse_month(start)
    y1, m1 = parse_month(end)
    n = 12 * (y1 - y0) + (m1 - m0) + 1
    if n < 1:
        raise DomainError(f"study window {start!r}..{end!r} is empty")
    out = []
    y, m = y0, m0
    for _ in range(n):
        out.append(month_key(y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


@dataclass(frozen=True)
class WellRecord:
    well_id: str
    longitude: float
    latitude: float
    monthly_volumes: Mapping[str, float]

    def __post_init__(self):
        _check_coords(self.longitude, self.latitude, f"well {self.well_id!r}")
        for month, vol in self.monthly_volumes.items():
            parse_month(month)
            if not math.isfinite(vol) or vol < 0:
                raise DomainError(
                    f"well {self.well_id!r} month {month}: volume must be >= 0, got {vol!r}"
                )


@dataclass(frozen=True)
class QuakeRecord:
    event_id: str
    longitude: float
    latitude: float
    origin_time: datetime
    magnitude: float

    def __post_init__(self):
        _check_coords(self.longitude, self.latitude, f"event {self.event_id!r}")
        if not math.isfinite(self.magnitude):
            raise DomainError(f"event {self.event_id!r}: magnitude must be finite")

    @property
    def month(self) -> str:
        return month_key(self.origin_time.year, self.origin_time.month)


@dataclass(frozen=True)
class ClusterAssignment:
    n_clusters: int
    well_to_cluster: Mapping[str, int]
    centroids: tuple[tuple[float, float], ...]  # (longitude, latitude) per cluster


def project_coords(longitude, latitude, origin: tuple[float, float]):
    """Local equirectangular projection about `origin`, in kilometers."""
    lon0, lat0 = origin
    _check_coords(lon0, lat0, "origin")
    lon = np.asarray(longitude, dtype=float)
    lat = np.asarray(latitude, dtype=float)
    if np.any(lon < -180.0) or np.any(lon > 180.0) or np.any(lat < -90.0) or np.any(lat > 90.0):
        raise DomainError("coordinates out of range")
    x = EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * np.radians(lon - lon0)
    y = EARTH_RADIUS_KM * np.radians(lat - lat0)
    if x.ndim == 0:
        return float(x), float(y)
    return x, y


def inverse_project(x, y, origin: tuple[float, float]):
    """Inverse of project_coords."""
    lon0, lat0 = origin
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lon = lon0 + np.degrees(x / (EARTH_RADIUS_KM * math.cos(math.radians(lat0))))
    lat = lat0 + np.degrees(y / EARTH_RADIUS_KM)
    if lon.ndim == 0:
        return float(lon), float(lat)
    return lon, lat


def haversine_km(p1: tuple[float, float], p2):
    """Great-circle distance between (lon, lat) points; p2 may be arrays."""
    lon1, lat1 = p1
    lon2, lat2 = p2
    _check_coords(float(lon1), float(lat1))
    phi1 = math.radians(lat1)
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2, dtype=float) - lon1)
    a = np.sin(dphi / 2.0) ** 2 + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if d.ndim == 0:
        return float(d)
    return d


def agglomerative_cluster(points, n_clusters: int, linkage: str = "ward") -> np.ndarray:
    """Bottom-up clustering of projected (x, y) km points; returns dense labels.

    Uses `scipy.cluster.hierarchy` on Euclidean distances: Ward merges the
    pair with the smallest within-variance increase, single/complete/average
    use the usual Lance-Williams updates. Ties between equal merge heights are
    broken by scipy's algorithms, so the result is deterministic for a given
    input. Labels follow each cluster's smallest member index: point 0 is
    always in cluster 0, and a new label first appears in increasing order.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be (n, 2), got shape {pts.shape}")
    n = len(pts)
    if not (1 <= n_clusters <= n):
        raise DomainError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    if linkage not in LINKAGES:
        raise DomainError(f"unknown linkage {linkage!r}, expected one of {LINKAGES}")
    if n == 1:
        return np.zeros(1, dtype=int)

    # Imported here: scipy.cluster pulls in scipy.spatial, which `simulate` never needs.
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import pdist

    tree = hierarchy.linkage(pdist(pts), linkage)
    return hierarchy.cut_tree(tree, n_clusters=n_clusters).ravel()


def cluster_wells(
    wells: Sequence[WellRecord],
    n_clusters: int = DEFAULT_N_CLUSTERS,
    linkage: str = "ward",
) -> ClusterAssignment:
    """Cluster well locations and return the assignment with degree centroids."""
    if not wells:
        raise DomainError("no wells to cluster")
    ids = [w.well_id for w in wells]
    if len(set(ids)) != len(ids):
        raise DomainError("well ids must be unique")
    lons = np.array([w.longitude for w in wells])
    lats = np.array([w.latitude for w in wells])
    origin = (float(lons.mean()), float(lats.mean()))
    x, y = project_coords(lons, lats, origin)
    labels = agglomerative_cluster(np.column_stack([x, y]), n_clusters, linkage)

    centroids = []
    for c in range(n_clusters):
        mask = labels == c
        lon_c, lat_c = inverse_project(float(x[mask].mean()), float(y[mask].mean()), origin)
        centroids.append((lon_c, lat_c))
    return ClusterAssignment(
        n_clusters=n_clusters,
        well_to_cluster={w.well_id: int(lab) for w, lab in zip(wells, labels)},
        centroids=tuple(centroids),
    )


@dataclass
class QuakeAttribution:
    """Per-cluster, per-month event counts plus the unassigned tally."""

    counts: dict[tuple[int, str], int] = field(default_factory=dict)
    unassigned: int = 0
    n_after_cut: int = 0

    @property
    def total_assigned(self) -> int:
        return sum(self.counts.values())


def assign_quakes(
    centroids: Sequence[tuple[float, float]],
    catalog: Iterable[QuakeRecord],
    radius_km: float = DEFAULT_RADIUS_KM,
    magnitude_cut: float = DEFAULT_MAGNITUDE_CUT,
) -> QuakeAttribution:
    """Count each qualifying event once, at its nearest in-radius centroid.

    Events below the magnitude cut are ignored; events farther than
    `radius_km` from every centroid go to the unassigned tally.
    """
    if not (radius_km > 0):
        raise DomainError(f"radius_km must be positive, got {radius_km!r}")
    cent = np.asarray(centroids, dtype=float)
    if cent.ndim != 2 or cent.shape[1] != 2:
        raise DomainError(f"centroids must be (k, 2) lon/lat pairs, got shape {cent.shape}")
    lons, lats = cent[:, 0], cent[:, 1]

    out = QuakeAttribution()
    for quake in catalog:
        if quake.magnitude < magnitude_cut:
            continue
        out.n_after_cut += 1
        d = haversine_km((quake.longitude, quake.latitude), (lons, lats))
        nearest = int(np.argmin(d))
        if d[nearest] <= radius_km:
            key = (nearest, quake.month)
            out.counts[key] = out.counts.get(key, 0) + 1
        else:
            out.unassigned += 1
    return out


def build_panel(
    wells: Sequence[WellRecord],
    assignment: ClusterAssignment,
    quake_counts: QuakeAttribution,
    study_start: str = DEFAULT_STUDY_START,
    study_end: str = DEFAULT_STUDY_END,
    period_months: int = DEFAULT_PERIOD_MONTHS,
) -> PanelDataset:
    """Aggregate volumes and event counts into a PanelDataset.

    Period t covers `period_months` consecutive study months; A(t) sums member
    wells' reported volumes, L(t) flags any attributed event in the period, and
    Y totals attributed events over the whole window. A missing well-month
    report contributes 0 bbl and is logged.
    """
    if period_months < 1:
        raise DomainError("period_months must be >= 1")
    months = month_range(study_start, study_end)
    if len(months) % period_months != 0:
        raise DomainError(
            f"study window of {len(months)} months is not divisible by "
            f"period_months={period_months}; adjust the period or the window"
        )
    k = len(months) // period_months
    month_to_period = {m: idx // period_months for idx, m in enumerate(months)}

    n = assignment.n_clusters
    volumes = np.zeros((n, k))
    for well in wells:
        cluster = assignment.well_to_cluster.get(well.well_id)
        if cluster is None:
            raise DomainError(f"well {well.well_id!r} has no cluster assignment")
        missing = [m for m in months if m not in well.monthly_volumes]
        if missing:
            logger.warning(
                "well %s: no reported volume for %d of %d study months; treating as 0 bbl",
                well.well_id,
                len(missing),
                len(months),
            )
        for m in months:
            volumes[cluster, month_to_period[m]] += well.monthly_volumes.get(m, 0.0)

    quake_flags = np.zeros((n, k), dtype=int)
    outcomes = np.zeros(n, dtype=int)
    for (cluster, month), count in quake_counts.counts.items():
        period = month_to_period.get(month)
        if period is None:
            continue  # attributed event outside the study window
        if count > 0:
            quake_flags[cluster, period] = 1
            outcomes[cluster] += count

    return PanelDataset(volumes, quake_flags, outcomes, unit_ids=[f"c{c:02d}" for c in range(n)])


def load_wells_csv(path: str | Path, bbox: BoundingBox | None = None) -> list[WellRecord]:
    """Read long-format well reports; one record per well, bbox-filtered."""
    coords: dict[str, tuple[float, float]] = {}
    volumes: dict[str, dict[str, float]] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(next(r, None), WELLS_CSV_HEADER, path)
        for i, rec in enumerate(r, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise SchemaError(f"expected 5 fields, got {len(rec)}", row=i)
            wid = rec[0]
            lon = _parse_float(rec[1], i, "longitude")
            lat = _parse_float(rec[2], i, "latitude")
            if not (-180.0 <= lon <= 180.0):
                raise SchemaError(f"longitude out of range: {lon}", row=i, column="longitude")
            if not (-90.0 <= lat <= 90.0):
                raise SchemaError(f"latitude out of range: {lat}", row=i, column="latitude")
            try:
                ym = month_key(*parse_month(rec[3]))
            except DomainError as exc:
                raise SchemaError(str(exc), row=i, column="year_month") from None
            vol = _parse_float(rec[4], i, "volume_bbl")
            if vol < 0:
                raise SchemaError(f"volume_bbl must be >= 0, got {vol}", row=i, column="volume_bbl")
            if wid not in coords:
                coords[wid] = (lon, lat)
                volumes[wid] = {}
                order.append(wid)
            elif coords[wid] != (lon, lat):
                raise SchemaError(
                    f"well {wid!r} reported with inconsistent coordinates", row=i, column="longitude"
                )
            if ym in volumes[wid]:
                raise SchemaError(f"duplicate month {ym} for well {wid!r}", row=i, column="year_month")
            volumes[wid][ym] = vol

    wells = [
        WellRecord(well_id=w, longitude=coords[w][0], latitude=coords[w][1], monthly_volumes=volumes[w])
        for w in order
    ]
    if bbox is not None:
        wells = [w for w in wells if bbox.contains(w.longitude, w.latitude)]
    return wells


def _parse_timestamp(raw: str, row: int) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise SchemaError(
            f"expected an ISO-8601 timestamp, got {raw!r}", row=row, column="origin_time_iso8601"
        ) from None


def load_catalog_csv(path: str | Path, bbox: BoundingBox | None = None) -> list[QuakeRecord]:
    """Read the event catalog, optionally bbox-filtered."""
    quakes: list[QuakeRecord] = []
    seen: set[str] = set()
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(next(r, None), CATALOG_CSV_HEADER, path)
        for i, rec in enumerate(r, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise SchemaError(f"expected 5 fields, got {len(rec)}", row=i)
            eid = rec[0]
            if eid in seen:
                raise SchemaError(f"duplicate event id {eid!r}", row=i, column="event_id")
            seen.add(eid)
            lon = _parse_float(rec[1], i, "longitude")
            lat = _parse_float(rec[2], i, "latitude")
            if not (-180.0 <= lon <= 180.0):
                raise SchemaError(f"longitude out of range: {lon}", row=i, column="longitude")
            if not (-90.0 <= lat <= 90.0):
                raise SchemaError(f"latitude out of range: {lat}", row=i, column="latitude")
            when = _parse_timestamp(rec[3], i)
            mag = _parse_float(rec[4], i, "magnitude")
            quakes.append(
                QuakeRecord(event_id=eid, longitude=lon, latitude=lat, origin_time=when, magnitude=mag)
            )
    if bbox is not None:
        quakes = [q for q in quakes if bbox.contains(q.longitude, q.latitude)]
    return quakes
