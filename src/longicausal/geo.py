"""Geospatial panel assembly: wells and quakes in, PanelDataset out.

The pipeline is: load the well and catalog CSVs into column tables
(optionally bounding-box filtered), cluster wells into observational units
(agglomerative, Ward by default, in locally projected km), attribute each
catalog event to the nearest cluster centroid within a radius, then
aggregate volumes and event counts over fixed-length periods. Every stage
works on column arrays; months are integer indices (`month_index`).

Clustering distances live in the local equirectangular projection; the
radius rule uses great-circle (haversine) distance on raw coordinates, so it
does not depend on the projection.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, SchemaError
from .panel import PanelDataset, _csv_columns, _csv_records, _parse_float

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

ASSIGN_CHUNK_EVENTS = 1024  # rows per events x centroids distance block in assign_quakes

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})(?:-(\d{2}))?$")


class BoundingBox(NamedTuple):
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float


DFW_BBOX = BoundingBox(lat_min=32.07, lat_max=33.68, lon_min=-98.38, lon_max=-96.74)


def _inside(bbox: BoundingBox, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    return (bbox.lat_min <= lat) & (lat <= bbox.lat_max) & (bbox.lon_min <= lon) & (lon <= bbox.lon_max)


def _coords_in_range(lon, lat) -> bool:
    """True iff every coordinate (numbers or arrays) is finite and in range (NaN fails `<=`)."""
    return bool(np.all(np.abs(lon) <= 180.0) and np.all(np.abs(lat) <= 90.0))


def parse_month(value: str) -> tuple[int, int]:
    """(year, month) of `YYYY-MM`, or of `YYYY-MM-DD` when that day exists."""
    m = _MONTH_RE.match(value.strip())
    if not m:
        raise DomainError(f"expected YYYY-MM, got {value!r}")
    year, month = int(m.group(1)), int(m.group(2))
    if not (1 <= month <= 12):
        raise DomainError(f"month out of range in {value!r}")
    if m.group(3) is not None:
        try:
            date(year, month, int(m.group(3)))
        except ValueError:
            raise DomainError(f"day out of range in {value!r}") from None
    return year, month


def month_key(year: int, month: int) -> str:
    return f"{year:04d}-{month:02d}"


def month_index(year: int, month: int) -> int:
    """Months since January of year 0; consecutive months differ by 1."""
    return 12 * year + month - 1


def month_range(start: str, end: str) -> list[str]:
    """Calendar months from `start` to `end`, both inclusive."""
    first = month_index(*parse_month(start))
    n = month_index(*parse_month(end)) - first + 1
    if n < 1:
        raise DomainError(f"study window {start!r}..{end!r} is empty")
    return [month_key(i // 12, i % 12 + 1) for i in range(first, first + n)]


@dataclass(frozen=True, eq=False)
class WellTable:
    """The wells of one CSV as columns; `len()` is the number of wells.

    `ids`/`longitude`/`latitude` are per well, in order of first appearance;
    `well` (index into `ids`), `month` and `volume` are per well-month report.
    """

    ids: np.ndarray
    longitude: np.ndarray
    latitude: np.ndarray
    well: np.ndarray
    month: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class Catalog:
    """The events of one catalog CSV as columns; `len()` is the number of events."""

    ids: np.ndarray
    longitude: np.ndarray
    latitude: np.ndarray
    month: np.ndarray
    magnitude: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


class ClusterAssignment(NamedTuple):
    labels: np.ndarray  # cluster of each well, in table order
    centroids: np.ndarray  # (n_clusters, 2): longitude, latitude


def project_coords(longitude, latitude, origin: tuple[float, float]):
    """Local equirectangular projection about `origin`, in kilometers."""
    lon0, lat0 = origin
    if not _coords_in_range(lon0, lat0):
        raise DomainError(f"origin has out-of-range coordinates ({lon0}, {lat0})")
    lon = np.asarray(longitude, dtype=float)
    lat = np.asarray(latitude, dtype=float)
    if not _coords_in_range(lon, lat):
        raise DomainError("coordinates out of range")
    x = EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * np.radians(lon - lon0)
    y = EARTH_RADIUS_KM * np.radians(lat - lat0)
    return x, y


def _haversine(lon1, lat1, lon2, lat2):
    """Great-circle km between (lon1, lat1) and (lon2, lat2); arguments broadcast."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


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
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
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
    wells: WellTable,
    n_clusters: int = DEFAULT_N_CLUSTERS,
    linkage: str = "ward",
) -> ClusterAssignment:
    """Cluster wells in projected km; each centroid is its wells' mean longitude and latitude."""
    if len(wells) == 0:
        raise DomainError("no wells to cluster")
    origin = (float(wells.longitude.mean()), float(wells.latitude.mean()))
    x, y = project_coords(wells.longitude, wells.latitude, origin)
    labels = agglomerative_cluster(np.column_stack([x, y]), n_clusters, linkage)
    members = [labels == c for c in range(n_clusters)]
    centroids = np.array([[wells.longitude[m].mean(), wells.latitude[m].mean()] for m in members])
    return ClusterAssignment(labels=labels, centroids=centroids)


@dataclass(frozen=True, eq=False)
class QuakeAttribution:
    """The events at or above the magnitude cut, in catalog order.

    `labels` is each event's nearest in-radius cluster (-1 if none) and
    `months` its `month_index`.
    """

    labels: np.ndarray
    months: np.ndarray

    @property
    def n_after_cut(self) -> int:
        return len(self.labels)

    @property
    def unassigned(self) -> int:
        return int(np.count_nonzero(self.labels < 0))

    @property
    def total_assigned(self) -> int:
        return self.n_after_cut - self.unassigned


def assign_quakes(
    centroids,
    catalog: Catalog,
    radius_km: float = DEFAULT_RADIUS_KM,
    magnitude_cut: float = DEFAULT_MAGNITUDE_CUT,
) -> QuakeAttribution:
    """Attribute each qualifying event to its nearest centroid within the radius.

    Events below the magnitude cut are dropped. Distances are worked in
    blocks of ASSIGN_CHUNK_EVENTS events against every centroid; an event at
    exactly `radius_km` is assigned, and of equidistant centroids the lowest
    index wins. Centroids must be finite, in-range lon/lat pairs.
    """
    if not (radius_km > 0):
        raise DomainError(f"radius_km must be positive, got {radius_km!r}")
    if math.isnan(magnitude_cut):
        raise DomainError("magnitude_cut must be a number, got nan")
    cent = np.asarray(centroids, dtype=float)
    if cent.ndim != 2 or cent.shape[1] != 2:
        raise DomainError(f"centroids must be (k, 2) lon/lat pairs, got shape {cent.shape}")
    if not _coords_in_range(cent[:, 0], cent[:, 1]):
        raise DomainError("centroids have out-of-range coordinates")

    keep = catalog.magnitude >= magnitude_cut
    lons, lats = catalog.longitude[keep, None], catalog.latitude[keep, None]
    labels = np.empty(len(lons), dtype=np.intp)
    for start in range(0, len(lons), ASSIGN_CHUNK_EVENTS):
        block = slice(start, start + ASSIGN_CHUNK_EVENTS)
        d = _haversine(lons[block], lats[block], cent[:, 0], cent[:, 1])
        nearest = d.argmin(axis=1)
        within = d[np.arange(len(d)), nearest] <= radius_km
        labels[block] = np.where(within, nearest, -1)
    return QuakeAttribution(labels=labels, months=catalog.month[keep])


def build_panel(
    wells: WellTable,
    assignment: ClusterAssignment,
    quake_counts: QuakeAttribution,
    study_start: str = DEFAULT_STUDY_START,
    study_end: str = DEFAULT_STUDY_END,
    period_months: int = DEFAULT_PERIOD_MONTHS,
) -> PanelDataset:
    """Aggregate volumes and event counts into a PanelDataset.

    Period t covers `period_months` consecutive study months; A(t) sums member
    wells' reported volumes, L(t) flags any attributed event in the period, and
    Y totals attributed events over the whole window. Reports and events
    outside the window are ignored. A missing well-month report contributes
    0 bbl; one warning gives the number of wells with a missing month.
    """
    if period_months < 1:
        raise DomainError("period_months must be >= 1")
    n_months = len(month_range(study_start, study_end))
    if n_months % period_months != 0:
        raise DomainError(
            f"study window of {n_months} months is not divisible by "
            f"period_months={period_months}; adjust the period or the window"
        )
    if len(assignment.labels) != len(wells):
        raise DomainError(f"{len(assignment.labels)} cluster labels for {len(wells)} wells")
    first = month_index(*parse_month(study_start))
    shape = (len(assignment.centroids), n_months // period_months)

    # Well-major, month-minor: each cell sums its reports in the same order
    # whatever the row order of the CSV.
    rows = np.lexsort((wells.month, wells.well))
    rows = rows[(wells.month[rows] >= first) & (wells.month[rows] < first + n_months)]
    well, offset = wells.well[rows], wells.month[rows] - first
    volumes = np.zeros(shape)
    np.add.at(volumes, (assignment.labels[well], offset // period_months), wells.volume[rows])
    n_short = int(np.count_nonzero(np.bincount(well, minlength=len(wells)) < n_months))
    if n_short:
        msg = "%d of %d wells have no reported volume for some study months; treating those as 0 bbl"
        logger.warning(msg, n_short, len(wells))

    offset = quake_counts.months - first
    hit = (quake_counts.labels >= 0) & (offset >= 0) & (offset < n_months)
    counts = np.zeros(shape, dtype=int)
    np.add.at(counts, (quake_counts.labels[hit], offset[hit] // period_months), 1)

    unit_ids = [f"c{c:02d}" for c in range(shape[0])]
    return PanelDataset(volumes, counts > 0, counts.sum(axis=1), unit_ids=unit_ids)


def _parse_lon_lat(rec: list[str], row: int) -> tuple[float, float]:
    lon = _parse_float(rec[1], row, "longitude")
    lat = _parse_float(rec[2], row, "latitude")
    if not (-180.0 <= lon <= 180.0):
        raise SchemaError(f"longitude out of range: {lon}", row=row, column="longitude")
    if not (-90.0 <= lat <= 90.0):
        raise SchemaError(f"latitude out of range: {lat}", row=row, column="latitude")
    return lon, lat


def _floats(column: list[str]) -> np.ndarray:
    """`float` of every text, as `_parse_float` converts one; ValueError if any is not a number."""
    return np.fromiter(map(float, column), dtype=float, count=len(column))


def _well_table(ids, lons, lats, well, month, volume, bbox: BoundingBox | None) -> WellTable:
    if bbox is not None:
        keep = _inside(bbox, lons, lats)
        rows = keep[well]
        ids, lons, lats = ids[keep], lons[keep], lats[keep]
        well, month, volume = (np.cumsum(keep) - 1)[well[rows]], month[rows], volume[rows]
    return WellTable(ids, lons, lats, well, month, volume)


def load_wells_csv(path: str | Path, bbox: BoundingBox | None = None) -> WellTable:
    """Read long-format well reports into a WellTable, optionally bbox-filtered.

    Columns are parsed and checked whole, rows outside the box too. A file
    that fails any check is read again row by row, so a SchemaError names the
    file row and column whatever the box.
    """
    columns = _csv_columns(path, WELLS_CSV_HEADER)
    table = None if columns is None else _wells_from_columns(*columns, bbox)
    return _load_wells_rows(path, bbox) if table is None else table


def _wells_from_columns(wids, lon, lat, year_month, volume, bbox: BoundingBox | None) -> WellTable | None:
    """The WellTable `_load_wells_rows` reads from these columns, or None if it would raise."""
    try:
        lon, lat, volume = _floats(lon), _floats(lat), _floats(volume)
        months = {text: month_index(*parse_month(text)) for text in set(year_month)}
    except ValueError:  # DomainError is one too
        return None
    if not (_coords_in_range(lon, lat) and np.all((volume >= 0.0) & (volume < math.inf))):
        return None
    index = {wid: w for w, wid in enumerate(dict.fromkeys(wids))}  # order of first appearance
    well = np.fromiter(map(index.__getitem__, wids), dtype=np.intp, count=len(wids))
    month = np.fromiter(map(months.__getitem__, year_month), dtype=np.intp, count=len(wids))
    first = np.unique(well, return_index=True)[1]
    lons, lats = lon[first], lat[first]
    if not (np.all(lon == lons[well]) and np.all(lat == lats[well])):
        return None
    # a 4-digit year keeps every month index below 12 * 10_000
    if len(np.unique(well * (12 * 10_000) + month)) != len(well):
        return None
    return _well_table(np.array(list(index), dtype=str), lons, lats, well, month, volume, bbox)


def _load_wells_rows(path: str | Path, bbox: BoundingBox | None) -> WellTable:
    """`load_wells_csv` one row at a time: raises the SchemaError of the first bad row."""
    index: dict[str, int] = {}
    coords: list[tuple[float, float]] = []
    volumes: dict[tuple[int, int], float] = {}  # (well, month) -> bbl
    for i, rec in _csv_records(path, WELLS_CSV_HEADER):
        wid = rec[0]
        lon, lat = _parse_lon_lat(rec, i)
        try:
            year, mon = parse_month(rec[3])
        except DomainError as exc:
            raise SchemaError(str(exc), row=i, column="year_month") from None
        vol = _parse_float(rec[4], i, "volume_bbl")
        if vol < 0:
            raise SchemaError(f"volume_bbl must be >= 0, got {vol}", row=i, column="volume_bbl")
        w = index.setdefault(wid, len(index))
        if w == len(coords):
            coords.append((lon, lat))
        elif coords[w] != (lon, lat):
            raise SchemaError(f"well {wid!r} reported with inconsistent coordinates", row=i, column="longitude")
        key = (w, month_index(year, mon))
        if key in volumes:
            raise SchemaError(f"duplicate month {month_key(year, mon)} for well {wid!r}", row=i, column="year_month")
        volumes[key] = vol

    ids = np.array(list(index), dtype=str)
    lons, lats = np.array(coords, dtype=float).reshape(-1, 2).T
    well, month = np.array(list(volumes), dtype=np.intp).reshape(-1, 2).T
    volume = np.array(list(volumes.values()), dtype=float)
    return _well_table(ids, lons, lats, well, month, volume, bbox)


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


def _catalog(ids, lons, lats, months, mags, bbox: BoundingBox | None) -> Catalog:
    keep = slice(None) if bbox is None else _inside(bbox, lons, lats)
    return Catalog(ids[keep], lons[keep], lats[keep], months[keep], mags[keep])


def load_catalog_csv(path: str | Path, bbox: BoundingBox | None = None) -> Catalog:
    """Read the event catalog into a Catalog, optionally bbox-filtered.

    Columns are parsed and checked whole, rows outside the box too; a file
    that fails any check is read again row by row for its SchemaError. An
    event's month is the calendar month of its timestamp as written.
    """
    columns = _csv_columns(path, CATALOG_CSV_HEADER)
    catalog = None if columns is None else _catalog_from_columns(*columns, bbox)
    return _load_catalog_rows(path, bbox) if catalog is None else catalog


def _catalog_from_columns(eids, lon, lat, when, magnitude, bbox: BoundingBox | None) -> Catalog | None:
    """The Catalog `_load_catalog_rows` reads from these columns, or None if it would raise.

    Timestamps go to `fromisoformat` as written: it accepts no surrounding
    whitespace and reads a `Z` suffix as `+00:00`, so any text it accepts
    here `_parse_timestamp` accepts with the same month.
    """
    if len(set(eids)) != len(eids):
        return None
    try:
        lon, lat, mags = _floats(lon), _floats(lat), _floats(magnitude)
        times = list(map(datetime.fromisoformat, when))
    except ValueError:
        return None
    if not (_coords_in_range(lon, lat) and np.all(np.isfinite(mags))):
        return None
    year = np.fromiter(map(attrgetter("year"), times), dtype=np.intp, count=len(times))
    month = np.fromiter(map(attrgetter("month"), times), dtype=np.intp, count=len(times))
    return _catalog(np.array(eids, dtype=str), lon, lat, 12 * year + month - 1, mags, bbox)


def _load_catalog_rows(path: str | Path, bbox: BoundingBox | None) -> Catalog:
    """`load_catalog_csv` one row at a time: raises the SchemaError of the first bad row."""
    events: dict[str, tuple[float, float, int, float]] = {}  # id -> lon, lat, month, magnitude
    for i, rec in _csv_records(path, CATALOG_CSV_HEADER):
        eid = rec[0]
        if eid in events:
            raise SchemaError(f"duplicate event id {eid!r}", row=i, column="event_id")
        lon, lat = _parse_lon_lat(rec, i)
        when = _parse_timestamp(rec[3], i)
        events[eid] = (lon, lat, month_index(when.year, when.month), _parse_float(rec[4], i, "magnitude"))

    lons, lats, months, mags = np.array(list(events.values()), dtype=float).reshape(-1, 4).T
    ids = np.array(list(events), dtype=str)
    return _catalog(ids, lons, lats, months.astype(np.intp), mags, bbox)
