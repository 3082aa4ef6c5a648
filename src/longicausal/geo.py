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

import math
import numbers
import re
from dataclasses import dataclass
from datetime import date, datetime
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, _require_finite
from .panel import PanelDataset, _check_records, _csv_columns, _float_error

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

_MONTH_RE = re.compile(r"^([0-9]{4})-([0-9]{2})(?:-([0-9]{2}))?$")


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
    m = isinstance(value, str) and _MONTH_RE.match(value.strip())
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


def month_index(year, month):
    """Months since January of year 0 (ints, or integer arrays elementwise); consecutive months differ by 1."""
    return 12 * year + month - 1


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


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def agglomerative_cluster(points, n_clusters: int, linkage: str = "ward") -> np.ndarray:
    """Bottom-up clustering of projected (x, y) km points; returns dense labels.

    Uses `scipy.cluster.hierarchy` on Euclidean distances: Ward merges the
    pair with the smallest within-variance increase, single/complete/average
    use the usual Lance-Williams updates. Ties between equal merge heights are
    broken by scipy's algorithms, so the result is deterministic for a given
    input. Labels follow each cluster's smallest member index: point 0 is
    always in cluster 0, and a new label first appears in increasing order.

    The tree is cut by `fcluster(maxclust)`, which keeps every merge at or
    below the lowest height that leaves at most `n_clusters` clusters. The
    linkage rows are sorted by height, so when that is exactly `n_clusters`
    clusters those merges are the first n - k rows, the partition
    `cut_tree` gives. When merge heights tie across the cut, fcluster
    returns fewer clusters, and `cut_tree` decides which tied merges count.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"points must be (n, 2), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    n = len(pts)
    _require_int("n_clusters", n_clusters)
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
    flat = hierarchy.fcluster(tree, n_clusters, criterion="maxclust")
    _, first, members = np.unique(flat, return_index=True, return_inverse=True)
    if len(first) != n_clusters:
        return hierarchy.cut_tree(tree, n_clusters=n_clusters).ravel()
    rank = np.empty(n_clusters, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(n_clusters)
    return rank[members]


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


class QuakeAttribution(NamedTuple):
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

    Events below the magnitude cut are dropped. An event at exactly
    `radius_km` is assigned, and of equidistant centroids the lowest index
    wins. Centroids must be finite, in-range lon/lat pairs.

    Each centroid is measured only against the events in its latitude band,
    a contiguous slice of the events sorted by latitude, and of those only
    against the ones in its longitude band, so memory is O(events +
    centroids). The latitude band reaches `degrees(radius_km / R)` either
    side of the centroid. The longitude band holds the events whose wrapped
    longitude difference is at most `degrees(2 asin(sin(radius_km / 2R) /
    cos Phi))`, where Phi is the centroid's |latitude| plus its latitude
    band. Both bands widen by a margin of 1e-4 degrees. There is no
    longitude band when Phi reaches 90 degrees, when the radius reaches
    half the Earth's circumference, or when the ratio in the asin reaches 1.
    No event outside the bands is within the radius, so the labels are
    those of an `argmin` over the full events x centroids distance matrix.
    """
    _require_finite("radius_km", radius_km)
    if not (radius_km > 0):
        raise DomainError(f"radius_km must be positive, got {radius_km!r}")
    _require_finite("magnitude_cut", magnitude_cut)
    cent = np.asarray(centroids, dtype=float)
    if cent.ndim != 2 or cent.shape[1] != 2:
        raise DomainError(f"centroids must be (k, 2) lon/lat pairs, got shape {cent.shape}")
    if not _coords_in_range(cent[:, 0], cent[:, 1]):
        raise DomainError("centroids have out-of-range coordinates")

    keep = catalog.magnitude >= magnitude_cut
    lons, lats = catalog.longitude[keep], catalog.latitude[keep]
    order = np.argsort(lats)
    lons, lats = lons[order], lats[order]
    # No pair outside the band computes to a distance within the radius. A
    # great-circle distance is never less than the latitude arc R |dphi|, and
    # the computed one neither: `_haversine`'s computed `a` is never below its
    # computed sin^2(dphi / 2), because the cos * cos * sin^2 term it adds is
    # >= 0 for |lat| <= 90. The margin, 1e-4 degrees (about 11 m), is far above
    # the rounding of a computed distance, at worst about 4e-6 degrees where
    # arcsin is steepest; a margin relative to the radius alone falls below it
    # at radii under about a metre.
    #
    # Within the band, no pair outside the longitude band computes to a
    # distance within the radius either. Both latitudes are at most
    # Phi = |lat_c| + band in size, so while Phi < 90 degrees,
    # cos(phi1) cos(phi2) >= cos^2 Phi. The computed `a` is never below its
    # computed cos(phi1) cos(phi2) sin^2(dlam / 2), because the
    # sin^2(dphi / 2) term it adds is >= 0. sin^2(dlam / 2) depends only on
    # the wrapped difference w = min(|dlam|, 360 - |dlam|), and grows with w
    # on [0, 180]. So a pair within the radius r has
    # cos Phi sin(w / 2) <= sin(r / 2R), that is
    # w <= 2 asin(sin(r / 2R) / cos Phi), the bounding-coordinates bound. It
    # needs r < pi R, where sin(r / 2R) still grows with r (towards
    # r = 2 pi R it falls back to 0), Phi < 90 and a ratio below 1; without
    # all three, every event of the latitude band is measured. The same
    # 1e-4 degree margin keeps a skipped pair's computed `a` above the
    # radius's by a relative sin^2(margin / 2), about 8e-13, even where the
    # bound nears 180 degrees and sin(w / 2) is flattest; that is far above
    # the rounding of `a` and of the bound. Every pair within the radius, and
    # every tie at the minimum, is measured by the same elementwise
    # operations as in the full distance matrix.
    band = math.degrees(radius_km / EARTH_RADIUS_KM) + 1e-4
    starts = np.searchsorted(lats, cent[:, 1] - band, side="left")
    stops = np.searchsorted(lats, cent[:, 1] + band, side="right")
    phi = np.abs(cent[:, 1]) + band
    ratio = math.sin(radius_km / (2.0 * EARTH_RADIUS_KM)) / np.cos(np.radians(phi))
    bounded = (phi < 90.0) & (ratio < 1.0) & (radius_km < math.pi * EARTH_RADIUS_KM)
    lon_band = np.full(len(cent), np.inf)
    lon_band[bounded] = np.degrees(2.0 * np.arcsin(ratio[bounded])) + 1e-4
    best = np.full(len(lats), np.inf)
    nearest = np.full(len(lats), -1, dtype=np.intp)
    for c, (lon, lat) in enumerate(cent):  # a strict minimum, so the lowest index keeps a tie
        dlon = np.abs(lons[starts[c]:stops[c]] - lon)
        near = np.flatnonzero(np.minimum(dlon, 360.0 - dlon) <= lon_band[c]) + starts[c]
        d = _haversine(lons[near], lats[near], lon, lat)
        closer = d < best[near]
        best[near[closer]] = d[closer]
        nearest[near[closer]] = c
    labels = np.empty(len(lats), dtype=np.intp)
    labels[order] = np.where(best <= radius_km, nearest, -1)
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
    _require_int("period_months", period_months)
    if period_months < 1:
        raise DomainError("period_months must be >= 1")
    first = month_index(*parse_month(study_start))
    n_months = month_index(*parse_month(study_end)) - first + 1
    if n_months < 1:
        raise DomainError(f"study window {study_start!r}..{study_end!r} is empty")
    if n_months % period_months != 0:
        raise DomainError(
            f"study window of {n_months} months is not divisible by "
            f"period_months={period_months}; adjust the period or the window"
        )
    if len(assignment.labels) != len(wells):
        raise DomainError(f"{len(assignment.labels)} cluster labels for {len(wells)} wells")
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
        import logging  # imported here: a run whose wells report every month needs no logging
        msg = "%d of %d wells have no reported volume for some study months; treating those as 0 bbl"
        logging.getLogger(__name__).warning(msg, n_short, len(wells))

    offset = quake_counts.months - first
    hit = (quake_counts.labels >= 0) & (offset >= 0) & (offset < n_months)
    counts = np.zeros(shape, dtype=int)
    np.add.at(counts, (quake_counts.labels[hit], offset[hit] // period_months), 1)

    unit_ids = [f"c{c:02d}" for c in range(shape[0])]
    return PanelDataset(volumes, counts > 0, counts.sum(axis=1), unit_ids=unit_ids)


def _well_table(ids, lons, lats, well, month, volume, bbox: BoundingBox | None) -> WellTable:
    if bbox is not None:
        keep = _inside(bbox, lons, lats)
        rows = keep[well]
        ids, lons, lats = ids[keep], lons[keep], lats[keep]
        well, month, volume = (np.cumsum(keep) - 1)[well[rows]], month[rows], volume[rows]
    return WellTable(ids, lons, lats, well, month, volume)


def _coordinate_checks(lon, lat) -> list:
    """The `_check_records` checks of the longitude and latitude columns, fields 1 and 2, in order."""
    return [
        (~np.isfinite(lon), "longitude", lambda k, rec: _float_error(rec[1])),
        (~np.isfinite(lat), "latitude", lambda k, rec: _float_error(rec[2])),
        (np.abs(lon) > 180.0, "longitude", lambda k, rec: f"longitude out of range: {lon[k]}"),
        (np.abs(lat) > 90.0, "latitude", lambda k, rec: f"latitude out of range: {lat[k]}"),
    ]


def load_wells_csv(path: str | Path, bbox: BoundingBox | None = None) -> WellTable:
    """Read long-format well reports into a WellTable, optionally bbox-filtered.

    Every report is checked, rows outside the box too, and the first bad one
    in file order raises a SchemaError naming its file row and the column of
    its first failed check. In order: longitude and latitude are finite
    numbers, then within ±180 and ±90; `year_month` is a month
    (`parse_month`); `volume_bbl` is a finite number >= 0; the well keeps the
    coordinates of its first report; and it has not reported the month
    before.
    """
    numeric = ("longitude", "latitude", "volume_bbl")
    (wids, lon, lat, year_month, volume), fault = _csv_columns(path, WELLS_CSV_HEADER, numeric)
    months: dict[str, int] = {}
    month_errors: dict[str, str] = {}
    for text in set(year_month):
        try:
            months[text] = month_index(*parse_month(text))
        except DomainError as exc:
            months[text], month_errors[text] = -1, str(exc)
    index = {wid: w for w, wid in enumerate(dict.fromkeys(wids))}  # order of first appearance
    well = np.fromiter(map(index.__getitem__, wids), dtype=np.intp, count=len(wids))
    month = np.fromiter(map(months.__getitem__, year_month), dtype=np.intp, count=len(wids))
    first = np.unique(well, return_index=True)[1]
    lons, lats = lon[first], lat[first]
    # month + 1 is in [0, 12 * 10_000]: a 4-digit year, or -1 for a bad month
    repeated = np.ones(len(well), dtype=bool)
    repeated[np.unique(well * (12 * 10_000 + 1) + month + 1, return_index=True)[1]] = False
    _check_records(path, WELLS_CSV_HEADER, [
        *_coordinate_checks(lon, lat),
        (month < 0, "year_month", lambda k, rec: month_errors[rec[3]]),
        (~np.isfinite(volume), "volume_bbl", lambda k, rec: _float_error(rec[4])),
        (volume < 0.0, "volume_bbl", lambda k, rec: f"volume_bbl must be >= 0, got {volume[k]}"),
        ((lon != lons[well]) | (lat != lats[well]), "longitude",
         lambda k, rec: f"well {rec[0]!r} reported with inconsistent coordinates"),
        (repeated, "year_month",
         lambda k, rec: f"duplicate month {month_key(month[k] // 12, month[k] % 12 + 1)} for well {rec[0]!r}"),
    ], fault)
    return _well_table(np.array(list(index), dtype=str), lons, lats, well, month, volume, bbox)


def _timestamp_month(text: str) -> int:
    """`month_index` of an ISO-8601 timestamp as written, reading a trailing Z as +00:00; -1 if it is none."""
    try:
        when = datetime.fromisoformat(text[:-1] + "+00:00" if text.endswith("Z") else text)
    except ValueError:
        return -1
    return month_index(when.year, when.month)


def _catalog(ids, lons, lats, months, mags, bbox: BoundingBox | None) -> Catalog:
    keep = slice(None) if bbox is None else _inside(bbox, lons, lats)
    return Catalog(ids[keep], lons[keep], lats[keep], months[keep], mags[keep])


def load_catalog_csv(path: str | Path, bbox: BoundingBox | None = None) -> Catalog:
    """Read the event catalog into a Catalog, optionally bbox-filtered.

    Every event is checked, rows outside the box too, and the first bad one
    in file order raises a SchemaError naming its file row and the column of
    its first failed check. In order: the event id is new; longitude and
    latitude are finite numbers, then within ±180 and ±90; the timestamp,
    stripped, is ISO 8601, a trailing Z read as +00:00; and the magnitude is
    a finite number. An event's month is the calendar month of its
    timestamp as written.
    """
    numeric = ("longitude", "latitude", "magnitude")
    (eids, lon, lat, when, mags), fault = _csv_columns(path, CATALOG_CSV_HEADER, numeric)
    ids = np.array(eids, dtype=str)
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    stamps = list(map(str.strip, when))
    try:  # fromisoformat reads a trailing Z as +00:00 wherever it reads one at all
        times = list(map(datetime.fromisoformat, stamps))
        year = np.fromiter(map(attrgetter("year"), times), dtype=np.intp, count=len(times))
        month = month_index(year, np.fromiter(map(attrgetter("month"), times), dtype=np.intp, count=len(times)))
    except ValueError:  # a bad timestamp, or one such as 2014-10-10Z that only the Z rule reads
        month = np.fromiter(map(_timestamp_month, stamps), dtype=np.intp, count=len(stamps))
    _check_records(path, CATALOG_CSV_HEADER, [
        (repeated, "event_id", lambda k, rec: f"duplicate event id {rec[0]!r}"),
        *_coordinate_checks(lon, lat),
        (month < 0, "origin_time_iso8601", lambda k, rec: f"expected an ISO-8601 timestamp, got {rec[3]!r}"),
        (~np.isfinite(mags), "magnitude", lambda k, rec: _float_error(rec[4])),
    ], fault)
    return _catalog(ids, lon, lat, month, mags, bbox)
