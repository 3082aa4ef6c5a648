"""The row-by-row wells and catalog readers, kept as the oracle of the column loaders.

`load_wells_csv` and `load_catalog_csv` read every file as columns and check
each column whole. These readers take one record at a time and raise at the
first bad one, which is what the loaders must match: the same table, or the
same SchemaError text, row and column. Run by `TestColumnPathMatchesRowPath`
in test_geo.py. From Python 3.11 on they accept a NUL, which the loaders
reject, so the files compared with them hold none.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from longicausal.exceptions import DomainError, SchemaError
from longicausal.geo import (
    CATALOG_CSV_HEADER,
    WELLS_CSV_HEADER,
    BoundingBox,
    Catalog,
    WellTable,
    _catalog,
    _well_table,
    month_index,
    month_key,
    parse_month,
)


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise SchemaError(f"expected a number, got {raw!r}", row=row, column=column) from None
    if not math.isfinite(v):
        raise SchemaError(f"expected a finite number, got {raw!r}", row=row, column=column)
    return v


def _csv_records(path: str | Path, header: list[str]):
    """Yield (first file line, fields) for each non-blank data record of a CSV with `header`.

    A wrong or missing header, a row without one field per column, or a
    record csv.reader rejects (a field over `csv.field_size_limit()`) is a
    SchemaError naming the file row; bytes that are not UTF-8 are one naming
    the file.
    """
    n_fields = len(header)
    row = 1
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        try:
            actual = next(r, None)
            if actual is None or [c.strip() for c in actual] != header:
                raise SchemaError(
                    f"{path}: expected header {','.join(header)}, got "
                    f"{','.join(actual) if actual else '<empty file>'}",
                    row=1,
                )
            row = r.line_num + 1  # a quoted field can span lines, so count lines, not records
            for rec in r:
                if rec:
                    if len(rec) != n_fields:
                        raise SchemaError(f"expected {n_fields} fields, got {len(rec)}", row=row)
                    yield row, rec
                row = r.line_num + 1
        except UnicodeDecodeError as exc:  # raised while reading ahead, so no row can be named
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise SchemaError(f"{path}: {exc}", row=row) from None


def _parse_lon_lat(rec: list[str], row: int) -> tuple[float, float]:
    lon = _parse_float(rec[1], row, "longitude")
    lat = _parse_float(rec[2], row, "latitude")
    if not (-180.0 <= lon <= 180.0):
        raise SchemaError(f"longitude out of range: {lon}", row=row, column="longitude")
    if not (-90.0 <= lat <= 90.0):
        raise SchemaError(f"latitude out of range: {lat}", row=row, column="latitude")
    return lon, lat


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
