"""Longitudinal panel data model and its CSV exchange files.

A PanelDataset holds N units' treatment histories A(1..K) in bbl as an (N, K)
array, binary confounder histories L(1..K) as an (N, K) array, end-of-study
count outcomes Y as an (N,) array, and optional baseline values A(0)/L(0) for
every unit. It is the one panel representation: every estimator, the
simulator, the geospatial assembly and the CSV reader use it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from functools import partial
from itertools import filterfalse, islice
from pathlib import Path

import numpy as np

from .exceptions import PanelError, SchemaError

PANEL_CSV_HEADER = ["unit_id", "period", "volume_bbl", "quake_indicator"]
OUTCOME_CSV_HEADER = ["unit_id", "cumulative_quakes"]


def _reject(bad: np.ndarray, message: str, values: np.ndarray) -> None:
    if bad.any():
        raise PanelError(f"{message}, got {values[bad].tolist()[0]!r}")


def _refuse_complex(x) -> None:
    """A TypeError where `x` holds complex numbers, whose imaginary part numpy's float cast drops with only a warning.

    An object array's values are each looked at, since its dtype says nothing of them.
    """
    x = np.asarray(x)
    if x.dtype.kind == "c" or x.dtype == object and any(isinstance(v, (complex, np.complexfloating)) for v in x.flat):
        raise TypeError("values must be real numbers, not 'complex'")


def _array(x, name: str, dtype=None) -> np.ndarray:
    """A C-ordered copy of `x`; a PanelError naming `name` where numpy cannot read it (ragged, text, complex)."""
    try:
        _refuse_complex(x)
        return np.array(x, dtype=dtype, order="C")
    except (TypeError, ValueError) as exc:
        raise PanelError(f"{name} cannot be read as an array of numbers: {exc}") from None


def _validate(a, l, y, a0=None, l0=None) -> tuple[np.ndarray | None, ...]:
    """Check (N, K) A and L, (N,) Y and the optional (N,) A0/L0 pair.

    Returns read-only float64 copies, so a dataset cannot be changed in place.
    """
    a = _array(a, "treatments", float)
    l = _array(l, "confounders", float)
    y = _array(y, "outcomes")
    if a.ndim != 2 or a.shape[0] < 1:
        raise PanelError(f"a PanelDataset requires an (N>=1, K) treatment array, got shape {a.shape}")
    n, k = a.shape
    if k < 1:
        raise PanelError("at least one period is required")
    if l.shape != a.shape:
        raise PanelError(f"treatments and confounders must have equal length (got {a.shape} vs {l.shape})")
    if (a0 is None) != (l0 is None):
        raise PanelError("baseline_treatment and baseline_confounder must be given together")
    if a0 is not None:
        a0, l0 = _array(a0, "baseline_treatment", float), _array(l0, "baseline_confounder", float)
    if any(v is not None and v.shape != (n,) for v in (y, a0, l0)):
        raise PanelError(f"outcomes and baselines need one entry for each of the {n} units")
    _reject(~np.isfinite(a), "treatments must be finite", a)
    _reject((l != 0.0) & (l != 1.0), "confounders must be 0/1", l)
    # a non-numeric outcome becomes NaN here, so it fails the integer check
    y_float = y.astype(float) if y.dtype.kind in "biuf" else np.full(n, np.nan)
    _reject(~np.isfinite(y_float) | (y_float != np.round(y_float)), "outcome must be an integer count", y)
    _reject(y_float < 0, "outcome must be >= 0", y)
    if a0 is not None:
        _reject(~np.isfinite(a0), "baseline_treatment must be finite", a0)
        _reject((l0 != 0.0) & (l0 != 1.0), "baseline_confounder must be 0/1", l0)
    out = (a, l, y_float, a0, l0)
    for arr in out:
        if arr is not None:
            arr.flags.writeable = False
    return out


class PanelDataset:
    """Uniform-horizon panel stored as read-only arrays, with unique unit ids.

    Built from (N, K) treatments A, (N, K) 0/1 confounders L and (N,) counts
    Y; `unit_ids` defaults to 0..N-1. The baselines A0/L0 are given together,
    one entry per unit, or not at all. The inputs are copied, not frozen: the
    attributes `A`, `L`, `Y`, `A0`/`L0` (None without a baseline), `unit_ids`
    and `n_periods` cannot be rebound, nor the arrays written into.
    """

    __slots__ = ("A", "L", "Y", "A0", "L0", "unit_ids", "n_periods")

    def __init__(self, A, L, Y, *, unit_ids=None, A0=None, L0=None):
        arrays = _validate(A, L, Y, A0, L0)
        n, k = arrays[0].shape
        try:
            ids = tuple(range(n)) if unit_ids is None else tuple(unit_ids)
        except TypeError:
            raise PanelError(f"unit_ids must be a sequence of ids, got {unit_ids!r}") from None
        if len(ids) != n:
            raise PanelError(f"unit_ids has {len(ids)} entries for {n} units")
        try:
            unique = len(set(ids)) == n
        except TypeError as exc:
            raise PanelError(f"unit_ids must be hashable: {exc}") from None
        if not unique:
            dupes = sorted({u for u in ids if ids.count(u) > 1}, key=str)
            raise PanelError(f"unit_ids must be unique, duplicated: {dupes}")
        for name, value in zip(self.__slots__, (*arrays, ids, k)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PanelDataset attribute {name!r} is read-only")

    def __reduce__(self):  # pickle and copy rebuild through __init__, since attributes cannot be set
        return partial(PanelDataset, unit_ids=self.unit_ids, A0=self.A0, L0=self.L0), (self.A, self.L, self.Y)

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PanelDataset) or self.unit_ids != other.unit_ids:
            return False
        return all(np.array_equal(getattr(self, x), getattr(other, x)) for x in ("A", "L", "Y", "A0", "L0"))


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _fields(values: list) -> list[str]:
    """csv.writer's fields of `values`: a float (np.float64 too) with .17g, None as nothing, anything else str()."""
    texts = [v if type(v) is str else f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)
             for v in values]
    if _NEEDS_QUOTES.search("".join(texts)):  # one scan finds whether any field of the column needs quotes
        texts = ['"' + t.replace('"', '""') + '"' if _NEEDS_QUOTES.search(t) else t for t in texts]
    return texts


def write_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write `header`, then one line per row of two or more equal-length 1-D arrays `columns`, as csv.writer does.

    A column of dtype kind f is written with %.17g and one of kind i or u
    with %d. Any other column (object, str, bool) is written value by value:
    a float (np.float64 too) as 17 significant digits, None as an empty field
    and anything else as str(); a field holding `,`, `"`, \\r or \\n is
    wrapped in `"`, its quotes doubled. Every line ends in \\r\\n.
    """
    formats, cells = [], []
    for column in columns:
        kind = column.dtype.kind
        formats.append("%.17g" if kind == "f" else "%d" if kind in "iu" else "%s")
        cells.append(column.tolist() if kind in "fiu" else _fields(column.tolist()))
    line = ",".join(formats) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_fields(header)) + "\r\n")
        fh.writelines(map(line.__mod__, zip(*cells, strict=True)))


def write_panel_csv(dataset: PanelDataset, panel_path: str | Path, outcome_path: str | Path) -> None:
    """Write the long-format panel file and the per-unit outcome file.

    Baselines are not part of the exchange schema; panels read back from CSV
    carry observed periods only.
    """
    n, k = dataset.A.shape
    ids = np.fromiter(dataset.unit_ids, dtype=object, count=n)  # an inferred dtype would write (True, 2) as 1,2
    write_csv(
        panel_path,
        PANEL_CSV_HEADER,
        [np.repeat(ids, k), np.tile(np.arange(1, k + 1), n), dataset.A.ravel(), dataset.L.astype(int).ravel()],
    )
    write_csv(outcome_path, OUTCOME_CSV_HEADER, [ids, dataset.Y.astype(int)])


def _float_error(raw: str) -> str:
    """The SchemaError text for a field that `float` does not read as a finite number."""
    try:
        float(raw)
    except ValueError:
        return f"expected a number, got {raw!r}"
    return f"expected a finite number, got {raw!r}"


def _float_or_nan(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _floats(texts: tuple[str, ...]) -> np.ndarray:
    """`float` of every text, NaN where it reads none: a field is good where the result is finite."""
    return np.fromiter(map(_float_or_nan, texts), dtype=float, count=len(texts))


def _parse_int(raw: str, row: int, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"expected an integer, got {raw!r}", row=row, column=column) from None


_NOT_A_LINE_BREAK = re.compile(rb"[^\r\n]")


def _lines_within(data: bytes, limit: int) -> bool:
    """`max(map(len, data.splitlines()), default=0) <= limit`, without splitting.

    From a line start, a line of at most `limit` bytes ends within the next
    limit + 1 bytes, so a window without \\n or \\r holds a longer line.
    Else every line that ends in the window is within the limit, and the
    walk moves past the window's last break. The line that break starts has
    no break before the window's end, so the next step moves past the
    window or finds that line too long: at most 2 len(data) / (limit + 1) + 1
    steps, each two `rfind` calls.
    """
    pos = 0
    while len(data) - pos > limit:
        end = pos + limit + 1
        last = max(data.rfind(b"\n", pos, end), data.rfind(b"\r", pos, end))
        if last < 0:
            return False
        pos = last + 1
    return True


def _csv_columns(path: str | Path, header: list[str], numeric: tuple[str, ...]) -> tuple[list, SchemaError | None]:
    """The columns of a CSV with `header`, and the fault that ends them, or None.

    The `numeric` columns are float64, NaN where `float` reads no number,
    the others object arrays of the fields as written; blank records are
    skipped. One `np.loadtxt` call reads a file whose first line is the
    header as written and whose data is not all blank (loadtxt warns), with
    no NUL, no byte in \\x1c-\\x1f (loadtxt strips them around a number,
    `float` does not) and no field over `csv.field_size_limit()`: the file
    is within it in bytes, or has no quote and no longer line, which
    `_lines_within` finds in about len / limit steps. None of these checks
    copies the file. Any other file, and any that loadtxt refuses, is
    walked by `_numbered_records` up to the SchemaError it raises, the
    fault.
    """
    data = Path(path).read_bytes()
    head = ",".join(header).encode()
    n, limit = len(head), csv.field_size_limit()
    if (data.startswith(head) and data[n:n + 1] in (b"\n", b"\r") and _NOT_A_LINE_BREAK.search(data, n)
            and not any(map(data.__contains__, b"\0\x1c\x1d\x1e\x1f"))
            and (len(data) <= limit or b'"' not in data and _lines_within(data, limit))):
        dtype = [(name, float if name in numeric else object) for name in header]
        try:
            # decoded chunk by chunk as loadtxt reads, with no newline translation inside quoted fields
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
            return np.loadtxt(text, dtype, comments=None, delimiter=",", skiprows=1, quotechar='"', ndmin=1,
                              unpack=True), None
        except ValueError:  # on every form tested, it refuses what it reads otherwise than csv.reader and `float`
            pass
    records, fault = [], None
    try:
        for _, rec in _numbered_records(path, header):
            records.append(rec)
    except SchemaError as exc:
        fault = exc
    columns = list(zip(*records)) or [()] * len(header)
    return [_floats(c) if name in numeric else np.array(c, dtype=object) for name, c in zip(header, columns)], fault


def _numbered_records(path: str | Path, header: list[str]):
    """(first file row, fields) of each non-blank data record of a CSV with `header`, read one at a time.

    The one reporter of CSV faults, each raised as a SchemaError when the
    walk reaches it: a wrong or missing header, a record with a NUL or
    without one field per header column, one that csv.reader rejects, and
    bytes that are not UTF-8.
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
                    if "\0" in "".join(rec):  # what csv.reader itself raises before Python 3.11
                        raise SchemaError(f"{path}: line contains NUL", row=row)
                    if len(rec) != n_fields:
                        raise SchemaError(f"expected {n_fields} fields, got {len(rec)}", row=row)
                    yield row, rec
                row = r.line_num + 1
        except UnicodeDecodeError as exc:  # raised while reading ahead, so no row can be named
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason}: {exc.object[exc.start:exc.end]!r})") from None
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise SchemaError(f"{path}: {exc}", row=row) from None


def _check_records(path: str | Path, header: list[str], checks, fault: SchemaError | None) -> None:
    """Raise the SchemaError of the first record a check flags, else the `fault` after the records.

    `checks` are (bad, column, message) in the order a record is checked:
    `bad` flags records, and `message(k, fields)` is the error text of
    record k, whose fields the walk to its row reads.
    """
    bad = np.array([flags for flags, _, _ in checks])
    hit = bad.any(axis=0)
    if hit.any():
        k = int(hit.argmax())
        _, column, message = checks[int(bad[:, k].argmax())]
        for row, fields in islice(_numbered_records(path, header), k, None):
            raise SchemaError(message(k, fields), row=row, column=column)
        fault = SchemaError(f"{path}: changed while it was read")
    if fault is not None:
        raise fault


def read_panel_csv(panel_path: str | Path, outcome_path: str | Path) -> PanelDataset:
    """Read a dataset from the panel/outcome CSV pair, validating the schema.

    Both files are read record by record through `_numbered_records`, so the
    first bad record in file order raises a SchemaError naming its row. A
    count above 2**53 is rejected: float64 `Y` cannot hold it exactly.
    """
    per_unit: dict[str, dict[int, tuple[float, int]]] = {}  # in order of first appearance
    for row, (uid, period, volume_text, quake) in _numbered_records(panel_path, PANEL_CSV_HEADER):
        period = _parse_int(period, row, "period")
        vol = _float_or_nan(volume_text)
        if not math.isfinite(vol):
            raise SchemaError(_float_error(volume_text), row=row, column="volume_bbl")
        quake = _parse_int(quake, row, "quake_indicator")
        if period < 1:
            raise SchemaError(f"period must be >= 1, got {period}", row=row, column="period")
        if quake not in (0, 1):
            raise SchemaError(f"quake_indicator must be 0 or 1, got {quake}", row=row, column="quake_indicator")
        unit = per_unit.setdefault(uid, {})
        if period in unit:
            raise SchemaError(f"duplicate period {period} for unit {uid!r}", row=row, column="period")
        unit[period] = (vol, quake)
    if not per_unit:
        raise SchemaError(f"{panel_path}: no data rows", row=2)

    outcomes: dict[str, int] = {}
    for row, (uid, y) in _numbered_records(outcome_path, OUTCOME_CSV_HEADER):
        if uid in outcomes:
            raise SchemaError(f"duplicate outcome for unit {uid!r}", row=row, column="unit_id")
        y = _parse_int(y, row, "cumulative_quakes")
        if y < 0:
            raise SchemaError(f"cumulative_quakes must be >= 0, got {y}", row=row, column="cumulative_quakes")
        if y > 2**53:
            raise SchemaError(f"cumulative_quakes must be <= {2**53}, got {y}", row=row, column="cumulative_quakes")
        outcomes[uid] = y

    missing = [u for u in per_unit if u not in outcomes]
    if missing:
        raise SchemaError(f"{outcome_path}: missing outcome for units {missing}", column="unit_id")
    extra = [u for u in outcomes if u not in per_unit]
    if extra:
        raise SchemaError(f"{outcome_path}: outcomes for unknown units {extra}", column="unit_id")

    rows = []
    for uid, periods in per_unit.items():
        k = max(periods)
        n_absent = k - len(periods)  # the periods are distinct and >= 1
        if n_absent:
            absent = list(islice(filterfalse(periods.__contains__, range(1, k)), 10))  # at most 10 named
            more = f" and {n_absent - len(absent)} more" if n_absent > len(absent) else ""
            raise SchemaError(f"unit {uid!r} is missing periods {absent}{more}", column="period")
        rows.append([periods[t] for t in range(1, k + 1)])
    horizon = len(rows[0])
    for uid, row in zip(per_unit, rows):
        if len(row) != horizon:
            raise SchemaError(
                f"all panels must share the same horizon: unit {uid!r} has K={len(row)}, expected K={horizon}"
            )
    cells = np.array(rows, dtype=float)
    try:
        return PanelDataset(cells[:, :, 0], cells[:, :, 1], [outcomes[u] for u in per_unit], unit_ids=list(per_unit))
    except PanelError as exc:
        raise SchemaError(str(exc)) from exc
