"""Panel data model: summaries, invariants, CSV round trip."""

import copy
import csv
import io
import math
import pickle
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longicausal.exceptions import PanelError, SchemaError
from longicausal.panel import (
    OUTCOME_CSV_HEADER,
    PANEL_CSV_HEADER,
    PanelDataset,
    _check_records,
    _lines_within,
    read_panel_csv,
    write_csv,
    write_panel_csv,
)

from conftest import make_dataset

PANEL_HEADER = ",".join(PANEL_CSV_HEADER) + "\n"
OUTCOME_HEADER = ",".join(OUTCOME_CSV_HEADER) + "\n"
GOOD_PANEL = PANEL_HEADER + "a,1,5,0\nb,1,6,1\n"
GOOD_OUTCOMES = OUTCOME_HEADER + "a,1\nb,0\n"

# (panel file, outcome file, row, column, message); None is the valid file
PANEL_CSV_ERRORS = [
    pytest.param(PANEL_HEADER + "a,1,5\n", None, 2, None, "expected 4 fields, got 3", id="panel-field-count"),
    pytest.param("unit,period,volume,quake\na,1,5,0\n", None, 1, None, "expected header", id="panel-header"),
    pytest.param("", None, 1, None, "<empty file>", id="panel-empty-file"),
    pytest.param(PANEL_HEADER + "a,1,5,0\n\nb,1,x,0\n", None, 4, "volume_bbl", "expected a number",
                 id="panel-after-blank-line"),
    pytest.param(PANEL_HEADER + '"a\nb",1,5,0\nc,1,5,0\nd,1,x,0\n', None, 5, "volume_bbl", "expected a number",
                 id="panel-after-multiline-field"),
    pytest.param(PANEL_HEADER + '"a\nb",1,5,0\nc,1\n', None, 4, None, "expected 4 fields, got 2",
                 id="field-count-after-multiline-field"),
    pytest.param(PANEL_HEADER + "a,1,5,0\na,1,6,0\n", None, 3, "period", "duplicate period 1 for unit 'a'",
                 id="duplicate-period"),
    pytest.param(PANEL_HEADER + "a,0,5,0\n", None, 2, "period", "period must be >= 1", id="period-below-1"),
    pytest.param(PANEL_HEADER + "a,1,5,2\n", None, 2, "quake_indicator", "must be 0 or 1",
                 id="quake-not-binary"),
    pytest.param(PANEL_HEADER + "a,1,5,0\n\nb\0,1,6,1\n", None, 4, None, "line contains NUL", id="panel-nul"),
    pytest.param(PANEL_HEADER + "a,0,5,0\nb,1\n", None, 2, "period", "period must be >= 1",
                 id="check-before-field-count"),
    pytest.param(PANEL_HEADER + "a,1\nb,0,5,0\n", None, 2, None, "expected 4 fields, got 2",
                 id="field-count-before-check"),
    pytest.param(PANEL_HEADER + "a,1,x,0\nb\0,1,6,1\n", None, 2, "volume_bbl", "expected a number",
                 id="volume-before-nul"),
    pytest.param("unit_id,per\0iod,volume_bbl,quake_indicator\na,1,5,0\n", None, 1, None, "expected header",
                 id="nul-in-header"),
    pytest.param(PANEL_HEADER, None, 2, None, "no data rows", id="no-data-rows"),
    pytest.param(PANEL_HEADER + "\n\n", None, 2, None, "no data rows", id="blank-rows-only"),
    pytest.param(None, OUTCOME_HEADER + "a,1,2\n", 2, None, "expected 2 fields, got 3", id="outcome-field-count"),
    pytest.param(None, "unit_id,quakes\na,1\n", 1, None, "expected header", id="outcome-header"),
    pytest.param(None, "", 1, None, "<empty file>", id="outcome-empty-file"),
    pytest.param(None, OUTCOME_HEADER + "a,1\n\nb,x\n", 4, "cumulative_quakes", "expected an integer",
                 id="outcome-after-blank-line"),
    pytest.param(None, OUTCOME_HEADER + '"a\n",1\nb,x\n', 4, "cumulative_quakes", "expected an integer",
                 id="outcome-after-multiline-field"),
    pytest.param(None, OUTCOME_HEADER + "a,1\na,2\nb,0\n", 3, "unit_id", "duplicate outcome for unit 'a'",
                 id="duplicate-outcome"),
    pytest.param(None, OUTCOME_HEADER + "a,-1\nb,0\n", 2, "cumulative_quakes", "must be >= 0",
                 id="negative-outcome"),
    pytest.param(None, OUTCOME_HEADER + "a,x\nb\n", 2, "cumulative_quakes", "expected an integer",
                 id="outcome-before-field-count"),
    pytest.param(None, OUTCOME_HEADER + "a,9007199254740993\nb,0\n", 2, "cumulative_quakes",
                 "must be <= 9007199254740992", id="outcome-above-2-53"),
    pytest.param(None, OUTCOME_HEADER + "a,18446744073709551616\nb,0\n", 2, "cumulative_quakes",
                 "must be <= 9007199254740992", id="outcome-above-uint64"),
    pytest.param(None, OUTCOME_HEADER + "a,1\n", None, "unit_id", r"missing outcome for units \['b'\]",
                 id="missing-unit"),
    pytest.param(None, GOOD_OUTCOMES + "c,3\n", None, "unit_id", r"outcomes for unknown units \['c'\]",
                 id="unknown-unit"),
]


def cum_treatment(treatments) -> float:
    return float(make_dataset([treatments]).A.sum(axis=1)[0])


class TestCumTreatment:
    def test_simple_sum(self):
        assert cum_treatment([1, 2, 3]) == 6.0

    def test_zeros(self):
        assert cum_treatment([0, 0, 0, 0]) == 0.0

    def test_constant_sequence(self):
        k, c = 7, 12.5
        assert cum_treatment([c] * k) == pytest.approx(k * c)

    def test_cum_confounder(self):
        ds = make_dataset([[1, 1, 1]], [[1, 0, 1]])
        assert ds.L.sum(axis=1)[0] == 2.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=10), st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = cum_treatment(values)
        b = cum_treatment(shuffled)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


class TestPanelValidation:
    def test_length_mismatch(self):
        with pytest.raises(PanelError, match="equal length"):
            PanelDataset([[1.0, 2.0]], [[0]], [0])

    def test_empty_sequences(self):
        with pytest.raises(PanelError):
            PanelDataset(np.empty((1, 0)), np.empty((1, 0)), [0])

    def test_confounder_not_binary(self):
        with pytest.raises(PanelError, match="0/1"):
            PanelDataset([[1.0]], [[2]], [0])

    def test_negative_outcome(self):
        with pytest.raises(PanelError, match=">= 0"):
            PanelDataset([[1.0]], [[0]], [-1])

    def test_non_integer_outcome(self):
        with pytest.raises(PanelError, match="integer"):
            PanelDataset([[1.0]], [[0]], [2.5])

    def test_non_finite_treatment(self):
        with pytest.raises(PanelError, match="finite"):
            PanelDataset([[float("nan")]], [[0]], [0])

    def test_baseline_validation(self):
        with pytest.raises(PanelError):
            PanelDataset([[1.0]], [[0]], [0], L0=[3])
        with pytest.raises(PanelError, match="baseline_confounder must be 0/1"):
            PanelDataset([[1.0]], [[0]], [0], A0=[2.0], L0=[3])
        with pytest.raises(PanelError, match="baseline_treatment must be finite"):
            PanelDataset([[1.0]], [[0]], [0], A0=[np.inf], L0=[1])
        assert PanelDataset([[1.0]], [[0]], [0], A0=[2.0], L0=[1]).A0 is not None

    def test_mixed_baselines_rejected(self):
        with pytest.raises(PanelError, match="together"):
            PanelDataset([[1.0]], [[0]], [0], A0=[2.0])
        with pytest.raises(PanelError, match="together"):
            PanelDataset([[1.0]], [[0]], [0], L0=[1])
        with pytest.raises(PanelError, match="one entry for each"):
            PanelDataset([[1.0], [1.0]], [[0], [0]], [0, 0], A0=[2.0], L0=[1])
        with pytest.raises(PanelError, match="baseline_treatment must be finite"):
            PanelDataset([[1.0], [1.0]], [[0], [0]], [0, 0], A0=[2.0, None], L0=[1, 0])

    @pytest.mark.parametrize(
        "arrays, name, cause",
        [
            ({"A": [[1.0, 2.0], [3.0]]}, "treatments", "inhomogeneous shape"),
            ({"A": [["a", "b"]]}, "treatments", "could not convert string to float"),
            ({"A": [[1.0, 2j]]}, "treatments", "not 'complex'"),
            ({"L": [["a", "b"]]}, "confounders", "could not convert string to float"),
            ({"L": [[0, 1], [1]]}, "confounders", "inhomogeneous shape"),
            ({"Y": [[1], [2, 3]]}, "outcomes", "inhomogeneous shape"),
            ({"A0": [[1.0], []], "L0": [0, 1]}, "baseline_treatment", "inhomogeneous shape"),
            ({"A0": [1.0, 2.0], "L0": ["x", 1]}, "baseline_confounder", "could not convert string to float"),
            ({"A": np.array([[1.0, 2.0 + 1.0j], [3.0, 4.0]])}, "treatments", "not 'complex'"),
            ({"L": np.array([[0, 1], [1, 0]], dtype=complex)}, "confounders", "not 'complex'"),
            ({"Y": np.array([0.0 + 1.0j, 1.0])}, "outcomes", "not 'complex'"),
            ({"A0": np.array([1.0, 2.0 + 1.0j]), "L0": [0, 1]}, "baseline_treatment", "not 'complex'"),
            ({"A0": [1.0, 2.0], "L0": np.array([0.0, 1.0 + 0.0j])}, "baseline_confounder", "not 'complex'"),
            ({"A": np.array([[np.complex128(1 + 2j)], [2.0]], dtype=object), "L": [[0], [0]]}, "treatments",
             "not 'complex'"),
            ({"A0": np.array([np.complex128(1j), 2.0], dtype=object), "L0": [1, 0]}, "baseline_treatment",
             "not 'complex'"),
            ({"A0": [np.complex128(1j), None], "L0": [1, 0]}, "baseline_treatment", "not 'complex'"),
            ({"L": np.array([[0, np.complex64(1)], [1, 0]], dtype=object)}, "confounders", "not 'complex'"),
        ],
        ids=["ragged-A", "text-A", "complex-A", "text-L", "ragged-L", "ragged-Y", "ragged-A0", "text-L0",
             "complex-ndarray-A", "complex-ndarray-L", "complex-ndarray-Y", "complex-ndarray-A0", "complex-ndarray-L0",
             "complex-object-A", "complex-object-A0", "complex-object-list-A0", "complex-object-complex64-L"],
    )
    def test_arrays_numpy_cannot_read_are_named(self, arrays, name, cause):
        good = {"A": [[1.0, 2.0], [3.0, 4.0]], "L": [[0, 1], [1, 0]], "Y": [0, 1]}
        fields = {**good, **arrays}
        with pytest.raises(PanelError, match=rf"^{name} cannot be read as an array of numbers: .*{cause}"):
            PanelDataset(fields.pop("A"), fields.pop("L"), fields.pop("Y"), **fields)

    def test_dataset_arrays_read_only(self):
        a = np.array([[1.0, 2.0], [4.0, 5.0]])
        ds = PanelDataset(a, [[0, 1], [1, 1]], [3, 7], A0=[0.5, 0.5], L0=[0, 1])
        for arr in (ds.A, ds.L, ds.Y, ds.A0, ds.L0):
            with pytest.raises(ValueError):
                arr[0] = 9.0
        a[0, 0] = 100.0  # the caller's array is copied, not shared or frozen
        np.testing.assert_array_equal(ds.A, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.Y, [3, 7])


class TestPanelDataset:
    def test_attributes_cannot_be_rebound(self):
        ds = PanelDataset([[1.0, 2.0], [4.0, 5.0]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "b"],
                          A0=[0.5, 0.5], L0=[0, 1])
        for name, value in [("A", np.zeros((2, 2))), ("L", np.zeros((2, 2))), ("Y", np.zeros(2)),
                            ("A0", None), ("L0", None), ("unit_ids", ("only",)), ("n_periods", 1)]:
            with pytest.raises(AttributeError, match="read-only"):
                setattr(ds, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            ds.extra = 1
        for arr in (ds.A, ds.L, ds.Y, ds.A0, ds.L0):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        assert ds.unit_ids == ("a", "b") and ds.n_units == 2 and ds.n_periods == 2
        np.testing.assert_array_equal(ds.A, [[1, 2], [4, 5]])

    @pytest.mark.parametrize("baseline", [True, False])
    def test_pickle_and_copy_rebuild_the_dataset(self, baseline):
        extra = {"A0": [0.5, 0.5], "L0": [0, 1]} if baseline else {}
        ds = PanelDataset([[1.0, 2.0], [4.0, 5.0]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "b"], **extra)
        for back in (pickle.loads(pickle.dumps(ds)), copy.copy(ds), copy.deepcopy(ds)):
            assert back == ds and back.unit_ids == ("a", "b")
            assert not back.A.flags.writeable

    def test_duplicate_ids_fail(self):
        with pytest.raises(PanelError, match="unique"):
            PanelDataset([[1.0], [2.0]], [[0], [0]], [0, 0], unit_ids=["a", "a"])

    @pytest.mark.parametrize(
        "unit_ids, message",
        [(5, r"^unit_ids must be a sequence of ids, got 5$"),
         ([[1], [2], [3]], r"^unit_ids must be hashable: unhashable type: 'list'$")],
        ids=["not-iterable", "unhashable"],
    )
    def test_bad_unit_ids_fail(self, unit_ids, message):
        with pytest.raises(PanelError, match=message):
            PanelDataset([[1.0], [2.0], [3.0]], [[0], [0], [0]], [0, 0, 0], unit_ids=unit_ids)

    def test_empty_fails(self):
        with pytest.raises(PanelError):
            PanelDataset(np.empty((0, 2)), np.empty((0, 2)), [])

    def test_unit_ids_and_equality(self):
        ds = PanelDataset([[1, 2], [4, 5]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "b"])
        assert ds.unit_ids == ("a", "b")
        assert ds == PanelDataset([[1.0, 2.0], [4.0, 5.0]], [[0, 1], [1, 1]], [3.0, 7.0], unit_ids=("a", "b"))
        assert ds != PanelDataset([[1, 2], [4, 5]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "c"])
        assert ds != PanelDataset([[1, 2], [4, 5]], [[0, 1], [1, 0]], [3, 7], unit_ids=["a", "b"])
        assert PanelDataset([[1.0]], [[0]], [0]).unit_ids == (0,)
        with pytest.raises(PanelError, match="2 entries for 1 units"):
            PanelDataset([[1.0]], [[0]], [0], unit_ids=["a", "b"])

    def test_matrices(self):
        ds = PanelDataset([[1, 2], [4, 5]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "b"])
        assert ds.n_units == 2 and ds.n_periods == 2
        np.testing.assert_allclose(ds.A, [[1, 2], [4, 5]])
        np.testing.assert_allclose(ds.L, [[0, 1], [1, 1]])
        np.testing.assert_allclose(ds.Y, [3, 7])
        np.testing.assert_allclose(ds.A.sum(axis=1), [3, 9])
        np.testing.assert_allclose(ds.L.sum(axis=1), [1, 2])
        assert ds.A0 is None and ds.L0 is None


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        ds = PanelDataset(
            [[100.5, 0.0, 3.25e5], [7.0, 8.0, 9.0]], [[0, 1, 0], [1, 1, 0]], [4, 0], unit_ids=["c00", "c01"]
        )
        write_panel_csv(ds, tmp_path / "p.csv", tmp_path / "y.csv")
        back = read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")
        assert back == ds

    def test_bad_header(self, tmp_path):
        (tmp_path / "p.csv").write_text("unit,period,volume,quake\n")
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\n")
        with pytest.raises(SchemaError, match="header"):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")

    def test_bad_volume_names_row_and_column(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "unit_id,period,volume_bbl,quake_indicator\na,1,notanumber,0\n"
        )
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\na,1\n")
        with pytest.raises(SchemaError, match=r"row 2.*volume_bbl"):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")

    def test_missing_period(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "unit_id,period,volume_bbl,quake_indicator\na,1,5,0\na,3,5,0\n"
        )
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\na,1\n")
        with pytest.raises(SchemaError, match="missing periods"):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")

    def test_missing_period_message_is_exact(self, tmp_path):
        (tmp_path / "p.csv").write_text(PANEL_HEADER + "a,1,5,0\na,3,5,0\n")
        (tmp_path / "y.csv").write_text(OUTCOME_HEADER + "a,1\n")
        with pytest.raises(SchemaError) as info:
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")
        assert str(info.value) == "unit 'a' is missing periods [2] (column 'period')"

    def test_huge_period_is_a_bounded_error(self, tmp_path):
        """The cost follows the rows, not the largest period: 10**12 fails at once, naming 10 gaps."""
        (tmp_path / "p.csv").write_text(PANEL_HEADER + "a,1,5,0\na,1000000000000,5,0\n")
        (tmp_path / "y.csv").write_text(OUTCOME_HEADER + "a,1\n")
        t0 = time.perf_counter()
        with pytest.raises(SchemaError, match="missing periods") as info:
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")
        assert time.perf_counter() - t0 < 1.0
        assert str(info.value).startswith(
            f"unit 'a' is missing periods {list(range(2, 12))} and {10**12 - 12} more"
        )

    def test_flagged_record_gone_from_the_file(self, tmp_path):
        # the flags come from an earlier read of the file, which now ends before record 3
        path = tmp_path / "p.csv"
        path.write_text(GOOD_PANEL)
        for flagged, message in ((1, "record 1 is bad (row 3, column 'volume_bbl')"),
                                 (3, f"{path}: changed while it was read")):
            checks = [(np.arange(4) == flagged, "volume_bbl", lambda k, fields: f"record {k} is bad")]
            with pytest.raises(SchemaError) as info:
                _check_records(path, PANEL_CSV_HEADER, checks, SchemaError("a later fault"))
            assert str(info.value) == message

    def test_missing_outcome(self, tmp_path):
        (tmp_path / "p.csv").write_text("unit_id,period,volume_bbl,quake_indicator\na,1,5,0\n")
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\nb,1\n")
        with pytest.raises(SchemaError):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")

    @pytest.mark.parametrize("panel, outcomes, row, column, match", PANEL_CSV_ERRORS)
    def test_schema_errors(self, tmp_path, panel, outcomes, row, column, match):
        (tmp_path / "p.csv").write_text(GOOD_PANEL if panel is None else panel)
        (tmp_path / "y.csv").write_text(GOOD_OUTCOMES if outcomes is None else outcomes)
        with pytest.raises(SchemaError, match=match) as exc:
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")
        assert (exc.value.row, exc.value.column) == (row, column)

    def test_unequal_horizons_fail(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "unit_id,period,volume_bbl,quake_indicator\na,1,5,0\na,2,5,0\nb,1,5,0\nb,2,5,0\nb,3,5,1\n"
        )
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\na,0\nb,1\n")
        with pytest.raises(SchemaError, match="same horizon: unit 'b' has K=3, expected K=2"):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")


def lines_within(data: bytes, limit: int) -> bool:
    """The long-line rule `_lines_within` walks in bounded windows, by splitting every line."""
    return max(map(len, data.splitlines()), default=0) <= limit


def line_cases(limit: int):
    """(data, limit) pairs with a line of exactly `limit` and of limit + 1 bytes at the start, middle and end."""
    for n in (limit, limit + 1):
        line = b"a" * n
        yield line + b"\nbb\ncc\n", limit
        yield b"bb\r\n" + line + b"\r\ncc", limit
        yield b"bb\ncc\n" + line, limit
        yield b"bb\ncc\n" + line + b"\n", limit


class TestLinesWithin:
    @given(data=st.lists(st.sampled_from([b"a", b",", b'"', b"\n", b"\r"]), max_size=200).map(b"".join),
           limit=st.integers(0, 40))
    def test_matches_splitlines(self, data, limit):
        assert _lines_within(data, limit) == lines_within(data, limit)

    @pytest.mark.parametrize("data, limit", [
        (b"", 0), (b"", 5), (b"\n\r\r\n", 0), (b"a", 0),
        (b"aaaaa", 5), (b"aaaaaa", 5),  # no line break
        *line_cases(8), *line_cases(1),
        # \r\n across a window edge: the first window of 9 bytes ends on the \r
        (b"a" * 8 + b"\r\n" + b"a" * 8 + b"\r\n" + b"a" * 8, 8),
        (b"a" * 8 + b"\r\n" + b"a" * 8 + b"\r\n" + b"a" * 8, 7),
        (b"a" * 7 + b"\r\n" + b"a" * 8 + b"\r\n", 8),
        # bare CR line ends
        (b"aaaa\raaaaaaaa\raa", 8), (b"aaaa\raaaaaaaaa\raa", 8), (b"\r" * 20 + b"a" * 8 + b"\r" * 20, 8),
    ])
    def test_cases(self, data, limit):
        assert _lines_within(data, limit) == lines_within(data, limit)


TEXT = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é"]), st.characters(codec="utf-8")))
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]))
# (numpy dtype, values): a float64 column, an int64 one, and object columns of mixed Python values
COLUMN_KINDS = st.sampled_from([
    (np.float64, FLOATS),
    (np.int64, st.integers(-2**63, 2**63 - 1)),
    (object, st.one_of(TEXT, st.integers(2**63, 2**70), FLOATS, st.booleans(), st.none())),
    (object, TEXT),
])


@st.composite
def tables(draw):
    """(header, columns) of zero to four rows and two to four columns of the kinds write_csv formats apart."""
    n_rows, kinds = draw(st.integers(0, 4)), draw(st.lists(COLUMN_KINDS, min_size=2, max_size=4))
    columns = []
    for dtype, values in kinds:
        column = np.empty(n_rows, dtype=dtype)
        column[:] = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        columns.append(column)
    return draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns))), columns


class TestWriteCsv:
    @settings(deadline=None)
    @given(table=tables())
    def test_writes_the_bytes_of_csv_writer(self, table):
        header, columns = table
        oracle = io.StringIO(newline="")
        writer = csv.writer(oracle)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in zip(*(c.tolist() for c in columns)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, header, columns)
            assert path.read_bytes() == oracle.getvalue().encode("utf-8")

    def test_columns_of_unequal_length_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(2), np.arange(3)])
