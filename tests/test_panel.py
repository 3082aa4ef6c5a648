"""Panel data model: summaries, invariants, CSV round trip."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longicausal.exceptions import DomainError, PanelError, SchemaError
from longicausal.panel import (
    ClusterPanel,
    PanelDataset,
    binarize_treatment,
    read_panel_csv,
    write_panel_csv,
)

from conftest import make_panel


def cum_treatment(panel: ClusterPanel) -> float:
    return float(PanelDataset([panel]).cum_treatment_vector()[0])


class TestCumTreatment:
    def test_simple_sum(self):
        assert cum_treatment(make_panel("a", [1, 2, 3])) == 6.0

    def test_zeros(self):
        assert cum_treatment(make_panel("a", [0, 0, 0, 0])) == 0.0

    def test_constant_sequence(self):
        k, c = 7, 12.5
        assert cum_treatment(make_panel("a", [c] * k)) == pytest.approx(k * c)

    def test_cum_confounder(self):
        ds = PanelDataset([make_panel("a", [1, 1, 1], [1, 0, 1])])
        assert ds.cum_confounder_vector()[0] == 2.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=10), st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        a = cum_treatment(make_panel("a", values))
        b = cum_treatment(make_panel("a", shuffled))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


class TestBinarize:
    def test_boundary_is_inclusive(self):
        p = make_panel("a", [2_500_000, 2_500_000])
        assert binarize_treatment(p, 5_000_000) == 1

    def test_below_threshold(self):
        p = make_panel("a", [4_999_999])
        assert binarize_treatment(p, 5_000_000) == 0

    def test_zero_volume(self):
        assert binarize_treatment(make_panel("a", [0.0]), 5_000_000) == 0

    def test_default_threshold(self):
        assert binarize_treatment(make_panel("a", [6e6])) == 1

    def test_nonpositive_threshold_rejected(self):
        p = make_panel("a", [1.0])
        with pytest.raises(DomainError):
            binarize_treatment(p, 0.0)
        with pytest.raises(DomainError):
            binarize_treatment(p, -5.0)

    @given(st.floats(min_value=0, max_value=1e7), st.floats(min_value=0, max_value=1e7))
    def test_monotone_in_cumulative(self, v1, v2):
        lo, hi = sorted([v1, v2])
        assert binarize_treatment(make_panel("a", [lo]), 5e6) <= binarize_treatment(
            make_panel("a", [hi]), 5e6
        )


class TestPanelValidation:
    def test_length_mismatch(self):
        with pytest.raises(PanelError, match="equal length"):
            ClusterPanel("a", (1.0, 2.0), (0,), 0)
        with pytest.raises(PanelError, match="equal length"):
            PanelDataset.from_arrays([[1.0, 2.0]], [[0]], [0])

    def test_empty_sequences(self):
        with pytest.raises(PanelError):
            ClusterPanel("a", (), (), 0)
        with pytest.raises(PanelError):
            PanelDataset.from_arrays(np.empty((1, 0)), np.empty((1, 0)), [0])

    def test_confounder_not_binary(self):
        with pytest.raises(PanelError, match="0/1"):
            make_panel("a", [1.0], [2])
        with pytest.raises(PanelError, match="0/1"):
            PanelDataset.from_arrays([[1.0]], [[2]], [0])

    def test_negative_outcome(self):
        with pytest.raises(PanelError, match=">= 0"):
            make_panel("a", [1.0], outcome=-1)
        with pytest.raises(PanelError, match=">= 0"):
            PanelDataset.from_arrays([[1.0]], [[0]], [-1])

    def test_non_integer_outcome(self):
        with pytest.raises(PanelError, match="integer"):
            make_panel("a", [1.0], outcome=2.5)
        with pytest.raises(PanelError, match="integer"):
            PanelDataset.from_arrays([[1.0]], [[0]], [2.5])

    def test_non_finite_treatment(self):
        with pytest.raises(PanelError, match="finite"):
            make_panel("a", [float("nan")])
        with pytest.raises(PanelError, match="finite"):
            PanelDataset.from_arrays([[float("nan")]], [[0]], [0])

    def test_baseline_validation(self):
        with pytest.raises(PanelError):
            make_panel("a", [1.0], baseline_confounder=3)
        with pytest.raises(PanelError):
            PanelDataset.from_arrays([[1.0]], [[0]], [0], L0=[3])
        with pytest.raises(PanelError):
            PanelDataset.from_arrays([[1.0]], [[0]], [0], A0=[2.0], L0=[3])
        p = make_panel("a", [1.0], baseline_treatment=2.0, baseline_confounder=1)
        assert p.has_baseline
        assert PanelDataset.from_arrays([[1.0]], [[0]], [0], A0=[2.0], L0=[1]).has_baseline

    def test_mixed_baselines_rejected(self):
        with_base = make_panel("a", [1.0], baseline_treatment=2.0, baseline_confounder=1)
        with pytest.raises(PanelError, match="every unit or for none"):
            PanelDataset([with_base, make_panel("b", [1.0])])
        with pytest.raises(PanelError, match="together"):
            make_panel("a", [1.0], baseline_treatment=2.0)
        with pytest.raises(PanelError, match="together"):
            PanelDataset.from_arrays([[1.0]], [[0]], [0], A0=[2.0])

    def test_immutable(self):
        p = make_panel("a", [1.0])
        with pytest.raises(AttributeError):
            p.outcome = 5

    def test_dataset_arrays_read_only(self):
        a = np.array([[1.0, 2.0], [4.0, 5.0]])
        ds = PanelDataset.from_arrays(a, [[0, 1], [1, 1]], [3, 7], A0=[0.5, 0.5], L0=[0, 1])
        for accessor in (ds.treatment_matrix, ds.confounder_matrix, ds.outcome_vector,
                         ds.baseline_treatment_vector, ds.baseline_confounder_vector):
            with pytest.raises(ValueError):
                accessor()[0] = 9.0
        a[0, 0] = 100.0  # the caller's array is copied, not shared or frozen
        np.testing.assert_array_equal(ds.treatment_matrix(), [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.outcome_vector(), [3, 7])


class TestPanelDataset:
    def test_unequal_k_fails(self):
        with pytest.raises(PanelError, match="same horizon"):
            PanelDataset([make_panel("a", [1, 2]), make_panel("b", [1, 2, 3])])

    def test_duplicate_ids_fail(self):
        with pytest.raises(PanelError, match="unique"):
            PanelDataset([make_panel("a", [1]), make_panel("a", [2])])

    def test_empty_fails(self):
        with pytest.raises(PanelError):
            PanelDataset([])
        with pytest.raises(PanelError):
            PanelDataset.from_arrays(np.empty((0, 2)), np.empty((0, 2)), [])

    def test_from_arrays_matches_panels(self):
        by_panels = PanelDataset([make_panel("a", [1, 2], [0, 1], outcome=3),
                                  make_panel("b", [4, 5], [1, 1], outcome=7)])
        by_arrays = PanelDataset.from_arrays([[1, 2], [4, 5]], [[0, 1], [1, 1]], [3, 7], unit_ids=["a", "b"])
        assert by_arrays == by_panels
        assert by_arrays.panels == by_panels.panels
        assert by_arrays.panels[1].confounders == (1, 1)
        assert PanelDataset.from_arrays([[1.0]], [[0]], [0]).unit_ids == (0,)
        with pytest.raises(PanelError, match="unique"):
            PanelDataset.from_arrays([[1.0], [2.0]], [[0], [0]], [0, 0], unit_ids=["a", "a"])

    def test_matrices(self):
        ds = PanelDataset(
            [
                make_panel("a", [1, 2], [0, 1], outcome=3),
                make_panel("b", [4, 5], [1, 1], outcome=7),
            ]
        )
        assert ds.n_units == 2 and ds.n_periods == 2
        np.testing.assert_allclose(ds.treatment_matrix(), [[1, 2], [4, 5]])
        np.testing.assert_allclose(ds.confounder_matrix(), [[0, 1], [1, 1]])
        np.testing.assert_allclose(ds.outcome_vector(), [3, 7])
        np.testing.assert_allclose(ds.cum_treatment_vector(), [3, 9])
        np.testing.assert_allclose(ds.cum_confounder_vector(), [1, 2])
        assert not ds.has_baseline
        with pytest.raises(PanelError):
            ds.baseline_treatment_vector()


class TestPanelCsv:
    def make_dataset(self):
        return PanelDataset(
            [
                make_panel("c00", [100.5, 0.0, 3.25e5], [0, 1, 0], outcome=4),
                make_panel("c01", [7.0, 8.0, 9.0], [1, 1, 0], outcome=0),
            ]
        )

    def test_round_trip(self, tmp_path):
        ds = self.make_dataset()
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

    def test_missing_outcome(self, tmp_path):
        (tmp_path / "p.csv").write_text("unit_id,period,volume_bbl,quake_indicator\na,1,5,0\n")
        (tmp_path / "y.csv").write_text("unit_id,cumulative_quakes\nb,1\n")
        with pytest.raises(SchemaError):
            read_panel_csv(tmp_path / "p.csv", tmp_path / "y.csv")
