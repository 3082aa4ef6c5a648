"""Projection, distances, clustering, attribution, and panel assembly."""

import itertools
import logging
import math

import numpy as np
import pytest

from longicausal.exceptions import DomainError, SchemaError
from longicausal.geo import (
    DFW_BBOX,
    EARTH_RADIUS_KM,
    QuakeAttribution,
    agglomerative_cluster,
    assign_quakes,
    build_panel,
    cluster_wells,
    haversine_km,
    inverse_project,
    load_catalog_csv,
    load_wells_csv,
    month_range,
    project_coords,
)

from conftest import build_synthetic_corpus

KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0  # 111.1949266...


class TestProjection:
    def test_origin_maps_to_zero(self):
        assert project_coords(-97.5, 32.9, (-97.5, 32.9)) == (0.0, 0.0)

    def test_one_degree_east_at_equator(self):
        x, y = project_coords(1.0, 0.0, (0.0, 0.0))
        assert x == pytest.approx(111.195, abs=1e-3)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        origin = (-97.5, 32.9)
        for lon, lat in [(-98.38, 32.07), (-96.74, 33.68), (-97.2, 33.0)]:
            x, y = project_coords(lon, lat, origin)
            lon2, lat2 = inverse_project(x, y, origin)
            assert lon2 == pytest.approx(lon, abs=1e-9)
            assert lat2 == pytest.approx(lat, abs=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            project_coords(181.0, 0.0, (0.0, 0.0))
        with pytest.raises(DomainError):
            project_coords(0.0, 91.0, (0.0, 0.0))


class TestHaversine:
    def test_identical_points(self):
        assert haversine_km((-97.0, 33.0), (-97.0, 33.0)) == 0.0

    def test_symmetry(self):
        a, b = (-97.0, 33.0), (-98.1, 32.2)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-12)

    def test_one_degree_arc(self):
        assert haversine_km((0.0, 0.0), (1.0, 0.0)) == pytest.approx(111.195, abs=0.001)

    def test_vectorized_second_argument(self):
        d = haversine_km((0.0, 0.0), (np.array([1.0, 2.0]), np.array([0.0, 0.0])))
        assert d.shape == (2,)
        assert d[1] == pytest.approx(2 * KM_PER_DEG, rel=1e-6)


def brute_force_two_partition(points):
    """Minimize total within-cluster sum of squares over all 2-partitions."""
    n = len(points)
    best, best_sets = None, None
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in cluster A to kill symmetry
        a = [i for i in range(n) if not (mask >> i) & 1]
        b = [i for i in range(n) if (mask >> i) & 1]
        if not a or not b:
            continue
        ss = 0.0
        for idx in (a, b):
            sub = points[idx]
            ss += float(((sub - sub.mean(axis=0)) ** 2).sum())
        if best is None or ss < best:
            best, best_sets = ss, (frozenset(a), frozenset(b))
    return best_sets


class TestClustering:
    def test_singletons_when_k_equals_n(self):
        for pts in ([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], [[3.0, 4.0]]):
            labels = agglomerative_cluster(np.array(pts), len(pts))
            assert sorted(labels) == list(range(len(pts)))

    def test_one_cluster(self):
        pts = np.random.default_rng(0).normal(size=(8, 2))
        labels = agglomerative_cluster(pts, 1)
        assert np.all(labels == 0)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(DomainError):
            agglomerative_cluster(pts, 0)
        with pytest.raises(DomainError):
            agglomerative_cluster(pts, 4)

    def test_two_blobs_match_brute_force(self):
        rng = np.random.default_rng(17)
        blob_a = rng.normal(0.0, 1.0, size=(5, 2))
        blob_b = rng.normal(0.0, 1.0, size=(5, 2)) + np.array([100.0, 0.0])
        pts = np.vstack([blob_a, blob_b])
        labels = agglomerative_cluster(pts, 2, linkage="ward")
        got = (frozenset(np.flatnonzero(labels == 0)), frozenset(np.flatnonzero(labels == 1)))
        want = brute_force_two_partition(pts)
        assert set(got) == set(want)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_other_linkages_split_separated_blobs(self, linkage):
        rng = np.random.default_rng(23)
        pts = np.vstack(
            [rng.normal(0.0, 1.0, size=(6, 2)), rng.normal(0.0, 1.0, size=(4, 2)) + 80.0]
        )
        labels = agglomerative_cluster(pts, 2, linkage=linkage)
        assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    @pytest.mark.parametrize("linkage", ["ward", "single", "complete", "average"])
    @pytest.mark.parametrize("kind", ["continuous", "tied_grid"])
    def test_labels_numbered_by_smallest_member(self, linkage, kind):
        # unit ids c00..c29 in panel.csv rely on this numbering
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            if kind == "continuous":
                pts = rng.normal(size=(n, 2))
            else:  # many tied distances and duplicate points
                pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            k = int(rng.integers(1, n + 1))
            labels = agglomerative_cluster(pts, k, linkage=linkage)
            values, first = np.unique(labels, return_index=True)
            assert list(values) == list(range(k))
            assert labels[0] == 0
            assert np.all(np.diff(first) > 0)

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(20, 2))
        a = agglomerative_cluster(pts, 4)
        b = agglomerative_cluster(pts, 4)
        np.testing.assert_array_equal(a, b)

    def test_unknown_linkage(self):
        with pytest.raises(DomainError):
            agglomerative_cluster(np.zeros((3, 2)), 2, linkage="centroid")

    def test_cluster_wells_assignment(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        assert assignment.n_clusters == 30
        assert len(assignment.well_to_cluster) == 65
        assert set(assignment.well_to_cluster.values()) == set(range(30))
        for lon, lat in assignment.centroids:
            assert DFW_BBOX.contains(lon, lat)


class TestAssignQuakes:
    def centroid_pair(self):
        # two centroids ~30 km apart on a meridian
        return [(-97.0, 33.0), (-97.0, 33.0 + 30.0 / KM_PER_DEG)]

    def quake(self, lon, lat, mag=3.0, month="2014-05"):
        from datetime import datetime

        from longicausal.geo import QuakeRecord

        y, m = (int(p) for p in month.split("-"))
        return QuakeRecord(
            event_id=f"e{lon:.3f}{lat:.3f}{mag}", longitude=lon, latitude=lat,
            origin_time=datetime(y, m, 15), magnitude=mag,
        )

    def test_within_radius_of_one_centroid(self):
        cents = self.centroid_pair()
        q = self.quake(-97.0, 33.0 + 10.0 / KM_PER_DEG)  # 10 km from A, 20 from B
        out = assign_quakes(cents, [q], radius_km=15.0)
        assert out.counts == {(0, "2014-05"): 1}
        assert out.unassigned == 0 and out.n_after_cut == 1

    def test_nearest_centroid_wins_inside_both_radii(self):
        cents = self.centroid_pair()
        # 10 km from B, 20 km from A: only B counts
        q = self.quake(-97.0, 33.0 + 20.0 / KM_PER_DEG)
        out = assign_quakes(cents, [q], radius_km=25.0)
        assert out.counts == {(1, "2014-05"): 1}

    def test_beyond_radius_goes_unassigned(self):
        cents = self.centroid_pair()
        q = self.quake(-97.0 + 20.0 / KM_PER_DEG / math.cos(math.radians(33.0)), 33.0)
        out = assign_quakes(cents, [q], radius_km=15.0)
        assert out.counts == {} and out.unassigned == 1

    def test_magnitude_cut_applies(self):
        cents = self.centroid_pair()
        q = self.quake(-97.0, 33.0, mag=2.0)
        out = assign_quakes(cents, [q], magnitude_cut=2.5)
        assert out.n_after_cut == 0 and out.counts == {} and out.unassigned == 0

    def test_row_order_invariance(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        fwd = assign_quakes(assignment.centroids, corpus.quakes)
        rev = assign_quakes(assignment.centroids, list(reversed(corpus.quakes)))
        assert fwd.counts == rev.counts and fwd.unassigned == rev.unassigned

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            assign_quakes([(-97.0, 33.0)], [], radius_km=0.0)


class TestBuildPanel:
    def test_k_is_window_over_period(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(corpus.wells, assignment, attribution)
        assert data.n_units == 30
        assert data.n_periods == 7  # 28 months / 4

    def test_indivisible_window_rejected(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = QuakeAttribution()
        with pytest.raises(DomainError, match="divisible"):
            build_panel(corpus.wells, assignment, attribution, period_months=5)

    def test_three_month_period_supported(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(
            corpus.wells, assignment, attribution, study_start="2013-12", study_end="2016-02",
            period_months=3,
        )
        assert data.n_periods == 9  # 27 months / 3

    def test_volumes_sum_within_cluster(self):
        from longicausal.geo import WellRecord, ClusterAssignment

        wells = [
            WellRecord("w1", -97.0, 33.0, {"2013-12": 100.0, "2014-01": 50.0}),
            WellRecord("w2", -97.001, 33.0, {"2013-12": 200.0}),
        ]
        assignment = ClusterAssignment(1, {"w1": 0, "w2": 0}, ((-97.0005, 33.0),))
        data = build_panel(wells, assignment, QuakeAttribution(),
                           study_start="2013-12", study_end="2014-03", period_months=4)
        assert data.n_periods == 1
        assert data.treatment_matrix()[0, 0] == pytest.approx(350.0)

    def test_missing_month_warns_and_counts_zero(self, caplog):
        from longicausal.geo import WellRecord, ClusterAssignment

        wells = [WellRecord("w1", -97.0, 33.0, {"2013-12": 100.0})]
        assignment = ClusterAssignment(1, {"w1": 0}, ((-97.0, 33.0),))
        with caplog.at_level(logging.WARNING, logger="longicausal.geo"):
            data = build_panel(wells, assignment, QuakeAttribution(),
                               study_start="2013-12", study_end="2014-03", period_months=2)
        assert any("no reported volume" in rec.message for rec in caplog.records)
        assert data.treatment_matrix()[0].tolist() == [100.0, 0.0]

    def test_confounder_flags_and_outcomes(self):
        from longicausal.geo import WellRecord, ClusterAssignment

        wells = [WellRecord("w1", -97.0, 33.0, {m: 10.0 for m in month_range("2013-12", "2014-07")})]
        assignment = ClusterAssignment(1, {"w1": 0}, ((-97.0, 33.0),))
        attribution = QuakeAttribution(
            counts={(0, "2013-12"): 2, (0, "2014-05"): 1, (0, "2020-01"): 9}, unassigned=0, n_after_cut=3
        )
        data = build_panel(wells, assignment, attribution,
                           study_start="2013-12", study_end="2014-07", period_months=4)
        assert data.confounder_matrix()[0].tolist() == [1, 1]
        assert data.outcome_vector()[0] == 3  # the 2020 count is outside the window

    def test_month_range(self):
        months = month_range("2013-12", "2016-03")
        assert len(months) == 28
        assert months[0] == "2013-12" and months[-1] == "2016-03"
        with pytest.raises(DomainError):
            month_range("2016-03", "2013-12")


class TestConservation:
    def test_quake_and_volume_conservation(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        assert attribution.n_after_cut == 71 - corpus.n_below_cut
        assert attribution.total_assigned + attribution.unassigned == attribution.n_after_cut
        assert attribution.unassigned >= corpus.n_far

        data = build_panel(corpus.wells, assignment, attribution)
        total_panel = float(data.treatment_matrix().sum())
        assert total_panel == pytest.approx(corpus.expected_in_window_volume, rel=1e-6)
        assert int(data.outcome_vector().sum()) == sum(
            c for (cl, m), c in attribution.counts.items() if m in set(corpus.months)
        )


class TestLoaders:
    def test_wells_round_trip(self, corpus, corpus_csvs):
        wells_path, _ = corpus_csvs
        wells = load_wells_csv(wells_path)
        assert len(wells) == 65
        by_id = {w.well_id: w for w in wells}
        orig = corpus.wells[3]
        assert by_id[orig.well_id].monthly_volumes == dict(orig.monthly_volumes)

    def test_catalog_round_trip(self, corpus, corpus_csvs):
        _, catalog_path = corpus_csvs
        quakes = load_catalog_csv(catalog_path)
        assert len(quakes) == 71
        assert {q.event_id for q in quakes} == {q.event_id for q in corpus.quakes}

    def test_bbox_filter(self, corpus_csvs):
        wells_path, catalog_path = corpus_csvs
        tight = DFW_BBOX._replace(lat_max=33.0)
        assert len(load_wells_csv(wells_path, bbox=tight)) < 65
        assert len(load_catalog_csv(catalog_path, bbox=tight)) < 71

    def test_wells_schema_errors(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("well_id,longitude,latitude,year_month,volume_bbl\nw1,-97.0,33.0,2014-01,-5\n")
        with pytest.raises(SchemaError, match=r"row 2.*volume_bbl"):
            load_wells_csv(p)
        p.write_text("well_id,longitude,latitude,year_month,volume_bbl\nw1,-197.0,33.0,2014-01,5\n")
        with pytest.raises(SchemaError, match="longitude"):
            load_wells_csv(p)
        p.write_text("well_id,longitude,latitude,year_month,volume_bbl\nw1,-97.0,33.0,January,5\n")
        with pytest.raises(SchemaError, match="year_month"):
            load_wells_csv(p)
        p.write_text(
            "well_id,longitude,latitude,year_month,volume_bbl\n"
            "w1,-97.0,33.0,2014-01,5\nw1,-97.5,33.0,2014-02,5\n"
        )
        with pytest.raises(SchemaError, match="inconsistent"):
            load_wells_csv(p)
        p.write_text(
            "well_id,longitude,latitude,year_month,volume_bbl\n"
            "w1,-97.0,33.0,2014-01,5\nw1,-97.0,33.0,2014-01,6\n"
        )
        with pytest.raises(SchemaError, match="duplicate month"):
            load_wells_csv(p)
        p.write_text("well,lon,lat,month,vol\n")
        with pytest.raises(SchemaError, match="header"):
            load_wells_csv(p)

    def test_catalog_schema_errors(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "event_id,longitude,latitude,origin_time_iso8601,magnitude\n"
            "e1,-97.0,33.0,not-a-time,3.0\n"
        )
        with pytest.raises(SchemaError, match="ISO-8601"):
            load_catalog_csv(p)
        p.write_text(
            "event_id,longitude,latitude,origin_time_iso8601,magnitude\n"
            "e1,-97.0,33.0,2014-05-12T03:27:00,3.0\ne1,-97.0,33.0,2014-05-13T03:27:00,3.1\n"
        )
        with pytest.raises(SchemaError, match="duplicate event"):
            load_catalog_csv(p)

    def test_catalog_z_suffix_timestamp(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "event_id,longitude,latitude,origin_time_iso8601,magnitude\n"
            "e1,-97.0,33.0,2014-05-12T03:27:00Z,3.0\n"
        )
        quakes = load_catalog_csv(p)
        assert quakes[0].month == "2014-05"
