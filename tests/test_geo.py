"""Projection, distances, clustering, attribution, and panel assembly."""

import csv
import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from longicausal import geo
from longicausal.exceptions import DomainError, SchemaError
from longicausal.geo import (
    ASSIGN_CHUNK_EVENTS,
    CATALOG_CSV_HEADER,
    DFW_BBOX,
    EARTH_RADIUS_KM,
    WELLS_CSV_HEADER,
    ClusterAssignment,
    QuakeAttribution,
    agglomerative_cluster,
    assign_quakes,
    build_panel,
    cluster_wells,
    haversine_km,
    inverse_project,
    load_catalog_csv,
    load_wells_csv,
    month_index,
    month_range,
    project_coords,
)

KM_PER_DEG = EARTH_RADIUS_KM * math.pi / 180.0  # 111.1949266...
WELLS_HEADER = ",".join(WELLS_CSV_HEADER) + "\n"
CATALOG_HEADER = ",".join(CATALOG_CSV_HEADER) + "\n"


def load_wells(tmp_path, rows):
    """Load (well_id, lon, lat, year_month, volume) rows through a wells CSV."""
    p = tmp_path / "wells.csv"
    p.write_text(WELLS_HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return load_wells_csv(p)


def load_events(tmp_path, events):
    """Load (lon, lat, magnitude, year_month) events through a catalog CSV."""
    p = tmp_path / "catalog.csv"
    p.write_text(CATALOG_HEADER + "".join(
        f"e{i},{float(lon)!r},{float(lat)!r},{month}-15T12:00:00,{float(mag)!r}\n"
        for i, (lon, lat, mag, month) in enumerate(events)
    ))
    return load_catalog_csv(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def in_box(lon, lat, box=DFW_BBOX):
    return (box.lon_min <= lon) & (lon <= box.lon_max) & (box.lat_min <= lat) & (lat <= box.lat_max)


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
        with pytest.raises(DomainError):
            project_coords(np.array([np.nan, -97.0]), np.array([33.0, 33.0]), (-97.0, 33.0))
        with pytest.raises(DomainError):
            project_coords(np.array([-97.0, -97.0]), np.array([33.0, np.nan]), (-97.0, 33.0))


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
        assert assignment.labels.shape == (65,)
        assert set(assignment.labels.tolist()) == set(range(30))
        assert assignment.centroids.shape == (30, 2)
        assert np.all(in_box(*assignment.centroids.T))


def reference_assign(centroids, catalog, radius_km=15.0, magnitude_cut=2.5):
    """The per-event rule: nearest centroid by haversine_km, assigned if within the radius."""
    cent = np.asarray(centroids, dtype=float)
    labels, months = [], []
    for lon, lat, mag, month in zip(catalog.longitude, catalog.latitude, catalog.magnitude, catalog.month):
        if mag < magnitude_cut:
            continue
        d = haversine_km((lon, lat), (cent[:, 0], cent[:, 1]))
        nearest = int(np.argmin(d))
        labels.append(nearest if d[nearest] <= radius_km else -1)
        months.append(int(month))
    return labels, months


class TestAssignQuakes:
    def centroid_pair(self):
        # two centroids ~30 km apart on a meridian
        return [(-97.0, 33.0), (-97.0, 33.0 + 30.0 / KM_PER_DEG)]

    def test_within_radius_of_one_centroid(self, tmp_path):
        cat = load_events(tmp_path, [(-97.0, 33.0 + 10.0 / KM_PER_DEG, 3.0, "2014-05")])  # 10 km from A
        out = assign_quakes(self.centroid_pair(), cat, radius_km=15.0)
        assert out.labels.tolist() == [0] and out.months.tolist() == [month_index(2014, 5)]
        assert out.unassigned == 0 and out.n_after_cut == 1 and out.total_assigned == 1

    def test_nearest_centroid_wins_inside_both_radii(self, tmp_path):
        # 10 km from B, 20 km from A: only B counts
        cat = load_events(tmp_path, [(-97.0, 33.0 + 20.0 / KM_PER_DEG, 3.0, "2014-05")])
        out = assign_quakes(self.centroid_pair(), cat, radius_km=25.0)
        assert out.labels.tolist() == [1]

    def test_beyond_radius_goes_unassigned(self, tmp_path):
        lon = -97.0 + 20.0 / KM_PER_DEG / math.cos(math.radians(33.0))
        cat = load_events(tmp_path, [(lon, 33.0, 3.0, "2014-05")])  # 20 km east of A
        out = assign_quakes(self.centroid_pair(), cat, radius_km=15.0)
        assert out.labels.tolist() == [-1] and out.unassigned == 1 and out.total_assigned == 0

    def test_magnitude_cut_applies(self, tmp_path):
        cat = load_events(tmp_path, [(-97.0, 33.0, 2.0, "2014-05"), (-97.0, 33.0, 2.5, "2014-06")])
        out = assign_quakes(self.centroid_pair(), cat, magnitude_cut=2.5)
        assert out.n_after_cut == 1 and out.months.tolist() == [month_index(2014, 6)]

    def test_row_order_invariance(self, corpus, tmp_path):
        rows = read_rows(corpus.catalog_path)
        p = tmp_path / "reversed.csv"
        p.write_text(CATALOG_HEADER + "".join(",".join(r) + "\n" for r in reversed(rows)))
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        fwd = assign_quakes(assignment.centroids, corpus.quakes)
        rev = assign_quakes(assignment.centroids, load_catalog_csv(p))
        np.testing.assert_array_equal(fwd.labels, rev.labels[::-1])
        np.testing.assert_array_equal(fwd.months, rev.months[::-1])

    def test_bad_radius(self, corpus):
        with pytest.raises(DomainError):
            assign_quakes([(-97.0, 33.0)], corpus.quakes, radius_km=0.0)
        with pytest.raises(DomainError, match="magnitude_cut"):
            assign_quakes([(-97.0, 33.0)], corpus.quakes, magnitude_cut=float("nan"))


class TestAssignMatchesReferenceLoop:
    def check(self, centroids, catalog, **kwargs):
        out = assign_quakes(centroids, catalog, **kwargs)
        labels, months = reference_assign(centroids, catalog, **kwargs)
        assert out.labels.tolist() == labels
        assert out.months.tolist() == months
        return out

    def test_corpus(self, corpus):
        centroids = cluster_wells(corpus.wells, n_clusters=30).centroids
        out = self.check(centroids, corpus.quakes)
        assert out.n_after_cut == 71 - corpus.n_below_cut and out.unassigned >= corpus.n_far

    def test_across_chunk_boundaries(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 2 * ASSIGN_CHUNK_EVENTS + 37
        centroids = np.column_stack([rng.uniform(-98.0, -97.0, 12), rng.uniform(32.5, 33.3, 12)])
        events = zip(rng.uniform(-98.2, -96.8, n), rng.uniform(32.3, 33.5, n), rng.uniform(1.5, 4.0, n),
                     rng.choice(["2014-01", "2015-07"], n))
        out = self.check(centroids, load_events(tmp_path, events), radius_km=8.0)
        assert 0 < out.unassigned < out.n_after_cut

    def test_equidistant_event_goes_to_lowest_index(self, tmp_path):
        # +-0.5 degrees of longitude are exact, so both distances are bit-equal
        centroids = [(-96.5, 33.0), (-97.5, 33.0)]
        d = haversine_km((-97.0, 33.0), (np.array([-96.5, -97.5]), np.array([33.0, 33.0])))
        assert d[0] == d[1]
        out = self.check(centroids, load_events(tmp_path, [(-97.0, 33.0, 3.0, "2014-05")]), radius_km=50.0)
        assert out.labels.tolist() == [0]

    def test_event_exactly_at_radius_is_assigned(self, tmp_path):
        centroids = [(-97.0, 33.0), (-97.6, 33.2)]
        cat = load_events(tmp_path, [(-97.05, 33.07, 3.0, "2014-05")])
        radius = haversine_km((-97.05, 33.07), (-97.0, 33.0))
        assert self.check(centroids, cat, radius_km=radius).labels.tolist() == [0]
        assert self.check(centroids, cat, radius_km=np.nextafter(radius, 0.0)).labels.tolist() == [-1]


def no_events():
    return QuakeAttribution(labels=np.zeros(0, dtype=int), months=np.zeros(0, dtype=int))


class TestBuildPanel:
    def test_k_is_window_over_period(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(corpus.wells, assignment, attribution)
        assert data.n_units == 30
        assert data.n_periods == 7  # 28 months / 4

    def test_indivisible_window_rejected(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        with pytest.raises(DomainError, match="divisible"):
            build_panel(corpus.wells, assignment, no_events(), period_months=5)

    def test_labels_must_cover_every_well(self, corpus):
        assignment = ClusterAssignment(np.zeros(64, dtype=int), np.array([[-97.5, 33.0]]))
        with pytest.raises(DomainError, match="64 cluster labels for 65 wells"):
            build_panel(corpus.wells, assignment, no_events())

    def test_three_month_period_supported(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(
            corpus.wells, assignment, attribution, study_start="2013-12", study_end="2016-02",
            period_months=3,
        )
        assert data.n_periods == 9  # 27 months / 3

    def test_volumes_sum_within_cluster(self, tmp_path):
        wells = load_wells(tmp_path, [
            ("w1", -97.0, 33.0, "2013-12", 100.0), ("w1", -97.0, 33.0, "2014-01", 50.0),
            ("w2", -97.001, 33.0, "2013-12", 200.0),
        ])
        assignment = ClusterAssignment(np.array([0, 0]), np.array([[-97.0005, 33.0]]))
        data = build_panel(wells, assignment, no_events(),
                           study_start="2013-12", study_end="2014-03", period_months=4)
        assert data.n_periods == 1
        assert data.treatment_matrix()[0, 0] == pytest.approx(350.0)

    def test_sum_order_does_not_depend_on_row_order(self, tmp_path):
        # 1e16 + 1 rounds back to 1e16, so the order of the sums shows in the result:
        # well-major, month-minor order gives exactly 1e16 whatever the file order
        rows = [("w1", -97.0, 33.0, "2013-12", 1e16), ("w1", -97.0, 33.0, "2014-01", 1.0),
                ("w2", -97.1, 33.0, "2013-12", 1.0), ("w2", -97.1, 33.0, "2014-01", 1.0)]
        assignment = ClusterAssignment(np.array([0, 0]), np.array([[-97.05, 33.0]]))
        for order in ([0, 1, 2, 3], [1, 3, 2, 0]):
            wells = load_wells(tmp_path, [rows[i] for i in order])
            data = build_panel(wells, assignment, no_events(),
                               study_start="2013-12", study_end="2014-01", period_months=2)
            assert data.treatment_matrix()[0, 0] == 1e16

    def test_missing_month_warns_and_counts_zero(self, tmp_path, caplog):
        wells = load_wells(tmp_path, [
            ("w1", -97.0, 33.0, "2013-12", 100.0), ("w2", -97.1, 33.0, "2014-02", 7.0),
            ("w3", -97.2, 33.0, "2013-12", 1.0), ("w3", -97.2, 33.0, "2014-01", 1.0),
            ("w3", -97.2, 33.0, "2014-02", 1.0), ("w3", -97.2, 33.0, "2014-03", 1.0),
        ])
        assignment = ClusterAssignment(np.array([0, 0, 0]), np.array([[-97.1, 33.0]]))
        with caplog.at_level(logging.WARNING, logger="longicausal.geo"):
            data = build_panel(wells, assignment, no_events(),
                               study_start="2013-12", study_end="2014-03", period_months=2)
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 1
        assert "no reported volume" in messages[0] and messages[0].startswith("2 of 3 wells")
        assert data.treatment_matrix()[0].tolist() == [102.0, 9.0]

    def test_confounder_flags_and_outcomes(self, tmp_path):
        wells = load_wells(tmp_path, [("w1", -97.0, 33.0, m, 10.0) for m in month_range("2013-12", "2014-07")])
        assignment = ClusterAssignment(np.array([0]), np.array([[-97.0, 33.0]]))
        months = [month_index(2013, 12)] * 2 + [month_index(2014, 5)] + [month_index(2020, 1)] * 9
        attribution = QuakeAttribution(
            labels=np.array([0] * 12 + [-1]), months=np.array(months + [month_index(2014, 1)])
        )
        data = build_panel(wells, assignment, attribution,
                           study_start="2013-12", study_end="2014-07", period_months=4)
        assert data.confounder_matrix()[0].tolist() == [1, 1]
        assert data.outcome_vector()[0] == 3  # the 2020 events are outside the window

    def test_month_range(self):
        months = month_range("2013-12", "2016-03")
        assert len(months) == 28
        assert months[0] == "2013-12" and months[-1] == "2016-03"
        assert months[1] == "2014-01" and months[12] == "2014-12"
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
        offset = attribution.months - month_index(2013, 12)
        in_window = (attribution.labels >= 0) & (offset >= 0) & (offset < len(corpus.months))
        assert int(data.outcome_vector().sum()) == int(np.count_nonzero(in_window))


WELL_ERRORS = [
    pytest.param("w1,-97.0,33.0,2014-01\n", 2, None, "expected 5 fields", id="field-count"),
    pytest.param("w1,abc,33.0,2014-01,5\n", 2, "longitude", "expected a number", id="non-numeric"),
    pytest.param("w1,-97.0,nan,2014-01,5\n", 2, "latitude", "finite", id="non-finite-latitude"),
    pytest.param("w1,-97.0,33.0,2014-01,inf\n", 2, "volume_bbl", "finite", id="non-finite-volume"),
    pytest.param("w1,-197.0,33.0,2014-01,5\n", 2, "longitude", "longitude out of range", id="longitude-range"),
    pytest.param("w1,-97.0,93.0,2014-01,5\n", 2, "latitude", "latitude out of range", id="latitude-range"),
    pytest.param("w1,-97.0,33.0,January,5\n", 2, "year_month", "expected YYYY-MM", id="bad-month"),
    pytest.param("w1,-97.0,33.0,2014-13,5\n", 2, "year_month", "month out of range", id="month-13"),
    pytest.param("w1,-97.0,33.0,2014-01,-5\n", 2, "volume_bbl", "must be >= 0", id="negative-volume"),
    pytest.param("w1,-97.0,33.0,2014-01,5\nw1,-97.0,33.0,2014-01-20,6\n", 3, "year_month",
                 "duplicate month 2014-01 for well 'w1'", id="duplicate-well-month"),
    pytest.param("w1,-97.0,33.0,2014-01,5\nw1,-97.5,33.0,2014-02,5\n", 3, "longitude",
                 "inconsistent coordinates", id="inconsistent-coordinates"),
    pytest.param("w1,-97.0,33.0,2014-01,5\n\nw2,-97.0,33.0,2014-01,oops\n", 4, "volume_bbl",
                 "expected a number", id="after-blank-line"),
    pytest.param('"w\n1",-97.0,33.0,2014-01,5\nw2,-97.0,33.0,2014-01,oops\n', 4, "volume_bbl",
                 "expected a number", id="after-multiline-field"),
    pytest.param("w1,-97.0,33.0,2014-01,5\nw9,-105.0,40.0,2014-01,-1\n", 3, "volume_bbl",
                 "must be >= 0", id="outside-bbox"),
]

CATALOG_ERRORS = [
    pytest.param("e1,-97.0,33.0,2014-05-12T03:27:00\n", 2, None, "expected 5 fields", id="field-count"),
    pytest.param("e1,-97.0,33.0,2014-05-12T03:27:00,3.0\ne1,-97.1,33.0,2014-05-13T03:27:00,3.1\n", 3,
                 "event_id", "duplicate event id 'e1'", id="duplicate-event-id"),
    pytest.param("e1,x,33.0,2014-05-12T03:27:00,3.0\n", 2, "longitude", "expected a number", id="non-numeric"),
    pytest.param("e1,-97.0,inf,2014-05-12T03:27:00,3.0\n", 2, "latitude", "finite", id="non-finite-latitude"),
    pytest.param("e1,-97.0,33.0,2014-05-12T03:27:00,nan\n", 2, "magnitude", "finite", id="non-finite-magnitude"),
    pytest.param("e1,181.0,33.0,2014-05-12T03:27:00,3.0\n", 2, "longitude", "longitude out of range",
                 id="longitude-range"),
    pytest.param("e1,-97.0,-91.0,2014-05-12T03:27:00,3.0\n", 2, "latitude", "latitude out of range",
                 id="latitude-range"),
    pytest.param("e1,-97.0,33.0,not-a-time,3.0\n", 2, "origin_time_iso8601", "ISO-8601", id="bad-timestamp"),
    pytest.param("e1,-97.0,33.0,2014-05-12T03:27:00,3.0\n\ne2,-97.0,33.0,2014-05-12T03:27:00,big\n", 4,
                 "magnitude", "expected a number", id="after-blank-line"),
    pytest.param('"e\n\n1",-97.0,33.0,2014-05-12T03:27:00,3.0\ne2,x,33.0,2014-05-12T03:27:00,3.0\n', 5,
                 "longitude", "expected a number", id="after-multiline-field"),
    pytest.param("e1,-97.0,33.0,2014-05-12T03:27:00,3.0\ne9,-105.0,40.0,2014-13-01T00:00:00,3.0\n", 3,
                 "origin_time_iso8601", "ISO-8601", id="outside-bbox"),
]


def check_schema_error(loader, path, bbox, row, column, match):
    with pytest.raises(SchemaError, match=match) as exc:
        loader(path, bbox=bbox)
    assert (exc.value.row, exc.value.column) == (row, column)
    assert f"row {row}" in str(exc.value)
    if column is not None:
        assert f"column '{column}'" in str(exc.value)


class TestLoaders:
    def test_wells_round_trip(self, corpus):
        wells = corpus.wells
        rows = read_rows(corpus.wells_path)
        assert list(wells.ids) == list(dict.fromkeys(r[0] for r in rows))
        assert len(wells) == 65 and len(wells.well) == len(rows)
        for k, (wid, lon, lat, month, vol) in enumerate(rows):
            w = wells.well[k]
            assert wells.ids[w] == wid and (wells.longitude[w], wells.latitude[w]) == (float(lon), float(lat))
            assert wells.month[k] == month_index(*map(int, month.split("-"))) and wells.volume[k] == float(vol)

    def test_catalog_round_trip(self, corpus):
        quakes = corpus.quakes
        rows = read_rows(corpus.catalog_path)
        assert len(quakes) == 71
        assert list(quakes.ids) == [r[0] for r in rows]
        assert quakes.magnitude.tolist() == [float(r[4]) for r in rows]
        assert quakes.month.tolist() == [month_index(int(r[3][:4]), int(r[3][5:7])) for r in rows]

    def test_bbox_filter(self, corpus):
        tight = DFW_BBOX._replace(lat_max=33.0)
        wells = load_wells_csv(corpus.wells_path, bbox=tight)
        quakes = load_catalog_csv(corpus.catalog_path, bbox=tight)
        assert 0 < len(wells) < 65 and 0 < len(quakes) < 71
        assert np.all(in_box(wells.longitude, wells.latitude, tight))
        assert np.all(in_box(quakes.longitude, quakes.latitude, tight))
        full = corpus.wells
        kept = in_box(full.longitude, full.latitude, tight)
        want = [(full.ids[w], m, v) for w, m, v in zip(full.well, full.month, full.volume) if kept[w]]
        assert [(wells.ids[w], m, v) for w, m, v in zip(wells.well, wells.month, wells.volume)] == want

    @pytest.mark.parametrize("bbox", [None, DFW_BBOX], ids=["all", "bbox"])
    @pytest.mark.parametrize("body, row, column, match", WELL_ERRORS)
    def test_wells_schema_errors(self, tmp_path, bbox, body, row, column, match):
        p = tmp_path / "w.csv"
        p.write_text(WELLS_HEADER + body)
        check_schema_error(load_wells_csv, p, bbox, row, column, match)

    @pytest.mark.parametrize("bbox", [None, DFW_BBOX], ids=["all", "bbox"])
    @pytest.mark.parametrize("body, row, column, match", CATALOG_ERRORS)
    def test_catalog_schema_errors(self, tmp_path, bbox, body, row, column, match):
        p = tmp_path / "c.csv"
        p.write_text(CATALOG_HEADER + body)
        check_schema_error(load_catalog_csv, p, bbox, row, column, match)

    @pytest.mark.parametrize("loader", [load_wells_csv, load_catalog_csv])
    def test_bad_header(self, tmp_path, loader):
        p = tmp_path / "x.csv"
        p.write_text("well,lon,lat,month,vol\n")
        check_schema_error(loader, p, None, 1, None, "header")

    def test_catalog_z_suffix_timestamp(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(CATALOG_HEADER + "e1,-97.0,33.0,2014-05-12T03:27:00Z,3.0\n")
        assert load_catalog_csv(p).month.tolist() == [month_index(2014, 5)]

    @pytest.mark.parametrize("loader, text", [
        (load_wells_csv, WELLS_HEADER + "w1,-97.0,33.0,2014-01,5\n"),
        (load_catalog_csv, CATALOG_HEADER + "e1,-97.0,33.0,2014-05-12T03:27:00,3.0\n"),
    ], ids=["wells", "catalog"])
    def test_blank_line_before_header(self, tmp_path, loader, text):
        p = tmp_path / "x.csv"
        p.write_text("\n" + text)
        check_schema_error(loader, p, None, 1, None, "header")


def outcome(loader, path, bbox):
    """The loaded table, or (message, row, column) of the SchemaError it raises."""
    try:
        return loader(path, bbox)
    except SchemaError as exc:
        return str(exc), exc.row, exc.column


def assert_same_outcome(got, want):
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def rarely(n):
    """True one draw in `n`."""
    return st.integers(0, n - 1).map(lambda k: k == n - 1)


ONE_IN_5, ONE_IN_10, ONE_IN_20 = rarely(5), rarely(10), rarely(20)


@st.composite
def mostly(draw, valid, invalid):
    """`valid` 19 draws in 20, else `invalid`, so that many files pass every column check."""
    return draw(invalid if draw(ONE_IN_20) else valid)


def spelled(value):
    """Texts that `float` reads as `value`: padded, signed, in E notation or with an underscore."""
    text = repr(value)
    return st.sampled_from([
        text, f" {text}", f"{text} ", f"{value:+}", f"{value:g}", f"{value:.3e}", re.sub(r"(\d)(\d)", r"\1_\2", text, 1),
    ])


BAD_LONGITUDES = st.sampled_from(["-97.25", "181", "-180.5", "nan", "-inf", "x", "1__0", ""])
BAD_LATITUDES = st.sampled_from(["33.25", "-91", "inf", "NaN", "", "y"])
# well id, longitude and latitude: "w2" lies outside DFW_BBOX, and "w3" has two sites
WELL_SITES = [
    ("w1", -97.0, 33.0), ("w2", -105.0, 40.0), ("w3", -97.5, 32.5), ("w3", -97.5, 32.75), (" w1", -96.9, 33.1),
    ("\uff571", -97.0, 33.0),
]
MONTHS = mostly(
    st.builds("{}{:04d}-{:02d}{}".format, st.sampled_from(["", " "]), st.integers(2013, 2016),
              st.integers(1, 12), st.sampled_from(["", "-20", " "])),
    st.sampled_from(["2014-13", "2014-1", "January", "\uff12\uff10\uff11\uff14-03", "2014-01-2"]),
)
AMOUNTS = mostly(st.sampled_from(["5", " 5.5", "1_000", "0", "-0.0", "2.75", "3e1", "1E3 "]),
                 st.sampled_from(["-5", "nan", "1e400", "oops", "1,5"]))
TIMESTAMPS = mostly(
    st.sampled_from([
        "2014-05-12T03:27:00", "2014-05-12T03:27:00Z", "2014-05-31T23:30:00-05:00", "2014-05-01T00:30:00+05:30",
        "2014-05-12", "2014-W19-1", "2014-W01-1", "20140512", "2014-05-12 03:27", "2014-05-12T03:27:00.5",
        "2015-12-31T23:59:59Z",
    ]),
    st.sampled_from([
        " 2014-05-12T03:27:00", "2014-05-12T03:27:00Z ", "2014-10-10Z", "2014-05-12T03:27:00z",
        "2014-13-01T00:00:00", "not-a-time",
    ]),
)
WELL_RECORDS = st.one_of([
    st.tuples(st.just(wid), mostly(spelled(lon), BAD_LONGITUDES), mostly(spelled(lat), BAD_LATITUDES), MONTHS, AMOUNTS)
    for wid, lon, lat in WELL_SITES
])
CATALOG_RECORDS = st.tuples(
    st.text("e1 ", min_size=1, max_size=4),
    mostly(st.one_of(spelled(-97.0), spelled(-97.5), spelled(-105.0)), BAD_LONGITUDES),
    mostly(st.one_of(spelled(33.0), spelled(32.5), spelled(40.0)), BAD_LATITUDES),
    TIMESTAMPS,
    AMOUNTS,
)


@st.composite
def csv_text(draw, header, records, key):
    """A CSV file's text: `header` and drawn records, with the layout variations csv.reader allows.

    Records are distinct by `key` but for an occasional repeated record.
    """
    rows = [list(r) for r in draw(st.lists(records, max_size=6, unique_by=key))]
    if rows and draw(ONE_IN_5):
        rows.append(list(draw(st.sampled_from(rows))))
    for row in rows:
        if draw(ONE_IN_20):
            row.pop() if draw(st.booleans()) else row.append("1")
    if rows and draw(ONE_IN_5):  # a quoted field, maybe with a comma or a line break
        row = draw(st.sampled_from(rows))
        k = draw(st.integers(0, len(row) - 1))
        row[k] = '"' + row[k] + draw(st.sampled_from(["", ",", "\n", "\n\n"])) + '"'
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines, after the header
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return ("\ufeff" if draw(ONE_IN_10) else "") + text


WELL_FILES = csv_text(WELLS_CSV_HEADER, WELL_RECORDS, key=lambda r: (r[0], r[3].strip()[:7]))
CATALOG_FILES = csv_text(CATALOG_CSV_HEADER, CATALOG_RECORDS, key=lambda r: r[0])
EQUIVALENCE = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestColumnPathMatchesRowPath:
    """`load_*_csv` parse whole columns; `_load_*_rows` is the row-by-row reader they fall back to."""

    @EQUIVALENCE
    @given(text=WELL_FILES, bbox=st.sampled_from([None, DFW_BBOX]))
    def test_wells(self, tmp_path, text, bbox):
        p = tmp_path / "w.csv"
        p.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(load_wells_csv, p, bbox), outcome(geo._load_wells_rows, p, bbox))

    @EQUIVALENCE
    @given(text=CATALOG_FILES, bbox=st.sampled_from([None, DFW_BBOX]))
    def test_catalog(self, tmp_path, text, bbox):
        p = tmp_path / "c.csv"
        p.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(load_catalog_csv, p, bbox), outcome(geo._load_catalog_rows, p, bbox))

    @pytest.mark.parametrize("bbox", [None, DFW_BBOX], ids=["all", "bbox"])
    def test_clean_files_take_the_column_path(self, corpus, monkeypatch, bbox):
        # if the corpus fell back to the row reader, the column path's speed would be lost unseen
        want = geo._load_wells_rows(corpus.wells_path, bbox), geo._load_catalog_rows(corpus.catalog_path, bbox)

        def refuse(path, bbox):
            raise AssertionError(f"{path} was read row by row")

        monkeypatch.setattr(geo, "_load_wells_rows", refuse)
        monkeypatch.setattr(geo, "_load_catalog_rows", refuse)
        assert_same_outcome(load_wells_csv(corpus.wells_path, bbox), want[0])
        assert_same_outcome(load_catalog_csv(corpus.catalog_path, bbox), want[1])
