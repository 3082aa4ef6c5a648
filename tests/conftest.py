"""Shared fixtures: small hand-built panels and the synthetic well/quake corpus."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import pytest

from longicausal.geo import QuakeRecord, WellRecord, haversine_km, month_range
from longicausal.panel import PanelDataset

CORPUS_SEED = 20131201
CORPUS_START = "2013-12"
CORPUS_END = "2016-03"


def make_dataset(treatments, confounders=None, outcomes=None, **kwargs) -> PanelDataset:
    """Stack per-unit rows into a dataset; confounders and outcomes default to 0.

    `kwargs` go to the constructor (`unit_ids`, `A0`, `L0`).
    """
    a = np.asarray(treatments, dtype=float)
    return PanelDataset(
        a,
        np.zeros_like(a) if confounders is None else confounders,
        np.zeros(len(a), dtype=int) if outcomes is None else outcomes,
        **kwargs,
    )


def single_period_dataset(volumes, outcomes) -> PanelDataset:
    """K=1 panels; handy for binary-ATE tests."""
    return make_dataset(np.asarray(volumes, dtype=float)[:, None], outcomes=outcomes)


@dataclass
class SyntheticCorpus:
    wells: list
    quakes: list
    n_below_cut: int
    n_far: int
    expected_in_window_volume: float
    months: list


def build_synthetic_corpus(seed: int = CORPUS_SEED) -> SyntheticCorpus:
    """Deterministic 65-well / 71-quake corpus inside the default study box.

    8 events sit below the 2.5 magnitude cut, 5 qualifying events lie farther
    than 15 km from every well site (they must end up unassigned), and the
    rest are placed within ~6 km of a site. A handful of out-of-window
    well-months exercise the window filter.
    """
    rng = np.random.default_rng(seed)
    months = month_range(CORPUS_START, CORPUS_END)

    n_sites, n_wells = 30, 65
    site_lon = rng.uniform(-98.15, -97.0, n_sites)
    site_lat = rng.uniform(32.3, 33.45, n_sites)
    well_site = np.concatenate([np.arange(n_sites), rng.integers(0, n_sites, n_wells - n_sites)])
    well_lon = site_lon[well_site] + rng.normal(0.0, 0.01, n_wells)
    well_lat = site_lat[well_site] + rng.normal(0.0, 0.01, n_wells)

    wells = []
    in_window_total = 0.0
    for i in range(n_wells):
        base = rng.uniform(2e4, 2.5e5)
        volumes = {}
        for m in months:
            if rng.random() < 0.04:  # missing report
                continue
            v = float(base * rng.uniform(0.5, 1.5))
            volumes[m] = v
            in_window_total += v
        if i % 13 == 0:  # out-of-window months must be ignored by the panel
            volumes["2013-10"] = 5e4
            volumes["2016-05"] = 5e4
        wells.append(
            WellRecord(
                well_id=f"w{i:03d}",
                longitude=float(well_lon[i]),
                latitude=float(well_lat[i]),
                monthly_volumes=volumes,
            )
        )

    site_volume = np.zeros(n_sites)
    for i, w in enumerate(wells):
        site_volume[well_site[i]] += sum(v for m, v in w.monthly_volumes.items() if m in set(months))
    site_p = site_volume / site_volume.sum()

    quakes = []
    n_below_cut, n_far, n_near = 8, 5, 58
    for j in range(n_near):
        s = rng.choice(n_sites, p=site_p)
        lon = float(site_lon[s] + rng.normal(0.0, 0.03))
        lat = float(site_lat[s] + rng.normal(0.0, 0.03))
        quakes.append(_quake(f"q{j:03d}", lon, lat, rng.choice(months), rng.uniform(2.5, 4.5), rng))
    far_spots = [(-98.375, 32.075), (-96.745, 32.075), (-98.375, 33.675), (-96.745, 33.675), (-98.375, 32.9)]
    for j, (lon, lat) in enumerate(far_spots):
        dmin = min(haversine_km((lon, lat), (slon, slat)) for slon, slat in zip(site_lon, site_lat))
        assert dmin > 16.0, f"far spot {j} too close to a site ({dmin:.1f} km)"
        quakes.append(_quake(f"far{j}", lon, lat, rng.choice(months), rng.uniform(2.5, 3.5), rng))
    for j in range(n_below_cut):
        s = rng.choice(n_sites, p=site_p)
        lon = float(site_lon[s] + rng.normal(0.0, 0.03))
        lat = float(site_lat[s] + rng.normal(0.0, 0.03))
        quakes.append(_quake(f"small{j}", lon, lat, rng.choice(months), rng.uniform(1.5, 2.45), rng))

    assert len(wells) == 65 and len(quakes) == 71
    return SyntheticCorpus(
        wells=wells,
        quakes=quakes,
        n_below_cut=n_below_cut,
        n_far=n_far,
        expected_in_window_volume=in_window_total,
        months=months,
    )


def _quake(event_id, lon, lat, month, magnitude, rng) -> QuakeRecord:
    from datetime import datetime

    year, mon = (int(p) for p in month.split("-"))
    day = int(rng.integers(1, 28))
    return QuakeRecord(
        event_id=event_id,
        longitude=lon,
        latitude=lat,
        origin_time=datetime(year, mon, day, int(rng.integers(0, 24)), 30),
        magnitude=float(magnitude),
    )


def write_corpus_csvs(corpus: SyntheticCorpus, wells_path, catalog_path) -> None:
    with open(wells_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["well_id", "longitude", "latitude", "year_month", "volume_bbl"])
        for well in corpus.wells:
            for month in sorted(well.monthly_volumes):
                w.writerow(
                    [well.well_id, repr(well.longitude), repr(well.latitude), month, repr(well.monthly_volumes[month])]
                )
    with open(catalog_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["event_id", "longitude", "latitude", "origin_time_iso8601", "magnitude"])
        for q in corpus.quakes:
            w.writerow([q.event_id, repr(q.longitude), repr(q.latitude), q.origin_time.isoformat(), repr(q.magnitude)])


@pytest.fixture(scope="session")
def corpus() -> SyntheticCorpus:
    return build_synthetic_corpus()


@pytest.fixture(scope="session")
def corpus_csvs(corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    wells_path = d / "wells.csv"
    catalog_path = d / "catalog.csv"
    write_corpus_csvs(corpus, wells_path, catalog_path)
    return wells_path, catalog_path
