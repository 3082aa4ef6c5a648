"""Shared fixtures: hand-built panels, one-problem model fits, the synthetic well/quake corpus, a recording pool."""

from __future__ import annotations

import concurrent.futures
import csv
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from longicausal import iptw
from longicausal.geo import Catalog, WellTable, _haversine, load_catalog_csv, load_wells_csv
from longicausal.glm import StackFit, fit_poisson_stack, least_squares_stack
from longicausal.panel import PanelDataset

CORPUS_SEED = 20131201


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


def fit_one(X, y, weights=None) -> StackFit:
    """One Poisson fit: the R = 1 `fit_poisson_stack` as a StackFit of unstacked fields; raises its error instead."""
    fit = fit_poisson_stack(X[None], y[None], None if weights is None else weights[None])
    if fit.errors[0] is not None:
        raise fit.errors[0]
    return fit._make(field[0] for field in fit)


def least_squares_one(X, y) -> np.ndarray:
    """One least-squares fit: the coefficients of the R = 1 `least_squares_stack`; raises its error instead."""
    coefficients, [error] = least_squares_stack(X[None], y[None])
    if error is not None:
        raise error
    return coefficients[0]


def treatment_models(data: PanelDataset):
    """(numerator, denominator) models of `data`, each (coefficients, residual sd, design), and its modeled periods.

    A design is [1, A(t-1), L(t-1)] without the lag columns that are constant, the rule `iptw._fit_models` fits by.
    """
    arrays = (None if x is None else x[None] for x in (data.A, data.L, data.A0, data.L0))
    resp, lag_a, lag_l, periods = iptw._lagged_rows(*arrays)
    errors = [None]
    groups = iptw._fit_models(resp, lag_a, lag_l, errors)
    if errors[0] is not None:
        raise errors[0]
    [(_, models)] = groups
    numerator_columns = [lag_a[0]] if np.ptp(lag_a[0]) > 0.0 else []
    denominator_columns = numerator_columns + ([lag_l[0]] if np.ptp(lag_l[0]) > 0.0 else [])
    designs = [np.column_stack([np.ones_like(resp[0]), *columns]) for columns in (numerator_columns, denominator_columns)]
    return [(coefficients[0], sd[0], design) for design, (coefficients, sd, _) in zip(designs, models)], periods


def use_treatment_models(monkeypatch, numerator=None, denominator=None) -> None:
    """Make the weights of one dataset use the given treatment models instead of fitted ones.

    Each model is (coefficients, residual sd), on the first len(coefficients)
    columns of [1, A(t-1), L(t-1)]; its residuals are formed as `iptw._fit_models`
    forms them. Without models, the fitted numerator model serves as both
    numerator and denominator.
    """
    fit_models = iptw._fit_models

    def given(resp, lag_a, lag_l, errors):
        if numerator is None:
            [(rows, models)] = fit_models(resp, lag_a, lag_l, errors)
            return [(rows, models[:1] * 2)]
        columns = np.stack([np.ones_like(lag_a), lag_a, lag_l], axis=-1)
        models = []
        for coefficients, sd in (numerator, denominator):
            coefficients = np.array([coefficients], dtype=float)
            resid = resp - (columns[..., :coefficients.shape[-1]] @ coefficients[..., None])[..., 0]
            models.append((coefficients, np.array([sd]), resid))
        return [(slice(None), models)]

    monkeypatch.setattr(iptw, "_fit_models", given)


@dataclass
class SyntheticCorpus:
    wells: WellTable
    quakes: Catalog
    n_below_cut: int
    n_far: int
    expected_in_window_volume: float
    months: list
    wells_path: Path
    catalog_path: Path


def build_synthetic_corpus(directory, seed: int = CORPUS_SEED) -> SyntheticCorpus:
    """Deterministic 65-well / 71-quake corpus inside the default study box.

    Writes `wells.csv` and `catalog.csv` into `directory` and loads them back
    with the package loaders. 8 events sit below the 2.5 magnitude cut, 5
    qualifying events lie farther than 15 km from every well site (they must
    end up unassigned), and the rest are placed within ~6 km of a site. A
    handful of out-of-window well-months exercise the window filter.
    """
    rng = np.random.default_rng(seed)
    # the 28 study months, 2013-12 to 2016-03
    months = ["2013-12", *(f"{year}-{month:02d}" for year in (2014, 2015) for month in range(1, 13)),
              "2016-01", "2016-02", "2016-03"]

    n_sites, n_wells = 30, 65
    site_lon = rng.uniform(-98.15, -97.0, n_sites)
    site_lat = rng.uniform(32.3, 33.45, n_sites)
    well_site = np.concatenate([np.arange(n_sites), rng.integers(0, n_sites, n_wells - n_sites)])
    well_lon = site_lon[well_site] + rng.normal(0.0, 0.01, n_wells)
    well_lat = site_lat[well_site] + rng.normal(0.0, 0.01, n_wells)

    well_volumes = []
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
        well_volumes.append(volumes)

    site_volume = np.zeros(n_sites)
    for i, volumes in enumerate(well_volumes):
        site_volume[well_site[i]] += sum(v for m, v in volumes.items() if m in set(months))
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
        dmin = _haversine(lon, lat, site_lon, site_lat).min()
        assert dmin > 16.0, f"far spot {j} too close to a site ({dmin:.1f} km)"
        quakes.append(_quake(f"far{j}", lon, lat, rng.choice(months), rng.uniform(2.5, 3.5), rng))
    for j in range(n_below_cut):
        s = rng.choice(n_sites, p=site_p)
        lon = float(site_lon[s] + rng.normal(0.0, 0.03))
        lat = float(site_lat[s] + rng.normal(0.0, 0.03))
        quakes.append(_quake(f"small{j}", lon, lat, rng.choice(months), rng.uniform(1.5, 2.45), rng))

    wells_path = Path(directory) / "wells.csv"
    catalog_path = Path(directory) / "catalog.csv"
    with open(wells_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["well_id", "longitude", "latitude", "year_month", "volume_bbl"])
        for i, volumes in enumerate(well_volumes):
            lon, lat = repr(float(well_lon[i])), repr(float(well_lat[i]))
            w.writerows([f"w{i:03d}", lon, lat, month, repr(volumes[month])] for month in sorted(volumes))
    with open(catalog_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["event_id", "longitude", "latitude", "origin_time_iso8601", "magnitude"])
        w.writerows(quakes)

    wells, catalog = load_wells_csv(wells_path), load_catalog_csv(catalog_path)
    assert len(wells) == 65 and len(catalog) == 71
    return SyntheticCorpus(
        wells=wells,
        quakes=catalog,
        n_below_cut=n_below_cut,
        n_far=n_far,
        expected_in_window_volume=in_window_total,
        months=months,
        wells_path=wells_path,
        catalog_path=catalog_path,
    )


def _quake(event_id, lon, lat, month, magnitude, rng) -> list:
    """One catalog CSV row."""
    year, mon = (int(p) for p in month.split("-"))
    day = int(rng.integers(1, 28))
    when = datetime(year, mon, day, int(rng.integers(0, 24)), 30)
    return [event_id, repr(lon), repr(lat), when.isoformat(), repr(float(magnitude))]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> SyntheticCorpus:
    return build_synthetic_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def corpus_csvs(corpus):
    return corpus.wells_path, corpus.catalog_path


@pytest.fixture
def recording_pool(monkeypatch) -> list[int]:
    """An in-process stand-in for the Monte Carlo process pool; returns the worker count of each pool made."""
    workers: list[int] = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)  # imported by the parallel branch
    return workers
