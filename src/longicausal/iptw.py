"""Inverse-probability-of-treatment weights.

Two weighting schemes live here: the time-fixed binary-treatment weights
behind the Hajek ATE estimator, and the time-varying stabilized weights

    SW_i = prod_t  phi(A_i(t) | A_i(t-1)) / phi(A_i(t) | A_i(t-1), L_i(t-1))

built from pooled Gaussian treatment-density models that condition on the
immediately preceding period. Datasets with a baseline period contribute
factors for t = 1..K; datasets without one start at t = 2 and the first
observed period acts as the baseline covariate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DegenerateVarianceError,
    DomainError,
    PositivityError,
    WeightError,
)
from .glm import FitResult, fit_glm
from .panel import DEFAULT_BINARIZE_THRESHOLD_BBL, PanelDataset, binarize_treatment

_POSITIVITY_EPS = 1e-8

NUMERATOR_TERMS = ("intercept", "lag_treatment")
DENOMINATOR_TERMS = ("intercept", "lag_treatment", "lag_confounder")


@dataclass
class TreatmentModels:
    """Pooled Gaussian models for A(t): numerator and denominator of the density ratio."""

    numerator: FitResult
    denominator: FitResult
    numerator_terms: tuple[str, ...]
    denominator_terms: tuple[str, ...]
    periods: tuple[int, ...]


@dataclass
class WeightSet:
    """Per-unit stabilized weights and their per-period factors."""

    per_unit_weights: np.ndarray
    per_time_factors: np.ndarray
    periods: tuple[int, ...]
    numerator_model: FitResult
    denominator_model: FitResult
    truncation: tuple[float, float] | None = None
    truncation_percentile: float | None = None


class BinaryAteResult(NamedTuple):
    ate: float
    treated_mean: float
    control_mean: float


def _lagged_rows(data: PanelDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Pooled (response, lag treatment, lag confounder) rows, unit-major.

    Returns flattened arrays of shape (N*T,) where T is the number of modeled
    periods, plus the modeled period indices (1-based).
    """
    a = data.treatment_matrix()
    l = data.confounder_matrix()
    if data.has_baseline:
        lag_a = np.column_stack([data.baseline_treatment_vector(), a[:, :-1]])
        lag_l = np.column_stack([data.baseline_confounder_vector(), l[:, :-1]])
        resp = a
        periods = tuple(range(1, data.n_periods + 1))
    else:
        if data.n_periods < 2:
            raise DomainError("weight models need a baseline period or K >= 2")
        lag_a = a[:, :-1]
        lag_l = l[:, :-1]
        resp = a[:, 1:]
        periods = tuple(range(2, data.n_periods + 1))
    return resp.ravel(), lag_a.ravel(), lag_l.ravel(), periods


def _build_design(terms: Sequence[str], lag_a: np.ndarray, lag_l: np.ndarray) -> np.ndarray:
    cols = []
    for term in terms:
        if term == "intercept":
            cols.append(np.ones_like(lag_a))
        elif term == "lag_treatment":
            cols.append(lag_a)
        elif term == "lag_confounder":
            cols.append(lag_l)
        else:
            raise DomainError(f"unknown design term {term!r}")
    return np.column_stack(cols)


def _drop_constant(terms: tuple[str, ...], lag_a: np.ndarray, lag_l: np.ndarray) -> tuple[str, ...]:
    # constant non-intercept columns carry no information and would make the
    # design singular next to the intercept; drop them instead of failing
    kept = ["intercept"]
    if "lag_treatment" in terms and np.ptp(lag_a) > 0.0:
        kept.append("lag_treatment")
    if "lag_confounder" in terms and np.ptp(lag_l) > 0.0:
        kept.append("lag_confounder")
    return tuple(kept)


def fit_treatment_models(data: PanelDataset) -> TreatmentModels:
    """Fit the pooled numerator and denominator regressions for A(t).

    Numerator: A(t) ~ 1 + A(t-1). Denominator: A(t) ~ 1 + A(t-1) + L(t-1).
    Both are pooled across units and modeled periods and fitted as Gaussian
    linear models whose MLE residual sd feeds the density ratio.
    """
    resp, lag_a, lag_l, periods = _lagged_rows(data)
    num_terms = _drop_constant(NUMERATOR_TERMS, lag_a, lag_l)
    den_terms = _drop_constant(DENOMINATOR_TERMS, lag_a, lag_l)
    if len(resp) < len(den_terms) + 2:
        raise DomainError(
            f"not enough pooled observations ({len(resp)}) for the treatment models"
        )
    numerator = fit_glm(_build_design(num_terms, lag_a, lag_l), resp, "linear")
    denominator = fit_glm(_build_design(den_terms, lag_a, lag_l), resp, "linear")
    return TreatmentModels(
        numerator=numerator,
        denominator=denominator,
        numerator_terms=num_terms,
        denominator_terms=den_terms,
        periods=periods,
    )


def _gaussian_logpdf(x: np.ndarray, mean: np.ndarray, sd: float) -> np.ndarray:
    log_norm = -0.5 * (math.log(2.0 * math.pi) + 2.0 * math.log(sd))
    return log_norm - (x - mean) ** 2 / (2.0 * sd * sd)


def stabilized_weights(
    data: PanelDataset,
    models: TreatmentModels | None = None,
    *,
    truncate_percentile: float | None = None,
) -> WeightSet:
    """Compute SW_i as the product of per-period Gaussian density ratios.

    Products are accumulated in log space in fixed period order, so results do
    not depend on evaluation order. `truncate_percentile=p` clips the finished
    per-unit weights to their [p, 100-p] percentile range (off by default).
    """
    if models is None:
        models = fit_treatment_models(data)

    resp, lag_a, lag_l, periods = _lagged_rows(data)
    # a residual sd at rounding-error scale means the model fit the treatment
    # path exactly; the density ratio is undefined there
    sd_floor = 1e-10 * max(1.0, float(np.std(resp)))
    for label, fit in (("numerator", models.numerator), ("denominator", models.denominator)):
        if fit.residual_sd is None or fit.residual_sd <= sd_floor:
            raise DegenerateVarianceError(
                f"{label} treatment model has (numerically) zero residual variance; "
                "density ratio is undefined"
            )
    n_units = data.n_units
    n_t = len(periods)

    num_mean = _build_design(models.numerator_terms, lag_a, lag_l) @ models.numerator.coefficients
    den_mean = _build_design(models.denominator_terms, lag_a, lag_l) @ models.denominator.coefficients
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        log_factors = _gaussian_logpdf(resp, num_mean, models.numerator.residual_sd) - _gaussian_logpdf(
            resp, den_mean, models.denominator.residual_sd
        )
    log_factors = log_factors.reshape(n_units, n_t)

    bad = ~np.isfinite(log_factors)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise WeightError(
            f"non-finite weight factor for unit {data.unit_ids[i]!r} at t={periods[j]}"
        )

    per_time = np.exp(log_factors)
    per_unit = np.exp(log_factors.sum(axis=1))
    if not np.all(np.isfinite(per_unit)):
        i = int(np.flatnonzero(~np.isfinite(per_unit))[0])
        raise WeightError(f"non-finite stabilized weight for unit {data.unit_ids[i]!r}")

    truncation = None
    if truncate_percentile is not None:
        p = float(truncate_percentile)
        if not (0.0 < p < 50.0):
            raise DomainError(f"truncate_percentile must be in (0, 50), got {p!r}")
        lo, hi = np.percentile(per_unit, [p, 100.0 - p])
        per_unit = np.clip(per_unit, lo, hi)
        truncation = (float(lo), float(hi))

    return WeightSet(
        per_unit_weights=per_unit,
        per_time_factors=per_time,
        periods=periods,
        numerator_model=models.numerator,
        denominator_model=models.denominator,
        truncation=truncation,
        truncation_percentile=truncate_percentile,
    )


def iter_weight_rows(data: PanelDataset, weights: WeightSet) -> Iterator[tuple[str | int, int, float, float]]:
    """Diagnostic rows (unit_id, t, factor, cumulative_weight) for CSV export."""
    for i, unit_id in enumerate(data.unit_ids):
        cum = 1.0
        for j, t in enumerate(weights.periods):
            factor = float(weights.per_time_factors[i, j])
            cum *= factor
            yield unit_id, t, factor, cum


def ate_iptw_binary(
    data: PanelDataset,
    threshold: float = DEFAULT_BINARIZE_THRESHOLD_BBL,
    covariates: np.ndarray | None = None,
    *,
    self_normalized: bool = True,
) -> BinaryAteResult:
    """IPTW estimate of the ATE of the binarized cumulative treatment.

    The propensity comes from a logistic regression of the high/low indicator
    on an intercept plus `covariates` (an (n_units, q) array aligned with the
    dataset; omit for intercept-only). The default estimator is the Hajek
    (self-normalized) form; `self_normalized=False` gives the arm-size
    normalization that divides by N_a on top of the inverse weighting.
    """
    if data.n_units < 2:
        raise DomainError("ATE estimation requires at least 2 units")
    a_star = binarize_treatment(data, threshold)
    y = data.outcome_vector()
    n = data.n_units
    if a_star.sum() == 0 or a_star.sum() == n:
        raise DomainError(
            "both treatment arms must be non-empty at this threshold "
            f"(got {int(a_star.sum())} of {n} units above it)"
        )

    if covariates is None:
        design = np.ones((n, 1))
    else:
        cov = np.asarray(covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov[:, None]
        if cov.shape[0] != n:
            raise DomainError(f"covariates have {cov.shape[0]} rows for {n} units")
        design = np.column_stack([np.ones(n), cov])

    propensity_fit = fit_glm(design, a_star, "logistic")
    e_hat = 1.0 / (1.0 + np.exp(-(design @ propensity_fit.coefficients)))
    out_of_range = (e_hat <= _POSITIVITY_EPS) | (e_hat >= 1.0 - _POSITIVITY_EPS)
    if np.any(out_of_range) or not propensity_fit.converged:
        # a non-converged logistic fit means the arms are (nearly) separated,
        # which is a positivity failure in finite samples
        i = int(np.argmax(np.abs(e_hat - 0.5)))
        raise PositivityError(
            f"estimated propensity for unit {data.unit_ids[i]!r} is numerically "
            f"{0 if e_hat[i] <= 0.5 else 1}"
        )

    treated = a_star == 1.0
    w_treated = 1.0 / e_hat[treated]
    w_control = 1.0 / (1.0 - e_hat[~treated])
    if self_normalized:
        treated_mean = float(np.sum(w_treated * y[treated]) / np.sum(w_treated))
        control_mean = float(np.sum(w_control * y[~treated]) / np.sum(w_control))
    else:
        treated_mean = float(np.sum(w_treated * y[treated]) / treated.sum())
        control_mean = float(np.sum(w_control * y[~treated]) / (~treated).sum())
    return BinaryAteResult(treated_mean - control_mean, treated_mean, control_mean)
