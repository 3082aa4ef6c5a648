"""The three competing outcome regressions.

All three are `glm.fit_poisson_stack` regressions (log link) of the
end-of-study count on the cumulative injected volume (per bbl):

  naive     Y ~ 1 + cumA                      (unweighted, model-based SE)
  adjusted  Y ~ 1 + cumA + cumL               (unweighted, model-based SE)
  msm       Y ~ 1 + cumA, weights SW_i        (sandwich SE, always)

Where cumL is constant across units the intercept absorbs it, and the
adjusted fit is the naive fit: adjusted reports naive's numbers and error
there, and only the replicates whose cumL varies are refitted.

Reports carry the per-bbl coefficient together with the relative risk per
1 MMbbl, exp(beta1 * 1e6). `estimate_stack` fits R replicates at once and
gives each its numbers or its error per estimator: naive and MSM share one
stack of 2R fits (unit weights, then SW_i; only the MSM half gets the
sandwich), and adjusted refits its varying rows. `estimate(data, sw, *,
robust="HC0")` is its one-replicate call: it fits all three on one dataset,
with the (N,) array `sw` as the MSM's weights, and raises the first error in
ESTIMATOR_NAMES order, or returns the three reports. `robust` is the MSM
sandwich's kind, one of glm.ROBUST_KINDS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, LongicausalError
from .glm import StackFit, first_errors, fit_poisson_stack, sandwich_cov_stack, wald_test
from .panel import PanelDataset, _refuse_complex

CI_MULTIPLIER = 1.959964  # two-sided 95% normal quantile, fixed (no t correction)
MMBBL = 1_000_000.0

ESTIMATOR_NAMES = ("naive", "adjusted", "msm")


class EstimatorReport(NamedTuple):
    estimator: str
    beta1_hat: float
    se: float
    ci95: tuple[float, float]
    relative_risk_per_MMbbl: float
    z: float
    p: float
    intercept: float
    converged: bool


def relative_risk(beta1: float) -> float:
    """The relative risk per 1 MMbbl of a per-bbl coefficient: exp(beta1 * 1e6).

    Arguments beyond the float64 exp range saturate to inf instead of raising,
    so coefficient scales far from the per-bbl field scale stay reportable.
    """
    try:
        return math.exp(beta1 * MMBBL)
    except OverflowError:
        return math.inf


def _check_units(data: PanelDataset) -> None:
    if data.n_units < 2:
        raise DomainError("outcome regressions require at least 2 units")


def estimate(data: PanelDataset, sw: np.ndarray, *, robust: str = "HC0") -> list[EstimatorReport]:
    """The three estimators of `data` as reports, in ESTIMATOR_NAMES order.

    The one-replicate call of `estimate_stack`, with the (N,) array `sw` as
    the MSM's weights, for example `stabilized_weights(data).per_unit_weights`.
    An `sw` of another shape raises a DomainError; otherwise raises the first
    error in ESTIMATOR_NAMES order.
    """
    _check_units(data)
    try:
        _refuse_complex(sw)
        sw = np.asarray(sw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"sw must be an array of shape ({data.n_units},), one weight per unit: {exc}") from None
    if sw.shape != (data.n_units,):
        raise DomainError(f"sw must be an array of shape ({data.n_units},), one weight per unit, got shape {sw.shape}")
    stacks = estimate_stack(data.A.sum(axis=1)[None], data.L.sum(axis=1)[None], data.Y[None], sw[None], robust=robust)
    for stack in stacks.values():
        if stack.errors[0] is not None:
            raise stack.errors[0]
    reports = []
    for name, stack in stacks.items():
        beta1 = float(stack.beta1_hat[0])
        se = float(stack.se[0])
        z, p = wald_test(beta1, se)
        half = CI_MULTIPLIER * se
        reports.append(EstimatorReport(
            estimator=name,
            beta1_hat=beta1,
            se=se,
            ci95=(beta1 - half, beta1 + half),
            relative_risk_per_MMbbl=relative_risk(beta1),
            z=z,
            p=p,
            intercept=float(stack.intercept[0]),
            converged=bool(stack.converged[0]),
        ))
    return reports


class EstimateStack(NamedTuple):
    """One estimator's results for R replicates, row r for replicate r.

    `errors[r]` is the error the per-dataset call raises for replicate r, or None.
    """

    beta1_hat: np.ndarray  # (R,)
    se: np.ndarray  # (R,)
    intercept: np.ndarray  # (R,)
    converged: np.ndarray  # (R,) bool
    errors: list[LongicausalError | None]


def _stack_rows(fit: StackFit, var: np.ndarray) -> EstimateStack:
    """`fit`'s rows as an EstimateStack, `var` their beta1 variances.

    A row's error is its error in `fit.errors`, then the Wald test's.
    """
    with np.errstate(invalid="ignore"):  # a negative variance fails the Wald test
        se = np.sqrt(var)
    for j in np.flatnonzero(~(se > 0.0) | ~np.isfinite(se) | ~np.isfinite(fit.coefficients[:, 1])):
        try:
            wald_test(float(fit.coefficients[j, 1]), se[j])
        except DomainError as exc:
            first_errors(fit.errors, [j], exc)
    return EstimateStack(fit.coefficients[:, 1], se, fit.coefficients[:, 0], fit.converged, fit.errors)


def estimate_stack(cum_a, cum_l, y, sw, *, robust: str = "HC0") -> dict[str, EstimateStack]:
    """The three estimators of R replicates at once, in ESTIMATOR_NAMES order.

    Takes (R, N) cumulative treatment, cumulative confounder, outcome and
    stabilized weights; `robust` is the MSM sandwich's kind. Row r of each
    EstimateStack holds, bit for bit, the numbers that `estimate` reports
    for that estimator on replicate r's dataset, or its error. Naive and MSM
    are one IRLS stack of 2R fits: rows 0..R-1 with unit weights, rows
    R..2R-1 with `sw`. A MSM row's error is its fit error, then the
    sandwich's, then Wald's. Adjusted starts as naive's numbers and refits
    the rows whose cumL varies across units.
    """
    r = len(y)
    design = np.stack([np.ones_like(cum_a), cum_a], axis=-1)
    fit = fit_poisson_stack(np.concatenate([design, design]), np.concatenate([y, y]),
                            np.concatenate([np.ones(y.shape), sw]))
    naive, msm = (StackFit(*(x[rows] for x in fit[:4]), fit.errors[rows]) for rows in (slice(r), slice(r, None)))
    # a failed fit's NaN coefficients give a NaN covariance, and its error stays first
    cov, cov_errors = sandwich_cov_stack(msm, design, y, sw, kind=robust)
    first_errors(msm.errors, slice(None), cov_errors)
    naive, msm = _stack_rows(naive, naive.model_cov[:, 1, 1]), _stack_rows(msm, cov[:, 1, 1])

    varies = np.ptp(cum_l, axis=-1) > 0.0
    rows = slice(None) if varies.all() else np.flatnonzero(varies)  # a view, not a copy, when every row varies
    fit = fit_poisson_stack(np.stack([np.ones_like(cum_a[rows]), cum_a[rows], cum_l[rows]], axis=-1), y[rows])
    refit = _stack_rows(fit, fit.model_cov[:, 1, 1])
    refit_errors = iter(refit.errors)
    errors = [next(refit_errors) if v else error for v, error in zip(varies.tolist(), naive.errors)]
    adjusted = EstimateStack(*(x.copy() for x in naive[:4]), errors)
    for column, refitted in zip(adjusted, refit[:4]):
        column[rows] = refitted
    return {"naive": naive, "adjusted": adjusted, "msm": msm}
