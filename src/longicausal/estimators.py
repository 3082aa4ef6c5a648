"""The three competing outcome regressions.

All three are `glm.fit_poisson_stack` regressions (log link) of the
end-of-study count on the cumulative injected volume (per bbl):

  naive     Y ~ 1 + cumA                      (unweighted, model-based SE)
  adjusted  Y ~ 1 + cumA + cumL               (unweighted, model-based SE)
  msm       Y ~ 1 + cumA, weights SW_i        (sandwich SE, always)

The adjusted model drops a cumL column that is constant across units, since
the intercept absorbs it, and so reduces to the naive design.

Reports carry the per-bbl coefficient together with the relative risk per
1 MMbbl, exp(beta1 * 1e6). `estimate_stack` fits R replicates at once and
gives each its numbers or its error per estimator. `estimate(data, weights,
*, robust="HC0")` is its one-replicate call: it fits all three on one
dataset and raises the first error in ESTIMATOR_NAMES order, or returns the
three reports. `robust` is the MSM sandwich's kind, one of glm.ROBUST_KINDS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, LongicausalError
from .glm import first_errors, fit_poisson_stack, sandwich_cov_stack, stack_groups, wald_test
from .iptw import WeightSet
from .panel import PanelDataset

CI_MULTIPLIER = 1.959964  # two-sided 95% normal quantile, fixed (no t correction)
MMBBL = 1_000_000.0

ESTIMATOR_NAMES = ("naive", "adjusted", "msm")


@dataclass(frozen=True)
class EstimatorReport:
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


def estimate(data: PanelDataset, weights: WeightSet, *, robust: str = "HC0") -> list[EstimatorReport]:
    """The three estimators of `data` as reports, in ESTIMATOR_NAMES order.

    The one-replicate call of `estimate_stack`, with `weights` as the MSM's
    stabilized weights. Raises the first error in ESTIMATOR_NAMES order.
    """
    _check_units(data)
    stacks = estimate_stack(
        data.A.sum(axis=1)[None], data.L.sum(axis=1)[None], data.Y[None], weights.per_unit_weights[None], robust=robust
    )
    for stack in stacks.values():
        if stack.errors[0] is not None:
            raise stack.errors[0]
    reports = []
    for name, stack in stacks.items():
        beta1 = float(stack.beta1_hat[0])
        se = stack.se[0]
        z, p = wald_test(beta1, se)
        half = CI_MULTIPLIER * se
        reports.append(EstimatorReport(
            estimator=name,
            beta1_hat=beta1,
            se=float(se),
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


def _poisson_stack(cum_a, y, cum_l=None, sw=None, *, robust: str = "HC0") -> EstimateStack:
    """Poisson regressions of (R, N) outcomes on [1, cumA], one per replicate.

    With `cum_l`, the adjusted model: cumL joins the design where it varies
    across units (elsewhere the intercept absorbs it). With `sw`, the MSM:
    weighted, with the `robust` sandwich SE; otherwise the naive model. A
    row's error is its fit error, then (MSM) the sandwich's, then Wald's.
    """
    r = len(y)
    out = EstimateStack(*np.full((3, r), np.nan), np.zeros(r, dtype=bool), [None] * r)
    varies = np.zeros((r, 1), dtype=bool) if cum_l is None else (np.ptp(cum_l, axis=-1) > 0.0)[:, None]
    for rows, (with_l,) in stack_groups(varies):
        idx = np.arange(r)[rows]
        design = np.stack([np.ones_like(cum_a[rows]), cum_a[rows], *([cum_l[rows]] if with_l else [])], axis=-1)
        w = None if sw is None else sw[rows]
        fit = fit_poisson_stack(design, y[rows], w)
        errors, var = fit.errors, fit.model_cov[:, 1, 1]
        if sw is not None:  # a failed fit's NaN coefficients give a NaN covariance, and its error stays first
            cov, cov_errors = sandwich_cov_stack(fit, design, y[rows], w, kind=robust)
            first_errors(errors, slice(None), cov_errors)
            var = cov[:, 1, 1]
        with np.errstate(invalid="ignore"):  # a negative variance fails the Wald test
            se = np.sqrt(var)
        for j in np.flatnonzero(~(se > 0.0) | ~np.isfinite(se) | ~np.isfinite(fit.coefficients[:, 1])):
            try:
                wald_test(float(fit.coefficients[j, 1]), se[j])
            except DomainError as exc:
                errors[j] = errors[j] or exc
        out.beta1_hat[idx], out.se[idx], out.intercept[idx] = fit.coefficients[:, 1], se, fit.coefficients[:, 0]
        out.converged[idx] = fit.converged
        first_errors(out.errors, idx, errors)
    return out


def estimate_stack(cum_a, cum_l, y, sw, *, robust: str = "HC0") -> dict[str, EstimateStack]:
    """The three estimators of R replicates at once, in ESTIMATOR_NAMES order.

    Takes (R, N) cumulative treatment, cumulative confounder, outcome and
    stabilized weights; `robust` is the MSM sandwich's kind. Row r of each
    EstimateStack holds, bit for bit, the numbers that `estimate` reports
    for that estimator on replicate r's dataset, or its error.
    """
    return {
        "naive": _poisson_stack(cum_a, y),
        "adjusted": _poisson_stack(cum_a, y, cum_l),
        "msm": _poisson_stack(cum_a, y, sw=sw, robust=robust),
    }
