"""The three competing outcome regressions and their reporting transforms.

All three regress the end-of-study count on the cumulative injected volume
(per bbl) with a log link:

  naive     Y ~ 1 + cumA                      (unweighted, model-based SE)
  adjusted  Y ~ 1 + cumA + cumL               (unweighted, model-based SE)
  msm       Y ~ 1 + cumA, weights SW_i        (sandwich SE, always)

Reports carry the per-bbl coefficient together with the relative risk per
1 MMbbl, exp(beta1 * 1e6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .glm import FitResult, fit_glm, fit_glm_stack, sandwich_cov, sandwich_cov_stack, wald_test
from .iptw import WeightSet, stabilized_weights
from .panel import PanelDataset

CI_MULTIPLIER = 1.959964  # two-sided 95% normal quantile, fixed (no t correction)
MMBBL = 1_000_000.0

ESTIMATOR_NAMES = ("naive", "adjusted", "msm")

REPORT_CSV_HEADER = [
    "estimator",
    "beta1_hat",
    "se",
    "ci_lo",
    "ci_hi",
    "relative_risk_per_MMbbl",
    "z",
    "p",
]


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

    def to_csv_row(self) -> list:
        """The REPORT_CSV_HEADER fields; `panel.write_csv` formats the floats."""
        return [
            self.estimator,
            self.beta1_hat,
            self.se,
            self.ci95[0],
            self.ci95[1],
            self.relative_risk_per_MMbbl,
            self.z,
            self.p,
        ]

    def to_text(self) -> str:
        lines = [
            f"estimator: {self.estimator}",
            f"beta1_hat: {self.beta1_hat:.17g}",
            f"se: {self.se:.17g}",
            f"ci95: [{self.ci95[0]:.17g}, {self.ci95[1]:.17g}]",
            f"relative_risk_per_MMbbl: {self.relative_risk_per_MMbbl:.17g}",
            f"z: {self.z:.17g}",
            f"p: {self.p:.17g}",
        ]
        return "\n".join(lines)


def relative_risk(beta1: float, scale: float = MMBBL) -> float:
    """exp(beta1 * scale); the per-MMbbl relative risk uses scale 1e6.

    Arguments beyond the float64 exp range saturate to inf instead of raising,
    so coefficient scales far from the per-bbl field scale stay reportable.
    """
    if not (scale > 0):
        raise DomainError(f"scale must be positive, got {scale!r}")
    arg = beta1 * scale
    if arg > 709.0:
        return math.inf
    return math.exp(arg)


def _report(name: str, fit: FitResult, se: float) -> EstimatorReport:
    beta1 = float(fit.coefficients[1])
    z, p = wald_test(beta1, se)
    half = CI_MULTIPLIER * se
    return EstimatorReport(
        estimator=name,
        beta1_hat=beta1,
        se=float(se),
        ci95=(beta1 - half, beta1 + half),
        relative_risk_per_MMbbl=relative_risk(beta1),
        z=z,
        p=p,
        intercept=float(fit.coefficients[0]),
        converged=fit.converged,
    )


def _outcome_design(cum_a: np.ndarray, *covariates: np.ndarray) -> np.ndarray:
    """Rows [1, cumA, covariates...]; a leading block axis of replicates passes through."""
    return np.stack([np.ones_like(cum_a), cum_a, *covariates], axis=-1)


def _check_units(data: PanelDataset) -> None:
    if data.n_units < 2:
        raise DomainError("outcome regressions require at least 2 units")


def naive_poisson(data: PanelDataset) -> EstimatorReport:
    """Unadjusted Poisson regression of Y on cumulative volume."""
    _check_units(data)
    design = _outcome_design(data.cum_treatment_vector())
    fit = fit_glm(design, data.outcome_vector(), "poisson")
    return _report("naive", fit, fit.se[1])


def adjusted_poisson(data: PanelDataset) -> EstimatorReport:
    """Poisson regression of Y on cumulative volume plus cumulative confounder.

    A confounder column that is constant across units is absorbed by the
    intercept and dropped, which reduces the fit to the naive design.
    """
    _check_units(data)
    x = data.cum_treatment_vector()
    cum_l = data.cum_confounder_vector()
    design = _outcome_design(x, cum_l) if np.ptp(cum_l) > 0.0 else _outcome_design(x)
    fit = fit_glm(design, data.outcome_vector(), "poisson")
    return _report("adjusted", fit, fit.se[1])


def msm_iptw(data: PanelDataset, *, weights: WeightSet | None = None, hc1: bool = False) -> EstimatorReport:
    """Marginal structural model: SW-weighted Poisson of Y on cumulative volume.

    The standard error is always the robust sandwich SE; the weighted-likelihood
    model SE is never reported.
    """
    _check_units(data)
    if weights is None:
        weights = stabilized_weights(data)
    sw = weights.per_unit_weights
    y = data.outcome_vector()
    design = _outcome_design(data.cum_treatment_vector())
    fit = fit_glm(design, y, "poisson", weights=sw)
    se = np.sqrt(sandwich_cov(fit, design, y, sw, hc1=hc1)[1, 1])
    return _report("msm", fit, se)


def estimate_stack(cum_a, cum_l, y, sw) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """beta1_hat and SE of the three estimators for R replicates at once.

    Takes (R, N) cumulative treatment, cumulative confounder, outcome and
    stabilized weights. Returns {name: (beta1_hat, se)} with (R,) arrays in
    ESTIMATOR_NAMES order, and an (R,) mask: where it is True, the numbers
    are bit-identical to the per-dataset estimators' and all three fits
    converged. Where it is False, one of those calls raises, a fit does not
    converge, or the constant cumL column would be dropped, and the replicate
    needs the per-dataset path.
    """
    design = _outcome_design(cum_a)
    adjusted_design = _outcome_design(cum_a, cum_l)
    r, n, p = adjusted_design.shape
    if n < p:  # fit_glm_stack would reject the whole block; the per-dataset path drops or reports
        nan = np.full(r, np.nan)
        return dict.fromkeys(ESTIMATOR_NAMES, (nan, nan)), np.zeros(r, dtype=bool)
    naive = fit_glm_stack(design, y, "poisson")
    adjusted = fit_glm_stack(adjusted_design, y, "poisson")
    msm = fit_glm_stack(design, y, "poisson", sw)
    fits = (naive, adjusted, msm)
    ok = np.ptp(cum_l, axis=-1) > 0.0
    for fit in fits:
        ok &= fit.ok & fit.converged
    keep = np.flatnonzero(ok)
    cov, singular = sandwich_cov_stack("poisson", msm.coefficients[keep], design[keep], y[keep], sw[keep])
    ok[keep[singular]] = False
    msm_var = np.full(len(ok), np.nan)
    msm_var[keep] = cov[:, 1, 1]
    variances = (naive.model_cov[:, 1, 1], adjusted.model_cov[:, 1, 1], msm_var)
    out = {}
    for name, fit, var in zip(ESTIMATOR_NAMES, fits, variances):
        with np.errstate(invalid="ignore"):  # a negative variance fails the check below
            se = np.sqrt(var)
        ok &= (se > 0.0) & np.isfinite(se)  # what wald_test requires
        out[name] = (fit.coefficients[:, 1], se)
    return out, ok
