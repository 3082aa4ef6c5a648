"""Generalized linear models fit by iteratively reweighted least squares.

Supports the linear (identity link), logistic (logit link), and poisson
(log link) families with optional non-negative observation weights, plus the
heteroskedasticity-robust sandwich covariance and the Wald test.

Conventions used throughout:
  * weights multiply each observation's log-likelihood contribution, so the
    score of observation i is w_i * (y_i - mu_i) * x_i for every family
    (canonical links);
  * the linear family's residual scale is the maximum-likelihood estimate
    (weighted mean squared residual, no degrees-of-freedom correction) --
    downstream Gaussian density evaluation relies on this;
  * model_cov is dispersion * inverse Fisher information at the estimate,
    with dispersion 1 for poisson/logistic and the MLE variance for linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .exceptions import DomainError, SingularDesignError

FAMILIES = ("linear", "logistic", "poisson")

_MAX_EXP = 700.0  # exp() overflow guard for float64
_PIVOT_RTOL = 1e-12
_MU_EPS = 1e-10


@dataclass
class FitResult:
    """Coefficients and covariance of one GLM fit."""

    coefficients: np.ndarray
    model_cov: np.ndarray
    family: str
    converged: bool
    iterations: int
    log_likelihood: float
    residual_sd: float | None = None

    @property
    def se(self) -> np.ndarray:
        """Model-based standard errors."""
        return np.sqrt(np.diag(self.model_cov))


def _validate_inputs(design, response, family, weights):
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"design must be 2-d, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise DomainError(f"response shape {y.shape} does not match design ({n} rows)")
    if n < p:
        raise DomainError(f"need at least as many observations as parameters (n={n}, p={p})")
    if not np.all(np.isfinite(X)):
        raise DomainError("design contains non-finite values")
    if not np.all(np.isfinite(y)):
        raise DomainError("response contains non-finite values")
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family == "poisson" and np.any(y < 0):
        raise DomainError("poisson responses must be non-negative")
    if family == "logistic" and not np.all(np.isin(y, (0.0, 1.0))):
        raise DomainError("logistic responses must be 0 or 1")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise DomainError(f"weights shape {w.shape} does not match design ({n} rows)")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise DomainError("weights must be finite and non-negative")
        if not np.any(w > 0):
            raise DomainError("at least one weight must be positive")
    return X, y, w


def _check_rank(X: np.ndarray, w: np.ndarray) -> None:
    # pivoted QR on the effectively fitted matrix sqrt(w)*X
    wx = X * np.sqrt(w)[:, None]
    _, r, _ = scipy.linalg.qr(wx, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0 or diag[-1] < _PIVOT_RTOL * diag[0]:
        raise SingularDesignError(
            "design matrix is rank deficient (relative pivot below 1e-12)"
        )


def _mu_eta(family: str, eta: np.ndarray) -> np.ndarray:
    if family == "linear":
        return eta
    if family == "poisson":
        return np.exp(np.clip(eta, -_MAX_EXP, _MAX_EXP))
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -_MAX_EXP, _MAX_EXP)))


def _variance(family: str, mu: np.ndarray) -> np.ndarray:
    if family == "linear":
        return np.ones_like(mu)
    if family == "poisson":
        return np.maximum(mu, _MU_EPS)
    return np.maximum(mu * (1.0 - mu), _MU_EPS)


def _deviance(family: str, y: np.ndarray, mu: np.ndarray, w: np.ndarray) -> float:
    if family == "linear":
        return float(np.sum(w * (y - mu) ** 2))
    if family == "poisson":
        mu = np.maximum(mu, _MU_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(y / mu), 0.0)
        return float(2.0 * np.sum(w * (term - (y - mu))))
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    return float(-2.0 * np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))))


def _log_likelihood(family: str, y, mu, w, residual_sd=None) -> float:
    if family == "poisson":
        mu = np.maximum(mu, _MU_EPS)
        return float(np.sum(w * (y * np.log(mu) - mu - gammaln(y + 1.0))))
    if family == "logistic":
        mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
        return float(np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))))
    sd = max(float(residual_sd), 1e-150)  # keep sd*sd a normal float
    log_norm = -0.5 * (math.log(2.0 * math.pi) + 2.0 * math.log(sd))
    return float(np.sum(w * (log_norm - (y - mu) ** 2 / (2.0 * sd * sd))))


def _solve_wls(X, wk, z):
    xtw = X.T * wk
    try:
        return np.linalg.solve(xtw @ X, xtw @ z)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("weighted normal equations are singular") from exc


def predict_mean(fit: FitResult, design) -> np.ndarray:
    """Fitted means for new rows, on the response scale."""
    X = np.asarray(design, dtype=float)
    return _mu_eta(fit.family, X @ fit.coefficients)


def fit_glm(
    design,
    response,
    family: str,
    weights=None,
    *,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> FitResult:
    """Fit a weighted GLM by IRLS.

    Convergence is declared when the relative deviance change drops below
    `tol` (default 1e-8); after `max_iter` iterations the result is returned
    with converged=False and the caller decides (logistic separation shows up
    this way rather than as an error).
    """
    X, y, w = _validate_inputs(design, response, family, weights)
    _check_rank(X, w)

    if family == "linear":
        beta = _solve_wls(X, w, y)
        mu = X @ beta
        resid_sd = math.sqrt(float(np.sum(w * (y - mu) ** 2) / np.sum(w)))
        cov = np.linalg.inv(X.T @ (X * w[:, None])) * max(resid_sd, 0.0) ** 2
        return FitResult(
            coefficients=beta,
            model_cov=cov,
            family=family,
            converged=True,
            iterations=1,
            log_likelihood=_log_likelihood(family, y, mu, w, resid_sd),
            residual_sd=resid_sd,
        )

    # starting values: shrink the response toward the family mean
    if family == "poisson":
        mu = y + 0.5
        eta = np.log(mu)
    else:
        mu = (y + 0.5) / 2.0
        eta = np.log(mu / (1.0 - mu))

    beta = np.zeros(X.shape[1])
    dev = _deviance(family, y, _mu_eta(family, eta), w)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        var = _variance(family, mu)
        wk = w * var
        z = eta + (y - mu) / var
        beta = _solve_wls(X, wk, z)
        eta = X @ beta
        mu = _mu_eta(family, eta)
        if family == "logistic":
            mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
        new_dev = _deviance(family, y, mu, w)
        if abs(new_dev - dev) / (abs(dev) + 0.1) < tol:
            dev = new_dev
            converged = True
            break
        dev = new_dev

    if family == "logistic" and np.any((mu < 1e-8) | (mu > 1.0 - 1e-8)):
        converged = False  # separation: fitted probabilities pinned at 0/1

    info = X.T @ (X * (w * _variance(family, mu))[:, None])
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("information matrix is singular at the estimate") from exc

    return FitResult(
        coefficients=beta,
        model_cov=cov,
        family=family,
        converged=converged,
        iterations=iterations,
        log_likelihood=_log_likelihood(family, y, mu, w),
    )


def sandwich_cov(fit: FitResult, design, response, weights=None, *, hc1: bool = False) -> np.ndarray:
    """Robust bread-meat-bread covariance (HC0; HC1 applies n/(n-p)).

    Bread is the weighted Fisher information, meat the outer product of the
    weighted score contributions w_i*(y_i - mu_i)*x_i.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    mu = predict_mean(fit, X)

    bread = X.T @ (X * (w * _variance(fit.family, mu))[:, None])
    try:
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("bread matrix is singular") from exc

    score_resid = w * (y - mu)
    meat = X.T @ (X * (score_resid**2)[:, None])
    cov = bread_inv @ meat @ bread_inv
    if hc1:
        if n <= p:
            raise DomainError("HC1 scaling requires n > p")
        cov = cov * (n / (n - p))
    return cov


def wald_test(beta: float, se: float) -> tuple[float, float]:
    """z = beta/se and the two-sided standard-normal p-value."""
    if not (se > 0) or not math.isfinite(se):
        raise DomainError(f"standard error must be positive and finite, got {se!r}")
    z = beta / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p
