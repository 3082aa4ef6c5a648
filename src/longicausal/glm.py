"""Generalized linear models fit by iteratively reweighted least squares.

Supports the linear (identity link), logistic (logit link), and poisson
(log link) families with optional non-negative observation weights, plus the
heteroskedasticity-robust sandwich covariance and the Wald test.

One kernel does the fitting: `fit_glm_stack` takes a stack of R independent
problems, designs of shape (R, n, p) with (R, n) responses and weights, and
runs IRLS on all of them at once. Each problem keeps its own convergence
flag and iteration count and leaves the loop when it converges, so every
problem gets exactly the numbers it would get alone. A problem that fails a
check (fewer observations than parameters, a non-finite value, a
rank-deficient design, singular normal equations or information) is
flagged with the error it would raise and does not stop the others.
`fit_glm` is the R = 1 call of that kernel and raises the flagged error.
`sandwich_cov_stack` gives the robust covariances of such a stack.

Conventions used throughout:
  * weights multiply each observation's log-likelihood contribution, so the
    score of observation i is w_i * (y_i - mu_i) * x_i for every family
    (canonical links);
  * the linear family's residual scale is the maximum-likelihood estimate
    (weighted mean squared residual, no degrees-of-freedom correction) --
    downstream Gaussian density evaluation relies on this;
  * model_cov is dispersion * inverse Fisher information at the estimate,
    with dispersion 1 for poisson/logistic and the MLE variance for linear;
  * a design is rank deficient when the ratio of its smallest to largest
    singular value (of sqrt(w) * X) is below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, LongicausalError, SingularDesignError

FAMILIES = ("linear", "logistic", "poisson")

_MAX_EXP = 700.0  # exp() overflow guard for float64
_RANK_RTOL = 1e-12
_MU_EPS = 1e-10
_TOL = 1e-8  # IRLS stops when the relative deviance change falls below this
_MAX_ITER = 100  # IRLS gives up, unconverged, after this many iterations


@dataclass
class FitResult:
    """Coefficients and covariance of one GLM fit."""

    coefficients: np.ndarray
    model_cov: np.ndarray
    family: str
    converged: bool
    iterations: int
    residual_sd: float | None = None


class StackFit(NamedTuple):
    """R fits of one family; row r holds problem r's results.

    `errors[r]` is the error `fit_glm` would raise for problem r, or None;
    the other fields of a failed problem are NaN or zero and mean nothing.
    """

    coefficients: np.ndarray  # (R, p)
    model_cov: np.ndarray  # (R, p, p)
    converged: np.ndarray  # (R,) bool
    iterations: np.ndarray  # (R,) int
    residual_sd: np.ndarray | None  # (R,), linear family only
    errors: list[LongicausalError | None]

    def result(self, r: int, family: str) -> FitResult:
        """Problem r as a FitResult; raises its error instead when it has one."""
        if self.errors[r] is not None:
            raise self.errors[r]
        return FitResult(
            coefficients=self.coefficients[r],
            model_cov=self.model_cov[r],
            family=family,
            converged=bool(self.converged[r]),
            iterations=int(self.iterations[r]),
            residual_sd=None if self.residual_sd is None else float(self.residual_sd[r]),
        )


def stack_groups(flags: np.ndarray) -> list[tuple[slice | np.ndarray, tuple[bool, ...]]]:
    """The problems of a stack grouped by their row of the (R, F) bool `flags`.

    Returns (rows, flags of those rows) per group; `rows` is a slice, a view
    rather than a copy, when one group holds every problem.
    """
    if len(flags) and (flags == flags[0]).all():
        return [(slice(None), tuple(flags[0]))]
    keys = flags @ (1 << np.arange(flags.shape[1]))
    groups = [np.flatnonzero(keys == key) for key in np.unique(keys)]
    return [(rows, tuple(flags[rows[0]])) for rows in groups]


def first_errors(errors: list, problems, new: list) -> None:
    """Give each of `problems` (an index of `errors`) its error from `new`, unless it has one already."""
    if any(new):  # a healthy stack has none to record
        for i, error in zip(np.arange(len(errors))[problems].tolist(), new):
            if errors[i] is None:
                errors[i] = error


def flag_errors(errors: list, problems, error_type: type, message: str) -> None:
    """Give each of `problems` (integer indices of `errors`) the error `error_type(message)`, unless it has one."""
    for i in problems:
        if errors[i] is None:
            errors[i] = error_type(message)


def _check_shapes(X: np.ndarray, y: np.ndarray, w: np.ndarray, family: str) -> None:
    if X.ndim != 3:
        raise DomainError(f"a design stack must be 3-d (R, n, p), got shape {X.shape}")
    r, n, _ = X.shape
    if y.shape != (r, n):
        raise DomainError(f"response shape {y.shape[1:]} does not match design ({n} rows)")
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if w.shape != (r, n):
        raise DomainError(f"weights shape {w.shape[1:]} does not match design ({n} rows)")


def _value_checks(X, y, w, family):
    """(failed, message) for each check of a problem, `failed` an (R,) mask, in check order."""
    r, n, p = X.shape
    checks = [
        (np.full(r, n < p), f"need at least as many observations as parameters (n={n}, p={p})"),
        (~np.isfinite(X).all(axis=(1, 2)), "design contains non-finite values"),
        (~np.isfinite(y).all(axis=1), "response contains non-finite values"),
    ]
    if family == "poisson":
        checks.append(((y < 0).any(axis=1), "poisson responses must be non-negative"))
    if family == "logistic":
        checks.append((~np.isin(y, (0.0, 1.0)).all(axis=1), "logistic responses must be 0 or 1"))
    checks.append((~np.isfinite(w).all(axis=1) | (w < 0).any(axis=1), "weights must be finite and non-negative"))
    checks.append((~(w > 0).any(axis=1), "at least one weight must be positive"))
    return checks


def _rank_deficient(X: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """(R,) mask: singular-value ratio of the effectively fitted sqrt(w)*X below 1e-12.

    Never looser than the pivoted-QR rule |r_pp| < 1e-12 |r_11|: pivoting
    makes |r_11| the largest diagonal entry, sigma_max >= |r_11| and
    sigma_min <= min |r_ii|, so sigma_min/sigma_max <= |r_pp|/|r_11|.
    """
    if X.shape[2] == 0:
        return np.ones(len(X), dtype=bool)
    wx = X if w is None else X * np.sqrt(w)[..., None]  # unit weights leave X as it is
    s = np.linalg.svd(wx, compute_uv=False)
    return (s[:, 0] == 0.0) | (s[:, -1] < _RANK_RTOL * s[:, 0])


def _per_problem(fn, *args) -> tuple[np.ndarray, np.ndarray]:
    """`fn` (np.linalg.solve or inv) over a stack; a singular problem gives NaNs and a True flag."""
    try:
        return fn(*args), np.zeros(len(args[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full(args[-1].shape, np.nan)
    singular = np.zeros(len(args[0]), dtype=bool)
    for i, one in enumerate(zip(*args)):
        try:
            out[i] = fn(*one)
        except np.linalg.LinAlgError:
            singular[i] = True
    return out, singular


def _matvec(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """X @ beta for each problem (a matrix-vector product, as in the 2-d case)."""
    return (X @ beta[..., None])[..., 0]


def _information(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X' diag(v) X for each problem, in the order X.T @ (X * v)."""
    return np.swapaxes(X, 1, 2) @ (X * v[..., None])


def _solve_wls(X, wk, z) -> tuple[np.ndarray, np.ndarray]:
    xtw = np.swapaxes(X, 1, 2) * wk[:, None, :]
    beta, singular = _per_problem(np.linalg.solve, xtw @ X, xtw @ z[..., None])
    return beta[..., 0], singular


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


def _deviance(family: str, y: np.ndarray, mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(R,) deviances of the poisson and logistic families; each row is summed on its own."""
    if family == "poisson":
        mu = np.maximum(mu, _MU_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(y / mu), 0.0)
        return 2.0 * np.sum(w * (term - (y - mu)), axis=-1)
    mu = np.clip(mu, _MU_EPS, 1.0 - _MU_EPS)
    return -2.0 * np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)), axis=-1)


def fit_glm_stack(design, response, family: str, weights=None) -> StackFit:
    """Fit R independent weighted GLMs by IRLS: designs (R, n, p), responses and weights (R, n).

    Problem r gets the result `fit_glm(design[r], response[r], family,
    weights[r])` would give, bit for bit, or the error it would raise in
    `errors[r]`. Convergence and `_MAX_ITER` are as in `fit_glm`.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    _check_shapes(X, y, w, family)
    r, _, p = X.shape
    errors: list[LongicausalError | None] = [None] * r
    for failed, message in _value_checks(X, y, w, family):
        flag_errors(errors, np.flatnonzero(failed), DomainError, message)
    live = np.flatnonzero([e is None for e in errors])
    rank_bad = live[_rank_deficient(X[live], None if weights is None else w[live])]
    message = "design matrix is rank deficient (singular value ratio below 1e-12)"
    flag_errors(errors, rank_bad, SingularDesignError, message)

    # from here on only the problems that passed the checks are computed
    live = np.flatnonzero([e is None for e in errors])
    if len(live) < r:
        X, y, w = X[live], y[live], w[live]
    coefficients = np.full((r, p), np.nan)
    model_cov = np.full((r, p, p), np.nan)
    converged = np.zeros(r, dtype=bool)
    iterations = np.zeros(r, dtype=int)
    residual_sd = None

    if family == "linear":
        beta, singular = _solve_wls(X, w, y)
        flag_errors(errors, live[singular], SingularDesignError, "weighted normal equations are singular")
        mu = _matvec(X, beta)
        with np.errstate(invalid="ignore"):  # NaN rows of singular problems
            sd = np.sqrt(np.sum(w * (y - mu) ** 2, axis=1) / np.sum(w, axis=1))
        done, its, dispersion = True, 1, (sd**2)[:, None, None]
        residual_sd = np.full(r, np.nan)
        residual_sd[live] = sd
    else:
        # starting values: shrink the response toward the family mean
        if family == "poisson":
            mu = y + 0.5
            eta = np.log(mu)
        else:
            mu = (y + 0.5) / 2.0
            eta = np.log(mu / (1.0 - mu))

        beta = np.zeros((len(live), p))
        dev = _deviance(family, y, _mu_eta(family, eta), w)
        done = np.zeros(len(live), dtype=bool)
        its = np.zeros(len(live), dtype=int)
        active = np.arange(len(live))  # positions in `live` still iterating
        for it in range(1, _MAX_ITER + 1):
            if not active.size:
                break
            sel = slice(None) if active.size == len(live) else active  # views while all iterate
            Xa, ya, wa, mua = X[sel], y[sel], w[sel], mu[sel]
            var = _variance(family, mua)
            wk = wa * var
            z = eta[sel] + (ya - mua) / var
            beta_a, singular = _solve_wls(Xa, wk, z)
            flag_errors(errors, live[active[singular]], SingularDesignError, "weighted normal equations are singular")
            eta_a = _matvec(Xa, beta_a)
            mu_a = _mu_eta(family, eta_a)
            if family == "logistic":
                mu_a = np.clip(mu_a, _MU_EPS, 1.0 - _MU_EPS)
            with np.errstate(invalid="ignore"):  # NaN rows of singular problems
                new_dev = _deviance(family, ya, mu_a, wa)
                now_done = np.abs(new_dev - dev[sel]) / (np.abs(dev[sel]) + 0.1) < _TOL
            beta[sel], eta[sel], mu[sel], dev[sel] = beta_a, eta_a, mu_a, new_dev
            its[sel] = it
            done[active[now_done]] = True
            active = active[~now_done & ~singular]

        if family == "logistic":
            done &= ~np.any((mu < 1e-8) | (mu > 1.0 - 1e-8), axis=1)  # separation: fitted probabilities pinned at 0/1
        dispersion = 1.0

    with np.errstate(invalid="ignore"):  # NaN rows of singular problems
        info = _information(X, w * _variance(family, mu))
    inv, singular = _per_problem(np.linalg.inv, info)
    flag_errors(errors, live[singular], SingularDesignError, "information matrix is singular at the estimate")
    coefficients[live] = beta
    model_cov[live] = inv * dispersion
    converged[live] = done
    iterations[live] = its
    return StackFit(coefficients, model_cov, converged, iterations, residual_sd, errors)


def fit_glm(design, response, family: str, weights=None) -> FitResult:
    """Fit a weighted GLM by IRLS.

    Convergence is declared when the relative deviance change drops below
    1e-8 (`_TOL`); after `_MAX_ITER` iterations the result is returned with
    converged=False and the caller decides (logistic separation shows up this
    way rather than as an error).
    """
    X = np.asarray(design, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"design must be 2-d, got shape {X.shape}")
    y = np.asarray(response, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float)[None]
    return fit_glm_stack(X[None], y[None], family, w).result(0, family)


def sandwich_cov_stack(
    family: str, coefficients, design, response, weights=None, *, hc1: bool = False
) -> tuple[np.ndarray, list[LongicausalError | None]]:
    """Robust bread-meat-bread covariance of R fits at their (R, p) coefficients.

    HC0; HC1 applies n/(n-p). Bread is the weighted Fisher information, meat
    the outer product of the weighted score contributions w_i*(y_i - mu_i)*x_i.
    Returns the (R, p, p) covariances and, per problem, its error (a singular
    bread matrix, then HC1 with n <= p) or None; a failed problem's covariance
    means nothing.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    r, n, p = X.shape
    mu = _mu_eta(family, _matvec(X, np.asarray(coefficients, dtype=float)))
    bread_inv, singular = _per_problem(np.linalg.inv, _information(X, w * _variance(family, mu)))
    score_resid = w * (y - mu)
    meat = _information(X, score_resid**2)
    cov = bread_inv @ meat @ bread_inv
    errors: list[LongicausalError | None] = [None] * r
    flag_errors(errors, np.flatnonzero(singular), SingularDesignError, "bread matrix is singular")
    if hc1 and n <= p:
        flag_errors(errors, range(r), DomainError, "HC1 scaling requires n > p")
    elif hc1:
        cov = cov * (n / (n - p))
    return cov, errors


def wald_test(beta: float, se: float) -> tuple[float, float]:
    """z = beta/se and the two-sided standard-normal p-value."""
    if not (se > 0) or not math.isfinite(se):
        raise DomainError(f"standard error must be positive and finite, got {se!r}")
    z = beta / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p
