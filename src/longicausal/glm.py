"""Poisson regressions by iteratively reweighted least squares, and least squares.

`fit_poisson_stack` fits R independent log-link Poisson regressions at once:
designs (R, n, p), (R, n) responses and optional non-negative weights (none
means unit weights, formed on entry). Each problem keeps its own convergence
flag and iteration count and leaves the loop when it converges, so every
problem gets exactly the numbers it would get alone. `sandwich_cov_stack`
gives such a fit's robust covariances: its model_cov is the inverse bread, so
only the meat is computed. `least_squares_stack` fits R unweighted problems,
with one X'X each for the rank check and the normal equations. A problem that
fails a check (too few observations, a non-finite value, a rank-deficient
design, singular normal equations or information; for Poisson a negative
response, bad weights or no weighted count) is flagged with its error and
does not stop the others. A one-model fit is the R = 1 call.

Conventions used throughout:
  * weights multiply each observation's log-likelihood contribution, so the
    score of observation i is w_i * (y_i - mu_i) * x_i;
  * model_cov is the inverse Fisher information at the estimate;
  * a design is rank deficient when the ratio of its smallest to largest
    singular value (of sqrt(w) * X) is below 1e-12. A bound on the Gram's
    eigenvalues skips that SVD where it provably agrees (`_rank_deficient`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, LongicausalError, SingularDesignError

ROBUST_KINDS = ("HC0", "HC1")  # sandwich_cov_stack's kinds; HC1 scales HC0 by n/(n-p)

_MAX_EXP = 700.0  # exp() overflow guard for float64
_RANK_RTOL = 1e-12
_MU_EPS = 1e-10
_TOL = 1e-8  # IRLS stops when the relative deviance change falls below this
_MAX_ITER = 100  # IRLS gives up, unconverged, after this many iterations


class StackFit(NamedTuple):
    """R Poisson fits; row r holds problem r's results.

    `errors[r]` is the error problem r failed with, or None; the other
    fields of a failed problem are NaN or zero and mean nothing.
    """

    coefficients: np.ndarray  # (R, p)
    model_cov: np.ndarray  # (R, p, p)
    converged: np.ndarray  # (R,) bool
    iterations: np.ndarray  # (R,) int
    errors: list[LongicausalError | None]


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


def _arrays(design, *rows) -> list[np.ndarray]:
    """`design` and the (R, n) `rows` (response, then weights) as float arrays, their shapes checked."""
    X, *rows = (np.asarray(a, dtype=float) for a in (design, *rows))
    if X.ndim != 3:
        raise DomainError(f"a design stack must be 3-d (R, n, p), got shape {X.shape}")
    r, n, _ = X.shape
    for name, a in zip(("response", "weights"), rows):
        if a.shape != (r, n):
            raise DomainError(f"{name} shape {a.shape[1:]} does not match design ({n} rows)")
    return [X, *rows]


def _screen(X, y, w, checks=(), gram=None) -> list[LongicausalError | None]:
    """Each problem's first error or None: n < p, non-finite X or y, `checks` ((R,) mask, message), then rank.

    The rank check, of sqrt(w)*X with `gram` its Gram if given, runs on the problems that passed the others.
    """
    r, n, p = X.shape
    errors: list[LongicausalError | None] = [None] * r
    for failed, message in [
        (np.full(r, n < p), f"need at least as many observations as parameters (n={n}, p={p})"),
        (~np.isfinite(X).all(axis=(1, 2)), "design contains non-finite values"),
        (~np.isfinite(y).all(axis=1), "response contains non-finite values"),
        *checks,
    ]:
        flag_errors(errors, np.flatnonzero(failed), DomainError, message)
    live = np.flatnonzero([e is None for e in errors])
    sel = slice(None) if len(live) == r else live
    rank_bad = live[_rank_deficient(X[sel], w[sel], None if gram is None else gram[sel])]
    message = "design matrix is rank deficient (singular value ratio below 1e-12)"
    flag_errors(errors, rank_bad, SingularDesignError, message)
    return errors


def _svd_rank_deficient(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(R,) mask: singular-value ratio of the effectively fitted sqrt(w)*X below 1e-12.

    Never looser than the pivoted-QR rule |r_pp| < 1e-12 |r_11|: pivoting
    makes |r_11| the largest diagonal entry, sigma_max >= |r_11| and
    sigma_min <= min |r_ii|, so sigma_min/sigma_max <= |r_pp|/|r_11|.
    """
    s = np.linalg.svd(_scaled_rows(X, np.sqrt(w)), compute_uv=False)
    return (s[:, 0] == 0.0) | (s[:, -1] < _RANK_RTOL * s[:, 0])


def _rank_deficient(X: np.ndarray, w: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """The `_svd_rank_deficient` mask; the SVD runs only where the Gram cannot prove full rank.

    With l_min, l_max the eigvalsh extremes of the computed G^ = B'B (`gram`
    if given), B = sqrt(w)*X as the SVD rule sees it, a problem is full rank
    when l_min - slack > 1e-10 l_max, slack = 2n eps tr(G^) + 10p eps l_max
    + np 2**-1074: G^'s rounding bound gamma_n (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1), eigvalsh's backward
    error, underflow. B's singular-value ratio is then above 7e-6, so the
    SVD rule agrees. The rest, non-finite G^ too, go to the SVD.
    """
    r, n, p = X.shape
    if p == 0:
        return np.ones(r, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # a Gram that overflows goes to the SVD
        if gram is None:
            b = _scaled_rows(X, np.sqrt(w))
            gram = np.swapaxes(b, 1, 2) @ b
        finite = np.isfinite(gram).all(axis=(1, 2))
        lam = np.linalg.eigvalsh(gram[finite])
        slack = np.finfo(float).eps * (2 * n * np.trace(gram[finite], axis1=1, axis2=2) + 10 * p * lam[:, -1])
        deficient = ~finite  # True until proven full rank
        deficient[finite] = ~(lam[:, 0] - slack - n * p * 2.0**-1074 > 1e-10 * lam[:, -1])
    if deficient.any():  # the SVD decides what the bound leaves open
        deficient[deficient] = _svd_rank_deficient(X[deficient], w[deficient])
    return deficient


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


def _scaled_rows(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(v) X for each problem: the values and C-order layout of X * v[..., None], a new buffer.

    Formed one column at a time, so each multiply runs over R*n elements;
    the broadcast product runs numpy's inner loop over only p at a time.
    """
    out = np.empty(X.shape)
    for j in range(X.shape[-1]):
        np.multiply(X[..., j], v, out=out[..., j])
    return out


def _information(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X' diag(v) X for each problem, as X.T @ `_scaled_rows(X, v)`.

    That product is a new buffer, so numpy never takes its A.T @ A (syrk) path here.
    """
    return np.swapaxes(X, 1, 2) @ _scaled_rows(X, v)


def _solve_wls(X, wk, z) -> tuple[np.ndarray, np.ndarray]:
    """beta of X'diag(wk)X beta = X'diag(wk)z per problem.

    X'diag(wk) is the transpose of `_scaled_rows(X, wk)`: the values and
    strides of swapaxes(X) * wk[:, None, :], so both products keep their bits.
    """
    xtw = np.swapaxes(_scaled_rows(X, wk), 1, 2)
    beta, singular = _per_problem(np.linalg.solve, xtw @ X, xtw @ z[..., None])
    return beta[..., 0], singular


def _mu_eta(eta: np.ndarray) -> np.ndarray:
    """The poisson mean exp(eta), eta clipped against overflow."""
    return np.exp(np.clip(eta, -_MAX_EXP, _MAX_EXP))


def _variance(mu: np.ndarray) -> np.ndarray:
    """The poisson variance function, floored at 1e-10."""
    return np.maximum(mu, _MU_EPS)


def _deviance(y: np.ndarray, mu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(R,) poisson deviances; each row is summed on its own."""
    mu = np.maximum(mu, _MU_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(y / mu), 0.0)
    return 2.0 * np.sum(w * (term - (y - mu)), axis=-1)


def least_squares_stack(design, response) -> tuple[np.ndarray, list[LongicausalError | None]]:
    """Least-squares fits of R independent problems, designs (R, n, p) and responses (R, n), row by row.

    Returns the (R, p) coefficients, NaN for a failed problem, and each
    problem's error or None. One X'X serves the rank check and X'X beta = X'y.
    It is X.T @ X.copy(): the copy keeps numpy off its A.T @ A (syrk) path,
    whose sums differ, and gives the bits of X.T @ (X * 1).
    """
    X, y = _arrays(design, response)
    ones = np.ones(y.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X'X goes to the SVD
        gram = np.swapaxes(X, 1, 2) @ X.copy()
    errors = _screen(X, y, ones, gram=gram)
    live = np.flatnonzero([e is None for e in errors])
    sel = slice(None) if len(live) == len(errors) else live  # views while every problem is live
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite X'y gives non-finite coefficients
        xty = np.swapaxes(X[sel], 1, 2) @ y[sel][..., None]
    beta, singular = _per_problem(np.linalg.solve, gram[sel], xty)
    flag_errors(errors, live[singular], SingularDesignError, "weighted normal equations are singular")
    coefficients = np.full((len(errors), X.shape[2]), np.nan)
    coefficients[live] = beta[..., 0]
    return coefficients, errors


def fit_poisson_stack(design, response, weights=None) -> StackFit:
    """Fit R independent log-link Poisson regressions by IRLS: designs (R, n, p), responses and weights (R, n).

    Rows are independent: problem r's result, or its error in `errors[r]`,
    is bit for bit the same whatever the other problems of the stack are.
    No weights means unit weights. A problem converges when its relative
    deviance change drops below 1e-8 (`_TOL`); after `_MAX_ITER` iterations
    it is returned with converged False and the caller decides.
    """
    X, y, w = _arrays(design, response, np.ones(np.shape(response)) if weights is None else weights)
    r, _, p = X.shape
    errors = _screen(X, y, w, [
        ((y < 0).any(axis=1), "poisson responses must be non-negative"),
        (~np.isfinite(w).all(axis=1) | (w < 0).any(axis=1), "weights must be finite and non-negative"),
        (~(w > 0).any(axis=1), "at least one weight must be positive"),
        # with no weighted count the intercept runs to -inf
        (~((y > 0) & (w > 0)).any(axis=1), "poisson responses are all zero where weighted; the MLE does not exist"),
    ])

    # from here on only the problems that passed the checks are computed
    live = np.flatnonzero([e is None for e in errors])
    if len(live) < r:
        X, y, w = X[live], y[live], w[live]
    coefficients = np.full((r, p), np.nan)
    model_cov = np.full((r, p, p), np.nan)
    converged = np.zeros(r, dtype=bool)
    iterations = np.zeros(r, dtype=int)

    mu = y + 0.5  # starting values: the response, shifted off zero for the log
    eta = np.log(mu)
    beta = np.zeros((len(live), p))
    dev = _deviance(y, _mu_eta(eta), w)
    done = np.zeros(len(live), dtype=bool)
    its = np.zeros(len(live), dtype=int)
    active = np.arange(len(live))  # positions in `live` still iterating
    for it in range(1, _MAX_ITER + 1):
        if not active.size:
            break
        sel = slice(None) if active.size == len(live) else active  # views while all iterate
        Xa, ya, wa, mua = X[sel], y[sel], w[sel], mu[sel]
        var = _variance(mua)
        z = eta[sel] + (ya - mua) / var
        beta_a, singular = _solve_wls(Xa, wa * var, z)
        flag_errors(errors, live[active[singular]], SingularDesignError, "weighted normal equations are singular")
        eta_a = _matvec(Xa, beta_a)
        mu_a = _mu_eta(eta_a)
        with np.errstate(invalid="ignore"):  # NaN rows of singular problems
            new_dev = _deviance(ya, mu_a, wa)
            now_done = np.abs(new_dev - dev[sel]) / (np.abs(dev[sel]) + 0.1) < _TOL
        beta[sel], eta[sel], mu[sel], dev[sel] = beta_a, eta_a, mu_a, new_dev
        its[sel] = it
        done[active[now_done]] = True
        active = active[~now_done & ~singular]

    with np.errstate(invalid="ignore"):  # NaN rows of singular problems
        inv, singular = _per_problem(np.linalg.inv, _information(X, w * _variance(mu)))
    flag_errors(errors, live[singular], SingularDesignError, "information matrix is singular at the estimate")
    coefficients[live] = beta
    model_cov[live] = inv
    converged[live] = done
    iterations[live] = its
    return StackFit(coefficients, model_cov, converged, iterations, errors)


def sandwich_cov_stack(
    fit: StackFit, design, response, weights, *, kind: str = "HC0"
) -> tuple[np.ndarray, list[LongicausalError | None]]:
    """Robust bread-meat-bread covariance of `fit`, the `fit_poisson_stack` of these arguments.

    The inverse bread is the fit's model_cov (inverse Fisher information at
    the estimate); the meat is the outer product of the weighted score
    contributions w_i*(y_i - mu_i)*x_i: HC0, or times n/(n-p) for HC1. Returns
    the (R, p, p) covariances and, per problem, its error or None; the
    covariance of a failed fit or problem means nothing. Every problem with
    n <= p fails: such a fit interpolates its data, so its meat is rounding.
    """
    if kind not in ROBUST_KINDS:
        raise DomainError(f"unknown robust kind {kind!r}, expected one of {ROBUST_KINDS}")
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    w = np.asarray(weights, dtype=float)
    r, n, p = X.shape
    mu = _mu_eta(_matvec(X, fit.coefficients))
    meat = _information(X, (w * (y - mu)) ** 2)
    cov = fit.model_cov @ meat @ fit.model_cov
    errors: list[LongicausalError | None] = [None] * r
    if n <= p:
        message = "HC1 scaling requires n > p" if kind == "HC1" else "robust covariance requires n > p"
        flag_errors(errors, range(r), DomainError, message)
    elif kind == "HC1":
        cov = cov * (n / (n - p))
    return cov, errors


def wald_test(beta: float, se: float) -> tuple[float, float]:
    """z = beta/se and the two-sided standard-normal p-value."""
    if not (se > 0) or not math.isfinite(se):
        raise DomainError(f"standard error must be positive and finite, got {se!r}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta!r}")
    z = beta / se
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p
