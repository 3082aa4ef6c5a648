"""Inverse-probability-of-treatment weights.

The time-varying stabilized weights

    SW_i = prod_t  phi(A_i(t) | A_i(t-1)) / phi(A_i(t) | A_i(t-1), L_i(t-1))

are built from pooled Gaussian treatment-density models (least-squares means)
that condition on the immediately preceding period. Datasets with a baseline
period contribute factors for t = 1..K; datasets without one start at t = 2
and the first observed period acts as the baseline covariate.

`stabilized_weights_stack` is the one weights function: it computes the
weights of R replicates at once, fitting them in groups by which lag columns
vary. `stabilized_weights` is its one-replicate call on a dataset's arrays;
it adds only the raise of the replicate's error. Clipping the finished
weights is the caller's choice (`analyze --truncate-weights`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import DegenerateVarianceError, DomainError, LongicausalError, WeightError
from .glm import first_errors, least_squares_stack
from .panel import PanelDataset


class WeightSet(NamedTuple):
    """Per-unit stabilized weights, each the product of its per-period factors."""

    per_unit_weights: np.ndarray
    per_time_factors: np.ndarray
    periods: tuple[int, ...]


def _lagged_rows(a, l, a0, l0) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Pooled (response, lag treatment, lag confounder) rows, unit-major.

    Takes (..., N, K) histories and the (..., N) baselines A0/L0, or None
    for both; a leading block axis of replicates passes through. Without a
    baseline, the first observed period serves as A0/L0 and the modeled
    periods start at 2. Returns arrays of shape (..., N*T), where T is the
    number of modeled periods, plus the modeled period indices (1-based).
    """
    first = 1
    if a0 is None:
        if a.shape[-1] < 2:
            raise DomainError("weight models need a baseline period or K >= 2")
        a0, l0, a, l, first = a[..., 0], l[..., 0], a[..., 1:], l[..., 1:], 2
    lag_a = np.concatenate([a0[..., None], a[..., :-1]], axis=-1)
    lag_l = np.concatenate([l0[..., None], l[..., :-1]], axis=-1)
    periods = tuple(range(first, first + a.shape[-1]))
    # an explicit length rather than -1, so that a stack of no replicates reshapes too
    resp, lag_a, lag_l = (x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],)) for x in (a, lag_a, lag_l))
    return resp, lag_a, lag_l, periods


def _stack_groups(flags: np.ndarray) -> list[tuple[slice | np.ndarray, tuple[bool, ...]]]:
    """The problems of a stack grouped by their row of the (R, F) bool `flags`.

    Returns (rows, flags of those rows) per group; `rows` is a slice, a view
    rather than a copy, when one group holds every problem.
    """
    if len(flags) and (flags == flags[0]).all():
        return [(slice(None), tuple(flags[0]))]
    groups, inverse = np.unique(flags, axis=0, return_inverse=True)
    return [(np.flatnonzero(inverse == g), tuple(group)) for g, group in enumerate(groups)]


def _fit_models(resp, lag_a, lag_l, errors: list) -> list:
    """Both treatment models of R problems, fitted in groups by which lag columns vary.

    Numerator: A(t) ~ 1 + A(t-1). Denominator: A(t) ~ 1 + A(t-1) + L(t-1).
    Both are pooled across units and modeled periods and fitted as Gaussian
    linear models: `least_squares_stack` coefficients and the MLE residual
    sd, sqrt(mean squared residual), which the density ratio uses. A lag
    column that is constant over a problem's pooled rows carries no
    information and would make the design singular next to the intercept,
    so it is left out of both models.

    Returns (rows, models) per fitted group, models the (numerator,
    denominator) pair, a model its (R, p) coefficients, (R,) sd and (R, n)
    residuals resp - design @ coefficients, which the densities reuse. Each
    design lives only for its own fit. Records each problem's first error in
    `errors`: too few pooled rows, the numerator's, the denominator's fit.
    """
    groups, n_rows = [], resp.shape[-1]
    varies = np.stack([np.ptp(lag_a, axis=-1) > 0.0, np.ptp(lag_l, axis=-1) > 0.0], axis=-1)
    for rows, (vary_a, vary_l) in _stack_groups(varies):
        numerator_columns = [lag_a[rows]] if vary_a else []
        denominator_columns = numerator_columns + ([lag_l[rows]] if vary_l else [])
        if n_rows < len(denominator_columns) + 3:
            message = f"not enough pooled observations ({n_rows}) for the treatment models"
            first_errors(errors, rows, DomainError(message))
            continue
        y = resp[rows]
        ones = np.broadcast_to(1.0, y.shape)  # read only by np.stack, which copies it into each design
        models = []
        for columns in (numerator_columns, denominator_columns):
            design = np.stack([ones, *columns], axis=-1)
            coefficients, fit_errors = least_squares_stack(design, y)
            first_errors(errors, rows, fit_errors)
            with np.errstate(over="ignore", invalid="ignore"):  # residuals squaring to inf; NaN rows of failed fits
                resid = y - (design @ coefficients[..., None])[..., 0]
                models.append((coefficients, np.sqrt(np.sum(resid**2, axis=-1) / n_rows), resid))
        groups.append((rows, models))
    return groups


def _gaussian_logpdf(resid: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """log N(x; mean, sd^2) from a model's residuals x - mean, for a model of each replicate of a leading block axis.

    Residuals are (R, n), as `_fit_models` gives them, and sd is (R,).
    log(sd) is the scalar libm log of each sd, so a replicate's densities do
    not depend on the block it is evaluated in.
    """
    sd = np.asarray(sd, dtype=float)[..., None]
    log_norm = np.reshape([-0.5 * (math.log(2.0 * math.pi) + 2.0 * math.log(s)) for s in sd.ravel()], sd.shape)
    return log_norm - resid**2 / (2.0 * sd * sd)


def _sd_floor(resp: np.ndarray):
    # a residual sd at rounding-error scale means the model fit the treatment
    # path exactly; the density ratio is undefined there. A std that overflows
    # gives an infinite floor, and a non-finite treatment a NaN one, without
    # a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return 1e-10 * np.maximum(1.0, np.std(resp, axis=-1))


class WeightStack(NamedTuple):
    """Stabilized weights of R replicates, row r for replicate r.

    `errors[r]` is the error `stabilized_weights` raises for replicate r, or None.
    """

    per_unit_weights: np.ndarray  # (R, N)
    log_factors: np.ndarray  # (R, N, T), the logs of the per-period factors
    periods: tuple[int, ...]
    errors: list[LongicausalError | None]


def stabilized_weights_stack(a, l, a0, l0, unit_ids) -> WeightStack:
    """Stabilized weights of R replicates at once.

    Takes (R, N, K) histories, (R, N) baselines or None for both, and the N
    unit ids that error messages name. The treatment models are those
    `_fit_models` fits. A replicate's error is its first of: a spread of A
    that overflows (an infinite sd floor), the `_fit_models` errors, the
    numerator's, then the denominator's sd floor, the first non-finite
    factor by (unit, period), then the first non-finite per-unit weight.
    Row r is bit-identical to the stack of replicate r alone.
    """
    resp, lag_a, lag_l, periods = _lagged_rows(a, l, a0, l0)
    r, n_units, n_t = len(resp), a.shape[1], len(periods)
    errors = [None] * r
    floor = _sd_floor(resp)
    first_errors(errors, floor == np.inf, DomainError(
        "treatment values overflow: the spread of A is not finite; rescale the treatment (volume) values"))
    # the outputs are allocated after the fits and the lags are released, so
    # they never share the peak of the treatment models' designs
    fits = _fit_models(resp, lag_a, lag_l, errors)
    del lag_a, lag_l
    weights, log_factors = np.full((r, n_units), np.nan), np.full((r, n_units, n_t), np.nan)
    for rows, models in fits:
        idx = np.arange(r)[rows]
        for label, (_, sd, _) in zip(("numerator", "denominator"), models):
            message = f"{label} treatment model has (numerically) zero residual variance; density ratio is undefined"
            first_errors(errors, idx[sd <= floor[rows]], DegenerateVarianceError(message))
        live = np.flatnonzero([errors[i] is None for i in idx])
        sel = slice(None) if live.size == idx.size else live  # a view, not a copy, when all are live
        numerator, denominator = ((resid[sel], sd[sel]) for _, sd, resid in models)
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
            factors = _gaussian_logpdf(*numerator) - _gaussian_logpdf(*denominator)
        factors = factors.reshape(-1, n_units, n_t)
        with np.errstate(over="ignore"):
            per_unit = np.exp(factors.sum(axis=-1))
        for j in np.flatnonzero(~np.isfinite(factors).all(axis=(1, 2)) | ~np.isfinite(per_unit).all(axis=1)):
            i, bad = idx[live[j]], np.argwhere(~np.isfinite(factors[j]))
            if len(bad):
                u, t = bad[0]
                errors[i] = WeightError(f"non-finite weight factor for unit {unit_ids[u]!r} at t={periods[t]}")
            else:
                u = np.flatnonzero(~np.isfinite(per_unit[j]))[0]
                errors[i] = WeightError(f"non-finite stabilized weight for unit {unit_ids[u]!r}")
        weights[idx[live]], log_factors[idx[live]] = per_unit, factors
    return WeightStack(weights, log_factors, periods, errors)


def stabilized_weights(data: PanelDataset) -> WeightSet:
    """Compute SW_i as the product of per-period Gaussian density ratios.

    The one-replicate call of `stabilized_weights_stack`. Products are
    accumulated in log space in fixed period order, so results do not
    depend on evaluation order.
    """
    arrays = (None if x is None else x[None] for x in (data.A, data.L, data.A0, data.L0))
    stack = stabilized_weights_stack(*arrays, data.unit_ids)
    if stack.errors[0] is not None:
        raise stack.errors[0]
    return WeightSet(
        per_unit_weights=stack.per_unit_weights[0],
        per_time_factors=np.exp(stack.log_factors[0]),
        periods=stack.periods,
    )
