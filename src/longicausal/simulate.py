"""Longitudinal data generation with treatment-confounder feedback.

The generating process, per replicate (vectorized over units):

  U ~ uniform over integers 1..u_levels           (latent risk, discarded)
  A(0) ~ Normal(a0_mean, a0_sd)
  logit P(L(t)=1 | A(t), U) = _L_LOGIT_U_COEF*U + _L_LOGIT_A_COEF*1[A(t) > a_threshold]
  L(0) ~ Bernoulli(that probability at A(0))
  for t = 1..K:
      A(t) ~ Normal(A(t-1) + a_l_penalty*L(t-1) + a_drift, a_sd)
      L(t) ~ Bernoulli(...)
  Y ~ Poisson(exp(causal_effect*sum_t A(t) + confounding*U))

Negative A(t) draws are kept as-is (the process has no floor). The Monte
Carlo harness derives one counter-based Philox stream per replicate from
(master_seed, replicate index), so results are independent of execution
order and of the degree of parallelism.

Replicates run in fixed blocks of consecutive indices, about BLOCK_ROWS
(50,000) pooled treatment-model rows each. A block is generated as one
stack (`_generate_stack`): one Philox bit generator is re-keyed through its
state to each replicate's key, so each replicate keeps its own stream and
draw order, and the recursion runs over the whole block, so every replicate is
bit-identical to `generate_dataset` of it alone, which is the one-replicate
call of the same generator. The block's weights and outcome fits then run
over every replicate of the block, in one pass, as stacks
(`stabilized_weights_stack`, which names units 0..N-1 as `generate_dataset`
does, and `estimate_stack`, which fits naive and MSM as one IRLS stack),
whose one-replicate calls are the per-dataset functions. Each stack gives
every replicate the numbers or the error of that call. A replicate that
fails generation's checks (`_checked_panel`) fails a later stage too, so
those checks run only on the replicates a stage failed. So a replicate is
audited with the error the per-dataset path raises first, and results do
not depend on the block size either. A block returns (E, R) beta1 and SE
columns and R audit messages, which `run_monte_carlo` concatenates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .estimators import CI_MULTIPLIER, ESTIMATOR_NAMES, estimate_stack
from .exceptions import DomainError, LongicausalError, SimulationError, _require_finite
from .glm import first_errors
from .iptw import _sd_floor, stabilized_weights_stack
from .panel import PanelDataset

# the largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX)
_MAX_POISSON_MEAN = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
FAILURE_BUDGET = 0.01
# logit P(L(t)=1) per level of U and for A(t) above a_threshold
_L_LOGIT_U_COEF = 0.14
_L_LOGIT_A_COEF = 1.1
_REVIEW_TREATMENT = "review a0_mean/a0_sd/a_drift/a_l_penalty/a_sd parameters"
# pooled treatment-model rows (N*K per replicate) fitted together: a block is
# BLOCK_ROWS // (N*K) consecutive replicates, at least one, so its memory is
# bounded and its boundaries depend only on the configuration
BLOCK_ROWS = 50_000


def _require_types(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise DomainError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float":
            _require_finite(f.name, value)


def _require_seed(name: str, value, bits: int) -> None:
    if isinstance(value, bool) or not (isinstance(value, int) and 0 <= value < 2**bits):
        raise DomainError(f"{name} must be an integer in [0, 2**{bits}), got {value!r}")


@dataclass(frozen=True)
class DgpParams:
    """Knobs of the generating process."""

    u_levels: int = 10
    a_threshold: float = 1000.0
    a0_mean: float = 1000.0
    a0_sd: float = 60.0
    a_drift: float = 15.0
    a_l_penalty: float = -55.0
    a_sd: float = 60.0

    def __post_init__(self):
        _require_types(self)
        if not (1 <= self.u_levels <= np.iinfo(np.int64).max):  # U is drawn as int64
            raise DomainError(f"u_levels must be in [1, 2**63 - 1], got {self.u_levels}")
        if not (self.a0_sd > 0) or not (self.a_sd > 0):
            raise DomainError("sd parameters must be > 0")


@dataclass(frozen=True)
class SimulationConfig:
    causal_effect: float = 0.001
    confounding: float = 0.1
    n_units: int = 50
    n_periods: int = 8
    n_replicates: int = 2000
    master_seed: int = 0
    dgp: DgpParams = field(default_factory=DgpParams)

    def __post_init__(self):
        _require_types(self)
        if not isinstance(self.dgp, DgpParams):
            raise DomainError(f"dgp must be a DgpParams, got {self.dgp!r}")
        if self.n_units < 2:
            raise DomainError("n_units must be >= 2")
        if self.n_periods < 1:
            raise DomainError("n_periods must be >= 1")
        if self.n_replicates < 1:
            raise DomainError("n_replicates must be >= 1")
        _require_seed("master_seed", self.master_seed, 64)


def replicate_seed(master_seed: int, replicate: int) -> int:
    """128-bit Philox key for one replicate: (master_seed, replicate) packed."""
    _require_seed("master_seed", master_seed, 64)
    _require_seed("replicate", replicate, 64)
    return (master_seed << 64) | replicate


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _generate_stack(config: SimulationConfig, seeds) -> tuple[np.ndarray, ...]:
    """The replicates of `seeds` at once: (A, L, Y, A0, L0, log_mean).

    A and L are (R, N, K); Y, A0, L0 and the Poisson log means are (R, N).
    Each seed draws from its own Philox stream in the one-replicate order
    (U, then a normal and a uniform vector per period 0..K, then Y), and the
    recursion runs elementwise over all R rows with the same operations as
    `Generator.normal` (loc + scale*z), so row j is bit-identical whatever
    the other seeds are. Y is drawn only for rows whose means
    `Generator.poisson` accepts; the others are NaN.
    """
    g = config.dgp
    n, k = config.n_units, config.n_periods
    # one bit generator, re-keyed per seed: each state is that of Philox(key=seed)
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    u = np.empty((len(seeds), n))
    z = np.empty((k + 1, len(seeds), n))
    v = np.empty_like(z)
    states = []  # each seed's state after its U, normals and uniforms, for its Poisson draw
    for j, seed in enumerate(seeds):
        fresh["state"]["key"] = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)
        bit_generator.state = fresh
        u[j] = rng.integers(1, g.u_levels + 1, size=n)
        for t in range(k + 1):
            rng.standard_normal(out=z[t, j])
            rng.random(out=v[t, j])
        states.append(bit_generator.state)

    # A(t) and L(t) overwrite period t's normal and uniform draws in place:
    # each draw is read only in the statement that overwrites it
    a, l = z, v
    # a non-finite A or mean fails a stage of `_run_block`, and then `_checked_panel`
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k + 1):
            if t == 0:
                loc, scale = g.a0_mean, g.a0_sd
            else:
                loc, scale = a[t - 1] + g.a_l_penalty * l[t - 1] + g.a_drift, g.a_sd
            a[t] = loc + scale * z[t]
            l[t] = v[t] < _expit(_L_LOGIT_U_COEF * u + _L_LOGIT_A_COEF * (a[t] > g.a_threshold))
        a0, l0 = a[0].copy(), l[0].copy()  # copies, so the (K+1, R, N) arrays are freed below
        a, l = (np.ascontiguousarray(x[1:].transpose(1, 2, 0)) for x in (a, l))

        log_mean = config.causal_effect * a.sum(axis=2) + config.confounding * u
        mean = np.exp(log_mean)
    y = np.full_like(mean, np.nan)
    for j in np.flatnonzero((mean <= _MAX_POISSON_MEAN).all(axis=1)):  # NaN fails too
        bit_generator.state = states[j]
        y[j] = rng.poisson(mean[j])
    return a, l, y, a0, l0, log_mean


def _checked_panel(a, l, y, a0, l0, log_mean) -> PanelDataset:
    """One generated replicate's rows of `_generate_stack` as a panel, after the overflow checks.

    A NaN Y is a Poisson mean that cannot be drawn, from a non-finite A or
    an overflowing mean. A finite A whose spread overflows makes the
    weights' sd floor inf; this check names the generating parameters.
    """
    if np.isnan(y).any():
        if not (np.isfinite(a).all() and np.isfinite(a0).all()):
            raise SimulationError(f"treatment recursion overflow: A is not finite; {_REVIEW_TREATMENT}")
        raise SimulationError(
            f"Poisson mean overflow: exp argument {np.max(log_mean):.1f} > {np.log(_MAX_POISSON_MEAN):.2f}; "
            "review causal_effect/confounding/volume parameters"
        )
    data = PanelDataset(a, l, y, A0=a0, L0=l0)
    if _sd_floor(a.reshape(-1)) == np.inf:
        raise SimulationError(f"treatment recursion overflow: the spread of A is not finite; {_REVIEW_TREATMENT}")
    return data


def generate_dataset(config: SimulationConfig, replicate_seed: int) -> PanelDataset:
    """One replicate's panel. Same (config, seed) gives bit-identical output."""
    _require_seed("replicate_seed", replicate_seed, 128)  # the Philox key
    return _checked_panel(*(x[0] for x in _generate_stack(config, [replicate_seed])))


class EstimatorMonteCarlo(NamedTuple):
    """Replicate-level estimates for one estimator, plus their aggregates."""

    estimates: np.ndarray
    ses: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    avg_point_estimate: float
    avg_se: float
    coverage95: float


class MonteCarloSummary(NamedTuple):
    n_replicates: int
    n_failed: int
    failed_replicates: tuple[tuple[int, str], ...]
    replicate_indices: np.ndarray
    estimators: dict[str, EstimatorMonteCarlo]


def _run_block(config: SimulationConfig, replicates: range) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """(beta1, se, audit) for `replicates`: (E, R) columns in ESTIMATOR_NAMES order and R messages.

    The block is generated, weighted and fitted as stacks, every replicate
    through every stage; generation is checked only on the replicates that a
    stage failed. A replicate is audited with its first error, from
    generation, the weights, then the naive, adjusted and MSM fits, or else
    with its non-converged fits; its columns are NaN. A kept replicate's
    message is None.
    """
    generated = _generate_stack(config, [replicate_seed(config.master_seed, rep) for rep in replicates])
    a, l, y, a0, l0, _ = generated
    weights = stabilized_weights_stack(a, l, a0, l0, range(a.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # A can sum to +-inf or NaN; that replicate's fits fail
        cum_a = a.sum(axis=2)
    estimates = estimate_stack(cum_a, l.sum(axis=2), y, weights.per_unit_weights)
    errors: list[LongicausalError | None] = [None] * len(replicates)
    stages = (weights.errors, *(e.errors for e in estimates.values()))
    # generation is checked only where a stage failed, and its error comes
    # first. That misses none: a NaN Y fails the fits; a non-finite A, or A0
    # (A(1) is A0 plus finite terms), fails the weights, whose response is
    # A(1..K); and an overflowing spread of A makes the weights' sd floor inf
    for j in np.flatnonzero([any(stage_errors) for stage_errors in zip(*stages)]):
        try:
            _checked_panel(*(x[j] for x in generated))
        except LongicausalError as exc:
            errors[j] = exc
    for stage in stages:
        first_errors(errors, slice(None), stage)

    audit = [None if e is None else f"{type(e).__name__}: {e}" for e in errors]
    converged = np.array([e.converged for e in estimates.values()])
    for k in np.flatnonzero(~converged.all(axis=0)):
        failing = ", ".join(name for name, ok in zip(estimates, converged[:, k]) if not ok)
        audit[k] = audit[k] or f"non-convergence: {failing}"
    beta1, se = np.array([[e.beta1_hat for e in estimates.values()], [e.se for e in estimates.values()]])
    failed = np.array([msg is not None for msg in audit])
    beta1[:, failed] = se[:, failed] = np.nan
    return beta1, se, audit


def run_monte_carlo(config: SimulationConfig, *, threads: int = 1) -> MonteCarloSummary:
    """Run M replicates and aggregate per-estimator averages and coverage.

    Replicates that raise a package error (or fail to converge) are excluded
    with an audit trail; more than 1% of them aborts the run. Blocks run on
    `threads` worker processes (DomainError unless an integer >= 1), at most
    one per block and per CPU this process may use. Aggregation is performed
    in replicate-index order regardless of `threads`.
    """
    if isinstance(threads, bool) or not (isinstance(threads, int) and threads >= 1):
        raise DomainError(f"threads must be an integer >= 1, got {threads!r}")
    m = config.n_replicates
    size = max(1, BLOCK_ROWS // (config.n_units * config.n_periods))
    blocks = [range(i, min(i + size, m)) for i in range(0, m, size)]
    # more processes than blocks or usable CPUs would only wait
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(threads, len(blocks), cpus)

    if threads == 1:
        beta1_blocks, se_blocks, audit_blocks = zip(*map(_run_block, [config] * len(blocks), blocks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # imported here: a one-process run needs no multiprocessing
        with ProcessPoolExecutor(max_workers=threads) as pool:
            beta1_blocks, se_blocks, audit_blocks = zip(*pool.map(_run_block, [config] * len(blocks), blocks))
    audit = [msg for block in audit_blocks for msg in block]
    failed = tuple((rep, msg) for rep, msg in enumerate(audit) if msg is not None)

    if len(failed) > FAILURE_BUDGET * m:
        preview = "; ".join(f"replicate {r}: {msg}" for r, msg in failed[:5])
        raise SimulationError(
            f"{len(failed)} of {m} replicates failed (budget {FAILURE_BUDGET:.0%}): {preview}"
        )

    kept = np.array([msg is None for msg in audit])
    estimates, ses = (np.concatenate(columns, axis=1)[:, kept] for columns in (beta1_blocks, se_blocks))
    summaries: dict[str, EstimatorMonteCarlo] = {}
    for name, est, se in zip(ESTIMATOR_NAMES, estimates, ses):
        lo = est - CI_MULTIPLIER * se
        hi = est + CI_MULTIPLIER * se
        covered = (lo <= config.causal_effect) & (config.causal_effect <= hi)
        summaries[name] = EstimatorMonteCarlo(
            estimates=est,
            ses=se,
            ci_lo=lo,
            ci_hi=hi,
            avg_point_estimate=float(est.mean()),
            avg_se=float(se.mean()),
            coverage95=float(covered.mean()),
        )

    return MonteCarloSummary(
        n_replicates=m,
        n_failed=len(failed),
        failed_replicates=failed,
        replicate_indices=np.flatnonzero(kept),
        estimators=summaries,
    )
