"""Longitudinal data generation with treatment-confounder feedback.

The generating process, per replicate (vectorized over units):

  U ~ uniform over integers 1..u_levels           (latent risk, discarded)
  A(0) ~ Normal(a0_mean, a0_sd)
  logit P(L(t)=1 | A(t), U) = l_logit_u_coef*U + l_logit_a_coef*1[A(t) > a_threshold]
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
pooled treatment-model rows each. A block is generated as one stack
(`_generate_stack`): each replicate keeps its own stream and draw order,
and the recursion runs over the whole block, so every replicate is
bit-identical to `generate_dataset` of it alone, which is the one-replicate
call of the same generator. The block's weights and outcome fits then run
as stacks (`stabilized_weights_stack`, `estimate_stack`), whose
one-replicate calls are the per-dataset functions. Each stack gives every
replicate the numbers or the error of that call, so a replicate is audited
with the error the per-dataset path raises first, and results do not
depend on the block size either. A block returns (E, R) beta1 and SE
columns and R audit messages, which `run_monte_carlo` concatenates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .estimators import CI_MULTIPLIER, ESTIMATOR_NAMES, estimate_stack
from .exceptions import DomainError, LongicausalError, SimulationError
from .glm import first_errors
from .iptw import stabilized_weights_stack
from .panel import PanelDataset

# the largest mean Generator.poisson accepts (numpy's POISSON_LAM_MAX)
_MAX_POISSON_MEAN = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
_SEED_LIMIT = 2**64
FAILURE_BUDGET = 0.01
# pooled treatment-model rows (N*K per replicate) fitted together: a block is
# BLOCK_ROWS // (N*K) consecutive replicates, at least one, so its memory is
# bounded and its boundaries depend only on the configuration
BLOCK_ROWS = 25_000


def _require_finite(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DgpParams:
    """Knobs of the generating process."""

    u_levels: int = 10
    l_logit_u_coef: float = 0.14
    l_logit_a_coef: float = 1.1
    a_threshold: float = 1000.0
    a0_mean: float = 1000.0
    a0_sd: float = 60.0
    a_drift: float = 15.0
    a_l_penalty: float = -55.0
    a_sd: float = 60.0

    def __post_init__(self):
        if not (1 <= self.u_levels <= np.iinfo(np.int64).max):  # U is drawn as int64
            raise DomainError(f"u_levels must be in [1, 2**63 - 1], got {self.u_levels}")
        _require_finite(self)
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
        _require_finite(self)
        if self.n_units < 2:
            raise DomainError("n_units must be >= 2")
        if self.n_periods < 1:
            raise DomainError("n_periods must be >= 1")
        if self.n_replicates < 1:
            raise DomainError("n_replicates must be >= 1")
        if not (0 <= self.master_seed < _SEED_LIMIT):
            raise DomainError("master_seed must fit in 64 bits")


def replicate_seed(master_seed: int, replicate: int) -> int:
    """128-bit Philox key for one replicate: (master_seed, replicate) packed."""
    if not (0 <= replicate < _SEED_LIMIT):
        raise DomainError("replicate index must fit in 64 bits")
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
    rngs = [np.random.Generator(np.random.Philox(key=seed)) for seed in seeds]
    u = np.array([rng.integers(1, g.u_levels + 1, size=n) for rng in rngs], dtype=float)
    z = np.empty((k + 1, len(rngs), n))
    v = np.empty_like(z)
    for j, rng in enumerate(rngs):
        for t in range(k + 1):
            rng.standard_normal(out=z[t, j])
            rng.random(out=v[t, j])

    a = np.empty_like(z)
    l = np.empty_like(z)
    for t in range(k + 1):
        if t == 0:
            loc, scale = g.a0_mean, g.a0_sd
        else:
            loc, scale = a[t - 1] + g.a_l_penalty * l[t - 1] + g.a_drift, g.a_sd
        a[t] = loc + scale * z[t]
        l[t] = v[t] < _expit(g.l_logit_u_coef * u + g.l_logit_a_coef * (a[t] > g.a_threshold))
    a0, l0 = a[0], l[0]
    a, l = (np.ascontiguousarray(x[1:].transpose(1, 2, 0)) for x in (a, l))

    log_mean = config.causal_effect * a.sum(axis=2) + config.confounding * u
    with np.errstate(over="ignore"):  # an overflowing mean fails the check below
        mean = np.exp(log_mean)
    y = np.full_like(mean, np.nan)
    for j in np.flatnonzero((mean <= _MAX_POISSON_MEAN).all(axis=1)):  # NaN fails too
        y[j] = rngs[j].poisson(mean[j])
    return a, l, y, a0, l0, log_mean


def _checked_panel(a, l, y, a0, l0, log_mean) -> PanelDataset:
    """One generated replicate's rows of `_generate_stack` as a panel, after the Poisson mean check."""
    if np.isnan(y).any():
        raise SimulationError(
            f"Poisson mean overflow: exp argument {np.max(log_mean):.1f} > {np.log(_MAX_POISSON_MEAN):.2f}; "
            "review causal_effect/confounding/volume parameters"
        )
    return PanelDataset(a, l, y, A0=a0, L0=l0)


def generate_dataset(config: SimulationConfig, replicate_seed: int) -> PanelDataset:
    """One replicate's panel. Same (config, seed) gives bit-identical output."""
    return _checked_panel(*(x[0] for x in _generate_stack(config, [replicate_seed])))


@dataclass
class EstimatorMonteCarlo:
    """Replicate-level estimates for one estimator, plus their aggregates."""

    estimator: str
    estimates: np.ndarray
    ses: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    avg_point_estimate: float
    avg_se: float
    coverage95: float


@dataclass
class MonteCarloSummary:
    causal_effect: float
    n_replicates: int
    n_failed: int
    failed_replicates: tuple[tuple[int, str], ...]
    replicate_indices: np.ndarray
    estimators: dict[str, EstimatorMonteCarlo]

    def iter_sample_rows(self) -> Iterator[tuple[int, str, float, float, float, float]]:
        """(replicate, estimator, beta1_hat, se, ci_lo, ci_hi) rows for export."""
        for pos, rep in enumerate(self.replicate_indices):
            for name in ESTIMATOR_NAMES:
                e = self.estimators[name]
                yield (
                    int(rep),
                    name,
                    float(e.estimates[pos]),
                    float(e.ses[pos]),
                    float(e.ci_lo[pos]),
                    float(e.ci_hi[pos]),
                )


def _run_block(config: SimulationConfig, replicates: range) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """(beta1, se, audit) for `replicates`: (E, R) columns in ESTIMATOR_NAMES order and R messages.

    The block is generated, weighted and fitted as stacks. A replicate is
    audited with its first error, from generation, the weights, then the
    naive, adjusted and MSM fits, or else with its non-converged fits; its
    columns are NaN. A kept replicate's message is None.
    """
    generated = _generate_stack(config, [replicate_seed(config.master_seed, rep) for rep in replicates])
    a, l, y, a0, l0, _ = generated
    errors: list[LongicausalError | None] = [None] * len(replicates)
    # only an undrawable mean (NaN Y) or a non-finite A can fail the checks of
    # `generate_dataset`: L and Y are 0/1 and counts by construction
    suspect = np.isnan(y).any(axis=1) | ~np.isfinite(a).all(axis=(1, 2)) | ~np.isfinite(a0).all(axis=1)
    for j in np.flatnonzero(suspect):
        try:
            _checked_panel(*(x[j] for x in generated))
        except LongicausalError as exc:
            errors[j] = exc
    live = np.flatnonzero([e is None for e in errors])
    rows = slice(None) if live.size == len(replicates) else live  # a view, not a copy, when all are live
    a, l, y, a0, l0 = a[rows], l[rows], y[rows], a0[rows], l0[rows]
    weights = stabilized_weights_stack(a, l, a0, l0)
    estimates = estimate_stack(a.sum(axis=2), l.sum(axis=2), y, weights.per_unit_weights)
    for stage in (weights.errors, *(e.errors for e in estimates.values())):
        first_errors(errors, live, stage)

    audit = [None if e is None else f"{type(e).__name__}: {e}" for e in errors]
    converged = np.array([e.converged for e in estimates.values()])
    for k in np.flatnonzero(~converged.all(axis=0)):
        failing = ", ".join(name for name, ok in zip(estimates, converged[:, k]) if not ok)
        audit[live[k]] = audit[live[k]] or f"non-convergence: {failing}"
    beta1, se = np.full((2, len(estimates), len(replicates)), np.nan)
    beta1[:, live] = [e.beta1_hat for e in estimates.values()]
    se[:, live] = [e.se for e in estimates.values()]
    failed = np.array([msg is not None for msg in audit])
    beta1[:, failed] = se[:, failed] = np.nan
    return beta1, se, audit


def threads_from_env() -> int:
    """Worker processes from LONGICAUSAL_THREADS (default 1); DomainError unless an integer >= 1."""
    text = os.environ.get("LONGICAUSAL_THREADS", "1")
    if not text.isdecimal() or int(text) < 1:
        raise DomainError(f"LONGICAUSAL_THREADS must be an integer >= 1, got {text!r}")
    return int(text)


def run_monte_carlo(config: SimulationConfig, *, threads: int | None = None) -> MonteCarloSummary:
    """Run M replicates and aggregate per-estimator averages and coverage.

    Replicates that raise a package error (or fail to converge) are excluded
    with an audit trail; more than 1% of them aborts the run. Blocks run on
    `threads` worker processes (default: `threads_from_env`; DomainError
    unless an integer >= 1), at most one per block and per CPU this process
    may use. Aggregation is performed in replicate-index order regardless of
    `threads`.
    """
    if threads is None:
        threads = threads_from_env()
    elif not (isinstance(threads, int) and threads >= 1):
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
        with ProcessPoolExecutor(max_workers=threads) as pool:
            beta1_blocks, se_blocks, audit_blocks = zip(*pool.map(_run_block, [config] * len(blocks), blocks))
    audit = [msg for block in audit_blocks for msg in block]
    failed = tuple((rep, msg) for rep, msg in enumerate(audit) if msg is not None)

    if len(failed) >= FAILURE_BUDGET * m:
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
            estimator=name,
            estimates=est,
            ses=se,
            ci_lo=lo,
            ci_hi=hi,
            avg_point_estimate=float(est.mean()),
            avg_se=float(se.mean()),
            coverage95=float(covered.mean()),
        )

    return MonteCarloSummary(
        causal_effect=config.causal_effect,
        n_replicates=m,
        n_failed=len(failed),
        failed_replicates=failed,
        replicate_indices=np.flatnonzero(kept),
        estimators=summaries,
    )
