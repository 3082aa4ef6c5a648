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

Replicates are fitted in fixed blocks of consecutive indices, about
BLOCK_ROWS pooled treatment-model rows each. Each replicate is generated on
its own stream; then the block's weight models and outcome fits run as
stacks through the GLM kernel. A replicate the stacks cannot carry (an
error, a non-converged fit, a dropped constant column) is re-run on its own
by `_run_replicate`, which gives the same numbers or the same audited error
as before, so results do not depend on the block size either.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .estimators import CI_MULTIPLIER, ESTIMATOR_NAMES, adjusted_poisson, estimate_stack, msm_iptw, naive_poisson
from .exceptions import DomainError, LongicausalError, SimulationError
from .iptw import stabilized_weights, stabilized_weights_stack
from .panel import PanelDataset

_MAX_LOG_MEAN = 700.0
_SEED_LIMIT = 2**64
FAILURE_BUDGET = 0.01
# pooled treatment-model rows (N*K per replicate) fitted together: a block is
# BLOCK_ROWS // (N*K) consecutive replicates, at least one, so its memory is
# bounded and its boundaries depend only on the configuration
BLOCK_ROWS = 25_000


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
        if self.u_levels < 1:
            raise DomainError("u_levels must be >= 1")
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


def generate_dataset(config: SimulationConfig, replicate_seed: int) -> PanelDataset:
    """One replicate's panel. Same (config, seed) gives bit-identical output."""
    g = config.dgp
    n, k = config.n_units, config.n_periods
    rng = np.random.Generator(np.random.Philox(key=replicate_seed))

    u = rng.integers(1, g.u_levels + 1, size=n).astype(float)
    a_prev = rng.normal(g.a0_mean, g.a0_sd, size=n)
    a0 = a_prev
    p_l = _expit(g.l_logit_u_coef * u + g.l_logit_a_coef * (a_prev > g.a_threshold))
    l_prev = (rng.random(n) < p_l).astype(float)
    l0 = l_prev

    a = np.empty((n, k))
    l = np.empty((n, k))
    for t in range(k):
        a_t = rng.normal(a_prev + g.a_l_penalty * l_prev + g.a_drift, g.a_sd)
        p_l = _expit(g.l_logit_u_coef * u + g.l_logit_a_coef * (a_t > g.a_threshold))
        l_t = (rng.random(n) < p_l).astype(float)
        a[:, t] = a_t
        l[:, t] = l_t
        a_prev, l_prev = a_t, l_t

    log_mean = config.causal_effect * a.sum(axis=1) + config.confounding * u
    if np.max(log_mean) > _MAX_LOG_MEAN:
        raise SimulationError(
            f"Poisson mean overflow: exp argument {np.max(log_mean):.1f} > {_MAX_LOG_MEAN:g}; "
            "review causal_effect/confounding/volume parameters"
        )
    y = rng.poisson(np.exp(log_mean))

    return PanelDataset(a, l, y, A0=a0, L0=l0)


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


def _run_replicate(config: SimulationConfig, replicate: int):
    """One replicate: generate, estimate all three ways.

    Returns (replicate, {name: (beta1, se)}) or (replicate, error message).
    """
    seed = replicate_seed(config.master_seed, replicate)
    try:
        data = generate_dataset(config, seed)
        weights = stabilized_weights(data)
        reports = (
            naive_poisson(data),
            adjusted_poisson(data),
            msm_iptw(data, weights=weights),
        )
        if not all(r.converged for r in reports):
            bad = ", ".join(r.estimator for r in reports if not r.converged)
            return replicate, f"non-convergence: {bad}"
        return replicate, {r.estimator: (r.beta1_hat, r.se) for r in reports}
    except LongicausalError as exc:
        return replicate, f"{type(exc).__name__}: {exc}"


def _run_block(config: SimulationConfig, replicates: range) -> list[tuple[int, dict | str]]:
    """`_run_replicate` of each replicate in `replicates`, with the fits done as stacks."""
    generated = []
    for rep in replicates:
        try:
            generated.append((rep, generate_dataset(config, replicate_seed(config.master_seed, rep))))
        except LongicausalError:
            pass  # re-run below, which reports the error
    payloads: dict[int, dict] = {}
    if generated:
        reps, datasets = zip(*generated)

        def stack(accessor):
            return np.stack([accessor(d) for d in datasets])

        weights, ok = stabilized_weights_stack(
            stack(PanelDataset.treatment_matrix),
            stack(PanelDataset.confounder_matrix),
            stack(PanelDataset.baseline_treatment_vector),
            stack(PanelDataset.baseline_confounder_vector),
        )
        estimates, fitted = estimate_stack(
            stack(PanelDataset.cum_treatment_vector),
            stack(PanelDataset.cum_confounder_vector),
            stack(PanelDataset.outcome_vector),
            weights,
        )
        for j in np.flatnonzero(ok & fitted):
            payloads[reps[j]] = {name: (float(b[j]), float(se[j])) for name, (b, se) in estimates.items()}
    return [(rep, payloads[rep]) if rep in payloads else _run_replicate(config, rep) for rep in replicates]


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        threads = int(os.environ.get("LONGICAUSAL_THREADS", "1"))
    return max(1, threads)


def run_monte_carlo(config: SimulationConfig, *, threads: int | None = None) -> MonteCarloSummary:
    """Run M replicates and aggregate per-estimator averages and coverage.

    Replicates that raise a package error (or fail to converge) are excluded
    with an audit trail; more than 1% of them aborts the run. Aggregation is
    performed in replicate-index order regardless of `threads`.
    """
    m = config.n_replicates
    size = max(1, BLOCK_ROWS // (config.n_units * config.n_periods))
    blocks = [range(i, min(i + size, m)) for i in range(0, m, size)]
    threads = min(_resolve_threads(threads), len(blocks))

    if threads == 1:
        results = [r for block in blocks for r in _run_block(config, block)]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = [r for out in pool.map(_run_block, [config] * len(blocks), blocks) for r in out]

    failed: list[tuple[int, str]] = []
    kept: list[tuple[int, dict]] = []
    for rep, payload in results:
        if isinstance(payload, dict):
            kept.append((rep, payload))
        else:
            failed.append((rep, payload))

    if len(failed) >= FAILURE_BUDGET * m:
        preview = "; ".join(f"replicate {r}: {msg}" for r, msg in failed[:5])
        raise SimulationError(
            f"{len(failed)} of {m} replicates failed (budget {FAILURE_BUDGET:.0%}): {preview}"
        )

    reps = np.array([r for r, _ in kept], dtype=int)
    summaries: dict[str, EstimatorMonteCarlo] = {}
    for name in ESTIMATOR_NAMES:
        est = np.array([payload[name][0] for _, payload in kept])
        se = np.array([payload[name][1] for _, payload in kept])
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
        failed_replicates=tuple(failed),
        replicate_indices=reps,
        estimators=summaries,
    )


def with_overrides(config: SimulationConfig, **kwargs) -> SimulationConfig:
    """Convenience: replace top-level or dgp fields by keyword."""
    dgp_fields = {f for f in DgpParams.__dataclass_fields__}
    dgp_kwargs = {k: v for k, v in kwargs.items() if k in dgp_fields}
    top_kwargs = {k: v for k, v in kwargs.items() if k not in dgp_fields}
    if dgp_kwargs:
        top_kwargs["dgp"] = replace(config.dgp, **dgp_kwargs)
    return replace(config, **top_kwargs)
