"""Data generation determinism, Monte Carlo harness, seeding scheme."""

import csv
import hashlib
import math
import os
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import longicausal.estimators as est
import longicausal.glm as glm
import longicausal.simulate as sim
from longicausal.cli import _threads_from_env, main
from longicausal.estimators import estimate
from longicausal.exceptions import DomainError, LongicausalError, SimulationError
from longicausal.glm import fit_poisson_stack
from longicausal.iptw import stabilized_weights, stabilized_weights_stack
from longicausal.simulate import (
    DgpParams,
    SimulationConfig,
    generate_dataset,
    replicate_seed,
    run_monte_carlo,
)


def _past_validation(config, **changes):
    """`config` with `changes` set without `__post_init__`, to reach the checks behind it."""
    for name, value in changes.items():
        object.__setattr__(config, name, value)
    return config


class TestGenerateDataset:
    def test_bit_identical_for_same_seed(self):
        cfg = SimulationConfig(master_seed=11)
        seed = replicate_seed(11, 4)
        a = generate_dataset(cfg, seed)
        b = generate_dataset(cfg, seed)
        assert a == b  # tuple-for-tuple float equality

    def test_different_replicates_differ(self):
        cfg = SimulationConfig(master_seed=11)
        a = generate_dataset(cfg, replicate_seed(11, 0))
        b = generate_dataset(cfg, replicate_seed(11, 1))
        assert a != b

    def test_different_master_seeds_differ(self):
        cfg = SimulationConfig(master_seed=11)
        a = generate_dataset(cfg, replicate_seed(11, 0))
        b = generate_dataset(cfg, replicate_seed(12, 0))
        assert a != b

    def test_structure(self):
        cfg = SimulationConfig(n_units=23, n_periods=5, master_seed=3)
        data = generate_dataset(cfg, replicate_seed(3, 0))
        assert data.n_units == 23
        assert data.n_periods == 5
        assert data.A0 is not None
        assert data.A.shape == (23, 5)
        assert np.isin(data.L, (0, 1)).all()
        y = data.Y
        assert y.shape == (23,) and np.all(y >= 0) and np.array_equal(y, np.round(y))
        assert np.isin(data.L0, (0, 1)).all()

    def test_poisson_mean_overflow_rejected(self):
        cfg = SimulationConfig(causal_effect=1.0, master_seed=1)
        with pytest.raises(SimulationError, match="overflow"):
            generate_dataset(cfg, replicate_seed(1, 0))

    @pytest.mark.parametrize(
        "cfg",
        [
            # exp arguments of about 450: finite means that Generator.poisson rejects
            SimulationConfig(causal_effect=0.05, master_seed=1),
            # the config rejects a NaN parameter up front; a NaN mean can still
            # come from an overflowing treatment path, and the generator's own
            # check has to reject it as well
            _past_validation(SimulationConfig(master_seed=1), confounding=math.nan),
        ],
        ids=["above-numpy-limit", "nan"],
    )
    def test_mean_numpy_cannot_draw_rejected(self, cfg):
        with pytest.raises(SimulationError, match="Poisson mean overflow"):
            generate_dataset(cfg, replicate_seed(1, 0))

    @pytest.mark.parametrize(
        "cfg, seed, digest",
        [
            (SimulationConfig(master_seed=0), replicate_seed(0, 0),
             "b4e07ab3854ed69f4876c029e234030e61d5f43cefaed215d260a9699846bf4b"),
            (SimulationConfig(n_units=600, n_periods=3, master_seed=7), replicate_seed(7, 5),
             "e7b6a6daf4db1300fc2d7c12007df7fcddfcb2b570c14f872827ed7ae4898676"),
            (SimulationConfig(n_units=7, n_periods=1, master_seed=3, dgp=DgpParams(u_levels=1, a_sd=1e-3)),
             replicate_seed(3, 123), "861e2b20213bcc2af7f6d9ba70275834c4fbfa97d4146573ec83e0d12e30b19c"),
        ],
        ids=["n50-k8", "n600-k3", "n7-k1"],
    )
    def test_pinned_output(self, cfg, seed, digest):
        # SHA-256 of A, L, Y, A0, L0 as float64 bytes, as generated before the
        # generator was stacked; a changed stream or operation order moves it
        data = generate_dataset(cfg, seed)
        h = hashlib.sha256()
        for arr in (data.A, data.L, data.Y, data.A0, data.L0):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n_units, n_periods", [(50, 8), (600, 3)])
    @pytest.mark.parametrize("r", [1, 7, 62])
    def test_stack_rows_equal_generate_dataset(self, n_units, n_periods, r):
        cfg = SimulationConfig(n_units=n_units, n_periods=n_periods, master_seed=13)
        seeds = [replicate_seed(13, 3 * j + 1) for j in range(r)]
        a, l, y, a0, l0, log_mean = sim._generate_stack(cfg, seeds)
        assert a.shape == l.shape == (r, n_units, n_periods)
        assert all(x.shape == (r, n_units) for x in (y, a0, l0, log_mean))
        for j, seed in enumerate(seeds):
            data = generate_dataset(cfg, seed)
            want = (data.A, data.L, data.Y, data.A0, data.L0)
            for got, expected in zip((a[j], l[j], y[j], a0[j], l0[j]), want, strict=True):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "cfg, seed, digest",
        [
            (SimulationConfig(), replicate_seed(2**64 - 1, 2**64 - 1),
             "f611091796d7f40336ad4b63881150f046775efe30c79bba4cabf2f8b7f87f84"),
            (SimulationConfig(n_units=600, n_periods=3), replicate_seed(1, 0),
             "fac45f1d45e09520d5e2ed454377233cf23318eaa663cb12ccd3a6a8f4b95e41"),
        ],
        ids=["both-words-max", "high-word-only"],
    )
    def test_pinned_output_of_the_key_words(self, cfg, seed, digest):
        # recorded with one Philox(key=seed) per replicate: the re-keyed bit
        # generator must take the low 64 bits as its first key word, and all
        # 64 bits of each word as unsigned
        data = generate_dataset(cfg, seed)
        h = hashlib.sha256()
        for arr in (data.A, data.L, data.Y, data.A0, data.L0):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        assert h.hexdigest() == digest

    def test_unsorted_repeated_seeds_equal_generate_dataset(self):
        # each replicate's Poisson draw resumes its own saved stream state,
        # whatever was drawn in between
        cfg = SimulationConfig(n_units=30, n_periods=4, master_seed=13)
        seeds = [replicate_seed(13, r) for r in (9, 2, 9, 2**64 - 1, 0, 2)]
        a, l, y, a0, l0, _ = sim._generate_stack(cfg, seeds)
        for j, seed in enumerate(seeds):
            data = generate_dataset(cfg, seed)
            want = (data.A, data.L, data.Y, data.A0, data.L0)
            for got, expected in zip((a[j], l[j], y[j], a0[j], l0[j]), want, strict=True):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dgp", [DgpParams(a0_mean=-1e308), DgpParams(a_drift=-1e306)],
                             ids=["a0-mean", "a-drift"])
    def test_overflowing_spread_of_a_named(self, dgp):
        # A is finite, but its standard deviation is inf: the treatment flags are named, not a zero variance
        cfg = SimulationConfig(n_units=50, n_periods=8, n_replicates=3, master_seed=4, dgp=dgp)
        message = ("treatment recursion overflow: the spread of A is not finite; "
                   "review a0_mean/a0_sd/a_drift/a_l_penalty/a_sd parameters")
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            generate_dataset(cfg, replicate_seed(4, 0))
        with pytest.raises(SimulationError, match=re.escape(f"replicate 0: SimulationError: {message};")):
            run_monte_carlo(cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(n_units=1)
        with pytest.raises(DomainError):
            SimulationConfig(n_replicates=0)
        with pytest.raises(DomainError, match="^n_periods must be >= 1$"):
            SimulationConfig(n_periods=0)
        with pytest.raises(DomainError):
            SimulationConfig(master_seed=-1)
        with pytest.raises(DomainError):
            DgpParams(a_sd=0.0)
        # U is drawn as int64: 2**63 - 1 draws (the replicate then overflows its Poisson mean), 2**63 cannot
        with pytest.raises(SimulationError, match="^Poisson mean overflow"):
            generate_dataset(SimulationConfig(n_units=2, n_periods=1, dgp=DgpParams(u_levels=2**63 - 1)), 0)
        with pytest.raises(DomainError, match=r"^u_levels must be in \[1, 2\*\*63 - 1\], got 9223372036854775808$"):
            DgpParams(u_levels=2**63)
        # non-finite parameters are named instead of failing every replicate downstream
        with pytest.raises(DomainError, match="^confounding must be finite, got nan$"):
            SimulationConfig(confounding=math.nan)
        with pytest.raises(DomainError, match="^causal_effect must be finite, got inf$"):
            SimulationConfig(causal_effect=math.inf)
        with pytest.raises(DomainError, match="^a_drift must be finite, got -inf$"):
            DgpParams(a_drift=-math.inf)
        # a field of the wrong type is named too; ints and numpy floats are real numbers
        with pytest.raises(DomainError, match="^causal_effect must be a real number, got '0.1'$"):
            SimulationConfig(causal_effect="0.1")
        with pytest.raises(DomainError, match="^a_sd must be a real number, got '1'$"):
            DgpParams(a_sd="1")
        with pytest.raises(DomainError, match=r"^dgp must be a DgpParams, got \{'u_levels': 3\}$"):
            SimulationConfig(dgp={"u_levels": 3})
        assert SimulationConfig(causal_effect=1, dgp=DgpParams(a_sd=np.float64(2.0))).dgp.a_sd == 2.0
        # integer fields and seeds that are not integers, or seeds out of range, are named too
        bad_integers = [
            (lambda: SimulationConfig(n_units=50.5), "n_units must be an integer, got 50.5"),
            (lambda: SimulationConfig(n_periods=2.5), "n_periods must be an integer, got 2.5"),
            (lambda: SimulationConfig(n_replicates=2.5), "n_replicates must be an integer, got 2.5"),
            (lambda: SimulationConfig(master_seed=1.5), "master_seed must be an integer, got 1.5"),
            # a numpy seed wraps in `master_seed << 64`: every master seed would draw replicate r's stream from key r
            (lambda: SimulationConfig(master_seed=np.int64(3)), "master_seed must be an integer, got np.int64(3)"),
            (lambda: DgpParams(u_levels=2.5), "u_levels must be an integer, got 2.5"),
            (lambda: replicate_seed(0, 1.5), "replicate must be an integer in [0, 2**64), got 1.5"),
            (lambda: replicate_seed(-1, 0), "master_seed must be an integer in [0, 2**64), got -1"),
            *((lambda key=key: generate_dataset(SimulationConfig(), key),
               f"replicate_seed must be an integer in [0, 2**128), got {key}") for key in (-5, 2**200, 1.5, True)),
            # bools are ints and real numbers to Python, but never a count, a seed or a parameter
            (lambda: SimulationConfig(n_replicates=True), "n_replicates must be an integer, got True"),
            (lambda: SimulationConfig(master_seed=False), "master_seed must be an integer, got False"),
            (lambda: DgpParams(u_levels=True), "u_levels must be an integer, got True"),
            (lambda: DgpParams(a_sd=True), "a_sd must be a real number, got True"),
            (lambda: replicate_seed(True, 0), "master_seed must be an integer in [0, 2**64), got True"),
            (lambda: replicate_seed(0, False), "replicate must be an integer in [0, 2**64), got False"),
        ]
        for make, message in bad_integers:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                make()

    def test_replicate_seed_packs_pair(self):
        assert replicate_seed(3, 5) == (3 << 64) | 5
        assert replicate_seed(0, 0) == 0
        with pytest.raises(DomainError):
            replicate_seed(0, -1)


def sample_rows(tmp_path, *args) -> list[list[str]]:
    """The estimate_samples.csv records of `simulate *args`, without the header."""
    assert main(["simulate", *args, "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "estimate_samples.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["replicate", "estimator", "beta1_hat", "se", "ci_lo", "ci_hi"]
    return rows


class TestMonteCarlo:
    def test_summary_structure(self, tmp_path):
        cfg = SimulationConfig(n_replicates=10, master_seed=21)
        s = run_monte_carlo(cfg)
        assert list(s.estimators) == ["naive", "adjusted", "msm"]
        assert s.n_failed == 0
        for est in s.estimators.values():
            assert est.estimates.shape == (10,)
            assert 0.0 <= est.coverage95 <= 1.0
            np.testing.assert_allclose(est.ci_hi - est.ci_lo, 2 * 1.959964 * est.ses)
        rows = sample_rows(tmp_path, "--m", "10", "--seed", "21")
        assert len(rows) == 30
        assert rows[0][0] == "0" and rows[0][1] == "naive"

    def test_single_replicate_coverage_is_binary(self):
        cfg = SimulationConfig(n_replicates=1, master_seed=5)
        s = run_monte_carlo(cfg)
        for est in s.estimators.values():
            assert est.coverage95 in (0.0, 1.0)

    def test_parallelism_does_not_change_results(self):
        cfg = SimulationConfig(n_replicates=12, master_seed=9)
        serial = run_monte_carlo(cfg, threads=1)
        parallel = run_monte_carlo(cfg, threads=2)
        for name in serial.estimators:
            np.testing.assert_array_equal(
                serial.estimators[name].estimates, parallel.estimators[name].estimates
            )
            np.testing.assert_array_equal(serial.estimators[name].ses, parallel.estimators[name].ses)

    def test_too_few_units_for_the_adjusted_fit_are_audited(self):
        # with N = 2 the three-column adjusted design cannot be fitted: a
        # replicate whose cumL is constant reports the naive fit as adjusted,
        # and fails on its MSM sandwich (n = p = 2) instead
        cfg = SimulationConfig(n_units=2, n_replicates=20)
        with pytest.raises(SimulationError, match=r"^20 of 20 replicates failed \(budget 1%\): replicate 0: "
                           r"DomainError: need at least as many observations as parameters \(n=2, p=3\);"):
            run_monte_carlo(cfg)

    def test_failure_budget_aborts(self):
        cfg = SimulationConfig(causal_effect=1.0, n_replicates=5, master_seed=2)
        with pytest.raises(SimulationError, match="failed"):
            run_monte_carlo(cfg)

    def test_rare_failures_excluded_with_audit_trail(self, monkeypatch, tmp_path):
        edit_generated(monkeypatch, {3: non_finite_a})
        cfg = SimulationConfig(n_replicates=200, master_seed=77)
        s = sim.run_monte_carlo(cfg)  # 1/200 = 0.5% stays under the 1% budget
        assert s.n_failed == 1
        assert s.failed_replicates[0] == (3, "PanelError: treatments must be finite, got inf")
        assert 3 not in s.replicate_indices
        for est in s.estimators.values():
            assert est.estimates.shape == (199,)
        assert all(rep != "3" for rep, *_ in sample_rows(tmp_path, "--m", "200", "--seed", "77"))

    def test_failures_at_exactly_the_budget_are_kept(self, monkeypatch):
        edit_generated(monkeypatch, {3: non_finite_a})
        s = sim.run_monte_carlo(SimulationConfig(n_replicates=100, master_seed=77))  # 1/100 = 1% is allowed
        assert s.n_failed == 1
        assert s.failed_replicates == ((3, "PanelError: treatments must be finite, got inf"),)

    def test_failures_over_the_budget_abort(self, monkeypatch):
        edit_generated(monkeypatch, {3: non_finite_a, 40: non_finite_a})
        with pytest.raises(SimulationError, match=r"^2 of 100 replicates failed \(budget 1%\): replicate 3: "):
            sim.run_monte_carlo(SimulationConfig(n_replicates=100, master_seed=77))

    def test_monotone_confounding_bias(self):
        # |avg naive bias| should weakly increase with the confounding strength
        biases = []
        for conf in (0.0, 0.05, 0.1):
            cfg = SimulationConfig(confounding=conf, n_replicates=500, master_seed=314)
            s = run_monte_carlo(cfg)
            biases.append(abs(s.estimators["naive"].avg_point_estimate - cfg.causal_effect))
        assert biases[0] <= biases[1] + 1e-6
        assert biases[1] <= biases[2] + 1e-6
        assert biases[2] > biases[0]

    def test_msm_unbiased_at_defaults(self):
        cfg = SimulationConfig(n_replicates=300, master_seed=159)
        s = run_monte_carlo(cfg)
        msm = s.estimators["msm"]
        mc_se = msm.estimates.std() / np.sqrt(len(msm.estimates))
        assert abs(msm.avg_point_estimate - cfg.causal_effect) < 3 * mc_se


def summary_arrays(s):
    """Everything a summary reports per replicate, for exact comparison."""
    arrays = [s.replicate_indices]
    for e in s.estimators.values():
        arrays += [e.estimates, e.ses, e.ci_lo, e.ci_hi]
    return arrays


def summary_digest(s):
    """SHA-256 of a summary's replicate indices, beta1/SE arrays and audit trail."""
    h = hashlib.sha256(s.replicate_indices.astype(np.int64).tobytes())
    for e in s.estimators.values():
        h.update(e.estimates.tobytes())
        h.update(e.ses.tobytes())
    h.update(repr(s.failed_replicates).encode())
    return h.hexdigest()


def run_replicate(config, replicate):
    """The reference composition of one replicate through the per-dataset API.

    generate_dataset, stabilized_weights, then the three estimators; the first
    error wins, then non-convergence. Returns (replicate, {name: (beta1, se)})
    or (replicate, audit message), as the block engine must.
    """
    try:
        data = generate_dataset(config, replicate_seed(config.master_seed, replicate))
        reports = estimate(data, stabilized_weights(data).per_unit_weights)
    except LongicausalError as exc:
        return replicate, f"{type(exc).__name__}: {exc}"
    if not all(r.converged for r in reports):
        return replicate, "non-convergence: " + ", ".join(r.estimator for r in reports if not r.converged)
    return replicate, {r.estimator: (r.beta1_hat, r.se) for r in reports}


def assert_matches_reference(config, results):
    """`results` (replicate, payload or message) pairs equal the reference composition's, bit for bit."""
    for rep, payload in results:
        assert (rep, payload) == run_replicate(config, rep)


def block_results(config):
    """`_run_block` over `config`'s replicates as `run_replicate`'s (replicate, payload or message) pairs."""
    beta1, se, audit = sim._run_block(config, range(config.n_replicates))
    return [
        (rep, msg or {name: (beta1[i, rep], se[i, rep]) for i, name in enumerate(est.ESTIMATOR_NAMES)})
        for rep, msg in enumerate(audit)
    ]


GENERATE = sim._generate_stack  # the generator itself, whatever a test patches in


class Row(NamedTuple):
    """One replicate's rows of a generated block (views), with its config and seed."""

    config: SimulationConfig
    seed: int
    a: np.ndarray
    l: np.ndarray
    y: np.ndarray
    a0: np.ndarray
    l0: np.ndarray
    log_mean: np.ndarray


def edit_generated(monkeypatch, edits):
    """Patch `_generate_stack` so that `edits[replicate](row)` changes that replicate's rows in place."""

    def patched(config, seeds):
        arrays = GENERATE(config, seeds)
        for j, seed in enumerate(seeds):
            edit = edits.get(seed - (config.master_seed << 64))
            if edit is not None:
                edit(Row(config, seed, *(x[j] for x in arrays)))
        return arrays

    monkeypatch.setattr(sim, "_generate_stack", patched)


def overflowing(r):
    # the replicate as drawn with causal_effect 1.0, whose Poisson means overflow
    for dst, src in zip(r[2:], GENERATE(replace(r.config, causal_effect=1.0), [r.seed])):
        dst[...] = src[0]


def non_finite_a(r):
    r.a[3, 2] = np.inf


def naive_rank(r):
    # the same cumulative volume for every unit: [1, cumA] is rank deficient
    r.a[:, -1] = 1000.0 * r.a.shape[1] - r.a[:, :-1].sum(axis=1)


def no_confounder(r):
    # the weight models drop L(t-1) and the adjusted fit drops cumL
    r.l[:] = 0.0
    r.l0[:] = 0.0


def constant_cum_l(r):
    # one L = 1 per unit, in different periods: cumL is dropped, L(t-1) is not
    n, k = r.l.shape
    r.l[:] = 0.0
    r.l[np.arange(n), np.arange(n) % k] = 1.0


def follow(r, penalty, noise):
    """A(t) = A(t-1) + penalty*L(t-1) + 15 + noise(t) for every unit."""
    prev_a, prev_l = r.a0, r.l0
    for t in range(r.a.shape[1]):
        r.a[:, t] = prev_a + penalty * prev_l + 15.0 + noise[:, t]
        prev_a, prev_l = r.a[:, t], r.l[:, t]


def inflated_weight(r):
    # the denominator model fits every unit but unit 0 almost exactly; unit 0
    # ignores L(t-1) = 1, so its density ratio overflows
    r.l0[0] = 1.0
    r.l[0] = 1.0
    follow(r, -55.0, 1e-3 * np.sin(np.arange(r.a.size)).reshape(r.a.shape))
    r.a[0] = r.a0[0] + 15.0 * np.arange(1, r.a.shape[1] + 1)


def numerator_rank(r):
    # A(t-1) varies by a few ulps only: [1, A(t-1)] is rank deficient
    r.a0[:] = 1000.0 + 1e-10 * (np.arange(len(r.a0)) % 2)
    r.a[:, :-1] = r.a0[:, None]


def denominator_rank(r):
    # A(t-1) = 1000 + 100 L(t-1): [1, A(t-1), L(t-1)] is rank deficient
    r.a0[:] = 1000.0 + 100.0 * r.l0
    r.a[:, :-1] = 1000.0 + 100.0 * r.l[:, :-1]


def numerator_exact(r):
    follow(r, 0.0, np.zeros(r.a.shape))


def denominator_exact(r):
    follow(r, -55.0, np.zeros(r.a.shape))


def vanishing_weights(r):
    # over 50 periods the almost exact denominator model drives every weight to 0.0
    follow(r, -55.0, 1e-6 * np.sin(np.arange(r.a.size)).reshape(r.a.shape))


def one_iteration(monkeypatch):
    monkeypatch.setattr(glm, "_MAX_ITER", 1)


def without_model_cov(monkeypatch):
    def fit(*args, **kwargs):
        result = fit_poisson_stack(*args, **kwargs)
        return result._replace(model_cov=np.full_like(result.model_cov, np.nan))

    monkeypatch.setattr(est, "fit_poisson_stack", fit)


RANK_DEFICIENT = "SingularDesignError: design matrix is rank deficient (singular value ratio below 1e-12)"
# replicate: (edit, audit message or None when the replicate is kept), for
# N=600, K=3, seed 8; the messages were recorded before the per-dataset
# functions became the one-replicate calls of the stacks
MIXED_BLOCK = {
    1: (overflowing, "SimulationError: Poisson mean overflow: exp argument 3883.0 > 43.67; "
                     "review causal_effect/confounding/volume parameters"),
    2: (non_finite_a, "PanelError: treatments must be finite, got inf"),
    3: (naive_rank, RANK_DEFICIENT),
    4: (no_confounder, None),
    5: (constant_cum_l, None),
    6: (inflated_weight, "WeightError: non-finite stabilized weight for unit 0"),
    7: (numerator_rank, RANK_DEFICIENT),
    8: (denominator_rank, RANK_DEFICIENT),
    9: (numerator_exact, "DegenerateVarianceError: numerator treatment model has (numerically) zero residual "
                         "variance; density ratio is undefined"),
    10: (denominator_exact, "DegenerateVarianceError: denominator treatment model has (numerically) zero residual "
                            "variance; density ratio is undefined"),
}
FEW_ROWS = "DomainError: not enough pooled observations (4) for the treatment models"
TOO_FEW_UNITS = "DomainError: need at least as many observations as parameters (n=2, p=3)"
SATURATED_MSM = "DomainError: robust covariance requires n > p"  # N = 2 with a constant cumL


class TestBlockEngine:
    """Stacked fits of replicate blocks against the reference composition and the pins."""

    @pytest.mark.parametrize(
        "n_units, n_replicates, digest",
        [
            (50, 100, "b40a8ce727e8879241085f94924f220564926a5c3b93a44ecc5c93770af7b009"),
            (600, 10, "2f939d07485f384c37ccbc1d214a8eaf4fbf9cf569716e7d95ff4e7fd22b2059"),
        ],
        ids=["50-100", "600-10"],
    )
    def test_bit_equal_to_single_replicate_path(self, n_units, n_replicates, digest):
        cfg = SimulationConfig(n_units=n_units, n_replicates=n_replicates, master_seed=41)
        s = sim.run_monte_carlo(cfg)
        # recorded before the per-dataset functions became the stacks' one-replicate calls
        assert summary_digest(s) == digest
        assert s.n_failed == 0
        for pos, rep in enumerate(s.replicate_indices):
            _, single = run_replicate(cfg, int(rep))
            for name, (beta1, se) in single.items():
                assert s.estimators[name].estimates[pos] == beta1
                assert s.estimators[name].ses[pos] == se

    @pytest.mark.parametrize(
        "block, threads",
        [(None, 1), (8, 1), (8, 2), (32, 1)],
        ids=["default-block", "block-8", "block-8-threads-2", "block-32"],
    )
    def test_identical_at_any_block_size_and_thread_count(self, monkeypatch, block, threads):
        cfg = SimulationConfig(n_units=50, n_periods=8, n_replicates=70, master_seed=5)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 1)  # one replicate per block
        reference = summary_arrays(sim.run_monte_carlo(cfg))
        monkeypatch.undo()
        if block is not None:
            monkeypatch.setattr(sim, "BLOCK_ROWS", block * cfg.n_units * cfg.n_periods)
        s = sim.run_monte_carlo(cfg, threads=threads)
        for got, want in zip(summary_arrays(s), reference, strict=True):
            assert got.tobytes() == want.tobytes()

    def test_failed_replicate_in_a_block_is_audited_alone(self, monkeypatch):
        # replicate 5 gets a cumulative volume that is the same for every unit,
        # so the naive design [1, cumA] is rank deficient; its lags still vary
        cfg = SimulationConfig(n_units=20, n_replicates=120, master_seed=8)
        healthy = sim.run_monte_carlo(cfg)
        edit_generated(monkeypatch, {5: naive_rank})
        expected = run_replicate(cfg, 5)
        assert expected == (5, RANK_DEFICIENT)
        s = sim.run_monte_carlo(cfg)  # one block of 120 replicates
        assert s.failed_replicates == (expected,)
        keep = healthy.replicate_indices != 5
        assert np.array_equal(s.replicate_indices, healthy.replicate_indices[keep])
        for name, e in s.estimators.items():
            assert e.estimates.tobytes() == healthy.estimators[name].estimates[keep].tobytes()
            assert e.ses.tobytes() == healthy.estimators[name].ses[keep].tobytes()

    def test_non_finite_replicate_in_a_block_is_audited_alone(self, monkeypatch):
        cfg = SimulationConfig(n_units=20, n_replicates=120, master_seed=8)
        edit_generated(monkeypatch, {4: non_finite_a})
        s = sim.run_monte_carlo(cfg)
        assert s.failed_replicates == ((4, "PanelError: treatments must be finite, got inf"),)
        assert s.failed_replicates == (run_replicate(cfg, 4),)

    def test_replicate_with_dropped_columns_matches_the_reference(self, monkeypatch):
        # replicate 2 never has L = 1: its weight models drop their constant L
        # columns in a sub-stack of their own, and its adjusted fit is its naive fit
        cfg = SimulationConfig(n_units=20, n_replicates=30, master_seed=8)
        edit_generated(monkeypatch, {2: no_confounder})
        _, single = run_replicate(cfg, 2)
        s = sim.run_monte_carlo(cfg)
        assert s.n_failed == 0
        pos = list(s.replicate_indices).index(2)
        for name, (beta1, se) in single.items():
            assert (s.estimators[name].estimates[pos], s.estimators[name].ses[pos]) == (beta1, se)

    @pytest.mark.parametrize(
        "block, threads",
        [(1, 1), (8, 1), (None, 1), (8, 2)],
        ids=["block-1", "block-8", "default-block", "block-8-threads-2"],
    )
    def test_every_failure_kind_in_one_block(self, monkeypatch, block, threads):
        cfg = SimulationConfig(n_units=600, n_periods=3, n_replicates=13, master_seed=8)
        assert sim.BLOCK_ROWS // (cfg.n_units * cfg.n_periods) >= cfg.n_replicates  # all 13 in one default block
        edit_generated(monkeypatch, {rep: edit for rep, (edit, _) in MIXED_BLOCK.items()})
        monkeypatch.setattr(sim, "FAILURE_BUDGET", 1.0)  # 8 of the 13 replicates fail by design
        if block is not None:
            monkeypatch.setattr(sim, "BLOCK_ROWS", block * cfg.n_units * cfg.n_periods)
        s = sim.run_monte_carlo(cfg, threads=threads)
        assert s.failed_replicates == tuple((rep, msg) for rep, (_, msg) in MIXED_BLOCK.items() if msg)
        # recorded before the per-dataset functions became the stacks' one-replicate calls
        assert summary_digest(s) == "924f89b5bea5a8351dcc1bb5f706b234f340fdfe9bf5af4246b7247ac7e281ef"
        assert list(s.replicate_indices) == [0, 4, 5, 11, 12]
        results = [*s.failed_replicates]
        for pos, rep in enumerate(s.replicate_indices):
            results.append((int(rep), {name: (e.estimates[pos], e.ses[pos]) for name, e in s.estimators.items()}))
        assert_matches_reference(cfg, results)

    @pytest.mark.parametrize(
        "cfg, edits, messages",
        [
            (SimulationConfig(n_units=2, n_periods=2, n_replicates=8), {},
             [FEW_ROWS] * 3 + [TOO_FEW_UNITS] + [FEW_ROWS] * 2 + [SATURATED_MSM, FEW_ROWS]),
            (SimulationConfig(n_units=2, n_replicates=4), {},
             [TOO_FEW_UNITS, SATURATED_MSM, TOO_FEW_UNITS, TOO_FEW_UNITS]),
            (SimulationConfig(causal_effect=1e-4, n_units=50, n_periods=50, n_replicates=3, master_seed=8),
             {1: vanishing_weights}, [None, "DomainError: at least one weight must be positive", None]),
        ],
        ids=["too-few-pooled-rows", "too-few-units", "msm-fit"],
    )
    def test_audit_messages(self, monkeypatch, cfg, edits, messages):
        # messages recorded before the per-dataset functions became the stacks' one-replicate calls
        edit_generated(monkeypatch, edits)
        results = block_results(cfg)
        assert [None if isinstance(out, dict) else out for _, out in results] == messages
        assert_matches_reference(cfg, results)
        beta1, se, _ = sim._run_block(cfg, range(cfg.n_replicates))
        audited = np.array([msg is not None for msg in messages])
        for columns in (beta1, se):
            assert columns.shape == (3, cfg.n_replicates)
            assert np.array_equal(np.isnan(columns), np.broadcast_to(audited, columns.shape))

    @pytest.mark.parametrize(
        "changes",
        [{"dgp": DgpParams(a_sd=1e308)}, {"causal_effect": 1.0}, {"dgp": DgpParams(a_drift=-1e308)},
         {"dgp": DgpParams(a0_mean=-1e306)}, {"dgp": DgpParams(a_drift=-1e306)}],
        ids=["recursion-overflow", "mean-overflow", "non-finite-a", "a0-spread-overflow", "drift-spread-overflow"],
    )
    def test_every_generation_failure_fails_a_later_stage(self, changes):
        # `_run_block` checks generation only on the replicates that a stage failed
        cfg = SimulationConfig(n_replicates=3, **changes)
        generated = sim._generate_stack(cfg, [replicate_seed(cfg.master_seed, rep) for rep in range(3)])
        a, l, y, a0, l0, _ = generated
        weights = stabilized_weights_stack(a, l, a0, l0, range(cfg.n_units))
        with np.errstate(over="ignore", invalid="ignore"):
            cum_a = a.sum(axis=2)
        stages = (weights.errors, *(e.errors for e in est.estimate_stack(cum_a, l.sum(axis=2), y,
                                                                          weights.per_unit_weights).values()))
        for j in range(cfg.n_replicates):
            with pytest.raises(LongicausalError):
                sim._checked_panel(*(x[j] for x in generated))
            assert any(stage[j] is not None for stage in stages)

    @pytest.mark.parametrize(
        "patched, message",
        [
            (one_iteration, "non-convergence: naive, adjusted, msm"),
            (without_model_cov, "DomainError: standard error must be positive and finite, got np.float64(nan)"),
        ],
        ids=["non-convergence", "wald-test"],
    )
    def test_estimator_failures_are_audited(self, monkeypatch, patched, message):
        # the fits are patched for the block engine and the reference alike
        cfg = SimulationConfig(n_replicates=3, master_seed=8)
        patched(monkeypatch)
        results = block_results(cfg)
        assert [out for _, out in results] == [message] * cfg.n_replicates
        assert_matches_reference(cfg, results)


class TestThreads:
    def test_workers_capped_at_blocks_and_usable_cpus(self, monkeypatch, recording_pool):
        cfg = SimulationConfig(n_units=50, n_periods=8, n_replicates=6, master_seed=3)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 1)  # six blocks
        serial = summary_arrays(sim.run_monte_carlo(cfg, threads=1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for got, want in zip(summary_arrays(sim.run_monte_carlo(cfg, threads=64)), serial, strict=True):
            assert got.tobytes() == want.tobytes()
        sim.run_monte_carlo(cfg, threads=5)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sim.run_monte_carlo(cfg, threads=64)
        monkeypatch.setattr(sim, "BLOCK_ROWS", 3 * cfg.n_units * cfg.n_periods)  # two blocks
        sim.run_monte_carlo(cfg, threads=64)
        assert recording_pool == [3, 3, 4, 2]

    def test_environment_is_not_read(self, monkeypatch):
        # LONGICAUSAL_THREADS belongs to the `simulate` command; the library runs one process by default
        cfg = SimulationConfig(n_replicates=3, master_seed=4)
        serial = summary_arrays(run_monte_carlo(cfg, threads=1))
        monkeypatch.setenv("LONGICAUSAL_THREADS", "two")
        for got, want in zip(summary_arrays(run_monte_carlo(cfg)), serial, strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value", ["two", "0", "-3", "1.5", ""])
    def test_bad_environment_value_rejected(self, monkeypatch, value):
        # the `simulate` command's reader of LONGICAUSAL_THREADS, which hands run_monte_carlo its threads
        monkeypatch.setenv("LONGICAUSAL_THREADS", value)
        with pytest.raises(DomainError, match=rf"^LONGICAUSAL_THREADS must be an integer >= 1, got {value!r}$"):
            _threads_from_env()

    @pytest.mark.parametrize("value", [0, -3, 1.5, "2", True])
    def test_bad_argument_rejected(self, value):
        with pytest.raises(DomainError, match=rf"^threads must be an integer >= 1, got {value!r}$"):
            run_monte_carlo(SimulationConfig(n_replicates=2), threads=value)
