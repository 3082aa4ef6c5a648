"""Data generation determinism, Monte Carlo harness, seeding scheme."""

import hashlib
import math

import numpy as np
import pytest

import longicausal.simulate as sim
from longicausal.exceptions import DomainError, SimulationError
from longicausal.simulate import (
    DgpParams,
    SimulationConfig,
    generate_dataset,
    replicate_seed,
    run_monte_carlo,
    with_overrides,
)


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
        assert data.has_baseline
        assert data.treatment_matrix().shape == (23, 5)
        assert np.isin(data.confounder_matrix(), (0, 1)).all()
        y = data.outcome_vector()
        assert y.shape == (23,) and np.all(y >= 0) and np.array_equal(y, np.round(y))
        assert np.isin(data.baseline_confounder_vector(), (0, 1)).all()

    def test_poisson_mean_overflow_rejected(self):
        cfg = SimulationConfig(causal_effect=1.0, master_seed=1)
        with pytest.raises(SimulationError, match="overflow"):
            generate_dataset(cfg, replicate_seed(1, 0))

    @pytest.mark.parametrize(
        "cfg",
        [
            # exp arguments of about 450: finite means that Generator.poisson rejects
            SimulationConfig(causal_effect=0.05, master_seed=1),
            SimulationConfig(confounding=math.nan, master_seed=1),
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
            (with_overrides(SimulationConfig(n_units=7, n_periods=1, master_seed=3), u_levels=1, a_sd=1e-3),
             replicate_seed(3, 123), "861e2b20213bcc2af7f6d9ba70275834c4fbfa97d4146573ec83e0d12e30b19c"),
        ],
        ids=["n50-k8", "n600-k3", "n7-k1"],
    )
    def test_pinned_output(self, cfg, seed, digest):
        # SHA-256 of A, L, Y, A0, L0 as float64 bytes, as generated before the
        # generator was stacked; a changed stream or operation order moves it
        data = generate_dataset(cfg, seed)
        h = hashlib.sha256()
        for arr in (data.treatment_matrix(), data.confounder_matrix(), data.outcome_vector(),
                    data.baseline_treatment_vector(), data.baseline_confounder_vector()):
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
            want = (data.treatment_matrix(), data.confounder_matrix(), data.outcome_vector(),
                    data.baseline_treatment_vector(), data.baseline_confounder_vector())
            for got, expected in zip((a[j], l[j], y[j], a0[j], l0[j]), want, strict=True):
                assert got.tobytes() == expected.tobytes()

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(n_units=1)
        with pytest.raises(DomainError):
            SimulationConfig(n_replicates=0)
        with pytest.raises(DomainError):
            SimulationConfig(master_seed=-1)
        with pytest.raises(DomainError):
            DgpParams(a_sd=0.0)

    def test_replicate_seed_packs_pair(self):
        assert replicate_seed(3, 5) == (3 << 64) | 5
        assert replicate_seed(0, 0) == 0
        with pytest.raises(DomainError):
            replicate_seed(0, -1)


class TestMonteCarlo:
    def test_summary_structure(self):
        cfg = SimulationConfig(n_replicates=10, master_seed=21)
        s = run_monte_carlo(cfg)
        assert list(s.estimators) == ["naive", "adjusted", "msm"]
        assert s.n_failed == 0
        for est in s.estimators.values():
            assert est.estimates.shape == (10,)
            assert 0.0 <= est.coverage95 <= 1.0
            np.testing.assert_allclose(est.ci_hi - est.ci_lo, 2 * 1.959964 * est.ses)
        rows = list(s.iter_sample_rows())
        assert len(rows) == 30
        assert rows[0][0] == 0 and rows[0][1] == "naive"

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
        # with N = 2 the three-column adjusted design cannot be fitted, so every
        # replicate takes the single path, which drops a constant cumL column
        # or reports the error
        cfg = SimulationConfig(n_units=2, n_replicates=20)
        with pytest.raises(SimulationError, match=r"^16 of 20 replicates failed \(budget 1%\): replicate 0: "
                           r"DomainError: need at least as many observations as parameters \(n=2, p=3\);"):
            run_monte_carlo(cfg)

    def test_failure_budget_aborts(self):
        cfg = SimulationConfig(causal_effect=1.0, n_replicates=5, master_seed=2)
        with pytest.raises(SimulationError, match="failed"):
            run_monte_carlo(cfg)

    def test_rare_failures_excluded_with_audit_trail(self, monkeypatch):
        original = sim._generate_stack

        def flaky(config, seeds):
            bad = replicate_seed(config.master_seed, 3)
            if list(seeds) == [bad]:  # replicate 3 generated on its own
                raise DomainError("injected for test")
            a, l, y, a0, l0, log_mean = original(config, seeds)
            y[[j for j, seed in enumerate(seeds) if seed == bad]] = np.nan  # a block re-runs it alone
            return a, l, y, a0, l0, log_mean

        monkeypatch.setattr(sim, "_generate_stack", flaky)
        cfg = SimulationConfig(n_replicates=200, master_seed=77)
        s = sim.run_monte_carlo(cfg)  # 1/200 = 0.5% stays under the 1% budget
        assert s.n_failed == 1
        assert s.failed_replicates[0] == (3, "DomainError: injected for test")
        assert 3 not in s.replicate_indices
        for est in s.estimators.values():
            assert est.estimates.shape == (199,)
        assert all(rep != 3 for rep, *_ in s.iter_sample_rows())

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


def count_single_replicate_runs(monkeypatch):
    """Patch `_run_replicate` to record which replicates the block engine hands to it."""
    calls = []
    original = sim._run_replicate

    def spy(config, replicate):
        calls.append(replicate)
        return original(config, replicate)

    monkeypatch.setattr(sim, "_run_replicate", spy)
    return calls


def edit_generated_replicate(monkeypatch, replicate, edit):
    """Patch `_generate_stack` so that `edit(a, l, a0, l0)` changes that replicate's rows in place."""
    original = sim._generate_stack

    def patched(config, seeds):
        arrays = original(config, seeds)
        a, l, _, a0, l0, _ = arrays
        for j, seed in enumerate(seeds):
            if seed == replicate_seed(config.master_seed, replicate):
                edit(a[j], l[j], a0[j], l0[j])
        return arrays

    monkeypatch.setattr(sim, "_generate_stack", patched)


class TestBlockEngine:
    """Stacked fits of replicate blocks against the one-replicate path."""

    @pytest.mark.parametrize("n_units, n_replicates", [(50, 100), (600, 10)])
    def test_bit_equal_to_single_replicate_path(self, monkeypatch, n_units, n_replicates):
        cfg = SimulationConfig(n_units=n_units, n_replicates=n_replicates, master_seed=41)
        calls = count_single_replicate_runs(monkeypatch)
        s = sim.run_monte_carlo(cfg)
        assert calls == []  # every replicate was carried by the stacks
        assert s.n_failed == 0
        for pos, rep in enumerate(s.replicate_indices):
            _, single = sim._run_replicate(cfg, int(rep))
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

        def degenerate(a, l, a0, l0):
            a[:, -1] = 8000.0 - a[:, :-1].sum(axis=1)

        edit_generated_replicate(monkeypatch, 5, degenerate)
        expected = sim._run_replicate(cfg, 5)
        assert "rank deficient" in expected[1]
        calls = count_single_replicate_runs(monkeypatch)
        s = sim.run_monte_carlo(cfg)  # one block of 120 replicates
        assert calls == [5]
        assert s.failed_replicates == (expected,)
        keep = healthy.replicate_indices != 5
        assert np.array_equal(s.replicate_indices, healthy.replicate_indices[keep])
        for name, e in s.estimators.items():
            assert e.estimates.tobytes() == healthy.estimators[name].estimates[keep].tobytes()
            assert e.ses.tobytes() == healthy.estimators[name].ses[keep].tobytes()


    def test_non_finite_replicate_in_a_block_is_audited_alone(self, monkeypatch):
        cfg = SimulationConfig(n_units=20, n_replicates=120, master_seed=8)

        def infinite(a, l, a0, l0):
            a[3, 2] = np.inf

        edit_generated_replicate(monkeypatch, 4, infinite)
        calls = count_single_replicate_runs(monkeypatch)
        s = sim.run_monte_carlo(cfg)
        assert calls == [4]
        assert s.failed_replicates == ((4, "PanelError: treatments must be finite, got inf"),)

    def test_replicate_with_dropped_columns_takes_the_single_path(self, monkeypatch):
        # replicate 2 never has L = 1: its weight models and the adjusted fit
        # drop their constant L columns, which the stacks do not do
        cfg = SimulationConfig(n_units=20, n_replicates=30, master_seed=8)

        def no_confounder(a, l, a0, l0):
            l[:] = 0.0
            l0[:] = 0.0

        edit_generated_replicate(monkeypatch, 2, no_confounder)
        _, single = sim._run_replicate(cfg, 2)
        calls = count_single_replicate_runs(monkeypatch)
        s = sim.run_monte_carlo(cfg)
        assert calls == [2]
        assert s.n_failed == 0
        pos = list(s.replicate_indices).index(2)
        for name, (beta1, se) in single.items():
            assert (s.estimators[name].estimates[pos], s.estimators[name].ses[pos]) == (beta1, se)


class TestOverrides:
    def test_top_level_and_dgp_fields(self):
        cfg = SimulationConfig()
        out = with_overrides(cfg, n_units=600, a_l_penalty=0.0, confounding=0.0)
        assert out.n_units == 600
        assert out.dgp.a_l_penalty == 0.0
        assert out.confounding == 0.0
        assert out.dgp.a_sd == cfg.dgp.a_sd
