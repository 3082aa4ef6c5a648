"""Data generation determinism, Monte Carlo harness, seeding scheme."""

import numpy as np
import pytest

import longicausal.simulate as sim
from longicausal.exceptions import DomainError, SimulationError
from longicausal.panel import PanelDataset
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

    def test_failure_budget_aborts(self):
        cfg = SimulationConfig(causal_effect=1.0, n_replicates=5, master_seed=2)
        with pytest.raises(SimulationError, match="failed"):
            run_monte_carlo(cfg)

    def test_rare_failures_excluded_with_audit_trail(self, monkeypatch):
        original = sim.generate_dataset

        def flaky(config, seed):
            if seed == replicate_seed(config.master_seed, 3):
                raise DomainError("injected for test")
            return original(config, seed)

        monkeypatch.setattr(sim, "generate_dataset", flaky)
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
        original = sim.generate_dataset

        def degenerate(config, seed):
            data = original(config, seed)
            if seed != replicate_seed(config.master_seed, 5):
                return data
            a = data.treatment_matrix().copy()
            a[:, -1] = 8000.0 - a[:, :-1].sum(axis=1)
            return PanelDataset(
                a, data.confounder_matrix(), data.outcome_vector(),
                A0=data.baseline_treatment_vector(), L0=data.baseline_confounder_vector(),
            )

        monkeypatch.setattr(sim, "generate_dataset", degenerate)
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


    def test_replicate_with_dropped_columns_takes_the_single_path(self, monkeypatch):
        # replicate 2 never has L = 1: its weight models and the adjusted fit
        # drop their constant L columns, which the stacks do not do
        cfg = SimulationConfig(n_units=20, n_replicates=30, master_seed=8)
        original = sim.generate_dataset

        def no_confounder(config, seed):
            data = original(config, seed)
            if seed != replicate_seed(config.master_seed, 2):
                return data
            zeros = np.zeros(data.n_units)
            return PanelDataset(
                data.treatment_matrix(), np.zeros_like(data.confounder_matrix()), data.outcome_vector(),
                A0=data.baseline_treatment_vector(), L0=zeros,
            )

        monkeypatch.setattr(sim, "generate_dataset", no_confounder)
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
