"""Data generation determinism, Monte Carlo harness, seeding scheme."""

import numpy as np
import pytest

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
        import longicausal.simulate as sim

        original = sim._run_replicate

        def flaky(config, replicate):
            if replicate == 3:
                return replicate, "DomainError: injected for test"
            return original(config, replicate)

        monkeypatch.setattr(sim, "_run_replicate", flaky)
        cfg = SimulationConfig(n_replicates=200, master_seed=77)
        s = sim.run_monte_carlo(cfg)  # 1/200 = 0.5% stays under the 1% budget
        assert s.n_failed == 1
        assert s.failed_replicates[0][0] == 3
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


class TestOverrides:
    def test_top_level_and_dgp_fields(self):
        cfg = SimulationConfig()
        out = with_overrides(cfg, n_units=600, a_l_penalty=0.0, confounding=0.0)
        assert out.n_units == 600
        assert out.dgp.a_l_penalty == 0.0
        assert out.confounding == 0.0
        assert out.dgp.a_sd == cfg.dgp.a_sd
