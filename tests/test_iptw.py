"""Stabilized weights."""

import csv
import math
import warnings

import numpy as np
import pytest

from longicausal import iptw
from longicausal import simulate as sim
from longicausal.cli import main
from longicausal.exceptions import (
    DegenerateVarianceError, DomainError, LongicausalError, WeightError,
)
from longicausal.glm import least_squares_stack
from longicausal.iptw import stabilized_weights, stabilized_weights_stack
from longicausal.panel import PanelDataset, read_panel_csv, write_panel_csv
from longicausal.simulate import SimulationConfig, generate_dataset, replicate_seed

from conftest import make_dataset, treatment_models, use_treatment_models


def lfree_dataset(rng, n_units=500, k=4):
    """A(t) independent of L(t-1); L is pure noise."""
    a0 = rng.normal(100.0, 10.0, n_units)
    l0 = (rng.random(n_units) < 0.3).astype(int)
    a = np.empty((n_units, k))
    l = np.empty((n_units, k), dtype=int)
    prev = a0
    for t in range(k):
        prev = rng.normal(prev + 5.0, 50.0)
        a[:, t] = prev
        l[:, t] = rng.random(n_units) < 0.3
    return make_dataset(a, l, A0=a0, L0=l0)


def intercept_only_model(mean, sd):
    return [mean], sd


class TestTreatmentModels:
    def test_lfree_law_gives_zero_l_coefficient(self):
        hits = 0
        n_reps = 40
        for rep in range(n_reps):
            rng = np.random.default_rng(1000 + rep)
            data = lfree_dataset(rng)
            (_, (coefficients, sd, design)), _ = treatment_models(data)
            assert len(coefficients) == 3
            coef = coefficients[2]  # L(t-1)
            se = sd * math.sqrt(np.linalg.inv(design.T @ design)[2, 2])  # the Gaussian MLE's model-based SE
            if abs(coef) < 3.0 * se:
                hits += 1
        assert hits >= 0.95 * n_reps

    def test_deterministic_treatment_rejected_downstream(self):
        data = make_dataset(
            [[10.0 + i + 3.0 * t for t in range(1, 4)] for i in range(6)],
            A0=[10.0 + i for i in range(6)],
            L0=[0] * 6,
        )
        ((_, numerator_sd, _), _), _ = treatment_models(data)
        assert numerator_sd == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(DegenerateVarianceError, match=r"^numerator treatment model"):
            stabilized_weights(data)

    def test_constant_confounder_column_dropped(self):
        rng = np.random.default_rng(8)
        rows, a0s = [], []
        for i in range(40):
            a0 = rng.normal(50.0, 5.0)
            rows.append(rng.normal(a0, 4.0, 3))
            a0s.append(a0)
        data = make_dataset(rows, A0=a0s, L0=[0] * 40)
        ((numerator, _, _), (denominator, _, _)), _ = treatment_models(data)
        assert len(numerator) == len(denominator) == 2
        assert denominator[1] == pytest.approx(numerator[1], abs=1e-10)  # A(t-1)

    def test_constant_lag_treatment_column_dropped(self):
        # A(t-1) is 1000 on every pooled row: the numerator is intercept-only, the denominator [1, L(t-1)]
        gen = generate_dataset(SimulationConfig(master_seed=12), replicate_seed(12, 3))
        a = np.concatenate([np.full((50, 7), 1000.0), gen.A[:, 7:]], axis=1)
        data = PanelDataset(a, gen.L, gen.Y, A0=np.full(50, 1000.0), L0=gen.L0)
        ((numerator, _, _), (denominator, _, _)), _ = treatment_models(data)
        assert len(numerator) == 1
        assert numerator[0] == pytest.approx(a.mean(), rel=1e-12)
        assert len(denominator) == 2

    def test_baseline_changes_modeled_periods(self):
        rng = np.random.default_rng(9)
        with_base = lfree_dataset(rng, n_units=20, k=3)
        *_, periods = treatment_models(with_base)
        assert periods == (1, 2, 3)
        no_base = PanelDataset(
            with_base.A,
            with_base.L,
            with_base.Y,
            unit_ids=with_base.unit_ids,
        )
        *_, periods2 = treatment_models(no_base)
        assert periods2 == (2, 3)

    def test_sd_matches_lstsq_residuals(self):
        # a stack of four groups: both lags vary, A(t-1) constant, L(t-1) constant, both constant
        rng = np.random.default_rng(33)
        r, n = 12, 45
        lag_a = rng.normal(100.0, 10.0, (r, n))
        lag_l = (rng.random((r, n)) < 0.3).astype(float)
        lag_a[[2, 5]] = 100.0
        lag_l[[3, 5, 8]] = 1.0
        resp = 5.0 + 0.9 * lag_a + 2.0 * lag_l + rng.normal(0.0, 10.0, (r, n))
        errors = [None] * r
        groups = iptw._fit_models(resp, lag_a, lag_l, errors)
        assert errors == [None] * r and len(groups) == 4
        sds = np.full((2, r), np.nan)
        for rows, models in groups:
            for k, (_, sd, _) in enumerate(models):
                sds[k, rows] = sd
        for i in range(r):
            numerator = [np.ones(n), *([lag_a[i]] if np.ptp(lag_a[i]) > 0 else [])]
            denominator = numerator + ([lag_l[i]] if np.ptp(lag_l[i]) > 0 else [])
            for k, columns in enumerate((numerator, denominator)):
                design = np.column_stack(columns)
                resid = resp[i] - design @ np.linalg.lstsq(design, resp[i], rcond=None)[0]
                np.testing.assert_allclose(sds[k, i], np.sqrt(np.mean(resid**2)), rtol=1e-12)

    def test_overflowing_residuals_give_infinite_sd_without_warning(self):
        # a finite Gram, but residuals whose squares overflow
        resp = 1e300 * np.array([[0.0, 3.0, 1.0, 4.0, 2.0]])
        errors = [None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(_, models)] = iptw._fit_models(resp, np.arange(5.0)[None], np.zeros((1, 5)), errors)
        assert errors == [None]
        assert [sd[0] for _, sd, _ in models] == [np.inf, np.inf]

    def test_one_period_without_baseline_rejected(self):
        # the first period would serve as the baseline and leave none to model
        with pytest.raises(DomainError, match=r"^weight models need a baseline period or K >= 2$"):
            stabilized_weights(make_dataset([[1.0], [2.0], [4.0]]))


class TestStabilizedWeights:
    def feedback_dgp_data(self, rep=0):
        cfg = SimulationConfig(n_replicates=1, master_seed=33)
        return generate_dataset(cfg, replicate_seed(33, rep))

    def test_identical_models_give_exact_unit_weights(self, monkeypatch):
        data = self.feedback_dgp_data()
        use_treatment_models(monkeypatch)
        ws = stabilized_weights(data)
        assert np.all(ws.per_unit_weights == 1.0)
        assert np.all(ws.per_time_factors == 1.0)

    def test_single_factor_density_ratio(self, monkeypatch):
        # numerator density 0.2 and denominator density 0.4 at the observed point
        sd_num = 1.0 / (0.2 * math.sqrt(2 * math.pi))
        sd_den = 1.0 / (0.4 * math.sqrt(2 * math.pi))
        data = make_dataset([[7.5], [7.5]], A0=[7.5, 7.5], L0=[0, 0])
        use_treatment_models(monkeypatch, intercept_only_model(7.5, sd_num), intercept_only_model(7.5, sd_den))
        ws = stabilized_weights(data)
        assert ws.per_time_factors[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert ws.per_unit_weights[0] == pytest.approx(0.5, rel=1e-12)

    def test_product_of_factors_identity(self):
        data = self.feedback_dgp_data()
        ws = stabilized_weights(data)
        np.testing.assert_allclose(
            ws.per_unit_weights, np.prod(ws.per_time_factors, axis=1), rtol=1e-10
        )
        assert np.sum(np.log(ws.per_unit_weights)) == pytest.approx(
            np.sum(np.log(ws.per_time_factors)), abs=1e-8
        )
        assert np.all(ws.per_unit_weights > 0)
        assert np.all(np.isfinite(ws.per_unit_weights))

    def test_mean_weight_near_one_on_generated_data(self):
        means = []
        for rep in range(20):
            data = self.feedback_dgp_data(rep)
            means.append(stabilized_weights(data).per_unit_weights.mean())
        assert 0.8 <= np.mean(means) <= 1.2

    def test_permutation_equivariance(self):
        data = self.feedback_dgp_data()
        ws = stabilized_weights(data)
        reversed_data = PanelDataset(
            data.A[::-1],
            data.L[::-1],
            data.Y[::-1],
            unit_ids=data.unit_ids[::-1],
            A0=data.A0[::-1],
            L0=data.L0[::-1],
        )
        ws_rev = stabilized_weights(reversed_data)
        np.testing.assert_allclose(ws_rev.per_unit_weights, ws.per_unit_weights[::-1], rtol=1e-9)

    def test_nonfinite_factor_names_unit_and_period(self, monkeypatch):
        # the squared z-score under the numerator model overflows -> -inf logpdf
        far = 1e200
        data = make_dataset([[far], [far]], unit_ids=["u7", "u8"], A0=[far, far], L0=[0, 0])
        use_treatment_models(monkeypatch, intercept_only_model(0.0, 1.0), intercept_only_model(far, 1.0))
        with pytest.raises(WeightError, match=r"'u7' at t=1"):
            stabilized_weights(data)

    def test_degenerate_handcrafted_sd_rejected(self, monkeypatch):
        data = make_dataset([[5.0], [6.0]], unit_ids=["u1", "u2"], A0=[5.0, 6.0], L0=[0, 0])
        use_treatment_models(monkeypatch, intercept_only_model(5.5, 1e-300), intercept_only_model(5.5, 1.0))
        with pytest.raises(DegenerateVarianceError):
            stabilized_weights(data)

    def test_overflowing_treatment_raises_without_warning(self):
        # the pooled treatments' std overflows; the suite turns numpy's warning into an error
        rng = np.random.default_rng(0)
        a = rng.uniform(1e5, 1e6, (20, 4))
        a[3, 2] = 1e155
        data = make_dataset(a, confounders=rng.integers(0, 2, (20, 4)))
        with pytest.raises(DomainError, match=r"^treatment values overflow: the spread of A is not finite"):
            stabilized_weights(data)

    def test_weight_rows_export(self, tmp_path):
        # the weights.csv that `analyze --panel` writes, against the weights of the panel it reads
        panel, outcomes = tmp_path / "panel.csv", tmp_path / "outcomes.csv"
        write_panel_csv(self.feedback_dgp_data(), panel, outcomes)
        assert main(["analyze", "--panel", str(panel), "--outcomes", str(outcomes),
                     "--out-dir", str(tmp_path / "out")]) == 0
        data = read_panel_csv(panel, outcomes)
        ws = stabilized_weights(data)
        with open(tmp_path / "out" / "weights.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["unit_id", "t", "factor", "cumulative_weight"]
        assert len(rows) == data.n_units * len(ws.periods)
        unit_id, t, factor, cum = rows[0]
        assert unit_id == data.unit_ids[0] and int(t) == ws.periods[0]
        assert float(factor) == pytest.approx(ws.per_time_factors[0, 0])
        for i, uid in enumerate(data.unit_ids):
            last = [r for r in rows if r[0] == uid][-1]
            assert float(last[3]) == pytest.approx(ws.per_unit_weights[i], rel=1e-10)


class TestWeightStack:
    @pytest.mark.parametrize("baseline", [True, False])
    def test_rows_match_one_replicate_calls(self, baseline):
        n, k = 12, 4
        cfg = SimulationConfig(n_units=n, n_periods=k)
        data = [generate_dataset(cfg, replicate_seed(5, rep)) for rep in range(6)]
        a, l, a0, l0 = (np.stack([getattr(d, name) for d in data]) for name in ("A", "L", "A0", "L0"))
        l[2], l0[2] = 0.0, 0.0  # no L(t-1) column: replicate 2 is fitted in a group of its own
        a[4] = a0[4][:, None] + 1000.0 * np.arange(1, k + 1)  # the numerator model fits exactly
        baselines = (a0, l0) if baseline else (None, None)
        stack = stabilized_weights_stack(a, l, *baselines, range(n))
        assert stack.errors[2] is None and type(stack.errors[4]) is DegenerateVarianceError
        for j, d in enumerate(data):
            one = PanelDataset(a[j], l[j], d.Y, **({"A0": a0[j], "L0": l0[j]} if baseline else {}))
            try:
                ws = stabilized_weights(one)
            except LongicausalError as exc:
                assert (type(exc), str(exc)) == (type(stack.errors[j]), str(stack.errors[j]))
                continue
            assert stack.errors[j] is None and stack.periods == ws.periods
            assert stack.per_unit_weights[j].tobytes() == ws.per_unit_weights.tobytes()
            assert np.exp(stack.log_factors[j].sum(axis=-1)).tobytes() == ws.per_unit_weights.tobytes()
            assert np.exp(stack.log_factors[j]).tobytes() == ws.per_time_factors.tobytes()


def matvec_log_factors(a, l, a0, l0) -> np.ndarray:
    """(R, N, T) log factors, each replicate's own least-squares fits evaluated as
    log_norm - (resp - design @ coefficients)**2 / (2 sd^2), sd the MLE residual sd."""
    resp, lag_a, lag_l, _ = iptw._lagged_rows(a, l, a0, l0)
    out = []
    for y, la, ll in zip(resp, lag_a, lag_l):
        numerator = [np.ones_like(y), *([la] if np.ptp(la) > 0.0 else [])]
        densities = []
        for columns in (numerator, numerator + ([ll] if np.ptp(ll) > 0.0 else [])):
            design = np.stack(columns, axis=-1)[None]
            coefficients, _ = least_squares_stack(design, y[None])
            resid = y - (design @ coefficients[..., None])[0, :, 0]
            sd = float(np.sqrt(np.sum(resid[None] ** 2, axis=-1) / len(y))[0])
            log_norm = -0.5 * (math.log(2.0 * math.pi) + 2.0 * math.log(sd))
            densities.append(log_norm - (y - (design @ coefficients[..., None])[0, :, 0]) ** 2 / (2.0 * sd * sd))
        out.append((densities[0] - densities[1]).reshape(a.shape[1], -1))
    return np.stack(out)


class TestResidualReuse:
    """The weights reuse the treatment models' residuals, and give the factors of a fresh matvec, bit for bit."""

    def test_n600_block(self):
        cfg = SimulationConfig(n_units=600, n_periods=8)
        block = sim.BLOCK_ROWS // (cfg.n_units * cfg.n_periods)
        a, l, _, a0, l0, _ = sim._generate_stack(cfg, [replicate_seed(cfg.master_seed, rep) for rep in range(block)])
        stack = stabilized_weights_stack(a, l, a0, l0, range(cfg.n_units))
        assert stack.errors == [None] * block
        assert stack.log_factors.tobytes() == matvec_log_factors(a, l, a0, l0).tobytes()

    def test_two_groups_and_a_failed_replicate(self):
        cfg = SimulationConfig(n_units=50, n_periods=8)
        a, l, _, a0, l0, _ = sim._generate_stack(cfg, [replicate_seed(7, rep) for rep in range(6)])
        l[2], l0[2] = 0.0, 0.0  # no L(t-1) column: replicate 2 is fitted in a group of its own
        a[4] = a0[4][:, None] + 1000.0 * np.arange(1, cfg.n_periods + 1)  # the numerator model fits exactly
        _, lag_a, lag_l, _ = iptw._lagged_rows(a, l, a0, l0)
        assert len(iptw._stack_groups(np.stack([np.ptp(lag_a, axis=-1) > 0, np.ptp(lag_l, axis=-1) > 0], -1))) == 2
        stack = stabilized_weights_stack(a, l, a0, l0, range(cfg.n_units))
        assert [type(e) for e in stack.errors] == [type(None)] * 4 + [DegenerateVarianceError, type(None)]
        live = [0, 1, 2, 3, 5]  # the main group's residuals are taken for a subset of its rows
        assert stack.log_factors[live].tobytes() == matvec_log_factors(*(x[live] for x in (a, l, a0, l0))).tobytes()
