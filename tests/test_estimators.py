"""Naive / adjusted / MSM outcome regressions and their reports."""

import csv
import hashlib
import math
import re

import numpy as np
import pytest

import longicausal.estimators as estimators
from longicausal.estimators import (
    CI_MULTIPLIER,
    ESTIMATOR_NAMES,
    EstimatorReport,
    estimate,
    estimate_stack,
    relative_risk,
)
from longicausal.cli import main
from longicausal.exceptions import DomainError
from longicausal.geo import assign_quakes, build_panel, cluster_wells
from longicausal.iptw import stabilized_weights
from longicausal.panel import PanelDataset, read_panel_csv, write_panel_csv
from longicausal.simulate import SimulationConfig, generate_dataset, replicate_seed

from conftest import make_dataset, use_treatment_models


def feedback_dgp_data(rep=0, seed=44):
    cfg = SimulationConfig(n_replicates=1, master_seed=seed)
    return generate_dataset(cfg, replicate_seed(seed, rep))


def reports(data: PanelDataset, sw=None, *, robust="HC0") -> dict[str, EstimatorReport]:
    """`estimate` of `data` by estimator name; the weights default to `stabilized_weights(data)`'s."""
    sw = stabilized_weights(data).per_unit_weights if sw is None else sw
    return {rep.estimator: rep for rep in estimate(data, sw, robust=robust)}


def unweighted_stacks(data: PanelDataset):
    """`estimate_stack` of one dataset with unit weights, for data too short to weight (K = 1, no baseline)."""
    cum = (data.A.sum(axis=1)[None], data.L.sum(axis=1)[None], data.Y[None])
    return estimate_stack(*cum, np.ones((1, data.n_units)))


def stack_bits(stack, rows) -> tuple:
    """The bytes of `stack`'s numbers in `rows` and the type and text of each row's error."""
    numbers = tuple(getattr(stack, name)[rows].tobytes() for name in ("beta1_hat", "se", "intercept", "converged"))
    return numbers, [None if e is None else (type(e), str(e)) for e in np.asarray(stack.errors, dtype=object)[rows]]


def rescaled(data: PanelDataset, c: float) -> PanelDataset:
    return PanelDataset(
        c * data.A,
        data.L,
        data.Y,
        unit_ids=data.unit_ids,
        A0=c * data.A0,
        L0=data.L0,
    )


class TestNaive:
    def test_saturated_two_units(self):
        data = make_dataset([[0.0], [1000.0]], outcomes=[1, 3])
        naive = unweighted_stacks(data)["naive"]
        assert naive.errors == [None]
        assert naive.beta1_hat[0] == pytest.approx(math.log(3.0) / 1000.0, rel=1e-8)
        assert naive.intercept[0] == pytest.approx(0.0, abs=1e-8)

    def test_constant_outcome_zero_slope(self):
        data = make_dataset([[float(100 * i)] for i in range(6)], outcomes=[4] * 6)
        naive = unweighted_stacks(data)["naive"]
        assert naive.errors == [None]
        assert naive.beta1_hat[0] == pytest.approx(0.0, abs=1e-8)


class TestAdjusted:
    def test_constant_confounder_equals_naive(self):
        data = make_dataset([[float(50 * i + 10)] for i in range(5)], [[1]] * 5, [i + 1 for i in range(5)])
        assert np.ptp(data.L.sum(axis=1)) == 0.0
        stacks = unweighted_stacks(data)
        assert stacks["naive"].errors == [None]
        assert stack_bits(stacks["adjusted"], [0]) == stack_bits(stacks["naive"], [0])

    def test_stack_copies_constant_rows_and_refits_varying_ones(self):
        # rows 0 and 2 have a constant cumL, row 2 an all-zero outcome; rows 1 and 3 vary
        datasets = [feedback_dgp_data(rep) for rep in range(4)]
        cum_a = np.stack([data.A.sum(axis=1) for data in datasets])
        cum_l = np.stack([data.L.sum(axis=1) for data in datasets])
        y = np.stack([data.Y for data in datasets]).astype(float)
        cum_l[[0, 2]], y[2] = 3.0, 0.0
        assert (np.ptp(cum_l, axis=1) > 0.0).tolist() == [False, True, False, True]
        stacks = estimate_stack(cum_a, cum_l, y, np.ones(y.shape))
        naive, adjusted = stacks["naive"], stacks["adjusted"]
        assert stack_bits(adjusted, [0, 2]) == stack_bits(naive, [0, 2])
        assert adjusted.errors[0] is None
        assert str(adjusted.errors[2]) == "poisson responses are all zero where weighted; the MLE does not exist"
        for i in (1, 3):
            alone = estimate_stack(cum_a[i:i + 1], cum_l[i:i + 1], y[i:i + 1], np.ones((1, y.shape[1])))
            assert stack_bits(adjusted, [i]) == stack_bits(alone["adjusted"], [0])
            assert adjusted.errors[i] is None and adjusted.beta1_hat[i] != naive.beta1_hat[i]

    def test_differs_from_naive_when_confounder_varies(self):
        by_name = reports(feedback_dgp_data())
        assert by_name["adjusted"].beta1_hat != pytest.approx(by_name["naive"].beta1_hat, rel=1e-6)


class TestMsm:
    def test_unit_weights_equal_naive(self, monkeypatch):
        data = feedback_dgp_data()
        use_treatment_models(monkeypatch)
        by_name = reports(data)
        assert by_name["msm"].beta1_hat == pytest.approx(by_name["naive"].beta1_hat, abs=1e-10)

    def test_se_is_sandwich_not_model(self):
        by_name = reports(feedback_dgp_data())
        assert by_name["msm"].se != pytest.approx(by_name["naive"].se, rel=1e-3)

    def test_hc1_inflates_se(self):
        data = feedback_dgp_data()
        hc0 = reports(data)["msm"]
        hc1 = reports(data, robust="HC1")["msm"]
        n, p = data.n_units, 2
        assert hc1.se == pytest.approx(hc0.se * math.sqrt(n / (n - p)), rel=1e-12)

    @pytest.mark.parametrize("robust", [True, None, "hc1", "HC2"])
    def test_unknown_robust_kind_refused(self, robust):
        with pytest.raises(DomainError, match="^unknown robust kind"):
            reports(feedback_dgp_data(), robust=robust)

    def test_truncation_passthrough(self):
        data = feedback_dgp_data()
        plain = reports(data)["msm"]
        sw = stabilized_weights(data).per_unit_weights
        trunc = reports(data, np.clip(sw, *np.percentile(sw, [5.0, 95.0])))["msm"]
        assert trunc.beta1_hat != pytest.approx(plain.beta1_hat, rel=1e-12)

    @pytest.mark.parametrize("sw", [np.ones(49), np.ones((50, 1)), np.ones((1, 50)), 1.0],
                             ids=["49-entries", "column", "row", "scalar"])
    def test_weights_of_another_shape_refused(self, sw):
        message = f"sw must be an array of shape (50,), one weight per unit, got shape {np.shape(sw)}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            estimate(feedback_dgp_data(), sw)

    @pytest.mark.parametrize("sw", [[[1.0] * 50, [1.0]], ["a"] * 50, [1j] * 50, np.full(50, 1.0 + 1.0j),
                                    np.array([np.complex128(1 + 3j)] + [1.0] * 49, dtype=object)],
                             ids=["ragged", "text", "complex", "complex-ndarray", "complex-object"])
    def test_weights_numpy_cannot_read_refused(self, sw):
        with pytest.raises(DomainError, match=r"^sw must be an array of shape \(50,\), one weight per unit: "):
            estimate(feedback_dgp_data(), sw)

    @pytest.mark.parametrize("value, units, message", [
        (np.nan, 3, "weights must be finite and non-negative"),
        (np.inf, 3, "weights must be finite and non-negative"),
        (-1.0, 3, "weights must be finite and non-negative"),
        (0.0, slice(None), "at least one weight must be positive"),
    ], ids=["nan", "inf", "negative", "all-zero"])
    def test_bad_weight_values_keep_the_fit_errors(self, value, units, message):
        data = feedback_dgp_data()
        sw = np.ones(data.n_units)
        sw[units] = value
        with pytest.raises(DomainError, match=f"^{message}$"):
            estimate(data, sw)


class TestSharedContracts:
    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_ci_is_exactly_plus_minus_1959964_se(self, estimator):
        rep = reports(feedback_dgp_data())[estimator]
        assert rep.ci95[0] == rep.beta1_hat - CI_MULTIPLIER * rep.se
        assert rep.ci95[1] == rep.beta1_hat + CI_MULTIPLIER * rep.se
        assert rep.ci95[0] <= rep.beta1_hat <= rep.ci95[1]

    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_scale_equivariance(self, estimator):
        data = feedback_dgp_data(seed=55)
        c = 1000.0
        base = reports(data)[estimator]
        scaled = reports(rescaled(data, c))[estimator]
        assert scaled.beta1_hat == pytest.approx(base.beta1_hat / c, rel=1e-8)

    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_single_unit_rejected(self, estimator):
        data = make_dataset([[1.0, 2.0]], A0=[1.0], L0=[0])
        with pytest.raises(DomainError, match="2 units"):
            estimate(data, np.ones(1))
        stack = unweighted_stacks(data)[estimator]
        assert isinstance(stack.errors[0], DomainError)
        assert np.isnan(stack.beta1_hat[0])

    @pytest.mark.parametrize("robust", ["HC0", "HC1"])
    def test_report_numbers_are_python_floats(self, robust):
        # a stack row's np.float64 would show in a report's repr as np.float64(...)
        for rep in reports(feedback_dgp_data(), robust=robust).values():
            numbers = [rep.beta1_hat, rep.se, *rep.ci95, rep.relative_risk_per_MMbbl, rep.z, rep.p, rep.intercept]
            assert [type(v) for v in numbers] == [float] * 8
            assert type(rep.converged) is bool

    def test_rr_consistency_and_wald(self):
        rep = reports(feedback_dgp_data())["naive"]
        assert rep.z == pytest.approx(rep.beta1_hat / rep.se, rel=1e-12)
        assert 0.0 <= rep.p <= 1.0

    def test_non_finite_slope_gets_the_wald_error(self, monkeypatch):
        # unweighted fits whose slope is inf but whose SE is finite: each stack row gets the error `estimate` raises
        fit_poisson_stack = estimators.fit_poisson_stack

        def infinite_slope(design, response, weights=None):
            fit = fit_poisson_stack(design, response, weights)
            unit_weights = np.ones(len(fit.errors), dtype=bool) if weights is None else (weights == 1.0).all(axis=1)
            fit.coefficients[unit_weights, 1] = np.inf
            return fit

        monkeypatch.setattr(estimators, "fit_poisson_stack", infinite_slope)
        datasets = [feedback_dgp_data(rep) for rep in range(2)]
        weights = [stabilized_weights(data) for data in datasets]
        stacks = estimate_stack(
            np.stack([data.A.sum(axis=1) for data in datasets]),
            np.stack([data.L.sum(axis=1) for data in datasets]),
            np.stack([data.Y for data in datasets]),
            np.stack([sw.per_unit_weights for sw in weights]),
        )
        for i, (data, sw) in enumerate(zip(datasets, weights)):
            with pytest.raises(DomainError, match=r"^beta must be finite, got inf$") as raised:
                estimate(data, sw.per_unit_weights)
            for name in ("naive", "adjusted"):
                error = stacks[name].errors[i]
                assert (type(error), str(error)) == (DomainError, str(raised.value))
                assert stacks[name].se[i] > 0.0 and np.isfinite(stacks[name].se[i])
        assert stacks["msm"].errors == [None, None]


class TestUnconfoundedAgreement:
    def test_all_three_agree_without_confounding(self):
        from longicausal.simulate import DgpParams, run_monte_carlo

        cfg = SimulationConfig(master_seed=2024, n_replicates=200, confounding=0.0, dgp=DgpParams(a_l_penalty=0.0))
        s = run_monte_carlo(cfg)
        stats = {
            name: (est.avg_point_estimate, est.estimates.std() / math.sqrt(len(est.estimates)))
            for name, est in s.estimators.items()
        }
        for name, (avg, mcse) in stats.items():
            assert abs(avg - cfg.causal_effect) < 3 * mcse, name
        names = list(stats)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                gap = abs(stats[a][0] - stats[b][0])
                joint = math.sqrt(stats[a][1] ** 2 + stats[b][1] ** 2)
                assert gap < 3 * joint, (a, b)


class TestRelativeRisk:
    def test_round_trip_at_field_scale(self):
        beta1 = math.log(1.0278) / 1e6
        assert relative_risk(beta1) == pytest.approx(1.0278, rel=1e-12)

    def test_zero_beta_gives_one(self):
        assert relative_risk(0.0) == 1.0

    def test_doubling(self):
        assert relative_risk(math.log(2.0) / 1e6) == pytest.approx(2.0, rel=1e-12)

    def test_overflow_saturates(self):
        assert relative_risk(1.0) == math.inf

    def test_finite_up_to_the_float64_exp_limit(self):
        assert relative_risk(709.5e-6) == math.exp(709.5)


class TestReportSerialization:
    """The reports as `analyze` writes them to estimates.csv and stdout."""

    @staticmethod
    def analyze(tmp_path) -> dict[str, EstimatorReport]:
        """Run `analyze --panel` on a written dataset; return `estimate` of the panel it reads."""
        panel, outcomes = tmp_path / "panel.csv", tmp_path / "outcomes.csv"
        write_panel_csv(feedback_dgp_data(), panel, outcomes)
        assert main(["analyze", "--panel", str(panel), "--outcomes", str(outcomes),
                     "--out-dir", str(tmp_path / "out")]) == 0
        return reports(read_panel_csv(panel, outcomes))  # baselines are not part of the exchange schema

    def test_csv_row_matches_header(self, tmp_path):
        reps = self.analyze(tmp_path)
        with open(tmp_path / "out" / "estimates.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["estimator", "beta1_hat", "se", "ci_lo", "ci_hi", "relative_risk_per_MMbbl", "z", "p"]
        assert [row[0] for row in rows] == list(ESTIMATOR_NAMES)
        for name, *fields in rows:
            rep = reps[name]
            assert len(fields) + 1 == len(header)
            expected = [rep.beta1_hat, rep.se, *rep.ci95, rep.relative_risk_per_MMbbl, rep.z, rep.p]
            assert [float(f).hex() for f in fields] == [float(v).hex() for v in expected]

    def test_text_format_keys(self, tmp_path, capsys):
        self.analyze(tmp_path)
        blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
        assert [block.splitlines()[0] for block in blocks] == [f"estimator: {name}" for name in ESTIMATOR_NAMES]
        for block in blocks:
            for key in ("estimator:", "beta1_hat:", "se:", "ci95:", "relative_risk_per_MMbbl:", "z:", "p:"):
                assert key in block


def pin_digest(sw, factors, reports):
    """SHA-256 of the per-unit and per-period weights and of every report field, floats as exact hex."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sw).tobytes())
    h.update(np.ascontiguousarray(factors).tobytes())
    fields = [f for r in reports for f in (r.estimator, r.beta1_hat, r.se, *r.ci95, r.relative_risk_per_MMbbl,
                                           r.z, r.p, r.intercept, r.converged)]
    h.update(repr([f if isinstance(f, (str, bool)) else float(f).hex() for f in fields]).encode())
    return h.hexdigest()


class TestPinnedOutput:
    """Weights and reports recorded before the per-dataset functions became the stacks' one-replicate calls."""

    @pytest.mark.parametrize(
        "case, truncate, robust, digest",
        [
            ("corpus", None, "HC0", "1e02c79cb62c2c45a44645cdf5c6a08297f4bac50fa12afafa7313116f162363"),
            ("corpus", 1.0, "HC0", "7d940b32f493ce3407c14a15f097bc71f31df0f5befa9f61807496d8dc502950"),
            ("corpus", None, "HC1", "d447c69802b4546044652c16374ed7c4eb484e603a8d954674e4640b89ea7189"),
            ("no-confounder", None, "HC0", "d4a080f9509ed6033f8b828c2785c5ac8b88bf225046b476036b88760ac41a65"),
            ("constant-lag-a", None, "HC0", "8e128c4c746beb935f9b61e7817be873083ade6df4ae87694c65d7202443226c"),
        ],
        ids=["corpus", "truncated", "hc1", "no-confounder", "constant-lag-a"],
    )
    def test_weights_and_reports(self, corpus, case, truncate, robust, digest):
        if case == "corpus":  # the assembled test corpus: 30 units, no baseline period
            assignment = cluster_wells(corpus.wells, n_clusters=30)
            data = build_panel(corpus.wells, assignment, assign_quakes(assignment.centroids, corpus.quakes))
            assert data.A0 is None
        elif case == "no-confounder":  # L = 0 throughout: the weight models and the adjusted fit drop their L columns
            gen = generate_dataset(SimulationConfig(master_seed=12), replicate_seed(12, 3))
            data = PanelDataset(gen.A, np.zeros((50, 8)), gen.Y, A0=gen.A0, L0=np.zeros(50))
        else:  # A(t-1) = 1000 on every pooled row: an intercept-only numerator and a [1, L(t-1)] denominator
            gen = generate_dataset(SimulationConfig(master_seed=12), replicate_seed(12, 3))
            a = np.concatenate([np.full((50, 7), 1000.0), gen.A[:, 7:]], axis=1)
            data = PanelDataset(a, gen.L, gen.Y, A0=np.full(50, 1000.0), L0=gen.L0)
        weights = stabilized_weights(data)
        sw = weights.per_unit_weights
        if truncate is not None:  # clipped as `analyze --truncate-weights` clips them
            sw = np.clip(sw, *np.percentile(sw, [truncate, 100.0 - truncate]))
        assert pin_digest(sw, weights.per_time_factors, estimate(data, sw, robust=robust)) == digest
