"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are pinned here and never loosened at run time.

The two replication criteria (criteria 1 and 2) assert externally supplied
reference numbers at their stated tolerances. They are expected to fail, and
are asserted as stated rather than weakened: the reference SE columns are
mutually inconsistent across the two sample sizes (model-based and sandwich
SEs must shrink like 1/sqrt(N), yet the reference values are nearly equal at
N=50 and N=600), and the pinned generating process produces Poisson means
near exp(7.5), hence SEs far below the reference ones. README.md and the
project notes carry the full analysis.
"""

import math
import os

import numpy as np
import pytest

from longicausal.baselines import GRParams, gr_rate_factor
from longicausal.estimators import estimate
from longicausal.geo import assign_quakes, build_panel, cluster_wells, load_catalog_csv, load_wells_csv
from longicausal.iptw import stabilized_weights
from longicausal.simulate import (
    DgpParams,
    SimulationConfig,
    generate_dataset,
    replicate_seed,
    run_monte_carlo,
)

from conftest import use_treatment_models
from test_glm import draw_small_instance, oracle_maximizer

ACCEPTANCE_SEED = 1234


def report(name, checks):
    """Print one [PASS]/[FAIL] line for the criterion plus one per sub-check."""
    failures = [label for label, ok, _ in checks if not ok]
    print(f"\n[{'PASS' if not failures else 'FAIL'}] {name}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    assert not failures, f"{name}: failed sub-checks: {failures}"


def mc_checks(summary, avg_targets, se_targets, cov_targets, cov_tols):
    checks = []
    for name in ("naive", "adjusted", "msm"):
        est = summary.estimators[name]
        if avg_targets is not None:
            target = avg_targets[name]
            ok = abs(est.avg_point_estimate - target) <= 0.5e-4
            checks.append(
                (f"{name} avg estimate", ok,
                 f"got {est.avg_point_estimate:.3e}, want {target:.1e} +/- 0.5e-04")
            )
        se_t = se_targets[name]
        ok = abs(est.avg_se - se_t) <= 0.25 * se_t
        checks.append((f"{name} avg SE", ok, f"got {est.avg_se:.3e}, want {se_t:.2e} +/- 25%"))
        cov_t, tol = cov_targets[name], cov_tols[name]
        ok = abs(est.coverage95 - cov_t) <= tol
        checks.append(
            (f"{name} coverage", ok, f"got {est.coverage95:.3f}, want {cov_t:.2f} +/- {tol:.2f}")
        )
    return checks


class TestCriterion1ReferenceReplication:
    def test_reference_replication(self):
        cfg = SimulationConfig(n_units=50, n_periods=8, n_replicates=2000, master_seed=ACCEPTANCE_SEED)
        summary = run_monte_carlo(cfg)
        checks = mc_checks(
            summary,
            avg_targets={"naive": 7.1e-4, "adjusted": 8.3e-4, "msm": 9.9e-4},
            se_targets={"naive": 8.65e-5, "adjusted": 6.25e-5, "msm": 2.24e-4},
            cov_targets={"naive": 0.22, "adjusted": 0.36, "msm": 0.91},
            cov_tols={"naive": 0.05, "adjusted": 0.05, "msm": 0.04},
        )
        report("criterion 1: reference replication (N=50, K=8, M=2000)", checks)


class TestCriterion2LargeNReplication:
    def test_n600_replication(self):
        cfg = SimulationConfig(master_seed=ACCEPTANCE_SEED + 1, n_units=600, n_replicates=2000)
        summary = run_monte_carlo(cfg)
        checks = mc_checks(
            summary,
            avg_targets=None,
            se_targets={"naive": 8.81e-5, "adjusted": 6.24e-5, "msm": 2.19e-4},
            cov_targets={"naive": 0.11, "adjusted": 0.14, "msm": 0.92},
            cov_tols={"naive": 0.05, "adjusted": 0.05, "msm": 0.05},
        )
        report("criterion 2: large-N replication (N=600, M=2000)", checks)


class TestCriterion3UnconfoundedOracle:
    def test_unconfounded_oracle(self):
        cfg = SimulationConfig(
            master_seed=ACCEPTANCE_SEED + 2,
            confounding=0.0,
            n_replicates=500,
            dgp=DgpParams(a_l_penalty=0.0),
        )
        summary = run_monte_carlo(cfg)
        checks = []
        for name, est in summary.estimators.items():
            mc_se = est.estimates.std() / math.sqrt(len(est.estimates))
            dev = abs(est.avg_point_estimate - cfg.causal_effect)
            checks.append(
                (f"{name} unbiased", dev < 3 * mc_se, f"|avg-0.001| = {dev:.2e} vs 3*MCSE = {3*mc_se:.2e}")
            )
            checks.append(
                (f"{name} coverage >= 0.90", est.coverage95 >= 0.90, f"got {est.coverage95:.3f}")
            )
        report("criterion 3: unconfounded-oracle property (M=500)", checks)


class TestCriterion4GlmOracleEquivalence:
    def test_irls_matches_brute_force(self):
        checks = []
        for family in ("linear", "poisson"):
            rng = np.random.default_rng(ACCEPTANCE_SEED + 3)
            worst = 0.0
            checked = 0
            while checked < 50:
                fit, X, y = draw_small_instance(family, rng)
                if fit is None:
                    continue
                ref = oracle_maximizer(family, X, y)
                worst = max(worst, float(np.max(np.abs(fit.coefficients - ref))))
                checked += 1
            checks.append(
                (f"{family}: 50 instances within 1e-5", worst < 1e-5, f"worst |diff| = {worst:.2e}")
            )
        report("criterion 4: GLM oracle equivalence (n<=6, p<=2)", checks)


class TestCriterion5WeightInvariants:
    def test_weight_invariants(self, monkeypatch):
        checks = []

        data = generate_dataset(
            SimulationConfig(master_seed=ACCEPTANCE_SEED + 4), replicate_seed(ACCEPTANCE_SEED + 4, 0)
        )
        with monkeypatch.context() as patch:
            use_treatment_models(patch)
            ws_same = stabilized_weights(data)
        exact_one = bool(np.all(ws_same.per_unit_weights == 1.0))
        checks.append(("identical models give SW == 1 exactly", exact_one,
                       f"max |SW-1| = {np.max(np.abs(ws_same.per_unit_weights - 1.0)):.1e}"))

        cfg = SimulationConfig(master_seed=ACCEPTANCE_SEED + 5)
        means = []
        worst_rel = 0.0
        for rep in range(200):
            d = generate_dataset(cfg, replicate_seed(cfg.master_seed, rep))
            ws = stabilized_weights(d)
            means.append(float(ws.per_unit_weights.mean()))
            rel = np.max(
                np.abs(ws.per_unit_weights - np.prod(ws.per_time_factors, axis=1))
                / np.abs(ws.per_unit_weights)
            )
            worst_rel = max(worst_rel, float(rel))
        mean_sw = float(np.mean(means))
        checks.append(("mean SW in [0.8, 1.2] over 200 replicates", 0.8 <= mean_sw <= 1.2,
                       f"mean SW = {mean_sw:.4f}"))
        checks.append(("product-of-factors identity within 1e-10", worst_rel <= 1e-10,
                       f"worst relative gap = {worst_rel:.1e}"))
        report("criterion 5: stabilized-weight invariants", checks)


class TestCriterion6GrFactors:
    def test_gr_factors(self):
        def sig4(x):
            exp = math.floor(math.log10(abs(x)))
            return round(x, 3 - exp)

        central = gr_rate_factor(GRParams(sigma=-0.47, b=1.41, mag_complete=3.0))
        west = gr_rate_factor(GRParams(sigma=-0.63, b=1.33, mag_complete=3.0))
        checks = [
            ("central value 1.995e-5 (4 sig figs)", sig4(central) == 1.995e-5, f"got {central:.6e}"),
            ("west value 2.399e-5 (4 sig figs)", sig4(west) == 2.399e-5, f"got {west:.6e}"),
        ]
        report("criterion 6: Gutenberg-Richter factors", checks)


class TestCriterion7PipelineConservation:
    def test_pipeline_conservation(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(corpus.wells, assignment, attribution)

        post_cut = 71 - corpus.n_below_cut
        conserved = attribution.total_assigned + attribution.unassigned == attribution.n_after_cut
        total_panel = float(data.A.sum())
        vol_ok = abs(total_panel - corpus.expected_in_window_volume) <= 1e-6 * corpus.expected_in_window_volume

        checks = [
            ("post-cut catalog size", attribution.n_after_cut == post_cut,
             f"got {attribution.n_after_cut}, want {post_cut}"),
            ("assigned + unassigned == post-cut size", conserved,
             f"{attribution.total_assigned} + {attribution.unassigned} vs {attribution.n_after_cut}"),
            ("volume conservation within 1e-6 relative", vol_ok,
             f"panel {total_panel:.6e} vs reported {corpus.expected_in_window_volume:.6e}"),
            ("defaults yield 30 units", data.n_units == 30, f"got {data.n_units}"),
            ("defaults yield K = 7", data.n_periods == 7, f"got {data.n_periods}"),
        ]
        report("criterion 7: pipeline conservation (65 wells, 71 quakes)", checks)


class TestCriterion8AnalyzeInterface:
    def test_analyze_emits_three_estimator_rows(self, corpus):
        assignment = cluster_wells(corpus.wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, corpus.quakes)
        data = build_panel(corpus.wells, assignment, attribution)
        reports = estimate(data, stabilized_weights(data).per_unit_weights)
        checks = [
            ("three estimator rows", [r.estimator for r in reports] == ["naive", "adjusted", "msm"],
             str([r.estimator for r in reports])),
            ("RR/SE/z/p populated", all(
                math.isfinite(r.relative_risk_per_MMbbl) and r.se > 0 and math.isfinite(r.z)
                and 0 <= r.p <= 1 for r in reports
            ), "; ".join(f"{r.estimator}: RR={r.relative_risk_per_MMbbl:.4f}" for r in reports)),
        ]
        report("criterion 8: analyze interface (synthetic corpus)", checks)

    def test_dfw_msm_relative_risk(self):
        """Optional integration check; needs the external DFW data files."""
        wells_path = os.environ.get("LONGICAUSAL_DFW_WELLS")
        catalog_path = os.environ.get("LONGICAUSAL_DFW_CATALOG")
        if not wells_path or not catalog_path:
            pytest.skip("set LONGICAUSAL_DFW_WELLS / LONGICAUSAL_DFW_CATALOG to run")
        from longicausal.geo import DFW_BBOX

        wells = load_wells_csv(wells_path, bbox=DFW_BBOX)
        catalog = load_catalog_csv(catalog_path, bbox=DFW_BBOX)
        assignment = cluster_wells(wells, n_clusters=30)
        attribution = assign_quakes(assignment.centroids, catalog)
        data = build_panel(wells, assignment, attribution)
        _, _, rep = estimate(data, stabilized_weights(data).per_unit_weights)
        checks = [
            ("MSM RR per MMbbl within 0.01 of 1.0278",
             abs(rep.relative_risk_per_MMbbl - 1.0278) <= 0.01,
             f"got {rep.relative_risk_per_MMbbl:.4f}"),
        ]
        report("criterion 8b: DFW MSM relative risk (optional)", checks)
