"""GLM fitting against independent oracles.

The oracles here (log-likelihoods, Nelder-Mead maximizer, quadrature normal
CDF) are written from the probability formulas alone and never touch the
IRLS path they check.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln

import longicausal.glm as glm
from longicausal.exceptions import DomainError, LongicausalError, SingularDesignError
from longicausal.glm import FAMILIES, _rank_deficient, fit_glm, fit_glm_stack, sandwich_cov_stack, wald_test


def oracle_loglik(family, X, y, beta, w=None, sigma=None):
    w = np.ones(len(y)) if w is None else w
    eta = X @ beta
    if family == "poisson":
        return float(np.sum(w * (y * eta - np.exp(eta) - gammaln(y + 1))))
    if family == "logistic":
        return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))
    return float(
        np.sum(w * (-0.5 * np.log(2 * np.pi * sigma**2) - (y - eta) ** 2 / (2 * sigma**2)))
    )


def oracle_maximizer(family, X, y, w=None):
    """Nelder-Mead maximizer of the (weighted) likelihood; linear profiles sigma out."""
    p = X.shape[1]

    if family == "linear":
        def neg(beta):
            ww = np.ones(len(y)) if w is None else w
            return float(np.sum(ww * (y - X @ beta) ** 2))
    else:
        def neg(beta):
            return -oracle_loglik(family, X, y, beta, w)

    best = None
    for start in (np.zeros(p), np.full(p, 0.5), np.full(p, -0.5)):
        res = minimize(
            neg,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000, "maxfev": 20000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def oracle_two_sided_p(z):
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    tail, _ = quad(phi, abs(z), np.inf)
    return 2.0 * tail


def draw_small_instance(family, rng):
    """One random n<=6, p<=2 instance whose maximizer exists and is interior.

    Strictly positive counts keep the poisson MLE off the boundary; logistic
    instances with (near-)separation are discarded via the convergence flag
    and a coefficient-magnitude cap.
    """
    n = int(rng.integers(3, 7))
    p = int(rng.integers(1, 3))
    X = np.ones((n, 1)) if p == 1 else np.column_stack([np.ones(n), rng.normal(size=n)])
    if family == "poisson":
        y = (1 + rng.poisson(1.5, n)).astype(float)
    elif family == "logistic":
        y = rng.integers(0, 2, n).astype(float)
        if y.sum() in (0, n):
            return None, X, y
    else:
        y = rng.normal(size=n)
    fit = fit_glm(X, y, family)
    if not fit.converged or np.max(np.abs(fit.coefficients)) > 15.0:
        return None, X, y
    return fit, X, y


class TestExactFits:
    def test_poisson_saturated_two_points(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_glm(X, np.array([1.0, 3.0]), "poisson")
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)
        assert fit.coefficients[1] == pytest.approx(math.log(3.0), abs=1e-8)

    def test_linear_two_points(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_glm(X, np.array([1.0, 3.0]), "linear")
        np.testing.assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
        assert fit.residual_sd == pytest.approx(0.0, abs=1e-12)

    def test_logistic_intercept_only(self):
        fit = fit_glm(np.ones((2, 1)), np.array([0.0, 1.0]), "logistic")
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", ["linear", "logistic", "poisson"])
    def test_small_instances_match_nelder_mead(self, family):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 8:
            fit, X, y = draw_small_instance(family, rng)
            if fit is None:
                continue
            ref = oracle_maximizer(family, X, y)
            np.testing.assert_allclose(fit.coefficients, ref, atol=1e-5)
            checked += 1

    def test_weighted_poisson_matches_oracle(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(6), rng.normal(size=6)])
        y = rng.poisson(3.0, 6).astype(float)
        w = rng.uniform(0.5, 2.0, 6)
        fit = fit_glm(X, y, "poisson", weights=w)
        ref = oracle_maximizer("poisson", X, y, w)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-5)


class TestGradientAtOptimum:
    @pytest.mark.parametrize("family", ["linear", "logistic", "poisson"])
    def test_fd_gradient_below_tolerance(self, family):
        rng = np.random.default_rng(11)
        n = 30
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        if family == "poisson":
            y = rng.poisson(np.exp(0.5 + 0.3 * X[:, 1])).astype(float)
        elif family == "logistic":
            y = (rng.random(n) < 1 / (1 + np.exp(-(0.2 + 0.5 * X[:, 1])))).astype(float)
        else:
            y = 1.0 + 0.5 * X[:, 1] + rng.normal(size=n)
        w = rng.uniform(0.5, 1.5, n)
        fit = fit_glm(X, y, family, weights=w)
        assert fit.converged
        beta = fit.coefficients
        sigma = fit.residual_sd if family == "linear" else None
        grad = np.zeros_like(beta)
        for j in range(len(beta)):
            h = 1e-5 * max(1.0, abs(beta[j]))
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (
                oracle_loglik(family, X, y, up, w, sigma)
                - oracle_loglik(family, X, y, dn, w, sigma)
            ) / (2 * h)
        assert np.max(np.abs(grad)) < 1e-6


class TestWeightInvariances:
    @pytest.mark.parametrize("family", ["linear", "logistic", "poisson"])
    def test_unit_weights_equal_no_weights(self, family):
        rng = np.random.default_rng(3)
        n = 25
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = {
            "poisson": rng.poisson(2.0, n).astype(float),
            "logistic": rng.integers(0, 2, n).astype(float),
            "linear": rng.normal(size=n),
        }[family]
        a = fit_glm(X, y, family)
        b = fit_glm(X, y, family, weights=np.ones(n))
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_weight_rescaling_leaves_coefficients(self, c):
        rng = np.random.default_rng(9)
        n = 20
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        w = rng.uniform(0.5, 2.0, n)
        a = fit_glm(X, y, "poisson", weights=w)
        b = fit_glm(X, y, "poisson", weights=c * w)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)


class TestSandwich:
    def test_poisson_intercept_only_frozen_value(self):
        # bread = sum(mu) = 4, meat = sum((y-2)^2) = 2, sandwich = 2/16
        X = np.ones((2, 1))
        y = np.array([1.0, 3.0])
        fit = fit_glm(X, y, "poisson")
        cov, errors = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None], np.ones((1, 2)))
        assert errors == [None]
        assert cov[0, 0, 0] == pytest.approx(0.125, abs=1e-9)
        # exact bread-meat-bread evaluation at the fitted mean
        mu = np.exp(X @ fit.coefficients)
        direct = float(np.sum((y - mu) ** 2) / np.sum(mu) ** 2)
        assert cov[0, 0, 0] == pytest.approx(direct, abs=1e-14)

    def test_saturated_fit_zero_matrix(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        fit = fit_glm(X, y, "poisson")
        cov, errors = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None])
        assert errors == [None]
        assert np.max(np.abs(cov)) < 1e-12

    def test_homoskedastic_linear_matches_model_cov(self):
        rng = np.random.default_rng(123)
        n = 10_000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = 1.0 + 2.0 * X[:, 1] + rng.normal(size=n)
        fit = fit_glm(X, y, "linear")
        cov, errors = sandwich_cov_stack("linear", fit.coefficients[None], X[None], y[None])
        assert errors == [None]
        ratio = np.diag(cov[0]) / np.diag(fit.model_cov)
        assert np.all(np.abs(ratio - 1.0) < 0.10)

    def test_hc1_scaling(self):
        rng = np.random.default_rng(4)
        n, p = 40, 2
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        fit = fit_glm(X, y, "poisson")
        hc0, errors0 = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None])
        hc1, errors1 = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None], hc1=True)
        assert errors0 == errors1 == [None]
        np.testing.assert_allclose(hc1, hc0 * n / (n - p), rtol=1e-12)

    def test_errors_in_check_order(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        fit = fit_glm(X, y, "poisson")
        _, errors = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None], hc1=True)
        [error] = errors
        assert isinstance(error, DomainError) and str(error) == "HC1 scaling requires n > p"
        collinear = np.array([[1.0, 1.0], [1.0, 1.0]])  # the bread is singular, which is reported first
        for hc1 in (False, True):
            _, errors = sandwich_cov_stack("poisson", fit.coefficients[None], collinear[None], y[None], hc1=hc1)
            [error] = errors
            assert isinstance(error, SingularDesignError) and str(error) == "bread matrix is singular"

    def test_matches_statsmodels_convention(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(21)
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(0.4 + 0.3 * X[:, 1])).astype(float)
        fit = fit_glm(X, y, "poisson")
        mine, errors = sandwich_cov_stack("poisson", fit.coefficients[None], X[None], y[None])
        assert errors == [None]
        theirs = sm.GLM(y, X, family=sm.families.Poisson()).fit(cov_type="HC0")
        np.testing.assert_allclose(np.sqrt(np.diag(mine[0])), theirs.bse, rtol=1e-6)


class TestWald:
    def test_zero_beta(self):
        z, p = wald_test(0.0, 1.0)
        assert z == 0.0 and p == pytest.approx(1.0)

    def test_critical_value_against_quadrature(self):
        z, p = wald_test(1.959964, 1.0)
        assert p == pytest.approx(oracle_two_sided_p(1.959964), abs=1e-12)
        assert round(p, 4) == 0.0500

    def test_sign_symmetry(self):
        z1, p1 = wald_test(0.7, 0.31)
        z2, p2 = wald_test(-0.7, 0.31)
        assert z1 == -z2
        assert p1 == pytest.approx(p2, abs=1e-15)

    def test_invalid_se(self):
        with pytest.raises(DomainError):
            wald_test(1.0, 0.0)
        with pytest.raises(DomainError):
            wald_test(1.0, -0.2)


class TestErrorsAndEdges:
    def test_rank_deficient_design(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(SingularDesignError):
            fit_glm(X, np.arange(10.0), "linear")

    def test_poisson_negative_response(self):
        with pytest.raises(DomainError):
            fit_glm(np.ones((3, 1)), np.array([1.0, -1.0, 2.0]), "poisson")

    def test_logistic_non_binary_response(self):
        with pytest.raises(DomainError):
            fit_glm(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), "logistic")

    def test_more_params_than_rows(self):
        with pytest.raises(DomainError):
            fit_glm(np.ones((1, 2)), np.array([1.0]), "linear")

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            fit_glm(np.ones((3, 1)), np.zeros(3), "gamma")

    def test_negative_weights(self):
        with pytest.raises(DomainError):
            fit_glm(np.ones((3, 1)), np.zeros(3), "linear", weights=np.array([1.0, -1.0, 1.0]))

    def test_separation_flags_nonconvergence(self):
        X = np.column_stack([np.ones(6), np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        fit = fit_glm(X, y, "logistic")
        assert not fit.converged


def qr_rule_flags(X, w=None):
    """The former rank rule: pivoted QR of sqrt(w)*X with |r_pp| < 1e-12 |r_11|."""
    wx = X if w is None else X * np.sqrt(w)[:, None]
    _, r, _ = scipy.linalg.qr(wx, mode="economic", pivoting=True)
    d = np.abs(np.diag(r))
    return bool(d[0] == 0.0 or d[-1] < 1e-12 * d[0])


def svd_rule_flags(X, w=None):
    return bool(_rank_deficient(X[None], None if w is None else w[None])[0])


def sweep_design(kind, rng):
    """One random design of the given kind: random, badly scaled, near-collinear, or analyze-like."""
    n = int(rng.integers(5, 60))
    if kind == "random":
        return rng.normal(size=(n, int(rng.integers(1, 5))))
    if kind == "badly_scaled":
        p = int(rng.integers(2, 5))
        return rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-12.0, 12.0, p)
    if kind == "near_collinear":
        base = rng.normal(size=(n, int(rng.integers(1, 4))))
        last = base @ rng.normal(size=base.shape[1]) + 10.0 ** rng.uniform(-18.0, -6.0) * rng.normal(size=n)
        return np.column_stack([base, last])
    # [1, cumA, cumL] as `analyze` builds them: cumulative bbl around 1e7 (at
    # times nearly constant across units) and a count of quake periods (at
    # times nearly constant too)
    cum_a = rng.uniform(0.0, 2e7, n)
    if rng.random() < 0.5:
        cum_a = 1e7 + 10.0 ** rng.uniform(-10.0, 4.0) * rng.normal(size=n)
    cum_l = rng.integers(0, 8, n).astype(float)
    if rng.random() < 0.3:
        cum_l = np.full(n, 3.0)
        cum_l[0] += 10.0 ** rng.uniform(-14.0, 0.0)
    return np.column_stack([np.ones(n), cum_a, cum_l])


class TestRankCheck:
    def test_near_collinear_design_rejected_by_both_rules(self):
        x = np.linspace(0.0, 1.0, 20)
        noise = np.random.default_rng(2).normal(size=20)
        X = np.column_stack([np.ones(20), x, 1.0 + 2.0 * x + 1e-15 * noise])
        assert qr_rule_flags(X)
        assert svd_rule_flags(X)
        with pytest.raises(SingularDesignError, match="rank deficient"):
            fit_glm(X, np.arange(20.0), "poisson")

    def test_svd_rule_flags_every_design_the_qr_rule_flags(self):
        rng = np.random.default_rng(20)
        qr_flagged = 0
        for i in range(4000):
            X = sweep_design(("random", "badly_scaled", "near_collinear", "analyze")[i % 4], rng)
            w = rng.uniform(0.0, 3.0, len(X)) if i % 3 == 0 else None
            qr, svd = qr_rule_flags(X, w), svd_rule_flags(X, w)
            assert svd or not qr, f"design {i}: flagged by pivoted QR only"
            qr_flagged += qr
        assert qr_flagged > 1000  # the sweep reaches well into the flagged region

    def test_zero_design_is_rank_deficient(self):
        assert svd_rule_flags(np.zeros((4, 2)))
        assert svd_rule_flags(np.ones((4, 2)), np.zeros(4))


def reference_irls(X, y, family, w, max_iter=100):
    """One problem's IRLS written out on 2-d arrays, in the order of operations the kernel keeps.

    Returns (coefficients, model_cov, converged, iterations).
    """
    info = lambda v: X.T @ (X * v[:, None])

    def solve(wk, z):
        xtw = X.T * wk
        return np.linalg.solve(xtw @ X, xtw @ z)

    if family == "linear":
        beta = solve(w, y)
        sd = math.sqrt(float(np.sum(w * (y - X @ beta) ** 2) / np.sum(w)))
        return beta, np.linalg.inv(info(w)) * (sd * sd), True, 1
    if family == "poisson":
        mean = lambda eta: np.exp(np.clip(eta, -700.0, 700.0))
        var = lambda mu: np.maximum(mu, 1e-10)

        def dev(mu):
            mu = np.maximum(mu, 1e-10)
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(y > 0, y * np.log(y / mu), 0.0)
            return float(2.0 * np.sum(w * (term - (y - mu))))

        mu = y + 0.5
        eta = np.log(mu)
    else:
        mean = lambda eta: 1.0 / (1.0 + np.exp(-np.clip(eta, -700.0, 700.0)))
        var = lambda mu: np.maximum(mu * (1.0 - mu), 1e-10)

        def dev(mu):
            mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
            return float(-2.0 * np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))))

        mu = (y + 0.5) / 2.0
        eta = np.log(mu / (1.0 - mu))
    beta, d, converged, it = np.zeros(X.shape[1]), dev(mean(eta)), False, 0
    for it in range(1, max_iter + 1):
        beta = solve(w * var(mu), eta + (y - mu) / var(mu))
        eta = X @ beta
        mu = mean(eta) if family == "poisson" else np.clip(mean(eta), 1e-10, 1.0 - 1e-10)
        new_d = dev(mu)
        converged = abs(new_d - d) / (abs(d) + 0.1) < 1e-8
        d = new_d
        if converged:
            break
    if family == "logistic" and np.any((mu < 1e-8) | (mu > 1.0 - 1e-8)):
        converged = False
    return beta, np.linalg.inv(info(w * var(mu))), converged, it


class TestStackKernel:
    """fit_glm_stack gives each problem exactly what fit_glm gives it alone."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fit_glm_matches_reference_loop_bit_for_bit(self, family):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(8, 200))
            X = np.column_stack([np.ones(n), rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2), rng.normal(size=n)])
            eta = 0.5 + 0.3 * X[:, 2]
            y = {
                "linear": eta + rng.normal(size=n),
                "logistic": (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
                "poisson": rng.poisson(np.exp(eta)).astype(float),
            }[family]
            w = rng.uniform(0.1, 3.0, n)
            fit = fit_glm(X, y, family, w)
            beta, cov, converged, iterations = reference_irls(X, y, family, w)
            assert fit.coefficients.tobytes() == beta.tobytes()
            assert fit.model_cov.tobytes() == cov.tobytes()
            assert (fit.converged, fit.iterations) == (converged, iterations)

    @pytest.mark.parametrize("max_iter", [100, 4])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_problem_matches_fit_glm(self, monkeypatch, family, max_iter):
        monkeypatch.setattr(glm, "_MAX_ITER", max_iter)
        rng = np.random.default_rng(8)
        r, n = 12, 30
        X = np.stack([np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)]) for _ in range(r)])
        X[4, :, 2] = 2.0 * X[4, :, 1]  # rank deficient
        eta = 0.3 + 0.5 * X[:, :, 1]
        y = {
            "linear": eta + rng.normal(size=(r, n)),
            "logistic": (rng.random((r, n)) < 1.0 / (1.0 + np.exp(-eta))).astype(float),
            "poisson": rng.poisson(np.exp(eta)).astype(float),
        }[family]
        y[9] = (X[9, :, 1] > 0).astype(float) if family == "logistic" else y[9]  # separated
        w = rng.uniform(0.2, 2.0, (r, n))
        w[7, 3] = np.inf
        stack = fit_glm_stack(X, y, family, w)
        outcomes = set()
        for i in range(r):
            try:
                single = fit_glm(X[i], y[i], family, w[i])
            except LongicausalError as exc:
                assert type(stack.errors[i]) is type(exc) and str(stack.errors[i]) == str(exc)
                outcomes.add(type(exc).__name__)
                continue
            assert stack.errors[i] is None
            assert stack.coefficients[i].tobytes() == single.coefficients.tobytes()
            assert stack.model_cov[i].tobytes() == single.model_cov.tobytes()
            assert (stack.converged[i], stack.iterations[i]) == (single.converged, single.iterations)
            if family == "linear":
                assert stack.residual_sd[i] == single.residual_sd
            outcomes.add(single.converged)
        assert {"SingularDesignError", "DomainError"} <= outcomes
        if family == "linear" or max_iter == 100:
            assert True in outcomes
        if family == "logistic":
            assert {True, False} <= outcomes  # problems leave the loop at different iterations
