"""GLM fitting against independent oracles.

The oracles here (log-likelihoods, Nelder-Mead maximizer, quadrature normal
CDF) are written from the probability formulas alone and never touch the
IRLS path they check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln

from longicausal.exceptions import DomainError, SingularDesignError
from longicausal.glm import fit_glm, predict_mean, sandwich_cov, wald_test


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

    def test_loglik_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.poisson(np.exp(0.3 + 0.2 * X[:, 1]))
        fit = fit_glm(X, y.astype(float), "poisson")
        assert fit.log_likelihood == pytest.approx(
            oracle_loglik("poisson", X, y, fit.coefficients), rel=1e-9
        )


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
        cov = sandwich_cov(fit, X, y, np.ones(2))
        assert cov[0, 0] == pytest.approx(0.125, abs=1e-9)
        # exact bread-meat-bread evaluation at the fitted mean
        mu = predict_mean(fit, X)
        direct = float(np.sum((y - mu) ** 2) / np.sum(mu) ** 2)
        assert cov[0, 0] == pytest.approx(direct, abs=1e-14)

    def test_saturated_fit_zero_matrix(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        fit = fit_glm(X, y, "poisson")
        cov = sandwich_cov(fit, X, y)
        assert np.max(np.abs(cov)) < 1e-12

    def test_homoskedastic_linear_matches_model_cov(self):
        rng = np.random.default_rng(123)
        n = 10_000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = 1.0 + 2.0 * X[:, 1] + rng.normal(size=n)
        fit = fit_glm(X, y, "linear")
        ratio = np.diag(sandwich_cov(fit, X, y)) / np.diag(fit.model_cov)
        assert np.all(np.abs(ratio - 1.0) < 0.10)

    def test_hc1_scaling(self):
        rng = np.random.default_rng(4)
        n, p = 40, 2
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        fit = fit_glm(X, y, "poisson")
        hc0 = sandwich_cov(fit, X, y)
        hc1 = sandwich_cov(fit, X, y, hc1=True)
        np.testing.assert_allclose(hc1, hc0 * n / (n - p), rtol=1e-12)

    def test_matches_statsmodels_convention(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(21)
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(0.4 + 0.3 * X[:, 1])).astype(float)
        fit = fit_glm(X, y, "poisson")
        mine = sandwich_cov(fit, X, y)
        theirs = sm.GLM(y, X, family=sm.families.Poisson()).fit(cov_type="HC0")
        np.testing.assert_allclose(np.sqrt(np.diag(mine)), theirs.bse, rtol=1e-6)


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

    def test_predict_mean(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_glm(X, np.array([1.0, 3.0]), "poisson")
        np.testing.assert_allclose(predict_mean(fit, X), [1.0, 3.0], atol=1e-6)
