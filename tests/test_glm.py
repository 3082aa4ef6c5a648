"""GLM fitting against independent oracles.

The oracles here (log-likelihoods, Nelder-Mead maximizer, quadrature normal
CDF) are written from the probability formulas alone and never touch the
IRLS path they check.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln

import longicausal.glm as glm
from longicausal import simulate
from longicausal.exceptions import DomainError, LongicausalError, SingularDesignError
from longicausal.glm import _rank_deficient, fit_poisson_stack, least_squares_stack, sandwich_cov_stack, wald_test
from longicausal.simulate import SimulationConfig

from conftest import fit_one, least_squares_one

MODELS = ("linear", "poisson")  # least squares and the Poisson regression


def oracle_loglik(family, X, y, beta, w=None, sigma=None):
    w = np.ones(len(y)) if w is None else w
    eta = X @ beta
    if family == "poisson":
        return float(np.sum(w * (y * eta - np.exp(eta) - gammaln(y + 1))))
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
    """One random n<=6, p<=2 instance whose maximizer exists and is interior, and its fit.

    The fit has the `coefficients` of the family's model: the Poisson fit or
    least squares. Strictly positive counts keep the poisson MLE off the
    boundary; an instance that does not converge or has a coefficient above
    15 in magnitude is discarded.
    """
    n = int(rng.integers(3, 7))
    p = int(rng.integers(1, 3))
    X = np.ones((n, 1)) if p == 1 else np.column_stack([np.ones(n), rng.normal(size=n)])
    if family == "poisson":
        y = (1 + rng.poisson(1.5, n)).astype(float)
        fit = fit_one(X, y)
        if not fit.converged:
            return None, X, y
    else:
        y = rng.normal(size=n)
        fit = SimpleNamespace(coefficients=least_squares_one(X, y))
    if np.max(np.abs(fit.coefficients)) > 15.0:
        return None, X, y
    return fit, X, y


class TestExactFits:
    def test_poisson_saturated_two_points(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        fit = fit_one(X, np.array([1.0, 3.0]))
        assert fit.converged
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-8)
        assert fit.coefficients[1] == pytest.approx(math.log(3.0), abs=1e-8)

    def test_linear_two_points(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(least_squares_one(X, np.array([1.0, 3.0])), [1.0, 2.0], atol=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", MODELS)
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
        fit = fit_one(X, y, weights=w)
        ref = oracle_maximizer("poisson", X, y, w)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-5)


class TestGradientAtOptimum:
    @pytest.mark.parametrize("family", MODELS)
    def test_fd_gradient_below_tolerance(self, family):
        rng = np.random.default_rng(11)
        n = 30
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        if family == "poisson":
            y = rng.poisson(np.exp(0.5 + 0.3 * X[:, 1])).astype(float)
            w = rng.uniform(0.5, 1.5, n)
            fit = fit_one(X, y, weights=w)
            assert fit.converged
            beta, sigma = fit.coefficients, None
        else:  # least squares: the unweighted Gaussian likelihood at its MLE sigma
            y = 1.0 + 0.5 * X[:, 1] + rng.normal(size=n)
            w = np.ones(n)
            beta = least_squares_one(X, y)
            sigma = math.sqrt(np.mean((y - X @ beta) ** 2))
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
    @pytest.mark.parametrize("n", [25], ids=["poisson"])
    def test_unit_weights_equal_no_weights(self, n):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        a = fit_one(X, y)
        b = fit_one(X, y, weights=np.ones(n))
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_weight_rescaling_leaves_coefficients(self, c):
        rng = np.random.default_rng(9)
        n = 20
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        w = rng.uniform(0.5, 2.0, n)
        a = fit_one(X, y, weights=w)
        b = fit_one(X, y, weights=c * w)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)


def poisson_stack(X, y, w=None):
    """The R = 1 `fit_poisson_stack` of (X, y, w) and its stacked arguments, w defaulting to ones."""
    w = np.ones(len(y)) if w is None else w
    return fit_poisson_stack(X[None], y[None], w[None]), X[None], y[None], w[None]


class TestSandwich:
    def test_poisson_intercept_only_frozen_value(self):
        # bread = sum(mu) = 4, meat = sum((y-2)^2) = 2, sandwich = 2/16
        X = np.ones((2, 1))
        y = np.array([1.0, 3.0])
        fit = fit_one(X, y)
        cov, errors = sandwich_cov_stack(*poisson_stack(X, y))
        assert errors == [None]
        assert cov[0, 0, 0] == pytest.approx(0.125, abs=1e-9)
        # exact bread-meat-bread evaluation at the fitted mean
        mu = np.exp(X @ fit.coefficients)
        direct = float(np.sum((y - mu) ** 2) / np.sum(mu) ** 2)
        assert cov[0, 0, 0] == pytest.approx(direct, abs=1e-14)

    def test_weighted_two_column_matches_direct_sandwich(self):
        rng = np.random.default_rng(17)
        n, p = 30, 2
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(0.5 + 0.4 * X[:, 1])).astype(float)
        w = rng.uniform(0.2, 3.0, n)
        fit = fit_one(X, y, weights=w)
        mu = np.exp(X @ fit.coefficients)
        bread_inv = np.linalg.inv(X.T @ np.diag(w * mu) @ X)
        meat = X.T @ np.diag((w * (y - mu)) ** 2) @ X
        direct = bread_inv @ meat @ bread_inv
        hc0, errors0 = sandwich_cov_stack(*poisson_stack(X, y, w))
        hc1, errors1 = sandwich_cov_stack(*poisson_stack(X, y, w), kind="HC1")
        assert errors0 == errors1 == [None]
        np.testing.assert_allclose(hc0[0], direct, rtol=1e-12)
        np.testing.assert_allclose(hc1[0], direct * n / (n - p), rtol=1e-12)

    def test_saturated_fit_zero_matrix(self):
        # n = p: the fit interpolates, so the sandwich is rounding and HC0 flags it as HC1 does
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        cov, errors = sandwich_cov_stack(*poisson_stack(X, y))
        [error] = errors
        assert isinstance(error, DomainError) and str(error) == "robust covariance requires n > p"
        assert np.max(np.abs(cov)) < 1e-12

    def test_hc1_scaling(self):
        rng = np.random.default_rng(4)
        n, p = 40, 2
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(2.0, n).astype(float)
        hc0, errors0 = sandwich_cov_stack(*poisson_stack(X, y))
        hc1, errors1 = sandwich_cov_stack(*poisson_stack(X, y), kind="HC1")
        assert errors0 == errors1 == [None]
        np.testing.assert_allclose(hc1, hc0 * n / (n - p), rtol=1e-12)

    def test_errors_in_check_order(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 3.0])
        _, errors = sandwich_cov_stack(*poisson_stack(X, y), kind="HC1")
        [error] = errors
        assert isinstance(error, DomainError) and str(error) == "HC1 scaling requires n > p"

    @pytest.mark.parametrize("kind, message", [("HC0", "robust covariance requires n > p"),
                                               ("HC1", "HC1 scaling requires n > p")])
    def test_every_problem_with_n_at_most_p_flagged(self, kind, message):
        # weighted two-point fits with two coefficients interpolate their data, so each sandwich is rounding
        rng = np.random.default_rng(5)
        X = np.stack([np.column_stack([np.ones(2), rng.normal(size=2)]) for _ in range(3)])
        y = rng.poisson(3.0, (3, 2)) + 1.0
        w = rng.uniform(0.5, 2.0, (3, 2))
        fit = fit_poisson_stack(X, y, w)
        assert fit.errors == [None] * 3
        cov, errors = sandwich_cov_stack(fit, X, y, w, kind=kind)
        assert [(type(e), str(e)) for e in errors] == [(DomainError, message)] * 3
        assert np.max(np.abs(cov)) < 1e-12

    @pytest.mark.parametrize("kind", [True, None, "hc1", "HC2"])
    def test_unknown_kind_refused(self, kind):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        y = np.array([1.0, 0.0, 2.0, 3.0])
        with pytest.raises(DomainError, match=r"^unknown robust kind .*, expected one of \('HC0', 'HC1'\)$"):
            sandwich_cov_stack(*poisson_stack(X, y), kind=kind)

    def test_matches_statsmodels_convention(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(21)
        n = 60
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = rng.poisson(np.exp(0.4 + 0.3 * X[:, 1])).astype(float)
        mine, errors = sandwich_cov_stack(*poisson_stack(X, y))
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

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta(self, beta):
        with pytest.raises(DomainError, match=f"^beta must be finite, got {beta!r}$"):
            wald_test(beta, 1.0)


class TestErrorsAndEdges:
    def test_rank_deficient_design(self):
        X = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(SingularDesignError):
            least_squares_one(X, np.arange(10.0))

    def test_poisson_negative_response(self):
        with pytest.raises(DomainError):
            fit_one(np.ones((3, 1)), np.array([1.0, -1.0, 2.0]))

    @pytest.mark.parametrize(
        "y, w",
        [([0.0, 0.0, 0.0], None), ([0.0, 2.0, 0.0], [1.0, 0.0, 1.0])],
        ids=["all-zero", "only-count-unweighted"],
    )
    def test_poisson_without_weighted_count_has_no_mle(self, y, w):
        X = np.column_stack([np.ones(3), np.arange(3.0)])
        message = "poisson responses are all zero where weighted; the MLE does not exist"
        with pytest.raises(DomainError, match=f"^{message}$"):
            fit_one(X, np.array(y), None if w is None else np.array(w))

    def test_more_params_than_rows(self):
        with pytest.raises(DomainError):
            least_squares_one(np.ones((1, 2)), np.array([1.0]))

    @pytest.mark.parametrize(
        "X, y, w, message",
        [
            (np.ones((3, 1)), np.zeros((1, 3)), None, r"^a design stack must be 3-d \(R, n, p\), got shape \(3, 1\)$"),
            (np.ones((1, 3, 1)), np.zeros((1, 4)), None, r"^response shape \(4,\) does not match design \(3 rows\)$"),
            (np.ones((1, 3, 1)), np.zeros((1, 3)), np.ones((1, 2)),
             r"^weights shape \(2,\) does not match design \(3 rows\)$"),
        ],
        ids=["2-d-design", "response", "weights"],
    )
    def test_stack_shapes_checked(self, X, y, w, message):
        with pytest.raises(DomainError, match=message):
            fit_poisson_stack(X, y, w)
        if w is None:
            with pytest.raises(DomainError, match=message):
                least_squares_stack(X, y)

    def test_negative_weights(self):
        with pytest.raises(DomainError, match="^weights must be finite and non-negative$"):
            fit_one(np.ones((3, 1)), np.ones(3), weights=np.array([1.0, -1.0, 1.0]))

    def test_max_iter_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        fit = fit_one(np.column_stack([np.ones(4), np.arange(4.0)]), np.array([1.0, 0.0, 5.0, 2.0]))
        assert (fit.converged, fit.iterations) == (False, 1)
        assert np.isfinite(fit.coefficients).all()


def qr_rule_flags(X, w=None):
    """The former rank rule: pivoted QR of sqrt(w)*X with |r_pp| < 1e-12 |r_11|."""
    wx = X if w is None else X * np.sqrt(w)[:, None]
    _, r, _ = scipy.linalg.qr(wx, mode="economic", pivoting=True)
    d = np.abs(np.diag(r))
    return bool(d[0] == 0.0 or d[-1] < 1e-12 * d[0])


def svd_rule_flags(X, w=None):
    return bool(_rank_deficient(X[None], np.ones((1, len(X))) if w is None else w[None])[0])


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
            fit_one(X, np.arange(20.0))

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
        assert svd_rule_flags(np.zeros((4, 0)))  # no columns at all


class TestPerProblem:
    """A stack with a singular problem falls back to one call per problem."""

    @pytest.mark.parametrize("fn", [np.linalg.solve, np.linalg.inv], ids=["solve", "inv"])
    def test_singular_middle_problem(self, fn):
        a = np.array([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]], [[4.0, -1.0], [0.5, 1.5]]])
        args = (a, np.array([[[1.0], [2.0]], [[1.0], [1.0]], [[-3.0], [0.25]]])) if fn is np.linalg.solve else (a,)
        out, singular = glm._per_problem(fn, *args)
        assert singular.tolist() == [False, True, False]
        assert np.isnan(out[1]).all()
        for i in (0, 2):
            assert out[i].tobytes() == fn(*(arg[i] for arg in args)).tobytes()


class TestFirstErrors:
    """`first_errors` records each selected problem's first error and never replaces one."""

    @pytest.mark.parametrize("problems", [np.array([0, 1, 0, 1, 0], dtype=bool), np.array([1, 3]), slice(1, None, 2)],
                             ids=["mask", "index", "slice"])
    def test_mask_index_and_slice_select_the_same_problems(self, problems):
        one, a, b = DomainError("one"), DomainError("a"), SingularDesignError("b")
        errors = [None] * 5
        glm.first_errors(errors, problems, one)
        assert errors == [None, one, None, one, None]
        errors = [None] * 5
        glm.first_errors(errors, problems, [a, b])
        assert errors == [None, a, None, b, None]

    def test_one_error_reaches_every_selected_problem_and_an_earlier_error_is_kept(self):
        earlier, new = SingularDesignError("earlier"), DomainError("new")
        errors = [None, earlier, None, None]
        glm.first_errors(errors, np.array([0, 1, 2]), new)
        assert errors == [new, earlier, new, None]

    def test_a_list_gives_each_selected_problem_its_own_entry_and_its_nones_record_nothing(self):
        earlier, a, b, c = DomainError("earlier"), DomainError("a"), DomainError("b"), SingularDesignError("c")
        errors = [None, earlier, None, None, None]
        glm.first_errors(errors, np.array([0, 1, 2, 4]), [a, b, None, c])
        assert errors == [a, earlier, None, None, c]
        glm.first_errors(errors, slice(None), [None] * 5)
        assert errors == [a, earlier, None, None, c]

    @pytest.mark.parametrize("problems", [np.zeros(3, dtype=bool), np.array([], dtype=int), slice(0, 0)],
                             ids=["mask", "index", "slice"])
    @pytest.mark.parametrize("new", [DomainError("new"), []], ids=["one", "list"])
    def test_an_empty_selection_leaves_the_list_untouched(self, problems, new):
        earlier = DomainError("earlier")
        errors = [None, earlier, None]
        glm.first_errors(errors, problems, new)
        assert errors == [None, earlier, None]


def reference_irls(X, y, w, max_iter=100):
    """One problem's IRLS written out on 2-d arrays, in the order of operations the kernel keeps.

    Returns (coefficients, model_cov, converged, iterations).
    """
    def solve(wk, z):
        xtw = X.T * wk
        return np.linalg.solve(xtw @ X, xtw @ z)

    mean = lambda eta: np.exp(np.clip(eta, -700.0, 700.0))
    var = lambda mu: np.maximum(mu, 1e-10)

    def dev(mu):
        mu = np.maximum(mu, 1e-10)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(y / mu), 0.0)
        return float(2.0 * np.sum(w * (term - (y - mu))))

    mu = y + 0.5
    eta = np.log(mu)
    beta, d, converged, it = np.zeros(X.shape[1]), dev(mean(eta)), False, 0
    for it in range(1, max_iter + 1):
        beta = solve(w * var(mu), eta + (y - mu) / var(mu))
        eta = X @ beta
        mu = mean(eta)
        new_d = dev(mu)
        converged = abs(new_d - d) / (abs(d) + 0.1) < 1e-8
        d = new_d
        if converged:
            break
    return beta, np.linalg.inv(X.T @ (X * (w * var(mu))[:, None])), converged, it


def assert_rows_match_single_calls(fit_stack, fit_single, *args) -> set:
    """Each row of `fit_stack(*args)` is `fit_single` of that row's arguments, or fails with its error.

    `fit_stack` returns the fields of a stack, errors last; `fit_single`
    returns one problem's fields or raises. Returns the outcomes seen: error
    type names and, for kept problems, their first field past the coefficients.
    """
    *fields, errors = fit_stack(*args)
    outcomes = set()
    for i in range(len(errors)):
        try:
            single = fit_single(*(arg[i] for arg in args))
        except LongicausalError as exc:
            assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc)
            outcomes.add(type(exc).__name__)
            continue
        assert errors[i] is None
        for field, one in zip(fields, single):
            assert field[i].tobytes() == np.asarray(one).tobytes()
        outcomes.update(single[2:3])
    return outcomes


class TestStackKernel:
    """A stacked fit gives each problem exactly what its R = 1 call gives it alone."""

    @pytest.mark.parametrize("family", MODELS)
    def test_fit_glm_matches_reference_loop_bit_for_bit(self, family):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(8, 800))  # past n = 500, where numpy's X.T @ X would sum differently
            X = np.column_stack([np.ones(n), rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2), rng.normal(size=n)])
            eta = 0.5 + 0.3 * X[:, 2]
            if family == "linear":
                y = eta + rng.normal(size=n)
                assert least_squares_one(X, y).tobytes() == np.linalg.solve(X.T @ (X * 1.0), X.T @ y).tobytes()
                continue
            y = rng.poisson(np.exp(eta)).astype(float)
            w = rng.uniform(0.1, 3.0, n)
            fit = fit_one(X, y, w)
            beta, cov, converged, iterations = reference_irls(X, y, w)
            assert fit.coefficients.tobytes() == beta.tobytes()
            assert fit.model_cov.tobytes() == cov.tobytes()
            assert (fit.converged, fit.iterations) == (converged, iterations)

    @pytest.mark.parametrize("max_iter", [100, 4])
    @pytest.mark.parametrize("family", MODELS)
    def test_each_problem_matches_fit_glm(self, monkeypatch, family, max_iter):
        monkeypatch.setattr(glm, "_MAX_ITER", max_iter)
        rng = np.random.default_rng(8)
        r, n = 12, 30
        X = np.stack([np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)]) for _ in range(r)])
        X[4, :, 2] = 2.0 * X[4, :, 1]  # rank deficient
        eta = 0.3 + 0.5 * X[:, :, 1]
        if family == "linear":
            y = eta + rng.normal(size=(r, n))
            y[7, 3] = np.inf
            one = lambda X, y: (least_squares_one(X, y),)
            outcomes = assert_rows_match_single_calls(least_squares_stack, one, X, y)
            assert outcomes == {"SingularDesignError", "DomainError"}
            # n = 2 < p = 3 for every problem
            assert assert_rows_match_single_calls(least_squares_stack, one, X[:, :2], y[:, :2]) == {"DomainError"}
            return
        y = rng.poisson(np.exp(eta)).astype(float)
        w = rng.uniform(0.2, 2.0, (r, n))
        w[7, 3] = np.inf
        outcomes = assert_rows_match_single_calls(fit_poisson_stack, fit_one, X, y, w)
        assert {"SingularDesignError", "DomainError"} <= outcomes
        if max_iter == 100:
            assert True in outcomes
        if max_iter == 4:
            assert False in outcomes  # problems still iterating when the loop gives up


class TestUnweightedIsUnitWeighted:
    """No weights is unit weights, bit for bit."""

    @pytest.mark.parametrize("max_iter", [100, 4], ids=["poisson-100", "poisson-4"])
    def test_matches_unit_weights_bit_for_bit(self, monkeypatch, max_iter):
        monkeypatch.setattr(glm, "_MAX_ITER", max_iter)
        rng = np.random.default_rng(18)
        r, n = 16, 600
        X = np.stack(
            [np.column_stack([np.ones(n), rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6), rng.normal(size=n)])
             for _ in range(r)]
        )
        eta = 0.3 + 0.5 * X[:, :, 2]
        y = rng.poisson(np.exp(eta)).astype(float)
        X[3, :, 2] = 2.0 * X[3, :, 1]  # rank deficient
        X[5, 7, 1] = np.nan
        y[11, 4] = np.inf
        y[12] = 0.0  # no poisson MLE
        plain, unit = fit_poisson_stack(X, y), fit_poisson_stack(X, y, np.ones((r, n)))
        for field in ("coefficients", "model_cov", "converged", "iterations"):
            assert getattr(plain, field).tobytes() == getattr(unit, field).tobytes(), field
        assert [(type(e), str(e)) for e in plain.errors] == [(type(e), str(e)) for e in unit.errors]
        kinds = {type(e).__name__ for e in plain.errors}
        assert {"SingularDesignError", "DomainError"} <= kinds
        kept = [e is None for e in plain.errors]
        if max_iter == 100:
            assert plain.converged[kept].any()
        if max_iter == 4:
            assert not plain.converged[kept].all()


def count_svd_problems(monkeypatch) -> list[int]:
    """Count, in the returned one-element list, the problems the rank check sends to the SVD."""
    counted, svd = [0], glm._svd_rank_deficient

    def counting(X, w):
        counted[0] += len(X)
        return svd(X, w)

    monkeypatch.setattr(glm, "_svd_rank_deficient", counting)
    return counted


def designs_with_ratio(rng, ratios, n, p, w=None):
    """Designs whose sqrt(w)*X has singular values from 1 down to each of `ratios`; rows of weight 0 are random."""
    designs = []
    for i, ratio in enumerate(ratios):
        u = np.linalg.qr(rng.normal(size=(n, p)))[0]
        v = np.linalg.qr(rng.normal(size=(p, p)))[0]
        x = (u * ratio ** np.linspace(0.0, 1.0, p)) @ v.T
        if w is not None:
            kept = w[i] > 0
            x[kept] /= np.sqrt(w[i, kept])[:, None]
            x[~kept] = rng.normal(size=(int((~kept).sum()), p))
        designs.append(x)
    return np.stack(designs)


class TestRankCertificate:
    """The Gram eigenvalue bound only skips the SVD; it never changes a rank decision."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_decisions_match_the_svd_rule(self, monkeypatch, weighted):
        svd = glm._svd_rank_deficient
        counted = count_svd_problems(monkeypatch)
        rng = np.random.default_rng(1812)
        checked = flagged = 0
        for p in (1, 2, 3, 4):
            for n in (8, 60, 400):
                r = 40
                ratios = np.concatenate([10.0 ** rng.uniform(-16.0, -2.0, r - 10), 10.0 ** rng.uniform(-13, -11, 10)])
                w = np.ones((r, n))
                if weighted:
                    w = rng.uniform(0.1, 3.0, (r, n))
                    w[:, : n // 4] *= rng.random((r, n // 4)) < 0.5  # zero-weight rows
                X = designs_with_ratio(rng, ratios, n, p, w if weighted else None)
                X[::2] *= 10.0 ** rng.uniform(-3.0, 6.0, (r // 2, 1, p))  # badly scaled columns
                X[1::8] *= 1e-160  # a Gram below the normal range
                expected = svd(X, w)
                assert np.array_equal(glm._rank_deficient(X, w), expected), (p, n)
                if not weighted:  # the Gram least_squares_stack shares with its solve
                    assert np.array_equal(glm._rank_deficient(X, w, glm._information(X, w)), expected), (p, n)
                checked, flagged = checked + r, flagged + int(expected.sum())
        assert 0 < flagged < checked
        assert 0 < counted[0] < checked * (1 if weighted else 2)  # the bound decides some problems, not all

    def test_overflowing_gram_goes_to_the_svd_without_warning(self, monkeypatch):
        counted = count_svd_problems(monkeypatch)
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(20), rng.normal(size=20), 1e155 * rng.uniform(1.0, 2.0, 20)])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert glm._rank_deficient(X, np.ones((1, 20)))[0]
            assert glm._rank_deficient(X, np.full((1, 20), 2.0))[0]
            _, [error] = least_squares_stack(X, rng.normal(size=(1, 20)))
        assert counted[0] == 3
        assert isinstance(error, SingularDesignError)

    def test_default_n600_block_runs_no_svd(self, monkeypatch):
        counted = count_svd_problems(monkeypatch)
        config = SimulationConfig(n_units=600, n_periods=8)
        block = simulate.BLOCK_ROWS // (600 * 8)
        _, _, audit = simulate._run_block(config, range(block))
        assert audit == [None] * block
        assert counted[0] == 0


def layout_stacks():
    """(X, v, z) stacks for the weighted-product layout checks: R 1-8, n 2-5,000, p 1-3, C-order designs.

    The weights span six decades, or are ones; the last stack has an infinite design entry and a NaN weight.
    """
    rng = np.random.default_rng(41)
    stacks = []
    for i in range(36):
        r, n, p = int(rng.integers(1, 9)), int(np.exp(rng.uniform(np.log(2), np.log(5000)))), 1 + i % 3
        X = rng.normal(size=(r, n, p)) * 10.0 ** rng.uniform(-2, 2, p)
        v = np.ones((r, n)) if i % 4 == 0 else 10.0 ** rng.uniform(-3.0, 3.0, (r, n))
        stacks.append((X, v, rng.normal(size=(r, n))))
    X, v, _ = stacks[-1]
    X[-1, X.shape[1] // 2, 0], v[-1, X.shape[1] // 3] = np.inf, np.nan
    return stacks


class TestWeightedProductLayout:
    """`_scaled_rows` forms X * v[..., None] column by column; every product built from it keeps its bits."""

    def test_matches_the_broadcast_product(self):
        for X, v, _ in layout_stacks():
            with np.errstate(invalid="ignore"):  # the non-finite stack's products
                for scale in (v, np.sqrt(v)):  # the information's and the rank check's weights
                    scaled, broadcast = glm._scaled_rows(X, scale), X * scale[..., None]
                    assert scaled.strides == broadcast.strides, X.shape
                    assert np.array_equal(scaled, broadcast, equal_nan=True), X.shape
                    gram = np.swapaxes(broadcast, 1, 2) @ broadcast  # `_rank_deficient`'s Gram, on its syrk path
                    assert np.array_equal(np.swapaxes(scaled, 1, 2) @ scaled, gram, equal_nan=True), X.shape
                expected = np.swapaxes(X, 1, 2) @ (X * v[..., None])
                assert np.array_equal(glm._information(X, v), expected, equal_nan=True), X.shape

    def test_unit_weight_gram_is_x_times_one(self, monkeypatch):
        grams, screen = [], glm._screen

        def recording(X, y, w, checks=(), gram=None):
            grams.append(gram)
            return screen(X, y, w, checks, gram)

        monkeypatch.setattr(glm, "_screen", recording)
        for X, _, z in layout_stacks():
            with np.errstate(invalid="ignore"):  # the non-finite stack's products
                least_squares_stack(X, z)
                expected = np.swapaxes(X, 1, 2) @ (X * np.ones(z.shape)[..., None])
            assert np.array_equal(grams.pop(), expected, equal_nan=True), X.shape

    def test_solve_wls_products_match_the_broadcast_ones(self, monkeypatch):
        products, per_problem = [], glm._per_problem

        def recording(fn, *args):
            products.append(args)
            return per_problem(fn, *args)

        monkeypatch.setattr(glm, "_per_problem", recording)
        for X, v, z in layout_stacks():
            xtw = np.swapaxes(X, 1, 2) * v[:, None, :]
            with np.errstate(invalid="ignore"):  # the non-finite stack's products
                glm._solve_wls(X, v, z)
                expected = xtw @ X, xtw @ z[..., None]
            gram, rhs = products.pop()
            assert np.array_equal(gram, expected[0], equal_nan=True), X.shape
            assert np.array_equal(rhs, expected[1], equal_nan=True), X.shape
