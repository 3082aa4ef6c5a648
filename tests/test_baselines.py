"""Gutenberg-Richter extraction quantities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longicausal.baselines import GRParams, gr_expected_count, gr_rate_factor
from longicausal.exceptions import DomainError


def round_sig(x, digits=4):
    if x == 0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exp)


CENTRAL_OK = GRParams(sigma=-0.47, b=1.41, mag_complete=3.0)
WEST_OK = GRParams(sigma=-0.63, b=1.33, mag_complete=3.0)


class TestRateFactor:
    def test_central_oklahoma_value(self):
        assert round_sig(gr_rate_factor(CENTRAL_OK)) == 1.995e-5

    def test_west_oklahoma_value(self):
        assert round_sig(gr_rate_factor(WEST_OK)) == 2.399e-5

    def test_all_zero_params(self):
        assert gr_rate_factor(GRParams(sigma=0.0, b=0.0, mag_complete=0.0)) == 1.0

    def test_overflow_guarded(self):
        with pytest.raises(DomainError):
            gr_rate_factor(GRParams(sigma=400.0, b=0.0, mag_complete=0.0))

    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
    def test_strictly_decreasing_in_magnitude(self, mag, b):
        lo = gr_rate_factor(GRParams(sigma=-0.5, b=b, mag_complete=mag))
        hi = gr_rate_factor(GRParams(sigma=-0.5, b=b, mag_complete=mag + 0.5))
        assert hi < lo


class TestExpectedCount:
    def test_zero_volume_is_intercept(self):
        p = GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=1.2)
        assert gr_expected_count(p, 0.0) == pytest.approx(10.0 ** (1.2 - 1.41 * 3.0), rel=1e-12)

    def test_vanishing_intercept_reduces_to_slope(self):
        p = GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=-100.0)
        v = 1e6
        assert gr_expected_count(p, v) == pytest.approx(gr_rate_factor(p) * v, abs=1e-12)

    def test_combined_value(self):
        p = GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=0.0)
        got = gr_expected_count(p, 1e6)
        assert got == pytest.approx(10.0 ** (-4.23) + 19.95, abs=5e-3)
        assert round_sig(gr_rate_factor(p) * 1e6, 4) == 19.95

    def test_affine_slope_matches_rate_factor(self):
        p = GRParams(sigma=-0.63, b=1.33, mag_complete=3.0, a_tec=0.7)
        v1, v2 = 2e5, 9e5
        slope = (gr_expected_count(p, v2) - gr_expected_count(p, v1)) / (v2 - v1)
        assert slope == pytest.approx(gr_rate_factor(p), rel=1e-12)

    def test_missing_a_tec_rejected(self):
        with pytest.raises(DomainError, match="a_tec"):
            gr_expected_count(CENTRAL_OK, 1e6)

    def test_negative_volume_rejected(self):
        p = GRParams(sigma=0.0, b=0.0, mag_complete=0.0, a_tec=0.0)
        with pytest.raises(DomainError, match=r"^volume must be >= 0, got -5\.0$"):
            gr_expected_count(p, -5.0)
        assert gr_expected_count(p, -0.0) == 1.0

    def test_infinite_count_rejected(self):
        p = GRParams(sigma=100.0, b=0.0, mag_complete=0.0, a_tec=0.0)
        with pytest.raises(DomainError, match="overflows"):
            gr_expected_count(p, 1e300)
        assert gr_expected_count(p, 1e200) == 1e300 + 1.0

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            GRParams(sigma=0.0, b=float("nan"), mag_complete=0.0)
        # only a_tec may be None; a field that is not a real number is named
        with pytest.raises(DomainError, match="^sigma must be a real number, got None$"):
            GRParams(sigma=None, b=1.0, mag_complete=3.0)
        with pytest.raises(DomainError, match="^sigma must be a real number, got '1'$"):
            GRParams(sigma="1", b=1.0, mag_complete=3.0)
        for name, value in (("sigma", True), ("b", False), ("mag_complete", True), ("a_tec", False)):
            with pytest.raises(DomainError, match=f"^{name} must be a real number, got {value}$"):
                GRParams(**{"sigma": 1.0, "b": 1.0, "mag_complete": 3.0, "a_tec": 0.0, name: value})
        assert GRParams(sigma=1, b=np.float64(1.0), mag_complete=3.0).a_tec is None
        p = GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=0.0)
        for volume, shown in ((True, "True"), (False, "False"), ("x", "'x'"), (None, "None")):
            with pytest.raises(DomainError, match=f"^volume must be a real number, got {shown}$"):
                gr_expected_count(p, volume)
        assert gr_expected_count(p, 1) == gr_expected_count(p, np.float64(1.0))

    @pytest.mark.parametrize(
        "name, call",
        [
            ("sigma", lambda: GRParams(sigma=math.nan, b=1.41, mag_complete=3.0)),
            ("b", lambda: GRParams(sigma=-0.47, b=math.inf, mag_complete=3.0)),
            ("mag_complete", lambda: GRParams(sigma=-0.47, b=1.41, mag_complete=-math.inf)),
            ("a_tec", lambda: GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=math.nan)),
            ("volume", lambda: gr_expected_count(GRParams(sigma=-0.47, b=1.41, mag_complete=3.0, a_tec=0.0), math.nan)),
        ],
    )
    def test_non_finite_input_named(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            call()
