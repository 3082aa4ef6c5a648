"""Gutenberg-Richter extraction quantities used for cross-study comparison.

Units follow the source figures (events per million cubic meters for the
Oklahoma values); no conversion happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DomainError, _require_finite

_MAX_EXP10 = 300.0


@dataclass(frozen=True)
class GRParams:
    sigma: float  # seismogenic index
    b: float  # magnitude-frequency slope
    mag_complete: float  # magnitude of completeness
    a_tec: float | None = None  # tectonic background term

    def __post_init__(self):
        for name in ("sigma", "b", "mag_complete") + (() if self.a_tec is None else ("a_tec",)):
            _require_finite(name, getattr(self, name))


def _pow10(exponent: float) -> float:
    if exponent > _MAX_EXP10:
        raise DomainError(f"10^{exponent:g} overflows")
    return 10.0**exponent


def gr_rate_factor(p: GRParams) -> float:
    """Events per unit injected volume: 10^(sigma - b*M)."""
    return _pow10(p.sigma - p.b * p.mag_complete)


def gr_expected_count(p: GRParams, volume: float) -> float:
    """Background plus volume-driven events: 10^(a_tec - b*M) + V * 10^(sigma - b*M), for a finite real V >= 0."""
    if p.a_tec is None:
        raise DomainError("a_tec is required for the expected count")
    _require_finite("volume", volume)
    if volume < 0:
        raise DomainError(f"volume must be >= 0, got {volume!r}")
    count = _pow10(p.a_tec - p.b * p.mag_complete) + volume * gr_rate_factor(p)
    if not math.isfinite(count):
        raise DomainError(f"expected count at volume {volume!r} overflows")
    return count
