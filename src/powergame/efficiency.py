"""Block-success efficiency functions and their characteristic SINRs.

The efficiency function maps a post-detection SINR to the probability that
a data block is received correctly.  It must be sigmoidal: strictly
increasing from 0 to 1 with a single inflection point on x > 0.  Two SINR
levels derived from it drive everything else in the package:

* ``beta_star``   -- the root of x f'(x) - f(x) = 0, the per-link SINR a
  selfish energy-efficiency maximizer targets.
* ``gamma_tilde`` -- the root of x [1 - (k-1) x] f'(x) - f(x) = 0, the SINR
  every member of a k-player equal-received-power profile realizes.

For f(x) = exp(-a/x), x f'(x) = (a/x) f(x), so both roots are closed
forms: beta_star = a and gamma_tilde(k) = a / (1 + (k-1) a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExponentialEfficiency:
    """Efficiency f(x) = exp(-a / x) for x > 0, extended by f(0) = 0.

    ``a`` is dimensionless and positive.  When the efficiency is derived
    from a transmission rate ``R`` (bit/s), use ``from_rate``, which sets
    a = 2**R - 1.
    """

    a: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"efficiency parameter a must be positive, got {self.a}")

    @classmethod
    def from_rate(cls, rate: float) -> "ExponentialEfficiency":
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        try:
            return cls(a=2.0 ** rate - 1.0)
        except OverflowError:
            raise ValueError(f"2**rate - 1 is not a finite float for rate {rate}") from None

    def value(self, x):
        """f(x); accepts scalars or arrays, x >= 0 (x = 0 and NaN map to 0,
        and so does an x whose -a/x overflows, where 0 is the exact limit)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("SINR must be nonnegative")
        # exp(-a/x) where x > 0 and 0 elsewhere: a tiny x (5e-324 at a = 0.1)
        # overflows -a/x to -inf, so exp gives 0, and the dropped 0 and -0.0
        # divide by zero
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(x > 0, np.exp(np.divide(-self.a, x)), 0.0)
        return out if out.ndim else float(out)


def beta_star(eff) -> float:
    """SINR target of a selfish energy-efficiency maximizer: the root of
    x f'(x) - f(x) = 0, which is ``a`` exactly."""
    return float(eff.a)


def gamma_tilde(eff, k: int) -> float:
    """Per-player SINR of the k-player equal-received-power profile.

    Root of x [1 - (k-1) x] f'(x) - f(x) = 0, i.e. a / (1 + (k-1) a).
    Reduces to ``beta_star`` for k = 1, and is strictly decreasing in k.
    """
    if k < 1:
        raise ValueError(f"player count must be >= 1, got {k}")
    return eff.a / (1.0 + (int(k) - 1) * eff.a)
