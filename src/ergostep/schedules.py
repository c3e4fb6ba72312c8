"""Step and weight sequences with closed-form partial sums.

Power-law steps have Gamma_n = gamma1 * S(xi, n) and the auxiliary clock
H_{gamma^r,n} = sum_{k<=n} gamma_k^r is gamma1^r * S(xi*r, n) (``power_h``),
where S(s, n) = sum_{k<=n} k^(-s); constant steps give n * gamma1 and
n * gamma1^r.  Proportional and trapezoidal H_n are exact identities in
Gamma_n.  ``_power_sum`` adds the first ``_HEAD`` terms with ``math.fsum``
and the rest by an Euler-Maclaurin tail, so every partial sum costs the
same small, fixed work and memory at any n, and the schedules hold no state
beyond their parameters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

STEP_KINDS = ("power_law", "constant")
WEIGHT_KINDS = ("proportional", "trapezoidal")

# terms summed exactly; past it the Euler-Maclaurin remainder is below 1e-27
_HEAD = 1024
# B_2j / (2j)! for j = 1..4
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)


def _power_sum(s: float, n: int) -> float:
    """S(s, n) = sum_{k=1}^{n} k^(-s) for n >= 0."""
    head = math.fsum(np.arange(1.0, min(n, _HEAD) + 1.0) ** -s)
    if n <= _HEAD:
        return head
    # integral of x^(-s) over [K, n], written to stay accurate as s -> 1
    log_ratio = math.log1p((n - _HEAD) / _HEAD)
    if s == 1.0:
        integral = log_ratio
    else:
        integral = _HEAD ** (1.0 - s) * math.expm1((1.0 - s) * log_ratio) / (1.0 - s)
    terms = [head, integral, (n ** -s - _HEAD ** -s) / 2.0]
    # odd derivatives f^(2j-1)(x) = -s(s+1)...(s+2j-2) x^(-s-2j+1)
    rising = s
    for j, coeff in enumerate(_EM_COEFFS, 1):
        e = s + 2 * j - 1
        terms.append(-coeff * rising * (n ** -e - _HEAD ** -e))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


@dataclass(frozen=True)
class StepSchedule:
    """Decreasing (or constant) step sequence gamma_n with partial sums Gamma_n.

    ``power_law``: gamma_n = gamma1 * n**(-xi), xi in (0, 1).
    ``constant``:  gamma_n = gamma1.

    ``gamma1`` doubles as the step cap: both families satisfy
    sup_n gamma_n = gamma1.
    """

    kind: str
    gamma1: float
    xi: float = 0.0

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown step kind {self.kind!r}")
        if not self.gamma1 > 0:
            raise ValueError("gamma1 must be positive")
        if self.kind == "power_law" and not 0.0 < self.xi < 1.0:
            raise ValueError("power_law exponent xi must lie in (0, 1)")

    def gamma_block(self, start: int, stop: int) -> np.ndarray:
        """Vector of gamma_n for n in [start, stop)."""
        ns = np.arange(start, stop, dtype=np.float64)
        if self.kind == "constant":
            return np.full(stop - start, self.gamma1)
        return self.gamma1 * ns ** (-self.xi)

    def big_gamma(self, n: int) -> float:
        """Gamma_n = sum_{k<=n} gamma_k, with Gamma_0 = 0."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if self.kind == "constant":
            return n * self.gamma1
        return self.gamma1 * _power_sum(self.xi, n)


@dataclass(frozen=True)
class WeightSchedule:
    """Weight sequence eta_n over a reference step schedule, with sums H_n.

    ``proportional``: eta_n = gamma_n, so H_n = Gamma_n exactly.
    ``trapezoidal``:  eta_n = (gamma_{n-1} + gamma_n) / 2 with gamma_0 = 0;
                      telescoping gives H_n = (Gamma_n + Gamma_{n-1}) / 2,
                      which is how H_n is evaluated (the identity is exact).
    """

    kind: str
    reference: StepSchedule

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def eta_block(self, start: int, stop: int) -> np.ndarray:
        g = self.reference
        cur = g.gamma_block(start, stop)
        if self.kind == "proportional":
            return cur
        if start == 1:
            prev = np.concatenate([[0.0], g.gamma_block(1, stop - 1)])
        else:
            prev = g.gamma_block(start - 1, stop - 1)
        return (prev + cur) / 2.0

    def big_h(self, n: int) -> float:
        """H_n = sum_{k<=n} eta_k (n >= 1; H_0 = 0 for convenience)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        g = self.reference
        if self.kind == "proportional":
            return g.big_gamma(n)
        if n == 0:
            return 0.0
        return (g.big_gamma(n) + g.big_gamma(n - 1)) / 2.0


def power_h(step: StepSchedule, r: float, n: int) -> float:
    """H_{gamma^r,n} = sum_{k<=n} gamma_k^r (n >= 0), the auxiliary clock
    that sets the order-q bias scale at r = q + 1.  gamma1^r must be a
    normal float: Python's ** raises OverflowError past the top of the
    range, and an underflow raises ValueError, where the clock would
    otherwise read zero."""
    if n < 0:
        raise ValueError("n must be >= 0")
    gamma1_r = step.gamma1 ** r
    if not gamma1_r >= sys.float_info.min:
        raise ValueError(f"step.gamma1 = {step.gamma1!r} is too small: gamma1^{r!r} underflows "
                         f"the auxiliary clock sum gamma_k^{r!r}")
    if step.kind == "constant":
        return n * gamma1_r
    return gamma1_r * _power_sum(step.xi * r, n)
