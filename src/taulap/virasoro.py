"""Virasoro-type constraints satisfied by the stable partition series.

The stable partition function is organised as a genus-graded series whose
order-``k`` coefficient is the degree-``k`` part of ``exp(sum_{g>=2} F_g)``.
Each constraint operator splits into a first-order raising part ``A_n``
(grade-preserving) and a second-order quadratic part ``B_n`` (grade-raising),
and the constraint holds iff every graded residual

    r_k = A_n(c_k) + (1/4) B_n(c_{k-1})

vanishes identically as a moment polynomial.  The first-order parts satisfy
the Witt bracket ``[A_m, A_n] = (m - n) A_{m+n}`` on arbitrary arguments,
which is exposed for testing via :func:`witt_defect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from taulap.laplacian import stable_partition
from taulap.ring import MomentPoly, RingError

F = Fraction


def raising_part(n: int, p: MomentPoly) -> MomentPoly:
    """First-order part ``A_n = sum_{j>=n} (3+2j)/2 rho_{j-n} d/d rho_j``."""
    if n < 0:
        raise RingError("constraint label must be nonnegative")
    out = MomentPoly.zero()
    for j in sorted(p.moment_support()):
        if j < n:
            continue
        d = p.partial(j)
        if d.is_zero:
            continue
        out = out + (MomentPoly.variable(j - n) * d).scale(F(3 + 2 * j, 2))
    return out


def _quadratic_one(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    support = sorted(p.moment_support())
    for k in support:
        dk = p.partial(k)
        if dk.is_zero:
            continue
        for l in sorted(dk.moment_support() | {0}):
            dkl = dk.partial(l)
            if dkl.is_zero:
                continue
            coeff = (MomentPoly.monomial((-2,) + (0,) * k + (1,)) * MomentPoly.variable(l + 1)).scale(
                (3 + 2 * k) * (3 + 2 * l)
            )
            out = out + coeff * dkl
        linear = (MomentPoly.monomial((-3, 1), F(-13, 4)) * MomentPoly.variable(k + 1)
                  + MomentPoly.monomial((-2,) + (0,) * (k + 1) + (1,), 5 + 2 * k))
        out = out + (linear * dk).scale(3 + 2 * k)
    constant = (MomentPoly.monomial((-4, 1), F(49, 64)) * MomentPoly.variable(1)
                + MomentPoly.monomial((-3, 0, 1), F(-5, 8)))
    return out + constant * p


def _quadratic_two(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    for k in sorted(p.moment_support()):
        dk = p.partial(k)
        if dk.is_zero:
            continue
        dk0 = dk.partial(0)
        if not dk0.is_zero:
            out = out + (MomentPoly.monomial((-1,) + (0,) * k + (1,)) * dk0).scale(-6 * (3 + 2 * k))
        if k >= 1:
            out = out + (MomentPoly.monomial((-2,) + (0,) * k + (1,)) * dk).scale(F(25 * (3 + 2 * k), 4))
    d0 = p.partial(0)
    if not d0.is_zero:
        out = out + (MomentPoly.monomial((-2, 1)) * d0).scale(F(39, 2))
    return out + MomentPoly.monomial((-3, 1), F(-49, 32)) * p


def _quadratic_three(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    d0 = p.partial(0)
    if not d0.is_zero:
        d00 = d0.partial(0)
        if not d00.is_zero:
            out = out + d00.scale(9)
        out = out + (MomentPoly.unit_power(-1) * d0).scale(F(-123, 4))
    for k in sorted(p.moment_support()):
        dk = p.partial(k)
        if dk.is_zero:
            continue
        dk1 = dk.partial(1)
        if not dk1.is_zero:
            out = out + (MomentPoly.monomial((-1,) + (0,) * k + (1,)) * dk1).scale(-10 * (3 + 2 * k))
    d1 = p.partial(1)
    if not d1.is_zero:
        out = out + (MomentPoly.monomial((-2, 1)) * d1).scale(F(5, 4))
    return out + MomentPoly.unit_power(-2).scale(F(105, 64)) * p


def _quadratic_high(n: int, p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    for l in range(0, n - 2):
        dl = p.partial(l)
        if dl.is_zero:
            continue
        d2 = dl.partial(n - 3 - l)
        if not d2.is_zero:
            out = out + d2.scale((3 + 2 * l) * (2 * n - 2 * l - 3))
    dn2 = p.partial(n - 2)
    if not dn2.is_zero:
        for l in sorted(dn2.moment_support() | {0}):
            d2 = dn2.partial(l)
            if d2.is_zero:
                continue
            ratio = MomentPoly.monomial((-1,) + (0,) * l + (1,))
            out = out + (ratio * d2).scale(-2 * (3 + 2 * l) * (2 * n - 1))
        out = out + (MomentPoly.monomial((-2, 1)) * dn2).scale(F(2 * n - 1, 4))
    dn3 = p.partial(n - 3)
    if not dn3.is_zero:
        out = out + (MomentPoly.unit_power(-1) * dn3).scale(
            F(-(2 * n - 3) * (16 * n - 7), 4)
        )
    return out


def quadratic_part(n: int, p: MomentPoly) -> MomentPoly:
    """Grade-raising part ``B_n`` of the constraint operator."""
    if n < 0:
        raise RingError("constraint label must be nonnegative")
    if n == 0:
        return MomentPoly.zero()
    if n == 1:
        return _quadratic_one(p)
    if n == 2:
        return _quadratic_two(p)
    if n == 3:
        return _quadratic_three(p)
    return _quadratic_high(n, p)


def scaling_constraint(p: MomentPoly) -> MomentPoly:
    """The grade-zero constraint (pure raising part with label 0)."""
    return raising_part(0, p)


def witt_defect(m: int, n: int, probe: MomentPoly) -> MomentPoly:
    """``[A_m, A_n] - (m-n) A_{m+n}`` applied to a probe; zero for all probes."""
    first = raising_part(m, raising_part(n, probe))
    second = raising_part(n, raising_part(m, probe))
    straight = raising_part(m + n, probe).scale(m - n)
    return first - second - straight


@dataclass(frozen=True)
class GradedSeries:
    """Genus-graded coefficients ``c_k`` of the stable partition function."""

    orders: tuple[MomentPoly, ...]

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def order(self, k: int) -> MomentPoly:
        if not 0 <= k <= self.max_order:
            raise RingError(f"order {k} outside the computed range")
        return self.orders[k]


@lru_cache(maxsize=None)
def stable_series(gmax: int) -> GradedSeries:
    """Stable partition series with orders ``0..gmax-1``."""
    if gmax < 1:
        raise RingError("need at least genus 1")
    chain = stable_partition()
    orders = [MomentPoly.one()]
    for k in range(1, gmax):
        orders.append(chain.z(k + 1))
    return GradedSeries(tuple(orders))


def constraint_residuals(n: int, series: GradedSeries) -> dict[int, MomentPoly]:
    """Graded residuals ``r_k`` of constraint ``n`` on the series."""
    out: dict[int, MomentPoly] = {}
    for k in range(series.max_order + 1):
        r = raising_part(n, series.order(k))
        if k >= 1:
            r = r + quadratic_part(n, series.order(k - 1)).scale(F(1, 4))
        out[k] = r
    return out


def constraint_satisfied(n: int, series: GradedSeries) -> bool:
    return all(r.is_zero for r in constraint_residuals(n, series).values())
