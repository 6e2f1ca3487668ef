"""Series-coefficient families built by series division.

Two families of moment polynomials recur throughout the Laplacian and the
constraint operators:

* ``S_m`` -- ``m!`` times the ``tau^m`` coefficient of the reciprocal series
  ``(sum_l r_l tau^l / r0)^(-1)``;
* ``R_m`` -- the ``z^(2m)`` coefficient of the ratio
  ``(sum_l r_l z^(2l) / (3+2l)) / (sum_l r_l z^(2l))``.

Both are built here by series division, one multiplication by a single
variable per earlier coefficient; their closed forms as partial
Bell-polynomial sums live in the tests, as independent oracles. The
rescaled ``R^t_m`` is ``(2m-1)!!`` times ``R_m`` converted to ``t``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from taulap.ring import Key, MomentPoly, RingError, _addkey, convert, double_factorial


def _over_unit(index: int) -> Key:
    """The key of ``v_index / unit`` for a variable index ``>= 1``."""
    return (-1,) + (0,) * (index - 1) + (1,)


@lru_cache(maxsize=None)
def reciprocal_coefficient(m: int) -> MomentPoly:
    """``S_m``, from the series division ``r0 S_m = -sum_k m!/(m-k)! r_k S_{m-k}``."""
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m == 0:
        return MomentPoly.one()
    out = MomentPoly.zero()
    for k in range(1, m + 1):
        scalar = -(factorial(m) // factorial(m - k))
        out = out + (MomentPoly.monomial(_over_unit(k)) * reciprocal_coefficient(m - k)).scale(scalar)
    return out


@lru_cache(maxsize=None)
def resolvent_coefficient(m: int) -> MomentPoly:
    """``R_m`` in moment variables, from ``r0 R_m = N_m - sum_k r_k R_{m-k}``.

    ``N_m = r_m / (3+2m)`` is the numerator series (``N_0 = r0 / 3``). Its
    terms, ``N_m`` then ``k = 1..m``, are summed as integers over one lcm.
    """
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m == 0:
        return MomentPoly.constant(Fraction(1, 3))
    lower = [resolvent_coefficient(j) for j in range(m)]
    den = lcm(3 + 2 * m, *(r.den for r in lower))
    acc = {_over_unit(m): den // (3 + 2 * m)}
    get = acc.get
    for k in range(1, m + 1):
        shift = _over_unit(k)
        r = lower[m - k]
        mult = den // r.den
        for key, n in r.nums.items():
            key = _addkey(key, shift)
            acc[key] = get(key, 0) - n * mult
    return MomentPoly.from_numerators(acc, den)


def resolvent_coefficient_t(m: int) -> MomentPoly:
    """``R^t_m = (2m-1)!! R_m`` in the rescaled form, ``r_l = -t_{l+1} / (2l+1)!!``."""
    return convert(resolvent_coefficient(m), "rho", "t").scale(double_factorial(2 * m - 1))
