"""Series-coefficient families built by series division.

Two families of moment polynomials recur throughout the Laplacian and the
constraint operators:

* ``S_m`` -- ``m!`` times the ``tau^m`` coefficient of the reciprocal series
  ``(sum_l r_l tau^l / r0)^(-1)``;
* ``R_m`` -- the ``z^(2m)`` coefficient of the ratio
  ``(sum_l r_l z^(2l) / (3+2l)) / (sum_l r_l z^(2l))``.

Both are built here by series division, one multiplication by a single
variable per earlier coefficient; their closed forms as partial
Bell-polynomial sums live in the tests, as independent oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from taulap.ring import MomentPoly, RingError, double_factorial


def _over_unit(index: int) -> MomentPoly:
    """``v_index / unit`` for a variable index ``>= 1``."""
    return MomentPoly.monomial((-1,) + (0,) * (index - 1) + (1,))


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
        out = out + (_over_unit(k) * reciprocal_coefficient(m - k)).scale(scalar)
    return out


@lru_cache(maxsize=None)
def resolvent_coefficient(m: int) -> MomentPoly:
    """``R_m`` in moment variables, from ``r0 R_m = N_m - sum_k r_k R_{m-k}``.

    ``N_m = r_m / (3+2m)`` is the numerator series (``N_0 = r0 / 3``).
    """
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m == 0:
        return MomentPoly.constant(Fraction(1, 3))
    out = _over_unit(m).scale(Fraction(1, 3 + 2 * m))
    for k in range(1, m + 1):
        out = out - _over_unit(k) * resolvent_coefficient(m - k)
    return out


@lru_cache(maxsize=None)
def resolvent_coefficient_t(m: int) -> MomentPoly:
    """``R_m`` in the rescaled display form whose natural unit is ``T0``.

    Equal to ``(2m-1)!! * convert(resolvent_coefficient(m), "rho", "t")``.
    Built by the same division written in the rescaled variables
    (``r_l = -t_{l+1} / (2l+1)!!``, slot ``l`` holding ``t_{l+1}``)::

        T0 R_m = -(2m-1)!!/(2m+3)!! t_{m+1}
                 + sum_k (2m-1)!! / ((2k+1)!! (2m-2k-1)!!) t_{k+1} R_{m-k}
    """
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m == 0:
        return MomentPoly.constant(Fraction(1, 3))
    top = double_factorial(2 * m - 1)
    out = _over_unit(m).scale(Fraction(-top, double_factorial(2 * m + 3)))
    for k in range(1, m + 1):
        scalar = Fraction(top, double_factorial(2 * k + 1) * double_factorial(2 * (m - k) - 1))
        out = out + (_over_unit(k) * resolvent_coefficient_t(m - k)).scale(scalar)
    return out
