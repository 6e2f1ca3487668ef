"""Series-coefficient families built by series division.

Two families of moment polynomials recur throughout the Laplacian and the
constraint operators:

* ``S_m`` -- ``m!`` times the ``tau^m`` coefficient of the reciprocal series
  ``(sum_l r_l tau^l / r0)^(-1)``;
* ``R_m`` -- the ``z^(2m)`` coefficient of the ratio
  ``(sum_l r_l z^(2l) / (3+2l)) / (sum_l r_l z^(2l))``.

Both are built here by series division on the ring's packed keys: each
earlier coefficient enters shifted by ``r_k / r0``, one integer added to each
of its keys, and is summed into one integer accumulator over one lcm.
Each coefficient is cached as the ``MomentPoly`` that ``reciprocal_coefficient``
and ``resolvent_coefficient`` return. Their closed forms as partial
Bell-polynomial sums live in the tests, as independent oracles.
``resolvent_coefficient_t``, the paper's ``R^t_m``, is ``(2m-1)!!`` times
``R_m`` converted to ``t``; the Laplacian never uses it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from taulap.ring import (
    _UNIT_OFFSET,
    MomentPoly,
    RingError,
    SlotOverflow,
    _slot,
    convert,
    double_factorial,
)


def _divided(acc: dict[int, int], den: int, lower: list[MomentPoly], weights: list[int]) -> MomentPoly:
    """``acc / den + sum_{k=1..m} weights[k-1] (r_k/r0) lower[m-k]``, with ``m = len(lower)``.

    The terms are summed into ``acc`` as integers over ``den``, a multiple of
    every denominator in ``lower``, and the sum is reduced by one gcd.
    """
    m = len(lower)
    get = acc.get
    for k in range(1, m + 1):
        shift = _slot(k) - 1  # r_k / r0
        r = lower[m - k]
        mult = weights[k - 1] * (den // r.den)
        for code, n in r.packed.items():
            code += shift
            acc[code] = get(code, 0) + n * mult
    return MomentPoly._from_packed(acc, den)


def _checked(m: int) -> None:
    # a term of index m has m variable factors over unit^m at most
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m > _UNIT_OFFSET:
        raise SlotOverflow(f"series index {m} does not fit the packed keys' slots")


@lru_cache(maxsize=None)
def _reciprocal(m: int) -> MomentPoly:
    if m == 0:
        return MomentPoly.one()
    lower = [_reciprocal(j) for j in range(m)]
    weights = [-(factorial(m) // factorial(m - k)) for k in range(1, m + 1)]
    return _divided({}, lcm(*(p.den for p in lower)), lower, weights)


@lru_cache(maxsize=None)
def _resolvent(m: int) -> MomentPoly:
    if m == 0:
        return MomentPoly.constant(Fraction(1, 3))
    lower = [_resolvent(j) for j in range(m)]
    den = lcm(3 + 2 * m, *(p.den for p in lower))
    # N_m / r0 = r_m / ((3+2m) r0)
    return _divided({_UNIT_OFFSET + _slot(m) - 1: den // (3 + 2 * m)}, den, lower, [-1] * m)


def reciprocal_coefficient(m: int) -> MomentPoly:
    """``S_m``, from the series division ``r0 S_m = -sum_k m!/(m-k)! r_k S_{m-k}``.

    Its terms, ``k = 1..m``, are summed as integers over one lcm.
    """
    _checked(m)
    return _reciprocal(m)


def resolvent_coefficient(m: int) -> MomentPoly:
    """``R_m`` in moment variables, from ``r0 R_m = N_m - sum_k r_k R_{m-k}``.

    ``N_m = r_m / (3+2m)`` is the numerator series (``N_0 = r0 / 3``). Its
    terms, ``N_m`` then ``k = 1..m``, are summed as integers over one lcm.
    """
    _checked(m)
    return _resolvent(m)


def resolvent_coefficient_t(m: int) -> MomentPoly:
    """``R^t_m = (2m-1)!! R_m`` in the rescaled form, ``r_l = -t_{l+1} / (2l+1)!!``."""
    return convert(resolvent_coefficient(m), "rho", "t").scale(double_factorial(2 * m - 1))
