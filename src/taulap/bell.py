"""Series-coefficient families built by series division.

Two families of moment polynomials recur throughout the Laplacian and the
constraint operators:

* ``S_m`` -- ``m!`` times the ``tau^m`` coefficient of the reciprocal series
  ``(sum_l r_l tau^l / r0)^(-1)``;
* ``R_m`` -- the ``z^(2m)`` coefficient of the ratio
  ``(sum_l r_l z^(2l) / (3+2l)) / (sum_l r_l z^(2l))``.

Both are built here by series division on packed keys (``ring._shift``):
each earlier coefficient enters as one integer shift by the key of
``r_k / r0`` per term, summed into one integer accumulator over one lcm.
Only the packed form is cached; ``reciprocal_coefficient``,
``resolvent_coefficient`` and ``resolvent_coefficient_t`` return
``MomentPoly`` views of it, built on each call. Their closed forms as
partial Bell-polynomial sums live in the tests, as independent oracles. The
rescaled ``R^t_m`` is ``(2m-1)!!`` times ``R_m`` converted to ``t``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd, lcm

from taulap.ring import (
    _UNIT_OFFSET,
    MomentPoly,
    RingError,
    SlotOverflow,
    _over_unit,
    _shift,
    _unpack,
    convert,
    double_factorial,
)

# A coefficient in packed integers: (denominator, {key shift: numerator}),
# reduced, with no zero numerators, in the key order of the ring's sum.
_Packed = tuple[int, dict[int, int]]


def _divided(acc: dict[int, int], den: int, lower: list[_Packed], weights: list[int]) -> _Packed:
    """``acc / den + sum_{k=1..m} weights[k-1] (r_k/r0) lower[m-k]``, with ``m = len(lower)``.

    The terms are summed into ``acc`` as integers over ``den``, a multiple of
    every denominator in ``lower``, and the sum is reduced by one gcd.
    """
    m = len(lower)
    get = acc.get
    for k in range(1, m + 1):
        shift = _shift(_over_unit(k))
        r_den, r = lower[m - k]
        mult = weights[k - 1] * (den // r_den)
        for code, n in r.items():
            code += shift
            acc[code] = get(code, 0) + n * mult
    nums = {code: n for code, n in acc.items() if n}
    common = gcd(den, *nums.values())
    if common != 1:
        nums = {code: n // common for code, n in nums.items()}
    return den // common, nums


def _checked(m: int) -> None:
    # a term of index m has m variable factors over unit^m at most
    if m < 0:
        raise RingError("series index must be nonnegative")
    if m > _UNIT_OFFSET:
        raise SlotOverflow(f"series index {m} does not fit the packed keys' slots")


def _view(packed: _Packed) -> MomentPoly:
    den, nums = packed
    return MomentPoly.from_numerators(
        {_unpack(_UNIT_OFFSET + code): n for code, n in nums.items()}, den)


@lru_cache(maxsize=None)
def _reciprocal(m: int) -> _Packed:
    if m == 0:
        return 1, {0: 1}
    lower = [_reciprocal(j) for j in range(m)]
    weights = [-(factorial(m) // factorial(m - k)) for k in range(1, m + 1)]
    return _divided({}, lcm(*(den for den, _ in lower)), lower, weights)


@lru_cache(maxsize=None)
def _resolvent(m: int) -> _Packed:
    if m == 0:
        return 3, {0: 1}
    lower = [_resolvent(j) for j in range(m)]
    den = lcm(3 + 2 * m, *(den for den, _ in lower))
    return _divided({_shift(_over_unit(m)): den // (3 + 2 * m)}, den, lower, [-1] * m)


def reciprocal_coefficient(m: int) -> MomentPoly:
    """``S_m``, from the series division ``r0 S_m = -sum_k m!/(m-k)! r_k S_{m-k}``.

    Its terms, ``k = 1..m``, are summed as integers over one lcm.
    """
    _checked(m)
    return _view(_reciprocal(m))


def resolvent_coefficient(m: int) -> MomentPoly:
    """``R_m`` in moment variables, from ``r0 R_m = N_m - sum_k r_k R_{m-k}``.

    ``N_m = r_m / (3+2m)`` is the numerator series (``N_0 = r0 / 3``). Its
    terms, ``N_m`` then ``k = 1..m``, are summed as integers over one lcm.
    """
    _checked(m)
    return _view(_resolvent(m))


def resolvent_coefficient_t(m: int) -> MomentPoly:
    """``R^t_m = (2m-1)!! R_m`` in the rescaled form, ``r_l = -t_{l+1} / (2l+1)!!``."""
    return convert(resolvent_coefficient(m), "rho", "t").scale(double_factorial(2 * m - 1))
