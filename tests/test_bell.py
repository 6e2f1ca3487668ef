"""Bell polynomials and series-coefficient families against independent oracles."""

from fractions import Fraction
from math import comb, factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    InsufficientArguments,
    bell,
    reciprocal_by_division,
    rescaled_resolvent_by_division,
    resolvent_by_division,
    weight,
)
from taulap.bell import (
    reciprocal_coefficient,
    resolvent_coefficient,
    resolvent_coefficient_t,
)
from taulap.ring import MomentPoly, double_factorial

F = Fraction


# -- Bell polynomial against the sympy oracle ---------------------------------

def test_bell_matches_sympy_oracle() -> None:
    syms = sympy.symbols("x1:10")
    for n in range(0, 9):
        for k in range(0, n + 1):
            xs = [F(i + 2, 2 * i + 1) for i in range(n - k + 1)]
            ours = bell(n, k, xs)
            theirs = sympy.bell(n, k, syms[: max(n - k + 1, 1)]).subs(
                {s: sympy.Rational(x) for s, x in zip(syms, xs)}
            )
            assert sympy.Rational(ours) == theirs


def test_bell_boundary_cases() -> None:
    assert bell(0, 0, []) == 1
    assert bell(3, 0, []) == 0
    assert bell(0, 2, []) == 0
    assert bell(4, 6, [1] * 10) == 0
    with pytest.raises(InsufficientArguments):
        bell(5, 2, [F(1), F(2)])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=9),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
             min_size=10, max_size=10),
)
def test_bell_index_shift_identity(n: int, k: int, xs: list) -> None:
    """sum_j C(n,j) x_j B_{n-j,k} = (k+1) B_{n,k+1} for generic arguments."""
    if k + 1 > n:
        left = sum(comb(n, j) * xs[j - 1] * bell(n - j, k, xs) for j in range(1, n - k + 1)) if n - k >= 1 else 0
        assert left == 0 == (k + 1) * bell(n, k + 1, xs)
        return
    left = sum(comb(n, j) * xs[j - 1] * bell(n - j, k, xs) for j in range(1, n - k + 1))
    assert left == (k + 1) * bell(n, k + 1, xs)


# -- reciprocal-series coefficients S_m ----------------------------------------

def _reciprocal_bell_oracle(m: int) -> MomentPoly:
    """S_m as the Bell-polynomial sum sum_i (-1)^i i! B_{m,i}(1! r_1, 2! r_2, ...) / r0^i."""
    if m == 0:
        return MomentPoly.one()
    xs = [MomentPoly.variable(i).scale(factorial(i)) for i in range(1, m + 1)]
    total = MomentPoly.zero()
    for i in range(1, m + 1):
        sign = -1 if i % 2 else 1
        total = total + (bell(m, i, xs) * MomentPoly.unit_power(-i)).scale(sign * factorial(i))
    return total


def test_reciprocal_coefficients_match_bell_oracle() -> None:
    for m in range(9):
        assert reciprocal_coefficient(m) == _reciprocal_bell_oracle(m)


def test_reciprocal_coefficients_frozen() -> None:
    assert reciprocal_coefficient(0) == MomentPoly.one()
    assert reciprocal_coefficient(1) == MomentPoly({(-1, 1): -1})
    assert reciprocal_coefficient(2) == MomentPoly({(-2, 2): 2, (-1, 0, 1): -2})


def test_reciprocal_is_series_inverse() -> None:
    """(sum_m S_m tau^m / m!) * (sum_l r_l tau^l) = r0 order by order."""
    mmax = 7
    for order in range(1, mmax + 1):
        total = MomentPoly.zero()
        for j in range(order + 1):
            total = total + reciprocal_coefficient(j).scale(
                F(1, factorial(j))
            ) * MomentPoly.variable(order - j)
        assert total.is_zero, f"order {order} fails"


# -- resolvent-series coefficients R_m -----------------------------------------

def _resolvent_bell_oracle(m: int) -> MomentPoly:
    """R_m = -(2/3) sum_k k/(3+2k) r_k/r0 S_{m-k}/(m-k)!, with S from its Bell sum."""
    if m == 0:
        return MomentPoly.constant(F(1, 3))
    total = MomentPoly.zero()
    for k in range(1, m + 1):
        factor = MomentPoly.monomial((-1,) + (0,) * (k - 1) + (1,), F(k, 3 + 2 * k))
        total = total + (factor * _reciprocal_bell_oracle(m - k)).scale(F(1, factorial(m - k)))
    return total.scale(F(-2, 3))


def _resolvent_t_bell_oracle(m: int) -> MomentPoly:
    """R_m in the rescaled form, from its own Bell-sum display."""
    if m == 0:
        return MomentPoly.constant(F(1, 3))
    xs = [
        MomentPoly.monomial((-1,) + (0,) * (j - 1) + (1,), F(factorial(j), double_factorial(2 * j + 1)))
        for j in range(1, m + 1)
    ]
    total = MomentPoly.zero()
    for k in range(1, m + 1):
        outer = MomentPoly.monomial(
            (-1,) + (0,) * (k - 1) + (1,),
            F(double_factorial(2 * m - 1) * k, double_factorial(2 * k + 3)),
        )
        inner = MomentPoly.zero()
        for l in range(m - k + 1):
            inner = inner + MomentPoly.one() * bell(m - k, l, xs) * F(factorial(l), factorial(m - k))
        total = total + outer * inner
    return total.scale(F(2, 3))


def test_resolvent_coefficients_match_bell_oracle() -> None:
    for m in range(9):
        assert resolvent_coefficient(m) == _resolvent_bell_oracle(m)


def test_resolvent_display_form_matches_bell_oracle() -> None:
    for m in range(9):
        assert resolvent_coefficient_t(m) == _resolvent_t_bell_oracle(m)


def test_resolvent_coefficients_frozen() -> None:
    assert resolvent_coefficient(0) == MomentPoly.constant(F(1, 3))
    assert resolvent_coefficient(1) == MomentPoly({(-1, 1): F(-2, 15)})
    assert resolvent_coefficient(2) == MomentPoly({
        (-2, 2): F(2, 15), (-1, 0, 1): F(-4, 21),
    })
    assert resolvent_coefficient(3) == MomentPoly({
        (-3, 3): F(-2, 15), (-2, 1, 1): F(34, 105), (-1, 0, 0, 1): F(-2, 9),
    })


def _same_poly(got: MomentPoly, want: MomentPoly) -> bool:
    """Equal numerators in the same key order over the same denominator."""
    return list(got.nums.items()) == list(want.nums.items()) and got.den == want.den


def test_resolvent_coefficients_match_ring_division() -> None:
    """The integer accumulator keeps the values and key order of one ring sum per term."""
    for m in range(31):
        assert _same_poly(resolvent_coefficient(m), resolvent_by_division(m)), m


def test_reciprocal_coefficients_match_ring_division() -> None:
    """The integer accumulator keeps the values and key order of one ring sum per term."""
    for m in range(26):
        assert _same_poly(reciprocal_coefficient(m), reciprocal_by_division(m)), m


def test_resolvent_display_form_matches_converted_form() -> None:
    """``(2m-1)!! convert(R_m)`` against the division written in the rescaled variables."""
    for m in range(31):
        assert _same_poly(resolvent_coefficient_t(m), rescaled_resolvent_by_division(m)), m


def test_resolvent_weights() -> None:
    for m in range(6):
        assert weight(resolvent_coefficient(m)) == m
        assert weight(reciprocal_coefficient(m)) == m
