"""Tests for the graded constraint operators on the stable partition series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import constraint_residuals_by_sums, quadratic_part_by_sums, raising_part_by_sums
from taulap.laplacian import free_energy, stable_partition
from taulap import virasoro
from taulap.ring import MomentPoly, RingError, SlotOverflow, _width
from taulap.virasoro import GradedSeries, constraint_residuals, constraint_satisfied, stable_series


def raising_part(n: int, p: MomentPoly) -> MomentPoly:
    """``A_n p``: the runtime's table of ``A_n`` alone in its accumulator."""
    return virasoro._apply([(1, virasoro._table("A", n, _width(p.packed)), virasoro._listed(p))])


def quadratic_part(n: int, p: MomentPoly) -> MomentPoly:
    """``B_n p``: the runtime's table of ``B_n`` alone in its accumulator."""
    return virasoro._apply([(1, virasoro._table("B", n, _width(p.packed)), virasoro._listed(p))])


def witt_defect(m: int, n: int, probe: MomentPoly) -> MomentPoly:
    """``[A_m, A_n] - (m-n) A_{m+n}`` applied to a probe; zero for all probes."""
    first = raising_part(m, raising_part(n, probe))
    second = raising_part(n, raising_part(m, probe))
    return first - second - raising_part(m + n, probe).scale(m - n)


def test_stable_series_orders():
    series = stable_series(4)
    assert series.max_order == 3
    assert series.order(0) == MomentPoly.one()
    assert series.order(1) == free_energy(2, "rho")
    assert series.order(2) == stable_partition().z(3)
    with pytest.raises(RingError):
        series.order(4)
    with pytest.raises(RingError):
        stable_series(0)


def test_scaling_constraint_kills_free_energies():
    for g in range(2, 7):
        assert raising_part(0, free_energy(g, "rho")).is_zero


def test_scaling_constraint_eigenvalues():
    # each monomial is an eigenvector with eigenvalue sum((3+2j) e_j) / 2
    mono = MomentPoly.monomial((-2, 2), 1)  # rho_1^2 / rho_0^2
    assert raising_part(0, mono) == mono.scale(F(5 * 2 + 3 * (-2), 2))
    mono = MomentPoly.monomial((0, 0, 3), 1)  # rho_2^3
    assert raising_part(0, mono) == mono.scale(F(21, 2))


def test_raising_part_label_validation():
    with pytest.raises(RingError):
        constraint_residuals(-1, stable_series(2))


def test_quadratic_part_grade_zero_vanishes():
    assert quadratic_part(0, free_energy(2, "rho")).is_zero


def test_quadratic_constants_on_unit_argument():
    one = MomentPoly.one()
    b1 = MomentPoly.monomial((-4, 2), F(49, 64)) + MomentPoly.monomial(
        (-3, 0, 1), F(-5, 8)
    )
    assert quadratic_part(1, one) == b1
    assert quadratic_part(2, one) == MomentPoly.monomial((-3, 1), F(-49, 32))
    assert quadratic_part(3, one) == MomentPoly.unit_power(-2).scale(F(105, 64))
    for n in range(4, 9):
        assert quadratic_part(n, one).is_zero


def test_first_order_balances_quadratic_constant():
    # the order-one residual of the first constraint forces the constant term
    balance = raising_part(1, free_energy(2, "rho")).scale(4)
    expected = MomentPoly.monomial((-4, 2), F(-49, 64)) + MomentPoly.monomial(
        (-3, 0, 1), F(5, 8)
    )
    assert balance == expected


def test_all_constraints_vanish_on_stable_series():
    series = stable_series(7)
    for n in range(0, 18):
        assert constraint_satisfied(n, series), f"constraint {n} violated"


def test_residual_grading_structure():
    series = stable_series(3)
    residuals = constraint_residuals(2, series)
    assert sorted(residuals) == [0, 1, 2]
    assert all(r.is_zero for r in residuals.values())


LABELS = range(18)


def test_parts_match_ring_sums_on_stable_series():
    """Both parts equal the ring-product sums on every order, for every label."""
    series = stable_series(8)
    for n in LABELS:
        for c in series.orders:
            assert raising_part(n, c) == raising_part_by_sums(n, c), n
            assert quadratic_part(n, c) == quadratic_part_by_sums(n, c), n
        assert constraint_residuals(n, series) == constraint_residuals_by_sums(n, series.orders), n


def _perturbed(series: GradedSeries) -> GradedSeries:
    noisy = list(series.orders)
    noisy[1] = noisy[1] + MomentPoly.monomial((-5, 3), F(1, 7))
    noisy[2] = noisy[2] + MomentPoly({(-2, 0, 1, 1): F(-3, 5), (1,): 2})
    noisy[4] = noisy[4] + MomentPoly.monomial((0, 0, 0, 0, 0, 2), F(1, 3))
    # every label's raising part sees r_17
    noisy[3] = noisy[3] + MomentPoly.monomial((-2,) + (0,) * 16 + (1,), F(-5, 2))
    return GradedSeries(tuple(noisy))


def test_residuals_match_ring_sums_on_perturbed_series():
    """The nonzero residuals of a perturbed series equal the ring-product sums, label by label."""
    bad = _perturbed(stable_series(8))
    violated = 0
    for n in LABELS:
        got = constraint_residuals(n, bad)
        assert got == constraint_residuals_by_sums(n, bad.orders), n
        violated += any(not r.is_zero for r in got.values())
    assert violated == len(LABELS)


def _with_term(series: GradedSeries, k: int, key: tuple[int, ...]) -> GradedSeries:
    orders = list(series.orders)
    orders[k] = orders[k] + MomentPoly.monomial(key, F(2, 3))
    return GradedSeries(tuple(orders))


# a key, and the labels whose tables would take it out of its slot: A_n raises
# a variable by one, B_1 by two, and B_1..B_3 lower the unit by up to four
@pytest.mark.parametrize("key, labels", [
    ((0, 255), range(4)), ((-127,), range(4)), ((-125, 1), range(1, 4)), ((0, 0, 254), [1])])
def test_residuals_raise_slot_overflow_before_a_key_could_wrap(key, labels):
    """An order whose exponents plus its tables' largest shifts leave an 8-bit slot raises."""
    bad = _with_term(stable_series(4), 2, key)
    for n in labels:
        with pytest.raises(SlotOverflow):
            constraint_residuals(n, bad)


def test_residuals_near_the_slot_edges_match_ring_sums():
    """Exponents that fit with the largest shift give the ring-product sums, not a wrapped key."""
    bad = _with_term(_with_term(stable_series(4), 1, (-122, 250)), 2, (-121, 0, 1, 0, 250))
    for n in LABELS:
        assert constraint_residuals(n, bad) == constraint_residuals_by_sums(n, bad.orders), n


_PROBE_TERMS = st.dictionaries(
    st.tuples(
        st.integers(min_value=-4, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
    ),
    st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(bool),
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(_PROBE_TERMS)
def test_parts_match_ring_sums_on_probes(terms):
    """Probes with negative unit powers."""
    probe = MomentPoly(terms)
    for n in range(12):
        assert raising_part(n, probe) == raising_part_by_sums(n, probe), n
        assert quadratic_part(n, probe) == quadratic_part_by_sums(n, probe), n


def test_perturbed_series_violates_constraints():
    good = stable_series(3)
    noisy = list(good.orders)
    noisy[1] = noisy[1] + MomentPoly.monomial((-5, 3), F(1, 7))
    bad = GradedSeries(tuple(noisy))
    assert not constraint_satisfied(1, bad)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.dictionaries(
        st.tuples(
            st.integers(min_value=-3, max_value=2),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        st.fractions(min_value=-4, max_value=4).filter(bool),
        max_size=4,
    ),
)
def test_witt_bracket(m, n, data):
    probe = MomentPoly.zero()
    for key, coeff in data.items():
        probe = probe + MomentPoly.monomial(key, coeff)
    assert witt_defect(m, n, probe).is_zero


def test_witt_bracket_on_free_energy():
    probe = free_energy(3, "rho")
    for m, n in [(0, 1), (1, 3), (2, 4), (0, 9)]:
        assert witt_defect(m, n, probe).is_zero
