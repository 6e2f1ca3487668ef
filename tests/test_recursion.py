"""Tests for the residue recursion and the loop-equation residual checks."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    evaluate_full,
    one_point_by_sums,
    pair_diagonal_by_sums,
    residue_invert_by_reciprocals,
)
from taulap import recursion
from taulap.boundary import correlator, diagonal, generic_moments, kernel_op
from taulap.laplacian import GenusOutOfRange
from taulap.recursion import (
    OddInput,
    UnboundedInput,
    dse_residual,
    dse_terms,
    one_point,
    one_point_residual,
    pair_diagonal,
    residue_invert,
)
from taulap.ring import CoincidentPoints, MomentPoly, RingError, ZLaurent, ZRational

DSE_PAIRS = [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]


# ---------------------------------------------------------------------------
# residue inversion


def test_residue_invert_constant():
    out = residue_invert(ZLaurent(1, {(0,): 1}))
    assert out.terms == {(-2,): MomentPoly.unit_power(-1).scale(-1)}


def test_residue_invert_reproduces_genus_one():
    inv = residue_invert(ZLaurent(1, {(-2,): 4}))
    expected = {
        (-4,): MomentPoly.unit_power(-1).scale(-4),
        (-2,): MomentPoly.monomial((-2, 1), 4),
    }
    assert inv.terms == expected
    rebuilt = inv.shift(0, -1).scale(F(1, 2))
    assert rebuilt.terms == correlator(1, 1).terms


def test_residue_invert_input_validation():
    with pytest.raises(OddInput):
        residue_invert(ZLaurent(1, {(-3,): 1}))
    with pytest.raises(UnboundedInput):
        residue_invert(ZLaurent(1, {(2,): 1}))
    with pytest.raises(RingError):
        residue_invert(ZLaurent(2, {(0, 0): 1}))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-4, max_value=0).map(lambda k: (2 * k,)),
        st.fractions(min_value=-5, max_value=5).filter(bool),
        max_size=4,
    )
)
def test_residue_invert_round_trip(data):
    source = ZLaurent(1, dict(data))
    inverted = residue_invert(source)
    round_trip = kernel_op(inverted.shift(0, -1), 0).shift(0, 2)
    assert round_trip.terms == source.scale(-1).terms


_MOMENT_COEFFS = st.dictionaries(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    min_size=1,
    max_size=3,
).map(MomentPoly)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=0).map(lambda k: (2 * k,)),
        _MOMENT_COEFFS,
        max_size=4,
    )
)
def test_residue_invert_matches_reciprocal_sum(data):
    """Series division gives the sum over the reciprocal-series coefficients, denominators included."""
    source = ZLaurent(1, dict(data))
    assert residue_invert(source) == residue_invert_by_reciprocals(source)


def test_residue_invert_round_trip_with_moment_coefficients():
    coeff = MomentPoly.monomial((-1, 2), F(3, 7)) + MomentPoly.unit_power(2)
    source = ZLaurent(1, {(-4,): coeff, (0,): MomentPoly.variable(2)})
    round_trip = kernel_op(residue_invert(source).shift(0, -1), 0).shift(0, 2)
    assert round_trip.terms == source.scale(-1).terms


# ---------------------------------------------------------------------------
# independent one-boundary chain


def test_one_point_matches_creation_chain():
    for g in range(1, 9):
        assert one_point(g) == correlator(g, 1), g


def test_one_point_matches_ring_sum_recursion():
    """The one-accumulator recursion equals the ``ZLaurent``-sum recursion, denominators included."""
    for g in range(1, 8):
        assert one_point(g) == one_point_by_sums(g), g
        assert pair_diagonal(g) == pair_diagonal_by_sums(g), g


def test_one_point_genus_bound():
    with pytest.raises(GenusOutOfRange):
        one_point(0)


def test_pair_diagonal_matches_boundary_route():
    """The orbit-read diagonal equals the recursion's, and ``G_{g,2}`` written out and identified."""
    for g in range(0, 8):
        other = diagonal(g)
        assert isinstance(other, ZLaurent)
        assert pair_diagonal(g).terms == other.terms, g
        if g:
            written = correlator(g, 2).identify(0, 1)
            assert other.terms == written.terms, g
            assert list(other.terms) == list(written.terms), g


# ---------------------------------------------------------------------------
# one-boundary loop equation


def test_one_point_residual_vanishes_symbolically():
    for g in range(1, 7):
        assert not one_point_residual(g).terms


def test_one_point_residual_matches_ring_sums_on_corrupted_input(monkeypatch):
    """On a corrupted ``G_{2,1}`` the accumulated residual equals the ``ZLaurent`` sum, and is nonzero."""
    bad = correlator(2, 1) + ZLaurent(1, {(-9,): MomentPoly.monomial((-3, 0, 1), F(2, 7))})

    def corrupted(g, b):
        return bad if (g, b) == (2, 1) else correlator(g, b)

    monkeypatch.setattr(recursion, "correlator", corrupted)
    for g in range(2, 6):
        want = kernel_op(corrupted(g, 1), 0) + diagonal(g - 1).scale(2)
        for h in range(1, g):
            want = want + (corrupted(h, 1) * corrupted(g - h, 1)).scale(F(1, 2))
        got = one_point_residual(g)
        assert got == want and got.terms, g


def test_one_point_residual_genus_bound():
    with pytest.raises(GenusOutOfRange):
        one_point_residual(0)


# ---------------------------------------------------------------------------
# multi-boundary loop equation


def test_dse_term_names():
    assert sorted(dse_terms(0, 3)) == ["kernel", "reflection", "split"]
    assert sorted(dse_terms(1, 2)) == ["dressing", "handle", "kernel", "reflection"]
    assert sorted(dse_terms(1, 3)) == [
        "dressing",
        "handle",
        "kernel",
        "reflection",
        "split",
    ]


def test_dse_invalid_labels():
    for g, b in [(0, 2), (0, 1), (-1, 3), (1, 1)]:
        with pytest.raises(GenusOutOfRange):
            dse_terms(g, b)


def test_dse_planar_three_boundary_values():
    pts = [F(1), F(2), F(3)]
    moments = generic_moments()
    values = {name: evaluate_full(part, pts, moments) for name, part in dse_terms(0, 3).items()}
    assert values["kernel"] == F(-4, 27)
    assert values["split"] == F(1, 27)
    assert values["reflection"] == F(1, 9)
    assert sum(values.values()) == 0


def test_dse_pieces_nonzero_but_sum_vanishes():
    pts = [F(2), F(3)]
    moments = generic_moments()
    values = [evaluate_full(part, pts, moments) for part in dse_terms(2, 2).values()]
    assert all(value != 0 for value in values)
    assert sum(values) == 0


def test_dse_residual_symbolically_zero():
    for g, b in DSE_PAIRS:
        assert not dse_residual(g, b).num.terms


def test_dse_pieces_reject_coincident_squares():
    reflection = dse_terms(0, 3)["reflection"]
    moments = generic_moments()
    with pytest.raises(CoincidentPoints):
        evaluate_full(reflection, [F(3), F(3), F(2)], moments)
    with pytest.raises(CoincidentPoints):
        evaluate_full(reflection, [F(3), F(-3), F(2)], moments)


def test_dse_residual_vanishes_on_all_pairs():
    for g, b in DSE_PAIRS:
        assert dse_residual(g, b).is_zero


def test_dse_certify_detects_corruption():
    # the certificate is `dse_residual(g, b).is_zero`; one stray term must break it
    res = dse_residual(0, 3)
    assert res.is_zero
    corrupted = res + ZRational(ZLaurent(3, {(-3, -3, -3): F(1, 5)}))
    assert not corrupted.is_zero
    assert not (corrupted + ZRational(ZLaurent(3, {(-3, -3, -3): F(-1, 10)}))).is_zero
    assert (corrupted + ZRational(ZLaurent(3, {(-3, -3, -3): F(-1, 5)}))).is_zero
