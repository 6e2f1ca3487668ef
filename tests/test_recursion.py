"""Tests for the residue recursion and the loop-equation residual checks."""

import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _coincident_pair_by_sums,
    add,
    dse_terms_by_rationals,
    evaluate_full,
    identify,
    kernel_op,
    mul,
    one_point_by_sums,
    pair_diagonal_by_sums,
    residue_invert_by_reciprocals,
    shift,
    widen,
)
from taulap import recursion
from taulap.boundary import correlator, diagonal, generic_moments
from taulap.laplacian import GenusOutOfRange
from taulap.recursion import (
    OddInput,
    UnboundedInput,
    UnsupportedExponent,
    dse_residual,
    dse_terms,
    one_point,
    one_point_residual,
    pair_diagonal,
)
from taulap.ring import CoincidentPoints, MomentPoly, RingError, SlotOverflow, ZLaurent, ZRational

slow = pytest.mark.skipif(not os.environ.get("TAULAP_SLOW"), reason="set TAULAP_SLOW=1 to run")

# every (g, B) with B >= 2 and 2g + B - 2 <= 4, but the planar pair
DSE_PAIRS = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (2, 2)]


# ---------------------------------------------------------------------------
# residue inversion


def residue_invert(obj: ZLaurent) -> ZLaurent:
    """The inverse of the kernel operator on a one-variable even object: ``recursion._divide``.

    ``z**(-2k)`` maps to ``-(1/r0) sum_{j=0..k} S_j/j! z**-(2k-2j+2)``, with
    ``S_j`` the reciprocal-series coefficients; ``one_point`` runs the same
    division on its right-hand side.
    """
    packed = recursion._rows(obj)
    return recursion._divide(
        {e: {k: n * mult for k, n in nums.items()} for e, nums, mult in packed.rows},
        packed.den, packed.bounds)


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
    rebuilt = shift(inv, 0, -1).scale(F(1, 2))
    assert rebuilt.terms == correlator(1, 1).terms


def test_residue_invert_input_validation():
    with pytest.raises(OddInput):
        residue_invert(ZLaurent(1, {(-3,): 1}))
    with pytest.raises(UnboundedInput):
        residue_invert(ZLaurent(1, {(2,): 1}))


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
    round_trip = shift(kernel_op(shift(inverted, 0, -1), 0), 0, 2)
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
    round_trip = shift(kernel_op(shift(residue_invert(source), 0, -1), 0), 0, 2)
    assert round_trip.terms == source.scale(-1).terms


def test_residue_invert_raises_slot_overflow_before_a_key_could_wrap():
    """From ``z**-8`` a key picks up four factors ``r_1/r0`` and then ``1/r0``; past a slot it raises.

    The unit's exponent is followed per coefficient: ``r0^-127`` at ``z**0``
    only gains the ``1/r0``, and at ``z**-2`` one factor more.
    """
    for terms in [{(-8,): (-124,)}, {(-8,): (0, 252)}, {(-2,): (-127,), (-8,): (0, 1)}]:
        with pytest.raises(SlotOverflow):
            residue_invert(ZLaurent(1, {z: MomentPoly.monomial(key) for z, key in terms.items()}))
    for terms in [{(-8,): (-123, 251)}, {(0,): (-127,), (-8,): (0, 1)}]:
        source = ZLaurent(1, {z: MomentPoly.monomial(key, 3) for z, key in terms.items()})
        assert residue_invert(source) == residue_invert_by_reciprocals(source)


def test_coincident_pair_raises_slot_overflow_before_a_key_could_wrap():
    """The coincident pair lowers the unit by two and raises a variable by one."""
    for key in [(-127, 1), (0, 255)]:
        with pytest.raises(SlotOverflow):
            recursion._coincident_pair(ZLaurent(1, {(-5,): MomentPoly.monomial(key)}))
    source = ZLaurent(1, {(-5,): MomentPoly.monomial((-126, 254), F(2, 3))})
    assert recursion._coincident_pair(source) == _coincident_pair_by_sums(source)


# ---------------------------------------------------------------------------
# kernel operator


def kernel_image(obj: ZLaurent) -> ZLaurent:
    """``recursion._kernel_rows`` of ``obj``'s packed rows, unpacked into a ``ZLaurent``."""
    packed = recursion._rows(obj)
    acc: dict = {}
    recursion._kernel_rows(acc, packed, 1)
    return ZLaurent(obj.nvars, {z: recursion._poly(nums, packed.den) for z, nums in acc.items()})


def test_kernel_rows_match_the_reference():
    """The integer kernel equals the ``MomentPoly`` reference on literals and stored correlators."""
    objs = [ZLaurent(1, {(-1,): 1}), ZLaurent(1, {(-7,): F(3, 4)}),
            ZLaurent(2, {(-5, -3): MomentPoly.monomial((-1, 2), F(2, 9)), (-1, -1): 3})]
    objs += [correlator(g, 1) for g in range(1, 7)]
    objs += [correlator(g, b) for g, b in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]]
    for obj in objs:
        assert kernel_image(obj) == kernel_op(obj, 0), obj


def test_kernel_rows_reject_exponents_off_the_domain():
    for e in [-6, -4, -2, 0, 1, 2]:
        with pytest.raises(UnsupportedExponent):
            kernel_image(ZLaurent(2, {(-3, -3): 1, (e, -3): 1}))


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
            written = identify(correlator(g, 2), 0, 1)
            assert other.terms == written.terms, g
            assert list(other.terms) == list(written.terms), g


# ---------------------------------------------------------------------------
# one-boundary loop equation


def test_one_point_residual_vanishes_symbolically():
    for g in range(1, 7):
        assert not one_point_residual(g).terms


def test_one_point_residual_matches_ring_sums_on_corrupted_input(monkeypatch):
    """On a corrupted ``G_{2,1}`` the accumulated residual equals the ``ZLaurent`` sum, and is nonzero."""
    bad = add(correlator(2, 1), ZLaurent(1, {(-9,): MomentPoly.monomial((-3, 0, 1), F(2, 7))}))

    def corrupted(g, b):
        return bad if (g, b) == (2, 1) else correlator(g, b)

    monkeypatch.setattr(recursion, "correlator", corrupted)
    for g in range(2, 6):
        want = add(kernel_op(corrupted(g, 1), 0), diagonal(g - 1).scale(2))
        for h in range(1, g):
            want = add(want, mul(corrupted(h, 1), corrupted(g - h, 1)).scale(F(1, 2)))
        got = one_point_residual(g)
        assert got == want and got.terms, g


def test_one_point_residual_genus_bound():
    with pytest.raises(GenusOutOfRange):
        one_point_residual(0)


# ---------------------------------------------------------------------------
# multi-boundary loop equation


def piece_as_rational(piece, den: int, poles, nvars: int) -> ZRational:
    """A piece of ``dse_terms`` as the rational object it stands for."""
    rows: dict = {}
    for (zkey, key), n in piece.items():
        rows.setdefault(zkey, {})[key] = n
    num = ZLaurent(nvars, {z: MomentPoly.from_numerators(nums, den) for z, nums in rows.items()})
    return ZRational(num, poles)


def numerators_over(obj: ZRational, den: int, poles) -> dict:
    """The numerator of ``obj`` over ``den`` and the pair factors ``poles``, keyed like a piece."""
    assert all(m <= poles.get(f, 0) for f, m in obj.den.items())
    return {(zkey, key): F(n * den, poly.den)
            for zkey, poly in widen(obj, poles).terms.items() for key, n in poly.nums.items()}


def test_dse_term_names():
    assert sorted(dse_terms(0, 3)[0]) == ["kernel", "reflection", "split"]
    assert sorted(dse_terms(1, 2)[0]) == ["dressing", "handle", "kernel", "reflection"]
    assert sorted(dse_terms(1, 3)[0]) == [
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
    pieces, den, poles = dse_terms(0, 3)
    values = {name: evaluate_full(piece_as_rational(part, den, poles, 3), pts, moments)
              for name, part in pieces.items()}
    assert values["kernel"] == F(-4, 27)
    assert values["split"] == F(1, 27)
    assert values["reflection"] == F(1, 9)
    assert sum(values.values()) == 0


def test_dse_pieces_nonzero_but_sum_vanishes():
    pts = [F(2), F(3)]
    moments = generic_moments()
    pieces, den, poles = dse_terms(2, 2)
    values = [evaluate_full(piece_as_rational(part, den, poles, 2), pts, moments)
              for part in pieces.values()]
    assert all(value != 0 for value in values)
    assert sum(values) == 0


def test_dse_pieces_match_the_rational_reference():
    """Each piece's numerators are the rational reference piece's over the common denominator.

    The common factors are the highest power of each pair factor among the
    reference pieces, and the numerators agree exactly, piece by piece.
    """
    for g, b in DSE_PAIRS:
        pieces, den, poles = dse_terms(g, b)
        reference = dse_terms_by_rationals(g, b)
        assert list(pieces) == list(reference), (g, b)
        top: dict = {}
        for part in reference.values():
            for factor, m in part.den.items():
                top[factor] = max(top.get(factor, 0), m)
        assert poles == top, (g, b)
        for name, piece in pieces.items():
            assert piece == numerators_over(reference[name], den, poles), (g, b, name)


def test_dse_residual_symbolically_zero():
    for g, b in DSE_PAIRS:
        assert dse_residual(g, b) == {}, (g, b)


def test_dse_pieces_reject_coincident_squares():
    pieces, den, poles = dse_terms(0, 3)
    reflection = piece_as_rational(pieces["reflection"], den, poles, 3)
    moments = generic_moments()
    with pytest.raises(CoincidentPoints):
        evaluate_full(reflection, [F(3), F(3), F(2)], moments)
    with pytest.raises(CoincidentPoints):
        evaluate_full(reflection, [F(3), F(-3), F(2)], moments)


def test_dse_residual_vanishes_on_all_pairs():
    """The pieces, read as rational objects, sum to zero at an exact point off every pole."""
    moments = generic_moments()
    for g, b in DSE_PAIRS:
        pieces, den, poles = dse_terms(g, b)
        pts = [F(2 * i + 3, i + 2) for i in range(b)]
        assert sum(evaluate_full(piece_as_rational(part, den, poles, b), pts, moments)
                   for part in pieces.values()) == 0, (g, b)


def test_dse_certify_detects_corruption(monkeypatch):
    # the certificate is that `dse_residual(g, b)` is empty: one stray term in a
    # piece must break it, and only its exact negative may restore it
    real = recursion.dse_terms
    stray = ((-3, -3, -3), (-1,))

    def with_strays(*values):
        def terms(g, b):
            pieces, den, poles = real(g, b)
            extra = {f"stray {i}": {stray: n} for i, n in enumerate(values)}
            return {**pieces, **extra}, den, poles
        return terms

    for values, holds in [((), True), ((5,), False), ((10, -5), False), ((5, -5), True)]:
        monkeypatch.setattr(recursion, "dse_terms", with_strays(*values))
        assert (not dse_residual(0, 3)) == holds, values


def test_dse_residual_detects_a_doubled_coefficient(monkeypatch):
    """A ``G_{0,3}`` with one coefficient doubled breaks the loop equations that read it."""
    good = correlator(0, 3)
    key, poly = next(iter(good.terms.items()))
    bad = ZLaurent(3, {**good.terms, key: poly.scale(2)})
    monkeypatch.setattr(recursion, "correlator",
                        lambda g, b: bad if (g, b) == (0, 3) else correlator(g, b))
    # nothing on the residual's path is cached, so both read the corrupted G_{0,3}
    assert dse_residual(0, 4)
    assert dse_residual(1, 2)


def test_residuals_reject_a_term_off_the_kernel_domain(monkeypatch):
    """A stored correlator with an even or nonnegative ``z_0`` power raises, rather than passing."""
    for key in [(-2, -2, -2), (0, 0, 0), (-4, -3, -3)]:
        bad = ZLaurent(3, {**correlator(0, 3).terms, key: MomentPoly.unit_power(-1)})
        monkeypatch.setattr(recursion, "correlator",
                            lambda g, b: bad if (g, b) == (0, 3) else correlator(g, b))
        with pytest.raises(UnsupportedExponent):
            dse_residual(0, 3)
    bad_one = ZLaurent(1, {**correlator(2, 1).terms, (-2,): 1})
    monkeypatch.setattr(recursion, "correlator",
                        lambda g, b: bad_one if (g, b) == (2, 1) else correlator(g, b))
    with pytest.raises(UnsupportedExponent):
        one_point_residual(2)


def _corrupt(monkeypatch, key, g=2, b=1, z=(-5,)):
    """Make ``recursion.correlator(g, b)`` carry one more term, ``2/3 r^key z^z``."""
    bad = add(correlator(g, b), ZLaurent(b, {z: MomentPoly.monomial(key, F(2, 3))}))
    monkeypatch.setattr(recursion, "correlator",
                        lambda h, c: bad if (h, c) == (g, b) else correlator(h, c))
    return bad


@pytest.mark.parametrize("key", [(0, 255), (-127,)])
def test_residuals_raise_slot_overflow_before_a_key_could_wrap(monkeypatch, key):
    """A stored term whose product with ``G_{1,1}`` (unit ``r0^-2``, ``r_1``) leaves a slot raises."""
    _corrupt(monkeypatch, key)
    with pytest.raises(SlotOverflow):
        one_point_residual(3)
    _corrupt(monkeypatch, key, 0, 3, (-3, -3, -3))
    with pytest.raises(SlotOverflow):
        dse_residual(1, 3)


def test_kernel_raises_slot_overflow_before_a_key_could_wrap(monkeypatch):
    """The kernel operator raises one exponent by one, so a variable at 255 raises."""
    _corrupt(monkeypatch, (0, 255), 0, 3, (-3, -3, -3))
    with pytest.raises(SlotOverflow):
        dse_residual(0, 3)
    _corrupt(monkeypatch, (0, 255))
    with pytest.raises(SlotOverflow):
        one_point_residual(2)


def test_one_point_residual_near_the_slot_edges_matches_ring_sums(monkeypatch):
    """Exponents that fit after every shift give the ``ZLaurent`` sums, not a wrapped key."""
    bad = _corrupt(monkeypatch, (-125, 0, 253))
    want = add(kernel_op(correlator(3, 1), 0), diagonal(2).scale(2))
    want = add(want, mul(correlator(1, 1), bad))
    got = one_point_residual(3)
    assert got == want and got.terms


@slow
def test_dse_residual_vanishes_through_energy_five():
    """Every pair with ``2g + B - 2 <= 5``; ``correlator`` admits each, ``(0, 7)`` the largest."""
    for g, b in DSE_PAIRS + [(0, 7), (1, 5), (2, 3)]:
        assert dse_residual(g, b) == {}, (g, b)
