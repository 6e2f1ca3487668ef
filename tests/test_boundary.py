"""Boundary operators: creation/annihilation algebra, chains, evaluation."""

from fractions import Fraction

import pytest

from taulap.boundary import (
    UnsupportedExponent,
    annihilate,
    correlator,
    create,
    diagonal,
    evaluate_correlator,
    generic_moments,
    kernel_op,
    lambda_exponent,
    n_point_core,
    number_operator,
    number_operator_z,
    planar_pair,
    _stored_free_energy,
)
from taulap.laplacian import GenusOutOfRange, genus_two_rho
from taulap.ring import CoincidentPoints, MomentPoly, UnknownVariable, ZLaurent, ZRational

F = Fraction


# -- frozen low-order objects ---------------------------------------------------

def test_planar_pair_evaluation() -> None:
    seed = planar_pair()
    assert seed.evaluate([F(1), F(3)], {}) == F(4, 1 * 3 * 16)


def test_one_boundary_genus_one_frozen() -> None:
    assert correlator(1, 1) == ZLaurent(1, {
        (-3,): MomentPoly({(-2, 1): 2}),
        (-5,): MomentPoly({(-1,): -2}),
    })


def test_three_boundary_planar_frozen() -> None:
    created = create(planar_pair())
    assert isinstance(created, ZLaurent)
    assert created == ZLaurent(3, {(-3, -3, -3): MomentPoly({(-1,): -4})})
    assert correlator(0, 3) == ZLaurent(3, {(-3, -3, -3): MomentPoly({(-1,): -32})})


def test_kernel_on_genus_one_frozen() -> None:
    assert kernel_op(correlator(1, 1)) == ZLaurent(1, {(-4,): -2})


def test_kernel_rules() -> None:
    assert kernel_op(ZLaurent(1, {(-1,): 1})) == ZLaurent(1, {(0,): 1})
    image = kernel_op(ZLaurent(1, {(-7,): 1}))
    assert image == ZLaurent(1, {
        (-6,): MomentPoly.unit_power(1),
        (-4,): MomentPoly.variable(1),
        (-2,): MomentPoly.variable(2),
    })
    with pytest.raises(UnsupportedExponent):
        kernel_op(ZLaurent(1, {(-2,): 1}))
    with pytest.raises(UnsupportedExponent):
        kernel_op(ZLaurent(1, {(1,): 1}))


def test_diagonal_planar() -> None:
    assert diagonal(0) == ZLaurent(1, {(-4,): 1})


# -- operator algebra ------------------------------------------------------------

def test_adjoint_pair_composition_on_polynomials() -> None:
    probes = [
        genus_two_rho(),
        MomentPoly({(-2, 1, 1): F(3, 7), (0, 0, 2): 1, (1, 0, 0, 0, 1): F(-2, 5)}),
        MomentPoly.log_unit(F(-1, 24)),
        MomentPoly({(-8, 8): 1}),  # weight 8
    ]
    for p in probes:
        assert annihilate(create(p)) == number_operator(p)


def test_adjoint_pair_composition_on_correlators() -> None:
    for g, B in [(1, 1), (0, 3), (1, 2), (2, 1), (0, 4)]:
        stored = correlator(g, B)
        assert annihilate(create(stored)) == number_operator_z(stored)


def test_creation_commutes() -> None:
    for base in (correlator(1, 1), correlator(0, 3)):
        twice = create(create(base))
        assert twice == twice.permute(
            list(range(base.nvars)) + [base.nvars + 1, base.nvars]
        )


def test_number_operator_eigenvalue() -> None:
    for g, B in [(0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        stored = correlator(g, B)
        if isinstance(stored, ZRational):
            stored = create(stored).scale(8)  # rational case covered via its child
            assert number_operator_z(stored) == stored.scale(2 * g + (B + 1) - 2)
            continue
        assert number_operator_z(stored) == stored.scale(2 * g + B - 2)


def test_number_operator_on_log() -> None:
    assert number_operator(MomentPoly.log_unit(F(5))) == MomentPoly.constant(-5)


def test_boundary_removal_factors() -> None:
    # removing the last of B boundaries: factor 2^(3 - delta_{B,2}) (2g + B - 3)
    for g, B in [(1, 2), (1, 3), (2, 2), (0, 4), (2, 3), (0, 3)]:
        expected_factor = F(2 ** (3 - (1 if B == 2 else 0)) * (2 * g + B - 3))
        lower = correlator(g, B - 1)
        removed = annihilate(correlator(g, B))
        if isinstance(lower, ZRational):
            # compare pointwise against the rational object
            pts = [F(2), F(5)]
            assert removed.evaluate(pts, generic_moments()) == (
                lower.evaluate(pts, generic_moments()) * expected_factor
            )
        else:
            assert removed == lower.scale(expected_factor)


def test_one_boundary_removal_gives_number_image() -> None:
    for g in (1, 2, 3):
        lhs = annihilate(correlator(g, 1))
        rhs = number_operator(_stored_free_energy(g)).scale(2 ** (4 * g))
        assert lhs == rhs


def test_invalid_labels() -> None:
    with pytest.raises(GenusOutOfRange):
        correlator(0, 1)
    with pytest.raises(GenusOutOfRange):
        correlator(-1, 2)
    with pytest.raises(GenusOutOfRange):
        correlator(0, 0)


# -- structure ---------------------------------------------------------------------

def test_one_boundary_objects_are_odd_with_bounded_poles() -> None:
    for g in (1, 2, 3, 4):
        stored = correlator(g, 1)
        exps = [k[0] for k in stored.terms]
        assert all(e % 2 for e in exps), "one-boundary correlators are odd"
        assert min(exps) >= -(6 * g + 1)
        assert max(exps) <= -3


def test_multi_boundary_parity() -> None:
    stored = correlator(1, 2)
    assert all(all(e % 2 for e in key) for key in stored.terms)


# -- evaluation ----------------------------------------------------------------------

def test_physical_two_boundary_value() -> None:
    lam = F(3, 5)
    z1, z2 = F(2), F(7)
    got = evaluate_correlator(0, [[z1], [z2]], lam, {})
    assert got == 4 * lam**2 / (z1 * z2 * (z1 + z2) ** 2)


def test_lambda_exponent_values() -> None:
    assert lambda_exponent(0, 2) == 2
    assert lambda_exponent(0, 3) == 5
    assert lambda_exponent(1, 1) == 4
    assert lambda_exponent(2, 1) == 8
    assert lambda_exponent(1, 2) == 6
    with pytest.raises(GenusOutOfRange):
        lambda_exponent(-1, 1)


def test_grouped_evaluation_reduces_to_plain() -> None:
    moments = generic_moments()
    pts = [F(2), F(3), F(5)]
    grouped = n_point_core(0, [[pts[0]], [pts[1]], [pts[2]]], moments)
    plain = correlator(0, 3).evaluate(pts, moments)
    assert grouped == plain


def test_grouped_evaluation_two_points_one_boundary() -> None:
    moments = generic_moments()
    stored = correlator(1, 1)
    za, zb = F(2), F(3)
    expected = stored.evaluate([za], moments) * 2 / (za**2 - zb**2) + stored.evaluate(
        [zb], moments
    ) * 2 / (zb**2 - za**2)
    assert n_point_core(1, [[za, zb]], moments) == expected
    # symmetric under relabeling within the group
    assert n_point_core(1, [[zb, za]], moments) == expected


def test_grouped_evaluation_rejects_coincident_squares() -> None:
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[F(2), F(-2)]], generic_moments())


def test_coupling_bookkeeping_in_grouped_evaluation() -> None:
    moments = generic_moments()
    lam = F(1, 3)
    za, zb = F(2), F(3)
    core = n_point_core(1, [[za, zb]], moments)
    got = evaluate_correlator(1, [[za, zb]], lam, moments)
    assert got == lam**4 * (2 * lam) * core


def test_generic_moments_fixture() -> None:
    m = generic_moments()
    assert m[0] == F(5, 3)
    assert m[1] == F(-2, 7)
    assert m[2] == F(3, 11)
    assert m[3] == F(-5, 13)
    assert m[4] == F(7, 17)
    assert m[5] == F(-11, 19)
    # indices 0..12 keep their values; the default reaches index 40
    old = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37), (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    full = generic_moments()
    assert [full[l] for l in range(1, 13)] == [F((-1) ** l * n, d) for l, n, d in zip(range(1, 13), *old)]
    assert sorted(full) == list(range(41))
    assert full[40] == F(173, 191)


def test_correlators_use_every_moment_index_through_3g_3_plus_b() -> None:
    """``G_{g,B}`` depends on the moment indices ``0..3g-3+B`` and no others."""
    for g in range(4):
        for b in range(1, 6):
            if (g, b) in ((0, 1), (0, 2)):
                continue  # no correlator, and the planar pair, which has no moments
            assert correlator(g, b).moment_support() == set(range(3 * g - 2 + b)), (g, b)


# -- the creation kernel against the multi-pass construction -----------------------
#
# The oracle builds the operator out of ring operations: one moment derivative
# and one boundary derivative at a time, each embedded, shifted, scaled and
# added as a whole object.


def _moment_indices(obj: MomentPoly | ZLaurent | ZRational) -> range:
    if isinstance(obj, ZRational):
        support = obj.num.moment_support()
    else:
        support = obj.moment_support()
    return range(0, (max(support) if support else -1) + 1)


def _ratio_coeff(l: int) -> MomentPoly:
    """``r_{l+1} / r_0`` as a moment polynomial."""
    return MomentPoly.monomial((-1,) + (0,) * l + (1,))


def multipass_create(obj: MomentPoly | ZLaurent | ZRational) -> ZLaurent | ZRational:
    if isinstance(obj, MomentPoly):
        acc: dict[tuple[int, ...], MomentPoly] = {}

        def _add(exp: int, poly: MomentPoly) -> None:
            prev = acc.get((exp,))
            total = poly if prev is None else prev + poly
            if total.is_zero:
                acc.pop((exp,), None)
            else:
                acc[(exp,)] = total

        for l in _moment_indices(obj):
            dp = obj.partial(l)
            if dp.is_zero:
                continue
            _add(-3, dp * _ratio_coeff(l).scale(-(3 + 2 * l)))
            _add(-5 - 2 * l, dp.scale(3 + 2 * l))
        out = ZLaurent(1)
        out.terms = acc
        return out
    n = obj.nvars
    positions = list(range(n))
    rational = isinstance(obj, ZRational)
    total = ZRational(ZLaurent.zero(n + 1)) if rational else ZLaurent.zero(n + 1)
    for l in _moment_indices(obj):
        d = obj.partial_moment(l)
        if d.is_zero:
            continue
        wide = d.embed(positions, n + 1)
        total = total + wide.scale(_ratio_coeff(l).scale(-(3 + 2 * l))).shift(n, -3)
        total = total + wide.scale(3 + 2 * l).shift(n, -5 - 2 * l)
    inv_unit = MomentPoly.unit_power(-1)
    for i in range(n):
        dz = obj.dz(i)
        if dz.is_zero:
            continue
        total = total + dz.embed(positions, n + 1).shift(i, -1).shift(n, -3).scale(inv_unit)
    return total.reduce() if rational else total


def layout(obj: ZLaurent) -> list:
    """Terms and coefficient terms in insertion order: the order float evaluation sums in."""
    return [(key, list(coeff.terms.items())) for key, coeff in obj.terms.items()]


def _creation_inputs():
    """(input, factor) of every chain step of the stored correlators with 2g + B - 2 <= 6."""
    for energy in range(1, 7):
        for g in range(0, energy // 2 + 2):
            b = energy + 2 - 2 * g
            if b < 1 or (g, b) in ((0, 1), (0, 2)):
                continue
            if b == 1:
                yield _stored_free_energy(g), 2 ** (4 * g)
            else:
                yield correlator(g, b - 1), 4 if b == 2 else 8


def test_create_matches_multipass_oracle_on_stored_correlators() -> None:
    for obj, factor in _creation_inputs():
        expected = multipass_create(obj)
        got = create(obj)
        assert got == expected
        assert layout(got) == layout(expected)
        scaled = create(obj, factor)
        assert layout(scaled) == layout(expected.scale(factor))


def test_create_matches_multipass_oracle_on_planar_pair() -> None:
    expected = multipass_create(planar_pair())
    assert create(planar_pair()) == expected
    assert create(planar_pair(), 8) == expected.scale(8) == correlator(0, 3)


def test_create_matches_multipass_oracle_on_probes() -> None:
    probes = [
        MomentPoly.one(),
        MomentPoly.unit_power(-3),
        MomentPoly.variable(1),
        MomentPoly({(-2, 1, 1): F(3, 7), (0, 0, 2): 1}),
        MomentPoly({(1, 0, 0, 1): F(-2, 5)}),
        MomentPoly.log_unit(F(-1, 24)),
        MomentPoly({(-8, 8): 1}),
        MomentPoly({(0, 0, 4): F(5, 3)}),
        MomentPoly({(-3, 2, 0, 2): 1}),
        MomentPoly({(1,): 2, (-1, 1): F(1, 3)}, log_coeff=F(-1, 24)),
        MomentPoly({(): 2}, log_coeff=F(1, 8)),
        ZLaurent(2, {(-3, 1): MomentPoly({(-1, 2): F(1, 2), (0, 0, 1): 3}), (2, -5): 7}),
    ]
    for p in probes:
        for factor in (1, -4):
            got = create(p, factor)
            expected = multipass_create(p).scale(factor)
            assert got == expected, p
            assert layout(got) == layout(expected), p


def test_create_reinserts_a_cancelled_term_last() -> None:
    # The z^-3 coefficient of r0 r1 r2 r3 gets -6*5 from d/dr0 of the first
    # monomial, +10*3 from d/dr1 of the second (they cancel) and -14 from
    # d/dr2 of the third, which inserts it anew, after the other terms.
    p = MomentPoly({(2, 0, 1, 1): 5, (1, 2, 0, 1): -3, (1, 1, 2): 1})
    got = create(p)
    assert layout(got) == layout(multipass_create(p))
    low = list(got.terms[(-3,)].terms.items())
    assert low[-3] == ((0, 1, 1, 1), -14)


def test_evaluation_error_contracts() -> None:
    stored = correlator(1, 2)
    moments = generic_moments()
    with pytest.raises(CoincidentPoints):
        stored.evaluate([F(0), F(3)], moments)
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[F(0)], [F(3)]], moments)
    # the pole is found before the moments are bound
    with pytest.raises(CoincidentPoints):
        stored.evaluate([F(2), 0], {})
    with pytest.raises(UnknownVariable):
        stored.evaluate([F(2), F(3)], {0: F(1)})
    with pytest.raises(UnknownVariable):
        n_point_core(1, [[F(2), F(5)], [F(3)]], {0: F(1)})
