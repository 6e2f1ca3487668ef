"""Boundary operators: creation/annihilation algebra, chains, evaluation."""

import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    add,
    annihilate,
    arrangements_by_orbit,
    correlator_by_create,
    correlator_keys_by_orbit,
    create_from_gradient,
    dz,
    embed,
    evaluate_full,
    genus_one_gradient,
    grouped_by_full_form,
    identify,
    kernel_op,
    moment_support,
    multipass_create,
    neg,
    partial_moment,
    render_z_by_key,
    sub,
)
from taulap import boundary
from taulap.boundary import (
    OutOfFloatRange,
    _Arranger,
    _create_orbits,
    _genus_one_point,
    _orbit_values,
    _orbits,
    _planar_triple,
    correlator,
    create,
    diagonal,
    evaluate_correlator,
    generic_moments,
    lambda_exponent,
    n_point_core,
    number_operator,
    number_operator_z,
    planar_pair,
)
from taulap.cli import MAX_BOUNDARIES
from taulap.laplacian import GenusOutOfRange, genus_two_rho, stable_partition
from taulap.recursion import UnsupportedExponent, _kernel_rows, _rows
from taulap.ring import (
    CoincidentPoints,
    MomentPoly,
    RingError,
    UnknownVariable,
    ZLaurent,
    ZRational,
    render_z,
)

F = Fraction


def _arrangements(key: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct permutations of a sorted key: one fresh ``_Arranger``'s blocks, joined."""
    out: list[tuple[int, ...]] = []
    for head, tails in _Arranger().blocks(key):
        out.extend(map(head.__add__, tails))
    return out


# -- frozen low-order objects ---------------------------------------------------

def test_planar_pair_evaluation() -> None:
    assert n_point_core(0, [[F(1)], [F(3)]], {}) == F(4, 1 * 3 * 16)
    assert evaluate_full(planar_pair(), [F(1), F(3)], {}) == F(4, 1 * 3 * 16)


def test_one_boundary_genus_one_frozen() -> None:
    assert correlator(1, 1) == ZLaurent(1, {
        (-3,): MomentPoly({(-2, 1): 2}),
        (-5,): MomentPoly({(-1,): -2}),
    })


def test_three_boundary_planar_frozen() -> None:
    created = multipass_create(planar_pair())
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
    # 4 / (z1 z2 (z1 + z2)^2) at z1 = z2 = z is z^-4
    for z in (F(1), F(-3, 2), F(7, 5)):
        assert evaluate_full(diagonal(0), [z], {}) == evaluate_full(planar_pair(), [z, z], {})


def test_diagonal_never_writes_the_pair_out(monkeypatch) -> None:
    def refuse(g, boundaries):
        raise AssertionError("diagonal wrote a correlator out")

    monkeypatch.setattr(boundary, "correlator", refuse)
    assert diagonal(5) == identify(correlator(5, 2), 0, 1)


# -- operator algebra ------------------------------------------------------------

def test_adjoint_pair_composition_on_polynomials() -> None:
    probes = [
        genus_two_rho(),
        MomentPoly({(-2, 1, 1): F(3, 7), (0, 0, 2): 1, (1, 0, 0, 0, 1): F(-2, 5)}),
        MomentPoly({(-8, 8): 1}),  # weight 8
    ]
    for p in probes:
        assert annihilate(create(p)) == number_operator(p)
    # F_1 = -log(r0) / 24 by its gradient: -r0 dF_1/dr0 = 1/24
    assert annihilate(create_from_gradient(genus_one_gradient())) == MomentPoly.constant(F(1, 24))


def test_adjoint_pair_composition_on_correlators() -> None:
    for g, B in [(1, 1), (0, 3), (1, 2), (2, 1), (0, 4)]:
        stored = correlator(g, B)
        assert annihilate(multipass_create(stored)) == number_operator_z(stored)


def test_creation_commutes() -> None:
    for base in (correlator(1, 1), correlator(0, 3)):
        twice = multipass_create(multipass_create(base))
        swap = list(range(base.nvars)) + [base.nvars + 1, base.nvars]
        assert twice == embed(twice, swap, base.nvars + 2)


def test_number_operator_eigenvalue() -> None:
    for g, B in [(0, 2), (0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]:
        stored = correlator(g, B)
        if isinstance(stored, ZRational):
            stored = multipass_create(stored).scale(8)  # rational case covered via its child
            assert number_operator_z(stored) == stored.scale(2 * g + (B + 1) - 2)
            continue
        assert number_operator_z(stored) == stored.scale(2 * g + B - 2)


def test_boundary_removal_factors() -> None:
    # removing the last of B boundaries: factor 2^(3 - delta_{B,2}) (2g + B - 3)
    for g, B in [(1, 2), (1, 3), (2, 2), (0, 4), (2, 3), (0, 3)]:
        expected_factor = F(2 ** (3 - (1 if B == 2 else 0)) * (2 * g + B - 3))
        lower = correlator(g, B - 1)
        removed = annihilate(correlator(g, B))
        if isinstance(lower, ZRational):
            # compare pointwise against the rational object
            pts = [F(2), F(5)]
            assert evaluate_full(removed, pts, generic_moments()) == (
                evaluate_full(lower, pts, generic_moments()) * expected_factor
            )
        else:
            assert removed == lower.scale(expected_factor)


def test_one_boundary_removal_gives_number_image() -> None:
    # the number operator on F_1 = -log(r0) / 24 is the constant 1/24
    assert annihilate(correlator(1, 1)) == MomentPoly.constant(F(16, 24))
    for g in (2, 3):
        lhs = annihilate(correlator(g, 1))
        rhs = number_operator(stable_partition().f(g)).scale(2 ** (4 * g))
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
    plain = evaluate_full(correlator(0, 3), pts, moments)
    assert grouped == plain


def test_grouped_evaluation_two_points_one_boundary() -> None:
    moments = generic_moments()
    stored = correlator(1, 1)
    za, zb = F(2), F(3)
    expected = evaluate_full(stored, [za], moments) * 2 / (za**2 - zb**2) + evaluate_full(
        stored, [zb], moments
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
            assert moment_support(correlator(g, b)) == set(range(3 * g - 2 + b)), (g, b)


# -- the creation kernel against the multi-pass construction -----------------------
#
# The oracle (``multipass_create``) builds the operator out of ring operations:
# one moment derivative and one boundary derivative at a time, each embedded,
# shifted, scaled and added as a whole object.


def layout(obj: ZLaurent) -> list:
    """Terms and coefficient terms in insertion order: the order float evaluation sums in."""
    return [(key, list(coeff.terms.items())) for key, coeff in obj.terms.items()]


def numerators(orbits: dict) -> list:
    """Each orbit's key with its coefficient's numerators in order and its denominator."""
    return [(key, list(poly.nums.items()), poly.den) for key, poly in orbits.items()]


def _chain_pairs(top: int = 8):
    """Every stored ``(g, B)`` but the planar pair with ``2g + B - 2 <= top``."""
    for energy in range(1, top + 1):
        for g in range(0, energy // 2 + 2):
            b = energy + 2 - 2 * g
            if b >= 1 and (g, b) not in ((0, 1), (0, 2)):
                yield g, b


def test_create_matches_multipass_oracle_on_stored_correlators() -> None:
    # every chain step of the stored correlators with 2g + B - 2 <= 6: ``create``
    # on the free energy, term for term; the orbit step on the correlator below
    for g, b in _chain_pairs(6):
        if (g, b) == (1, 1):
            continue  # the literal seed; see test_genus_one_seed_is_the_created_genus_one_energy
        if b == 1:
            p, factor = stable_partition().f(g), 2 ** (4 * g)
            expected = multipass_create(p)
            assert layout(create(p)) == layout(expected)
            assert layout(create(p, factor)) == layout(expected.scale(factor))
        else:
            expected = multipass_create(correlator(g, b - 1)).scale(4 if b == 2 else 8)
            assert correlator(g, b) == expected, (g, b)


def test_create_matches_multipass_oracle_on_planar_pair() -> None:
    # G_{0,3} is a literal seed: 8 times the creation image of the planar pair
    expected = multipass_create(planar_pair()).scale(8)
    assert correlator(0, 3) == expected
    assert layout(correlator(0, 3)) == layout(expected)
    assert numerators(_planar_triple()) == numerators(expected.terms)


def test_genus_one_seed_is_the_created_genus_one_energy() -> None:
    # G_{1,1} is a literal seed: 16 times the creation image of F_1 = -log(r0) / 24,
    # which the ring, having no log term, gives by its gradient dF_1/dr0 = -1 / (24 r0)
    expected = create_from_gradient(genus_one_gradient()).scale(16)
    assert numerators(_genus_one_point()) == numerators(expected.terms)
    assert numerators(_orbits(1, 1)) == numerators(expected.terms)


def test_create_matches_multipass_oracle_on_probes() -> None:
    probes = [
        MomentPoly.one(),
        MomentPoly.unit_power(-3),
        MomentPoly.variable(1),
        MomentPoly({(-2, 1, 1): F(3, 7), (0, 0, 2): 1}),
        MomentPoly({(1, 0, 0, 1): F(-2, 5)}),
        MomentPoly({(-8, 8): 1}),
        MomentPoly({(0, 0, 4): F(5, 3)}),
        MomentPoly({(-3, 2, 0, 2): 1}),
        MomentPoly({(1,): 2, (-1, 1): F(1, 3)}),
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
    moments = generic_moments()
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[F(0)], [F(3)]], moments)
    # the pole is found before the moments are bound
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[F(2)], [0]], {})
    with pytest.raises(UnknownVariable):
        n_point_core(1, [[F(2)], [F(3)]], {0: F(1)})
    with pytest.raises(UnknownVariable):
        n_point_core(1, [[F(2), F(5)], [F(3)]], {0: F(1)})


def test_planar_pair_error_contracts() -> None:
    with pytest.raises(CoincidentPoints, match=r"\(z1 \+ z2\) vanish"):
        n_point_core(0, [[1], [-1]], {})
    with pytest.raises(CoincidentPoints, match=r"\(z1 \+ z2\) vanish"):
        n_point_core(0, [[2.0], [-2.0]], {})
    floats = {k: float(v) for k, v in generic_moments().items()}
    with pytest.raises(OutOfFloatRange):
        evaluate_correlator(0, [[1e-200], [1e-200]], 0.5, floats)


# -- the chain and its evaluation on orbits against the full form ------------------
#
# The full form is one ring-arithmetic creation per boundary, every z key built on
# its own (``correlator_by_create``), evaluated term by term with the grouped
# weights (``grouped_by_full_form``).


def test_correlator_matches_the_full_form_chain() -> None:
    pairs = list(_chain_pairs())
    assert len(pairs) == 28
    for g, b in pairs:
        got, expected = correlator(g, b), correlator_by_create(g, b)
        assert got == expected, (g, b)
        assert sorted(got.terms) == sorted(expected.terms), (g, b)


def test_correlator_writes_out_orbits_in_a_fixed_order_with_shared_coefficients() -> None:
    for g, b in [(0, 6), (1, 4), (2, 3), (3, 2)]:
        orbits = _orbits(g, b)
        stored = correlator(g, b)
        order = [arr for key in orbits for arr in sorted(set(permutations(key)))]
        assert list(stored.terms) == order
        for key, poly in orbits.items():
            assert all(stored.terms[arr] is poly for arr in _arrangements(key))
        assert len({id(c) for c in stored.terms.values()}) == len(orbits)


# The orbits of every chain pair with 2g + B - 2 <= 8 and of G_{g,1} through
# genus 10, in insertion order: the order exact binding and float evaluation
# sum in. sha256 of repr([(key, list(p.nums.items()), p.den), ...]) per pair.
_ORBIT_LAYOUTS = {
    (0, 3): "86c9a3e8e66757546e53caef410cf827c87b59bdc034b4daad8ab9593e62a82c",
    (1, 1): "6e511fd4f9e4a1294dbf5b18f0f988d2ad346a084e76532b49b2798fd2747b44",
    (0, 4): "a2ec296afbd02ccabee66adc4543199401218f3bea6f9fcacad90dfb462c0448",
    (1, 2): "e23dd27371cb81eba2a1c85c5c097bc4fd4c555c89a7ac9fdcdbc1bc41ec4c97",
    (0, 5): "f4f97860e56007c2a6d45490d340dee78a700838713c284d198152a9685390d7",
    (1, 3): "3c35a3cbf33925100221ab8496042cefbd66dc0cc07e5cb4c459992566c861e2",
    (2, 1): "d406c5fec7a51caa3df6ff8039884db632606698e704332bcd47faead29bddc5",
    (0, 6): "a01fa8dffd494599048d4797152bfc6cbb01192cf68ffe3995a6f63f7ca6f643",
    (1, 4): "11f39008713926d03a4a943598d6db67901b78df3f72821bd3b9e6ac0c138fa7",
    (2, 2): "dd5e72c740a03054bdadbd252444e6806459695da307e78b22b669d8a2bc9371",
    (0, 7): "1a4596bbf22a6e85aec3aa59ac07e263235cd6fdb115dff824cf9c5009eec0bc",
    (1, 5): "b6a4cd1c907ee8f7848ce50e745dcb378347e35478a617131584a341edd31d39",
    (2, 3): "af285ab68d68ad94760636bc64554a930fa04815da4d48aa0981fc049793dd2d",
    (3, 1): "cb95bbb9a08451fe7630a065f0ed595852d3c2a8d999ca8c2a5d062b6bc11658",
    (0, 8): "d4e79a2aedeb0c936dc4e5838c1ca49cf1d4966ce9b08445a759115d720e6506",
    (1, 6): "f1767e921cff8993a3c34da5053a21faafe69c0f5ab9a6c38b749a01c9a0ffb8",
    (2, 4): "563047e47e67f9e4f2c346f982a49f4a94e159619a41210a3d5dd4de62115973",
    (3, 2): "235596098d5d79f6046ccede5379f6b3de9a55dcf514f96db733e1174edb90ad",
    (0, 9): "b760755d5e0848d9bb5e0e3084f76c45994a236b5dd8cbb07ea067095a0ab1a0",
    (1, 7): "58858ed3b822593391ed18b11e55e06ba37ddfc0b0aed69280d3599b604fcf40",
    (2, 5): "aaf3b212cfc54983a988fd239b1b6cef02026d1511ad3a02dfb235a664cf5d47",
    (3, 3): "27ead901b23a9e9bcb163270f3e5e2f73d36f6419c0eade110ab650994105950",
    (4, 1): "d07808c1fde80870e2aac896f8b1817a4c8b13c3ba50bf41ee207fe7cb4745a2",
    (0, 10): "d9f305cf8b2af79aaced1f05bf2ac490e526d8fb85be1704b92a3d1f3c339dfb",
    (1, 8): "f4f69a0f6f011e00a939b067a5fcb54f2f82ea7d63803444d17aa53aa7527446",
    (2, 6): "9981ce2c4f7b6f90a1892bb0a0cc79ab8e2e730da72b60d28402e3d2d227b922",
    (3, 4): "8cae43aa873ede13f67a505498a2b605b0bc1e766962dd82ebfe8f689391af08",
    (4, 2): "b41c5b3166117ac24c343f84206aee259f7c5da9e8516b52efde7b43eac94a93",
    (5, 1): "6f232d89dd9abb3f7cb23ea90bf5f9b802e4b5ea723236cae6e909889227a241",
    (6, 1): "1e30ee39b9462e561822f26fdb89d92594271182f7723e29611a2cccb47b5b91",
    (7, 1): "c1590a89cc03c8b86bb06edf02c41b8e645beaa52ac311ee29828f3685e27560",
    (8, 1): "24dd4e1e89cd09fbe46b56a97b0f57869d395fe0038501794f94c11ef52c64e4",
    (9, 1): "55d84dd0b82cd4d5a9c672099d0220c0489bc834f7b793c5a4a7ce1910792bde",
    (10, 1): "b139efc03b5e387626ec154c3ed45df78003ea6fc3ec7a4baf26e696ffcb6a3c",
}


def test_orbit_layouts_are_frozen() -> None:
    pairs = list(_chain_pairs()) + [(g, 1) for g in range(5, 11)]
    assert len(pairs) == 34 and set(pairs) == set(_ORBIT_LAYOUTS)
    got = {}
    for g, b in pairs:
        layout = [(key, list(p.nums.items()), p.den) for key, p in _orbits(g, b).items()]
        got[(g, b)] = hashlib.sha256(repr(layout).encode()).hexdigest()
    assert got == _ORBIT_LAYOUTS


def test_arrangements_are_the_distinct_permutations_in_order() -> None:
    for key in [(-3,), (-5, -3), (-3, -3, -3), (-7, -5, -5, -3, -3), (-9, -7, -5, -3)]:
        assert _arrangements(key) == sorted(set(permutations(key)))


# every stored pair the command line admits with 2g + B - 2 <= 8; the
# correlators benchmark's shapes are among them
_WRITE_OUT_PAIRS = [(g, b) for g, b in _chain_pairs() if b <= MAX_BOUNDARIES[g]]


def test_correlator_keys_match_the_per_orbit_walk() -> None:
    assert len(_WRITE_OUT_PAIRS) == 28
    assert {(0, 10), (1, 7), (2, 5)} <= set(_WRITE_OUT_PAIRS)
    for g, b in _WRITE_OUT_PAIRS:
        stored = correlator(g, b)
        assert list(stored.terms) == correlator_keys_by_orbit(g, b), (g, b)
        for key, poly in _orbits(g, b).items():
            assert all(stored.terms[arr] is poly for arr in arrangements_by_orbit(key)), (g, b)


def test_correlator_renders_as_the_per_key_join() -> None:
    for g, b in _WRITE_OUT_PAIRS:
        stored = correlator(g, b)
        assert render_z(stored) == render_z_by_key(stored), (g, b)


@settings(max_examples=200, deadline=None)
@given(key=st.lists(st.sampled_from(range(-13, -2, 2)), min_size=1, max_size=7).map(sorted))
def test_arrangements_of_any_sorted_key_are_its_distinct_permutations(key) -> None:
    key = tuple(key)
    assert _arrangements(key) == sorted(set(permutations(key)))


def test_orbit_step_rejects_a_key_off_the_chain() -> None:
    one = MomentPoly({(-1, 1): 1})
    for key in [(-3, -4), (-1, -3), (-3, -5), (-3, 3)]:
        with pytest.raises(RingError):
            _create_orbits({key: one}, 8)
    assert _create_orbits({(-5, -3): one}, 8)


def test_shared_coefficients_survive_their_consumers() -> None:
    stored = correlator(1, 4)
    snapshot = {key: (dict(poly.nums), poly.den) for key, poly in _orbits(1, 4).items()}
    number_operator_z(stored)
    kernel_op(stored, 2)
    _kernel_rows({}, _rows(stored)[0], 1)
    partial_moment(identify(stored, 0, 1), 0)
    dz(sub(add(stored, stored), stored.scale(F(1, 3))), 1)
    neg(stored)
    render_z(stored)
    n_point_core(1, [[F(2)], [F(3), F(4)], [F(5)], [F(7)]], generic_moments())
    n_point_core(1, [[2.0], [3.0, 4.0], [5.0], [7.0]],
                 {k: float(v) for k, v in generic_moments().items()})
    assert snapshot == {key: (dict(poly.nums), poly.den) for key, poly in _orbits(1, 4).items()}


# group sizes of the exact evaluations the correlators benchmark times
_WORKLOAD_SHAPES = {(0, 10): (1,) * 10, (1, 7): (2, 2, 1, 1, 1, 1, 1), (2, 5): (2, 2, 1, 1, 1)}


def _distinct_points(rng: random.Random, size: int) -> list[Fraction]:
    points: list[Fraction] = []
    while len(points) < size:
        z = F(rng.randint(100, 127), rng.randint(24, 31))
        if z not in points:
            points.append(z)
    return points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_orbit_values_match_the_full_form_on_workload_shapes(seed: int) -> None:
    rng = random.Random(seed)
    moments = generic_moments()
    for (g, b), shape in _WORKLOAD_SHAPES.items():
        groups = [_distinct_points(rng, size) for size in shape]
        assert n_point_core(g, groups, moments) == grouped_by_full_form(g, groups, moments)


_POINTS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@given(st.sampled_from([(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_exact_orbit_values_match_the_full_form_on_any_points(pair, data) -> None:
    g, b = pair
    groups = [data.draw(st.lists(_POINTS, min_size=1, max_size=3)) for _ in range(b)]
    moments = generic_moments()
    squares = [[z * z for z in grp] for grp in groups]
    if any(0 in sq or len(set(sq)) < len(sq) for sq in squares):
        with pytest.raises(CoincidentPoints):
            n_point_core(g, groups, moments)
        return
    assert n_point_core(g, groups, moments) == grouped_by_full_form(g, groups, moments)


def test_float_orbit_values_match_the_term_by_term_sum() -> None:
    rng = random.Random(7)
    moments = {k: float(v) for k, v in generic_moments().items()}
    for g, b in [(0, 3), (0, 6), (1, 1), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)]:
        stored = correlator(g, b)
        for _ in range(10):
            points = [rng.choice((-1, 1)) * rng.uniform(0.3, 3.0) for _ in range(b)]
            got = _orbit_values(_orbits(g, b), b, [points], moments)[0]
            assert got == pytest.approx(evaluate_full(stored, points, moments), rel=1e-12)


def test_float_evaluation_error_contracts() -> None:
    moments = {k: float(v) for k, v in generic_moments().items()}
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[0.0], [3.0]], moments)
    # the pole is found before the moments are bound
    with pytest.raises(CoincidentPoints):
        n_point_core(1, [[2.0], [0.0]], {})
    with pytest.raises(UnknownVariable):
        n_point_core(1, [[2.0], [3.0]], {0: 1.0})
    with pytest.raises(OutOfFloatRange):
        evaluate_correlator(2, [[1e-200]], 0.5, moments)
