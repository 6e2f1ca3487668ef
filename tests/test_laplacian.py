"""Laplacian chain: frozen genus tables, cross-form validation, extraction checks."""

import hashlib
import os
from fractions import Fraction
from math import factorial

import pytest

from oracles import OPERATOR_BLOCKS, bell_route_free_energy, ring_free_energies, ungrouped_apply
from taulap.bell import resolvent_coefficient
from taulap.laplacian import (
    _RHO_TABLES,
    _T_TABLES,
    DimensionMismatch,
    GenusOutOfRange,
    StablePartition,
    _apply_packed,
    _OperatorTables,
    _rows,
    apply_laplacian_rho,
    apply_laplacian_t,
    free_energy,
    genus_two_rho,
    genus_two_t,
    stable_partition,
    tau_intersection,
)
from taulap.ring import _UNIT_OFFSET, MomentPoly, RingError, SlotOverflow, _unpack, convert, render_terms

F = Fraction

FORMS = {"rho": _RHO_TABLES, "t": _T_TABLES}

# Checks that take minutes run only when this environment variable is set.
slow = pytest.mark.skipif(not os.environ.get("TAULAP_SLOW"), reason="set TAULAP_SLOW=1 to run")


GENUS3_TABLE = {
    "t2^6/T0^10": "1225/144",
    "t2^4*t3/T0^9": "193/288",
    "t2^2*t3^2/T0^8": "205/3456",
    "t2^3*t4/T0^8": "53/1152",
    "t3^3/T0^7": "583/96768",
    "t2*t3*t4/T0^7": "1121/241920",
    "t2^2*t5/T0^7": "17/5760",
    "t4^2/T0^6": "607/1451520",
    "t3*t5/T0^6": "503/1451520",
    "t2*t6/T0^6": "77/414720",
    "t7/T0^5": "1/82944",
}

GENUS4_TABLE = {
    "t2^9/T0^15": "1816871/48",
    "t2^7*t3/T0^14": "3326267/1728",
    "t2^5*t3^2/T0^13": "728465/6912",
    "t2^3*t3^3/T0^12": "43201/6912",
    "t2*t3^4/T0^11": "134233/331776",
    "t2^6*t4/T0^13": "70735/864",
    "t2^4*t3*t4/T0^12": "83851/17280",
    "t2^2*t3^2*t4/T0^11": "26017/82944",
    "t3^3*t4/T0^10": "185251/8294400",
    "t2^3*t4^2/T0^11": "5609/23040",
    "t2*t3*t4^2/T0^10": "177/10240",
    "t4^3/T0^9": "175/165888",
    "t2^5*t5/T0^12": "21329/6912",
    "t2^3*t3*t5/T0^11": "13783/69120",
    "t2*t3^2*t5/T0^10": "1837/129600",
    "t2^2*t4*t5/T0^10": "7597/691200",
    "t3*t4*t5/T0^9": "719/829440",
    "t2*t5^2/T0^9": "533/967680",
    "t2^4*t6/T0^11": "2471/23040",
    "t2^2*t3*t6/T0^10": "7897/1036800",
    "t3^2*t6/T0^9": "1997/3317760",
    "t2*t4*t6/T0^9": "1081/2322432",
    "t5*t6/T0^8": "487/18579456",
    "t2^3*t7/T0^10": "4907/1382400",
    "t2*t3*t7/T0^9": "16243/58060800",
    "t4*t7/T0^8": "1781/92897280",
    "t2^2*t8/T0^9": "53/460800",
    "t3*t8/T0^8": "947/92897280",
    "t2*t9/T0^8": "149/39813120",
    "t10/T0^7": "1/7962624",
}


def normalized_table(g: int) -> dict[str, str]:
    fg = free_energy(g, "t")
    return dict(render_terms(fg, "t", normalized=True))


# -- frozen genus tables --------------------------------------------------------

# F_2 in the rescaled form: its coefficients are <tau_2^3> / 3!, <tau_2 tau_3>
# and <tau_4>. The runtime converts it from the moment form.
GENUS2_T = MomentPoly({
    (-5, 3): F(7, 1440),
    (-4, 1, 1): F(29, 5760),
    (-3, 0, 0, 1): F(1, 1152),
})


def test_genus_two_fixtures_consistent() -> None:
    assert genus_two_t() == GENUS2_T
    assert list(genus_two_t().nums) == list(GENUS2_T.nums)
    assert stable_partition("rho").f(2) == genus_two_rho()
    assert stable_partition("t").f(2) == genus_two_t()


def test_genus_three_table() -> None:
    assert normalized_table(3) == GENUS3_TABLE


def test_genus_four_table() -> None:
    assert normalized_table(4) == GENUS4_TABLE


def test_genus_three_from_single_operator_application() -> None:
    # F_3 = -Delta(F_2) / 2 exactly
    assert stable_partition("rho").f(3) == apply_laplacian_rho(genus_two_rho()).scale(F(-1, 2))


# -- operator structure ----------------------------------------------------------

def test_operator_raises_weight_by_three() -> None:
    for probe in (genus_two_rho(), MomentPoly.variable(2), MomentPoly({(-2, 1, 1): 1})):
        image = apply_laplacian_rho(probe)
        assert image.weight() == probe.weight() + 3


def test_rescaled_form_agrees_with_moment_form() -> None:
    probes = [
        genus_two_t(),
        MomentPoly.variable(1),
        MomentPoly({(-4, 2, 1): F(3, 7), (-2, 0, 0, 2): F(-1, 5)}),
        stable_partition("t").f(3),
    ]
    for p in probes:
        lhs = apply_laplacian_t(p)
        rhs = convert(apply_laplacian_rho(convert(p, "t", "rho")), "rho", "t")
        assert lhs == rhs


def test_native_chains_agree_across_forms() -> None:
    for g in (2, 3, 4, 5):
        assert convert(stable_partition("rho").f(g), "rho", "t") == stable_partition("t").f(g)


def _walk(form, block: tuple) -> tuple[MomentPoly, list[tuple[int, ...]]]:
    """A block's pieces summed in the kernel's walk order, and the keys in first-touch order."""
    acc: dict[int, Fraction] = {}
    for den, num, shift, index in form.pieces(block)[0]:
        for s, c in form.items[index]:
            code = _UNIT_OFFSET + shift + s
            acc[code] = acc.get(code, 0) + F(num * c, den)
    return MomentPoly({_unpack(code): v for code, v in acc.items()}), [_unpack(code) for code in acc]


def _blocks(top: int):
    """Every block the kernel can ask for whose indices sum to at most ``top``."""
    yield ("c1",)
    yield ("c2",)
    for k in range(1, top + 1):
        yield ("e", k)
        yield ("m", k)
    for s in range(2, top + 1):
        for k in range(1, s // 2 + 1):
            yield ("d", k, s - k)


def _check_pieces_against_oracle(convention: str, top: int) -> int:
    form, oracle = FORMS[convention], OPERATOR_BLOCKS[convention]
    count = 0
    for block in _blocks(top):
        poly, scalar = oracle[block[0]](*block[1:])
        total, keys = _walk(form, block)
        assert total == poly.scale(scalar), (convention, block)
        # a key touched by the walk but cancelled in the block would move the chain's key order
        assert keys == list(poly.nums), (convention, block)
        count += 1
    return count


def test_operator_pieces_match_oracle_blocks() -> None:
    for convention in FORMS:
        assert _check_pieces_against_oracle(convention, 15) == 88


@slow
@pytest.mark.parametrize("convention", sorted(FORMS))
def test_operator_pieces_match_oracle_blocks_through_index_sum_39(convention: str) -> None:
    """Index sums up to 39 cover every block the chain meets through ``MAX_GENUS = 14``."""
    assert _check_pieces_against_oracle(convention, 39) == 460


def test_operator_coefficients_scaling_degree() -> None:
    """Every block must raise the Euler degree -(e0 + sum e_k) by exactly 2."""
    for form in FORMS.values():

        def block(*name: object) -> MomentPoly:
            return _walk(form, name)[0]

        def degrees(p: MomentPoly) -> set[int]:
            return {-(sum(k)) for k in p.terms}

        assert degrees(block("c2")) == {0}
        assert degrees(block("c1")) == {1}
        for k in range(1, 6):
            assert degrees(block("m", k)) == {0}
            assert degrees(block("e", k)) == {1}
            for l in range(1, 6):
                assert degrees(block("d", k, l)) == {0}
                assert block("d", k, l) == block("d", l, k)


def test_packed_kernel_raises_on_slot_overflow() -> None:
    """Exponents live in 8-bit slots (unit offset by 128); leaving one raises, never wraps."""
    assert issubclass(SlotOverflow, RingError)
    # fits: the operator lowers the unit power by at most 6 here (to -126)
    assert apply_laplacian_rho(MomentPoly({(-120, 1): 1})).weight() == 4
    for probe in (
        MomentPoly({(-127, 1): 1}),   # image would need a unit power below -128
        MomentPoly({(-129, 1): 1}),   # does not fit a slot at all
        MomentPoly({(0, 255): F(1, 3)}),  # image would need r1^257
    ):
        with pytest.raises(SlotOverflow):
            apply_laplacian_rho(probe)
        with pytest.raises(SlotOverflow):
            apply_laplacian_t(probe)


def test_table_index_fits_its_slot() -> None:
    """A row key keeps its table's index in one 8-bit slot; a 257th table raises."""
    form = _OperatorTables(lambda m: MomentPoly.variable(1), {}, {})
    for m in range(256):
        form._table(m)
    with pytest.raises(SlotOverflow):
        form._table(256)


# -- grouped products against the ungrouped walk ---------------------------------

F2 = {"rho": genus_two_rho(), "t": genus_two_t()}


def _assert_same_as_ungrouped(p: MomentPoly, convention: str) -> MomentPoly:
    got = _apply_packed(p, FORMS[convention])
    want = ungrouped_apply(p, FORMS[convention])
    # numerators in key order, and the denominator
    assert list(got.nums.items()) == list(want.nums.items()), convention
    assert got.den == want.den, convention
    return got


def _check_chain_against_ungrouped(convention: str, top: int) -> None:
    """The kernel equals the ungrouped walk on ``u_0..u_top`` of the chain."""
    u = MomentPoly.one()
    for _ in range(top + 1):
        u = -_assert_same_as_ungrouped(u, convention) + F2[convention] * u


def test_grouped_kernel_matches_ungrouped_walk() -> None:
    for convention in FORMS:
        _check_chain_against_ungrouped(convention, 8)


@slow
@pytest.mark.parametrize("convention", sorted(FORMS))
def test_grouped_kernel_matches_ungrouped_walk_through_u_11(convention: str) -> None:
    """``u_11`` is the last step ``fg --gmax 12`` takes."""
    _check_chain_against_ungrouped(convention, 11)


# r1 r2^2 and r1^2 r3 (over unit^3) reach several of the same rows, the table
# R_3 at r2 r3 / unit^4 among them; with these coefficients their factors there
# sum to 0.
CANCELLING = {
    "rho": MomentPoly({(-3, 1, 2): 1, (-3, 2, 0, 1): F(-7, 5)}),
    "t": MomentPoly({(-3, 1, 2): 1, (-3, 2, 0, 1): -1}),
}


def test_grouped_kernel_keeps_the_order_of_a_cancelled_row() -> None:
    """A row whose factor sums to 0 still places its keys where the walk first meets them."""
    for convention, p in CANCELLING.items():
        rows, _ = _rows(p, FORMS[convention])
        assert 0 in rows.values(), convention
        _assert_same_as_ungrouped(p, convention)


# -- structure of the free energies ----------------------------------------------

def _partition_count(n: int) -> int:
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


# sha256 of the repr of [list(F_g.terms.items()) for g in 2..7]. The order of
# the terms is what float evaluation of the correlators built from F_g sums in.
TERM_ORDER_DIGESTS = {
    "rho": "e8856082d04c32ac8e9ffcdbb7f539290de1d364e859db163dec75033d59eb7b",
    "t": "b32cd9887dda4c1d14a29f411651734c56203dcfda9ac490b1f5389895ee3774",
}


def test_free_energy_term_order_is_frozen() -> None:
    for convention, digest in TERM_ORDER_DIGESTS.items():
        terms = [list(free_energy(g, convention).terms.items()) for g in range(2, 8)]
        assert hashlib.sha256(repr(terms).encode()).hexdigest() == digest, convention


def test_free_energy_structure() -> None:
    for g in range(2, 7):
        fg = free_energy(g, "t")
        assert fg.weight() == 3 * g - 3
        assert len(fg.terms) == _partition_count(3 * g - 3)
        for key in fg.terms:
            assert key[0] == -(2 * g - 2) - sum(key[1:])


def test_extraction_matches_bell_route_oracle() -> None:
    """The runtime log recurrence against the Bell-polynomial form of ``log Z``."""
    for convention in ("rho", "t"):
        part = stable_partition(convention)
        zs = {g: part.z(g) for g in range(2, 9)}
        for g in range(2, 9):
            assert part.f(g) == bell_route_free_energy(g, zs), (convention, g)


def test_packed_extraction_matches_ring_recurrence() -> None:
    """Numerators, denominator and key order of every ``F_g`` against ring arithmetic."""
    for convention in ("rho", "t"):
        part = stable_partition(convention)
        want = ring_free_energies({g: part.z(g) for g in range(2, 10)}, 9)
        for g in range(2, 10):
            got = part.f(g)
            assert list(got.nums.items()) == list(want[g].nums.items()), (convention, g)
            assert got.den == want[g].den, (convention, g)


def _with_z(zs: list[MomentPoly]) -> StablePartition:
    part = StablePartition("rho")
    part._z = zs  # Z_2, Z_3, ... in place of the chain's
    return part


def test_packed_extraction_keeps_the_order_of_a_cancelled_key() -> None:
    """A key that cancels in the sum is deleted and re-enters at the end."""
    # 3 F_4 = 3 Z_4 - F_2 Z_3 - 2 F_3 Z_2; F_2 Z_3 cancels the first key of
    # 3 Z_4, r0^-1 r1 r2, and F_3 Z_2 puts it back, now last
    zs = [MomentPoly({(-1, 1): 1}), MomentPoly({(0, 0, 1): 1, (-2, 2): 1}),
          MomentPoly({(-1, 1, 1): F(1, 3), (-1, 0, 0, 1): 1})]
    part = _with_z(zs)
    want = ring_free_energies({g: z for g, z in enumerate(zs, 2)}, 4)
    for g in (2, 3, 4):
        assert list(part.f(g).nums.items()) == list(want[g].nums.items()), g
        assert part.f(g).den == want[g].den, g
    assert list(want[4].nums) == [(-1, 0, 0, 1), (-3, 3), (-1, 1, 1)]


def test_packed_extraction_raises_on_slot_overflow() -> None:
    """Each product's exponent bounds are checked before it is formed; a key never wraps."""
    # F_2 Z_2 reaches r0^-128, the least unit power a slot holds
    f3 = _with_z([MomentPoly({(-64, 1): 1})] * 2).f(3)
    assert f3 == MomentPoly({(-64, 1): 1, (-128, 2): F(-1, 2)})
    for zs in (
        [MomentPoly({(-65, 1): 1}), MomentPoly({(-64, 1): 1})],  # F_2 Z_2 needs r0^-130
        [MomentPoly({(0, 128): 1}), MomentPoly({(0, 128): 1})],  # F_2 Z_2 needs r1^256
        [MomentPoly({(-129, 1): 1})],  # Z_2 does not fit a slot at all
    ):
        part = _with_z(zs)
        with pytest.raises(SlotOverflow):
            part.f(len(zs) + 1)


def test_genus_bounds() -> None:
    with pytest.raises(GenusOutOfRange):
        stable_partition("t").f(1)
    with pytest.raises(GenusOutOfRange):
        stable_partition("t").z(0)


# -- intersection numbers ---------------------------------------------------------

def test_tau_values_frozen() -> None:
    assert tau_intersection([2, 2, 2]) == F(7, 240)
    assert tau_intersection([2, 3]) == F(29, 5760)
    assert tau_intersection([4]) == F(1, 1152)
    assert tau_intersection([2, 3, 4]) == F(1121, 241920)
    assert tau_intersection([6, 2]) == F(77, 414720)
    assert tau_intersection([5, 3]) == F(503, 1451520)
    assert tau_intersection([4, 4]) == F(607, 1451520)
    assert tau_intersection([7]) == F(1, 82944)
    assert tau_intersection([2, 3, 3, 3, 3]) == F(134233, 331776)
    assert tau_intersection([2, 2, 4, 5]) == F(7597, 691200)


def test_tau_single_insertion_closed_form() -> None:
    for g in range(2, 7):
        assert tau_intersection([3 * g - 2]) == F(1, 24**g * factorial(g))


def test_tau_is_order_independent() -> None:
    assert tau_intersection([4, 2, 2, 5]) == tau_intersection([2, 2, 4, 5])


def test_tau_validation() -> None:
    with pytest.raises(DimensionMismatch):
        tau_intersection([])
    with pytest.raises(DimensionMismatch):
        tau_intersection([1, 4])
    with pytest.raises(DimensionMismatch):
        tau_intersection([2, 2])


# -- display conventions ----------------------------------------------------------

def test_free_energy_other_conventions() -> None:
    f2_iz = free_energy(2, "iz")
    assert f2_iz == genus_two_t()  # identical scaling, different symbols
    f2_ey = free_energy(2, "eynard")
    assert f2_ey == MomentPoly({
        (-5, 3): F(21, 160),
        (-4, 1, 1): F(29, 128),
        (-3, 0, 0, 1): F(35, 384),
    })


def test_resolvent_required_depth_available() -> None:
    # the genus-5 chain needs series coefficients well past m = 12
    assert resolvent_coefficient(18).weight() == 18
