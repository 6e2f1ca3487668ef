"""Core ring tests: exact arithmetic, conventions, rendering, boundary objects.

Arithmetic is cross-checked against sympy as an independent oracle; rendering
and conversion are checked against frozen genus-two fixtures.
"""

from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RefPoly, collect, evaluate_full, reduce, render_z_by_key
from taulap.boundary import correlator, generic_moments
from taulap.ring import (
    CoincidentPoints,
    MomentPoly,
    NonUnitSubstitution,
    NotHomogeneous,
    UnknownVariable,
    ZLaurent,
    ZRational,
    convert,
    convention_scale,
    double_factorial,
    render_monomial,
    render_str,
    render_terms,
    render_z,
    rational,
    _bind_exact,
    _ordered_nums,
)

F = Fraction


# -- fixtures ---------------------------------------------------------------

def genus_two_energy() -> MomentPoly:
    """The genus-two free energy in moment variables (frozen fixture)."""
    return MomentPoly({
        (-5, 3): F(-21, 160),
        (-4, 1, 1): F(29, 128),
        (-3, 0, 0, 1): F(-35, 384),
    })


# -- sympy oracle helpers -----------------------------------------------------

_SYMS = sympy.symbols("x0:8")


def to_sympy(p: MomentPoly):
    expr = sympy.Integer(0)
    for key, coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for l, e in enumerate(key):
            if e:
                term *= _SYMS[l] ** e
        expr += term
    return sympy.expand(expr)


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
).filter(lambda f: f != 0)

keys = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)

polys = st.dictionaries(keys, coeffs, min_size=0, max_size=4).map(MomentPoly)


# -- exact polynomial arithmetic ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_product_matches_symbolic_oracle(a: MomentPoly, b: MomentPoly) -> None:
    assert to_sympy(a * b) == sympy.expand(to_sympy(a) * to_sympy(b))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_distributivity(a: MomentPoly, b: MomentPoly, c: MomentPoly) -> None:
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys)
def test_partial_derivative_matches_symbolic_oracle(p: MomentPoly) -> None:
    for index in range(3):
        assert to_sympy(p.partial(index)) == sympy.expand(
            sympy.diff(to_sympy(p), _SYMS[index])
        )


def test_power_and_scale() -> None:
    p = MomentPoly.variable(1) + MomentPoly.unit_power(-1)
    assert p.scale(F(1, 2)) + p.scale(F(1, 2)) == p
    # unit powers that cancel leave the empty key
    q = MomentPoly.unit_power(-2) * (MomentPoly.variable(1) + MomentPoly.unit_power(2))
    assert list(q.terms) == [(-2, 1), ()]


def test_substitution() -> None:
    p = genus_two_energy()
    value = p.substitute({0: F(2), 1: F(1, 3), 2: F(-1), 3: F(5)})
    expected = (
        F(-21, 160) * F(2) ** -5 * F(1, 3) ** 3
        + F(29, 128) * F(2) ** -4 * F(1, 3) * F(-1)
        + F(-35, 384) * F(2) ** -3 * F(5)
    )
    assert value == expected
    with pytest.raises(UnknownVariable):
        p.substitute({0: F(2), 1: F(1, 3)})


def test_weight_grading() -> None:
    p = genus_two_energy()
    assert p.weight() == 3
    mixed = p + MomentPoly.variable(1)
    assert mixed.weights() == {1, 3}
    with pytest.raises(NotHomogeneous):
        mixed.weight()
    assert MomentPoly.zero().weight() == 0


def test_support_queries() -> None:
    p = genus_two_energy()
    assert p.moment_support() == {0, 1, 2, 3}
    assert MomentPoly.constant(5).moment_support() == set()


# -- the integer-numerator form against the Fraction reference ----------------

def same(p: MomentPoly, ref: RefPoly) -> None:
    """Equal coefficients in the same key order."""
    assert list(p.terms.items()) == list(ref.terms.items())


@st.composite
def ring_pairs(draw):
    """Two polynomials with negative unit powers; ``b`` cancels part of ``a``."""
    a_terms = draw(st.dictionaries(keys, coeffs, max_size=5))
    cancelled = draw(st.lists(st.sampled_from(sorted(a_terms)), unique=True)) if a_terms else []
    b_terms = {k: -a_terms[k] for k in cancelled}
    b_terms.update(draw(st.dictionaries(keys, coeffs, max_size=4)))
    return MomentPoly(a_terms), MomentPoly(b_terms)


@settings(max_examples=150, deadline=None)
@given(ring_pairs(), st.one_of(st.just(F(0)), coeffs))
def test_ring_matches_fraction_reference(pair, factor) -> None:
    a, b = pair
    ra, rb = RefPoly.of(a), RefPoly.of(b)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a + (-a), ra + (-ra))
    same(a.scale(factor), ra.scale(factor))
    for index in range(4):
        same(a.partial(index), ra.partial(index))
    for dst in ("t", "iz", "eynard"):
        same(convert(a, "rho", dst), ra.convert("rho", dst))
    same(a * b, ra * rb)


def test_terms_is_a_read_only_fraction_view() -> None:
    p = MomentPoly({(-2, 1): F(2, 6), (1,): 3})
    assert p.nums == {(-2, 1): 1, (1,): 9} and p.den == 3
    view = p.terms
    assert view == {(-2, 1): F(1, 3), (1,): F(3)}
    view[(1,)] = F(5)
    assert p.terms[(1,)] == 3
    with pytest.raises(AttributeError):
        p.terms = {}
    assert MomentPoly.from_numerators({(1,): 4, (2,): 0, (3,): -6}, 8) == MomentPoly(
        {(1,): F(1, 2), (3,): F(-3, 4)})


def test_double_factorial_values() -> None:
    assert [double_factorial(n) for n in (-1, 1, 3, 5, 7, 9)] == [1, 1, 3, 15, 105, 945]
    with pytest.raises(ValueError):
        double_factorial(4)


# -- conventions --------------------------------------------------------------

def test_convention_scales() -> None:
    assert convention_scale("rho", 1) == 1
    assert convention_scale("t", 1) == F(-1, 3)
    assert convention_scale("t", 2) == F(-1, 15)
    assert convention_scale("iz", 3) == F(-1, 105)
    assert convention_scale("eynard", 4) == -1


def test_conversion_between_conventions() -> None:
    p = genus_two_energy()
    pt = convert(p, "rho", "t")
    assert pt == MomentPoly({
        (-5, 3): F(7, 1440),
        (-4, 1, 1): F(29, 5760),
        (-3, 0, 0, 1): F(1, 1152),
    })
    assert convert(p, "rho", "iz") == pt
    assert convert(p, "rho", "eynard") == MomentPoly({
        (-5, 3): F(21, 160),
        (-4, 1, 1): F(29, 128),
        (-3, 0, 0, 1): F(35, 384),
    })
    for src in ("rho", "t", "iz", "eynard"):
        for dst in ("rho", "t", "iz", "eynard"):
            assert convert(convert(p, "rho", src), src, dst) == convert(p, "rho", dst)


# -- rendering ----------------------------------------------------------------

def test_monomial_rendering() -> None:
    assert render_monomial((-5, 3), "rho") == "r0^-5*r1^3"
    assert render_monomial((-5, 3), "t") == "t2^3/T0^5"
    assert render_monomial((-5, 3), "iz") == "I2^3/(1-I1)^5"
    assert render_monomial((-5, 3), "eynard") == "t5^3/(2-t3)^5"
    assert render_monomial((-4, 1, 1), "t") == "t2*t3/T0^4"
    assert render_monomial((-3, 0, 0, 1), "t") == "t4/T0^3"
    assert render_monomial((), "t") == "1"
    assert render_monomial((2,), "t") == "T0^2"
    assert render_monomial((-1,), "t") == "1/T0"
    assert render_monomial((1,), "rho") == "r0"


def test_term_ordering_matches_weight_then_unit_power() -> None:
    p = genus_two_energy()
    assert [k for k, _ in _ordered_nums(p)] == [(-5, 3), (-4, 1, 1), (-3, 0, 0, 1)]
    q = MomentPoly({(): 1, (-3,): 2, (2,): 3})
    assert [k for k, _ in _ordered_nums(q)] == [(-3,), (), (2,)]


def test_normalized_rendered_values() -> None:
    pt = convert(genus_two_energy(), "rho", "t")
    assert render_terms(pt, "t", normalized=True) == [
        ("t2^3/T0^5", "7/240"),
        ("t2*t3/T0^4", "29/5760"),
        ("t4/T0^3", "1/1152"),
    ]
    assert render_terms(pt, "t", normalized=False)[0] == ("t2^3/T0^5", "7/1440")


def test_string_rendering() -> None:
    p = MomentPoly({(-5, 3): F(-21, 160)})
    assert render_str(p, "rho") == "-21/160*r0^-5*r1^3"
    assert render_str(MomentPoly.zero()) == "0"
    assert rational("7/240") == F(7, 240)


# The renderings by the Fraction of each term, written out: the references for
# the integer rendering and for the signs folded into the joins.

def reference_terms(p: MomentPoly, convention: str, normalized: bool) -> list[tuple[str, str]]:
    out = []
    width = max((len(k) for k in p.terms), default=0)
    for key in sorted(p.terms, key=lambda k: (sum(l * e for l, e in enumerate(k) if l),
                                              k + (0,) * (width - len(k)))):
        value = p.terms[key]
        if normalized:
            for e in key[1:]:
                value *= factorial(e)
        out.append((render_monomial(key, convention), str(value)))
    return out


def reference_str(p: MomentPoly, convention: str) -> str:
    parts = []
    for key, n in _ordered_nums(p):
        coeff = F(n, p.den)
        mono = render_monomial(key, convention)
        if mono == "1":
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def reference_z(obj: ZLaurent) -> str:
    parts = []
    for key in sorted(obj.terms, reverse=True):
        coeff = obj.terms[key]
        zmono = "*".join(f"z{i + 1}" + (f"^{e}" if e != 1 else "") for i, e in enumerate(key) if e)
        cstr = reference_str(coeff, "rho")
        if len(coeff.nums) > 1:
            cstr = f"({cstr})"
        parts.append(f"{cstr}*{zmono}" if zmono else cstr)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


render_keys = st.tuples(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5),
)
render_polys = st.dictionaries(
    render_keys, st.fractions(min_value=-50, max_value=50, max_denominator=720), max_size=8,
).map(MomentPoly)


@settings(max_examples=200, deadline=None)
@given(p=render_polys, convention=st.sampled_from(["rho", "t", "iz", "eynard"]),
       normalized=st.booleans())
def test_render_terms_matches_fraction_reference(p, convention, normalized) -> None:
    assert render_terms(p, convention, normalized) == reference_terms(p, convention, normalized)


@settings(max_examples=200, deadline=None)
@given(p=render_polys, convention=st.sampled_from(["rho", "t", "iz", "eynard"]))
def test_render_str_matches_joined_and_replaced(p, convention) -> None:
    assert render_str(p, convention) == reference_str(p, convention)


def test_render_z_matches_joined_and_replaced() -> None:
    assert render_z(correlator(1, 3)) == reference_z(correlator(1, 3))
    # single-term coefficients of either sign first and later, and a sum
    mixed = zl(2, {
        (-3, 0): MomentPoly({(-1, 1): -2}),
        (0, -5): MomentPoly({(2,): F(1, 3)}),
        (-1, -1): MomentPoly({(): -1}),
        (1, 0): MomentPoly({(-2, 2): 1, (-1, 0, 1): -1}),
        (0, 0): MomentPoly({(-1, 1): F(-1, 2)}),
    })
    assert render_z(mixed) == reference_z(mixed)
    assert render_z(zl(1, {})) == "0"


# coefficient objects of either sign, one term or several; each is shared by
# every key that draws it
_SHARED_COEFFS = [
    MomentPoly({(-1, 1): -2}),
    MomentPoly({(2,): F(1, 3)}),
    MomentPoly({(-2, 2): 1, (-1, 0, 1): -1}),
    MomentPoly({(): -1}),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nvars=st.integers(min_value=1, max_value=4),
       convention=st.sampled_from(["rho", "t", "iz", "eynard"]))
def test_render_z_matches_the_per_key_join(data, nvars, convention) -> None:
    # exponent 1 prints bare, exponent 0 is left out, and either sign prints as is
    keys = st.tuples(*[st.integers(min_value=-7, max_value=3)] * nvars)
    obj = zl(nvars, data.draw(st.dictionaries(keys, st.sampled_from(_SHARED_COEFFS), max_size=12)))
    assert render_z(obj, convention) == render_z_by_key(obj, convention)


# -- boundary-variable Laurent objects -----------------------------------------

def zl(nvars, terms):
    return ZLaurent(nvars, terms)


def test_laurent_arithmetic_and_shift() -> None:
    a = zl(2, {(-3, 0): 1, (0, -5): F(1, 2)})
    b = zl(2, {(1, 1): MomentPoly.variable(1)})
    prod = a * b
    assert prod == zl(2, {(-2, 1): MomentPoly.variable(1),
                          (1, -4): MomentPoly.variable(1).scale(F(1, 2))})
    assert a.shift(0, 2) == zl(2, {(-1, 0): 1, (2, -5): F(1, 2)})
    assert (a - a).is_zero


def test_laurent_derivative_and_moment_partial() -> None:
    a = zl(1, {(-3,): MomentPoly.variable(1), (2,): 1})
    assert a.dz(0) == zl(1, {(-4,): MomentPoly.variable(1).scale(-3), (1,): 2})
    assert a.partial_moment(1) == zl(1, {(-3,): 1})


def test_laurent_collect_and_identify() -> None:
    a = zl(2, {(-3, -1): 1, (-3, -2): 2, (0, -1): 3})
    grouped = collect(a, 0)
    assert set(grouped) == {-3, 0}
    assert grouped[-3] == zl(1, {(-1,): 1, (-2,): 2})
    assert collect(a, 1)[-1] == zl(1, {(-3,): 1, (0,): 3})
    assert a.identify(0, 1) == zl(1, {(-4,): 1, (-5,): 2, (-1,): 3})
    assert a.identify(1, 0) == zl(1, {(-4,): 1, (-5,): 2, (-1,): 3})


def test_laurent_embed_and_permute() -> None:
    a = zl(1, {(-3,): 1})
    wide = a.embed([2], 4)
    assert wide == zl(4, {(0, 0, -3, 0): 1})
    b = zl(2, {(-1, -2): 1})
    assert b.embed([1, 0], 2) == zl(2, {(-2, -1): 1})


def test_laurent_evaluate_and_bind() -> None:
    a = zl(2, {(-3, 0): MomentPoly.variable(1), (0, -2): 1})
    val = evaluate_full(a, [F(2), F(3)], {1: F(5)})
    assert val == F(5) / 8 + F(1, 9)
    ints, scale = _bind_exact(a.terms, {1: F(5)})
    assert {k: n * scale for k, n in ints.items()} == {(-3, 0): F(5), (0, -2): F(1)}
    with pytest.raises(UnknownVariable):
        evaluate_full(a, [F(2), F(3)], {})


exact_values = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
)


@st.composite
def exact_evaluations(draw, min_vars: int = 1):
    """A Laurent object, exact points and exact moments.

    A point is zero only where every exponent of its variable is >= 0.
    """
    nvars = draw(st.integers(min_value=min_vars, max_value=3))
    zero = [draw(st.booleans()) for _ in range(nvars)]
    zkeys = st.tuples(*[st.integers(min_value=0 if z else -4, max_value=4) for z in zero])
    terms = draw(st.dictionaries(zkeys, polys, max_size=5))
    points = [0 if z else draw(exact_values.filter(bool)) for z in zero]
    moments = {0: draw(exact_values.filter(bool)), 1: draw(exact_values), 2: draw(exact_values)}
    return ZLaurent(nvars, terms), points, moments


def term_loop(obj: ZLaurent, points, moments) -> Fraction:
    """Term-by-term Fraction sum: the reference for exact evaluation."""
    total = F(0)
    for key, coeff in obj.terms.items():
        for mkey, c in coeff.terms.items():
            for l, e in enumerate(mkey):
                c *= F(moments[l]) ** e
            for z, e in zip(points, key):
                c *= F(z) ** e
            total += c
    return total


@settings(max_examples=100, deadline=None)
@given(exact_evaluations())
def test_exact_evaluation_matches_term_loop(case) -> None:
    obj, points, moments = case
    expected = term_loop(obj, points, moments)
    got = evaluate_full(obj, points, moments)
    assert type(got) is Fraction and got == expected


@settings(max_examples=40, deadline=None)
@given(exact_evaluations(min_vars=2), st.integers(min_value=1, max_value=3))
def test_exact_rational_evaluation_matches_term_loop(case, power) -> None:
    num, points, moments = case
    if points[0] + points[1] == 0:
        return
    obj = ZRational(num, {(0, 1, 1): power})
    expected = term_loop(num, points, moments) / F(points[0] + points[1]) ** power
    assert evaluate_full(obj, points, moments) == expected


def float_term_loop(obj: ZLaurent, points, moments) -> object:
    """Term by term from the Fraction coefficients, in stored order: the float reference."""
    expected = None
    for key, coeff in obj.terms.items():
        part = RefPoly.of(coeff).substitute(moments)
        for z, e in zip(points, key):
            if e:
                part = part * z**e
        expected = part if expected is None else expected + part
    return F(0) if expected is None else expected


def test_float_evaluation_sums_term_by_term() -> None:
    @settings(max_examples=40, deadline=None)
    @given(exact_evaluations())
    def generated(case) -> None:
        obj, points, moments = case
        points = [float(z) for z in points]
        moments = {l: float(v) for l, v in moments.items()}
        assert evaluate_full(obj, points, moments) == float_term_loop(obj, points, moments)

    generated()
    # the stored correlators with 2g + B - 2 <= 4, bit for bit
    moments = {l: float(v) for l, v in generic_moments().items()}
    for g, b in [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4),
                 (2, 1), (2, 2)]:
        stored = correlator(g, b)
        num = stored.num if isinstance(stored, ZRational) else stored
        points = [1.3 + 0.7 * i for i in range(b)]
        for coeff in num.terms.values():
            assert repr(coeff.substitute(moments)) == repr(RefPoly.of(coeff).substitute(moments))
        assert repr(evaluate_full(num, points, moments)) == repr(float_term_loop(num, points, moments))


def test_exact_evaluation_errors() -> None:
    obj = zl(2, {(-1, 2): MomentPoly.variable(1), (0, 0): MomentPoly.unit_power(-1)})
    # the pole is found before the moments are bound, even where they vanish
    with pytest.raises(CoincidentPoints):
        evaluate_full(obj, [0, F(3)], {0: F(1), 1: 0})
    with pytest.raises(CoincidentPoints):
        evaluate_full(obj, [0, F(3)], {})
    with pytest.raises(UnknownVariable):
        evaluate_full(obj, [F(2), F(3)], {0: F(2)})
    with pytest.raises(NonUnitSubstitution):
        evaluate_full(obj, [F(2), F(3)], {0: 0, 1: F(1)})
    assert evaluate_full(obj, [F(2), 0], {0: F(2), 1: F(7)}) == F(1, 2)


# -- rational boundary objects --------------------------------------------------

def pair_seed() -> ZRational:
    """4 / (z1 z2 (z1+z2)^2): the planar two-boundary generating object."""
    return ZRational(zl(2, {(-1, -1): 4}), {(0, 1, 1): 2})


def test_rational_evaluation() -> None:
    seed = pair_seed()
    assert evaluate_full(seed, [F(1), F(2)], {}) == F(4, 1 * 2 * 9)
    with pytest.raises(CoincidentPoints):
        evaluate_full(ZRational(zl(2, {(0, 0): 1}), {(0, 1, -1): 1}), [F(2), F(2)], {})


def test_rational_arithmetic_against_pointwise_oracle() -> None:
    a = pair_seed()
    b = ZRational(zl(2, {(-2, 0): 3}), {(0, 1, -1): 1})
    pts = [F(2), F(5)]
    for combined, expected in [
        (a + b, evaluate_full(a, pts, {}) + evaluate_full(b, pts, {})),
        (a * b, evaluate_full(a, pts, {}) * evaluate_full(b, pts, {})),
        (a - b, evaluate_full(a, pts, {}) - evaluate_full(b, pts, {})),
    ]:
        assert evaluate_full(combined, pts, {}) == expected


def test_denominator_orientation_normalization() -> None:
    # (z2 - z1) = -(z1 - z2): numerator sign flips on normalization
    a = ZRational(zl(2, {(0, 0): 1}), {(1, 0, -1): 1})
    b = ZRational(zl(2, {(0, 0): -1}), {(0, 1, -1): 1})
    assert (a - b).num.is_zero
    sym = ZRational(zl(2, {(0, 0): 1}), {(1, 0, 1): 1})
    assert evaluate_full(sym, [F(2), F(3)], {}) == F(1, 5)


def test_synthetic_division_round_trip() -> None:
    base = zl(2, {(-3, 1): MomentPoly.variable(1), (0, -2): F(2, 3), (1, 1): 1})
    for sign in (1, -1):
        grown = ZRational(base).divide_by_factor(0, 1, sign)
        prod = ZRational(base * zl(2, {(1, 0): 1}) + base.shift(1, 1).scale(sign))
        assert reduce(prod * ZRational(zl(2, {(0, 0): 1}), {(0, 1, sign): 1})) == base
        assert reduce(grown) is not base  # stays rational: not divisible
        reduced = reduce(grown)
        assert isinstance(reduced, ZRational)


def test_reduce_cancels_exact_factors() -> None:
    num = zl(2, {(1, 0): 1, (0, 1): 1})  # z1 + z2
    r = ZRational(num, {(0, 1, 1): 1})
    assert reduce(r) == zl(2, {(0, 0): 1})
    r2 = ZRational(num * num, {(0, 1, 1): 2})
    assert reduce(r2) == zl(2, {(0, 0): 1})
    diff = zl(2, {(2, 0): 1, (0, 2): -1})  # z1^2 - z2^2
    assert reduce(ZRational(diff, {(0, 1, 1): 1})) == zl(2, {(1, 0): 1, (0, 1): -1})
    assert reduce(ZRational(diff, {(0, 1, -1): 1})) == zl(2, {(1, 0): 1, (0, 1): 1})


def test_rational_derivative_matches_symbolic_oracle() -> None:
    z1, z2 = sympy.symbols("z1 z2", positive=True)
    seed = pair_seed()
    expr = 4 / (z1 * z2 * (z1 + z2) ** 2)
    for var, sym in ((0, z1), (1, z2)):
        deriv = seed.dz(var)
        expected = sympy.diff(expr, sym)
        for pts in ([F(1), F(2)], [F(3), F(5)], [F(2), F(7)]):
            got = evaluate_full(deriv, pts, {})
            want = expected.subs({z1: sympy.Rational(pts[0]), z2: sympy.Rational(pts[1])})
            assert sympy.Rational(got.numerator, got.denominator) == want


def test_rational_derivative_with_minus_factor() -> None:
    z1, z2 = sympy.symbols("z1 z2", positive=True)
    r = ZRational(zl(2, {(-1, 2): 1}), {(0, 1, -1): 2, (0, 1, 1): 1})
    expr = z2**2 / (z1 * (z1 - z2) ** 2 * (z1 + z2))
    for var, sym in ((0, z1), (1, z2)):
        deriv = r.dz(var)
        expected = sympy.diff(expr, sym)
        got = evaluate_full(deriv, [F(5), F(2)], {})
        want = expected.subs({z1: 5, z2: 2})
        assert sympy.Rational(got.numerator, got.denominator) == want


def test_rational_embed() -> None:
    r = pair_seed()
    wide = r.embed([2, 0], 3)
    pts = [F(5), F(11), F(2)]
    assert evaluate_full(wide, pts, {}) == evaluate_full(r, [pts[2], pts[0]], {})
