"""Boundary correlators built from the free energies by creation operators.

A correlator with ``B`` boundaries is a Laurent object in ``z_1 .. z_B`` with
moment-polynomial coefficients; the planar pair is the record ``ZRational``
of its one term over ``(z_1 + z_2)^2``. Chains grow from two literal seeds,
``G_{0,3}`` and ``G_{1,1}`` (the initial data of topological recursion), and
from the one-boundary correlators of ``F_g`` for ``g >= 2``, by the boundary
creation operator:

* ``create``      -- the one-boundary correlator of a free energy (the
  creation step from no boundary);
* ``number_operator`` -- the grading; correlators are eigenvectors with
  eigenvalue ``2g + B - 2``.

A correlator is symmetric in its boundary variables, so creation and
evaluation run on orbits only (monomial symmetric functions, Macdonald,
*Symmetric Functions and Hall Polynomials*): ``_orbits`` keeps one
coefficient per sorted ``z`` key, every creation step is ``_create_orbits``,
and exact and float evaluation (``n_point_core``) and the coincident-point
pair (``diagonal``) read the orbits directly. ``correlator`` writes every key
out for the consumers that need the full form (printing, and the
multi-boundary loop-equation residual, which reads each key's coefficient as
integer numerators), with one shared coefficient object per orbit.

Stored objects are unit-normalized: the physical correlator carries an
overall coupling power ``lambda ** lambda_exponent(g, B)`` on top of the
stored one, and boundary chains absorb fixed powers of two recorded in
``_orbits`` (``2^{4g}`` into the one-boundary object, ``2^2`` for the
first created boundary, ``2^3`` for each further one).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Iterator, Mapping, Sequence

from taulap.laplacian import GenusOutOfRange, stable_partition
from taulap.ring import (
    _SLOT_BITS,
    _SLOT_MASK,
    _UNIT_OFFSET,
    CoincidentPoints,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    ZRational,
    _add_bounds,
    _bind_exact,
    _check_slots,
    _is_exact,
    _power_tables,
    _slot,
    _union_bounds,
    _unpack,
    _width,
)

F = Fraction


class OutOfFloatRange(RingError):
    """A float evaluation overflowed, or a pole factor underflowed to zero."""


def lambda_exponent(g: int, boundaries: int) -> int:
    """Coupling power relating the stored correlator to the physical one."""
    if g < 0 or boundaries < 1:
        raise GenusOutOfRange(f"invalid correlator labels ({g}, {boundaries})")
    return 4 * g + 3 * boundaries - 4 + (1 if boundaries == 1 else 0)


def generic_moments() -> dict[int, Fraction]:
    """Fixed generic rational moment values free of accidental degeneracies.

    Index 0 is ``5/3`` and index ``l = 1..40`` is ``(-1)^l p_l / p_(l+3)``,
    where ``p_1 = 2, p_2 = 3, ...`` are the primes (``p_43 = 191``). Index 40
    is the largest ``3g - 3 + B`` of a correlator ``G_{g,B}`` the command
    line admits.
    """
    primes = [n for n in range(2, 192) if all(n % p for p in range(2, isqrt(n) + 1))]
    out = {0: F(5, 3)}
    for l in range(1, 41):
        out[l] = F((-1) ** l * primes[l - 1], primes[l + 2])
    return out


# ---------------------------------------------------------------------------
# operators


def _with_variable(p: MomentPoly, l: int) -> list[tuple[int, int, int]]:
    """``(packed key, e_l, numerator)`` for each term of ``p`` in which ``r_l`` occurs, in order."""
    bits = _SLOT_BITS * l
    unit = _UNIT_OFFSET if l == 0 else 0
    return [(code, e, n) for code, n in p.packed.items()
            if (e := ((code >> bits) & _SLOT_MASK) - unit)]


def number_operator(p: MomentPoly) -> MomentPoly:
    """``-sum_l r_l d/dr_l``: eigenvalue ``-(e0 + sum e_k)`` per monomial."""
    return MomentPoly._from_packed({k: -sum(_unpack(k)) * n for k, n in p.packed.items()}, p.den)


def number_operator_z(obj: ZLaurent) -> ZLaurent:
    return obj.map_coefficients(number_operator)


# ---------------------------------------------------------------------------
# correlator chains


def planar_pair() -> ZRational:
    """The planar two-boundary object ``4 / (z1 z2 (z1+z2)^2)`` (stored units)."""
    return ZRational(ZLaurent(2, {(-1, -1): 4}), {(0, 1, 1): 2})


def _planar_triple() -> dict[ZKey, MomentPoly]:
    """``G_{0,3} = -32 / (r0 z1^3 z2^3 z3^3)`` by its one orbit.

    It is 8 times the creation image of the planar pair.
    """
    return {(-3, -3, -3): MomentPoly.from_numerators({(-1,): -32})}


def _genus_one_point() -> dict[ZKey, MomentPoly]:
    """``G_{1,1} = 2 r1 / (r0^2 z^3) - 2 / (r0 z^5)`` by its two orbits.

    It is 16 times the creation image of ``F_1 = -log(r0) / 24``.
    """
    return {(-3,): MomentPoly.from_numerators({(-2, 1): 2}),
            (-5,): MomentPoly.from_numerators({(-1,): -2})}


def _orbit_key(key: ZKey) -> ZKey:
    """``key`` itself when it is sorted and its parts are odd and at most -3.

    Every correlator of the chain but the planar pair has only such keys, and
    the orbit step rests on it: a part ``-(5+2l)`` comes from the high block
    of index ``l`` alone, and no ``dz`` term lands on ``(-3, .., -3)``, since
    no part is ``-1``. Anything else raises ``RingError``.
    """
    if any(e > -3 or not e % 2 for e in key) or list(key) != sorted(key):
        raise RingError(f"{key} is not a sorted key of odd exponents at most -3")
    return key


def _create_orbits(orbits: Mapping[ZKey, MomentPoly], factor: int) -> dict[ZKey, MomentPoly]:
    """Boundary creation on a symmetric correlator given by its orbits, times ``factor``.

    Creation appends a variable ``z_new``. A term ``c r^K`` emits, for every
    moment index ``l`` with ``K[l] != 0``, its derivative ``d = K[l] c r^K /
    r_l`` as ``-(3+2l) (r_{l+1}/r_0) d z_new^-3`` (the low block of ``l``) and
    as ``(3+2l) d z_new^(-5-2l)`` (the high block). Each ``z_i`` derivative adds
    ``E[i] c (r^K / r_0) z^E z_i^-2 z_new^-3``.

    The result is symmetric too, so the coefficient of an output orbit ``mu``
    is the coefficient of any one arrangement of it. If ``mu`` has a part
    below -3, the arrangement taken puts the new variable on the largest such
    part ``e = -(5+2l)``; only the high block of index ``l`` lands there, and
    the coefficient is ``factor (3+2l) d/dr_l G_{mu - e}``. Otherwise ``mu``
    is ``(-3, .., -3)``, and only the low blocks of ``G_{(-3, .., -3)}`` land
    on it. Each output orbit thus comes from one input orbit, in integers
    over that orbit's denominator. From the empty orbit ``{(): F_g}`` this is
    the one-boundary correlator of ``F_g``.

    The output orbits come in a fixed order: ``(-3, .., -3)`` first, then,
    input orbit by input orbit, those that add a part ``-(5+2l)`` to it, for
    ascending ``l``. The low blocks are added index by index, and a term that
    cancels is deleted at once, so a term that comes back lands last.

    On packed keys, ``d/dr_l`` subtracts ``_slot(l)`` and the factor
    ``r_{l+1}/r_0`` adds ``_slot(l+1) - 1``; the input bounds are checked
    first, since an output key lowers the unit's exponent by at most two and
    raises a variable's by at most one.
    """
    _check_slots(_add_bounds(_union_bounds([poly.bounds for poly in orbits.values()]), (-2, 0, 1)))
    width = _width(code for poly in orbits.values() for code in poly.packed)
    out: dict[ZKey, MomentPoly] = {}
    for key, poly in orbits.items():
        if set(_orbit_key(key)) <= {-3}:
            acc: dict[int, int] = {}
            for l in range(width):
                scale = -(3 + 2 * l) * factor
                ratio = _slot(l + 1) - 1 - _slot(l)
                for code, e, n in _with_variable(poly, l):
                    lowered = code + ratio
                    v = acc.get(lowered, 0) + scale * e * n
                    if v:
                        acc[lowered] = v
                    else:
                        del acc[lowered]
            if acc:
                out[key + (-3,)] = MomentPoly._from_packed(acc, poly.den)
    for key, poly in orbits.items():
        # the new part must be the largest part below -3 of the output orbit
        below = [e for e in key if e < -3]
        top = width if not below else min(width, (-below[-1] - 3) // 2)
        for l in range(top):
            scale = (3 + 2 * l) * factor
            lower = _slot(l)
            nums = {code - lower: scale * e * n for code, e, n in _with_variable(poly, l)}
            if nums:
                out[tuple(sorted(key + (-5 - 2 * l,)))] = MomentPoly._from_packed(
                    nums, poly.den)
    return out


def create(p: MomentPoly, factor: int = 1) -> ZLaurent:
    """The one-boundary correlator of ``p``, times the integer ``factor``.

    The creation step from no boundary (``_create_orbits`` on the empty
    orbit); ``_orbits`` passes ``F_g`` and ``2^{4g}`` here for ``g >= 2``.
    """
    out = ZLaurent(1)
    out.terms = _create_orbits({(): p}, factor)
    return out


@lru_cache(maxsize=None)
def _orbits(g: int, boundaries: int) -> dict[ZKey, MomentPoly]:
    """``G_{g,B}`` by orbits: each sorted ``z`` key with its coefficient.

    The seeds are the literal ``G_{0,3}`` (``_planar_triple``) and ``G_{1,1}``
    (``_genus_one_point``); ``G_{g,1}`` for ``g >= 2`` comes from ``create``,
    and every further boundary from ``_create_orbits``. The planar pair
    ``G_{0,2}`` is no chain of orbits; ``correlator`` stores it as it is.
    """
    if g < 0 or boundaries < 1 or (g == 0 and boundaries < 3):
        raise GenusOutOfRange(f"no stable correlator with labels ({g}, {boundaries})")
    if (g, boundaries) == (1, 1):
        return _genus_one_point()
    if boundaries == 1:
        return create(stable_partition().f(g), 2 ** (4 * g)).terms
    if (g, boundaries) == (0, 3):
        return _planar_triple()
    return _create_orbits(_orbits(g, boundaries - 1), 4 if boundaries == 2 else 8)


def _firsts(key: ZKey) -> Iterator[tuple[int, ZKey]]:
    """``(e, key less one e)`` for each distinct part ``e`` of a sorted key, ascending."""
    for j, e in enumerate(key):
        if not j or key[j - 1] != e:
            yield e, key[:j] + key[j + 1:]


class _Arranger:
    """The distinct permutations of sorted keys, with one memo shared by every key.

    The arrangements of a sorted multiset that start with the part ``e`` are
    ``e`` followed by the arrangements of the other parts. One multiset of
    other parts recurs under several first parts, and under several keys of
    one correlator, so ``walk`` lists its arrangements once, in ascending
    lexicographic order, and keeps them for every later key.
    """

    def __init__(self) -> None:
        self.memo: dict[ZKey, list[ZKey]] = {}

    def walk(self, rest: ZKey) -> list[ZKey]:
        if len(rest) < 2:
            return [rest]
        got = self.memo.get(rest)
        if got is None:
            got = self.memo[rest] = []
            for e, other in _firsts(rest):
                got.extend(map((e,).__add__, self.walk(other)))
        return got

    def blocks(self, key: ZKey) -> Iterator[tuple[ZKey, list[ZKey]]]:
        """``(head, tails)`` for each distinct two-part prefix ``head`` of ``key``, ascending.

        The arrangements of ``key`` that start with ``head`` are ``head +
        tail`` for each ``tail`` in ``tails``, in order. The two top levels
        are never stored in the memo. A key of fewer than three parts is one
        block with the empty head.
        """
        if len(key) < 3:
            yield (), self.walk(key)
            return
        for e, rest in _firsts(key):
            for f, tail in _firsts(rest):
                yield (e, f), self.walk(tail)


@lru_cache(maxsize=None)
def correlator(g: int, boundaries: int) -> ZLaurent | ZRational:
    """Stored correlator with ``g`` handles and ``boundaries`` boundaries.

    Every ``z`` key is written out: each distinct arrangement of an orbit key
    of ``_orbits`` maps to that orbit's one coefficient object, which is
    shared, never copied. Keys come orbit by orbit in the order of
    ``_orbits``, and within an orbit in ascending lexicographic order. One
    ``_Arranger`` serves every orbit, and each orbit is written out in blocks,
    one per distinct prefix of two parts, each block inserted as one dict.
    The planar pair ``G_{0,2}`` is the rational ``planar_pair()``.
    """
    if g == 0 and boundaries == 2:
        return planar_pair()
    arranger = _Arranger()
    terms: dict[ZKey, MomentPoly] = {}
    for key, poly in _orbits(g, boundaries).items():
        for head, tails in arranger.blocks(key):
            terms.update(dict.fromkeys(map(head.__add__, tails), poly))
    out = ZLaurent(boundaries)
    out.terms = terms
    return out


def diagonal(g: int) -> ZLaurent:
    """``G_{g,2}`` at coincident points ``z_1 = z_2 = z``, read off its orbits.

    The orbit ``(a, b)`` with coefficient ``c`` is ``c (z_1^a z_2^b + z_1^b
    z_2^a)``, one term when ``a == b``; so it adds ``c`` at ``z^(a+b)``, twice
    when ``a != b``, in the order of the orbits. A sum that cancels is
    dropped. The planar pair ``4 / (z_1 z_2 (z_1 + z_2)^2)`` is ``z^-4`` there.
    """
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    terms: dict[ZKey, MomentPoly] = {}
    for (a, b), poly in _orbits(g, 2).items():
        if a != b:
            poly = poly.scale(2)
        prev = terms.get((a + b,))
        terms[(a + b,)] = poly if prev is None else prev + poly
    out = ZLaurent(1)
    out.terms = {k: c for k, c in terms.items() if not c.is_zero}
    return out


# ---------------------------------------------------------------------------
# evaluation


def _check_group(points: Sequence[object]) -> None:
    squares = [z * z for z in points]
    for i in range(len(squares)):
        for j in range(i + 1, len(squares)):
            if squares[i] == squares[j]:
                raise CoincidentPoints(
                    "points within one boundary group must have distinct squares"
                )


def _sub_orbits(keys: Sequence[ZKey]) -> list[list[list[tuple[int, int]]]]:
    """The steps of a dynamic programme over the variables and the parts left.

    A state of level ``i`` is a sorted multiset of ``i`` parts that lies in
    some key; the states of the last level are ``keys``, in their order.
    ``steps[i][s]`` lists the pairs ``(e, t)``: state ``s`` of level ``i``
    with the part ``e`` added is state ``t`` of level ``i + 1``. Each
    distinct arrangement of a key is one path from the empty state to it.
    """
    steps: list[list[list[tuple[int, int]]]] = []
    level = list(keys)
    for _ in range(len(level[0])):
        below: dict[ZKey, int] = {}
        step: list[list[tuple[int, int]]] = []
        for t, key in enumerate(level):
            for e, sub in _firsts(key):
                s = below.get(sub)
                if s is None:
                    s = below[sub] = len(step)
                    step.append([])
                step[s].append((e, t))
        steps.append(step)
        level = list(below)
    steps.reverse()
    return steps


def _orbit_values(
    orbits: Mapping[ZKey, MomentPoly],
    nvars: int,
    point_sets: Sequence[Sequence[object]],
    moments: Mapping[int, object],
) -> list[object]:
    """``sum_mu c_mu m_mu(z)`` at each point tuple, ``m_mu`` the monomial symmetric function.

    Every part is negative, so a zero point is a pole; that is checked before
    the moments are bound. With exact points and moments each coefficient is
    bound once, in integers (``_bind_exact``), and each value is one integer
    sum over the points' integer power tables (``_power_tables``). Otherwise
    the coefficients are substituted once and the same sum runs in floats.
    The sum is the dynamic programme of ``_sub_orbits``, run from the last
    variable to the first: a state's value is the sum, over the keys that
    contain it, of the coefficient times every arrangement of the parts left
    on the variables left.
    """
    if any(not z for points in point_sets for z in points):
        raise CoincidentPoints("evaluation at z = 0 hits a pole")
    exact = _is_exact(moments.values()) and all(_is_exact(p) for p in point_sets)
    if exact:
        ints, scale = _bind_exact(orbits, moments)
        keys, coeffs = list(ints), list(ints.values())
    else:
        keys = list(orbits)
        coeffs = [poly.substitute(moments) for poly in orbits.values()]
    if not keys:
        return [F(0) for _ in point_sets]
    steps = _sub_orbits(keys)
    needed = sorted({e for key in keys for e in key})
    lo, hi = needed[0], needed[-1]
    values: list[object] = []
    for points in point_sets:
        if exact:
            tables, _, factor = _power_tables([(lo, hi)] * nvars, points)
            rows = [{e: table[e - lo] for e in needed} for table in tables]
        else:
            rows = [{e: z**e for e in needed} for z in points]
        level = coeffs
        for row, step in zip(reversed(rows), reversed(steps)):
            level = [sum(row[e] * level[t] for e, t in pairs) for pairs in step]
        values.append(scale * factor * level[0] if exact else level[0])
    return values


def n_point_core(
    g: int,
    groups: Sequence[Sequence[object]],
    moments: Mapping[int, object],
) -> object:
    """Grouped n-point evaluation of the stored correlator (unit coupling).

    A group of points stands for one boundary: the value sums, over every
    choice of one point ``z_k`` per group, the correlator at the chosen points
    times ``2 / (z_k^2 - z_l^2)`` for each other point ``z_l`` of the group.
    The correlator is read by its orbits (``_orbit_values``) and never
    written out; the planar pair is read by its numerator's one orbit
    ``(-1, -1)`` and divided by ``(z1 + z2)^2``.
    """
    B = len(groups)
    planar = (g, B) == (0, 2)
    orbits = planar_pair().num.terms if planar else _orbits(g, B)
    for grp in groups:
        if not grp:
            raise RingError("every boundary group needs at least one point")
        _check_group(grp)
    choices = list(product(*[range(len(grp)) for grp in groups]))
    point_sets = [[groups[b][choice[b]] for b in range(B)] for choice in choices]
    values = _orbit_values(orbits, B, point_sets, moments)
    if planar:
        for i, points in enumerate(point_sets):
            base = points[0] + points[1]
            if not base:
                raise CoincidentPoints("evaluation point makes (z1 + z2) vanish")
            values[i] = values[i] / base**2
    total: object = None
    for choice, value in zip(choices, values):
        weight: object = F(1)
        for b, grp in enumerate(groups):
            zk = grp[choice[b]]
            for li, zl in enumerate(grp):
                if li != choice[b]:
                    weight = weight * 2 / (zk * zk - zl * zl)
        part = value * weight
        total = part if total is None else total + part
    return total


def evaluate_correlator(
    g: int,
    groups: Sequence[Sequence[object]],
    lam: object = F(1, 2),
    moments: Mapping[int, object] | None = None,
) -> object:
    """Physical grouped correlator: coupling bookkeeping times the stored core."""
    if moments is None:
        moments = generic_moments()
    B = len(groups)
    n_total = sum(len(grp) for grp in groups)
    try:
        core = n_point_core(g, groups, moments)
        return lam ** lambda_exponent(g, B) * (2 * lam) ** (n_total - B) * core
    except (OverflowError, ZeroDivisionError) as exc:
        # exact inputs never get here: their poles are rejected before evaluation
        raise OutOfFloatRange(f"evaluation leaves the float range: {exc}") from exc
