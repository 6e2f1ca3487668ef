"""Boundary correlators built from the free energies by creation operators.

A correlator with ``B`` boundaries is stored as a Laurent object in
``z_1 .. z_B`` with moment-polynomial coefficients (a rational object with
``(z_i + z_j)`` poles for the planar two-boundary case).  Chains are built by
the boundary creation operator and validated by its adjoint pair:

* ``create``      -- appends a boundary variable (the adjoint raising map);
* ``annihilate``  -- removes the last boundary variable (lowering map);
* ``number_operator`` -- their composition; correlators are eigenvectors
  with eigenvalue ``2g + B - 2``;
* ``kernel_op``   -- the multiplication-side kernel entering the loop
  equations.

A correlator is symmetric in its boundary variables, so the chain runs on
orbits (monomial symmetric functions, Macdonald, *Symmetric Functions and
Hall Polynomials*): ``_orbits`` keeps one coefficient per sorted ``z`` key,
and exact and float evaluation (``n_point_core``) read the orbits directly.
``correlator`` writes every key out for the consumers that need the full
form (printing, the loop-equation residuals), with one shared coefficient
object per orbit.

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
from math import isqrt, lcm
from typing import Iterator, Mapping, Sequence

from taulap.laplacian import GenusOutOfRange, genus_one, stable_partition
from taulap.ring import (
    CoincidentPoints,
    Key,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    ZRational,
    _bind_exact,
    _is_exact,
    _lowered,
    _power_tables,
)

F = Fraction


class UnsupportedExponent(RingError):
    """The kernel operator is defined on odd negative powers only."""


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


def _lowered_ratio(key: Key, l: int) -> Key:
    """``_lowered(key, l)`` times ``r_{l+1} / r_0``."""
    raised = (key[l + 1] if l + 1 < len(key) else 0) + 1
    if l == 0:
        return (key[0] - 2, raised) + key[2:]
    return (key[0] - 1,) + key[1:l] + (key[l] - 1, raised) + key[l + 2:]


def _create_laurent(obj: MomentPoly | ZLaurent, factor: int, with_dz: bool = True) -> ZLaurent:
    """Creation on a polynomial or Laurent object, in integers over one denominator.

    Each coefficient's numerators are taken over the lcm of the input's
    denominators, with ``factor`` folded in. A term ``c r^K z^E`` emits, for
    every moment index ``l`` with ``K[l] != 0``, its derivative
    ``d = K[l] c r^K / r_l`` as ``-(3+2l) (r_{l+1}/r_0) d z^E z_new^-3`` and as
    ``(3+2l) d z^E z_new^(-5-2l)``, and, for every ``E[i] != 0``, the ``z_i``
    derivative term ``E[i] c (r^K / r_0) z^E z_i^-2 z_new^-3``. A genus-one
    ``c log r_0`` differentiates to ``c / r_0``.

    Terms are emitted moment index by moment index (the ``z_new^-3`` block of
    every input term, then its ``z_new^(-5-2l)`` block), then boundary variable
    by boundary variable, into one accumulator; a coefficient or a whole
    ``z`` key that cancels is removed at once. That fixes the insertion order
    of the result. The seeds ``G_{g,1}`` and ``G_{0,3}`` of the orbit chain
    keep it; later steps run in ``_create_orbits``, and float evaluation
    sums by orbits (``_orbit_values``), not in this order.
    ``with_dz=False`` leaves out the derivative terms.
    """
    if isinstance(obj, MomentPoly):
        items, nvars, log = [((), obj)], 0, obj.log_coeff
    else:
        items, nvars, log = list(obj.terms.items()), obj.nvars, F(0)
    den = lcm(*(poly.den for _, poly in items), log.denominator)
    rows = [
        (zkey, [(k, n * (den // poly.den) * factor) for k, n in poly.nums.items()])
        for zkey, poly in items
    ]
    acc: dict[ZKey, dict[Key, int]] = {}

    def merge(zkey: ZKey, block: list[tuple[Key, int]]) -> None:
        poly = acc.get(zkey)
        if poly is None:
            acc[zkey] = dict(block)
            return
        for k, v in block:
            prev = poly.get(k)
            if prev is None:
                poly[k] = v
            elif prev + v:
                poly[k] = prev + v
            else:
                del poly[k]
        if not poly:
            del acc[zkey]

    width = max((len(k) for _, row in rows for k, _ in row), default=0)
    if log:
        width = max(width, 1)
    for l in range(width):
        scale = 3 + 2 * l
        pole = (-5 - 2 * l,)
        low: list[tuple[ZKey, list[tuple[Key, int]]]] = []
        high: list[tuple[ZKey, list[tuple[Key, int]]]] = []
        for zkey, row in rows:
            low_block = []
            high_block = []
            for k, c in row:
                if l < len(k) and k[l]:
                    v = scale * k[l] * c
                    low_block.append((_lowered_ratio(k, l), -v))
                    high_block.append((_lowered(k, l), v))
            if log and l == 0:
                v = 3 * int(log * den) * factor
                low_block.append(((-2, 1), -v))
                high_block.append(((-1,), v))
            if low_block:
                low.append((zkey + (-3,), low_block))
                high.append((zkey + pole, high_block))
        for zkey, block in low:
            merge(zkey, block)
        for zkey, block in high:
            merge(zkey, block)
    if with_dz:
        for i in range(nvars):
            for zkey, row in rows:
                e = zkey[i]
                if e:
                    merge(zkey[:i] + (e - 2,) + zkey[i + 1:] + (-3,),
                          [(_lowered(k or (0,), 0), e * c) for k, c in row])
    out = ZLaurent(nvars + 1)
    out.terms = {zkey: MomentPoly.from_numerators(poly, den) for zkey, poly in acc.items()}
    return out


def create(obj: MomentPoly | ZLaurent | ZRational, factor: int = 1) -> ZLaurent | ZRational:
    """Boundary creation: one more variable, appended as the last slot.

    The result is multiplied by the integer ``factor``; ``correlator`` passes
    the power of two of each chain step here.
    """
    if not isinstance(obj, ZRational):
        return _create_laurent(obj, factor)
    # the rational (planar) input: quotient-rule derivative terms
    n = obj.nvars
    positions = list(range(n))
    total = ZRational(_create_laurent(obj.num, factor, with_dz=False), obj.den)
    unit = MomentPoly({(-1,): factor})
    for i in range(n):
        dz = obj.dz(i)
        if not dz.num.is_zero:
            total = total + dz.embed(positions, n + 1).shift(i, -1).shift(n, -3).scale(unit)
    return total.reduce()


def annihilate(obj: ZLaurent) -> ZLaurent | MomentPoly:
    """Boundary removal acting on the last variable.

    Picks out the ``z**(-5-2l)`` coefficients; ``z**-3`` never contributes.
    """
    if not isinstance(obj, ZLaurent):
        raise RingError("boundary removal is defined on Laurent correlators")
    var = obj.nvars - 1
    if obj.nvars == 1:
        out_poly = MomentPoly.zero()
        for key, coeff in obj.terms.items():
            e = key[0]
            if e <= -5 and e % 2:
                l = (-e - 5) // 2
                out_poly = out_poly + coeff * MomentPoly.variable(l).scale(F(-1, 3 + 2 * l))
        return out_poly
    out = ZLaurent(obj.nvars - 1)
    terms: dict[tuple[int, ...], MomentPoly] = {}
    for key, coeff in obj.terms.items():
        e = key[var]
        if e > -5 or e % 2 == 0:
            continue
        l = (-e - 5) // 2
        rest = key[:var]
        piece = coeff * MomentPoly.variable(l).scale(F(-1, 3 + 2 * l))
        prev = terms.get(rest)
        total = piece if prev is None else prev + piece
        if total.is_zero:
            terms.pop(rest, None)
        else:
            terms[rest] = total
    out.terms = terms
    return out


def number_operator(p: MomentPoly) -> MomentPoly:
    """``-sum_l r_l d/dr_l``: eigenvalue ``-(e0 + sum e_k)`` per monomial.

    On ``c log(unit)`` it gives the constant ``-c``.
    """
    out = MomentPoly.from_numerators({k: -sum(k) * n for k, n in p.nums.items()}, p.den)
    if p.log_coeff:
        out = out - p.log_coeff
    return out


def number_operator_z(obj: ZLaurent) -> ZLaurent:
    return obj.map_coefficients(number_operator)


def kernel_op(obj: ZLaurent, var: int = 0) -> ZLaurent:
    """Kernel operator in one boundary variable.

    ``z**-(3+2n)`` maps to ``sum_{k=0}^{n} r_k z**-(2n+2-2k)``; ``z**-1`` maps
    to ``1``; any other exponent is an error.
    """
    out = ZLaurent(obj.nvars)
    terms: dict[tuple[int, ...], MomentPoly] = {}

    def _add(key: tuple[int, ...], poly: MomentPoly) -> None:
        prev = terms.get(key)
        total = poly if prev is None else prev + poly
        if total.is_zero:
            terms.pop(key, None)
        else:
            terms[key] = total

    for key, coeff in obj.terms.items():
        e = key[var]
        if e == -1:
            _add(key[:var] + (0,) + key[var + 1:], coeff)
            continue
        if e > -3 or e % 2 == 0:
            raise UnsupportedExponent(
                f"kernel operator undefined on exponent {e} of variable {var}"
            )
        n = (-e - 3) // 2
        for k in range(n + 1):
            _add(
                key[:var] + (-(2 * n + 2 - 2 * k),) + key[var + 1:],
                coeff * MomentPoly.variable(k),
            )
    out.terms = terms
    return out


# ---------------------------------------------------------------------------
# correlator chains


def planar_pair() -> ZRational:
    """The planar two-boundary object ``4 / (z1 z2 (z1+z2)^2)`` (stored units)."""
    return ZRational(ZLaurent(2, {(-1, -1): 4}), {(0, 1, 1): 2})


def _stored_free_energy(g: int) -> MomentPoly:
    if g == 1:
        return genus_one()
    return stable_partition("rho").f(g)


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
    """``create`` on a symmetric correlator given by its orbits, times ``factor``.

    The result is symmetric too, so the coefficient of an output orbit ``mu``
    is the coefficient of any one arrangement of it. If ``mu`` has a part
    below -3, the arrangement taken puts the new variable on the largest such
    part ``e = -(5+2l)``; only the high block of index ``l`` lands there, and
    the coefficient is ``factor (3+2l) d/dr_l G_{mu - e}``. Otherwise ``mu``
    is ``(-3, .., -3)``, and only the low blocks of ``G_{(-3, .., -3)}`` land
    on it. Each output orbit thus comes from one input orbit, in integers
    over that orbit's denominator.

    The output orbits come in a fixed order: ``(-3, .., -3)`` first, then,
    input orbit by input orbit, those that add a part ``-(5+2l)`` to it, for
    ascending ``l``.
    """
    width = max((len(k) for poly in orbits.values() for k in poly.nums), default=0)
    out: dict[ZKey, MomentPoly] = {}
    for key, poly in orbits.items():
        if _orbit_key(key)[0] == -3:
            acc: dict[Key, int] = {}
            for l in range(width):
                scale = -(3 + 2 * l) * factor
                for k, n in poly.nums.items():
                    if l < len(k) and k[l]:
                        low = _lowered_ratio(k, l)
                        acc[low] = acc.get(low, 0) + scale * k[l] * n
            flat = MomentPoly.from_numerators(acc, poly.den)
            if flat.nums:
                out[key + (-3,)] = flat
    for key, poly in orbits.items():
        # the new part must be the largest part below -3 of the output orbit
        below = [e for e in key if e < -3]
        top = width if not below else min(width, (-below[-1] - 3) // 2)
        for l in range(top):
            scale = (3 + 2 * l) * factor
            nums = {_lowered(k, l): scale * k[l] * n
                    for k, n in poly.nums.items() if l < len(k) and k[l]}
            if nums:
                out[tuple(sorted(key + (-5 - 2 * l,)))] = MomentPoly.from_numerators(nums, poly.den)
    return out


@lru_cache(maxsize=None)
def _orbits(g: int, boundaries: int) -> dict[ZKey, MomentPoly]:
    """``G_{g,B}`` by orbits: each sorted ``z`` key with its coefficient.

    ``G_{g,1}`` and ``G_{0,3}`` come from ``create``; every further boundary
    from ``_create_orbits``. The planar pair ``G_{0,2}`` is no chain of
    orbits; ``correlator`` stores it as it is.
    """
    if g < 0 or boundaries < 1 or (g == 0 and boundaries < 3):
        raise GenusOutOfRange(f"no stable correlator with labels ({g}, {boundaries})")
    if boundaries == 1:
        seed = create(_stored_free_energy(g), 2 ** (4 * g))
    elif g == 0 and boundaries == 3:
        seed = create(planar_pair(), 8)
    else:
        return _create_orbits(_orbits(g, boundaries - 1), 4 if boundaries == 2 else 8)
    return {_orbit_key(key): poly for key, poly in seed.terms.items()}


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


def _arrangements(key: ZKey) -> list[ZKey]:
    """The distinct permutations of a sorted key, in ascending lexicographic order.

    The one-key view of ``_Arranger``: its blocks, joined.
    """
    out: list[ZKey] = []
    for head, tails in _Arranger().blocks(key):
        out.extend(map(head.__add__, tails))
    return out


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


def diagonal(g: int) -> ZLaurent | ZRational:
    """Two-boundary correlator at coincident points, one variable left."""
    pair = correlator(g, 2)
    return pair.identify(0, 1)


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
            for j, e in enumerate(key):
                if j and key[j - 1] == e:
                    continue
                sub = key[:j] + key[j + 1:]
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
        stored = ZLaurent(nvars)
        stored.terms = dict(orbits)
        ints, scale = _bind_exact(stored, moments)
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
    written out; the planar pair is evaluated as stored.
    """
    B = len(groups)
    planar = (g, B) == (0, 2)
    stored = correlator(0, 2) if planar else _orbits(g, B)
    for grp in groups:
        if not grp:
            raise RingError("every boundary group needs at least one point")
        _check_group(grp)
    choices = list(product(*[range(len(grp)) for grp in groups]))
    point_sets = [[groups[b][choice[b]] for b in range(B)] for choice in choices]
    if planar:
        values = stored.evaluate_many(point_sets, moments)
    else:
        values = _orbit_values(stored, B, point_sets, moments)
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
