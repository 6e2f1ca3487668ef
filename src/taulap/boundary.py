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

Stored objects are unit-normalized: the physical correlator carries an
overall coupling power ``lambda ** lambda_exponent(g, B)`` on top of the
stored one, and boundary chains absorb fixed powers of two recorded in
``correlator`` (``2^{4g}`` into the one-boundary object, ``2^2`` for the
first created boundary, ``2^3`` for each further one).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt, lcm
from typing import Mapping, Sequence

from taulap.laplacian import GenusOutOfRange, genus_one, stable_partition
from taulap.ring import (
    CoincidentPoints,
    Key,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    ZRational,
    _lowered,
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
    of the result, and so the order in which float evaluation sums it.
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


@lru_cache(maxsize=None)
def correlator(g: int, boundaries: int) -> ZLaurent | ZRational:
    """Stored correlator with ``g`` handles and ``boundaries`` boundaries."""
    if g < 0 or boundaries < 1 or (g == 0 and boundaries == 1):
        raise GenusOutOfRange(f"no stable correlator with labels ({g}, {boundaries})")
    if g == 0 and boundaries == 2:
        return planar_pair()
    if boundaries == 1:
        return create(_stored_free_energy(g), 2 ** (4 * g))
    return create(correlator(g, boundaries - 1), 4 if boundaries == 2 else 8)


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


def n_point_core(
    g: int,
    groups: Sequence[Sequence[object]],
    moments: Mapping[int, object],
) -> object:
    """Grouped n-point evaluation of the stored correlator (unit coupling)."""
    B = len(groups)
    stored = correlator(g, B)
    for grp in groups:
        if not grp:
            raise RingError("every boundary group needs at least one point")
        _check_group(grp)
    choices = list(product(*[range(len(grp)) for grp in groups]))
    values = stored.evaluate_many(
        [[groups[b][choice[b]] for b in range(B)] for choice in choices], moments
    )
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
