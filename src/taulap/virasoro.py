"""Virasoro-type constraints satisfied by the stable partition series.

The stable partition function is organised as a genus-graded series whose
order-``k`` coefficient is the degree-``k`` part of ``exp(sum_{g>=2} F_g)``.
Each constraint operator splits into a first-order raising part ``A_n``
(grade-preserving) and a second-order quadratic part ``B_n`` (grade-raising),
and the constraint holds iff every graded residual

    r_k = A_n(c_k) + (1/4) B_n(c_{k-1})

vanishes identically as a moment polynomial.  The first-order parts satisfy
the Witt bracket ``[A_m, A_n] = (m - n) A_{m+n}`` on arbitrary arguments,
which is checked by the tests.

Both parts are tables of pieces ``s/64 * x^S * D``: an integer scalar ``s``
over 64, a shift monomial ``x^S`` and a derivative ``D`` that is
``d_k``, ``d_k d_l`` or the identity (``k, l`` range over every index the
argument uses; ``r_0`` is the unit and ``[a, b, ...]`` stands for
``r_a r_b ...``)::

    A_n   d_j (j >= n):     32(3+2j) [j-n]
    B_1   d_k d_l:          64(3+2k)(3+2l) [k+1, l+1]/r0^2
          d_k:              -208(3+2k) [1, k+1]/r0^3,  64(3+2k)(5+2k) [k+2]/r0^2
          1:                49 [1, 1]/r0^4,  -40 [2]/r0^3
    B_2   d_0 d_k:          -384(3+2k) [k+1]/r0
          d_k (k >= 1):     400(3+2k) [k+1]/r0^2
          d_0:              1248 [1]/r0^2
          1:                -98 [1]/r0^3
    B_3   d_0 d_0:          576
          d_1 d_k:          -640(3+2k) [k+1]/r0
          d_0:              -1968/r0
          d_1:              80 [1]/r0^2
          1:                105/r0^2
    B_n   d_l d_(n-3-l):    64(3+2l)(2n-2l-3)       (n >= 4, l = 0..n-3)
          d_(n-2) d_l:      -128(3+2l)(2n-1) [l+1]/r0
          d_(n-2):          16(2n-1) [1]/r0^2
          d_(n-3):          -16(2n-3)(16n-7)/r0

``B_0`` is zero. One emitter applies a table to a polynomial monomial by
monomial, as integer numerators over one denominator: ``d_k`` of
``c x^K`` is ``K_k c x^(K-e_k)``, ``d_k d_l`` is ``K_k (K_l - [k=l]) c
x^(K-e_k-e_l)``; the series has no genus-one term, so there is no log term
to differentiate. The emitter reads and writes the ring's packed monomial
keys (``MomentPoly.packed``): one int per monomial, an 8-bit slot per
variable, so a product adds ints and ``d_k`` subtracts ``2^(8 k)``. Each
piece's shift has its derivative's lowering folded in, so a piece adds one
int to a key. The tables are built once per label and width, and each
series order's nonzero slots are listed once per series. The exponent
bounds of the order plus the table's largest shifts are checked before any
key is formed, so ``SlotOverflow`` is raised rather than a key wrapping.
The emitter's key order differs from that of a sum of ring products; only
``==`` and ``is_zero`` read its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

from taulap.laplacian import stable_partition
from taulap.ring import (
    _UNIT_OFFSET,
    Bounds,
    MomentPoly,
    RingError,
    _add_bounds,
    _bounds,
    _check_slots,
    _code,
    _slot,
    _unpack,
    _width,
)

# a table's pieces, each ``(shift, scalar over 64)``, where the shift adds the
# piece's monomial to a packed key and takes away the derivative's variables
Pieces = list[tuple[int, int]]
# the d_k pieces by k, the d_k d_l pieces by k and then l >= k, those with no
# derivative, and the bounds of the pieces' monomials
Table = tuple[dict[int, Pieces], dict[int, dict[int, Pieces]], Pieces, Bounds]
# a polynomial listed for the emitter: its denominator, its terms as
# ``(packed key, numerator, [(slot, exponent)] of the nonzero slots)`` and its bounds
Listed = tuple[int, list[tuple[int, int, list[tuple[int, int]]]], Bounds]


def _monomial(unit: int = 0, *raised: int) -> int:
    """The packed key of ``r0^unit`` times the product of ``r_l`` over ``raised``."""
    key = [unit] + [0] * max(raised, default=0)
    for l in raised:
        key[l] += 1
    return _code(key)


@lru_cache(maxsize=None)
def _table(part: str, n: int, width: int) -> Table:
    """``64 A_n`` (part ``"A"``) or ``64 B_n`` (part ``"B"``) on keys shorter than ``width``.

    Pieces on the same derivative and shift merge.
    """
    first: dict[int, dict[int, int]] = {}
    second: dict[int, dict[int, dict[int, int]]] = {}
    zero: dict[int, int] = {}

    def put(pieces: dict[int, int], scalar: int, shift: tuple[int, ...]) -> None:
        key = _monomial(*shift)
        pieces[key] = pieces.get(key, 0) + scalar

    def d(k: int, scalar: int, *shift: int) -> None:
        if k < width:
            put(first.setdefault(k, {}), scalar, shift)

    def dd(k: int, l: int, scalar: int, *shift: int) -> None:
        if max(k, l) < width:
            put(second.setdefault(min(k, l), {}).setdefault(max(k, l), {}), scalar, shift)

    if part == "A":
        for j in range(n, width):
            d(j, 32 * (3 + 2 * j), 0, j - n)
    elif n == 1:
        for k in range(width):
            for l in range(width):
                dd(k, l, 64 * (3 + 2 * k) * (3 + 2 * l), -2, k + 1, l + 1)
            d(k, -208 * (3 + 2 * k), -3, 1, k + 1)
            d(k, 64 * (3 + 2 * k) * (5 + 2 * k), -2, k + 2)
        put(zero, 49, (-4, 1, 1))
        put(zero, -40, (-3, 2))
    elif n == 2:
        for k in range(width):
            dd(0, k, -384 * (3 + 2 * k), -1, k + 1)
            if k >= 1:
                d(k, 400 * (3 + 2 * k), -2, k + 1)
        d(0, 1248, -2, 1)
        put(zero, -98, (-3, 1))
    elif n == 3:
        dd(0, 0, 576)
        d(0, -1968, -1)
        for k in range(width):
            dd(k, 1, -640 * (3 + 2 * k), -1, k + 1)
        d(1, 80, -2, 1)
        put(zero, 105, (-2,))
    elif n >= 4:
        for l in range(min(n - 2, width)):
            dd(l, n - 3 - l, 64 * (3 + 2 * l) * (2 * n - 2 * l - 3))
        for l in range(width):
            dd(n - 2, l, -128 * (3 + 2 * l) * (2 * n - 1), -1, l + 1)
        d(n - 2, 16 * (2 * n - 1), -2, 1)
        d(n - 3, -16 * (2 * n - 3) * (16 * n - 7), -1)

    def shifts(pieces: dict[int, int], lowered: int) -> Pieces:
        return [(code - _UNIT_OFFSET - lowered, s) for code, s in pieces.items()]

    every = [*first.values(), *(p for row in second.values() for p in row.values()), zero]
    return (
        {k: shifts(pieces, _slot(k)) for k, pieces in first.items()},
        {k: {l: shifts(pieces, _slot(k) + _slot(l)) for l, pieces in row.items()}
         for k, row in second.items()},
        shifts(zero, 0),
        _bounds([code for pieces in every for code in pieces]),
    )


def _listed(p: MomentPoly) -> Listed:
    """``p`` for the emitter: its stored keys, each with its nonzero slots listed."""
    terms = [(code, n, [(k, e) for k, e in enumerate(_unpack(code)) if e])
             for code, n in p.packed.items()]
    return p.den, terms, p.bounds


def _emit(acc: dict[int, int], table: Table, p: Listed, mult: int, den: int) -> None:
    """Add to ``acc`` the numerators over ``den`` of ``mult`` times the table applied to ``p``.

    The keys of ``acc`` are packed. The bounds of ``p``, its unit exponent
    lowered by two derivatives, plus those of the table's monomials are
    checked before any key is formed.
    """
    first, second, zero, reach = table
    p_den, terms, bounds = p
    _check_slots(_add_bounds((bounds[0] - 2, *bounds[1:]), reach))
    get = acc.get
    scale = mult * (den // p_den)
    for code, n, slots in terms:
        n *= scale
        for i, (k, e) in enumerate(slots):
            pieces = first.get(k)
            if pieces:
                v = e * n
                for shift, s in pieces:
                    out = code + shift
                    acc[out] = get(out, 0) + s * v
            row = second.get(k)
            if row is None:
                continue
            for l, f in slots[i:]:
                pieces = row.get(l)
                if not pieces:
                    continue
                w = e * (f - 1) if l == k else e * f
                if not w:
                    continue
                v = w * n
                for shift, s in pieces:
                    out = code + shift
                    acc[out] = get(out, 0) + s * v
        for shift, s in zero:
            out = code + shift
            acc[out] = get(out, 0) + s * n


def _apply(terms: list[tuple[int, Table, Listed]], over: int = 1) -> MomentPoly:
    """``sum mult * op(p) / over`` over ``(mult, table of 64 op, p)``, in one integer accumulator."""
    den = lcm(*(p[0] for _, _, p in terms))
    acc: dict[int, int] = {}
    for mult, table, p in terms:
        _emit(acc, table, p, mult, den)
    return MomentPoly._from_packed(acc, 64 * over * den)


@dataclass(frozen=True)
class GradedSeries:
    """Genus-graded coefficients ``c_k`` of the stable partition function."""

    orders: tuple[MomentPoly, ...]

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def order(self, k: int) -> MomentPoly:
        if not 0 <= k <= self.max_order:
            raise RingError(f"order {k} outside the computed range")
        return self.orders[k]

    @cached_property
    def _for_emitter(self) -> tuple[int, tuple[Listed, ...]]:
        """The width of the orders' keys and each order listed for the emitter, once per series."""
        width = _width(code for p in self.orders for code in p.packed)
        return width, tuple(map(_listed, self.orders))


@lru_cache(maxsize=None)
def stable_series(gmax: int) -> GradedSeries:
    """Stable partition series with orders ``0..gmax-1``."""
    if gmax < 1:
        raise RingError("need at least genus 1")
    chain = stable_partition()
    orders = [MomentPoly.one()]
    for k in range(1, gmax):
        orders.append(chain.z(k + 1))
    return GradedSeries(tuple(orders))


def constraint_residuals(n: int, series: GradedSeries) -> dict[int, MomentPoly]:
    """Graded residuals ``r_k`` of constraint ``n`` on the series.

    ``r_k = (4 A_n(c_k) + B_n(c_{k-1})) / 4``, both parts emitted into one
    accumulator; the key order of each residual is free.
    """
    if n < 0:
        raise RingError("constraint label must be nonnegative")
    width, orders = series._for_emitter
    raising = _table("A", n, width)
    quadratic = _table("B", n, width)
    out: dict[int, MomentPoly] = {}
    for k, c in enumerate(orders):
        terms = [(4, raising, c)]
        if k >= 1:
            terms.append((1, quadratic, orders[k - 1]))
        out[k] = _apply(terms, 4)
    return out


def constraint_satisfied(n: int, series: GradedSeries) -> bool:
    return all(r.is_zero for r in constraint_residuals(n, series).values())
