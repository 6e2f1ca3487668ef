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
to differentiate. The emitter's key order differs from that of a sum of ring
products; only ``==`` and ``is_zero`` read its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from taulap.laplacian import stable_partition
from taulap.ring import Key, MomentPoly, RingError, _addkey, _lowered, _trim

# a table of pieces, each a shift key mapped to its scalar over 64: the d_k
# pieces by k, the d_k d_l pieces by k and then l >= k, and those with no
# derivative
Pieces = dict[Key, int]
Table = tuple[dict[int, Pieces], dict[int, dict[int, Pieces]], Pieces]


def _shift(unit: int = 0, *raised: int) -> Key:
    """The key of ``r0^unit`` times the product of ``r_l`` over ``raised``."""
    key = [unit] + [0] * max(raised, default=0)
    for l in raised:
        key[l] += 1
    return _trim(key)


@lru_cache(maxsize=None)
def _table(part: str, n: int, width: int) -> Table:
    """``64 A_n`` (part ``"A"``) or ``64 B_n`` (part ``"B"``) on keys shorter than ``width``.

    Pieces on the same derivative and shift merge.
    """
    first: dict[int, Pieces] = {}
    second: dict[int, dict[int, Pieces]] = {}
    zero: Pieces = {}

    def put(pieces: Pieces, scalar: int, shift: tuple[int, ...]) -> None:
        key = _shift(*shift)
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
    return first, second, zero


def _width(*polys: MomentPoly) -> int:
    """One more than the largest variable index the polynomials use (the unit counts)."""
    return max((len(k) for p in polys for k in p.nums), default=0)


def _emit(acc: dict[Key, int], table: Table, p: MomentPoly, mult: int, den: int) -> None:
    """Add to ``acc`` the numerators over ``den`` of ``mult`` times the table applied to ``p``."""
    first, second, zero = table
    get = acc.get
    scale = mult * (den // p.den)
    for key, n in p.nums.items():
        n *= scale
        slots = [(k, e) for k, e in enumerate(key) if e]
        for i, (k, e) in enumerate(slots):
            lowered = None
            pieces = first.get(k)
            if pieces:
                lowered = _lowered(key, k)
                v = e * n
                for shift, s in pieces.items():
                    out = _addkey(lowered, shift)
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
                if lowered is None:
                    lowered = _lowered(key, k)
                twice = _lowered(lowered, l)
                v = w * n
                for shift, s in pieces.items():
                    out = _addkey(twice, shift)
                    acc[out] = get(out, 0) + s * v
        for shift, s in zero.items():
            out = _addkey(key, shift)
            acc[out] = get(out, 0) + s * n


def _apply(terms: list[tuple[int, Table, MomentPoly]], over: int = 1) -> MomentPoly:
    """``sum mult * op(p) / over`` over ``(mult, table of 64 op, p)``, in one integer accumulator."""
    den = lcm(*(p.den for _, _, p in terms))
    acc: dict[Key, int] = {}
    for mult, table, p in terms:
        _emit(acc, table, p, mult, den)
    return MomentPoly.from_numerators(acc, 64 * over * den)


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
    width = _width(*series.orders)
    raising = _table("A", n, width)
    quadratic = _table("B", n, width)
    out: dict[int, MomentPoly] = {}
    for k in range(series.max_order + 1):
        terms = [(4, raising, series.order(k))]
        if k >= 1:
            terms.append((1, quadratic, series.order(k - 1)))
        out[k] = _apply(terms, 4)
    return out


def constraint_satisfied(n: int, series: GradedSeries) -> bool:
    return all(r.is_zero for r in constraint_residuals(n, series).values())
