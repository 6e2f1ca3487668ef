"""Genus generating functions from an explicit second-order moment operator.

The stable partition function is an exponential of free energies
``F_g`` (one per genus ``g >= 2``; the genus-one ``-log(unit) / 24`` never
enters, so the ring has no log term) and equals
``exp(-Delta + F_2) 1`` for an explicit Laplacian ``Delta`` acting on
moment polynomials.  Expanding the exponential order by order gives

    ``u_0 = 1,  u_{n+1} = -Delta(u_n) + F_2 * u_n,  Z_{n+1} = u_n / n!``

and the free energies are recovered from the ``Z_g`` by the exact
exponential-to-logarithm relation ``Z = exp(sum_g F_g)``, as the power-series
logarithm recurrence over the genus index.

The operator is applied by one kernel, ``_apply_packed``. It packs each
monomial key into one int, with an 8-bit slot per variable (``ring._shift``),
and multiplies the ring's integer numerators (``MomentPoly.nums`` over
``MomentPoly.den``).
Each block of the operator is a short list of pieces, an integer scalar and a
monomial shift on a table shared by every block that uses it: one packed
table per resolvent coefficient ``R_m``, plus a few small constant
polynomials. The tables therefore grow with the largest index ``m``, not
with the number of blocks.
The kernel runs in two passes. The first adds up every scaled contribution
that lands on the same table at the same shifted key (a row); the second
multiplies each row's table once, walking the rows in the order of their
first contributions. That order gives the result the key order of the
ungrouped walk, which multiplied a table once per contribution.
The extraction runs on the same packed keys: each ``Z_g`` and ``F_g`` is
packed once, and the logarithm recurrence sums its products as integers over
one lcm, keeping the key order of the ring's sum. The chain's other products
use ordinary ``MomentPoly`` arithmetic, which runs on the same numerators
with tuple keys.

The operator is written once, in the moment variables (``rho``), and the
chain runs only there. Every other convention is a ``convert`` view of the
moment form: the paper's ``Delta_t`` in the rescaled variables (``t``) is the
moment-form operator conjugated by the change of variables
``r_l = -t_{l+1} / (2l+1)!!``, and ``F_g`` in ``t``, ``iz`` or ``eynard`` is
the moment-form ``F_g`` converted. Intersection numbers of stable moduli
spaces are the normalized coefficients of ``F_g`` in the ``t`` form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from typing import Callable, Sequence

from taulap.bell import resolvent_coefficient
from taulap.ring import (
    _SLOT_BITS,
    _SLOT_MASK,
    _UNIT_OFFSET,
    Bounds,
    Key,
    MomentPoly,
    RingError,
    SlotOverflow,
    _add_bounds,
    _bounds,
    _check_convention,
    _check_slots,
    _shift,
    _union_bounds,
    _unpack,
    convert,
)

F = Fraction


class GenusOutOfRange(RingError):
    """The requested genus is outside the stable range ``g >= 2``."""


class DimensionMismatch(RingError):
    """Intersection-number indices violate the dimension constraint."""


def genus_two_rho() -> MomentPoly:
    return MomentPoly({
        (-5, 3): F(-21, 160),
        (-4, 1, 1): F(29, 128),
        (-3, 0, 0, 1): F(-35, 384),
    })


# ---------------------------------------------------------------------------
# operator coefficients
#
# Every block of the operator (``c1``, ``c2``, ``e``, ``m`` and ``d``) is a
# short sum of pieces ``(coefficient, shift key, table)``: the coefficient
# times the monomial ``shift key`` times a table, which is the resolvent
# coefficient ``R_m`` for an int ``m``, or one of the constant polynomials by
# name (``"one"`` is 1).

_Spec = tuple[Fraction, Key, int | str]


def _key(unit: int, *variables: int) -> Key:
    """The key of the unit to the power ``unit`` times the product of ``variables``."""
    key = [unit] + [0] * max(variables, default=0)
    for v in variables:
        key[v] += 1
    return tuple(key)


_RHO_CONSTANTS = {
    "c2": MomentPoly({(-3, 3): F(-6, 5), (-2, 1, 1): F(111, 70), (-1, 0, 0, 1): F(-1, 2)}),
    "c1": MomentPoly({(-4, 3): F(2), (-3, 1, 1): F(-1097, 280), (-2, 0, 0, 1): F(41, 24)}),
    "m": MomentPoly({(-3, 2): F(-2, 5), (-2, 0, 1): F(2, 7)}),
    "e": MomentPoly({(-4, 2): F(19, 60), (-3, 0, 1): F(-25, 84)}),
}


def _m_rho(k: int) -> list[_Spec]:
    return [(F(1), _key(0, k + 1), "m"), (F(-3, 2), (-1, 1), k + 2), (F(3, 2), (), k + 3)]


def _d_rho(k: int, l: int) -> list[_Spec]:
    # The unit power of the first term is forced by the operator's scaling
    # grading (every block must raise the scaling degree by exactly two, so
    # coefficients of mixed second derivatives are degree-zero).
    return [
        (F(-1, 30), _key(-3, 1, k + 1, l + 1), "one"),
        (F(-1, 4), _key(-1, k + 1), l + 2),
        (F(-1, 4), _key(-1, l + 1), k + 2),
        (F(1, 4), (), k + l + 3),
    ]


def _e_rho(k: int) -> list[_Spec]:
    return [
        (F(1), _key(0, k + 1), "e"),
        (F(1, 16), (-2, 1), k + 2),
        (F(-1, 16), (-1,), k + 3),
        (F(-(5 + 2 * k), 30), _key(-3, 1, k + 2), "one"),
        (F(-(5 + 2 * k), 2), (-1,), k + 3),
    ]


def apply_laplacian_rho(p: MomentPoly) -> MomentPoly:
    """Apply the moment-form Laplacian; raises the weight by exactly three."""
    return _apply_packed(p, _RHO_TABLES)


def apply_laplacian_t(p: MomentPoly) -> MomentPoly:
    """The paper's ``Delta_t``: the moment-form operator conjugated to the rescaled variables."""
    return convert(apply_laplacian_rho(convert(p, "t", "rho")), "rho", "t")


# ---------------------------------------------------------------------------
# the operator kernel: packed monomial keys, integer numerators


# A polynomial packed as a factor: (denominator, [(key shift, numerator)], bounds).
_Factor = tuple[int, list[tuple[int, int]], Bounds]


def _factor(p: MomentPoly) -> _Factor:
    """``p`` with its keys as shifts, after checking that they fit the slots."""
    bounds = _bounds(list(p.nums))
    _check_slots(bounds)
    return p.den, [(_shift(k), n) for k, n in p.nums.items()], bounds


# A shared table: (denominator, table index, bounds); its items are ``items[index]``.
_Table = tuple[int, int, Bounds]
# A block's piece: (denominator, numerator, key shift, the shared table's index).
_Piece = tuple[int, int, int, int]


class _OperatorTables:
    """The operator's blocks as pieces over shared integer tables.

    ``blocks`` maps a block name (``c1``, ``c2``, ``e``, ``m``, ``d``) to a
    function of the block's indices returning its pieces and the integer
    scalar the block carries in the operator. A table is ``resolvent(m)``
    for an int ``m`` or ``constants[name]``; each is packed once, on first
    use, into ``items`` as a list of ``(key shift, numerator)``, and shared
    by every piece that names it by its index in ``items``. The cache grows
    with the largest index, not with the number of blocks.
    """

    def __init__(
        self,
        resolvent: Callable[[int], MomentPoly],
        constants: dict[str, MomentPoly],
        blocks: dict[str, Callable[..., tuple[list[_Spec], int]]],
    ) -> None:
        self._resolvent = resolvent
        self._constants = {"one": MomentPoly.one(), **constants}
        self._blocks = blocks
        self._tables: dict[int | str, _Table] = {}
        self._pieces: dict[tuple[object, ...], tuple[list[_Piece], Bounds]] = {}
        self.items: list[list[tuple[int, int]]] = []

    def _table(self, name: int | str) -> _Table:
        got = self._tables.get(name)
        if got is None:
            index = len(self.items)
            if index > _SLOT_MASK:
                # the kernel packs a table's index into the low slot of a row key
                raise SlotOverflow(f"more than {_SLOT_MASK + 1} shared tables")
            poly = self._resolvent(name) if isinstance(name, int) else self._constants[name]
            den, items, bounds = _factor(poly)
            self.items.append(items)
            got = self._tables[name] = (den, index, bounds)
        return got

    def pieces(self, block: tuple[object, ...]) -> tuple[list[_Piece], Bounds]:
        """The block's pieces in term order, and the bounds of the keys they reach.

        Pieces with the same table and shift merge into the first of them.
        """
        got = self._pieces.get(block)
        if got is None:
            spec, scalar = self._blocks[block[0]](*block[1:])  # type: ignore[index]
            merged: dict[tuple[int | str, int], Fraction] = {}
            reach = []
            for coeff, key, name in spec:
                at = (name, _shift(key))
                merged[at] = merged.get(at, 0) + coeff * scalar
                reach.append(_add_bounds(self._table(name)[2], _bounds([key])))
            pieces = []
            for (name, shift), coeff in merged.items():
                den, index, _ = self._table(name)
                c = coeff / den
                pieces.append((c.denominator, c.numerator, shift, index))
            got = self._pieces[block] = (pieces, _union_bounds(reach))
        return got


def _rows(p: MomentPoly, form: _OperatorTables) -> tuple[dict[int, int], int]:
    """The grouped rows of ``form`` applied to a nonzero ``p``, and their denominator.

    A row ``start << 8 | table index`` maps to the integer factor its table
    is multiplied by, in the order of its first contribution; see
    ``_apply_packed``.
    """
    bounds = _bounds(list(p.nums))
    _check_slots(bounds)
    jobs: dict[tuple[object, ...], list[tuple[int, int]]] = {}

    def job(block: tuple[object, ...], code: int, mult: int) -> None:
        todo = jobs.get(block)
        if todo is None:
            jobs[block] = [(code, mult)]
        else:
            todo.append((code, mult))

    for key, n in p.nums.items():
        e0 = key[0] if key else 0
        code = _UNIT_OFFSET + _shift(key)
        if e0:
            job(("c1",), code - 1, n * e0)
            if e0 != 1:
                job(("c2",), code - 2, n * e0 * (e0 - 1))
        slots = [(k, e, code - (1 << (_SLOT_BITS * k))) for k, e in enumerate(key) if k and e]
        for i, (k, e, dk) in enumerate(slots):
            job(("e", k), dk, n * e)
            if e0:
                job(("m", k), dk - 1, n * e * e0)
            if e > 1:
                job(("d", k, k), dk - (1 << (_SLOT_BITS * k)), n * e * (e - 1))
            for l, f, _ in slots[i + 1:]:
                # the ordered sum over (k, l) meets every symmetric block twice
                job(("d", k, l), dk - (1 << (_SLOT_BITS * l)), 2 * n * e * f)

    blocks = {block: form.pieces(block) for block in jobs}
    for _, block_bounds in blocks.values():
        # derivatives lower exponents, the unit's by at most two
        _check_slots(_add_bounds((bounds[0] - 2, *bounds[1:]), block_bounds))
    den_ops = lcm(*(piece[0] for pieces, _ in blocks.values() for piece in pieces))
    rows: dict[int, int] = {}
    get = rows.get
    for block, todo in jobs.items():
        # (start << 8) | index == (base << 8) + ((shift << 8) + index): the index is below 256
        walk = [(num * (den_ops // den), (shift << _SLOT_BITS) + index)
                for den, num, shift, index in blocks[block][0]]
        for base, mult in todo:
            base <<= _SLOT_BITS
            for scale, offset in walk:
                row = base + offset
                rows[row] = get(row, 0) + scale * mult
    return rows, p.den * den_ops


def _apply_packed(p: MomentPoly, form: _OperatorTables) -> MomentPoly:
    """Apply the operator of ``form`` to ``p`` in packed integer arithmetic.

    A monomial is one int with an 8-bit slot per variable: slot ``i`` is bits
    ``8 i`` to ``8 i + 7`` and holds ``e_i``, except slot 0, which holds
    ``e0 + 128``. So ``-128 <= e0 <= 127`` and ``0 <= e_k <= 255``.
    Multiplying monomials adds keys, and a derivative by variable ``k``
    subtracts ``2^(8 k)``. The exponent bounds of ``p`` and of every block
    (each piece's table bounds plus its shift) are checked before any
    product is formed: ``SlotOverflow`` is raised if an exponent could leave
    its slot, so a key never wraps silently.

    Coefficients are the ring's integer numerators: ``p`` over its
    denominator, each piece over its own, all rescaled to the step's common
    denominator; the sum is reduced by its gcd once. One pass over the
    monomials of ``p`` lists, per block, the keys of the derivatives it
    meets and their integer multiplicities. The products then run in two
    passes (the grouped sparse product of Monagan and Pearce):

    1. Grouping. For each block, listed key and piece, in that order, the
       scaled multiplicity is added to a row: the piece's table started at
       the listed key plus the piece's shift. A row is one int,
       ``start << 8 | table index``.
    2. Products. The rows are walked in insertion order, each multiplying
       its factor into every item of its table at ``start`` plus the item's
       shift.

    Each table is thus multiplied once per distinct row, not once per listed
    key. The result's key order is that of the ungrouped walk, which takes
    the triples ``(block, listed key, piece)`` one by one, each through its
    table's items: that walk meets a key first at the least ``(triple
    position, item index)`` that reaches it. A triple reaches the same keys
    with the same item indices as its row, and a row is inserted at its
    first triple, so rows are walked in the order of their first triples and
    the least pair is the same in both walks. A row whose factor sums to 0
    is still walked: it places its keys in that order, and keys whose sum is
    0 are dropped at the end. Unless a key cancels inside a block, which no
    block up to index sum 39 does, the walk first meets the keys in the
    order of the block's merged polynomial, so the result's key order is
    that of the sum of blocks.
    """
    if p.is_zero:
        return MomentPoly.zero()
    rows, den = _rows(p, form)
    acc: dict[int, int] = {}
    get = acc.get
    tables = form.items
    for row, factor in rows.items():
        start = row >> _SLOT_BITS
        for s, c in tables[row & _SLOT_MASK]:
            code = start + s
            acc[code] = get(code, 0) + factor * c
    return MomentPoly.from_numerators({_unpack(code): v for code, v in acc.items() if v}, den)


# Each block's pieces and the integer scalar the block carries in the operator.
_RHO_BLOCKS: dict[str, Callable[..., tuple[list[_Spec], int]]] = {
    "c1": lambda: ([(F(1), (), "c1")], -1),
    "c2": lambda: ([(F(1), (), "c2")], -1),
    "e": lambda k: (_e_rho(k), -(3 + 2 * k)),
    "m": lambda k: (_m_rho(k), -(3 + 2 * k)),
    "d": lambda k, l: (_d_rho(k, l), -(3 + 2 * k) * (3 + 2 * l)),
}

# The tables look their resolvent up as a module global on each build, so a
# wrapper put in its place (benchmarks/layertrace.py) sees every build.
_RHO_TABLES = _OperatorTables(lambda m: resolvent_coefficient(m), _RHO_CONSTANTS, _RHO_BLOCKS)


# ---------------------------------------------------------------------------
# partition function and free energies


class StablePartition:
    """Incremental computation of ``Z_g`` and ``F_g`` in the moment form."""

    def __init__(self) -> None:
        self._f2 = genus_two_rho()
        self._u = MomentPoly.one()  # the last u_n of the chain
        self._z: list[MomentPoly] = []  # Z_2, Z_3, ...
        self._f: dict[int, MomentPoly] = {}
        # Z_g and F_g packed for the extraction, each once: Z_g's keys as
        # shifts, F_g's as packed keys, so a product of the two is packed
        self._z_packed: dict[int, _Factor] = {}
        self._f_packed: dict[int, _Factor] = {}

    def z(self, g: int) -> MomentPoly:
        """``Z_g = u_{g-1} / (g-1)!``, kept once computed."""
        if g < 2:
            raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
        while len(self._z) < g - 1:
            u = self._u
            self._u = -apply_laplacian_rho(u) + self._f2 * u
            self._z.append(self._u.scale(F(1, factorial(len(self._z) + 1))))
        return self._z[g - 2]

    def _z_factor(self, g: int) -> _Factor:
        got = self._z_packed.get(g)
        if got is None:
            got = self._z_packed[g] = _factor(self.z(g))
        return got

    def _f_factor(self, g: int) -> _Factor:
        self.f(g)
        return self._f_packed[g]

    def f(self, g: int) -> MomentPoly:
        """``F_g`` from the logarithm recurrence of ``Z = exp(sum_g F_g)``.

        With ``m = g - 1``:  ``m F_{m+1} = m Z_{m+1} - sum_{k=1}^{m-1} k F_{k+1} Z_{m-k+1}``.

        The recurrence runs on packed keys with integer numerators over one
        lcm, and keeps the key order of the ring's sum: each product is summed
        into its own dict and its zeros dropped, then it is added term by term
        to the accumulator, where a key whose total cancels is deleted (and
        re-enters at the end if a later product reaches it). The bounds of
        each product are checked before it is formed, so ``SlotOverflow`` is
        raised before a key could wrap.
        """
        if g < 2:
            raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
        cached = self._f.get(g)
        if cached is not None:
            return cached
        m = g - 1
        z_den, z_items, _ = self._z_factor(g)
        pairs = [(self._f_factor(k + 1), self._z_factor(m - k + 1)) for k in range(1, m)]
        den = lcm(z_den, *(a[0] * b[0] for a, b in pairs))
        mult = m * (den // z_den)
        acc = {_UNIT_OFFSET + shift: n * mult for shift, n in z_items}
        get = acc.get
        for k, ((a_den, a_items, a_bounds), (b_den, b_items, b_bounds)) in enumerate(pairs, 1):
            _check_slots(_add_bounds(a_bounds, b_bounds))
            product: dict[int, int] = {}
            put = product.get
            for code_a, na in a_items:
                for shift, nb in b_items:
                    code = code_a + shift
                    product[code] = put(code, 0) + na * nb
            mult = -k * (den // (a_den * b_den))
            for code, n in product.items():
                if n:
                    total = get(code, 0) + n * mult
                    if total:
                        acc[code] = total
                    else:
                        del acc[code]
        den *= m
        common = gcd(den, *acc.values())
        packed = [(code, n // common) for code, n in acc.items()]
        keys = [_unpack(code) for code, _ in packed]
        self._f_packed[g] = (den // common, packed, _bounds(keys))
        out = self._f[g] = MomentPoly.from_numerators(
            dict(zip(keys, (n for _, n in packed))), den // common)
        return out


@cache
def stable_partition() -> StablePartition:
    """The shared instance (the chain is expensive; reuse it)."""
    return StablePartition()


def free_energy(g: int, convention: str = "rho") -> MomentPoly:
    """``F_g`` in any display convention, converted from the moment-form chain.

    An unknown convention raises ``RingError`` before the chain runs.
    """
    _check_convention(convention)
    return convert(stable_partition().f(g), "rho", convention)


def tau_intersection(indices: Sequence[int]) -> Fraction:
    """Intersection number ``<tau_{d_1} ... tau_{d_n}>`` for indices ``d_i >= 2``.

    The genus is fixed by ``sum (d_i - 1) = 3g - 3``; the value is the
    coefficient of the matching variable monomial of ``F_g`` in the rescaled
    form, times the factorials of the index multiplicities.
    """
    ds = list(indices)
    if not ds:
        raise DimensionMismatch("at least one index is required")
    negative = [str(d) for d in ds if d < 0]
    if negative:
        raise DimensionMismatch(f"indices must be nonnegative, got {', '.join(negative)}")
    low = [str(d) for d in ds if d < 2]
    if low:
        raise DimensionMismatch(
            f"indices 0 and 1 are outside the stable-range table computed here, got {', '.join(low)}"
        )
    total = sum(d - 1 for d in ds)
    if total % 3:
        raise DimensionMismatch(
            f"sum of (d_i - 1) must be a multiple of 3, got {total}"
        )
    g = total // 3 + 1
    if g < 2:
        raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
    fg = free_energy(g, "t")
    counts: dict[int, int] = {}
    for d in ds:
        counts[d - 1] = counts.get(d - 1, 0) + 1
    value = F(0)
    for key, coeff in fg.terms.items():
        var_part = {l: e for l, e in enumerate(key) if l and e}
        if var_part == counts:
            value += coeff
    for m in counts.values():
        value *= factorial(m)
    return value
