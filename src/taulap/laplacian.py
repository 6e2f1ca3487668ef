"""Genus generating functions from an explicit second-order moment operator.

The stable partition function is an exponential of free energies
``F_g`` (one per genus ``g >= 2``) and equals
``exp(-Delta + F_2) 1`` for an explicit Laplacian ``Delta`` acting on
moment polynomials.  Expanding the exponential order by order gives

    ``u_0 = 1,  u_{n+1} = -Delta(u_n) + F_2 * u_n,  Z_{n+1} = u_n / n!``

and the free energies are recovered from the ``Z_g`` by the exact
exponential-to-logarithm relation ``Z = exp(sum_g F_g)``, as the power-series
logarithm recurrence over the genus index.

The operator is applied by one kernel, ``_apply_packed``. It packs each
monomial key into one int, with an 8-bit slot per variable, and multiplies
the ring's integer numerators (``MomentPoly.nums`` over ``MomentPoly.den``).
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
The chain's other products and the extraction use ordinary ``MomentPoly``
arithmetic, which runs on the same numerators with tuple keys.

The operator exists in two verbatim forms: one whose coefficients are
written in the moment variables (``rho``), one written in the rescaled
variables (``t``).  They are related by the change of variables
``r_l = -t_{l+1} / (2l+1)!!`` and validated against each other in the
tests.  Intersection numbers of stable moduli spaces are the normalized
coefficients of ``F_g`` in the ``t`` form.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Sequence

from taulap.bell import resolvent_coefficient, resolvent_coefficient_t
from taulap.ring import (
    Key,
    MomentPoly,
    RingError,
    convert,
    double_factorial,
)

F = Fraction


class GenusOutOfRange(RingError):
    """The requested genus is outside the stable range ``g >= 2``."""


class DimensionMismatch(RingError):
    """Intersection-number indices violate the dimension constraint."""


def genus_one() -> MomentPoly:
    """``F_1 = -log(unit) / 24`` (the same in every convention)."""
    return MomentPoly.log_unit(F(-1, 24))


def genus_two_rho() -> MomentPoly:
    return MomentPoly({
        (-5, 3): F(-21, 160),
        (-4, 1, 1): F(29, 128),
        (-3, 0, 0, 1): F(-35, 384),
    })


def genus_two_t() -> MomentPoly:
    return MomentPoly({
        (-5, 3): F(7, 1440),
        (-4, 1, 1): F(29, 5760),
        (-3, 0, 0, 1): F(1, 1152),
    })


# ---------------------------------------------------------------------------
# operator coefficients
#
# Every block of the operator (``c1``, ``c2``, ``e``, ``m`` and ``d``) is a
# short sum of pieces ``(coefficient, shift key, table)``: the coefficient
# times the monomial ``shift key`` times a table, which is the resolvent
# coefficient ``R_m`` of the form for an int ``m``, or one of the form's
# constant polynomials by name (``"one"`` is 1).

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


# Rescaled form. Slot ``j >= 1`` carries the variable ``t_{j+1}``; the unit is
# ``T0 = 1 - t_0``, so a displayed ``d/dt_0`` is ``-partial(0)`` on stored
# exponents. Its tables are ``R_m^t``.

_T_CONSTANTS = {
    "c2": MomentPoly({(-3, 3): F(2, 45), (-2, 1, 1): F(37, 1050), (-1, 0, 0, 1): F(1, 210)}),
    "c1": MomentPoly({(-4, 3): F(2, 27), (-3, 1, 1): F(1097, 12600), (-2, 0, 0, 1): F(41, 2520)}),
    "m": MomentPoly({(-3, 2): F(2, 45), (-2, 0, 1): F(2, 105)}),
    "e": MomentPoly({(-4, 2): F(19, 540), (-3, 0, 1): F(5, 252)}),
}


def _m_t(j: int) -> list[_Spec]:
    # displayed label k = j + 1
    return [(F(1), _key(0, j + 1), "m"), (F(1, 2), (-1, 1), j + 2), (F(3, 2 * (5 + 2 * j)), (), j + 3)]


def _d_t(j: int, i: int) -> list[_Spec]:
    # unit power forced by the scaling grading, as in the moment form
    return [
        (F(1, 90), _key(-3, 1, j + 1, i + 1), "one"),
        (F(1, 4), _key(-1, j + 1), i + 2),
        (F(1, 4), _key(-1, i + 1), j + 2),
        (F(double_factorial(3 + 2 * j) * double_factorial(3 + 2 * i),
           4 * double_factorial(5 + 2 * j + 2 * i)), (), j + i + 3),
    ]


def _e_t(j: int) -> list[_Spec]:
    return [
        (F(1), _key(0, j + 1), "e"),
        (F(1, 48), (-2, 1), j + 2),
        (F(1, 16 * (5 + 2 * j)), (-1,), j + 3),
        (F(1, 90), _key(-3, 1, j + 2), "one"),
        (F(1, 2), (-1,), j + 3),
    ]


def apply_laplacian_t(p: MomentPoly) -> MomentPoly:
    """The same operator written in the rescaled variables."""
    return _apply_packed(p, _T_TABLES)


# ---------------------------------------------------------------------------
# the operator kernel: packed monomial keys, integer numerators


class SlotOverflow(RingError):
    """An exponent does not fit its slot in the packed representation."""


_SLOT_BITS = 8  # one byte per slot: keys convert with int.from_bytes / to_bytes
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_UNIT_OFFSET = 1 << (_SLOT_BITS - 1)


def _shift(key: Key) -> int:
    """``sum_i e_i 2^(8 i)``: what multiplying by the monomial adds to a packed key.

    The caller has checked the bounds of ``key``.
    """
    if not key:
        return 0
    return key[0] + (int.from_bytes(bytes(key[1:]), "little") << _SLOT_BITS)


def _unpack(code: int) -> Key:
    e0 = (code & _SLOT_MASK) - _UNIT_OFFSET
    rest = code >> _SLOT_BITS
    if not rest:
        return (e0,) if e0 else ()
    return (e0, *rest.to_bytes((rest.bit_length() + 7) // 8, "little"))


# (least unit exponent, largest unit exponent, largest variable exponent)
Bounds = tuple[int, int, int]


def _bounds(keys: list[Key]) -> Bounds:
    e0s = [k[0] if k else 0 for k in keys] or [0]
    top = max((max(k[1:]) for k in keys if len(k) > 1), default=0)
    return min(e0s), max(e0s), top


def _check_slots(bounds: Bounds) -> None:
    low, high, top = bounds
    if low < -_UNIT_OFFSET or high >= _UNIT_OFFSET or top > _SLOT_MASK:
        raise SlotOverflow(
            f"unit exponents {low}..{high} or variable exponents up to {top} "
            f"do not fit {_SLOT_BITS}-bit slots"
        )


def _add_bounds(a: Bounds, b: Bounds) -> Bounds:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


# A shared table: (denominator, table index, bounds); its items are ``items[index]``.
_Table = tuple[int, int, Bounds]
# A block's piece: (denominator, numerator, key shift, the shared table's index).
_Piece = tuple[int, int, int, int]


class _OperatorTables:
    """One form's operator blocks as pieces over shared integer tables.

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
            self.items.append([(_shift(k), n) for k, n in poly.nums.items()])
            got = self._tables[name] = (poly.den, index, _bounds(list(poly.nums)))
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
            lows, highs, tops = zip(*reach)
            got = self._pieces[block] = (pieces, (min(lows), max(highs), max(tops)))
        return got


def _rows(p: MomentPoly, form: _OperatorTables) -> tuple[dict[int, int], int]:
    """The grouped rows of ``form`` applied to a nonzero ``p``, and their denominator.

    A row ``start << 8 | table index`` maps to the integer factor its table
    is multiplied by, in the order of its first contribution; see
    ``_apply_packed``.
    """
    log = p.log_coeff
    bounds = _bounds(list(p.nums) + ([()] if log else []))
    _check_slots(bounds)
    den_p = lcm(p.den, log.denominator)
    mult_p = den_p // p.den
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
        num = n * mult_p
        if e0:
            job(("c1",), code - 1, num * e0)
            if e0 != 1:
                job(("c2",), code - 2, num * e0 * (e0 - 1))
        slots = [(k, e, code - (1 << (_SLOT_BITS * k))) for k, e in enumerate(key) if k and e]
        for i, (k, e, dk) in enumerate(slots):
            job(("e", k), dk, num * e)
            if e0:
                job(("m", k), dk - 1, num * e * e0)
            if e > 1:
                job(("d", k, k), dk - (1 << (_SLOT_BITS * k)), num * e * (e - 1))
            for l, f, _ in slots[i + 1:]:
                # the ordered sum over (k, l) meets every symmetric block twice
                job(("d", k, l), dk - (1 << (_SLOT_BITS * l)), 2 * num * e * f)
    if log:
        # the unit derivative of c log(unit) is c / unit, and its own is -c / unit^2
        num = int(log * den_p)
        job(("c1",), _UNIT_OFFSET - 1, num)
        job(("c2",), _UNIT_OFFSET - 2, -num)

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
    return rows, den_p * den_ops


def _apply_packed(p: MomentPoly, form: _OperatorTables) -> MomentPoly:
    """Apply one form of the operator to ``p`` in packed integer arithmetic.

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


# Each form's blocks carry the scalars of its operator. In the rescaled form a
# displayed d/dt_0 is -partial(0), which flips the signs of the C1 and M blocks.
_RHO_TABLES = _OperatorTables(resolvent_coefficient, _RHO_CONSTANTS, {
    "c1": lambda: ([(F(1), (), "c1")], -1),
    "c2": lambda: ([(F(1), (), "c2")], -1),
    "e": lambda k: (_e_rho(k), -(3 + 2 * k)),
    "m": lambda k: (_m_rho(k), -(3 + 2 * k)),
    "d": lambda k, l: (_d_rho(k, l), -(3 + 2 * k) * (3 + 2 * l)),
})

_T_TABLES = _OperatorTables(resolvent_coefficient_t, _T_CONSTANTS, {
    "c1": lambda: ([(F(1), (), "c1")], 1),
    "c2": lambda: ([(F(1), (), "c2")], -1),
    "e": lambda j: (_e_t(j), -1),
    "m": lambda j: (_m_t(j), 1),
    "d": lambda j, i: (_d_t(j, i), -1),
})


# ---------------------------------------------------------------------------
# partition function and free energies


class StablePartition:
    """Incremental computation of ``Z_g`` and ``F_g`` in one variable form."""

    def __init__(self, convention: str = "rho") -> None:
        if convention == "rho":
            self._apply = apply_laplacian_rho
            self._f2 = genus_two_rho()
        elif convention == "t":
            self._apply = apply_laplacian_t
            self._f2 = genus_two_t()
        else:
            raise RingError("native computation supports the 'rho' and 't' forms")
        self.convention = convention
        self._u = MomentPoly.one()  # the last u_n of the chain
        self._z: list[MomentPoly] = []  # Z_2, Z_3, ...
        self._f: dict[int, MomentPoly] = {}

    def z(self, g: int) -> MomentPoly:
        """``Z_g = u_{g-1} / (g-1)!``, kept once computed."""
        if g < 2:
            raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
        while len(self._z) < g - 1:
            u = self._u
            self._u = -self._apply(u) + self._f2 * u
            self._z.append(self._u.scale(F(1, factorial(len(self._z) + 1))))
        return self._z[g - 2]

    def f(self, g: int) -> MomentPoly:
        """``F_g`` from the logarithm recurrence of ``Z = exp(sum_g F_g)``.

        With ``m = g - 1``:  ``m F_{m+1} = m Z_{m+1} - sum_{k=1}^{m-1} k F_{k+1} Z_{m-k+1}``.
        """
        if g < 2:
            raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
        cached = self._f.get(g)
        if cached is not None:
            return cached
        m = g - 1
        acc = self.z(g).scale(m)
        for k in range(1, m):
            acc = acc + self.f(k + 1).scale(-k) * self.z(m - k + 1)
        out = self._f[g] = acc.scale(F(1, m))
        return out


_PARTITIONS: dict[str, StablePartition] = {}


def stable_partition(convention: str = "rho") -> StablePartition:
    """Shared per-convention instance (chains are expensive; reuse them)."""
    part = _PARTITIONS.get(convention)
    if part is None:
        part = StablePartition(convention)
        _PARTITIONS[convention] = part
    return part


def free_energy(g: int, convention: str = "rho") -> MomentPoly:
    """``F_g`` in any display convention (native for rho/t, converted otherwise)."""
    if convention in ("rho", "t"):
        return stable_partition(convention).f(g)
    return convert(stable_partition("t").f(g), "t", convention)


def tau_intersection(indices: Sequence[int]) -> Fraction:
    """Intersection number ``<tau_{d_1} ... tau_{d_n}>`` for indices ``d_i >= 2``.

    The genus is fixed by ``sum (d_i - 1) = 3g - 3``; the value is the
    coefficient of the matching variable monomial of ``F_g`` in the rescaled
    form, times the factorials of the index multiplicities.
    """
    ds = list(indices)
    if not ds:
        raise DimensionMismatch("at least one index is required")
    if any(d < 2 for d in ds):
        raise DimensionMismatch(
            "indices 0 and 1 are outside the stable-range table computed here"
        )
    total = sum(d - 1 for d in ds)
    if total % 3:
        raise DimensionMismatch(
            f"sum of (d_i - 1) must be a multiple of 3, got {total}"
        )
    g = total // 3 + 1
    if g < 2:
        raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
    fg = stable_partition("t").f(g)
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
