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
# operator coefficients, moment form


def _c2_rho() -> MomentPoly:
    return MomentPoly({
        (-3, 3): F(-6, 5),
        (-2, 1, 1): F(111, 70),
        (-1, 0, 0, 1): F(-1, 2),
    })


def _c1_rho() -> MomentPoly:
    return MomentPoly({
        (-4, 3): F(2),
        (-3, 1, 1): F(-1097, 280),
        (-2, 0, 0, 1): F(41, 24),
    })


def _m_rho(k: int) -> MomentPoly:
    out = MomentPoly({(-3, 2): F(-2, 5), (-2, 0, 1): F(2, 7)}) * MomentPoly.variable(k + 1)
    out = out + resolvent_coefficient(k + 2) * MomentPoly({(-1, 1): F(-3, 2)})
    out = out + resolvent_coefficient(k + 3).scale(F(3, 2))
    return out


def _d_rho(k: int, l: int) -> MomentPoly:
    # The unit power of the first term is forced by the operator's scaling
    # grading (every block must raise the scaling degree by exactly two, so
    # coefficients of mixed second derivatives are degree-zero).
    out = (
        MomentPoly.variable(k + 1)
        * MomentPoly.variable(l + 1)
        * MomentPoly({(-3, 1): F(-1, 30)})
    )
    out = out + MomentPoly.variable(k + 1) * resolvent_coefficient(l + 2) * MomentPoly({(-1,): F(-1, 4)})
    out = out + MomentPoly.variable(l + 1) * resolvent_coefficient(k + 2) * MomentPoly({(-1,): F(-1, 4)})
    out = out + resolvent_coefficient(k + l + 3).scale(F(1, 4))
    return out


def _e_rho(k: int) -> MomentPoly:
    out = MomentPoly({(-4, 2): F(19, 60), (-3, 0, 1): F(-25, 84)}) * MomentPoly.variable(k + 1)
    out = out + resolvent_coefficient(k + 2) * MomentPoly({(-2, 1): F(1, 16)})
    out = out + resolvent_coefficient(k + 3) * MomentPoly({(-1,): F(-1, 16)})
    out = out + MomentPoly.variable(k + 2) * MomentPoly({(-3, 1): F(-(5 + 2 * k), 30)})
    out = out + resolvent_coefficient(k + 3) * MomentPoly({(-1,): F(-(5 + 2 * k), 2)})
    return out


def apply_laplacian_rho(p: MomentPoly) -> MomentPoly:
    """Apply the moment-form Laplacian; raises the weight by exactly three."""
    return _apply_packed(p, _RHO_TABLES)


# ---------------------------------------------------------------------------
# operator coefficients, rescaled form
#
# Slot ``j >= 1`` carries the variable ``t_{j+1}``; the unit is ``T0 = 1 - t_0``,
# so a displayed ``d/dt_0`` is ``-partial(0)`` on stored exponents.


def _c2_t() -> MomentPoly:
    return MomentPoly({
        (-3, 3): F(2, 45),
        (-2, 1, 1): F(37, 1050),
        (-1, 0, 0, 1): F(1, 210),
    })


def _c1_t() -> MomentPoly:
    return MomentPoly({
        (-4, 3): F(2, 27),
        (-3, 1, 1): F(1097, 12600),
        (-2, 0, 0, 1): F(41, 2520),
    })


def _m_t(j: int) -> MomentPoly:
    # displayed label k = j + 1
    out = MomentPoly({(-3, 2): F(2, 45), (-2, 0, 1): F(2, 105)}) * MomentPoly.variable(j + 1)
    out = out + resolvent_coefficient_t(j + 2) * MomentPoly({(-1, 1): F(1, 2)})
    out = out + resolvent_coefficient_t(j + 3).scale(F(3, 2 * (5 + 2 * j)))
    return out


def _d_t(j: int, i: int) -> MomentPoly:
    # unit power forced by the scaling grading, as in the moment form
    out = (
        MomentPoly.variable(j + 1)
        * MomentPoly.variable(i + 1)
        * MomentPoly({(-3, 1): F(1, 90)})
    )
    out = out + MomentPoly.variable(j + 1) * resolvent_coefficient_t(i + 2) * MomentPoly({(-1,): F(1, 4)})
    out = out + MomentPoly.variable(i + 1) * resolvent_coefficient_t(j + 2) * MomentPoly({(-1,): F(1, 4)})
    out = out + resolvent_coefficient_t(j + i + 3).scale(
        F(double_factorial(3 + 2 * j) * double_factorial(3 + 2 * i),
          4 * double_factorial(5 + 2 * j + 2 * i))
    )
    return out


def _e_t(j: int) -> MomentPoly:
    out = MomentPoly({(-4, 2): F(19, 540), (-3, 0, 1): F(5, 252)}) * MomentPoly.variable(j + 1)
    out = out + resolvent_coefficient_t(j + 2) * MomentPoly({(-2, 1): F(1, 48)})
    out = out + resolvent_coefficient_t(j + 3) * MomentPoly({(-1,): F(1, 16 * (5 + 2 * j))})
    out = out + MomentPoly.variable(j + 2) * MomentPoly({(-3, 1): F(1, 90)})
    out = out + resolvent_coefficient_t(j + 3) * MomentPoly({(-1,): F(1, 2)})
    return out


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


# Block ``(name, *indices)`` -> (denominator, [(key shift, numerator)], bounds).
_Table = tuple[int, list[tuple[int, int]], Bounds]


class _OperatorTables:
    """One form's operator blocks as integer tables, each built on first use.

    ``blocks`` maps a block name (``c1``, ``c2``, ``e``, ``m``, ``d``) to a
    function of the block's indices returning the block and the integer
    scalar it carries in the operator; the table holds their product, so the
    kernel only adds products.
    """

    def __init__(self, blocks: dict[str, Callable[..., tuple[MomentPoly, int]]]) -> None:
        self._blocks = blocks
        self._tables: dict[tuple[object, ...], _Table] = {}

    def table(self, block: tuple[object, ...]) -> _Table:
        got = self._tables.get(block)
        if got is None:
            poly, scalar = self._blocks[block[0]](*block[1:])  # type: ignore[index]
            items = [(_shift(k), scalar * n) for k, n in poly.nums.items()]
            got = self._tables[block] = (poly.den, items, _bounds(list(poly.nums)))
        return got


def _apply_packed(p: MomentPoly, form: _OperatorTables) -> MomentPoly:
    """Apply one form of the operator to ``p`` in packed integer arithmetic.

    A monomial is one int with an 8-bit slot per variable: slot ``i`` is bits
    ``8 i`` to ``8 i + 7`` and holds ``e_i``, except slot 0, which holds
    ``e0 + 128``. So ``-128 <= e0 <= 127`` and ``0 <= e_k <= 255``.
    Multiplying monomials adds keys, and a derivative by variable ``k``
    subtracts ``2^(8 k)``. The exponent bounds of ``p`` and of every block are
    checked before any product is formed: ``SlotOverflow`` is raised if an
    exponent could leave its slot, so a key never wraps silently.

    Coefficients are the ring's integer numerators: ``p`` over its
    denominator, each block table over its own. One pass over the monomials
    of ``p`` lists, per block, the keys of the derivatives it meets and their
    integer multiplicities. Each block then multiplies its list, rescaled to
    the step's common denominator, and the sum is reduced by its gcd once.
    """
    if p.is_zero:
        return MomentPoly.zero()
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

    tables = {block: form.table(block) for block in jobs}
    for _, _, block_bounds in tables.values():
        # derivatives lower exponents, the unit's by at most two
        _check_slots(_add_bounds((bounds[0] - 2, *bounds[1:]), block_bounds))
    den_ops = lcm(*(t[0] for t in tables.values()))
    acc: dict[int, int] = {}
    get = acc.get
    for block, todo in jobs.items():
        den, items, _ = tables[block]
        rescale = den_ops // den
        for base, mult in todo:
            mult *= rescale
            for shift, c in items:
                code = base + shift
                acc[code] = get(code, 0) + mult * c
    return MomentPoly.from_numerators(
        {_unpack(code): v for code, v in acc.items() if v}, den_p * den_ops)


# Each form's blocks carry the scalars of its operator. In the rescaled form a
# displayed d/dt_0 is -partial(0), which flips the signs of the C1 and M blocks.
_RHO_TABLES = _OperatorTables({
    "c1": lambda: (_c1_rho(), -1),
    "c2": lambda: (_c2_rho(), -1),
    "e": lambda k: (_e_rho(k), -(3 + 2 * k)),
    "m": lambda k: (_m_rho(k), -(3 + 2 * k)),
    "d": lambda k, l: (_d_rho(k, l), -(3 + 2 * k) * (3 + 2 * l)),
})

_T_TABLES = _OperatorTables({
    "c1": lambda: (_c1_t(), 1),
    "c2": lambda: (_c2_t(), -1),
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
        self._u: list[MomentPoly] = [MomentPoly.one()]
        self._f: dict[int, MomentPoly] = {}

    def _extend(self, n: int) -> None:
        while len(self._u) <= n:
            u = self._u[-1]
            self._u.append(-self._apply(u) + self._f2 * u)

    def z(self, g: int) -> MomentPoly:
        """``Z_g = u_{g-1} / (g-1)!``."""
        if g < 2:
            raise GenusOutOfRange(f"stable range starts at genus 2, got {g}")
        self._extend(g - 1)
        return self._u[g - 1].scale(F(1, factorial(g - 1)))

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
