"""Exact sparse arithmetic for moment polynomials and boundary-variable Laurent objects.

The coefficient ring is generated by one invertible unit (index 0) and
countably many ordinary moment variables (index 1, 2, ...). A monomial
``r0^e0 r1^e1 r2^e2 ...`` is stored as one packed int with an 8-bit slot per
variable (after Monagan and Pearce, *Polynomial division using dynamic
arrays, heaps, and packed exponent vectors*, CASC 2007): slot ``i`` holds
``e_i``, and slot 0 holds ``e0 + 128``. So ``-128 <= e0 <= 127`` and
``0 <= e_k <= 255``; a polynomial whose exponents leave that domain is never
built, and ``SlotOverflow`` is raised instead. Multiplying monomials adds
their packed keys (less one unit offset). There is no log term: the chain's
free energies start at genus two, and the genus-one correlator is a literal
seed in ``boundary``.

A polynomial stores its coefficients as integer numerators over one positive
denominator: ``MomentPoly.packed`` maps each packed key to its numerator, over
``MomentPoly.den``. Arithmetic runs on the numerators, and each result is
reduced by a single gcd. Every kernel of the package reads and writes these
packed keys. Exponent tuples ``(e0, e1, e2, ...)`` with trailing zeros
trimmed appear only at the edges: ``MomentPoly(...)`` and
``MomentPoly.from_numerators`` take them, ``MomentPoly.nums`` (numerators)
and ``MomentPoly.terms`` (Fractions) are views keyed by them, and rendering,
``convert``, ``substitute`` and exact binding read them. Every operation
keeps the insertion order of the keys, which fixes the order in which float
evaluation sums the terms.

Four display conventions for the same ring are supported:

* ``rho``    -- unit ``r0``, variables ``r1, r2, ...``;
* ``t``      -- unit ``T0``, variables ``t2, t3, ...`` with
  ``r_l = -t_{l+1} / (2l+1)!!``;
* ``iz``     -- unit ``(1-I1)``, variables ``I2, I3, ...``, same scaling
  as ``t``;
* ``eynard`` -- unit ``(2-t3)``, odd-indexed variables ``t5, t7, ...`` with
  ``r_l = -t_{2l+3}``.

Converting a polynomial between conventions is a pure rescaling of
coefficients; the exponent keys are shared by all conventions.

Boundary-variable objects are Laurent polynomials in ``z_1 .. z_B`` whose
coefficients are moment polynomials (:class:`ZLaurent`). The runtime builds,
scales, compares and prints them, but does no Laurent arithmetic: creation
and evaluation run on orbits, and the loop-equation residuals on integer
numerators. :class:`ZRational` is the record of the planar pair, a numerator
over powers of ``(z_i + z_j)`` or ``(z_i - z_j)`` factors. Sums, products,
derivatives and embeddings of both kinds are left to the tests' references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class RingError(ValueError):
    """Base class for arithmetic domain errors raised by this package."""


class NonUnitSubstitution(RingError):
    """The unit variable was bound to a non-invertible value."""


class UnknownVariable(RingError):
    """Evaluation is missing a value for a variable that occurs."""


class CoincidentPoints(RingError):
    """Evaluation points collide where distinct values are required."""


Rational = Fraction
Key = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def format_rational(value: object) -> str:
    """Render an exact rational as ``"p/q"`` (or ``"p"`` when integral).

    ``RingError`` if a part is past Python's int-to-str limit.
    """
    if type(value) is not Fraction:
        value = Fraction(value)  # type: ignore[arg-type]
    try:
        return str(value)
    except ValueError as exc:
        raise RingError("the exact result has too many digits to print") from exc


def double_factorial(n: int) -> int:
    """Odd double factorial ``n!!`` for odd ``n >= -1``, with ``(-1)!! = 1``."""
    if n < -1 or n % 2 == 0:
        raise ValueError(f"odd double factorial needs an odd n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# Packed keys: a monomial is one int with an 8-bit slot per variable. Slot
# ``i`` is bits ``8 i`` to ``8 i + 7`` and holds ``e_i``, except slot 0, which
# holds ``e0 + 128``; so ``-128 <= e0 <= 127`` and ``0 <= e_k <= 255``. The
# packed key is ``_UNIT_OFFSET + sum_i e_i 2^(8 i)``, so the product of two
# monomials has the sum of their keys less one ``_UNIT_OFFSET``.


class SlotOverflow(RingError):
    """An exponent does not fit its slot in the packed representation."""


_SLOT_BITS = 8  # one byte per slot: keys convert with int.from_bytes / to_bytes
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_UNIT_OFFSET = 1 << (_SLOT_BITS - 1)


def _slot(k: int) -> int:
    """What multiplying by ``r_k`` adds to a packed key; ``r_0`` is the unit."""
    return 1 << (_SLOT_BITS * k)


def _code(key: Iterable[int]) -> int:
    """The packed key of an exponent tuple; trailing zeros do not change it.

    ``RingError`` for an exponent that is not an int or a negative variable
    exponent, ``SlotOverflow`` for one that does not fit its slot.
    """
    key = tuple(key)
    if not all(isinstance(e, int) for e in key):
        raise RingError(f"exponents must be integers: {key}")
    if any(e < 0 for e in key[1:]):
        raise RingError(f"moment exponents must be nonnegative: {key}")
    if not key:
        return _UNIT_OFFSET
    if not -_UNIT_OFFSET <= key[0] < _UNIT_OFFSET or max(key[1:], default=0) > _SLOT_MASK:
        raise SlotOverflow(f"exponents {key} do not fit {_SLOT_BITS}-bit slots")
    return _UNIT_OFFSET + key[0] + (int.from_bytes(bytes(key[1:]), "little") << _SLOT_BITS)


def _unpack(code: int) -> Key:
    """The trimmed exponent tuple of a packed key."""
    e0 = (code & _SLOT_MASK) - _UNIT_OFFSET
    rest = code >> _SLOT_BITS
    if not rest:
        return (e0,) if e0 else ()
    return (e0, *rest.to_bytes((rest.bit_length() + 7) // 8, "little"))


def _width(codes: Iterable[int]) -> int:
    """One more than the largest variable index packed keys use; at least 1, the unit's slot."""
    return max(1, (max(codes, default=0).bit_length() + 7) // _SLOT_BITS)


# (least unit exponent, largest unit exponent, largest variable exponent)
Bounds = tuple[int, int, int]


def _bounds(codes: Iterable[int]) -> Bounds:
    """The exponent bounds of packed keys; ``(0, 0, 0)`` for none."""
    units = []
    top = 0
    for code in codes:
        units.append(code & _SLOT_MASK)
        rest = code >> _SLOT_BITS
        if rest:
            top = max(top, *rest.to_bytes((rest.bit_length() + 7) // 8, "little"))
    if not units:
        return 0, 0, 0
    return min(units) - _UNIT_OFFSET, max(units) - _UNIT_OFFSET, top


def _check_slots(bounds: Bounds) -> None:
    """``SlotOverflow`` unless every exponent within ``bounds`` fits its slot."""
    low, high, top = bounds
    if low < -_UNIT_OFFSET or high >= _UNIT_OFFSET or top > _SLOT_MASK:
        raise SlotOverflow(
            f"unit exponents {low}..{high} or variable exponents up to {top} "
            f"do not fit {_SLOT_BITS}-bit slots"
        )


def _add_bounds(a: Bounds, b: Bounds) -> Bounds:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


def _slot_tops(codes: Iterable[int]) -> list[int]:
    """The largest exponent of each variable slot (``r_1``, ``r_2``, ...) over packed keys."""
    tops: list[int] = []
    for code in codes:
        rest = code >> _SLOT_BITS
        exps = rest.to_bytes((rest.bit_length() + 7) // 8, "little")
        tops += [0] * (len(exps) - len(tops))
        tops[:len(exps)] = map(max, tops, exps)
    return tops


def _union_bounds(bounds: Iterable[Bounds]) -> Bounds:
    """The bounds of the keys of several sets, each within its own bounds; ``(0, 0, 0)`` for none."""
    bounds = list(bounds)
    if not bounds:
        return 0, 0, 0
    lows, highs, tops = zip(*bounds)
    return min(lows), max(highs), max(tops)


def monomial_weight(key: Key) -> int:
    """Weight of an exponent key: ``sum_{k>=1} k * e_k`` (the unit counts zero)."""
    return sum(l * e for l, e in enumerate(key) if l)


class MomentPoly:
    """Sparse exact polynomial in the unit and the moment variables.

    ``packed`` maps the packed key of each monomial to its integer numerator
    over one positive denominator ``den``, reduced so that no integer above 1
    divides ``den`` and every numerator. Zero numerators are never stored,
    and the dict keeps the order in which the keys first appeared. ``nums``
    and ``terms`` are views of it with tuple keys.
    """

    __slots__ = ("packed", "den", "_reach")

    def __init__(self, terms: Mapping[Key, object] | None = None) -> None:
        clean: dict[int, Fraction] = {}
        if terms:
            for raw_key, raw_coeff in terms.items():
                code = _code(raw_key)
                coeff = raw_coeff if type(raw_coeff) is Fraction else Fraction(raw_coeff)  # type: ignore[arg-type]
                if not coeff:
                    continue
                prev = clean.get(code)
                if prev is None:
                    clean[code] = coeff
                else:
                    total = prev + coeff
                    if total:
                        clean[code] = total
                    else:
                        del clean[code]
        # over the lcm of the reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self.packed = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self.den = den
        self._reach: Bounds | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numerators(cls, nums: Mapping[Key, int], den: int = 1) -> "MomentPoly":
        """``sum_k nums[k] / den * x^k`` over tuple keys ``k``, reduced by one gcd.

        ``den`` must be positive. Keys are checked as in ``MomentPoly(...)``;
        zero numerators are dropped, and the rest keep their order.
        """
        packed: dict[int, int] = {}
        for key, n in nums.items():
            code = _code(key)
            packed[code] = packed.get(code, 0) + n
        return cls._from_packed(packed, den)

    @classmethod
    def _from_packed(cls, packed: Mapping[int, int], den: int = 1) -> "MomentPoly":
        """``from_numerators`` on packed keys, which are not checked: how kernels build results."""
        packed = {k: n for k, n in packed.items() if n}
        common = gcd(den, *packed.values())
        if common != 1:
            packed = {k: n // common for k, n in packed.items()}
            den //= common
        out = cls.__new__(cls)
        out.packed = packed
        out.den = den
        out._reach = None
        return out

    @classmethod
    def zero(cls) -> "MomentPoly":
        return cls()

    @classmethod
    def one(cls) -> "MomentPoly":
        return cls({(): 1})

    @classmethod
    def constant(cls, value: object) -> "MomentPoly":
        return cls({(): value})

    @classmethod
    def monomial(cls, key: Iterable[int], coeff: object = 1) -> "MomentPoly":
        return cls({tuple(key): coeff})

    @classmethod
    def variable(cls, index: int, power: int = 1) -> "MomentPoly":
        if index < 0:
            raise RingError(f"variable index must be >= 0, got {index}")
        if index == 0:
            return cls({(power,): 1})
        return cls({(0,) * index + (power,): 1})

    @classmethod
    def unit_power(cls, power: int) -> "MomentPoly":
        """The unit raised to any (possibly negative) integer power."""
        return cls({(power,): 1})

    # -- structure ---------------------------------------------------------

    @property
    def nums(self) -> dict[Key, int]:
        """The numerators by tuple key, in stored order; a new dict on every access."""
        return {_unpack(k): n for k, n in self.packed.items()}

    @property
    def terms(self) -> dict[Key, Fraction]:
        """The coefficients as Fractions by tuple key, in stored order; a new dict on every access."""
        den = self.den
        return {_unpack(k): Fraction(n, den) for k, n in self.packed.items()}

    @property
    def bounds(self) -> Bounds:
        """The exponent bounds of the keys (``_bounds``), computed on first use."""
        reach = self._reach
        if reach is None:
            reach = self._reach = _bounds(self.packed)
        return reach

    @property
    def is_zero(self) -> bool:
        return not self.packed

    @property
    def is_constant(self) -> bool:
        return all(k == _UNIT_OFFSET for k in self.packed)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise RingError(f"not a constant polynomial: {self!r}")
        return Fraction(self.packed.get(_UNIT_OFFSET, 0), self.den)

    # -- arithmetic --------------------------------------------------------

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.packed == other.packed and self.den == other.den

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as its value
        if self.is_constant:
            return hash(self.constant_value())
        return hash((frozenset(self.packed.items()), self.den))

    def __neg__(self) -> "MomentPoly":
        return MomentPoly._from_packed(
            {k: -n for k, n in self.packed.items()}, self.den)

    def __add__(self, other: object) -> "MomentPoly":
        """The sum; a key whose coefficient cancels is deleted at once."""
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        nums = {k: n * mine for k, n in self.packed.items()}
        for key, n in other.packed.items():
            total = nums.get(key, 0) + n * theirs
            if total:
                nums[key] = total
            else:
                del nums[key]
        return MomentPoly._from_packed(nums, den)

    __radd__ = __add__

    def __sub__(self, other: object) -> "MomentPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "MomentPoly":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def scale(self, factor: object) -> "MomentPoly":
        factor = factor if type(factor) is Fraction else Fraction(factor)  # type: ignore[arg-type]
        if not factor:
            return MomentPoly()
        num = factor.numerator
        return MomentPoly._from_packed(
            {k: n * num for k, n in self.packed.items()},
            self.den * factor.denominator)

    def __mul__(self, other: object) -> "MomentPoly":
        """The product; keys keep the order of first appearance, cancelled ones are dropped.

        The summed exponent bounds of the factors are checked first, so
        ``SlotOverflow`` is raised before a key could leave its slot. When the
        largest variable exponents of the factors overflow together, they may
        sit in different slots, so the sums are then taken slot by slot.
        """
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MomentPoly):
            return NotImplemented
        if other.is_constant:
            return self.scale(other.constant_value())
        if self.is_constant:
            return other.scale(self.constant_value())
        bounds = _add_bounds(self.bounds, other.bounds)
        if bounds[2] > _SLOT_MASK:
            tops = zip_longest(_slot_tops(self.packed), _slot_tops(other.packed), fillvalue=0)
            bounds = bounds[0], bounds[1], max(map(sum, tops))
        _check_slots(bounds)
        acc: dict[int, int] = {}
        get = acc.get
        theirs = other.packed.items()
        for ka, na in self.packed.items():
            base = ka - _UNIT_OFFSET  # a product of packed keys carries one offset
            for kb, nb in theirs:
                k = base + kb
                acc[k] = get(k, 0) + na * nb
        return MomentPoly._from_packed(acc, self.den * other.den)

    def __rmul__(self, other: object) -> "MomentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- evaluation --------------------------------------------------------

    def substitute(self, values: Mapping[int, object]) -> object:
        """Evaluate at numeric moment values (index -> value).

        Values may be exact rationals or floats; the unit (index 0) must be
        nonzero whenever it occurs with a negative power. Each term starts
        from its Fraction coefficient and the terms are summed in stored order.
        """
        total: object = None
        den = self.den
        for code, n in self.packed.items():
            part: object = Fraction(n, den)
            for l, e in enumerate(_unpack(code)):
                if not e:
                    continue
                if l not in values:
                    raise UnknownVariable(f"no value bound for variable index {l}")
                base = values[l]
                if l == 0 and e < 0 and not base:
                    raise NonUnitSubstitution("the unit must be bound to a nonzero value")
                part = part * base**e
            total = part if total is None else total + part
        if total is None:
            return _ZERO
        return total

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return render_str(self, "rho")

    def __repr__(self) -> str:
        return f"MomentPoly({render_str(self, 'rho')})"


def _as_poly(value: object) -> MomentPoly | None:
    if isinstance(value, MomentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MomentPoly.constant(value)
    return None


# ---------------------------------------------------------------------------
# display conventions


CONVENTIONS = ("rho", "t", "iz", "eynard")

_UNIT_SYMBOL = {"rho": "r0", "t": "T0", "iz": "(1-I1)", "eynard": "(2-t3)"}


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise RingError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


def convention_scale(convention: str, index: int) -> Fraction:
    """Scale ``s_l`` with ``r_l = s_l * v_l`` for the convention's variable ``v_l``."""
    _check_convention(convention)
    if index < 1:
        raise RingError("convention scales apply to variable indices >= 1")
    if convention == "rho":
        return _ONE
    if convention == "eynard":
        return Fraction(-1)
    return Fraction(-1, double_factorial(2 * index + 1))


# The symbol of variable ``l``: a prefix and ``a l + b``, as (prefix, a, b).
_VARIABLE_SYMBOL = {"rho": ("r", 1, 0), "t": ("t", 1, 1), "iz": ("I", 1, 1), "eynard": ("t", 2, 3)}


def unit_symbol(convention: str) -> str:
    _check_convention(convention)
    return _UNIT_SYMBOL[convention]


def convert(poly: MomentPoly, src: str, dst: str) -> MomentPoly:
    """Re-express a polynomial's coefficients from one convention to another."""
    _check_convention(src)
    _check_convention(dst)
    if src == dst:
        return poly
    keys = [_unpack(code) for code in poly.packed]
    width = max(map(len, keys), default=1)
    # x^e gains prod_l (ups[l] / downs[l])^e_l: one integer ratio per variable index
    ratios = [convention_scale(dst, l) / convention_scale(src, l) for l in range(1, width)]
    ups = [1] + [r.numerator for r in ratios]
    downs = [1] + [r.denominator for r in ratios]
    factors = []
    for key in keys:
        up = down = 1
        for l in range(1, len(key)):
            e = key[l]
            if e:
                up *= ups[l] ** e
                down *= downs[l] ** e
        factors.append((up, down))
    # each numerator times its factor, all over the lcm of the factors' denominators
    common = lcm(*(down for _, down in factors))
    nums = {code: n * up * (common // down)
            for (code, n), (up, down) in zip(poly.packed.items(), factors)}
    return MomentPoly._from_packed(nums, poly.den * common)


def _padded_sort_key(key: Key, width: int) -> tuple:
    padded = key + (0,) * (width - len(key))
    return (monomial_weight(key), padded)


def _ordered_nums(poly: MomentPoly) -> list[tuple[Key, int]]:
    nums = [(_unpack(code), n) for code, n in poly.packed.items()]
    width = max((len(key) for key, _ in nums), default=0)
    return sorted(nums, key=lambda kv: _padded_sort_key(kv[0], width))


def render_monomial(key: Key, convention: str = "rho") -> str:
    _check_convention(convention)
    e0 = key[0] if key else 0
    prefix, a, b = _VARIABLE_SYMBOL[convention]
    var_parts = [
        f"{prefix}{a * l + b}" + (f"^{e}" if e != 1 else "")
        for l, e in enumerate(key)
        if l and e
    ]
    unit = unit_symbol(convention)
    if convention == "rho":
        if e0:
            var_parts.insert(0, unit + (f"^{e0}" if e0 != 1 else ""))
        return "*".join(var_parts) if var_parts else "1"
    if e0 > 0:
        var_parts.append(unit + (f"^{e0}" if e0 != 1 else ""))
    numerator = "*".join(var_parts) if var_parts else "1"
    if e0 < 0:
        return f"{numerator}/{unit}" + (f"^{-e0}" if e0 != -1 else "")
    return numerator


def render_terms(
    poly: MomentPoly,
    convention: str = "rho",
    normalized: bool = False,
) -> list[tuple[str, str]]:
    """Ordered ``(monomial, value)`` string pairs.

    With ``normalized=True`` each value is multiplied by the product of the
    factorials of the variable exponents, the normalization in which the
    values of single-variable monomials are intersection numbers. The
    product is taken on the integer numerator, and each value becomes one
    ``Fraction`` over the polynomial's denominator.
    """
    out: list[tuple[str, str]] = []
    den = poly.den
    for key, n in _ordered_nums(poly):
        if normalized:
            for e in key[1:]:
                if e > 1:
                    n *= factorial(e)
        out.append((render_monomial(key, convention), format_rational(Fraction(n, den))))
    return out


def _joined(parts: Iterable[tuple[bool, str]]) -> str:
    """The signed sum of ``(negative, text without its sign)`` parts: ``a - b + c``, or ``0``."""
    pieces: list[str] = []
    for negative, text in parts:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(text)
    return "".join(pieces) if pieces else "0"


def _signed_terms(poly: MomentPoly, convention: str) -> Iterator[tuple[bool, str]]:
    den = poly.den
    for key, n in _ordered_nums(poly):
        mono = render_monomial(key, convention)
        value = format_rational(Fraction(abs(n), den))
        if mono == "1":
            yield n < 0, value
        elif value == "1":
            yield n < 0, mono
        else:
            yield n < 0, f"{value}*{mono}"


def render_str(poly: MomentPoly, convention: str = "rho") -> str:
    return _joined(_signed_terms(poly, convention))


# ---------------------------------------------------------------------------
# Laurent polynomials in boundary variables


ZKey = tuple[int, ...]


class ZLaurent:
    """Laurent polynomial in ``z_1 .. z_nvars`` with moment-polynomial coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[ZKey, object] | None = None,
    ) -> None:
        if nvars < 1:
            raise RingError("boundary objects need at least one variable")
        clean: dict[ZKey, MomentPoly] = {}
        if terms:
            for raw_key, raw_coeff in terms.items():
                key = tuple(raw_key)
                if len(key) != nvars:
                    raise RingError(f"exponent key {key} does not have {nvars} entries")
                if not all(isinstance(e, int) for e in key):
                    raise RingError(f"exponents must be integers: {key}")
                coeff = raw_coeff if isinstance(raw_coeff, MomentPoly) else MomentPoly.constant(raw_coeff)  # type: ignore[arg-type]
                if coeff.is_zero:
                    continue
                prev = clean.get(key)
                if prev is None:
                    clean[key] = coeff
                else:
                    total = prev + coeff
                    if total.is_zero:
                        del clean[key]
                    else:
                        clean[key] = total
        self.nvars = nvars
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZLaurent):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def scale(self, factor: object) -> "ZLaurent":
        """Multiply every coefficient by a moment polynomial or scalar."""
        if not isinstance(factor, MomentPoly):
            factor = MomentPoly.constant(factor)
        out = ZLaurent(self.nvars)
        if factor.is_zero:
            return out
        terms: dict[ZKey, MomentPoly] = {}
        for key, coeff in self.terms.items():
            val = coeff * factor
            if not val.is_zero:
                terms[key] = val
        out.terms = terms
        return out

    def map_coefficients(self, fn: Callable[[MomentPoly], MomentPoly]) -> "ZLaurent":
        out = ZLaurent(self.nvars)
        terms: dict[ZKey, MomentPoly] = {}
        for key, coeff in self.terms.items():
            val = fn(coeff)
            if not val.is_zero:
                terms[key] = val
        out.terms = terms
        return out

    def __str__(self) -> str:
        return render_z(self)

    def __repr__(self) -> str:
        return f"ZLaurent({render_z(self)})"


def _is_exact(values: Iterable[object]) -> bool:
    return all(type(v) is int or type(v) is Fraction for v in values)


def _power_tables(
    ranges: Sequence[Sequence[int]], values: Sequence[Fraction | int]
) -> tuple[list[list[int]], list[int], Fraction]:
    """Integer power tables of exact values, one per exponent range ``(lo, hi)``.

    For ``value = p/q``, entry ``e - lo`` is ``p^(e-lo) q^(hi-e)``, that is
    ``value^e`` times ``q^hi / p^lo``. Products of entries are integers; the
    returned scale, the product of the ``p^lo / q^hi``, undoes the extra
    factors.
    """
    tables: list[list[int]] = []
    lows: list[int] = []
    scale = Fraction(1)
    for (lo, hi), value in zip(ranges, values):
        p, q = value.numerator, value.denominator
        tables.append([p ** j * q ** (hi - lo - j) for j in range(hi - lo + 1)])
        lows.append(lo)
        scale *= Fraction(value) ** lo / Fraction(q) ** (hi - lo)
    return tables, lows, scale


def _bind_exact(
    terms: Mapping[ZKey, MomentPoly], moments: Mapping[int, Fraction | int]
) -> tuple[dict[ZKey, int], Fraction]:
    """Coefficients at exact moment values, as integers ``n_k`` and one common scale.

    The coefficient of ``z^k`` is ``n_k * scale``; zero coefficients are left
    out. Each moment gets one power table across all coefficients, and the
    numerators are taken over the lcm of the coefficients' denominators.
    """
    den = lcm(*(poly.den for poly in terms.values()))
    # each coefficient's terms with their exponent tuples, read once
    unpacked = [(zkey, den // poly.den, [(_unpack(code), n) for code, n in poly.packed.items()])
                for zkey, poly in terms.items()]
    width = max((len(key) for _, _, nums in unpacked for key, _ in nums), default=0)
    # every range holds 0, the exponent of the variables past the end of a key
    ranges = [[0, 0] for _ in range(width)]
    for _, _, nums in unpacked:
        for key, _ in nums:
            for r, e in zip(ranges, key):
                if e < r[0]:
                    r[0] = e
                elif e > r[1]:
                    r[1] = e
    values: list[Fraction | int] = []
    for l, (lo, hi) in enumerate(ranges):
        if lo == hi == 0:
            values.append(0)  # the table of a variable that does not occur is [1]
            continue
        if l not in moments:
            raise UnknownVariable(f"no value bound for variable index {l}")
        if lo < 0 and not moments[l]:
            raise NonUnitSubstitution("the unit must be bound to a nonzero value")
        values.append(moments[l])
    tables, lows, scale = _power_tables(ranges, values)
    # tails[n]: the entries of the zero exponents past the end of a key of length n
    tails = [1] * (width + 1)
    for l in range(width - 1, -1, -1):
        tails[l] = tails[l + 1] * tables[l][-lows[l]]
    out: dict[ZKey, int] = {}
    for zkey, mult, nums in unpacked:
        total = 0
        for key, n in nums:
            n *= mult * tails[len(key)]
            for table, e, lo in zip(tables, key, lows):
                n *= table[e - lo]
            total += n
        if total:
            out[zkey] = total
    return out, scale / den


def render_z(obj: ZLaurent, convention: str = "rho") -> str:
    # keys may share one coefficient object; each such object is rendered once,
    # and each part ``z{i+1}^{e}`` of a key is built once, keyed by ``(i, e)``
    rendered: dict[int, tuple[bool, str]] = {}
    names: dict[tuple[int, int], str] = {}

    def parts() -> Iterator[tuple[bool, str]]:
        for key in sorted(obj.terms, reverse=True):
            coeff = obj.terms[key]
            zparts = []
            for i, e in enumerate(key):
                if e:
                    name = names.get((i, e))
                    if name is None:
                        name = names[i, e] = f"z{i + 1}" + (f"^{e}" if e != 1 else "")
                    zparts.append(name)
            zmono = "*".join(zparts)
            signed = rendered.get(id(coeff))
            if signed is None:
                cstr = render_str(coeff, convention)
                if len(coeff.packed) > 1:
                    signed = (False, f"({cstr})")
                elif cstr.startswith("-"):
                    signed = (True, cstr[1:])
                else:
                    signed = (False, cstr)
                rendered[id(coeff)] = signed
            negative, cstr = signed
            yield negative, f"{cstr}*{zmono}" if zmono else cstr

    return _joined(parts())


# ---------------------------------------------------------------------------
# rational boundary objects


FactorKey = tuple[int, int, int]  # (i, j, sign): the factor (z_i + sign * z_j), i < j


class ZRational:
    """``num / prod (z_i +- z_j)^m``: a Laurent numerator over pair factors.

    ``den`` maps each factor key ``(i, j, sign)``, ``i < j``, to its power;
    a key out of that form or a negative power is an error, and a zero power
    is dropped. It is the record of the planar pair, which ``correlator(0,
    2)`` returns and the CLI prints; the runtime does no arithmetic on it,
    and ``==`` compares the numerators and the factors as stored, so a common
    factor of the two is not cancelled.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ZLaurent, den: Mapping[FactorKey, int] | None = None) -> None:
        self.num = num
        self.den = {}
        for (i, j, sign), power in (den or {}).items():
            if sign not in (1, -1) or not 0 <= i < j < num.nvars:
                raise RingError(f"pair factor {(i, j, sign)} is not (z_i +- z_j) with i < j < {num.nvars}")
            if power < 0:
                raise RingError("denominator powers must be nonnegative")
            if power:
                self.den[i, j, sign] = power

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZRational):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __str__(self) -> str:
        den = "*".join(
            f"(z{i + 1}{'+' if s == 1 else '-'}z{j + 1})" + (f"^{m}" if m != 1 else "")
            for (i, j, s), m in sorted(self.den.items())
        )
        return f"({self.num}) / ({den})" if den else str(self.num)

    def __repr__(self) -> str:
        return f"ZRational({self})"
