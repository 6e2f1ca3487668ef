"""Test-side references: a Fraction-coefficient ring, Bell forms and the operator's blocks.

Nothing here is used by the package. ``RefPoly`` is the ring the package
stored before it kept integer numerators: one Fraction per coefficient, with
the same key order rules. ``partial``, ``partial_moment``, ``moment_support``
and ``weight`` are the moment calculus the references and the tests build
on; the runtime has none of them. ``add``, ``sub``, ``mul``, ``shift``, ``dz``,
``identify``, ``embed``, ``widen``, ``divide_by_factor`` and ``kernel_op``
are the algebra of boundary objects (``ZLaurent``, and ``ZRational`` as a
numerator over pair factors), which the runtime does not have either: its
kernel operator is ``recursion._kernel_rows``, on integer numerators.
``dse_terms_by_rationals`` sums the multi-boundary loop equation's pieces in
it, the reference for the runtime's integer pieces. The Bell forms are the
independent closed forms the runtime's series recurrences are compared
against. The series
divisions for ``R_m`` and ``R^t_m``, each written in its own variables, are the
references for the runtime's ``R_m`` and for the ``R^t_m`` it derives by
``convert``. ``OPERATOR_BLOCKS`` holds the Laplacian's blocks built in ring
arithmetic, each form written out in its own variables. The moment-form
blocks are the reference for the values and the key order of the kernel's
pieces. ``apply_blocks`` applies one form's blocks in ring arithmetic; on
the ``t`` blocks it is the reference for the runtime's ``Delta_t``, which is
the moment form conjugated by ``convert``. ``ungrouped_apply`` is the
operator kernel before its products were grouped by row: the reference for
the grouped kernel's numerators, denominator and key order.
``ring_free_energies`` is the logarithm recurrence that extracts ``F_g`` from
the ``Z_g``, one ``MomentPoly`` product and sum per term: the reference for
the packed extraction's numerators, denominator and key order. The validation
operators written as sums of ring products (the residue inversion through
the reciprocal-series coefficients ``S_j``, the one-boundary recursion and
the constraint operators' parts ``A_n`` and ``B_n``) are the references for
the runtime's one-accumulator kernels. ``multipass_create`` is boundary
creation in ring arithmetic and ``annihilate`` its lowering map, the pair
whose composition is the grading; ``reduce`` cancels the pair factors that
divide a rational object's numerator (by ``_synthetic_divide`` on the
``collect``ed columns), which turns the created planar pair into
``G_{0,3}/8``. ``create_from_gradient`` is the one-boundary creation of a
free energy given by its gradient, which is how ``genus_one_gradient``
gives ``F_1 = -log(r0) / 24`` in a ring without a log term; 16 times its
image is ``G_{1,1}``. ``correlator_by_create`` is the correlator
chain in full form, one ``multipass_create`` per boundary with every ``z``
key built on its own; ``full_form_values`` evaluates a full-form object term
by term and ``grouped_by_full_form`` adds the grouped weights: the references
for the chain and the evaluation on orbits. ``arrangements_by_orbit`` walks one orbit's
arrangements with a memo of its own and ``correlator_keys_by_orbit`` lists
the written-out keys orbit by orbit with it: the references for the shared
arranger's key order. ``render_z_by_key`` joins every key's ``z`` parts on
its own: the reference for ``render_z``'s bytes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product, zip_longest
from math import factorial, lcm
from typing import Callable, Iterable, Mapping, Sequence

from taulap.bell import resolvent_coefficient
from taulap.boundary import _orbits, correlator, planar_pair
from taulap.laplacian import _OperatorTables, stable_partition
from taulap.recursion import UnsupportedExponent
from taulap.ring import (
    _SLOT_BITS,
    CoincidentPoints,
    FactorKey,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    ZRational,
    _add_bounds,
    _bind_exact,
    _check_slots,
    _code,
    _is_exact,
    _joined,
    _power_tables,
    _unpack,
    convention_scale,
    double_factorial,
    monomial_weight,
    render_str,
)

F = Fraction
Key = tuple[int, ...]


def _trim(key: Iterable[int]) -> Key:
    key = tuple(key)
    end = len(key)
    while end and key[end - 1] == 0:
        end -= 1
    return key[:end]


def _addkey(a: Key, b: Key) -> Key:
    if not a:
        return b
    if not b:
        return a
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


class RefPoly:
    """``terms``: key -> nonzero Fraction, in insertion order."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction]) -> None:
        self.terms = terms

    @classmethod
    def of(cls, p: MomentPoly) -> "RefPoly":
        return cls(p.terms)

    def _is_constant(self) -> bool:
        return all(not k for k in self.terms)

    def __neg__(self) -> "RefPoly":
        return RefPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "RefPoly") -> "RefPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = coeff
            else:
                total = prev + coeff
                if total:
                    terms[key] = total
                else:
                    del terms[key]
        return RefPoly(terms)

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def scale(self, factor: object) -> "RefPoly":
        factor = Fraction(factor)  # type: ignore[arg-type]
        if not factor:
            return RefPoly({})
        return RefPoly({k: c * factor for k, c in self.terms.items()})

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        if other._is_constant():
            return self.scale(other.terms.get((), Fraction(0)))
        if self._is_constant():
            return other.scale(self.terms.get((), Fraction(0)))
        acc: dict[Key, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = _addkey(ka, kb)
                prev = acc.get(k)
                acc[k] = ca * cb if prev is None else prev + ca * cb
        return RefPoly({k: c for k, c in acc.items() if c})

    def partial(self, index: int) -> "RefPoly":
        terms: dict[Key, Fraction] = {}
        for key, coeff in self.terms.items():
            e = key[index] if index < len(key) else 0
            if not e:
                continue
            new = _trim(key[:index] + (e - 1,) + key[index + 1:])
            prev = terms.get(new)
            terms[new] = coeff * e if prev is None else prev + coeff * e
        return RefPoly({k: c for k, c in terms.items() if c})

    def convert(self, src: str, dst: str) -> "RefPoly":
        if src == dst:
            return self
        terms: dict[Key, Fraction] = {}
        for key, coeff in self.terms.items():
            factor = Fraction(1)
            for l, e in enumerate(key):
                if l and e:
                    factor *= (convention_scale(dst, l) / convention_scale(src, l)) ** e
            terms[key] = coeff * factor
        return RefPoly(terms)

    def substitute(self, values: dict[int, object]) -> object:
        """Term by term from each Fraction coefficient, summed in insertion order."""
        total: object = None
        for key, coeff in self.terms.items():
            part: object = coeff
            for l, e in enumerate(key):
                if e:
                    part = part * values[l] ** e
            total = part if total is None else total + part
        return Fraction(0) if total is None else total


# -- the moment calculus the references build on --------------------------------
#
# The runtime never differentiates a whole polynomial or asks for its support
# or its weight: its kernels take derivatives term by term in integers. These
# are those operations on ``MomentPoly`` and the boundary objects, written out.


def partial(p: MomentPoly, index: int) -> MomentPoly:
    """The partial derivative in variable ``index`` (0 = unit); keys keep their order."""
    nums: dict[Key, int] = {}
    for key, n in p.nums.items():
        e = key[index] if index < len(key) else 0
        if e:
            nums[_trim(key[:index] + (e - 1,) + key[index + 1:])] = n * e
    return MomentPoly.from_numerators(nums, p.den)


def partial_moment(obj: ZLaurent | ZRational, index: int) -> ZLaurent | ZRational:
    """``partial`` on every coefficient (of the numerator, for a rational object)."""
    if isinstance(obj, ZRational):
        return ZRational(partial_moment(obj.num, index), dict(obj.den))
    return obj.map_coefficients(lambda c: partial(c, index))


def moment_support(obj: MomentPoly | ZLaurent | ZRational) -> set[int]:
    """The variable indices (0 = unit) on which ``obj`` genuinely depends."""
    if isinstance(obj, ZRational):
        obj = obj.num
    polys = obj.terms.values() if isinstance(obj, ZLaurent) else [obj]
    return {l for poly in polys for key in poly.nums for l, e in enumerate(key) if e}


def weights(p: MomentPoly) -> set[int]:
    """The weights ``sum_{k>=1} k e_k`` of the terms of ``p``."""
    return {monomial_weight(key) for key in p.nums}


def weight(p: MomentPoly) -> int:
    """The common weight of the terms of ``p``, 0 for zero; ``ValueError`` if they differ."""
    ws = weights(p)
    if len(ws) > 1:
        raise ValueError(f"mixed weights {sorted(ws)}")
    return ws.pop() if ws else 0


# -- the boundary-object algebra the references build on -------------------------
#
# The runtime never adds, multiplies, differentiates or re-embeds whole boundary
# objects: creation and evaluation run on orbits, and the loop-equation
# residuals on integer numerators. These are those operations on ``ZLaurent``
# and on ``ZRational``, written out. An operation with a rational operand gives
# a rational result whose pair factors are never cancelled (``reduce`` does
# that); keys keep the order of first appearance, and cancelled ones are dropped.


def _laurent(nvars: int, terms: dict[ZKey, MomentPoly]) -> ZLaurent:
    out = ZLaurent(nvars)
    out.terms = terms
    return out


def _factor_key(i: int, j: int, sign: int) -> tuple[FactorKey, int]:
    """Normalized factor key and the numerator sign flip it costs."""
    if sign not in (1, -1):
        raise RingError("factor sign must be +1 or -1")
    if i == j:
        raise RingError("pair factors need two distinct variables")
    if i < j:
        return (i, j, sign), 1
    # (z_i + z_j) is symmetric; (z_i - z_j) = -(z_j - z_i)
    return (j, i, sign), (1 if sign == 1 else -1)


def rational(num: ZLaurent, den: Mapping[FactorKey, int] | None = None) -> ZRational:
    """``num / prod (z_i + s z_j)^m`` with every factor key put in the order ``i < j``.

    A reversed difference ``(z_j - z_i)`` to an odd power flips the numerator's sign.
    """
    clean: dict[FactorKey, int] = {}
    for raw, power in (den or {}).items():
        if power < 0:
            raise RingError("denominator powers must be nonnegative")
        if not power:
            continue
        key, flip = _factor_key(*raw)
        if flip < 0 and power % 2:
            num = neg(num)
        if key[1] >= num.nvars:
            raise RingError("denominator variable out of range")
        clean[key] = clean.get(key, 0) + power
    return ZRational(num, clean)


def _as_rational(obj: ZLaurent | ZRational) -> ZRational:
    return obj if isinstance(obj, ZRational) else ZRational(obj)


def _same_space(a: ZLaurent | ZRational, b: ZLaurent | ZRational) -> None:
    if a.nvars != b.nvars:
        raise RingError(f"variable count mismatch: {a.nvars} vs {b.nvars}")


def neg(obj: ZLaurent | ZRational) -> ZLaurent | ZRational:
    if isinstance(obj, ZRational):
        return ZRational(neg(obj.num), obj.den)
    return _laurent(obj.nvars, {k: -c for k, c in obj.terms.items()})


def scale(obj: ZLaurent | ZRational, factor: object) -> ZLaurent | ZRational:
    """Every coefficient (of the numerator) times a moment polynomial or a scalar."""
    if isinstance(obj, ZRational):
        return ZRational(obj.num.scale(factor), obj.den)
    return obj.scale(factor)


def add(a: ZLaurent | ZRational, b: ZLaurent | ZRational) -> ZLaurent | ZRational:
    """The sum; rational operands are taken over the highest power of each factor."""
    _same_space(a, b)
    if isinstance(a, ZRational) or isinstance(b, ZRational):
        a, b = _as_rational(a), _as_rational(b)
        den = dict(a.den)
        for factor, power in b.den.items():
            den[factor] = max(den.get(factor, 0), power)
        return ZRational(add(widen(a, den), widen(b, den)), den)
    terms = dict(a.terms)
    for key, coeff in b.terms.items():
        prev = terms.get(key)
        if prev is None:
            terms[key] = coeff
        else:
            total = prev + coeff
            if total.is_zero:
                del terms[key]
            else:
                terms[key] = total
    return _laurent(a.nvars, terms)


def sub(a: ZLaurent | ZRational, b: ZLaurent | ZRational) -> ZLaurent | ZRational:
    return add(a, neg(b))


def mul(a: ZLaurent | ZRational, b: ZLaurent | ZRational) -> ZLaurent | ZRational:
    """The product; the factors of rational operands multiply."""
    _same_space(a, b)
    if isinstance(a, ZRational) or isinstance(b, ZRational):
        a, b = _as_rational(a), _as_rational(b)
        den = dict(a.den)
        for factor, power in b.den.items():
            den[factor] = den.get(factor, 0) + power
        return ZRational(mul(a.num, b.num), den)
    acc: dict[ZKey, MomentPoly] = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            val = ca * cb
            prev = acc.get(key)
            acc[key] = val if prev is None else prev + val
    return _laurent(a.nvars, {k: c for k, c in acc.items() if not c.is_zero})


def shift(obj: ZLaurent | ZRational, var: int, amount: int) -> ZLaurent | ZRational:
    """Multiply by ``z_var ** amount``."""
    if isinstance(obj, ZRational):
        return ZRational(shift(obj.num, var, amount), obj.den)
    return _laurent(obj.nvars, {
        k[:var] + (k[var] + amount,) + k[var + 1:]: c for k, c in obj.terms.items()
    })


def times_factor(obj: ZLaurent, factor: FactorKey) -> ZLaurent:
    """``obj`` times ``(z_i + sign z_j)``."""
    i, j, sign = factor
    return add(shift(obj, i, 1), shift(obj, j, 1) if sign == 1 else neg(shift(obj, j, 1)))


def widen(obj: ZRational, den: Mapping[FactorKey, int]) -> ZLaurent:
    """The numerator of ``obj`` re-expressed over the (larger) factors ``den``."""
    num = obj.num
    for factor, power in den.items():
        for _ in range(power - obj.den.get(factor, 0)):
            num = times_factor(num, factor)
    return num


def divide_by_factor(obj: ZRational, i: int, j: int, sign: int, power: int = 1) -> ZRational:
    """Multiply the denominator by ``(z_i + sign*z_j)^power``."""
    key, flip = _factor_key(i, j, sign)
    num = obj.num if flip > 0 or power % 2 == 0 else neg(obj.num)
    den = dict(obj.den)
    den[key] = den.get(key, 0) + power
    return ZRational(num, den)


def dz(obj: ZLaurent | ZRational, var: int) -> ZLaurent | ZRational:
    """Derivative in the boundary variable ``z_var`` (the quotient rule on a rational object)."""
    if isinstance(obj, ZRational):
        # every factor touching z_var gains one power
        touching = [(f, m) for f, m in obj.den.items() if var in (f[0], f[1])]
        den = dict(obj.den)
        for factor, power in touching:
            den[factor] = power + 1
        out = dz(obj.num, var)
        for factor, _ in touching:
            out = times_factor(out, factor)
        for factor, power in touching:
            # d(z_i + s z_j)/dz_var is 1 at i, s at j
            dfac = 1 if var == factor[0] else factor[2]
            piece = obj.num.scale(Fraction(-power * dfac))
            for other, _ in touching:
                if other != factor:
                    piece = times_factor(piece, other)
            out = add(out, piece)
        return ZRational(out, den)
    terms: dict[ZKey, MomentPoly] = {}
    for key, coeff in obj.terms.items():
        e = key[var]
        if not e:
            continue
        new = key[:var] + (e - 1,) + key[var + 1:]
        val = coeff.scale(e)
        prev = terms.get(new)
        if prev is not None:
            val = prev + val
        if val.is_zero:
            terms.pop(new, None)
        else:
            terms[new] = val
    return _laurent(obj.nvars, terms)


def identify(obj: ZLaurent, var: int, target: int) -> ZLaurent:
    """Substitute ``z_var := z_target`` and drop the slot of ``z_var``."""
    if var == target:
        raise RingError("identify needs two distinct variables")
    terms: dict[ZKey, MomentPoly] = {}
    for key, coeff in obj.terms.items():
        merged = list(key)
        merged[target] += merged[var]
        del merged[var]
        new = tuple(merged)
        prev = terms.get(new)
        terms[new] = coeff if prev is None else prev + coeff
    return _laurent(obj.nvars - 1, {k: c for k, c in terms.items() if not c.is_zero})


def kernel_op(obj: ZLaurent, var: int = 0) -> ZLaurent:
    """Kernel operator in one boundary variable, one ``MomentPoly`` product per term.

    ``z**-(3+2n)`` maps to ``sum_{k=0}^{n} r_k z**-(2n+2-2k)``; ``z**-1`` maps
    to ``1``; any other exponent is an error. The reference for
    ``recursion._kernel_rows``.
    """
    terms: dict[ZKey, MomentPoly] = {}

    def _add(key: ZKey, poly: MomentPoly) -> None:
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
    return _laurent(obj.nvars, terms)


def embed(obj: ZLaurent | ZRational, positions: Sequence[int], nvars: int) -> ZLaurent | ZRational:
    """Place variable ``k`` of ``obj`` at slot ``positions[k]`` of a larger space."""
    if isinstance(obj, ZRational):
        num = embed(obj.num, positions, nvars)
        den: dict[FactorKey, int] = {}
        for (i, j, sign), power in obj.den.items():
            key, flip = _factor_key(positions[i], positions[j], sign)
            if flip < 0 and power % 2:
                num = neg(num)
            den[key] = den.get(key, 0) + power
        return ZRational(num, den)
    if len(positions) != obj.nvars:
        raise RingError("embed needs one target position per variable")
    if len(set(positions)) != len(positions):
        raise RingError("embed positions must be distinct")
    if any(p < 0 or p >= nvars for p in positions):
        raise RingError("embed positions out of range")
    terms: dict[ZKey, MomentPoly] = {}
    for key, coeff in obj.terms.items():
        new = [0] * nvars
        for k, e in enumerate(key):
            new[positions[k]] = e
        terms[tuple(new)] = coeff
    return _laurent(nvars, terms)


class InsufficientArguments(RingError):
    """A Bell polynomial was asked for with too few arguments."""


def _partition_vectors(n: int, k: int):
    """Yield multiplicity vectors ``(j_1, ..., j_n)`` with sum k, weighted sum n."""

    def rec(remaining_n: int, remaining_k: int, part: int, acc: list[int]):
        if remaining_k == 0:
            if remaining_n == 0:
                yield list(acc)
            return
        if part > remaining_n or remaining_n > remaining_k * n:
            return
        max_count = min(remaining_k, remaining_n // part)
        for count in range(max_count + 1):
            acc.append(count)
            yield from rec(remaining_n - count * part, remaining_k - count, part + 1, acc)
            acc.pop()

    yield from rec(n, k, 1, [])


def bell(n: int, k: int, xs: Sequence[object]) -> object:
    """Partial exponential Bell polynomial ``B_{n,k}(x_1, ..., x_{n-k+1})``.

    Generic over any commutative ring element supporting ``+`` and ``*`` with
    integers; returns an int for empty sums so it composes with any ring.
    """
    if n < 0 or k < 0:
        raise RingError("Bell polynomial indices must be nonnegative")
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0 or k > n:
        return 0
    needed = n - k + 1
    if len(xs) < needed:
        raise InsufficientArguments(
            f"B_{{{n},{k}}} needs {needed} arguments, got {len(xs)}"
        )
    total: object = 0
    for counts in _partition_vectors(n, k):
        coeff = factorial(n)
        for i, j in enumerate(counts, start=1):
            if j:
                coeff //= factorial(j) * factorial(i) ** j
        term: object = Fraction(coeff)
        for i, j in enumerate(counts, start=1):
            for _ in range(j):
                term = term * xs[i - 1]
        total = total + term
    return total


def bell_route_free_energy(g: int, zs: dict[int, MomentPoly]) -> MomentPoly:
    """``F_g`` from ``Z_2..Z_g`` by the Bell form of ``log Z``.

    With ``n = g - 1`` and ``x_h = h! Z_{h+1}``::

        F_g = sum_{k=1}^{n} (-1)^(k+1) (k-1)! B_{n,k}(x_1, ..., x_n) / n!
    """
    n = g - 1
    xs = [zs[h + 1].scale(factorial(h)) for h in range(1, g)]
    total = MomentPoly.zero()
    for k in range(1, g):
        sign = 1 if k % 2 else -1
        total = total + bell(n, k, xs) * Fraction(sign * factorial(k - 1), factorial(n))
    return total


# -- R_m by series division in ring arithmetic -----------------------------------
#
# The runtime builds R_m in one integer accumulator and derives the rescaled
# R^t_m from it by ``convert``. These are the divisions written out term by
# term in ``MomentPoly`` arithmetic, each in its own variables: the references
# for the runtime's values and key order.


def _over_unit(index: int) -> MomentPoly:
    return MomentPoly.monomial((-1,) + (0,) * (index - 1) + (1,))


@lru_cache(maxsize=None)
def resolvent_by_division(m: int) -> MomentPoly:
    """``R_m`` from ``r0 R_m = r_m / (3+2m) - sum_k r_k R_{m-k}``, one ring sum per term."""
    if m == 0:
        return MomentPoly.constant(F(1, 3))
    out = _over_unit(m).scale(F(1, 3 + 2 * m))
    for k in range(1, m + 1):
        out = out - _over_unit(k) * resolvent_by_division(m - k)
    return out


@lru_cache(maxsize=None)
def rescaled_resolvent_by_division(m: int) -> MomentPoly:
    """``R^t_m = (2m-1)!! R_m`` by the division written in the rescaled variables.

    With ``r_l = -t_{l+1} / (2l+1)!!`` and slot ``l`` holding ``t_{l+1}``::

        T0 R_m = -(2m-1)!!/(2m+3)!! t_{m+1}
                 + sum_k (2m-1)!! / ((2k+1)!! (2m-2k-1)!!) t_{k+1} R_{m-k}
    """
    if m == 0:
        return MomentPoly.constant(F(1, 3))
    top = double_factorial(2 * m - 1)
    out = _over_unit(m).scale(F(-top, double_factorial(2 * m + 3)))
    for k in range(1, m + 1):
        scalar = F(top, double_factorial(2 * k + 1) * double_factorial(2 * (m - k) - 1))
        out = out + (_over_unit(k) * rescaled_resolvent_by_division(m - k)).scale(scalar)
    return out


# -- F_g by the logarithm recurrence in ring arithmetic ----------------------------


def ring_free_energies(zs: Mapping[int, MomentPoly], gmax: int) -> dict[int, MomentPoly]:
    """``F_2..F_gmax`` from ``m F_{m+1} = m Z_{m+1} - sum_k k F_{k+1} Z_{m-k+1}``.

    One ``MomentPoly`` sum and product per term: the reference for the
    values and the key order of the runtime's packed extraction.
    """
    fs: dict[int, MomentPoly] = {}
    for g in range(2, gmax + 1):
        m = g - 1
        acc = zs[g].scale(m)
        for k in range(1, m):
            acc = acc + fs[k + 1].scale(-k) * zs[m - k + 1]
        fs[g] = acc.scale(F(1, m))
    return fs


# -- the operator's blocks as MomentPoly sums ----------------------------------
#
# The runtime keeps each block as pieces over shared tables; these builders
# are the blocks written out in ring arithmetic, term for term in the order
# the operator states them, so their key order is the reference for the
# kernel's.


def c2_rho() -> MomentPoly:
    return MomentPoly({
        (-3, 3): F(-6, 5),
        (-2, 1, 1): F(111, 70),
        (-1, 0, 0, 1): F(-1, 2),
    })


def c1_rho() -> MomentPoly:
    return MomentPoly({
        (-4, 3): F(2),
        (-3, 1, 1): F(-1097, 280),
        (-2, 0, 0, 1): F(41, 24),
    })


def m_rho(k: int) -> MomentPoly:
    out = MomentPoly({(-3, 2): F(-2, 5), (-2, 0, 1): F(2, 7)}) * MomentPoly.variable(k + 1)
    out = out + resolvent_coefficient(k + 2) * MomentPoly({(-1, 1): F(-3, 2)})
    out = out + resolvent_coefficient(k + 3).scale(F(3, 2))
    return out


def d_rho(k: int, l: int) -> MomentPoly:
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


def e_rho(k: int) -> MomentPoly:
    out = MomentPoly({(-4, 2): F(19, 60), (-3, 0, 1): F(-25, 84)}) * MomentPoly.variable(k + 1)
    out = out + resolvent_coefficient(k + 2) * MomentPoly({(-2, 1): F(1, 16)})
    out = out + resolvent_coefficient(k + 3) * MomentPoly({(-1,): F(-1, 16)})
    out = out + MomentPoly.variable(k + 2) * MomentPoly({(-3, 1): F(-(5 + 2 * k), 30)})
    out = out + resolvent_coefficient(k + 3) * MomentPoly({(-1,): F(-(5 + 2 * k), 2)})
    return out


def c2_t() -> MomentPoly:
    return MomentPoly({
        (-3, 3): F(2, 45),
        (-2, 1, 1): F(37, 1050),
        (-1, 0, 0, 1): F(1, 210),
    })


def c1_t() -> MomentPoly:
    return MomentPoly({
        (-4, 3): F(2, 27),
        (-3, 1, 1): F(1097, 12600),
        (-2, 0, 0, 1): F(41, 2520),
    })


def m_t(j: int) -> MomentPoly:
    # displayed label k = j + 1
    out = MomentPoly({(-3, 2): F(2, 45), (-2, 0, 1): F(2, 105)}) * MomentPoly.variable(j + 1)
    out = out + rescaled_resolvent_by_division(j + 2) * MomentPoly({(-1, 1): F(1, 2)})
    out = out + rescaled_resolvent_by_division(j + 3).scale(F(3, 2 * (5 + 2 * j)))
    return out


def d_t(j: int, i: int) -> MomentPoly:
    # unit power forced by the scaling grading, as in the moment form
    out = (
        MomentPoly.variable(j + 1)
        * MomentPoly.variable(i + 1)
        * MomentPoly({(-3, 1): F(1, 90)})
    )
    out = out + MomentPoly.variable(j + 1) * rescaled_resolvent_by_division(i + 2) * MomentPoly({(-1,): F(1, 4)})
    out = out + MomentPoly.variable(i + 1) * rescaled_resolvent_by_division(j + 2) * MomentPoly({(-1,): F(1, 4)})
    out = out + rescaled_resolvent_by_division(j + i + 3).scale(
        F(double_factorial(3 + 2 * j) * double_factorial(3 + 2 * i),
          4 * double_factorial(5 + 2 * j + 2 * i))
    )
    return out


def e_t(j: int) -> MomentPoly:
    out = MomentPoly({(-4, 2): F(19, 540), (-3, 0, 1): F(5, 252)}) * MomentPoly.variable(j + 1)
    out = out + rescaled_resolvent_by_division(j + 2) * MomentPoly({(-2, 1): F(1, 48)})
    out = out + rescaled_resolvent_by_division(j + 3) * MomentPoly({(-1,): F(1, 16 * (5 + 2 * j))})
    out = out + MomentPoly.variable(j + 2) * MomentPoly({(-3, 1): F(1, 90)})
    out = out + rescaled_resolvent_by_division(j + 3) * MomentPoly({(-1,): F(1, 2)})
    return out


# Block name -> the builder and the integer scalar the block carries in each form.
OPERATOR_BLOCKS = {
    "rho": {
        "c1": lambda: (c1_rho(), -1),
        "c2": lambda: (c2_rho(), -1),
        "e": lambda k: (e_rho(k), -(3 + 2 * k)),
        "m": lambda k: (m_rho(k), -(3 + 2 * k)),
        "d": lambda k, l: (d_rho(k, l), -(3 + 2 * k) * (3 + 2 * l)),
    },
    "t": {
        "c1": lambda: (c1_t(), 1),
        "c2": lambda: (c2_t(), -1),
        "e": lambda j: (e_t(j), -1),
        "m": lambda j: (m_t(j), 1),
        "d": lambda j, i: (d_t(j, i), -1),
    },
}


def apply_blocks(p: MomentPoly, blocks: Mapping[str, Callable[..., tuple[MomentPoly, int]]]) -> MomentPoly:
    """The operator of one form of ``OPERATOR_BLOCKS`` applied in ring arithmetic.

    Each block, times its scalar, multiplies one derivative of ``p`` in the
    form's own variables (slot 0 is the unit): ``c1`` the first and ``c2``
    the second unit derivative, ``e_k`` the ``k``-th derivative, ``m_k`` its
    unit derivative, and ``d_{kl}`` the mixed second derivative, summed over
    ordered pairs ``(k, l)``.
    """
    width = max(map(len, p.nums), default=1)
    unit = partial(p, 0)
    # (block, its indices, the derivative it multiplies, multiplicity)
    jobs = [("c1", (), unit, 1), ("c2", (), partial(unit, 0), 1)]
    for k in range(1, width):
        dk = partial(p, k)
        jobs += [("e", (k,), dk, 1), ("m", (k,), partial(dk, 0), 1)]
        jobs += [("d", (k, l), partial(dk, l), 1 if k == l else 2) for l in range(k, width)]
    out = MomentPoly.zero()
    for name, indices, derivative, mult in jobs:
        if derivative:
            poly, scalar = blocks[name](*indices)
            out = out + poly.scale(scalar * mult) * derivative
    return out


# -- the operator kernel without grouping ---------------------------------------


def ungrouped_apply(p: MomentPoly, form: _OperatorTables) -> MomentPoly:
    """The operator applied by multiplying every listed key by every piece's whole table.

    This is the kernel's walk before its products were grouped by
    ``(table, shifted key)``: for each block, each listed derivative key and
    each piece, in that order, the piece's table is multiplied into the
    accumulator. The grouped kernel must give the same numerators,
    denominator and key order.
    """
    if p.is_zero:
        return MomentPoly.zero()
    bounds = p.bounds
    jobs: dict[tuple[object, ...], list[tuple[int, int]]] = {}

    def job(block: tuple[object, ...], code: int, mult: int) -> None:
        todo = jobs.get(block)
        if todo is None:
            jobs[block] = [(code, mult)]
        else:
            todo.append((code, mult))

    for key, n in p.nums.items():
        e0 = key[0] if key else 0
        code = _code(key)
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
    acc: dict[int, int] = {}
    get = acc.get
    for block, todo in jobs.items():
        # pieces name their shared table by its index in ``form.items``
        walk = [(num * (den_ops // den), offset, form.items[index])
                for den, num, offset, index in blocks[block][0]]
        for base, mult in todo:
            for scale, offset, items in walk:
                factor = scale * mult
                start = base + offset
                for s, c in items.items():
                    code = start + s
                    acc[code] = get(code, 0) + factor * c
    return MomentPoly.from_numerators(
        {_unpack(code): v for code, v in acc.items() if v}, p.den * den_ops)


# -- the validation operators as sums of ring products ---------------------------
#
# The runtime's residue inversion, one-boundary recursion and constraint
# operators sum integer numerators into one accumulator. These are the same
# operators written piece by piece in ``MomentPoly`` and ``ZLaurent``
# arithmetic: the references for their values.


@lru_cache(maxsize=None)
def reciprocal_by_division(m: int) -> MomentPoly:
    """``S_m`` from ``r0 S_m = -sum_k m!/(m-k)! r_k S_{m-k}``, one ring sum per term."""
    if m == 0:
        return MomentPoly.one()
    out = MomentPoly.zero()
    for k in range(1, m + 1):
        scalar = -(factorial(m) // factorial(m - k))
        out = out + (_over_unit(k) * reciprocal_by_division(m - k)).scale(scalar)
    return out


def residue_invert_by_reciprocals(obj: ZLaurent) -> ZLaurent:
    """``z**(-2k)`` to ``-(1/r0) sum_{j=0..k} S_j/j! z**-(2k-2j+2)``, term by term."""
    out = ZLaurent(1)
    inv_unit = MomentPoly.unit_power(-1)
    for (e,), coeff in obj.terms.items():
        k = -e // 2
        for j in range(k + 1):
            piece = (coeff * reciprocal_by_division(j) * inv_unit).scale(F(-1, factorial(j)))
            out = add(out, ZLaurent(1, {(-(2 * (k - j) + 2),): piece}))
    return out


def _coincident_pair_by_sums(stored: ZLaurent) -> ZLaurent:
    out = ZLaurent(1)
    support = moment_support(stored)
    for l in range(0, (max(support) if support else -1) + 1):
        d = partial_moment(stored, l)
        if d.is_zero:
            continue
        ratio = MomentPoly.monomial((-1,) + (0,) * l + (1,), -(3 + 2 * l))
        out = add(out, shift(d.scale(ratio), 0, -3))
        out = add(out, shift(d.scale(3 + 2 * l), 0, -5 - 2 * l))
    out = add(out, shift(dz(stored, 0), 0, -4).scale(MomentPoly.unit_power(-1)))
    return out


@lru_cache(maxsize=None)
def pair_diagonal_by_sums(g: int) -> ZLaurent:
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    return _coincident_pair_by_sums(one_point_by_sums(g)).scale(4)


@lru_cache(maxsize=None)
def one_point_by_sums(g: int) -> ZLaurent:
    """``G_{g,1}`` by the residue recursion, with the right-hand side a ``ZLaurent`` sum."""
    rhs = pair_diagonal_by_sums(g - 1).scale(4)
    for h in range(1, g):
        rhs = add(rhs, mul(one_point_by_sums(h), one_point_by_sums(g - h)))
    return shift(residue_invert_by_reciprocals(shift(rhs, 0, 2)), 0, -1).scale(F(1, 2))


def raising_part_by_sums(n: int, p: MomentPoly) -> MomentPoly:
    """``A_n = sum_{j>=n} (3+2j)/2 rho_{j-n} d/d rho_j``, one ring product per index."""
    out = MomentPoly.zero()
    for j in sorted(moment_support(p)):
        if j < n:
            continue
        d = partial(p, j)
        if d.is_zero:
            continue
        out = out + (MomentPoly.variable(j - n) * d).scale(F(3 + 2 * j, 2))
    return out


def _quadratic_one(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    support = sorted(moment_support(p))
    for k in support:
        dk = partial(p, k)
        if dk.is_zero:
            continue
        for l in sorted(moment_support(dk) | {0}):
            dkl = partial(dk, l)
            if dkl.is_zero:
                continue
            coeff = (MomentPoly.monomial((-2,) + (0,) * k + (1,)) * MomentPoly.variable(l + 1)).scale(
                (3 + 2 * k) * (3 + 2 * l)
            )
            out = out + coeff * dkl
        linear = (MomentPoly.monomial((-3, 1), F(-13, 4)) * MomentPoly.variable(k + 1)
                  + MomentPoly.monomial((-2,) + (0,) * (k + 1) + (1,), 5 + 2 * k))
        out = out + (linear * dk).scale(3 + 2 * k)
    constant = (MomentPoly.monomial((-4, 1), F(49, 64)) * MomentPoly.variable(1)
                + MomentPoly.monomial((-3, 0, 1), F(-5, 8)))
    return out + constant * p


def _quadratic_two(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    for k in sorted(moment_support(p)):
        dk = partial(p, k)
        if dk.is_zero:
            continue
        dk0 = partial(dk, 0)
        if not dk0.is_zero:
            out = out + (MomentPoly.monomial((-1,) + (0,) * k + (1,)) * dk0).scale(-6 * (3 + 2 * k))
        if k >= 1:
            out = out + (MomentPoly.monomial((-2,) + (0,) * k + (1,)) * dk).scale(F(25 * (3 + 2 * k), 4))
    d0 = partial(p, 0)
    if not d0.is_zero:
        out = out + (MomentPoly.monomial((-2, 1)) * d0).scale(F(39, 2))
    return out + MomentPoly.monomial((-3, 1), F(-49, 32)) * p


def _quadratic_three(p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    d0 = partial(p, 0)
    if not d0.is_zero:
        d00 = partial(d0, 0)
        if not d00.is_zero:
            out = out + d00.scale(9)
        out = out + (MomentPoly.unit_power(-1) * d0).scale(F(-123, 4))
    for k in sorted(moment_support(p)):
        dk = partial(p, k)
        if dk.is_zero:
            continue
        dk1 = partial(dk, 1)
        if not dk1.is_zero:
            out = out + (MomentPoly.monomial((-1,) + (0,) * k + (1,)) * dk1).scale(-10 * (3 + 2 * k))
    d1 = partial(p, 1)
    if not d1.is_zero:
        out = out + (MomentPoly.monomial((-2, 1)) * d1).scale(F(5, 4))
    return out + MomentPoly.unit_power(-2).scale(F(105, 64)) * p


def _quadratic_high(n: int, p: MomentPoly) -> MomentPoly:
    out = MomentPoly.zero()
    for l in range(0, n - 2):
        dl = partial(p, l)
        if dl.is_zero:
            continue
        d2 = partial(dl, n - 3 - l)
        if not d2.is_zero:
            out = out + d2.scale((3 + 2 * l) * (2 * n - 2 * l - 3))
    dn2 = partial(p, n - 2)
    if not dn2.is_zero:
        for l in sorted(moment_support(dn2) | {0}):
            d2 = partial(dn2, l)
            if d2.is_zero:
                continue
            ratio = MomentPoly.monomial((-1,) + (0,) * l + (1,))
            out = out + (ratio * d2).scale(-2 * (3 + 2 * l) * (2 * n - 1))
        out = out + (MomentPoly.monomial((-2, 1)) * dn2).scale(F(2 * n - 1, 4))
    dn3 = partial(p, n - 3)
    if not dn3.is_zero:
        out = out + (MomentPoly.unit_power(-1) * dn3).scale(
            F(-(2 * n - 3) * (16 * n - 7), 4)
        )
    return out


def quadratic_part_by_sums(n: int, p: MomentPoly) -> MomentPoly:
    """``B_n`` as a sum of ring products over the derivatives of ``p``."""
    if n == 0:
        return MomentPoly.zero()
    if n == 1:
        return _quadratic_one(p)
    if n == 2:
        return _quadratic_two(p)
    if n == 3:
        return _quadratic_three(p)
    return _quadratic_high(n, p)


def constraint_residuals_by_sums(n: int, orders: Sequence[MomentPoly]) -> dict[int, MomentPoly]:
    """``r_k = A_n(c_k) + (1/4) B_n(c_{k-1})`` for every order ``c_k``."""
    out: dict[int, MomentPoly] = {}
    for k, c in enumerate(orders):
        r = raising_part_by_sums(n, c)
        if k >= 1:
            r = r + quadratic_part_by_sums(n, orders[k - 1]).scale(F(1, 4))
        out[k] = r
    return out


# ---------------------------------------------------------------------------
# the correlator chain in full form
#
# The creation operator built out of ring operations: one moment derivative and
# one boundary derivative at a time, each embedded, shifted, scaled and added as
# a whole object, on every z key of its input.


def _moment_indices(obj: MomentPoly | ZLaurent | ZRational) -> range:
    support = moment_support(obj)
    return range(0, (max(support) if support else -1) + 1)


def _ratio_coeff(l: int) -> MomentPoly:
    """``r_{l+1} / r_0`` as a moment polynomial."""
    return MomentPoly.monomial((-1,) + (0,) * l + (1,))


def collect(obj: ZLaurent, var: int) -> dict[int, ZLaurent]:
    """Group the terms of ``obj`` by the exponent of ``z_var``; values drop that variable."""
    if obj.nvars < 2:
        raise RingError("collect needs at least two variables; use terms directly")
    out: dict[int, ZLaurent] = {}
    for key, coeff in obj.terms.items():
        e = key[var]
        rest = key[:var] + key[var + 1:]
        bucket = out.get(e)
        if bucket is None:
            bucket = ZLaurent(obj.nvars - 1)
            out[e] = bucket
        prev = bucket.terms.get(rest)
        bucket.terms[rest] = coeff if prev is None else prev + coeff
    for e in list(out):
        out[e].terms = {k: c for k, c in out[e].terms.items() if not c.is_zero}
        if not out[e].terms:
            del out[e]
    return out


def _synthetic_divide(num: ZLaurent, factor: FactorKey) -> ZLaurent | None:
    """Exact quotient ``num / (z_i + sign*z_j)`` or ``None`` when not divisible."""
    i, j, sign = factor
    if num.is_zero:
        return num
    if num.nvars == 1:
        raise RingError("pair factors need at least two variables")
    by_exp = collect(num, i)
    lo = min(by_exp)
    hi = max(by_exp)
    # view as a polynomial of degree (hi - lo) in z_i; divide by (z_i - root),
    # root = -sign * z_j, which multiplies by z_j in the coefficient ring
    jj = j if j < i else j - 1  # slot of z_j once z_i is removed
    zero = ZLaurent(num.nvars - 1)
    quotient: dict[int, ZLaurent] = {}
    carry = zero
    for e in range(hi, lo, -1):
        carry = add(by_exp.get(e, zero), carry)
        quotient[e - 1] = carry
        # multiply by root for the next column: -sign * z_j
        carry = shift(carry, jj, 1).scale(Fraction(-sign))
    remainder = add(by_exp.get(lo, zero), carry)
    if not remainder.is_zero:
        return None
    out = ZLaurent(num.nvars)
    terms: dict[ZKey, MomentPoly] = {}
    for e, part in quotient.items():
        for rest, coeff in part.terms.items():
            terms[rest[:i] + (e,) + rest[i:]] = coeff
    out.terms = terms
    return out


def reduce(obj: ZRational) -> ZLaurent | ZRational:
    """Cancel the denominator factors of ``obj`` that divide its numerator exactly."""
    num = obj.num
    den: dict[FactorKey, int] = {}
    for factor, power in obj.den.items():
        remaining = power
        while remaining:
            quotient = _synthetic_divide(num, factor)
            if quotient is None:
                break
            num = quotient
            remaining -= 1
        if remaining:
            den[factor] = remaining
    if not den:
        return num
    return ZRational(num, den)


def create_from_gradient(gradient: Mapping[int, MomentPoly]) -> ZLaurent:
    """The one-boundary creation image of a free energy given by its gradient.

    ``gradient[l]`` is ``dF/dr_l``; each nonzero one adds ``-(3+2l) (r_{l+1} /
    r_0) dF/dr_l z^-3`` and ``(3+2l) dF/dr_l z^(-5-2l)``, for ascending ``l``.
    The gradient, not ``F`` itself, is what the genus-one energy ``-log(r0) /
    24`` gives in a ring without a log term: ``{0: -1 / (24 r0)}``.
    """
    acc: dict[tuple[int, ...], MomentPoly] = {}

    def _add(exp: int, poly: MomentPoly) -> None:
        prev = acc.get((exp,))
        total = poly if prev is None else prev + poly
        if total.is_zero:
            acc.pop((exp,), None)
        else:
            acc[(exp,)] = total

    for l in sorted(gradient):
        dp = gradient[l]
        if dp.is_zero:
            continue
        _add(-3, dp * _ratio_coeff(l).scale(-(3 + 2 * l)))
        _add(-5 - 2 * l, dp.scale(3 + 2 * l))
    out = ZLaurent(1)
    out.terms = acc
    return out


def genus_one_gradient() -> dict[int, MomentPoly]:
    """``dF_1/dr_l`` for ``F_1 = -log(r0) / 24``: only ``l = 0``, ``-1 / (24 r0)``."""
    return {0: MomentPoly.monomial((-1,), Fraction(-1, 24))}


def multipass_create(obj: MomentPoly | ZLaurent | ZRational) -> ZLaurent | ZRational:
    """Boundary creation, one more variable appended as the last slot, in ring arithmetic."""
    if isinstance(obj, MomentPoly):
        return create_from_gradient({l: partial(obj, l) for l in _moment_indices(obj)})
    # the z_new^-3 part is summed in the input's variables, then placed once
    n = obj.nvars
    positions = list(range(n))
    rational = isinstance(obj, ZRational)
    zero = ZRational(ZLaurent(n)) if rational else ZLaurent(n)
    low, euler = zero, zero
    highs = []
    for l in _moment_indices(obj):
        d = partial_moment(obj, l)
        if d.is_zero:
            continue
        low = add(low, scale(d, _ratio_coeff(l).scale(-(3 + 2 * l))))
        highs.append(shift(embed(scale(d, 3 + 2 * l), positions, n + 1), n, -5 - 2 * l))
    for i in range(n):
        deriv = dz(obj, i)
        if not deriv.is_zero:
            euler = add(euler, shift(deriv, i, -1))  # sum_i z_i^-1 dG/dz_i
    low = add(low, scale(euler, MomentPoly.unit_power(-1)))
    total = shift(embed(low, positions, n + 1), n, -3)
    for high in highs:
        total = add(total, high)
    return reduce(total) if rational else total


def annihilate(obj: ZLaurent) -> ZLaurent | MomentPoly:
    """Boundary removal acting on the last variable (the lowering map).

    Picks out the ``z**(-5-2l)`` coefficients; ``z**-3`` never contributes.
    """
    if not isinstance(obj, ZLaurent):
        raise RingError("boundary removal is defined on Laurent correlators")
    var = obj.nvars - 1
    terms: dict[ZKey, MomentPoly] = {}
    for key, coeff in obj.terms.items():
        e = key[var]
        if e > -5 or e % 2 == 0:
            continue
        piece = coeff * MomentPoly.variable((-e - 5) // 2).scale(Fraction(-1, -e - 2))
        prev = terms.get(key[:var])
        total = piece if prev is None else prev + piece
        if total.is_zero:
            terms.pop(key[:var], None)
        else:
            terms[key[:var]] = total
    if obj.nvars == 1:
        return terms.get((), MomentPoly.zero())
    out = ZLaurent(obj.nvars - 1)
    out.terms = terms
    return out


@lru_cache(maxsize=None)
def correlator_by_create(g: int, boundaries: int) -> ZLaurent | ZRational:
    """``G_{g,B}`` by one ``multipass_create`` per boundary, every ``z`` key on its own."""
    if g == 0 and boundaries == 2:
        return planar_pair()
    if (g, boundaries) == (1, 1):
        return create_from_gradient(genus_one_gradient()).scale(16)
    if boundaries == 1:
        return multipass_create(stable_partition().f(g)).scale(2 ** (4 * g))
    step = 4 if boundaries == 2 else 8
    return scale(multipass_create(correlator_by_create(g, boundaries - 1)), step)


def full_form_values(
    obj: ZLaurent | ZRational, point_sets: Sequence[Sequence[object]], moments: Mapping[int, object]
) -> list[object]:
    """A full-form object's values at several point tuples, term by term.

    A zero point under a negative exponent is a pole, found before the
    moments are bound. With exact points and moments the coefficients are
    bound once, in integers (``_bind_exact``), and each value is one integer
    sum over the points' power tables (``_power_tables``); otherwise each
    coefficient is substituted and the terms are summed in floats, in the
    order of ``terms``. A rational object divides its numerator's value by
    each pair factor; a factor that vanishes is a pole.
    """
    rational = isinstance(obj, ZRational)
    num = obj.num if rational else obj
    for points in point_sets:
        if len(points) != num.nvars:
            raise RingError(f"expected {num.nvars} points, got {len(points)}")
        if any(e < 0 and not z for key in num.terms for z, e in zip(points, key)):
            raise CoincidentPoints("evaluation at z = 0 hits a pole")
    exact = _is_exact(moments.values()) and all(_is_exact(points) for points in point_sets)
    if exact:
        ints, scale = _bind_exact(num.terms, moments)
        ranges = [(min(column), max(column)) for column in zip(*ints)]
    values: list[object] = []
    for points in point_sets:
        value: object = Fraction(0)
        if exact:
            tables, lows, factor = _power_tables(ranges, points)
            total = 0
            for key, n in ints.items():
                for table, e, lo in zip(tables, key, lows):
                    n *= table[e - lo]
                total += n
            value = scale * factor * total
        else:
            for i, (key, coeff) in enumerate(num.terms.items()):
                part = coeff.substitute(moments)
                for z, e in zip(points, key):
                    if e:
                        part = part * z**e
                value = part if not i else value + part
        for (i, j, sign), power in obj.den.items() if rational else ():
            base = points[i] + sign * points[j]
            if not base:
                raise CoincidentPoints(
                    f"evaluation point makes (z{i + 1} {'+' if sign == 1 else '-'} z{j + 1}) vanish"
                )
            value = value / base**power
        values.append(value)
    return values


def evaluate_full(
    obj: ZLaurent | ZRational, points: Sequence[object], moments: Mapping[int, object]
) -> object:
    """A full-form object's value at one point tuple (``full_form_values``)."""
    return full_form_values(obj, [points], moments)[0]


def grouped_by_full_form(
    g: int, groups: Sequence[Sequence[object]], moments: Mapping[int, object]
) -> object:
    """The grouped n-point value, term by term on the full form (unit coupling)."""
    B = len(groups)
    choices = list(product(*[range(len(grp)) for grp in groups]))
    values = full_form_values(
        correlator_by_create(g, B), [[groups[b][choice[b]] for b in range(B)] for choice in choices],
        moments,
    )
    total: object = 0
    for choice, value in zip(choices, values):
        for b, grp in enumerate(groups):
            zk = grp[choice[b]]
            for li, zl in enumerate(grp):
                if li != choice[b]:
                    value = value * 2 / (zk * zk - zl * zl)
        total = total + value
    return total


# ---------------------------------------------------------------------------
# the multi-boundary loop equation in rational arithmetic


def dse_terms_by_rationals(g: int, boundaries: int) -> dict[str, ZRational]:
    """The pieces of the multi-boundary loop equation, each one rational object.

    Every stored correlator is placed by ``embed``, then multiplied, divided
    and summed as a whole rational object; a sum is taken over the highest
    power of each pair factor its terms have. The reference for
    ``recursion.dse_terms``. With ``z_0`` the main variable and ``z_1 ..
    z_{B-1}`` the spectators, the pieces are

    * ``kernel``: ``kernel_op`` of ``G_{g,B}`` in ``z_0``;
    * ``handle``: ``G_{g-1,B+1}`` with ``z_B = z_0``;
    * ``split``: ``G_{h,1+|I|}(z_0, z_I) G_{g-h,B-|I|}(z_0, z_rest)`` over every
      ``h`` and every spectator subset ``I`` that leaves some out;
    * ``dressing``: ``G_{h,1}(z_0) G_{g-h,B}`` for ``h >= 1``;
    * ``reflection``: ``2^(3 - [B = 2])`` times the sum over spectators ``beta``
      of ``z_beta^-1 d/dz_beta`` of ``(G_{g,B-1}(z_0, z_rest) - G_{g,B-1}(z_beta,
      z_rest)) / ((z_0 - z_beta)(z_0 + z_beta))``.
    """
    B = boundaries
    spectators = list(range(1, B))

    def placed(h: int, positions: Sequence[int]) -> ZRational:
        return embed(_as_rational(correlator(h, len(positions))), positions, B)

    def total(parts: Iterable[ZRational]) -> ZRational | None:
        out = None
        for part in parts:
            out = part if out is None else add(out, part)
        return out

    out = {"kernel": ZRational(kernel_op(correlator(g, B), 0))}
    if g >= 1:
        out["handle"] = ZRational(identify(correlator(g - 1, B + 1), B, 0))
    split = total(
        mul(placed(h, [0, *chosen]), placed(g - h, [0, *(j for j in spectators if j not in chosen)]))
        for h in range(g + 1) for size in range(1, B - 1) for chosen in combinations(spectators, size))
    if split is not None:
        out["split"] = split
    dressing = total(mul(placed(h, [0]), placed(g - h, range(B))) for h in range(1, g + 1))
    if dressing is not None:
        out["dressing"] = dressing
    reflection = total(
        shift(dz(divide_by_factor(divide_by_factor(
            sub(placed(g, [0, *rest]), placed(g, [beta, *rest])), 0, beta, -1), 0, beta, 1), beta), beta, -1)
        for beta, rest in ((beta, [j for j in spectators if j != beta]) for beta in spectators))
    out["reflection"] = scale(reflection, 2 ** (3 - (B == 2)))
    return out


# ---------------------------------------------------------------------------
# the written-out correlator and its rendering, key by key


def arrangements_by_orbit(key: ZKey) -> list[ZKey]:
    """The distinct permutations of a sorted key, ascending, with one memo per key."""
    memo: dict[ZKey, list[ZKey]] = {}

    def walk(rest: ZKey) -> list[ZKey]:
        if len(rest) < 2:
            return [rest]
        got = memo.get(rest)
        if got is None:
            got = memo[rest] = []
            for j, e in enumerate(rest):
                if not j or rest[j - 1] != e:
                    got += [(e,) + tail for tail in walk(rest[:j] + rest[j + 1:])]
        return got

    return walk(key)


def correlator_keys_by_orbit(g: int, boundaries: int) -> list[ZKey]:
    """Every ``z`` key of ``G_{g,B}``: orbit by orbit, each orbit's arrangements ascending."""
    return [arr for key in _orbits(g, boundaries) for arr in arrangements_by_orbit(key)]


def render_z_by_key(obj: ZLaurent, convention: str = "rho") -> str:
    """``render_z`` with every key's ``z`` parts built and joined on their own."""
    rendered: dict[int, tuple[bool, str]] = {}

    def parts():
        for key in sorted(obj.terms, reverse=True):
            coeff = obj.terms[key]
            zmono = "*".join(
                f"z{i + 1}" + (f"^{e}" if e != 1 else "")
                for i, e in enumerate(key)
                if e
            )
            signed = rendered.get(id(coeff))
            if signed is None:
                cstr = render_str(coeff, convention)
                if len(coeff.nums) > 1:
                    signed = (False, f"({cstr})")
                elif cstr.startswith("-"):
                    signed = (True, cstr[1:])
                else:
                    signed = (False, cstr)
                rendered[id(coeff)] = signed
            negative, cstr = signed
            yield negative, f"{cstr}*{zmono}" if zmono else cstr

    return _joined(parts())
