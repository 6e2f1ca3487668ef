"""Independent residue recursion and loop-equation residual checks.

Two cross-validations of the boundary-correlator chain live here:

* an independent construction of the one-boundary correlators by a residue
  recursion (``one_point``), sharing no code path with the creation-operator
  chain in :mod:`taulap.boundary`;
* symbolic residuals of the loop equations (one-boundary and multi-boundary),
  which must vanish identically when evaluated on the stored correlators.

Every kernel here (the residue inversion, the coincident pair, the quadratic
right-hand side and both loop-equation residuals) takes each coefficient as
integer numerators over one common denominator and sums its terms into one
accumulator per ``z`` key, so no intermediate polynomial is built. The
moment keys are the ring's packed keys (``MomentPoly.packed``), read from
the stored coefficients and written into the results as they are: one int
per monomial, an 8-bit slot per variable. A product of monomials adds ints
(less one unit offset), ``d/dr_k`` subtracts ``2^(8 k)`` and ``r_l / r_0``
adds ``2^(8 l) - 1``. Only ``dse_terms`` returns exponent tuples, each key
unpacked once. Each kernel checks the exponent bounds of its inputs plus
the largest shift it applies before it forms a key, so ``SlotOverflow`` is
raised rather than a key wrapping. Both residuals take the loop equations' kernel operator from
``_kernel_rows``, which rejects a ``z_0`` power outside its domain.

The multi-boundary pieces also share one product of pair factors
``(z_i +- z_j)^m``, each factor at the highest power any piece has, and each
piece is its integer numerator over both. The residual is the sum of these
numerators, and the loop equation holds iff it has no terms: a symbolic zero
in the moments and the boundary variables alike.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from taulap.boundary import correlator, diagonal
from taulap.laplacian import GenusOutOfRange
from taulap.ring import (
    _SLOT_MASK,
    _UNIT_OFFSET,
    Bounds,
    FactorKey,
    Key,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    _add_bounds,
    _check_slots,
    _slot,
    _union_bounds,
    _unpack,
)

# integer numerators per packed moment key
Nums = dict[int, int]
# integer numerators per ``z`` key
Rows = dict[ZKey, Nums]
# ``(z key, numerators, multiplier)``: the coefficient at ``z**key`` is
# ``multiplier * numerators`` over the rows' common denominator
RowList = list[tuple[ZKey, Mapping[int, int], int]]
# integer numerators keyed by ``(z key, moment key)``
Numerators = dict[tuple[ZKey, Key], int]
# pair factors ``(z_i + s z_j)^m`` as ``{(i, j, s): m}`` with ``i < j``
Poles = dict[FactorKey, int]


class OddInput(RingError):
    """The residue inversion is defined on even exponents only."""


class UnboundedInput(RingError):
    """The residue inversion needs nonpositive exponents."""


class UnsupportedExponent(RingError):
    """The kernel operator is defined on odd negative powers only."""


class _Packed(NamedTuple):
    """An object's rows, numerators by packed moment key over one denominator.

    ``bounds`` are the exponent bounds of the moment keys, and ``poles`` the
    pair factors the rows are divided by (only the planar pair has any).
    """

    rows: RowList
    den: int
    bounds: Bounds
    poles: Poles


def _rows(obj: ZLaurent) -> _Packed:
    """The rows of an object: each coefficient's stored numerators, and a multiplier.

    Their common denominator is the lcm of the object's coefficients'.
    """
    coeffs = obj.terms
    den = lcm(*(c.den for c in coeffs.values()))
    rows = [(z, c.packed, den // c.den) for z, c in coeffs.items()]
    return _Packed(rows, den, _union_bounds([c.bounds for c in coeffs.values()]), {})


def _emit(acc: Rows, zkey: ZKey, nums: Mapping[int, int], f: int) -> None:
    """Add ``f * nums`` to the numerators of ``acc`` at ``zkey``."""
    col = acc.setdefault(zkey, {})
    get = col.get
    for key, n in nums.items():
        col[key] = get(key, 0) + f * n


def _product(acc: Rows, a: _Packed, b: _Packed, f: int) -> Bounds:
    """Add ``f`` times the product of two row lists to ``acc``; the bounds of the keys it reaches."""
    bounds = _add_bounds(a.bounds, b.bounds)
    _check_slots(bounds)
    for ka, nums_a, ma in a.rows:
        for kb, nums_b, mb in b.rows:
            col = acc.setdefault(tuple(map(add, ka, kb)), {})
            get = col.get
            fab = f * ma * mb
            items_b = nums_b.items()
            for key_a, na in nums_a.items():
                fa = fab * na
                base = key_a - _UNIT_OFFSET  # a product of packed keys carries one offset
                for key_b, nb in items_b:
                    key = base + key_b
                    col[key] = get(key, 0) + fa * nb
    return bounds


def _emit_rows(acc: Rows, packed: _Packed, f: int) -> Bounds:
    """Add ``f`` times a row list to ``acc``; the bounds of the keys it reaches."""
    for key, nums, mult in packed.rows:
        _emit(acc, key, nums, f * mult)
    return packed.bounds


def _kernel_rows(acc: Rows, packed: _Packed, f: int) -> Bounds:
    """Add ``f`` times the kernel operator in ``z_0`` of a row list to ``acc``.

    ``z_0**-(3+2n)`` maps to ``sum_{k=0}^{n} r_k z_0**-(2n+2-2k)``; ``z_0**-1``
    maps to ``1``; any other exponent is an error. Returns the bounds of the
    keys it reaches: one ``r_k`` raises one exponent by one.
    """
    low, high, top = packed.bounds
    bounds = low, high + 1, top + 1
    _check_slots(bounds)
    for key, nums, mult in packed.rows:
        e, rest = key[0], key[1:]
        fm = f * mult
        if e == -1:
            _emit(acc, (0,) + rest, nums, fm)
            continue
        if e > -3 or e % 2 == 0:
            raise UnsupportedExponent(f"kernel operator undefined on exponent {e} of z_0")
        n = (-e - 3) // 2
        for k in range(n + 1):
            r_k = _slot(k)
            col = acc.setdefault((-(2 * n + 2 - 2 * k),) + rest, {})
            get = col.get
            for key_m, v in nums.items():
                key_m += r_k
                col[key_m] = get(key_m, 0) + fm * v
    return bounds


# adds ``f`` times a row list to an accumulator and returns the bounds of the
# keys it reaches: ``_emit_rows`` or ``_kernel_rows``
Emitter = Callable[[Rows, _Packed, int], Bounds]


def _laurent(cols: Rows, den: int, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the one-variable object whose numerators over ``den`` are ``cols``."""
    terms = {}
    for (e,), nums in cols.items():
        poly = MomentPoly._from_packed(nums, den)
        if poly.packed:
            terms[(e + shift,)] = poly
    out = ZLaurent(1)
    out.terms = terms
    return out


def _divide(cols: Rows, den: int, bounds: Bounds, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the residue inversion of the object given by ``cols`` over ``den``.

    With the input ``sum_k c_k z**(-2k)``, the output coefficient of
    ``z**-(2m+2)`` is ``-g_m / r0``, where ``g_m = sum_j c_{m+j} S_j/j!``
    (``S_j`` the reciprocal-series coefficients). ``S_j/j!`` is the ``tau^j``
    coefficient of ``1 / (1 + sum_{l>=1} (r_l/r0) tau^l)``, so the ``g_m``
    solve ``g_m = c_m - sum_{l>=1} (r_l/r0) g_{m+l}``; they are taken from the
    top exponent down, each ``g_{m+l}`` multiplied by the single monomial
    ``r_l/r0``. ``bounds`` are those of the keys of ``cols``.
    """
    for (e,) in cols:
        if e % 2:
            raise OddInput(f"exponent {e} is odd")
        if e > 0:
            raise UnboundedInput(f"exponent {e} is positive")
    top = max((-e // 2 for (e,) in cols), default=-1)
    # A variable gains one per factor r_l/r0, at most ``top`` of them. The
    # unit loses one per factor, so its least exponent is followed: ``least``
    # bounds that of c_m and of g_{m+1}, g_{m+2}, ... times r_l/r0.
    least, high, vtop = bounds
    done: list[Nums] = []  # g_{top}, g_{top-1}, ..., g_{m+1}
    out: Rows = {}
    for m in range(top, -1, -1):
        _check_slots((least - 1, high, vtop + top))  # the output is over r0
        acc = dict(cols.get((-2 * m,), ()))
        get = acc.get
        for l, higher in enumerate(reversed(done), 1):
            ratio = _slot(l) - 1
            for key, n in higher.items():
                key += ratio
                acc[key] = get(key, 0) - n
        g = {key: n for key, n in acc.items() if n}
        if g:
            least = min(least, min(key & _SLOT_MASK for key in g) - _UNIT_OFFSET - 1)
        done.append(g)
        out[(-2 * m - 2,)] = {key - 1: -n for key, n in g.items()}
    return _laurent(out, den, shift)


# ---------------------------------------------------------------------------
# independent one-boundary chain


def _coincident_pair(stored: ZLaurent) -> ZLaurent:
    """Coincident-point image of the boundary creation acting on a one-variable object.

    A term ``c r^K z^e`` emits, for every moment index ``l`` with
    ``K[l] != 0`` and ``d = K[l] c r^K / r_l``, ``-(3+2l) (r_{l+1}/r_0) d z^(e-3)``
    and ``(3+2l) d z^(e-5-2l)``, and its ``z`` derivative ``e c (r^K/r_0) z^(e-5)``.
    The emitted keys lower the unit's exponent by at most two and raise a
    variable's by at most one.
    """
    coeffs = stored.terms
    low, high, top = _union_bounds([c.bounds for c in coeffs.values()])
    _check_slots((low - 2, high, top + 1))
    den = lcm(*(c.den for c in coeffs.values()))
    acc: Rows = {}
    for (e,), c in coeffs.items():
        mult = den // c.den
        raised = acc.setdefault((e - 3,), {})
        dz = acc.setdefault((e - 5,), {})
        for code, n in c.packed.items():
            n *= mult
            for l, k_l in enumerate(_unpack(code)):
                if k_l:
                    v = (3 + 2 * l) * k_l * n
                    lowered = code - _slot(l)
                    out = lowered + _slot(l + 1) - 1
                    raised[out] = raised.get(out, 0) - v
                    col = acc.setdefault((e - 5 - 2 * l,), {})
                    col[lowered] = col.get(lowered, 0) + v
            if e:
                dz[code - 1] = dz.get(code - 1, 0) + e * n
    return _laurent(acc, den)


@lru_cache(maxsize=None)
def pair_diagonal(g: int) -> ZLaurent:
    """Two-boundary correlator at coincident points, built recursion-locally."""
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    return _coincident_pair(one_point(g)).scale(4)


def _quadratic_sum(
    g: int, series: Callable[[int], ZLaurent], extra: Sequence[tuple[int, ZLaurent, Emitter]]
) -> tuple[Rows, int, Bounds]:
    """``sum_{h=1}^{g-1} series(h) series(g-h) + sum w * emit(obj)`` over ``(w, obj, emit)`` in ``extra``.

    The result is integer numerators per ``z`` key over one denominator, and
    the bounds of their keys. Each unordered pair ``{h, g-h}`` is multiplied
    once, with weight 2 (1 when ``h = g-h``).
    """
    pairs = [(2 - (2 * h == g), _rows(series(h)), _rows(series(g - h)))
             for h in range(1, g // 2 + 1)]
    singles = [(w, _rows(obj), emit) for w, obj, emit in extra]
    den = lcm(*(a.den * b.den for _, a, b in pairs), *(p.den for _, p, _ in singles))
    acc: Rows = {}
    reach = [emit(acc, p, w * (den // p.den)) for w, p, emit in singles]
    reach += [_product(acc, a, b, w * (den // (a.den * b.den))) for w, a, b in pairs]
    return acc, den, _union_bounds(reach)


@lru_cache(maxsize=None)
def one_point(g: int) -> ZLaurent:
    """One-boundary correlator of genus ``g`` from the quadratic residue recursion.

    ``G_{g,1}`` is ``z**-1 / 2`` times the residue inversion (``_divide``)
    of ``z**2 * rhs``, with ``rhs = 4 pair_diagonal(g-1) + sum_h G_{h,1}
    G_{g-h,1}``; the right-hand side is summed in one integer accumulator. Only ``==`` and ``is_zero``
    read the result, so its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the residue recursion starts at genus 1")
    rhs, den, bounds = _quadratic_sum(g, one_point, [(4, pair_diagonal(g - 1), _emit_rows)])
    return _divide({(e + 2,): nums for (e,), nums in rhs.items()}, 2 * den, bounds, -1)


def one_point_residual(g: int) -> ZLaurent:
    """Loop-equation residual on the stored one-boundary correlator; zero iff valid.

    ``K G_{g,1} + (1/2) sum_h G_{h,1} G_{g-h,1} + 2 diagonal(g-1)``, summed
    as twice itself in one integer accumulator; its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the one-boundary residual starts at genus 1")
    total, den, _ = _quadratic_sum(g, lambda h: correlator(h, 1), [
        (2, correlator(g, 1), _kernel_rows), (4, diagonal(g - 1), _emit_rows)])
    return _laurent(total, 2 * den)


# ---------------------------------------------------------------------------
# multi-boundary residual
#
# A piece is a sum of terms ``N / prod (z_i + s z_j)^m``. Each term's
# numerator ``N`` is kept as rows over the residual's common denominator, in
# one group per set of pair factors; the planar pair (as a factor of a
# product, or reflected at ``B = 3``) and the reflection bring them. Each
# group is then multiplied by the factors it lacks, and the pieces are read
# off over the common product.


def _placed(g: int, positions: Sequence[int], nvars: int) -> _Packed:
    """``G_{g,n}``, ``n = len(positions)``, with its variable ``k`` at slot ``positions[k]`` of ``nvars``."""
    n = len(positions)
    stored = correlator(g, n)
    poles: Poles = {}
    if (g, n) == (0, 2):
        # the planar pair; its one factor (z_0 + z_1) is symmetric, so no sign changes
        poles = {(min(positions[i], positions[j]), max(positions[i], positions[j]), s): m
                 for (i, j, s), m in stored.den.items()}
        stored = stored.num
    packed = _rows(stored)
    placed: RowList = []
    for key, nums, mult in packed.rows:
        z = [0] * nvars
        for p, e in zip(positions, key):
            z[p] = e
        placed.append((tuple(z), nums, mult))
    return packed._replace(rows=placed, poles=poles)


def _times_factor(rows: Rows, factor: FactorKey) -> Rows:
    """``rows`` times ``(z_i + s z_j)``: each row emitted shifted in ``z_i``, and times ``s`` in ``z_j``."""
    i, j, s = factor
    out: Rows = {}
    for key, nums in rows.items():
        _emit(out, key[:i] + (key[i] + 1,) + key[i + 1:], nums, 1)
        _emit(out, key[:j] + (key[j] + 1,) + key[j + 1:], nums, s)
    # what cancelled is dropped, so the next factor does not carry it
    kept: Rows = {}
    for key, col in out.items():
        col = {m: n for m, n in col.items() if n}
        if col:
            kept[key] = col
    return kept


def _times_factors(rows: Rows, factors: Iterable[FactorKey]) -> Rows:
    for factor in factors:
        rows = _times_factor(rows, factor)
    return rows


def _quotient_rule(rows: Rows, poles: Poles, var: int) -> tuple[Rows, Poles]:
    """``z_var^-1 d/dz_var`` of ``rows / prod f^m``, as its numerator and factors.

    Each factor ``t`` touching ``z_var`` gains one power; the numerator is
    ``N' prod_t t - sum_t m_t (dt/dz_var) N prod_{u != t} u``, times
    ``z_var^-1``.
    """
    touching = [f for f in poles if var in f[:2]]
    deriv: Rows = {}
    for key, nums in rows.items():
        e = key[var]
        if e:
            _emit(deriv, key[:var] + (e - 2,) + key[var + 1:], nums, e)
    out = _times_factors(deriv, touching)
    shifted = {key[:var] + (key[var] - 1,) + key[var + 1:]: nums for key, nums in rows.items()}
    for t in touching:
        slope = 1 if var == t[0] else t[2]  # d(z_i + s z_j)/dz_var
        for key, nums in _times_factors(shifted, [u for u in touching if u != t]).items():
            _emit(out, key, nums, -poles[t] * slope)
    return out, {f: m + (f in touching) for f, m in poles.items()}


def dse_terms(g: int, boundaries: int) -> tuple[dict[str, Numerators], int, Poles]:
    """Named pieces of the multi-boundary loop-equation residual (stored units).

    Returns ``(pieces, den, poles)``: the piece ``pieces[name]`` is the sum of
    ``n z^zkey x^mkey`` over its items ``(zkey, mkey): n``, divided by ``den``
    and by ``prod (z_i + s z_j)^m`` over ``poles = {(i, j, s): m}``, which
    holds each pair factor at the highest power any piece has.
    """
    B = boundaries
    if B < 2 or g < 0 or (g == 0 and B == 2):
        raise GenusOutOfRange(f"multi-boundary residual undefined for ({g}, {B})")
    spectators = list(range(1, B))
    everywhere = range(B)
    kernel = _placed(g, everywhere, B)
    handle = _placed(g - 1, range(B + 1), B + 1) if g else None
    products: list[tuple[str, _Packed, _Packed]] = []
    for h in range(g + 1):
        for size in range(1, B - 1):  # every spectator subset that leaves some out
            for chosen in combinations(spectators, size):
                rest = [j for j in spectators if j not in chosen]
                products.append(("split", _placed(h, [0, *chosen], B), _placed(g - h, [0, *rest], B)))
    for h in range(1, g + 1):
        products.append(("dressing", _placed(h, [0], B), _placed(g - h, everywhere, B)))
    mirrors = []
    for beta in spectators:
        rest = [j for j in spectators if j != beta]
        mirrors.append((beta, _placed(g, [0] + rest, B), _placed(g, [beta] + rest, B)))
    den = lcm(kernel.den, handle.den if handle else 1,
              *(a.den * b.den for _, a, b in products), *(main.den for _, main, _ in mirrors))

    groups: dict[str, dict[tuple[tuple[FactorKey, int], ...], Rows]] = {}

    def into(piece: str, poles: Poles) -> Rows:
        return groups.setdefault(piece, {}).setdefault(tuple(sorted(poles.items())), {})

    _kernel_rows(into("kernel", {}), kernel, den // kernel.den)
    if handle is not None:
        acc = into("handle", {})
        f = den // handle.den
        for key, nums, mult in handle.rows:  # z_B identified with z_0
            _emit(acc, (key[0] + key[B],) + key[1:B], nums, f * mult)
    for piece, a, b in products:
        poles = dict(a.poles)
        for factor, m in b.poles.items():
            poles[factor] = poles.get(factor, 0) + m
        _product(into(piece, poles), a, b, den // (a.den * b.den))
    # sum_beta z_beta^-1 d/dz_beta of (G(z_0, ...) - G(z_beta, ...)) / (z_0^2 - z_beta^2)
    for beta, main, mirror in mirrors:
        for sign, placed in ((1, main), (-1, mirror)):
            f = sign * 2 ** (3 - (B == 2)) * (den // placed.den)
            rows: Rows = {}
            _emit_rows(rows, placed, f)
            rows, poles = _quotient_rule(
                rows, {**placed.poles, (0, beta, -1): 1, (0, beta, 1): 1}, beta)
            acc = into("reflection", poles)
            for key, nums in rows.items():
                _emit(acc, key, nums, 1)

    top: Poles = {}
    for by_poles in groups.values():
        for poles in by_poles:
            for factor, m in poles:
                top[factor] = max(top.get(factor, 0), m)
    pieces: dict[str, Numerators] = {}
    unpack = lru_cache(maxsize=None)(_unpack)  # one tuple per packed key, shared by the pieces
    for piece, by_poles in groups.items():
        flat: dict[tuple[ZKey, int], int] = {}
        for poles, rows in by_poles.items():
            have = dict(poles)
            # one power of each missing factor per round, (z_0 - z_j) next to (z_0 + z_j):
            # the terms of their product that cancel go at once
            missing = sorted((r, f) for f, m in top.items() for r in range(have.get(f, 0), m))
            rows = _times_factors(rows, [f for _, f in missing])
            for zkey, nums in rows.items():
                for code, n in nums.items():
                    flat[zkey, code] = flat.get((zkey, code), 0) + n
        pieces[piece] = {(zkey, unpack(code)): n for (zkey, code), n in flat.items() if n}
    return pieces, den, top


def dse_residual(g: int, boundaries: int) -> Numerators:
    """The multi-boundary residual's numerator: the pieces of ``dse_terms`` summed.

    It is empty iff the loop equation holds. Each call computes it afresh, so
    the dict is the caller's own.
    """
    total: Numerators = {}
    for piece in dse_terms(g, boundaries)[0].values():
        for term, n in piece.items():
            total[term] = total.get(term, 0) + n
    return {term: n for term, n in total.items() if n}
