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
accumulator per ``z`` key, so no intermediate polynomial is built. Both
residuals take the loop equations' kernel operator from ``_kernel_rows``,
which rejects a ``z_0`` power outside its domain.

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
    FactorKey,
    Key,
    MomentPoly,
    RingError,
    ZKey,
    ZLaurent,
    _addkey,
    _lowered,
    _over_unit,
)

# integer numerators per ``z`` key
Rows = dict[ZKey, dict[Key, int]]
# ``(z key, numerators, multiplier)``: the coefficient at ``z**key`` is
# ``multiplier * numerators`` over the rows' common denominator
RowList = list[tuple[ZKey, Mapping[Key, int], int]]
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


def _rows(obj: ZLaurent) -> tuple[RowList, int]:
    """The rows of an object and their common denominator, the lcm of its coefficients'."""
    den = lcm(*(c.den for c in obj.terms.values()))
    return [(k, c.nums, den // c.den) for k, c in obj.terms.items()], den


def _emit(acc: Rows, zkey: ZKey, nums: Mapping[Key, int], f: int) -> None:
    """Add ``f * nums`` to the numerators of ``acc`` at ``zkey``."""
    col = acc.setdefault(zkey, {})
    get = col.get
    for key, n in nums.items():
        col[key] = get(key, 0) + f * n


def _product(acc: Rows, rows_a: RowList, rows_b: RowList, f: int) -> None:
    """Add ``f`` times the product of two row lists to ``acc``."""
    for ka, nums_a, ma in rows_a:
        for kb, nums_b, mb in rows_b:
            col = acc.setdefault(tuple(map(add, ka, kb)), {})
            get = col.get
            fab = f * ma * mb
            items_b = list(nums_b.items())
            for key_a, na in nums_a.items():
                fa = fab * na
                for key_b, nb in items_b:
                    key = _addkey(key_a, key_b)
                    col[key] = get(key, 0) + fa * nb


def _emit_rows(acc: Rows, rows: RowList, f: int) -> None:
    """Add ``f`` times a row list to ``acc``."""
    for key, nums, mult in rows:
        _emit(acc, key, nums, f * mult)


def _kernel_rows(acc: Rows, rows: RowList, f: int) -> None:
    """Add ``f`` times the kernel operator in ``z_0`` of a row list to ``acc``.

    ``z_0**-(3+2n)`` maps to ``sum_{k=0}^{n} r_k z_0**-(2n+2-2k)``; ``z_0**-1``
    maps to ``1``; any other exponent is an error.
    """
    for key, nums, mult in rows:
        e, rest = key[0], key[1:]
        fm = f * mult
        if e == -1:
            _emit(acc, (0,) + rest, nums, fm)
            continue
        if e > -3 or e % 2 == 0:
            raise UnsupportedExponent(f"kernel operator undefined on exponent {e} of z_0")
        n = (-e - 3) // 2
        for k in range(n + 1):
            r_k = (0,) * k + (1,)
            col = acc.setdefault((-(2 * n + 2 - 2 * k),) + rest, {})
            get = col.get
            for key_m, v in nums.items():
                key_m = _addkey(key_m, r_k)
                col[key_m] = get(key_m, 0) + fm * v


# adds ``f`` times a row list to an accumulator: ``_emit_rows`` or ``_kernel_rows``
Emitter = Callable[[Rows, RowList, int], None]


def _laurent(cols: Rows, den: int, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the one-variable object whose numerators over ``den`` are ``cols``."""
    terms = {}
    for (e,), nums in cols.items():
        poly = MomentPoly.from_numerators(nums, den)
        if poly.nums:
            terms[(e + shift,)] = poly
    out = ZLaurent(1)
    out.terms = terms
    return out


def _divide(cols: Rows, den: int, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the residue inversion of the object given by ``cols`` over ``den``.

    With the input ``sum_k c_k z**(-2k)``, the output coefficient of
    ``z**-(2m+2)`` is ``-g_m / r0``, where ``g_m = sum_j c_{m+j} S_j/j!``
    (``S_j`` the reciprocal-series coefficients). ``S_j/j!`` is the ``tau^j``
    coefficient of ``1 / (1 + sum_{l>=1} (r_l/r0) tau^l)``, so the ``g_m``
    solve ``g_m = c_m - sum_{l>=1} (r_l/r0) g_{m+l}``; they are taken from the
    top exponent down, each ``g_{m+l}`` multiplied by the single monomial
    ``r_l/r0``.
    """
    for (e,) in cols:
        if e % 2:
            raise OddInput(f"exponent {e} is odd")
        if e > 0:
            raise UnboundedInput(f"exponent {e} is positive")
    top = max((-e // 2 for (e,) in cols), default=-1)
    done: list[dict[Key, int]] = []  # g_{top}, g_{top-1}, ..., g_{m+1}
    out: Rows = {}
    for m in range(top, -1, -1):
        acc = dict(cols.get((-2 * m,), ()))
        get = acc.get
        for l, higher in enumerate(reversed(done), 1):
            unit = _over_unit(l)
            for key, n in higher.items():
                key = _addkey(key, unit)
                acc[key] = get(key, 0) - n
        g = {key: n for key, n in acc.items() if n}
        done.append(g)
        out[(-2 * m - 2,)] = {_addkey(key, (-1,)): -n for key, n in g.items()}
    return _laurent(out, den, shift)


# ---------------------------------------------------------------------------
# independent one-boundary chain


def _coincident_pair(stored: ZLaurent) -> ZLaurent:
    """Coincident-point image of the boundary creation acting on a one-variable object.

    A term ``c r^K z^e`` emits, for every moment index ``l`` with
    ``K[l] != 0`` and ``d = K[l] c r^K / r_l``, ``-(3+2l) (r_{l+1}/r_0) d z^(e-3)``
    and ``(3+2l) d z^(e-5-2l)``, and its ``z`` derivative ``e c (r^K/r_0) z^(e-5)``.
    """
    rows, den = _rows(stored)
    acc: Rows = {}

    def emit(e: int, key: Key, v: int) -> None:
        col = acc.setdefault((e,), {})
        col[key] = col.get(key, 0) + v

    for (e,), nums, mult in rows:
        for key, n in nums.items():
            n *= mult
            for l, k_l in enumerate(key):
                if k_l:
                    v = (3 + 2 * l) * k_l * n
                    lowered = _lowered(key, l)
                    emit(e - 3, _addkey(lowered, _over_unit(l + 1)), -v)
                    emit(e - 5 - 2 * l, lowered, v)
            if e:
                emit(e - 5, _addkey(key, (-1,)), e * n)
    return _laurent(acc, den)


@lru_cache(maxsize=None)
def pair_diagonal(g: int) -> ZLaurent:
    """Two-boundary correlator at coincident points, built recursion-locally."""
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    return _coincident_pair(one_point(g)).scale(4)


def _quadratic_sum(
    g: int, series: Callable[[int], ZLaurent], extra: Sequence[tuple[int, ZLaurent, Emitter]]
) -> tuple[Rows, int]:
    """``sum_{h=1}^{g-1} series(h) series(g-h) + sum w * emit(obj)`` over ``(w, obj, emit)`` in ``extra``.

    The result is integer numerators per ``z`` key over one denominator.
    Each unordered pair ``{h, g-h}`` is multiplied once, with weight 2 (1
    when ``h = g-h``).
    """
    pairs = [(2 - (2 * h == g), _rows(series(h)), _rows(series(g - h)))
             for h in range(1, g // 2 + 1)]
    singles = [(w, _rows(obj), emit) for w, obj, emit in extra]
    den = lcm(*(da * db for _, (_, da), (_, db) in pairs), *(d for _, (_, d), _ in singles))
    acc: Rows = {}
    for w, (rows, d), emit in singles:
        emit(acc, rows, w * (den // d))
    for w, (rows_a, da), (rows_b, db) in pairs:
        _product(acc, rows_a, rows_b, w * (den // (da * db)))
    return acc, den


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
    rhs, den = _quadratic_sum(g, one_point, [(4, pair_diagonal(g - 1), _emit_rows)])
    return _divide({(e + 2,): nums for (e,), nums in rhs.items()}, 2 * den, -1)


def one_point_residual(g: int) -> ZLaurent:
    """Loop-equation residual on the stored one-boundary correlator; zero iff valid.

    ``K G_{g,1} + (1/2) sum_h G_{h,1} G_{g-h,1} + 2 diagonal(g-1)``, summed
    as twice itself in one integer accumulator; its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the one-boundary residual starts at genus 1")
    total, den = _quadratic_sum(g, lambda h: correlator(h, 1), [
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


class _Placed(NamedTuple):
    """A stored correlator's rows in a larger space, their denominator and its pair factors."""

    rows: RowList
    den: int
    poles: Poles


def _placed(g: int, positions: Sequence[int], nvars: int) -> _Placed:
    """``G_{g,n}``, ``n = len(positions)``, with its variable ``k`` at slot ``positions[k]`` of ``nvars``."""
    n = len(positions)
    stored = correlator(g, n)
    poles: Poles = {}
    if (g, n) == (0, 2):
        # the planar pair; its one factor (z_0 + z_1) is symmetric, so no sign changes
        poles = {(min(positions[i], positions[j]), max(positions[i], positions[j]), s): m
                 for (i, j, s), m in stored.den.items()}
        stored = stored.num
    rows, den = _rows(stored)
    placed: RowList = []
    for key, nums, mult in rows:
        z = [0] * nvars
        for p, e in zip(positions, key):
            z[p] = e
        placed.append((tuple(z), nums, mult))
    return _Placed(placed, den, poles)


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
    products: list[tuple[str, _Placed, _Placed]] = []
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

    _kernel_rows(into("kernel", {}), kernel.rows, den // kernel.den)
    if handle is not None:
        acc = into("handle", {})
        f = den // handle.den
        for key, nums, mult in handle.rows:  # z_B identified with z_0
            _emit(acc, (key[0] + key[B],) + key[1:B], nums, f * mult)
    for piece, a, b in products:
        poles = dict(a.poles)
        for factor, m in b.poles.items():
            poles[factor] = poles.get(factor, 0) + m
        _product(into(piece, poles), a.rows, b.rows, den // (a.den * b.den))
    # sum_beta z_beta^-1 d/dz_beta of (G(z_0, ...) - G(z_beta, ...)) / (z_0^2 - z_beta^2)
    for beta, main, mirror in mirrors:
        for sign, placed in ((1, main), (-1, mirror)):
            f = sign * 2 ** (3 - (B == 2)) * (den // placed.den)
            rows: Rows = {}
            _emit_rows(rows, placed.rows, f)
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
    for piece, by_poles in groups.items():
        flat: Numerators = {}
        for poles, rows in by_poles.items():
            have = dict(poles)
            # one power of each missing factor per round, (z_0 - z_j) next to (z_0 + z_j):
            # the terms of their product that cancel go at once
            missing = sorted((r, f) for f, m in top.items() for r in range(have.get(f, 0), m))
            rows = _times_factors(rows, [f for _, f in missing])
            for zkey, nums in rows.items():
                for key, n in nums.items():
                    flat[zkey, key] = flat.get((zkey, key), 0) + n
        pieces[piece] = {term: n for term, n in flat.items() if n}
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
