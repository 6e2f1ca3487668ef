"""Independent residue recursion and loop-equation residual checks.

Two cross-validations of the boundary-correlator chain live here:

* an independent construction of the one-boundary correlators by a residue
  recursion (``one_point``), sharing no code path with the creation-operator
  chain in :mod:`taulap.boundary`;
* symbolic residuals of the loop equations (one-boundary and multi-boundary),
  which must vanish identically when evaluated on the stored correlators.

The one-boundary kernels (the residue inversion, the coincident pair and the
quadratic right-hand side) take every coefficient as integer numerators over
one common denominator and sum their terms into one accumulator per ``z``
exponent, so no intermediate polynomial is built.

The multi-boundary residual is composed symbolically as a single rational
object, so its vanishing is checked exactly: its numerator must have no terms,
which is a symbolic zero in the moments and the boundary variables alike.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable, Sequence

from taulap.boundary import (
    correlator,
    diagonal,
    kernel_op,
)
from taulap.laplacian import GenusOutOfRange
from taulap.ring import (
    Key,
    MomentPoly,
    RingError,
    ZLaurent,
    ZRational,
    _addkey,
    _lowered,
    _over_unit,
)

# integer numerators per ``z`` exponent of a one-variable object
Columns = dict[int, dict[Key, int]]


class OddInput(RingError):
    """The residue inversion is defined on even exponents only."""


class UnboundedInput(RingError):
    """The residue inversion needs nonpositive exponents."""


def _columns(obj: ZLaurent) -> tuple[list[tuple[int, dict[Key, int], int]], int]:
    """``(exponent, numerators, multiplier)`` rows of a one-variable object and their lcm.

    The coefficient at ``z**exponent`` is ``multiplier * numerators / lcm``.
    """
    den = lcm(*(c.den for c in obj.terms.values()))
    return [(e, c.nums, den // c.den) for (e,), c in obj.terms.items()], den


def _laurent(cols: Columns, den: int, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the object whose numerators over ``den`` are ``cols``."""
    terms = {}
    for e, nums in cols.items():
        poly = MomentPoly.from_numerators(nums, den)
        if poly.nums:
            terms[(e + shift,)] = poly
    out = ZLaurent(1)
    out.terms = terms
    return out


def _divide(cols: Columns, den: int, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the residue inversion of the object given by ``cols`` over ``den``.

    With the input ``sum_k c_k z**(-2k)``, the output coefficient of
    ``z**-(2m+2)`` is ``-g_m / r0``, where ``g_m = sum_j c_{m+j} S_j/j!``
    (``S_j`` the reciprocal-series coefficients). ``S_j/j!`` is the ``tau^j``
    coefficient of ``1 / (1 + sum_{l>=1} (r_l/r0) tau^l)``, so the ``g_m``
    solve ``g_m = c_m - sum_{l>=1} (r_l/r0) g_{m+l}``; they are taken from the
    top exponent down, each ``g_{m+l}`` multiplied by the single monomial
    ``r_l/r0``.
    """
    for e in cols:
        if e % 2:
            raise OddInput(f"exponent {e} is odd")
        if e > 0:
            raise UnboundedInput(f"exponent {e} is positive")
    top = max((-e // 2 for e in cols), default=-1)
    done: list[dict[Key, int]] = []  # g_{top}, g_{top-1}, ..., g_{m+1}
    out: Columns = {}
    for m in range(top, -1, -1):
        acc = dict(cols.get(-2 * m, ()))
        get = acc.get
        for l, higher in enumerate(reversed(done), 1):
            unit = _over_unit(l)
            for key, n in higher.items():
                key = _addkey(key, unit)
                acc[key] = get(key, 0) - n
        g = {key: n for key, n in acc.items() if n}
        done.append(g)
        out[-2 * m - 2] = {_addkey(key, (-1,)): -n for key, n in g.items()}
    return _laurent(out, den, shift)


def residue_invert(obj: ZLaurent) -> ZLaurent:
    """Inverse of the kernel operator on one-variable even Laurent input.

    ``z**(-2k)`` maps to ``-(1/r0) sum_{j=0..k} S_j/j! z**-(2k-2j+2)`` where
    ``S_j`` are the reciprocal-series coefficients; the defining property
    ``z^2 K(z^{-1} residue_invert(f)) = -f`` is exercised in the tests. The
    sum is evaluated by series division (see ``_divide``), which never builds
    an ``S_j``; the keys come in a different order from the sum's.
    """
    if obj.nvars != 1:
        raise RingError("residue inversion acts on one-variable objects")
    rows, den = _columns(obj)
    return _divide({e: {k: n * mult for k, n in nums.items()} for e, nums, mult in rows}, den)


# ---------------------------------------------------------------------------
# independent one-boundary chain


def _coincident_pair(stored: ZLaurent) -> ZLaurent:
    """Coincident-point image of the boundary creation acting on a one-variable object.

    A term ``c r^K z^e`` emits, for every moment index ``l`` with
    ``K[l] != 0`` and ``d = K[l] c r^K / r_l``, ``-(3+2l) (r_{l+1}/r_0) d z^(e-3)``
    and ``(3+2l) d z^(e-5-2l)``, and its ``z`` derivative ``e c (r^K/r_0) z^(e-5)``.
    """
    rows, den = _columns(stored)
    acc: Columns = {}

    def emit(e: int, key: Key, v: int) -> None:
        col = acc.setdefault(e, {})
        col[key] = col.get(key, 0) + v

    for e, nums, mult in rows:
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
    g: int, series: Callable[[int], ZLaurent], extra: Sequence[tuple[int, ZLaurent]]
) -> tuple[Columns, int]:
    """``sum_{h=1}^{g-1} series(h) series(g-h) + sum w * obj`` over ``(w, obj)`` in ``extra``.

    The result is integer numerators per ``z`` exponent over one
    denominator. Each unordered pair ``{h, g-h}`` is multiplied once, with
    weight 2 (1 when ``h = g-h``).
    """
    pairs = [(2 - (2 * h == g), _columns(series(h)), _columns(series(g - h)))
             for h in range(1, g // 2 + 1)]
    singles = [(w, _columns(obj)) for w, obj in extra]
    den = lcm(*(da * db for _, (_, da), (_, db) in pairs), *(d for _, (_, d) in singles))
    acc: Columns = {}
    for w, (rows, d) in singles:
        scale = w * (den // d)
        for e, nums, mult in rows:
            col = acc.setdefault(e, {})
            get = col.get
            f = scale * mult
            for key, n in nums.items():
                col[key] = get(key, 0) + f * n
    for w, (rows_a, da), (rows_b, db) in pairs:
        scale = w * (den // (da * db))
        for ea, nums_a, ma in rows_a:
            for eb, nums_b, mb in rows_b:
                col = acc.setdefault(ea + eb, {})
                get = col.get
                f = scale * ma * mb
                items_b = list(nums_b.items())
                for ka, na in nums_a.items():
                    fa = f * na
                    for kb, nb in items_b:
                        key = _addkey(ka, kb)
                        col[key] = get(key, 0) + fa * nb
    return acc, den


@lru_cache(maxsize=None)
def one_point(g: int) -> ZLaurent:
    """One-boundary correlator of genus ``g`` from the quadratic residue recursion.

    ``G_{g,1} = z**-1 / 2 * residue_invert(z**2 * rhs)`` with
    ``rhs = 4 pair_diagonal(g-1) + sum_h G_{h,1} G_{g-h,1}``; the right-hand
    side is summed in one integer accumulator. Only ``==`` and ``is_zero``
    read the result, so its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the residue recursion starts at genus 1")
    rhs, den = _quadratic_sum(g, one_point, [(4, pair_diagonal(g - 1))])
    return _divide({e + 2: nums for e, nums in rhs.items()}, 2 * den, -1)


def one_point_residual(g: int) -> ZLaurent:
    """Loop-equation residual on the stored one-boundary correlator; zero iff valid.

    ``K G_{g,1} + (1/2) sum_h G_{h,1} G_{g-h,1} + 2 diagonal(g-1)``, summed
    as twice itself in one integer accumulator; its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the one-boundary residual starts at genus 1")
    kernel = kernel_op(correlator(g, 1), 0)
    total, den = _quadratic_sum(
        g, lambda h: correlator(h, 1), [(2, kernel), (4, diagonal(g - 1))])
    return _laurent(total, 2 * den)


# ---------------------------------------------------------------------------
# multi-boundary residual


def _as_rational(obj: ZLaurent | ZRational) -> ZRational:
    if isinstance(obj, ZRational):
        return obj
    return ZRational(obj)


def _embedded(g: int, positions: Sequence[int], nvars: int) -> ZRational:
    stored = correlator(g, len(positions))
    if isinstance(stored, ZLaurent):
        return ZRational(stored.embed(positions, nvars))
    return stored.embed(positions, nvars)


def _subsets(items: Sequence[int]):
    n = len(items)
    for mask in range(1, 1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


def dse_terms(g: int, boundaries: int) -> dict[str, ZRational]:
    """Named pieces of the multi-boundary loop-equation residual (stored units)."""
    B = boundaries
    if B < 2 or g < 0 or (g == 0 and B == 2):
        raise GenusOutOfRange(f"multi-boundary residual undefined for ({g}, {B})")
    spectators = list(range(1, B))
    out: dict[str, ZRational] = {}
    out["kernel"] = _as_rational(kernel_op(correlator(g, B), 0))
    if g >= 1:
        higher = correlator(g - 1, B + 1)
        if not isinstance(higher, ZLaurent):
            raise RingError("handle-gluing term expects a Laurent correlator")
        out["handle"] = _as_rational(higher.identify(B, 0))
    split: ZRational | None = None
    for h in range(0, g + 1):
        for chosen in _subsets(spectators):
            if len(chosen) > B - 2:
                continue
            rest = [j for j in spectators if j not in chosen]
            left = _embedded(h, [0] + chosen, B)
            right = _embedded(g - h, [0] + rest, B)
            prod = left * right
            split = prod if split is None else split + prod
    if split is not None:
        out["split"] = split
    dress: ZRational | None = None
    for h in range(1, g + 1):
        left = _as_rational(correlator(h, 1).embed([0], B))
        right = _embedded(g - h, list(range(B)), B)
        prod = left * right
        dress = prod if dress is None else dress + prod
    if dress is not None:
        out["dressing"] = dress
    refl: ZRational | None = None
    for beta in spectators:
        rest = [j for j in spectators if j != beta]
        at_main = _embedded(g, [0] + rest, B)
        at_beta = _embedded(g, [beta] + rest, B)
        diff = (at_main - at_beta).divide_by_factor(0, beta, -1).divide_by_factor(0, beta, 1)
        piece = diff.dz(beta).shift(beta, -1)
        refl = piece if refl is None else refl + piece
    assert refl is not None
    out["reflection"] = refl.scale(2 ** (3 - (1 if B == 2 else 0)))
    return out


@lru_cache(maxsize=None)
def dse_residual(g: int, boundaries: int) -> ZRational:
    """The full multi-boundary loop-equation residual as one rational object."""
    total: ZRational | None = None
    for part in dse_terms(g, boundaries).values():
        total = part if total is None else total + part
    assert total is not None
    return total
