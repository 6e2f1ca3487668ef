"""Independent residue recursion and loop-equation residual checks.

Two cross-validations of the boundary-correlator chain live here:

* an independent construction of the one-boundary correlators by a residue
  recursion (``one_point``), sharing no code path with the creation-operator
  chain in :mod:`taulap.boundary`;
* symbolic residuals of the loop equations (one-boundary and multi-boundary),
  which must vanish identically when evaluated on the stored correlators.

The multi-boundary residual is composed symbolically as a single rational
object, so its vanishing is checked exactly: its numerator must have no terms,
which is a symbolic zero in the moments and the boundary variables alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, Sequence

from taulap.bell import reciprocal_coefficient
from taulap.boundary import (
    correlator,
    diagonal,
    generic_moments,
    kernel_op,
)
from taulap.laplacian import GenusOutOfRange
from taulap.ring import (
    MomentPoly,
    RingError,
    ZLaurent,
    ZRational,
)

F = Fraction


class OddInput(RingError):
    """The residue inversion is defined on even exponents only."""


class UnboundedInput(RingError):
    """The residue inversion needs nonpositive exponents."""


def residue_invert(obj: ZLaurent) -> ZLaurent:
    """Inverse of the kernel operator on one-variable even Laurent input.

    ``z**(-2k)`` maps to ``-(1/r0) sum_{j=0..k} S_j/j! z**-(2k-2j+2)`` where
    ``S_j`` are the reciprocal-series coefficients; the defining property
    ``z^2 K(z^{-1} residue_invert(f)) = -f`` is exercised in the tests.
    """
    if obj.nvars != 1:
        raise RingError("residue inversion acts on one-variable objects")
    out = ZLaurent(1)
    terms: dict[tuple[int, ...], MomentPoly] = {}
    inv_unit = MomentPoly.unit_power(-1)
    for (e,), coeff in obj.terms.items():
        if e % 2:
            raise OddInput(f"exponent {e} is odd")
        if e > 0:
            raise UnboundedInput(f"exponent {e} is positive")
        k = -e // 2
        for j in range(k + 1):
            piece = coeff * reciprocal_coefficient(j) * inv_unit
            piece = piece.scale(F(-1, factorial(j)))
            key = (-(2 * (k - j) + 2),)
            prev = terms.get(key)
            total = piece if prev is None else prev + piece
            if total.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = total
    out.terms = terms
    return out


# ---------------------------------------------------------------------------
# independent one-boundary chain


def _coincident_pair(stored: ZLaurent) -> ZLaurent:
    """Coincident-point image of the boundary creation acting on a one-variable object."""
    out = ZLaurent.zero(1)
    support = stored.moment_support()
    for l in range(0, (max(support) if support else -1) + 1):
        d = stored.partial_moment(l)
        if d.is_zero:
            continue
        ratio = MomentPoly.monomial((-1,) + (0,) * l + (1,), -(3 + 2 * l))
        out = out + d.scale(ratio).shift(0, -3)
        out = out + d.scale(3 + 2 * l).shift(0, -5 - 2 * l)
    out = out + stored.dz(0).shift(0, -4).scale(MomentPoly.unit_power(-1))
    return out


@lru_cache(maxsize=None)
def pair_diagonal(g: int) -> ZLaurent:
    """Two-boundary correlator at coincident points, built recursion-locally."""
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    return _coincident_pair(one_point(g)).scale(4)


@lru_cache(maxsize=None)
def one_point(g: int) -> ZLaurent:
    """One-boundary correlator of genus ``g`` from the quadratic residue recursion."""
    if g < 1:
        raise GenusOutOfRange("the residue recursion starts at genus 1")
    rhs = pair_diagonal(g - 1).scale(4)
    for h in range(1, g):
        rhs = rhs + one_point(h) * one_point(g - h)
    inverted = residue_invert(rhs.shift(0, 2))
    return inverted.shift(0, -1).scale(F(1, 2))


def one_point_residual(g: int) -> ZLaurent:
    """Loop-equation residual on the stored one-boundary correlator; zero iff valid."""
    if g < 1:
        raise GenusOutOfRange("the one-boundary residual starts at genus 1")
    out = kernel_op(correlator(g, 1), 0)
    for h in range(1, g):
        out = out + (correlator(h, 1) * correlator(g - h, 1)).scale(F(1, 2))
    diag = diagonal(g - 1)
    if isinstance(diag, ZRational):
        reduced = diag.reduce()
        if not isinstance(reduced, ZLaurent):
            raise RingError("coincident planar pair should be a Laurent object")
        diag = reduced
    return out + diag.scale(2)


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


def dse_residual_values(
    g: int,
    boundaries: int,
    points: Sequence[Sequence[object]],
    moments: Mapping[int, object] | None = None,
) -> list[object]:
    """Evaluate the residual at explicit points (should be all zeros)."""
    if moments is None:
        moments = generic_moments()
    res = dse_residual(g, boundaries)
    return [res.evaluate(list(pt), moments) for pt in points]


def dse_certify(g: int, boundaries: int) -> bool:
    """Whether the multi-boundary residual vanishes identically (a symbolic zero)."""
    return dse_residual(g, boundaries).is_zero
