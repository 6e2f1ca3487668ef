"""Independent residue recursion and loop-equation residual checks.

Two cross-validations of the boundary-correlator chain live here:

* an independent construction of the one-boundary correlators by a residue
  recursion (``one_point``), sharing no code path with the creation-operator
  chain in :mod:`taulap.boundary`;
* symbolic residuals of the loop equations (one-boundary and multi-boundary),
  which must vanish identically when evaluated on the stored correlators.

Every kernel here sums integer numerators over one common denominator into
one flat accumulator keyed by one int per term. A term key holds ``n``
8-bit ``z`` slots (``n`` the call's number of boundary variables), slot
``i`` holding ``e_i + 128``, below the ring's packed moment key
(``MomentPoly.packed``). So a product adds keys less the key of ``1``,
``z_i`` adds ``2^(8 i)``, and ``d/dr_k`` subtracts ``2^(8 (n + k))``. Keys
are packed once where a stored ``ZLaurent`` is read (``_rows``) and
unpacked once where a result is returned (``_laurent``, ``dse_terms``;
``dse_residual`` unpacks only what remains of the pieces' sum).
Each kernel checks the moment and ``z`` bounds its keys can reach before it
forms one, so ``SlotOverflow`` is raised rather than a slot wrapping. Both
residuals take the kernel operator from ``_kernel_rows``, which rejects a
``z_0`` power outside its domain.

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
from typing import Callable, Iterable, NamedTuple, Sequence

from taulap.boundary import correlator, diagonal
from taulap.laplacian import GenusOutOfRange
from taulap.ring import (
    _SLOT_BITS,
    _SLOT_MASK,
    _UNIT_OFFSET,
    Bounds,
    FactorKey,
    Key,
    MomentPoly,
    RingError,
    SlotOverflow,
    ZKey,
    ZLaurent,
    _add_bounds,
    _check_slots,
    _slot,
    _union_bounds,
    _unpack,
)

# integer numerators per term key
Nums = dict[int, int]
# (least, largest) ``z`` exponent over every slot of a set of term keys
ZBounds = tuple[int, int]
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


def _check_z(zbounds: ZBounds) -> None:
    """``SlotOverflow`` unless every ``z`` exponent within ``zbounds`` fits its slot."""
    if zbounds[0] < -_UNIT_OFFSET or zbounds[1] >= _UNIT_OFFSET:
        raise SlotOverflow(f"z exponents {zbounds[0]}..{zbounds[1]} do not fit {_SLOT_BITS}-bit slots")


class _Packed(NamedTuple):
    """An object's numerators by term key over one denominator, with the bounds of
    its moment and ``z`` exponents (``zbounds`` include 0), and the pair factors
    it is divided by (only the planar pair has any)."""

    nums: Nums
    den: int
    nvars: int
    bounds: Bounds
    zbounds: ZBounds
    poles: Poles


def _rows(obj: ZLaurent, positions: Sequence[int] | None = None, nvars: int = 0) -> _Packed:
    """The terms of ``obj`` by term key, over the lcm of its coefficients' denominators.

    Variable ``k`` goes to slot ``positions[k]`` of ``nvars`` (by default slot
    ``k`` of ``obj.nvars``); variables on one slot are identified.
    """
    if positions is None:
        positions, nvars = range(obj.nvars), obj.nvars
    coeffs = obj.terms
    den = lcm(*(c.den for c in coeffs.values()))
    width = _SLOT_BITS * nvars
    low = high = 0
    nums: Nums = {}
    get = nums.get
    for zkey, c in coeffs.items():
        z = [0] * nvars
        for p, e in zip(positions, zkey):
            z[p] += e
        low, high = min(low, *z), max(high, *z)
        _check_z((low, high))
        zpart = int.from_bytes(bytes([e + _UNIT_OFFSET for e in z]), "little")
        mult = den // c.den
        for code, n in c.packed.items():
            key = (code << width) + zpart
            nums[key] = get(key, 0) + n * mult
    bounds = _union_bounds([c.bounds for c in coeffs.values()])
    return _Packed(nums, den, nvars, bounds, (low, high), {})


def _product(acc: Nums, a: _Packed, b: _Packed, f: int) -> Bounds:
    """Add ``f`` times the product of two packed objects to ``acc``; the bounds of the keys it reaches."""
    bounds = _add_bounds(a.bounds, b.bounds)
    _check_slots(bounds)
    _check_z((a.zbounds[0] + b.zbounds[0], a.zbounds[1] + b.zbounds[1]))
    one = int.from_bytes(bytes([_UNIT_OFFSET] * (a.nvars + 1)), "little")  # the key of 1
    get = acc.get
    items_b = b.nums.items()
    for key_a, na in a.nums.items():
        fa = f * na
        base = key_a - one
        for key_b, nb in items_b:
            key = base + key_b
            acc[key] = get(key, 0) + fa * nb
    return bounds


def _kernel_rows(acc: Nums, packed: _Packed, f: int) -> Bounds:
    """Add ``f`` times the kernel operator in ``z_0`` of a packed object to ``acc``.

    ``z_0**-(3+2n)`` maps to ``sum_{k=0}^{n} r_k z_0**-(2n+2-2k)``; ``z_0**-1``
    maps to ``1``; any other exponent is an error. Returns the bounds of the
    keys it reaches: one ``r_k`` raises one exponent by one.
    """
    low, high, top = packed.bounds
    bounds = low, high + 1, top + 1
    _check_slots(bounds)
    width = _SLOT_BITS * packed.nvars
    get = acc.get
    for key, n in packed.nums.items():
        e = (key & _SLOT_MASK) - _UNIT_OFFSET
        fn = f * n
        if e == -1:
            key += 1
            acc[key] = get(key, 0) + fn
            continue
        if e > -3 or e % 2 == 0:
            raise UnsupportedExponent(f"kernel operator undefined on exponent {e} of z_0")
        m = (-e - 3) // 2
        base = key - e - 2 * m - 2  # z_0**-(2m+2)
        for k in range(m + 1):
            out = base + 2 * k + (_slot(k) << width)
            acc[out] = get(out, 0) + fn
    return bounds


def _laurent(acc: Nums, den: int, nvars: int = 1) -> ZLaurent:
    """The object in ``nvars`` variables whose numerators by term key over ``den`` are ``acc``."""
    cols: dict[int, Nums] = {}  # moment numerators by the ``z`` slots
    for key, n in acc.items():
        if n:
            code, z = divmod(key, _slot(nvars))
            cols.setdefault(z, {})[code] = n
    out = ZLaurent(nvars)
    out.terms = {tuple(e - _UNIT_OFFSET for e in z.to_bytes(nvars, "little")):
                 MomentPoly._from_packed(nums, den) for z, nums in cols.items()}
    return out


def _divide(acc: Nums, den: int, bounds: Bounds, lift: int = 0, shift: int = 0) -> ZLaurent:
    """``z**shift`` times the residue inversion of ``z**lift acc``, one variable over ``den``.

    With the input ``sum_k c_k z**(-2k)``, the output coefficient of
    ``z**-(2m+2)`` is ``-g_m / r0``, where ``g_m = sum_j c_{m+j} S_j/j!``
    (``S_j`` the reciprocal-series coefficients). ``S_j/j!`` is the ``tau^j``
    coefficient of ``1 / (1 + sum_{l>=1} (r_l/r0) tau^l)``, so the ``g_m``
    solve ``g_m = c_m - sum_{l>=1} (r_l/r0) g_{m+l}``; they are taken from the
    top exponent down, each ``g_{m+l}`` multiplied by the single term
    ``z**(2l) r_l/r0``. ``bounds`` are those of the moment keys of ``acc``.
    """
    by_e: dict[int, Nums] = {}  # the terms of each c_k, by ``-2k``
    for key, n in acc.items():
        by_e.setdefault((key & _SLOT_MASK) - _UNIT_OFFSET + lift, {})[key] = n
    for e in by_e:
        if e % 2:
            raise OddInput(f"exponent {e} is odd")
        if e > 0:
            raise UnboundedInput(f"exponent {e} is positive")
    top = -min(by_e, default=2) // 2
    _check_z((-2 * top - 2 + shift, shift))
    # A variable gains one per factor r_l/r0, at most ``top`` of them. The
    # unit loses one per factor, so its least exponent is followed: ``least``
    # bounds that of c_m and of g_{m+1}, g_{m+2}, ... times r_l/r0.
    least, high, vtop = bounds
    done: list[Nums] = []  # g_{top}, g_{top-1}, ..., g_{m+1}
    out: Nums = {}
    for m in range(top, -1, -1):
        _check_slots((least - 1, high, vtop + top))  # the output is over r0
        g = dict(by_e.get(-2 * m, ()))
        get = g.get
        for l, higher in enumerate(reversed(done), 1):
            step = 2 * l + _slot(l + 1) - _slot(1)  # z**(2l) r_l/r0, in slots 1 and l + 1
            for key, n in higher.items():
                key += step
                g[key] = get(key, 0) - n
        g = {key: n for key, n in g.items() if n}
        if g:
            least = min(least, min((key >> _SLOT_BITS) & _SLOT_MASK for key in g) - _UNIT_OFFSET - 1)
        done.append(g)
        for key, n in g.items():
            out[key + lift + shift - 2 - _slot(1)] = -n  # z**(lift+shift-2) / r0
    return _laurent(out, den)


# ---------------------------------------------------------------------------
# independent one-boundary chain


def _coincident_pair(stored: ZLaurent) -> ZLaurent:
    """Coincident-point image of the boundary creation acting on a one-variable object.

    A term ``c r^K z^e`` emits, for every moment index ``l`` with
    ``K[l] != 0`` and ``d = K[l] c r^K / r_l``, ``-(3+2l) (r_{l+1}/r_0) d z^(e-3)``
    and ``(3+2l) d z^(e-5-2l)``, and its ``z`` derivative ``e c (r^K/r_0) z^(e-5)``.
    The emitted keys lower the unit's exponent by at most two and raise a
    variable's by at most one; ``z``'s goes down to ``e - 5 - 2l`` for the
    highest variable ``r_l`` of the term, checked term by term.
    """
    packed = _rows(stored)
    low, high, top = packed.bounds
    _check_slots((low - 2, high, top + 1))
    acc: Nums = {}
    get = acc.get
    for key, n in packed.nums.items():
        e = (key & _SLOT_MASK) - _UNIT_OFFSET
        exps = _unpack(key >> _SLOT_BITS)
        _check_z((e - 5 - 2 * len(exps), 0))
        for l, k_l in enumerate(exps):
            if k_l:
                v = (3 + 2 * l) * k_l * n
                lowered = key - _slot(l + 1)  # r_l sits in slot l + 1, above z
                out = lowered + _slot(l + 2) - _slot(1) - 3
                acc[out] = get(out, 0) - v
                out = lowered - 5 - 2 * l
                acc[out] = get(out, 0) + v
        if e:
            out = key - _slot(1) - 5
            acc[out] = get(out, 0) + e * n
    return _laurent(acc, packed.den)


@lru_cache(maxsize=None)
def pair_diagonal(g: int) -> ZLaurent:
    """Two-boundary correlator at coincident points, built recursion-locally."""
    if g == 0:
        return ZLaurent(1, {(-4,): 1})
    return _coincident_pair(one_point(g)).scale(4)


def _quadratic_sum(
    g: int, series: Callable[[int], ZLaurent], diag: ZLaurent, kernel: ZLaurent | None = None
) -> tuple[Nums, int, Bounds]:
    """``sum_{h=1}^{g-1} series(h) series(g-h) + 4 diag``, plus twice the kernel operator of ``kernel``.

    Returns numerators by term key over one denominator, and their moment
    bounds. Each pair ``{h, g-h}`` is taken once, with weight 2 (1 if ``h = g-h``).
    """
    pairs = [(2 - (2 * h == g), _rows(series(h)), _rows(series(g - h))) for h in range(1, g // 2 + 1)]
    d = _rows(diag)
    k = None if kernel is None else _rows(kernel)
    den = lcm(d.den, k.den if k else 1, *(a.den * b.den for _, a, b in pairs))
    f = 4 * (den // d.den)
    acc = {key: f * n for key, n in d.nums.items()}
    reach = [d.bounds] if k is None else [d.bounds, _kernel_rows(acc, k, 2 * (den // k.den))]
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
    rhs, den, bounds = _quadratic_sum(g, one_point, pair_diagonal(g - 1))
    return _divide(rhs, 2 * den, bounds, 2, -1)


def one_point_residual(g: int) -> ZLaurent:
    """Loop-equation residual on the stored one-boundary correlator; zero iff valid.

    ``K G_{g,1} + (1/2) sum_h G_{h,1} G_{g-h,1} + 2 diagonal(g-1)``, summed
    as twice itself in one integer accumulator; its key order is free.
    """
    if g < 1:
        raise GenusOutOfRange("the one-boundary residual starts at genus 1")
    total, den, _ = _quadratic_sum(g, lambda h: correlator(h, 1), diagonal(g - 1), correlator(g, 1))
    return _laurent(total, 2 * den)


# ---------------------------------------------------------------------------
# multi-boundary residual
#
# A piece is a sum of terms ``N / prod (z_i + s z_j)^m``. Each term's
# numerator ``N`` is kept as term keys over the residual's common
# denominator, in one group per set of pair factors; the planar pair (as a
# factor of a product, or reflected at ``B = 3``) and the reflection bring
# them. Each group is then multiplied by the factors it lacks, and the pieces
# are read off over the common product.


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
    return _rows(stored, positions, nvars)._replace(poles=poles)


def _times_factor(nums: Nums, factor: FactorKey) -> Nums:
    """``nums`` times ``(z_i + s z_j)``: each term shifted in ``z_i``, and times ``s`` in ``z_j``."""
    i, j, s = factor
    zi, zj = _slot(i), _slot(j)
    out = {key + zi: n for key, n in nums.items()}
    get = out.get
    for key, n in nums.items():
        key += zj
        out[key] = get(key, 0) + s * n
    # what cancelled is dropped, so the next factor does not carry it
    return {key: n for key, n in out.items() if n}


def _times_factors(nums: Nums, factors: Iterable[FactorKey]) -> Nums:
    for factor in factors:
        nums = _times_factor(nums, factor)
    return nums


def _quotient_rule(packed: _Packed, f: int, poles: Poles, var: int) -> tuple[Nums, Poles]:
    """``z_var^-1 d/dz_var`` of ``f`` times ``packed / prod f^m``, as its numerator and factors.

    Each factor ``t`` touching ``z_var`` gains one power; the numerator is
    ``N' prod_t t - sum_t m_t (dt/dz_var) N prod_{u != t} u``, times
    ``z_var^-1``.
    """
    touching = [t for t in poles if var in t[:2]]
    _check_z((packed.zbounds[0] - 2, packed.zbounds[1] + len(touching)))
    step = _slot(var)
    terms = packed.nums.items()
    deriv = {key - 2 * step: e * f * n for key, n in terms
             if (e := (key // step & _SLOT_MASK) - _UNIT_OFFSET)}
    shifted = {key - step: f * n for key, n in terms}
    out = _times_factors(deriv, touching)
    get = out.get
    for t in touching:
        slope = 1 if var == t[0] else t[2]  # d(z_i + s z_j)/dz_var
        for key, n in _times_factors(shifted, [u for u in touching if u != t]).items():
            out[key] = get(key, 0) - poles[t] * slope * n
    return out, {t: m + (t in touching) for t, m in poles.items()}


def _dse_pieces(g: int, boundaries: int) -> tuple[dict[str, Nums], int, Poles]:
    """``dse_terms`` with each piece's numerators by term key, zeros dropped."""
    B = boundaries
    if B < 2 or g < 0 or (g == 0 and B == 2):
        raise GenusOutOfRange(f"multi-boundary residual undefined for ({g}, {B})")
    spectators = list(range(1, B))
    everywhere = range(B)
    kernel = _placed(g, everywhere, B)
    handle = _placed(g - 1, [*everywhere, 0], B) if g else None  # z_B identified with z_0
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

    groups: dict[str, dict[tuple[tuple[FactorKey, int], ...], Nums]] = {}

    def into(piece: str, poles: Poles) -> Nums:
        return groups.setdefault(piece, {}).setdefault(tuple(sorted(poles.items())), {})

    _kernel_rows(into("kernel", {}), kernel, den // kernel.den)
    if handle is not None:
        f = den // handle.den
        into("handle", {}).update((key, f * n) for key, n in handle.nums.items())
    for piece, a, b in products:
        poles = dict(a.poles)
        for factor, m in b.poles.items():
            poles[factor] = poles.get(factor, 0) + m
        _product(into(piece, poles), a, b, den // (a.den * b.den))
    # sum_beta z_beta^-1 d/dz_beta of (G(z_0, ...) - G(z_beta, ...)) / (z_0^2 - z_beta^2)
    for beta, main, mirror in mirrors:
        for sign, placed in ((1, main), (-1, mirror)):
            f = sign * 2 ** (3 - (B == 2)) * (den // placed.den)
            nums, poles = _quotient_rule(
                placed, f, {**placed.poles, (0, beta, -1): 1, (0, beta, 1): 1}, beta)
            acc = into("reflection", poles)
            get = acc.get
            for key, n in nums.items():
                acc[key] = get(key, 0) + n

    top: Poles = {}
    for by_poles in groups.values():
        for poles in by_poles:
            for factor, m in poles:
                top[factor] = max(top.get(factor, 0), m)
    # at most two inputs' highest z exponents, raised per factor in the quotient rule and here
    inputs = [kernel, handle or kernel, *(p for _, a, b in products + mirrors for p in (a, b))]
    _check_z((0, 2 * max(p.zbounds[1] for p in inputs) + 2 * sum(top.values())))
    pieces: dict[str, Nums] = {}
    for piece, by_poles in groups.items():
        flat: Nums = {}
        get = flat.get
        for poles, nums in by_poles.items():
            have = dict(poles)
            # one power of each missing factor per round, (z_0 - z_j) next to (z_0 + z_j):
            # the terms of their product that cancel go at once
            missing = sorted((r, f) for f, m in top.items() for r in range(have.get(f, 0), m))
            for key, n in _times_factors(nums, [f for _, f in missing]).items():
                flat[key] = get(key, 0) + n
        pieces[piece] = {key: n for key, n in flat.items() if n}
    return pieces, den, top


def _numerators(nums: Nums, boundaries: int) -> Numerators:
    """Term-key numerators as ``(z key, moment key)`` tuples, one tuple per packed key."""
    zkey = lru_cache(maxsize=None)(
        lambda z: tuple(e - _UNIT_OFFSET for e in z.to_bytes(boundaries, "little")))
    mkey = lru_cache(maxsize=None)(_unpack)
    return {(zkey(key % _slot(boundaries)), mkey(key >> _SLOT_BITS * boundaries)): n
            for key, n in nums.items()}


def dse_terms(g: int, boundaries: int) -> tuple[dict[str, Numerators], int, Poles]:
    """Named pieces of the multi-boundary loop-equation residual (stored units).

    Returns ``(pieces, den, poles)``: the piece ``pieces[name]`` is the sum of
    ``n z^zkey x^mkey`` over its items ``(zkey, mkey): n``, divided by ``den``
    and by ``prod (z_i + s z_j)^m`` over ``poles = {(i, j, s): m}``, which
    holds each pair factor at the highest power any piece has.
    """
    pieces, den, top = _dse_pieces(g, boundaries)
    return {name: _numerators(nums, boundaries) for name, nums in pieces.items()}, den, top


def dse_residual(g: int, boundaries: int) -> Numerators:
    """The multi-boundary residual's numerator: the pieces of ``dse_terms`` summed.

    The pieces are summed on their term keys and only what remains is
    unpacked. It is empty iff the loop equation holds. Each call computes it
    afresh, so the dict is the caller's own.
    """
    total: Nums = {}
    get = total.get
    for nums in _dse_pieces(g, boundaries)[0].values():
        for key, n in nums.items():
            total[key] = get(key, 0) + n
    return _numerators({key: n for key, n in total.items() if n}, boundaries)
