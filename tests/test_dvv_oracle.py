"""Every coefficient of ``F_g`` against an independent DVV/Virasoro recursion.

The oracle computes intersection numbers ``<tau_{d_1} ... tau_{d_n}>_g`` from
the string and dilaton equations and the Dijkgraaf-Verlinde-Verlinde
recursion (Nucl. Phys. B348 (1991) 435), and shares no code with the
Laplacian chain. By the Itzykson-Zuber dictionary (hep-th/9201001), the
coefficient of ``prod_l t_{l+1}^{e_l}`` in the rescaled form of ``F_g`` is
``<prod_l tau_{l+1}^{e_l}>_g / prod_l e_l!``, so the normalised table of
``F_g`` must equal the oracle on every multiset of indices ``d >= 2`` with
``sum (d - 1) = 3g - 3``.
"""

import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod

import pytest

from taulap.laplacian import free_energy
from taulap.ring import double_factorial

F = Fraction


def _genus(ds: tuple[int, ...]) -> int | None:
    """The genus fixed by ``sum d_i = 3g - 3 + n``, or None off the lattice."""
    excess = sum(ds) - len(ds) + 3
    return excess // 3 if excess % 3 == 0 else None


@lru_cache(maxsize=None)
def tau(ds: tuple[int, ...]) -> Fraction:
    """``<tau_{d_1} ... tau_{d_n}>`` for a sorted index tuple (genus implied)."""
    g = _genus(ds)
    n = len(ds)
    if g is None or g < 0 or (ds and ds[0] < 0) or 2 * g - 2 + n <= 0:
        return F(0)
    if ds == (0, 0, 0):
        return F(1)
    if ds == (1,):
        return F(1, 24)
    if ds[0] == 0:  # string equation
        rest = ds[1:]
        return sum((tau(tuple(sorted(rest[:j] + (d - 1,) + rest[j + 1:])))
                    for j, d in enumerate(rest) if d), F(0))
    if ds[0] == 1:  # dilaton equation
        return (2 * g - 3 + n) * tau(ds[1:])
    # DVV with the largest index d = k + 1 removed
    k = ds[-1] - 1
    rest = ds[:-1]
    total = F(0)
    for j, d in enumerate(rest):
        moved = tuple(sorted(rest[:j] + (d + k,) + rest[j + 1:]))
        total += F(double_factorial(2 * k + 2 * d + 1), double_factorial(2 * d - 1)) * tau(moved)
    counts = sorted(Counter(rest).items())
    for r in range(k):
        s = k - 1 - r
        weight = F(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        total += weight * tau(tuple(sorted(rest + (r, s))))
        for picks in product(*(range(m + 1) for _, m in counts)):
            left = tuple(d for (d, _), c in zip(counts, picks) for _ in range(c))
            right = tuple(d for (d, m), c in zip(counts, picks) for _ in range(m - c))
            ways = prod(comb(m, c) for (_, m), c in zip(counts, picks))
            total += weight * ways * tau(tuple(sorted(left + (r,)))) * tau(tuple(sorted(right + (s,))))
    return total / double_factorial(2 * k + 3)


def _multisets(total: int, smallest: int = 1):
    """Multisets of parts ``>= smallest`` summing to ``total``, as sorted tuples."""
    if total == 0:
        yield ()
        return
    for part in range(smallest, total + 1):
        for rest in _multisets(total - part, part):
            yield (part,) + rest


def test_oracle_known_values() -> None:
    assert tau((4,)) == F(1, 1152)
    assert tau((2, 2, 2)) == F(7, 240)
    assert tau((0, 2)) == tau((1, 1)) == F(1, 24)
    assert tau((0, 0, 0)) == 1
    for g in range(1, 8):
        assert tau((3 * g - 2,)) == F(1, 24**g * factorial(g))


def _check_free_energies(gmax: int) -> int:
    """Compare every coefficient of ``F_2 .. F_gmax``; returns how many were compared."""
    checked = 0
    for g in range(2, gmax + 1):
        fg = free_energy(g, "t")
        expected = {}
        for parts in _multisets(3 * g - 3):
            # part p is the index shift d - 1 of tau_d, stored in slot p
            exps = Counter(parts)
            key = (-(2 * g - 2) - len(parts),) + tuple(exps.get(l, 0) for l in range(1, max(parts) + 1))
            expected[key] = tau(tuple(sorted(p + 1 for p in parts))) / prod(
                factorial(e) for e in exps.values()
            )
        assert fg.terms == expected, f"genus {g}"
        checked += len(expected)
    return checked


def test_every_free_energy_coefficient_matches_dvv() -> None:
    assert _check_free_energies(8) == 1474


@pytest.mark.skipif(not os.environ.get("TAULAP_SLOW"), reason="set TAULAP_SLOW=1 to run")
def test_every_free_energy_coefficient_matches_dvv_through_genus_10() -> None:
    """The same check through genus 10: the oracle alone takes most of a minute."""
    assert _check_free_energies(10) == 6059
