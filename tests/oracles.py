"""Test-side reference formulas: partial Bell polynomials and the Bell-route extraction.

Nothing here is used by the package; these are the independent closed forms
the runtime's series recurrences are compared against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from taulap.ring import MomentPoly, RingError


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
