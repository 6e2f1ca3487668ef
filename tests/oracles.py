"""Test-side references: a Fraction-coefficient ring, partial Bell polynomials, Bell-route extraction.

Nothing here is used by the package. ``RefPoly`` is the ring the package
stored before it kept integer numerators: one Fraction per coefficient, with
the same key order rules. The Bell forms are the independent closed forms the
runtime's series recurrences are compared against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial
from typing import Iterable, Sequence

from taulap.ring import LogProduct, MomentPoly, NonDivisible, RingError, convention_scale

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
    """``terms`` (key -> nonzero Fraction, in insertion order) plus ``log_coeff * log(unit)``."""

    __slots__ = ("terms", "log_coeff")

    def __init__(self, terms: dict[Key, Fraction], log_coeff: Fraction = Fraction(0)) -> None:
        self.terms = terms
        self.log_coeff = log_coeff

    @classmethod
    def of(cls, p: MomentPoly) -> "RefPoly":
        return cls(p.terms, p.log_coeff)

    def _is_constant(self) -> bool:
        return not self.log_coeff and all(not k for k in self.terms)

    def __neg__(self) -> "RefPoly":
        return RefPoly({k: -c for k, c in self.terms.items()}, -self.log_coeff)

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
        return RefPoly(terms, self.log_coeff + other.log_coeff)

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        return self + (-other)

    def scale(self, factor: object) -> "RefPoly":
        factor = Fraction(factor)  # type: ignore[arg-type]
        if not factor:
            return RefPoly({})
        return RefPoly({k: c * factor for k, c in self.terms.items()}, self.log_coeff * factor)

    def __mul__(self, other: "RefPoly") -> "RefPoly":
        if other._is_constant():
            return self.scale(other.terms.get((), Fraction(0)))
        if self._is_constant():
            return other.scale(self.terms.get((), Fraction(0)))
        if self.log_coeff or other.log_coeff:
            raise LogProduct("cannot multiply log terms by non-constant polynomials")
        acc: dict[Key, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = _addkey(ka, kb)
                prev = acc.get(k)
                acc[k] = ca * cb if prev is None else prev + ca * cb
        return RefPoly({k: c for k, c in acc.items() if c})

    def divide_by_monomial(self, key: Key, coeff: Fraction) -> "RefPoly":
        neg = tuple(-e for e in key)
        terms: dict[Key, Fraction] = {}
        for k, c in self.terms.items():
            new = _addkey(k, neg)
            if any(e < 0 for e in new[1:]):
                raise NonDivisible(f"{k} is not divisible by {key}")
            terms[new] = c / coeff
        return RefPoly(terms)

    def partial(self, index: int) -> "RefPoly":
        terms: dict[Key, Fraction] = {}
        for key, coeff in self.terms.items():
            e = key[index] if index < len(key) else 0
            if not e:
                continue
            new = _trim(key[:index] + (e - 1,) + key[index + 1:])
            prev = terms.get(new)
            terms[new] = coeff * e if prev is None else prev + coeff * e
        out = RefPoly({k: c for k, c in terms.items() if c})
        if index == 0 and self.log_coeff:
            key = (-1,)
            out.terms[key] = out.terms.get(key, Fraction(0)) + self.log_coeff
            if not out.terms[key]:
                del out.terms[key]
        return out

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
        return RefPoly(terms, self.log_coeff)

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
