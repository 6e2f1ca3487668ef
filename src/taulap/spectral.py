"""Numeric spectral pipeline: implicit-equation solve and moment extraction.

A model is a finite spectrum ``(F_n, mult_n)`` with a coupling and a volume.
The planar solution is parametrised by a spectral shift ``c`` fixed by an
implicit equation; from the solved shift one reads off the wave-function
renormalisation, the mass shift and the moment sequence that feeds the exact
correlator machinery.  All solving happens in ordinary floats with an exact
analytic derivative inside a damped Newton iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from math import comb, sqrt
from typing import Mapping, Sequence

from taulap import boundary as _boundary


class SpectralError(ValueError):
    """Base class for spectral-pipeline failures."""


class InvalidModel(SpectralError):
    """The model description is malformed or out of range."""


class NoConvergence(SpectralError):
    """The Newton iteration did not reach the requested tolerance."""


class NoRoot(NoConvergence):
    """The implicit shift equation provably has no root, so Newton is not run."""


class BranchViolation(SpectralError):
    """The iteration was pushed across the square-root branch point."""


class OnCut(SpectralError):
    """An eigenvalue pair collides with the spectral cut."""


VALID_DIMENSIONS = (0, 2, 4, 6)

# The linear generator builds cutoff_N + 1 levels; above this a model costs
# tens of seconds a Newton solve and hundreds of megabytes of levels.
MAX_CUTOFF = 100_000


def _integral(value: object, name: str) -> int:
    """``int(value)``, except that a float must be whole: it is never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise InvalidModel(f"{name} must be an integer, got {value!r}")
    return int(value)  # type: ignore[call-overload]


@dataclass(frozen=True)
class SpectralModel:
    """Finite spectrum with coupling and volume."""

    dimension: int
    coupling: float
    volume: float
    levels: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if self.dimension not in VALID_DIMENSIONS:
            raise InvalidModel(f"dimension must be one of {VALID_DIMENSIONS}")
        # chained comparisons also reject nan and inf
        if not 0 <= self.coupling < math.inf:
            raise InvalidModel("coupling must be finite and nonnegative")
        if not 0 < self.volume < math.inf:
            raise InvalidModel("volume must be finite and positive")
        if not self.levels:
            raise InvalidModel("the spectrum must contain at least one level")
        for energy, mult in self.levels:
            if not 0 < energy < math.inf:
                raise InvalidModel("level energies must be finite and positive")
            if mult < 1:
                raise InvalidModel("level multiplicities must be positive integers")

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """Per-level weights ``2 (2 lambda)^2 mult / V``."""
        lam = self.coupling
        return tuple(2 * (2 * lam) ** 2 * mult / self.volume for _, mult in self.levels)

    @cached_property
    def _cut_squares(self) -> tuple[float, ...]:
        """Per-level ``4 E^2``: the cut position of a level at shift ``c`` is ``sqrt(4 E^2 + c)``."""
        return tuple(4 * e * e for e, _ in self.levels)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpectralModel":
        try:
            dimension = _integral(data["dimension"], "dimension")
            coupling = float(data["lambda"])
            volume = float(data["volume"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidModel(f"bad model header: {exc}") from exc
        if "eigenvalues" in data:
            levels = []
            for entry in data["eigenvalues"]:
                try:
                    levels.append((float(entry["E"]), _integral(entry["mult"], "mult")))
                except (KeyError, TypeError, ValueError) as exc:
                    raise InvalidModel(f"bad eigenvalue entry {entry!r}") from exc
            return cls(dimension, coupling, volume, tuple(levels))
        if "generator" in data:
            gen = data["generator"]
            if gen.get("e") != "linear":
                raise InvalidModel("only the linear spectrum generator is supported")
            if dimension not in (2, 4, 6):
                raise InvalidModel("the linear generator needs dimension 2, 4 or 6")
            try:
                cutoff = _integral(gen["cutoff_N"], "cutoff_N")
                mu2 = float(gen["mu2"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidModel(f"bad generator block: {exc}") from exc
            if cutoff < 0 or not mu2 > 0:
                raise InvalidModel("generator needs cutoff_N >= 0 and mu2 > 0")
            if cutoff > MAX_CUTOFF:
                raise InvalidModel(f"generator cutoff_N must be at most {MAX_CUTOFF}")
            half = dimension // 2
            levels = tuple(
                (
                    mu2 / 2 + m / (mu2 * volume ** (2 / dimension)),
                    comb(m + half - 1, half - 1),
                )
                for m in range(cutoff + 1)
            )
            return cls(dimension, coupling, volume, levels)
        raise InvalidModel("model needs either 'eigenvalues' or 'generator'")

    @classmethod
    def from_json(cls, text: str) -> "SpectralModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidModel(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _edge(c: float) -> float:
    return sqrt(1 + c)


def _lhs(model: SpectralModel, c: float) -> float:
    """Left side of the implicit shift equation: ``1 - z0``, or ``1 - z0^2`` in dimension 6."""
    z0 = _edge(c)
    return (1 - z0) * (1 + z0) if model.dimension == 6 else 1 - z0


def _value(model: SpectralModel, c: float) -> float:
    """The implicit shift equation at ``c``: ``_implicit(model, c)[0]``, without the slope."""
    z0 = _edge(c)
    half = model.dimension // 2
    total = 0.0
    for w, s in zip(model.weights, model._cut_squares):
        y = sqrt(s + c)
        try:
            base = (z0 + y) ** half
        except OverflowError:
            base = math.inf
        total += w / (base * y)
    return _lhs(model, c) - total / 2


def _implicit(model: SpectralModel, c: float) -> tuple[float, float]:
    """The implicit shift equation and its derivative at ``c``, from one pass over the levels."""
    z0 = _edge(c)
    dz0 = 1 / (2 * z0)
    half = model.dimension // 2
    total = 0.0
    drhs = 0.0
    for w, s in zip(model.weights, model._cut_squares):
        y = sqrt(s + c)
        # a huge level adds nothing to the value or the slope, and must not end
        # the solve; the slope is also taken where it goes unused, at a root
        try:
            base = (z0 + y) ** half
        except OverflowError:
            base = math.inf
        total += w / (base * y)
        dy = 1 / (2 * y)
        try:
            far = (z0 + y) ** (half + 1)
        except OverflowError:
            far = math.inf
        drhs += w * (-half * (dz0 + dy) / (far * y) - dy / (base * y * y))
    dlhs = -1.0 if model.dimension == 6 else -dz0
    return _lhs(model, c) - total / 2, dlhs - drhs / 2


def _wall(model: SpectralModel) -> tuple[float, type[SpectralError]]:
    """The square-root wall below every admissible shift, and the error for pressing into it."""
    floor_cut = min(model._cut_squares)
    return max(-1.0, -floor_cut), OnCut if -floor_cut >= -1 else BranchViolation


@dataclass(frozen=True)
class SpectralSolution:
    """Solved planar data of a spectral model."""

    model: SpectralModel
    shift: float

    def __post_init__(self) -> None:
        if not self.shift + 1 > 0:
            raise BranchViolation("shift at or below the branch point of the edge")
        floor_cut = min(self.model._cut_squares)
        if not self.shift + floor_cut > 0:
            raise OnCut("shift puts an eigenvalue pair on the spectral cut")

    @cached_property
    def _cut_positions(self) -> tuple[float, ...]:
        """Per-level cut position ``y_n = sqrt(4 E_n^2 + c)`` at the solved shift."""
        return tuple(sqrt(s + self.shift) for s in self.model._cut_squares)

    def _spectral_sum(self, edge_power: int) -> float:
        """``(1/2) sum_n w_n / ((z0 + y_n)**edge_power * y_n)``."""
        z0 = self.edge
        total = 0.0
        for w, y in zip(self.model.weights, self._cut_positions):
            total += w / ((z0 + y) ** edge_power * y)
        return total / 2

    @cached_property
    def edge(self) -> float:
        return _edge(self.shift)

    @cached_property
    def wave_renorm(self) -> float:
        if self.model.dimension < 6:
            return 1.0
        inv_sqrt = self.edge + self._spectral_sum(2)
        return inv_sqrt**-2

    @cached_property
    def mass_shift(self) -> float:
        """The combination ``lambda * nu`` entering the planar resolvent."""
        if self.model.dimension < 4:
            return 0.0
        z0 = self.edge
        s1 = self._spectral_sum(1)
        return z0 / sqrt(self.wave_renorm) - 1 + s1

    @cached_property
    def _moments(self) -> dict[int, float]:
        """The moments computed so far, by index."""
        return {}

    def moment(self, index: int) -> float:
        if index < 0:
            raise InvalidModel("moment index must be nonnegative")
        if index not in self._moments:
            total = 0.0
            for w, y in zip(self.model.weights, self._cut_positions):
                try:
                    total += w / y ** (3 + 2 * index)
                except OverflowError:
                    pass  # w / inf: a huge level adds nothing
            base = 1 / sqrt(self.wave_renorm) if index == 0 else 0.0
            self._moments[index] = base - total / 2
        return self._moments[index]

    def moments(self, lmax: int) -> dict[int, float]:
        return {l: self.moment(l) for l in range(lmax + 1)}

    def resolvent(self, z: float) -> float:
        """Planar resolvent in the shifted variable."""
        total = 0.0
        for w, y in zip(self.model.weights, self._cut_positions):
            total += w / ((z + y) * y)
        return z / sqrt(self.wave_renorm) - self.mass_shift + total / 2

    def resolvent_derivative(self, z: float) -> float:
        total = 0.0
        for w, y in zip(self.model.weights, self._cut_positions):
            total += w / ((z + y) ** 2 * y)
        return 1 / sqrt(self.wave_renorm) - total / 2

    def boundary_value(self) -> float:
        """Planar two-point function at the spectral edge (normalised to 1)."""
        return self.resolvent(self.edge)

    def boundary_slope(self) -> float:
        """Edge slope in the physical variable (normalised to 1/2)."""
        return self.resolvent_derivative(self.edge) / (2 * self.edge)

    def evaluate_correlator(
        self, g: int, groups: Sequence[Sequence[float]], lmax: int | None = None
    ) -> float:
        if lmax is None:
            # G_{g,B} depends on the moment indices 0..3g-3+B
            lmax = max(3 * g - 3 + len(groups), 0)
        moments = self.moments(lmax)
        return _boundary.evaluate_correlator(g, groups, self.model.coupling, moments)


# Refinement caps of the rootlessness certificate; past either it gives no
# verdict and Newton decides.
_CERTIFY_LEVELS = 32
_CERTIFY_PIECES = 32


def _rootless(model: SpectralModel, value0: float, tol: float) -> bool:
    """True when the implicit function ``f = lhs - S`` provably has no root.

    The weights are positive, so ``S`` is positive and decreasing in ``c``;
    ``lhs`` is decreasing and 0 at ``c = 0``.  So ``f < 0`` from ``c = 0`` on,
    every root lies in ``(wall, 0)``, and on a piece ``[a, b]`` of that range
    ``f <= lhs(a) - S(b) = f(b) + lhs(a) - lhs(b)``.  Starting from
    ``(wall, 0]``, where ``value0`` is ``f(0)``, the pieces whose bound is not
    below ``-tol`` by a rounding margin are halved breadth-first; a piece
    below it holds no point that Newton's ``|f| <= tol`` test accepts.  False
    when a midpoint has ``f >= 0`` (a sign change) or a cap is reached (no
    verdict).
    """
    pieces = [(_wall(model)[0], 0.0, value0)]
    for _ in range(_CERTIFY_LEVELS):
        live = []
        for a, b, fb in pieces:
            lhs_a = _lhs(model, a)
            if fb + lhs_a - _lhs(model, b) < -tol - 1e-9 * (1 + abs(lhs_a) + abs(fb)):
                continue
            mid = (a + b) / 2
            fmid = _value(model, mid)
            if not fmid < 0:
                return False
            live += [(a, mid, fmid), (mid, b, fb)]
        if not live:
            return True
        if len(live) > _CERTIFY_PIECES:
            return False
        pieces = live
    return False


def solve(model: SpectralModel, tol: float = 1e-12, max_iter: int = 200) -> SpectralSolution:
    """Solve the implicit shift equation, or prove that it has no root.

    A rootlessness certificate (``_rootless``) runs first and raises
    ``NoRoot``; otherwise damped Newton starts at zero (``_newton``).  The
    certificate only gates Newton, so a solved shift does not depend on it.
    """
    if model.coupling == 0:
        return SpectralSolution(model, 0.0)
    start = _implicit(model, 0.0)
    if _rootless(model, start[0], tol):
        raise NoRoot("the implicit shift equation has no root: it stays negative above the wall")
    return _newton(model, start, tol, max_iter)


def _newton(
    model: SpectralModel, start: tuple[float, float], tol: float, max_iter: int
) -> SpectralSolution:
    """Damped Newton solve from ``c = 0``, where ``start`` is ``_implicit(model, 0.0)``.

    Newton candidates that overshoot a square-root wall are damped to the
    midpoint between the current iterate and the wall; an iteration that keeps
    pressing into a wall therefore converges onto it geometrically and is
    reported as the corresponding domain error instead of a generic failure.
    """
    wall, wall_error = _wall(model)
    wall_margin = 1e-11 * max(1.0, abs(wall))
    c = 0.0
    value, slope = start
    for _ in range(max_iter):
        if abs(value) <= tol:
            return SpectralSolution(model, c)
        if slope == 0 or not math.isfinite(slope):
            raise NoConvergence("flat or invalid derivative in Newton step")
        step = -value / slope
        candidate = c + step
        if candidate <= wall:
            candidate = (c + wall) / 2
            if candidate - wall <= wall_margin:
                if wall_error is OnCut:
                    raise OnCut("iterates pinned at the spectral cut")
                raise BranchViolation("iterates pinned at the branch point of the edge")
        step = candidate - c
        c = candidate
        value, slope = _implicit(model, c)
        if abs(step) <= tol * max(1.0, abs(c)) and abs(value) <= sqrt(tol):
            return SpectralSolution(model, c)
    raise NoConvergence(f"no root after {max_iter} Newton steps (|residual|={abs(value):.3e})")
