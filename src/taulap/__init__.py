"""Exact computation of topological-recursion free energies and boundary correlators."""

from taulap.ring import (
    CoincidentPoints,
    MomentPoly,
    NonUnitSubstitution,
    Rational,
    RingError,
    UnknownVariable,
    ZLaurent,
    ZRational,
    convert,
)

__all__ = [
    "CoincidentPoints",
    "MomentPoly",
    "NonUnitSubstitution",
    "Rational",
    "RingError",
    "UnknownVariable",
    "ZLaurent",
    "ZRational",
    "convert",
]

__version__ = "0.1.0"
