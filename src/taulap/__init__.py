"""Exact computation of topological-recursion free energies and boundary correlators."""

from taulap.ring import (
    CoincidentPoints,
    MomentPoly,
    NonUnitSubstitution,
    NotHomogeneous,
    Rational,
    RingError,
    UnknownVariable,
    ZLaurent,
    ZRational,
    convert,
    rational,
)

__all__ = [
    "CoincidentPoints",
    "MomentPoly",
    "NonUnitSubstitution",
    "NotHomogeneous",
    "Rational",
    "RingError",
    "UnknownVariable",
    "ZLaurent",
    "ZRational",
    "convert",
    "rational",
]

__version__ = "0.1.0"
