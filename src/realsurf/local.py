"""Bishop's local model of a complex point, without numpy.

A complex point of a real surface in C^2 has, in adapted holomorphic
coordinates, the quadratic jet

    w = a z^2 + b z zbar + c zbar^2 + O(|z|^3),

and its holomorphic invariant alpha = |b| / (2 |c|) makes it elliptic
(alpha > 1), hyperbolic (alpha < 1) or parabolic (alpha = 1); Bishop,
"Differentiable manifolds in complex Euclidean space", Duke Math. J. 32
(1965).  ``bishop_alpha`` and ``classify`` compute exactly that from
three numbers.  This module also holds what the scanner,
``realsurf.bishop``, shares with callers that must not pay for numpy:
its tolerances, its exceptions and the names of its builtin surfaces.
``realsurf.bishop`` re-exports every name here.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

__all__ = [
    "Jet2",
    "PointType",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "ImmersionFailure",
    "UnresolvedCluster",
    "GenericityFailure",
    "bishop_alpha",
    "classify",
    "BUILTIN_SURFACES",
    "parse_builtin_surface",
]


class ImmersionFailure(Exception):
    """The two partial derivatives are real-linearly dependent somewhere."""


class UnresolvedCluster(Exception):
    """Zeros of the detector did not separate at maximal refinement."""


class GenericityFailure(Exception):
    """A parabolic or degenerate point makes the survey counts meaningless."""


@dataclass(frozen=True)
class Jet2:
    """Quadratic jet w = a z^2 + b z zbar + c zbar^2 in adapted coordinates."""

    a: complex
    b: complex
    c: complex


class PointType(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Tolerances:
    zero_rel: float = 1e-9        # relative floor below which a modulus counts as zero
    parabolic_band: float = 1e-6  # |alpha - 1| within the band reports parabolic
    max_refine: int = 12          # deepest quadtree level a candidate cell's boxes may reach

    def __post_init__(self):
        for name in ("zero_rel", "parabolic_band", "max_refine"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"tolerance {name} must be >= 0, got {value!r}")
        # a quadtree depth: a Python or numpy integer, not a bool
        if isinstance(self.max_refine, bool) or not isinstance(self.max_refine, numbers.Integral):
            raise TypeError(f"tolerance max_refine must be an integer, got {self.max_refine!r}")


DEFAULT_TOLERANCES = Tolerances()


def bishop_alpha(jet: Jet2, zero_rel: float = 1e-9) -> float | None:
    """The holomorphic invariant of a complex point from its quadratic jet.

    The a-coefficient is removed by a holomorphic coordinate change and
    plays no role.  Returns ``math.inf`` when c vanishes (the
    w = z zbar model) and ``None`` for the degenerate jet b = c = 0.
    Raises ``ValueError`` when b or c is infinite or NaN.
    """
    b, c2 = abs(jet.b), 2.0 * abs(jet.c)
    if not (math.isfinite(b) and math.isfinite(c2)):
        raise ValueError(f"jet coefficients b and c must be finite, got b={jet.b!r}, c={jet.c!r}")
    scale = max(b, c2)
    if scale == 0.0:
        return None
    if c2 <= zero_rel * scale:
        return math.inf
    if b <= zero_rel * scale:
        return 0.0
    return b / c2


def classify(alpha: float | None, parabolic_band: float = 1e-6) -> PointType:
    """alpha > 1 elliptic, alpha < 1 hyperbolic, alpha = 1 parabolic
    (up to the tolerance band), no alpha degenerate."""
    if alpha is None:
        return PointType.DEGENERATE
    if math.isinf(alpha):
        return PointType.ELLIPTIC
    if abs(alpha - 1.0) <= parabolic_band:
        return PointType.PARABOLIC
    return PointType.ELLIPTIC if alpha > 1.0 else PointType.HYPERBOLIC


BUILTIN_SURFACES = ("flat-torus", "round-sphere", "wrinkled-sphere", "graph-normal-form:<alpha>")


def parse_builtin_surface(name: str) -> tuple[str, float | None]:
    """The kind of a builtin surface name and, for
    ``graph-normal-form:<alpha>``, its alpha (``inf`` spelled out):
    ``("graph-normal-form", 2.0)``, ``("flat-torus", None)``.  An unknown
    name or an alpha that is not a number raises ``ValueError``."""
    key = name.strip()
    if key in BUILTIN_SURFACES[:3]:
        return key, None
    if key.startswith("graph-normal-form:"):
        suffix = key.split(":", 1)[1]
        return "graph-normal-form", math.inf if suffix.strip().lower() == "inf" else float(suffix)
    raise ValueError(f"unknown builtin surface {name!r}; available: {', '.join(BUILTIN_SURFACES)}")
