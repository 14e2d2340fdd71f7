"""Complex-point invariants of real surfaces in model complex surfaces.

Exact lattice arithmetic for the homology of CP^2 blow-ups and the
elliptic family E(n); the algebraic counts I and I+- of complex points
of embedded surfaces; certificate-producing constructions of totally
real embeddings and Stein disc bundles with an independent verifier;
and a numerical detector/classifier of complex points on parametrized
surfaces in C^2 (Bishop invariant, elliptic/hyperbolic types).

Only the scanner, ``realsurf.bishop``, imports numpy, and it is loaded on
first use: ``import realsurf`` and the exact-only CLI commands never
import it, and ``realsurf.bishop`` or any of its names re-exported here
(``realsurf.survey``, ``from realsurf import Tolerances``, ...) loads it.
"""

import importlib

from .ambient import AmbientSurface, blow_up, by_name, cp2, e, fiber_sum_check, k3
from .constructions import (
    Certificate,
    Infeasible,
    NoRecipe,
    stein_disc_bundle,
    stein_disc_bundle_nonorientable,
    totally_real_nonorientable,
    totally_real_oriented_in_k3,
    verify_certificate,
)
from .embedded import (
    SurfaceClass,
    admissible_I,
    connected_sum,
    i_pm,
    i_total,
    invariant_report,
    massey_set,
    resolve_union,
    stein_basis_possible,
    totally_real_possible,
)
from .lattice import HClass, Lattice, determinant, diag, direct_sum, e8_neg, pair, pairing, signature

__version__ = "0.1.0"

# re-exported from realsurf.bishop, which is imported on first access
_BISHOP_NAMES = (
    "Jet2",
    "ParametrizedSurface",
    "PointType",
    "Tolerances",
    "bishop_alpha",
    "builtin_surface",
    "classify",
    "find_complex_points",
    "survey",
)


def __getattr__(name):
    # import_module, not ``from . import bishop``: the latter looks the
    # submodule up as an attribute first and would re-enter this function
    if name == "bishop" or name in _BISHOP_NAMES:
        bishop = importlib.import_module(".bishop", __name__)
        return bishop if name == "bishop" else getattr(bishop, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "bishop", *_BISHOP_NAMES})
