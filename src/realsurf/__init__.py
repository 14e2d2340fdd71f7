"""Complex-point invariants of real surfaces in model complex surfaces.

Exact lattice arithmetic for the homology of CP^2 blow-ups and the
elliptic family E(n); the algebraic counts I and I+- of complex points
of embedded surfaces; certificate-producing constructions of totally
real embeddings and Stein disc bundles with an independent verifier;
and a numerical detector/classifier of complex points on parametrized
surfaces in C^2 (Bishop invariant, elliptic/hyperbolic types).

``import realsurf`` loads no submodule.  Each name re-exported here
(``realsurf.k3``, ``from realsurf import Tolerances``, ...) and each of
the submodules ``ambient``, ``bishop``, ``constructions``, ``embedded``
and ``lattice`` is imported on first access.  Only the scanner,
``realsurf.bishop``, imports numpy: Bishop's local model (``Jet2``,
``bishop_alpha``, ``classify``) and ``Tolerances`` come from the
numpy-free ``realsurf.local``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ambient": ("AmbientSurface", "blow_up", "by_name", "cp2", "e", "fiber_sum_check", "k3"),
    "bishop": ("ParametrizedSurface", "builtin_surface", "find_complex_points", "survey"),
    "constructions": (
        "Certificate", "Infeasible", "NoRecipe", "stein_disc_bundle",
        "stein_disc_bundle_nonorientable", "totally_real_nonorientable",
        "totally_real_oriented_in_k3", "verify_certificate",
    ),
    "embedded": (
        "SurfaceClass", "admissible_I", "connected_sum", "i_pm", "i_total", "invariant_report",
        "massey_set", "resolve_union", "stein_basis_possible", "totally_real_possible",
    ),
    "lattice": (
        "HClass", "Lattice", "determinant", "diag", "direct_sum", "e8_neg", "pair", "pairing",
        "signature",
    ),
    "local": ("Jet2", "PointType", "Tolerances", "bishop_alpha", "classify"),
}

# re-exported name -> the submodule that defines it
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules offered as attributes before first import
_SUBMODULES = ("ambient", "bishop", "constructions", "embedded", "lattice")


def __getattr__(name):
    # import_module, not ``from . import x``: the latter looks the
    # submodule up as an attribute first and would re-enter this function
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_SUBMODULE_OF})
