"""Analysis toolkit for two-term exponential-sum plane curves.

The family gamma_{a,b}^s(t) = (1-s) e^{2 pi i a t} + (1+s) e^{2 pi i b t}
is analyzed for winding numbers, cusp singularities, dihedral symmetry and
self-intersection structure, with deterministic SVG rendering and a CLI.

Importing the package loads none of its submodules and no numpy.  Each
public name is imported from the submodule that defines it on first access
(PEP 562), so ``from epicusp import TwoTermSpec`` or ``epicusp.find_cusps``
loads only the numpy-free spec module, while ``epicusp.loop_birth_count``
loads singularity and numpy.
Submodules are reachable as attributes too: ``epicusp.geometry`` imports
geometry.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "curve": ("eval_complex",),
    "errors": (
        "CurveAnalysisError",
        "NearPole",
        "OnCurve",
        "Unresolved",
    ),
    "geometry": (
        "IntersectionRecord",
        "SymmetryReport",
        "grid_intersection_check",
        "self_intersections",
        "verify_symmetry",
    ),
    "render": (
        "render_curve",
        "render_singularity_diagram",
    ),
    "singularity": (
        "loop_birth_count",
        "rotated_param_deriv",
        "undefined_derivative_sets",
    ),
    "spec": (
        "CuspCertificate",
        "CuspLocus",
        "PlanePoint",
        "TwoTermSpec",
        "find_cusps",
        "predicted_cusp_locus",
        "winding_closed_form",
        "zeros_of_curve",
    ),
    "winding": (
        "KernelParams",
        "WindingResult",
        "kernel_integral",
        "winding_numeric",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"acceptance", "cli"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
