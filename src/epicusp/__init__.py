"""Analysis toolkit for two-term exponential-sum plane curves.

The family gamma_{a,b}^s(t) = (1-s) e^{2 pi i a t} + (1+s) e^{2 pi i b t}
is analyzed for winding numbers, cusp singularities, dihedral symmetry and
self-intersection structure, with deterministic SVG rendering and a CLI.
"""

from .curve import (
    CurveSpec,
    ExponentialTerm,
    PlanePoint,
    TwoTermSpec,
    derivative,
    evaluate,
    parametric_derivative,
    rotate,
    sample,
    spec_from_wire,
    spec_to_wire,
)
from .errors import (
    CurveAnalysisError,
    EmptyInput,
    NearPole,
    NotSingular,
    OnCurve,
    Unresolved,
    WindowTooWide,
)
from .geometry import (
    IntersectionRecord,
    SymmetryReport,
    grid_intersection_check,
    self_intersections,
    verify_symmetry,
)
from .render import (
    PlotSpec,
    export_samples,
    render_curve,
    render_param_derivative,
    render_singularity_diagram,
)
from .singularity import (
    CuspCertificate,
    CuspLocus,
    PointKind,
    certify_cusp,
    classify_point,
    find_cusps,
    loop_birth_count,
    predicted_cusp_locus,
    rotated_param_deriv,
    rotation_angle,
    undefined_derivative_set,
)
from .winding import (
    KernelParams,
    WindingResult,
    kernel_integral,
    winding_closed_form,
    winding_decomposition_check,
    winding_numeric,
    zeros_of_curve,
)

__version__ = "0.1.0"

__all__ = [
    "CurveAnalysisError",
    "CurveSpec",
    "CuspCertificate",
    "CuspLocus",
    "EmptyInput",
    "ExponentialTerm",
    "IntersectionRecord",
    "KernelParams",
    "NearPole",
    "NotSingular",
    "OnCurve",
    "PlanePoint",
    "PlotSpec",
    "PointKind",
    "SymmetryReport",
    "TwoTermSpec",
    "Unresolved",
    "WindingResult",
    "WindowTooWide",
    "certify_cusp",
    "classify_point",
    "derivative",
    "evaluate",
    "export_samples",
    "find_cusps",
    "grid_intersection_check",
    "kernel_integral",
    "loop_birth_count",
    "parametric_derivative",
    "predicted_cusp_locus",
    "render_curve",
    "render_param_derivative",
    "render_singularity_diagram",
    "rotate",
    "rotated_param_deriv",
    "rotation_angle",
    "sample",
    "self_intersections",
    "spec_from_wire",
    "spec_to_wire",
    "undefined_derivative_set",
    "verify_symmetry",
    "winding_closed_form",
    "winding_decomposition_check",
    "winding_numeric",
    "zeros_of_curve",
]
