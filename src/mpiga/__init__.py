"""Multi-patch isogeometric solver for the biharmonic equation.

Two discretizations over C0-conforming multi-patch spline geometries:
an approximately C1-smooth space built from projected gluing data, and
a symmetric interior penalty (Nitsche) coupling of the plain C0 space.
"""

from .assembly import (
    C0Space,
    assemble_approx_c1,
    assemble_nitsche,
    error_norms,
    estimate_stability_constant,
    stability_constants,
)
from .bspline import KnotVector, SplineSpace, TensorSplineSpace, l2_project
from .c1space import GlobalC1Space, approximate_gluing_data, build_c1_space, homogeneous_subspace
from .experiments import ExperimentConfig, run_convergence, run_eta_sweep, run_jump_study
from .fixtures import builtin_geometry, load_geometry, save_geometry
from .geometry import Patch, Topology, detect_topology, gluing_data

__version__ = "0.1.0"

__all__ = [
    "C0Space",
    "ExperimentConfig",
    "GlobalC1Space",
    "KnotVector",
    "Patch",
    "SplineSpace",
    "TensorSplineSpace",
    "Topology",
    "approximate_gluing_data",
    "assemble_approx_c1",
    "assemble_nitsche",
    "build_c1_space",
    "builtin_geometry",
    "detect_topology",
    "error_norms",
    "estimate_stability_constant",
    "gluing_data",
    "homogeneous_subspace",
    "l2_project",
    "load_geometry",
    "run_convergence",
    "run_eta_sweep",
    "run_jump_study",
    "save_geometry",
    "stability_constants",
]
