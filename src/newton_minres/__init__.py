"""Synthesis of minimal-resistance convex bodies with one flat, vertically
symmetric cross-section.

The pipeline reduces the shape problem on the unit disk to a single convex
supporting-slope curve, integrates the curve's singular Euler equation out
of its degenerate endpoint, locates the flat/curved switching radius, and
certifies local optimality (adjoint sign, conjugate points, embedding
field).  Geometry helpers rebuild the 3-D body from the curve and integrate
its drag directly as an independent cross-check.
"""

from .errors import (
    SolverError, ContractionFailure, BlowUp, DomainError, NoRoot,
    SignChange, InconsistentScale, EvaluationError,
)
from .singular_ode import (
    SingularIVP, VariationalCoeffs, DenseSolution, MappedSolution,
    accel_at_origin, picard_seed, integrate, integrate_variational,
    variational_accel_at_origin,
)
from .functional import (
    lagrangian_value, lagrangian_partials, el_residual, J_scaled, J_unscaled,
    gamma_form_J, resistance_direct, thread_count,
)
from .extremal import (
    ScaledProfile, ExtremalSolution, AdjointProfile, LimitConstants,
    nu_derivatives_at_one, scaled_arc_ivp, solve_nu,
    I_of, I_closed_form_alpha0, find_switch, assemble_profile,
    adjoint_omega, jacobi_check, field_jacobian_check, abel_residual,
    endpoint_weight_quadrature, endpoint_weight_closed_form,
    unscale, solve_for_height, limit_constants,
)
from .geometry import (
    BodyEvaluator, BodyMesh, body_evaluate, build_mesh, mesh_is_watertight,
    mesh_boundary_report, export_obj,
)

__version__ = "0.1.0"
