"""surfauto: positive-entropy rational surface automorphisms.

Exact Picard-lattice models of an iterated-blowup family of plane
birational maps, numeric verification of the blowup-chart structure, and
plane dynamics (fixed points, orbits, invariant manifolds).
"""

from .errors import (
    ChartDomainError,
    DegenerateError,
    ExactIdentityError,
    ExtrapolationError,
    IndeterminacyError,
    NotSaddleError,
    NumericCheckError,
    OverflowEscape,
    ParamError,
    PeriodicityError,
    PoleError,
    SurfautoError,
)
from .mapfamily import (
    MapParams,
    admissible_c,
    candidate_c,
    center_series,
    eval_f,
    eval_f_inverse,
    eval_f_proj,
    figure1_params,
    infinity_orbit,
    proj_equal,
    proj_normalize,
    q_value,
)
from .charts import (
    CenterTable,
    ChartId,
    ChartPoint,
    chart_to_plane,
    fiber_target,
    fiber_transition_closed,
    fiber_transition_numeric,
    parabolic_check,
    parabolic_levels,
    plane_to_chart,
    route_chart,
)
from .picard import (
    PicardLattice,
    TSpace,
    char_poly,
    char_poly_factor_check,
    chi_poly,
    degree_sequence,
    entropy,
    gamma_closed_form,
    minimality_report,
    pushforward_char_poly,
    pushforward_columns,
    pushforward_det,
    pushforward_matrix,
    restricted_action,
    s_cycle_lengths,
    spectral_radius,
    strict_image,
    t_space,
)
from .reflections import (
    coxeter_factorization_check,
    noether_chain,
    reversibility_check,
    rho_pushforward,
    t_reflections,
    weyl_factorization_check,
    weyl_generators,
)
from .dynamics import (
    FixedPointRecord,
    OrbitResult,
    Polyline,
    fixed_points,
    iterate_orbit,
    jacobian,
    trace_map_rank,
    trace_set_separation,
    unstable_manifold,
)

__version__ = "0.1.0"
