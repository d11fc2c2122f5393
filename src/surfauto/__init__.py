"""surfauto: positive-entropy rational surface automorphisms.

Exact Picard-lattice models of an iterated-blowup family of plane
birational maps, numeric verification of the blowup-chart structure, and
plane dynamics (fixed points, orbits, invariant manifolds).

Importing the package loads the exact layer and the map family only.  The
chart layer (:mod:`surfauto.charts`, on mpmath) and the plane dynamics
(:mod:`surfauto.dynamics`, in Python floats) are imported on first use of
one of their names here, so ``surfauto.CenterTable`` or
``surfauto.fixed_points`` costs its import when it is first read.
"""

import importlib

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

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first use
_LAZY = dict.fromkeys((
    "CenterTable",
    "ChartId",
    "ChartPoint",
    "chart_to_plane",
    "fiber_target",
    "fiber_transition_closed",
    "fiber_transition_numeric",
    "parabolic_check",
    "parabolic_levels",
    "plane_to_chart",
), "charts") | dict.fromkeys((
    "FixedPointRecord",
    "OrbitResult",
    "Polyline",
    "fixed_points",
    "iterate_orbit",
    "jacobian",
    "trace_map_rank",
    "trace_set_separation",
    "unstable_manifold",
), "dynamics")
_LAZY_MODULES = ("charts", "dual", "dynamics", "polyroots")


def __getattr__(name):
    """A chart-layer or dynamics name, or one of their modules, importing
    its module on first use (PEP 562)."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_MODULES))
