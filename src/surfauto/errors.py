"""Exception types shared across the package."""


class SurfautoError(Exception):
    """Base class for package errors."""


class ParamError(SurfautoError):
    """Invalid map parameters."""


class PoleError(SurfautoError):
    """Evaluation at (or too close to) a pole."""


class OverflowEscape(SurfautoError, OverflowError):
    """Magnitude cap exceeded during evaluation."""


class IndeterminacyError(SurfautoError):
    """Projective evaluation at the indeterminacy point."""


class ChartDomainError(SurfautoError):
    """Point lies outside the domain of the requested chart."""


class ExtrapolationError(SurfautoError):
    """Richardson extrapolation failed to converge."""


class DegenerateError(SurfautoError):
    """Formula undefined for these (n, k)."""


class NotSaddleError(SurfautoError):
    """Manifold tracing requires a saddle fixed point."""


class ExactIdentityError(SurfautoError):
    """An exact identity of the lattice model does not hold."""


class NumericCheckError(SurfautoError):
    """A computed result fails its residual or structural check."""
