"""Exception types shared across the package.  Each carries the exit code and
stderr label of the `sgdmc` command it ends; the base class's code 5 marks
errors that only a program fault can raise."""

INTERNAL_ERROR = 5


class SgdmcError(Exception):
    """Base class for all package-specific errors."""

    exit_code = INTERNAL_ERROR

    @property
    def label(self) -> str:
        return f"internal error: {type(self).__name__}"


class ConfigError(SgdmcError):
    """A run configuration or command line failed to parse or validate."""

    exit_code = 1
    label = "config error"


class GridTooCoarse(ConfigError, ValueError):
    """A grid cell overlaps two absorbing intervals."""


class AssumptionViolation(SgdmcError):
    """The input breaks an assumption of the theory: coercive summands,
    inconsistent optimization, or a step size in (0, 1/K)."""

    exit_code = 2
    label = "assumption violation"


class NonCoercive(AssumptionViolation):
    """A component polynomial does not grow to +inf in both directions."""


class EmptyCriticalSet(AssumptionViolation):
    """A dimension has no critical points (no nonzero component)."""


class AssumptionA5Violated(AssumptionViolation):
    """Distinct components share a critical point (within tolerance)."""


class InadmissibleStep(AssumptionViolation, ValueError):
    """The step size lies outside (0, 1/K)."""


class NoConvergence(SgdmcError):
    """An iteration hit max_iter before meeting its tolerance."""

    exit_code = 3
    label = "no convergence"

    def __init__(self, max_iter, residual):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(f"no convergence after {max_iter} iterations (residual {residual:.3e})")


class NonTermination(SgdmcError):
    """A greedy escape walk exceeded the hard step cap."""

    exit_code = 3
    label = "no convergence"


class SingularDiffusion(SgdmcError):
    """The diffusion coefficient vanishes somewhere on the state space."""

    exit_code = 4
    label = "singular diffusion"

    def __init__(self, points):
        self.points = list(points)
        super().__init__(f"diffusion coefficient vanishes at {len(self.points)} grid point(s)")


class DegenerateDerivative(SgdmcError):
    """A nonzero component has an identically zero derivative."""


class NoAbsorbingSet(SgdmcError):
    """No absorbing interval was found; the theory guarantees at least one."""


class InvarianceCheckFailed(SgdmcError):
    """A rectangle failed the positive-invariance corner check."""

    def __init__(self, map_index, rect_index, corner):
        self.map_index = map_index
        self.rect_index = rect_index
        self.corner = corner
        super().__init__(
            f"map {map_index} moves corner {corner} out of rectangle {rect_index}"
        )


class OutOfStateSpace(SgdmcError):
    """A point lies outside the state space beyond tolerance."""


class NotFound(SgdmcError):
    """No splitting certificate within the path-length budget."""

    def __init__(self, ell_max, gaps=None):
        self.ell_max = ell_max
        self.gaps = gaps if gaps is not None else {}
        super().__init__(f"no certificate with path length <= {ell_max}; gaps: {self.gaps}")


class DimensionMismatch(SgdmcError):
    """A weight vector or map family does not fit the grid's shape."""


class GridMismatch(SgdmcError):
    """Measures, operators or basin functions live on different grids."""
