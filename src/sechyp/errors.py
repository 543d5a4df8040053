"""Exception types shared across the toolkit."""


class SechypError(Exception):
    """Base class for all toolkit errors."""


class Blowup(SechypError):
    """State norm exceeded the configured bound during integration."""


class StiffnessFailure(SechypError):
    """Adaptive step size underflowed; the problem is too stiff at the
    requested tolerance."""


class NearSingularity(SechypError):
    """Orbit entered a neighborhood where the flow speed is below the
    cutoff and the linear Poincare flow is undefined."""


class NoReturn(SechypError):
    """No section crossing was found within the time budget."""


class SpectralGapFailure(SechypError):
    """No usable singular-value gap at the requested splitting cut."""


class NotAnEquilibrium(SechypError):
    """The candidate point is not an equilibrium after refinement."""


class NotPeriodic(SechypError):
    """Shooting failed to close a periodic orbit."""


class ShortOrbit(SechypError, ValueError):
    """Splitting left with fewer than two checkpoints after its warmup
    trimming; a ValueError like the splitting's other member faults."""


class WarmupExceedsOrbit(SechypError, ValueError):
    """Splitting member whose orbit is no longer than twice the warmup."""


class NonFiniteBlock(SechypError, ValueError):
    """Splitting member with a block factor that is not finite."""


class SingularBlock(SechypError, ValueError):
    """Splitting member with an exactly singular block factor, which the
    backward sweep cannot pull E^s back through."""


class SingularPoint(SechypError):
    """Map evaluated at a point where it is undefined."""


class ConfigError(SechypError):
    """Invalid run configuration; `field` names the offending entry."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


class TangencyWarning(UserWarning):
    """Section crossing with transversality margin below 1e-3."""
