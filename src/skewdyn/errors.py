"""Exception types shared across the toolkit.

Every error raised on a violated precondition derives from SkewdynError so
callers (and the CLI) can distinguish contract violations from bugs.
"""


class SkewdynError(Exception):
    """Base class for all toolkit errors."""


class MultiplierNotContracting(SkewdynError):
    """Base multiplier must satisfy 0 < |lambda| < 1."""


class DegreeTooLow(SkewdynError):
    """Fiber degree must be at least 2."""


class DegenerateFiber(SkewdynError):
    """Unicritical fiber coefficient c0(z) must actually depend on z."""


class BaseOutsideDomain(SkewdynError):
    """Base coordinate must lie inside the working disk B(0, r0)."""


class CriticalHit(SkewdynError):
    """The vertical derivative vanished exactly along the orbit."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"vertical derivative factor is zero at step {index}")


class HorizonNonPositive(SkewdynError):
    """Iteration horizon must be a positive integer."""


class AttractingCyclePresent(SkewdynError):
    """Operation requires the fiber map to have no attracting cycle."""


class EmptyGrid(SkewdynError):
    """No grid point satisfies the scan hypotheses."""


class OriginPeriodic(SkewdynError):
    """(0, 0) is periodic, so slow-approach statistics are undefined."""


class EmptySample(SkewdynError):
    """Sample count must be positive."""


class RateTooLarge(SkewdynError):
    """Exclusion-rate hypothesis e^(d*alpha) * |lambda|^k < 1 fails."""


class ZeroBase(SkewdynError):
    """Base point must be nonzero for this computation."""


class OrbitOverflow(SkewdynError):
    """An orbit left double-precision range before the computation finished."""


class SamplingCapExceeded(SkewdynError):
    """Adaptive boundary refinement hit the sample cap before resolving."""


class PreconditionViolated(SkewdynError):
    """A stated hypothesis of the requested verification does not hold."""


class RootFindingFailed(SkewdynError):
    """Polynomial root refinement did not reach the required residual."""


class CriticalOrbitDegenerate(SkewdynError):
    """A critical orbit hit a configuration the series evaluation cannot use."""


class ConfigInvalid(SkewdynError):
    """Run configuration failed strict validation."""
