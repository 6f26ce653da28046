"""Exception types raised across the package."""


class SquintSimError(Exception):
    """Base class for all squintsim errors."""


class ConfigError(SquintSimError):
    """Invalid configuration value or malformed config file."""


class DegenerateSteer(SquintSimError):
    """Broadside steering (angle 0) makes the requested quantity unbounded."""


class SpacingAssumption(SquintSimError):
    """Operation requires half-wavelength element spacing."""


class Infeasible(SquintSimError):
    """No divisor-based sizing satisfies the coherence bounds."""


class InvalidOrder(SquintSimError):
    """Unsupported QAM order."""


class IndexOutOfRange(SquintSimError):
    """Symbol index outside the constellation."""


class DelayTooLarge(SquintSimError):
    """Requested delay too large relative to the signal length."""


class ZeroSignal(SquintSimError):
    """Operation undefined on an all-zero signal."""


class LengthMismatch(SquintSimError):
    """Inputs must have equal length."""


class ZeroReference(SquintSimError):
    """Reference signal has zero power."""


class InsufficientGuard(SquintSimError):
    """Signal lacks the zero padding needed for circular delays."""


class DimensionMismatch(SquintSimError):
    """Grid dimensions do not match the OFDM configuration."""


class IndivisibleSizing(SquintSimError):
    """Sub-array or tone-group size does not divide the array or tone count."""
