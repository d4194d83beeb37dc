"""Exception types shared across the package."""


class PowerGameError(Exception):
    """Base class for all errors raised by this package."""


class SaturationError(PowerGameError):
    """An equilibrium power profile would violate a power cap or the
    non-saturation condition (K-1)*beta_star < 1."""


class CapError(PowerGameError):
    """An equal-received-power profile needs more power than a player's cap.

    Clipping is not an option here: it would break the received-power
    equalization the profile is built on, so callers must shrink the
    active set or raise the cap instead.
    """


class InformationError(PowerGameError):
    """A strategy was asked to act without a signal it requires."""


class ReducibleLawError(PowerGameError):
    """The transition law is not irreducible (some transition probability
    is zero), so stationary/limit quantities are not well defined."""


class ModelError(PowerGameError):
    """A channel model cannot be constructed as specified."""


class ConfigError(PowerGameError):
    """An experiment configuration is malformed or violates the schema."""
