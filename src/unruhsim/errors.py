"""Exception types shared across the package."""


class UnruhSimError(Exception):
    """Base class for all library errors."""


class ConfigError(UnruhSimError, ValueError):
    """Invalid configuration value (truncation, tolerance, sweep grid)."""


class LayoutMismatchError(UnruhSimError, ValueError):
    """Tensor-factor layouts are incompatible or a factor label is unknown."""


class NotSymmetricError(UnruhSimError, ValueError):
    """A matrix that must be symmetric is not, beyond tolerance."""


class PositivityError(UnruhSimError, ValueError):
    """An eigenvalue fell below the negative tolerance window of a PSD matrix."""
