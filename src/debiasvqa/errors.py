"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when tensor shapes do not conform to an operation's contract."""


class ConfigError(ValueError):
    """Raised when a configuration is invalid or inconsistent with its data."""


class DataFormatError(ValueError):
    """Raised when a serialized file is malformed or has the wrong version."""


class NumericalError(RuntimeError):
    """Raised when training or evaluation produces a non-finite loss, parameter or logit."""
