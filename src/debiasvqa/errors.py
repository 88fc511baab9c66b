"""Exception types shared across the package, and the text reader that raises one."""
from pathlib import Path


class ShapeError(ValueError):
    """Raised when tensor shapes do not conform to an operation's contract."""


class ConfigError(ValueError):
    """Raised when a configuration is invalid or inconsistent with its data."""


class DataFormatError(ValueError):
    """Raised when a serialized file is malformed or has the wrong version."""


class NumericalError(RuntimeError):
    """Raised when training or evaluation produces a non-finite loss, parameter or logit."""


def read_text(path) -> str:
    """A UTF-8 file's text; a DataFormatError names the file and line of any other byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
