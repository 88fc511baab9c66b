"""Exception types shared across the package, the text reader that raises one,
and the one type and bound check of every config dataclass's fields."""
import sys
from dataclasses import MISSING, field, fields
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


def bounded(low, default=MISSING, above=False):
    """A dataclass field that :func:`check_fields` holds at least ``low``, or past it if ``above``."""
    return field(default=default, metadata={"low": low, "above": above})


def check_fields(config) -> None:
    """Raise ConfigError unless each field annotated ``int`` holds an int, each
    ``float`` field a finite int or float (never a bool; kept as a float), each
    other field an instance of the class it names, and each :func:`bounded`
    field its bound.  Annotations are text: use ``from __future__ import annotations``."""
    for f in fields(config):
        value, low, above = getattr(config, f.name), f.metadata.get("low"), f.metadata.get("above")
        if f.type not in ("int", "float") and f.type not in (c.__name__ for c in type(value).__mro__):
            raise ConfigError(f"{f.name} must be a {f.type}, got {value!r}")
        if f.type == "int" and type(value) is not int:
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if f.type == "float" and not abs(value) <= sys.float_info.max:  # NaN fails every comparison
            raise ConfigError(f"{f.name} must be finite, got {value}")
        if f.type == "float":  # so equal configs print, and fingerprint, alike
            object.__setattr__(config, f.name, value := float(value))
        if low is not None and not (value > low if above else value >= low):
            raise ConfigError(f"{f.name} must be {'>' if above else '>='} {low:g}, got {value}")
