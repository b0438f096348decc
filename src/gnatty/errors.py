"""Exception types shared across the package, and the integer check of
the config classes."""

import operator


class GnattyError(Exception):
    """Base class for all library errors."""


class ConfigError(GnattyError):
    """Invalid parameter or precondition violation (CLI exit code 1)."""


class DatasetFormatError(GnattyError):
    """Malformed dataset file (CLI exit code 2)."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class OracleMismatchError(GnattyError):
    """An index returned results that differ from the linear-scan oracle (CLI exit code 3)."""


def integer(name: str, value) -> int:
    """value as an int when operator.index takes it (ints, numpy ints),
    else ConfigError: a float such as 8.0 is not an integer field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
