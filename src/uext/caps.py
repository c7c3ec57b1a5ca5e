"""Resource caps read from the environment.

Every enumeration cap is a nonnegative integer in an environment variable;
a value that is not one is bad input, reported like any other.
"""

from __future__ import annotations

import os

from .errors import InputError


def env_limit(name: str, default: int) -> int:
    """The cap set in environment variable `name`, or `default` when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {raw!r}")
    return value
