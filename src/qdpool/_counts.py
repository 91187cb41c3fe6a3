"""The one rule for a count; a leaf module, so every module can import it."""

import numbers


def count(name: str, value, least: int) -> int:
    """``value``, an integer of at least ``least``, as an ``int``; else a ``ValueError`` opening with ``name``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)
