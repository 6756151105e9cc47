"""Argument-validation helpers with consistent error messages.

All public entry points of the library validate their inputs through these
helpers so that misuse fails fast with a clear message instead of deep inside
a NumPy kernel.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0`` (so NaN fails too)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_int(name: str, value, *, positive: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a Python or NumPy integer
    (never a bool, nothing truncated), and ``> 0`` when ``positive``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if positive:
        check_positive(name, value)


def check_in_range(name: str, value: float, lo: float, hi: float,
                   *, inclusive: bool = False) -> None:
    """Raise ``ValueError`` unless ``lo < value < hi`` (or ``<=`` if inclusive)."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )


def check_same_length(**arrays) -> None:
    """Raise ``ValueError`` unless all named arrays have equal length."""
    lengths = {name: len(arr) for name, arr in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"length mismatch: {lengths}")

