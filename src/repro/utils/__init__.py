"""Small shared utilities: timing, validation, and seeded randomness.

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.
"""

from repro.utils.rng import rng_from_seed, spawn_rngs
from repro.utils.timer import TimeBreakdown
from repro.utils.validation import (
    check_dtype,
    check_in_range,
    check_int,
    check_nonnegative,
    check_positive,
    check_same_length,
    ensure_int_array,
)

__all__ = [
    "TimeBreakdown",
    "check_dtype",
    "check_in_range",
    "check_int",
    "check_nonnegative",
    "check_positive",
    "check_same_length",
    "ensure_int_array",
    "rng_from_seed",
    "spawn_rngs",
]
