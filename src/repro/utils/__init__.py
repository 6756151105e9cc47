"""Small shared utilities: the per-category time breakdown, argument
checks that fail fast at the API boundary, and seeded randomness.

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.
"""

from repro.utils.rng import rng_from_seed
from repro.utils.timer import TimeBreakdown
from repro.utils.validation import (
    check_in_range,
    check_int,
    check_nonnegative,
    check_positive,
    check_same_length,
)

__all__ = [
    "TimeBreakdown",
    "check_in_range",
    "check_int",
    "check_nonnegative",
    "check_positive",
    "check_same_length",
    "rng_from_seed",
]
