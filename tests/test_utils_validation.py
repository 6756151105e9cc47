"""Unit tests for repro.utils.validation and repro.utils.rng."""

import math

import numpy as np
import pytest

from repro.simt import CrashWindow, NetworkModel
from repro.utils.rng import rng_from_seed
from repro.utils.validation import (
    check_in_range,
    check_int,
    check_nonnegative,
    check_positive,
    check_same_length,
)


class TestChecks:
    def test_check_positive_accepts(self):
        check_positive("x", 1e-9)

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_nonnegative_rejects_nan(self):
        """``nan < 0`` is False, so a sign test alone lets NaN through."""
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_nonnegative("x", math.nan)

    def test_nan_network_and_crash_times_fail_where_written(self):
        # a NaN latency used to build and then surface as a scheduler
        # "deadlock" inside engine.run
        with pytest.raises(ValueError, match="latency"):
            NetworkModel(latency=math.nan)
        with pytest.raises(ValueError, match="crash_at"):
            CrashWindow(server="s0", crash_at=math.nan)

    @pytest.mark.parametrize("value", [1, 0, -3, np.int8(2), np.uint64(7)])
    def test_check_int_accepts_python_and_numpy_integers(self, value):
        check_int("n", value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.5,
                                       2.0, "3", None])
    def test_check_int_refuses_bools_and_non_integers(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_int("n", value)

    def test_check_in_range_exclusive(self):
        check_in_range("alpha", 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            check_in_range("alpha", 0.0, 0.0, 1.0)

    def test_check_in_range_inclusive(self):
        check_in_range("p", 1.0, 0.0, 1.0, inclusive=True)

    def test_check_same_length(self):
        check_same_length(a=[1, 2], b=np.array([3, 4]))
        with pytest.raises(ValueError, match="length mismatch"):
            check_same_length(a=[1], b=[1, 2])


class TestRng:
    def test_seed_reproducible(self):
        a = rng_from_seed(42).integers(0, 100, 10)
        b = rng_from_seed(42).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert rng_from_seed(g) is g
