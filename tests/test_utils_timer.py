"""Unit tests for repro.utils.timer."""

import time

import pytest

from repro.utils.timer import Stopwatch, TimeBreakdown


class TestStopwatch:
    def test_measures_nonnegative(self):
        with Stopwatch() as sw:
            pass
        assert sw.elapsed >= 0.0

    def test_measures_sleep(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_lap_restarts(self):
        sw = Stopwatch()
        sw.restart()
        first = sw.lap()
        second = sw.lap()
        assert first >= 0.0 and second >= 0.0


class TestTimeBreakdown:
    def test_charge_accumulates(self):
        bd = TimeBreakdown()
        bd.charge("push", 1.0)
        bd.charge("push", 0.5)
        bd.charge("fetch", 2.0)
        assert bd.get("push") == pytest.approx(1.5)
        assert bd.get("fetch") == pytest.approx(2.0)
        assert bd.total() == pytest.approx(3.5)

    def test_unknown_category_is_zero(self):
        assert TimeBreakdown().get("nope") == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            TimeBreakdown().charge("x", -0.1)

    def test_merge(self):
        a = TimeBreakdown()
        a.charge("x", 1.0)
        b = TimeBreakdown()
        b.charge("x", 2.0)
        b.charge("y", 3.0)
        a.merge(b)
        assert a.get("x") == pytest.approx(3.0)
        assert a.get("y") == pytest.approx(3.0)

    def test_as_dict_is_copy(self):
        bd = TimeBreakdown()
        bd.charge("x", 1.0)
        d = bd.as_dict()
        d["x"] = 99.0
        assert bd.get("x") == pytest.approx(1.0)
