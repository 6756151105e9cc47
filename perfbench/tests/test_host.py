"""Host calibration: the kernel is sampled between batches, off the clock."""

import time

import pytest

from perfbench import workloads
from perfbench.host import REFERENCE_S, SAMPLE_EVERY_S, HostMeter
from perfbench.spec import WORKLOAD_BY_NAME
from perfbench.worker import run_region


def test_factor_is_the_median_sample_over_the_reference():
    meter = HostMeter()
    meter.samples = [REFERENCE_S, 2 * REFERENCE_S, 40 * REFERENCE_S,
                     3 * REFERENCE_S, 4 * REFERENCE_S]
    assert meter.factor() == pytest.approx(3.0)
    assert meter.factor(since=3) == pytest.approx(3.5)
    assert meter.sample() > 0 and len(meter.samples) == 6


def test_kernel_time_is_not_region_time(quick_graph, monkeypatch):
    driver = workloads.make(WORKLOAD_BY_NAME["serve_mixed"])
    dep = driver.deploy(quick_graph, {})
    inputs = driver.make_inputs(quick_graph, dep, seed=3)
    driver.warm(dep, inputs, {})
    meter = HostMeter()
    kernel_s = 5 * SAMPLE_EVERY_S

    def slow_sample():
        time.sleep(kernel_s)
        meter.samples.append(2 * REFERENCE_S)
        return kernel_s

    monkeypatch.setattr(meter, "sample", slow_sample)
    start = time.perf_counter()
    tally = run_region(driver, dep, inputs, seconds=None, n_batches=4,
                       meter=meter)
    elapsed = time.perf_counter() - start
    assert tally.host_factor == pytest.approx(2.0)
    assert len(meter.samples) >= 1
    assert tally.wall_s <= elapsed - kernel_s * len(meter.samples) + 0.05
