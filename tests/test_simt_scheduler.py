"""Unit tests for the discrete-event virtual-time runtime (repro.simt)."""

import pytest

from repro.errors import SimulationError, WorkerCrashedError
from repro.obs import SpanTracer
from repro.simt import COMPUTE, Charge, Scheduler, SimFuture, Sleep, Wait, \
    WaitAll
from repro.simt.process import ProcessClock


class TestBasicProcesses:
    def test_single_process_runs_to_completion(self):
        sched = Scheduler()

        def body():
            yield Charge(1.0, "work")
            return "done"

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.finished
        assert sched.result_of("p0") == "done"
        assert proc.clock == pytest.approx(1.0)
        assert proc.breakdown.get("work") == pytest.approx(1.0)

    def test_sleep_advances_clock(self):
        sched = Scheduler()

        def body():
            yield Sleep(2.5)

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.clock == pytest.approx(2.5)

    def test_charges_accumulate(self):
        sched = Scheduler()

        def body():
            yield Charge(1.0, "a")
            yield Charge(2.0, "b")
            yield Charge(3.0, "a")

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.clock == pytest.approx(6.0)
        assert proc.breakdown.get("a") == pytest.approx(4.0)
        assert proc.breakdown.get("b") == pytest.approx(2.0)

    def test_direct_charge_seconds(self):
        sched = Scheduler()

        def body():
            proc.charge_seconds(0.5, "direct")
            yield Sleep(0.0)

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.clock == pytest.approx(0.5)

    def test_measured_block_advances_clock(self):
        sched = Scheduler()

        def body():
            proc.compute("real", COMPUTE.route(10000))
            yield Sleep(0.0)

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.clock == COMPUTE.route(10000) > 0.0
        assert proc.breakdown.get("real") == proc.clock

    def test_duplicate_name_rejected(self):
        sched = Scheduler()

        def body():
            yield Sleep(0)

        sched.spawn("p", body())
        with pytest.raises(SimulationError, match="duplicate"):
            sched.spawn("p", body())

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Charge(-1.0)
        with pytest.raises(ValueError):
            Sleep(-1.0)


class TestProcessClock:
    """The one ledger: every charged second lands on clock and breakdown."""

    def test_negative_charge_rejected(self):
        proc = ProcessClock("p")
        with pytest.raises(ValueError):
            proc.charge_seconds(-0.5, "net")
        assert proc.clock == 0.0
        assert proc.breakdown.total() == 0.0

    def test_measured_charges_clock_and_breakdown_by_same_float(self):
        proc = ProcessClock("p")
        proc.charge_seconds(0.25, "net")
        work = COMPUTE.push(10000, 300)
        proc.compute("work", work)
        assert work == pytest.approx(COMPUTE.push.call
                                     + 10000 * COMPUTE.push.per_unit[0]
                                     + 300 * COMPUTE.push.per_unit[1])
        assert proc.breakdown.get("work") == work
        assert proc.clock == 0.25 + work
        assert len(proc.breakdown.seconds) == 2
        assert proc.tracer is None  # untraced: no span, nothing else

    def test_cost_term_takes_exactly_its_units(self):
        assert COMPUTE.frontier() == COMPUTE.frontier.call
        with pytest.raises(TypeError, match="takes 2 unit counts, got 1"):
            COMPUTE.push(10)

    def test_traced_measure_span_is_the_clock_advance(self):
        proc = ProcessClock("p")
        proc.tracer = SpanTracer()
        proc.charge_seconds(1.0, "net")
        with proc.span("query"):
            proc.compute("push", COMPUTE.push(10000, 300))
        push, query = proc.tracer.spans
        assert (push.name, push.start, push.end) == ("push", 1.0, proc.clock)
        assert push.parent_id == query.span_id
        assert push.duration == proc.clock - 1.0

    def test_breakdown_conserves_clock_with_crashed_category(self):
        sched = Scheduler()
        ok = SimFuture.resolved("x", ready_time=2.0)
        dead = SimFuture()
        dead.set_exception(WorkerCrashedError("server down"), 5.0)

        def body():
            yield Charge(1.0, "work")
            yield Wait(ok)
            try:
                yield WaitAll([ok, dead])
            except WorkerCrashedError:
                # caught: the next effects run on the same dispatcher
                yield Charge(0.5, "recover")
                yield Wait(ok)
            return "survived"

        proc = sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == "survived"
        assert proc.breakdown.as_dict() == {
            "work": 1.0, "wait": 1.0, "crashed": 3.0, "recover": 0.5}
        assert proc.breakdown.total() == proc.clock == 5.5
        assert proc.waiting_on == ()


class TestFutures:
    def test_wait_on_resolved_future(self):
        sched = Scheduler()
        fut = SimFuture.resolved(42, ready_time=5.0)

        def body():
            value = yield Wait(fut)
            return value

        proc = sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == 42
        # waiting on a future ready at t=5 pulls the clock forward
        assert proc.clock == pytest.approx(5.0)
        assert proc.breakdown.get("wait") == pytest.approx(5.0)

    def test_wait_does_not_rewind_clock(self):
        sched = Scheduler()
        fut = SimFuture.resolved("x", ready_time=1.0)

        def body():
            yield Charge(10.0, "work")
            yield Wait(fut)

        proc = sched.spawn("p0", body())
        sched.run()
        assert proc.clock == pytest.approx(10.0)
        assert proc.breakdown.get("wait") == pytest.approx(0.0)

    def test_wait_all_resumes_at_latest(self):
        sched = Scheduler()
        futs = [SimFuture.resolved(i, ready_time=float(i)) for i in (1, 3, 2)]

        def body():
            values = yield WaitAll(futs)
            return values

        proc = sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == [1, 3, 2]
        assert proc.clock == pytest.approx(3.0)

    def test_wait_all_empty(self):
        sched = Scheduler()

        def body():
            values = yield WaitAll([])
            return values

        sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == []

    def test_future_resolved_by_other_process(self):
        sched = Scheduler()
        fut = SimFuture(tag="handoff")

        def producer():
            yield Sleep(4.0)
            fut.set_result("payload", sched.now)

        def consumer():
            value = yield Wait(fut)
            return value

        sched.spawn("prod", producer())
        cons = sched.spawn("cons", consumer())
        sched.run()
        assert sched.result_of("cons") == "payload"
        assert cons.clock == pytest.approx(4.0)

    def test_future_double_resolve_rejected(self):
        fut = SimFuture()
        fut.set_result(1, 0.0)
        with pytest.raises(SimulationError, match="twice"):
            fut.set_result(2, 0.0)

    def test_future_exception_propagates_to_waiter(self):
        sched = Scheduler()
        fut = SimFuture()
        fut.set_exception(RuntimeError("boom"), 1.0)

        def body():
            try:
                yield Wait(fut)
            except RuntimeError as exc:
                return f"caught {exc}"

        sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == "caught boom"

    def test_unresolved_future_value_raises(self):
        with pytest.raises(SimulationError, match="not resolved"):
            SimFuture().value()
        with pytest.raises(SimulationError, match="not resolved"):
            _ = SimFuture().ready_time


class TestSingleFutureWait:
    """``Wait(f)`` on one future — every fetch — and ``WaitAll([f])``:
    the value they send back, a failure thrown in, the wait's category,
    and a future that was ready before the process clock."""

    def test_wait_sends_the_bare_value_and_wait_all_a_list(self):
        sched = Scheduler()
        ready = SimFuture.resolved("now", ready_time=1.0)
        later = SimFuture(tag="later")
        got = []

        def producer():
            yield Sleep(2.0)
            later.set_result("later", sched.now)

        def body():
            got.append((yield Wait(ready)))
            got.append((yield WaitAll([ready])))
            got.append((yield Wait(later)))
            got.append((yield WaitAll([later])))

        sched.spawn("prod", producer())
        proc = sched.spawn("p0", body())
        sched.run()
        assert got == ["now", ["now"], "later", ["later"]]
        assert proc.clock == 2.0
        assert proc.breakdown.as_dict() == {"wait": 2.0}
        # two starts, the producer's wake-up, one resume per wait
        assert sched.events_executed == 3 + 4

    def test_failure_is_thrown_in_and_a_caught_one_keeps_running(self):
        sched = Scheduler()
        failed = SimFuture()
        failed.set_exception(RuntimeError("boom"), 1.0)
        pending = SimFuture()
        ok = SimFuture.resolved(7, ready_time=3.0)
        seen = []

        def producer():
            yield Sleep(2.0)
            pending.set_exception(KeyError("late"), sched.now)

        def body():
            try:
                yield Wait(failed)
            except RuntimeError as exc:
                seen.append(str(exc))
            try:
                yield Wait(pending)
            except KeyError as exc:
                seen.append(exc.args[0])
                seen.append((yield Wait(ok)))
            return "done"

        sched.spawn("prod", producer())
        proc = sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == "done"
        assert seen == ["boom", "late", 7]
        assert proc.clock == 3.0
        assert proc.waiting_on == ()

    def test_uncaught_failure_fails_the_process(self):
        sched = Scheduler()
        failed = SimFuture()
        failed.set_exception(RuntimeError("boom"), 1.0)

        def body():
            yield Wait(failed)

        sched.spawn("p0", body())
        sched.run()
        with pytest.raises(RuntimeError, match="boom"):
            sched.result_of("p0")

    def test_crashed_worker_is_charged_to_crashed_not_wait(self):
        sched = Scheduler()
        dead = SimFuture()
        dead.set_exception(WorkerCrashedError("server down"), 4.0)

        def body():
            yield Charge(1.0, "work")
            try:
                yield Wait(dead)
            except WorkerCrashedError:
                return "written off"

        proc = sched.spawn("p0", body())
        sched.run()
        assert sched.result_of("p0") == "written off"
        assert proc.breakdown.as_dict() == {"work": 1.0, "crashed": 3.0}
        assert proc.clock == 4.0

    def test_future_ready_before_the_clock_resumes_at_the_clock(self):
        sched = Scheduler()
        early = SimFuture.resolved("x", ready_time=0.25)
        resumed_at = []

        def body():
            yield Charge(1.5, "work")
            value = yield Wait(early)
            resumed_at.append((sched.now, value))

        proc = sched.spawn("p0", body())
        sched.run()
        assert resumed_at == [(1.5, "x")]
        assert proc.clock == 1.5
        assert proc.breakdown.as_dict() == {"work": 1.5, "wait": 0.0}


class TestSchedulerSemantics:
    def test_deadlock_detected(self):
        sched = Scheduler()
        never = SimFuture(tag="never")

        def body():
            yield Wait(never)

        sched.spawn("p0", body())
        with pytest.raises(SimulationError, match="deadlock"):
            sched.run()

    def test_deterministic_interleaving(self):
        def run_once():
            sched = Scheduler()
            order = []

            def mk(name, dts):
                def body():
                    for dt in dts:
                        yield Sleep(dt)
                        order.append((name, sched.now))
                return body

            sched.spawn("a", mk("a", [1.0, 1.0, 1.0])())
            sched.spawn("b", mk("b", [0.5, 1.0, 2.0])())
            sched.run()
            return order

        assert run_once() == run_once()

    def test_makespan(self):
        sched = Scheduler()

        def body(dt):
            yield Sleep(dt)

        fast = sched.spawn("fast", body(1.0))
        slow = sched.spawn("slow", body(7.0))
        assert sched.run() == pytest.approx(7.0)
        assert fast.clock == pytest.approx(1.0)
        assert slow.clock == pytest.approx(7.0)

    def test_process_exception_surfaces_via_result(self):
        sched = Scheduler()

        def body():
            yield Sleep(1.0)
            raise ValueError("inner failure")

        sched.spawn("p0", body())
        sched.run()
        with pytest.raises(ValueError, match="inner failure"):
            sched.result_of("p0")

    def test_passive_process_has_no_body(self):
        sched = Scheduler()
        server = sched.add_passive("server")
        sched.run()  # no events; passive procs don't count as deadlocked
        assert server.clock == 0.0

    def test_max_events_guard(self):
        sched = Scheduler()

        def body():
            while True:
                yield Sleep(1.0)

        sched.spawn("loop", body())
        with pytest.raises(SimulationError, match="max_events"):
            sched.run(max_events=10)
