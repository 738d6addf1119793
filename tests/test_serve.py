"""Contracts of the serving layer and the construction facade.

Covers the four ISSUE-mandated serving contracts — batching-window
determinism under a seeded clock, fault-event preemption vs in-flight
requests (epoch parity with ``OnlineRoutingService.flush``),
admission-control shedding, and facade parity with a direct
``RoutingService`` — plus the :func:`make_service` flavours, the load-knob rule,
and off-mesh endpoint rejection at every routing entry point.
"""

import asyncio

import numpy as np
import pytest

from repro.online import OnlineRoutingService
from repro.routing.batch import RoutingService
from repro.serve import (
    AsyncRoutingService,
    ServiceOverloadError,
    ServiceStoppedError,
    VirtualClock,
    make_trace,
    run_load,
    run_offered_load_sweep,
)
from repro.service import make_service
from repro.util.rng import make_rng


def small_mask(seed=7, shape=(6, 6, 6), faults=6):
    from repro.experiments.workloads import random_fault_mask

    return random_fault_mask(shape, faults, rng=make_rng(seed))


def pending_timers(clock) -> int:
    """Timers still queued on a virtual clock."""
    return len(clock._timers)


async def _pump(clock, awaitable):
    """Await something that only resolves once virtual time advances."""
    task = asyncio.ensure_future(awaitable)
    while not task.done():
        if not await clock.advance():
            break  # no live timers left; let await surface the state
    return await task


class TestVirtualClock:
    def test_same_deadline_fires_in_registration_order(self):
        clock = VirtualClock()
        order = []

        async def sleeper(tag):
            await clock.sleep(1.0)
            order.append(tag)

        async def scenario():
            tasks = [
                asyncio.get_running_loop().create_task(sleeper(k))
                for k in range(5)
            ]
            while not all(t.done() for t in tasks):
                await clock.advance()

        asyncio.run(scenario())
        assert order == [0, 1, 2, 3, 4]
        assert clock.now() == 1.0

    def test_advance_skips_a_wholly_cancelled_deadline_group(self):
        # Every timer due at 1.0 is cancelled: advance moves on to the
        # next deadline group in one call and fires it in registration
        # order, and a later advance finds no live timer.
        clock = VirtualClock()
        order = []

        async def sleeper(tag, delay):
            await clock.sleep(delay)
            order.append(tag)

        async def scenario():
            loop = asyncio.get_running_loop()
            doomed = [loop.create_task(sleeper(k, 1.0)) for k in range(3)]
            kept = [loop.create_task(sleeper(k, 2.0)) for k in (3, 4)]
            await asyncio.sleep(0)  # every sleeper registers its timer
            assert pending_timers(clock) == 5
            for task in doomed:
                task.cancel()
            assert await clock.advance() is True
            assert clock.now() == 2.0
            assert all(task.done() for task in kept)
            assert pending_timers(clock) == 0
            assert await clock.advance() is False

        asyncio.run(scenario())
        assert order == [3, 4]

    def test_advance_settles_before_reporting_idle(self):
        # A freshly created task that will register a timer must get a
        # chance to run before advance() declares the clock idle.
        clock = VirtualClock()

        async def scenario():
            task = asyncio.get_running_loop().create_task(clock.sleep(2.0))
            assert await clock.advance() is True  # not a false idle
            assert clock.now() == 2.0
            await task
            assert await clock.advance() is False

        asyncio.run(scenario())

    def test_due_now_sleep_still_yields(self):
        clock = VirtualClock()

        async def scenario():
            await clock.sleep(0.0)  # must not deadlock or register a timer
            assert pending_timers(clock) == 0

        asyncio.run(scenario())

    def test_sleep_until_inf_blocks_until_cancelled(self):
        # "Sleep forever until cancelled" must block, not raise: the
        # non-finite deadline registers no timer, so advance() reports
        # no live deadline while the sleeper stays pending.
        clock = VirtualClock()

        async def scenario():
            task = asyncio.get_running_loop().create_task(
                clock.sleep_until(float("inf"))
            )
            assert await clock.advance() is False
            assert not task.done()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert pending_timers(clock) == 0

        asyncio.run(scenario())


class TestBatchingDeterminism:
    def test_one_window_coalesces_to_one_batch(self):
        mask = small_mask()
        trace = make_trace(
            (6, 6, 6), 6, rate=400.0, duration=0.009, seed=7, min_distance=2
        )
        assert trace.offered > 1
        service = AsyncRoutingService(
            trace.seed_mask.copy(), clock=VirtualClock(), batch_window=0.01
        )
        records = asyncio.run(run_load(service, trace))
        m = service.metrics()
        assert len(records) == trace.offered
        # Every arrival landed inside the first window: one batch.
        assert m.batches == 1
        assert m.max_batch == trace.offered
        assert mask.shape == trace.seed_mask.shape

    def test_replay_is_identical(self):
        trace = make_trace((6, 6, 6), 8, rate=500.0, duration=0.3, events=2, seed=13)

        def once():
            service = AsyncRoutingService(
                trace.seed_mask.copy(), clock=VirtualClock(), batch_window=0.005
            )
            return asyncio.run(run_load(service, trace)), service.metrics()

        records_a, metrics_a = once()
        records_b, metrics_b = once()
        assert records_a == records_b  # CompletedRequest dataclass equality
        assert metrics_a == metrics_b

    def test_saved_sweep_tables_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            run_offered_load_sweep(
                (6, 6, 6),
                6,
                [100.0, 300.0],
                profile="spike",
                duration=0.25,
                events=2,
                seed=42,
                save=str(p),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_generation_is_pure(self):
        t1 = make_trace((6, 6, 6), 6, profile="ramp", rate=300.0, seed=5)
        t2 = make_trace((6, 6, 6), 6, profile="ramp", rate=300.0, seed=5)
        assert t1.requests == t2.requests
        assert np.array_equal(t1.seed_mask, t2.seed_mask)
        t3 = make_trace((6, 6, 6), 6, profile="ramp", rate=300.0, seed=6)
        assert t1.requests != t3.requests

    def test_run_load_rejects_mismatched_mask(self):
        trace = make_trace((6, 6, 6), 6, rate=100.0, duration=0.05, seed=5)
        other = np.zeros((6, 6, 6), dtype=bool)
        service = AsyncRoutingService(other, clock=VirtualClock())
        with pytest.raises(ValueError, match="seed mask"):
            asyncio.run(run_load(service, trace))


class TestFaultEventPreemption:
    def test_preemption_answers_in_flight_at_submission_epoch(self):
        mask = small_mask(seed=11)
        trace = make_trace((6, 6, 6), 6, rate=200.0, duration=0.05, seed=11)
        pairs = [(r.source, r.dest) for r in trace.requests[:3]]
        assert len(pairs) >= 2
        cells = [tuple(np.argwhere(~mask)[0])]

        async def scenario():
            service = AsyncRoutingService(
                mask.copy(), clock=VirtualClock(), batch_window=1.0
            )
            async with service:
                loop = asyncio.get_running_loop()
                early = [loop.create_task(service.route(s, d)) for s, d in pairs]
                await asyncio.sleep(0)  # let the clients enqueue
                assert service.metrics().queue_depth == len(pairs)
                service.apply_event("inject", cells)  # preempts the window
                # The event resolved every in-flight request: no batch
                # tick was needed, and the queue is empty again.
                done = [await t for t in early]
                assert service.metrics().queue_depth == 0
                late = await _pump(service.clock, service.route(*pairs[0]))
                return done, late, service.metrics()

        done, late, m = asyncio.run(scenario())
        # In-flight requests answered at their submission epoch (0),
        # strictly before the mutation; the later request sees epoch 1.
        assert [r.epoch for r in done] == [0] * len(pairs)
        assert late.epoch == 1
        assert m.events == 1
        assert m.epoch == 1

    def test_epoch_parity_with_online_flush(self):
        mask = small_mask(seed=11)
        trace = make_trace((6, 6, 6), 6, rate=200.0, duration=0.05, seed=11)
        pairs = [(r.source, r.dest) for r in trace.requests[:3]]
        cells = [tuple(np.argwhere(~mask)[0])]

        # Reference: the same schedule driven through the online
        # service's own submit/flush queue.
        online = make_service(mask.copy(), online=True)
        tickets = [online.submit(s, d) for s, d in pairs]
        online.inject(cells)  # flushes the queue first, then mutates
        reference = online.take_completed()
        ref_results = [reference[t] for t in tickets]
        ref_late = online.route(*pairs[0])

        async def scenario():
            service = AsyncRoutingService(
                mask.copy(), clock=VirtualClock(), batch_window=1.0
            )
            async with service:
                loop = asyncio.get_running_loop()
                early = [loop.create_task(service.route(s, d)) for s, d in pairs]
                await asyncio.sleep(0)
                service.apply_event("inject", cells)
                done = [await t for t in early]
                late = await _pump(service.clock, service.route(*pairs[0]))
                return done, late

        done, late = asyncio.run(scenario())
        assert done == ref_results  # identical RouteResults, epochs included
        assert late == ref_late


class TestAdmissionControl:
    def test_shedding_past_queue_depth(self):
        mask = small_mask(seed=3)
        trace = make_trace((6, 6, 6), 6, rate=200.0, duration=0.1, seed=3)
        pairs = [(r.source, r.dest) for r in trace.requests]
        depth = 3
        assert len(pairs) > depth

        async def scenario():
            service = AsyncRoutingService(
                mask.copy(),
                clock=VirtualClock(),
                batch_window=0.01,
                max_queue_depth=depth,
            )
            async with service:
                loop = asyncio.get_running_loop()
                accepted = [
                    loop.create_task(service.route(s, d))
                    for s, d in pairs[:depth]
                ]
                await asyncio.sleep(0)  # fill the queue to its bound
                shed = 0
                for s, d in pairs[depth:]:
                    with pytest.raises(ServiceOverloadError):
                        await service.route(s, d)
                    shed += 1
                results = await _pump(
                    service.clock, asyncio.gather(*accepted)
                )
                return results, shed, service.metrics()

        results, shed, m = asyncio.run(scenario())
        assert all(r.epoch == 0 for r in results)
        assert m.shed == shed
        assert m.completed == depth
        assert m.requests == depth + shed

    def test_route_outside_lifecycle_raises(self):
        service = AsyncRoutingService(small_mask(), clock=VirtualClock())

        async def scenario():
            with pytest.raises(ServiceStoppedError):
                await service.route((0, 0, 0), (5, 5, 5))

        asyncio.run(scenario())

    def test_constructor_validation(self):
        mask = small_mask()
        with pytest.raises(ValueError, match="batch_window"):
            AsyncRoutingService(mask, batch_window=0.0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            AsyncRoutingService(mask, max_queue_depth=0)

    @pytest.mark.parametrize("window", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_constructor_rejects_a_non_finite_batch_window(self, window):
        # NaN used to fail only inside the event queue, and inf stalled
        # the load run: the window follows the rule for durations.
        with pytest.raises(ValueError, match="batch_window must be finite and > 0"):
            AsyncRoutingService(small_mask(), batch_window=window)


class TestFacadeParity:
    def test_served_results_match_direct_routing_service(self):
        trace = make_trace((6, 6, 6), 8, rate=400.0, duration=0.2, seed=21)
        service = AsyncRoutingService(
            trace.seed_mask.copy(), clock=VirtualClock(), batch_window=0.005
        )
        asyncio.run(run_load(service, trace))
        served = asyncio.run(_collect(trace))

        direct = RoutingService(trace.seed_mask.copy(), mode="mcc")
        expected = direct.route_batch(
            [(r.source, r.dest) for r in trace.requests]
        )
        assert len(served) == len(expected)
        for got, want in zip(served, expected, strict=True):
            # Element-wise identical verdicts and paths; only the epoch
            # stamp differs (online results carry 0, static carry None).
            assert got.epoch == 0
            assert (got.delivered, got.path, got.feasible, got.stuck_at) == (
                want.delivered,
                want.path,
                want.feasible,
                want.stuck_at,
            )


async def _collect(trace):
    """Route a trace's pairs through a fresh served stack, trace order."""
    service = AsyncRoutingService(
        trace.seed_mask.copy(), clock=VirtualClock(), batch_window=0.005
    )
    async with service:
        loop = asyncio.get_running_loop()
        tasks = [
            loop.create_task(service.route(r.source, r.dest))
            for r in trace.requests
        ]
        gathered = asyncio.gather(*tasks)
        while not gathered.done():
            await service.clock.advance()
        return await gathered


class TestMakeServiceFacade:
    def test_default_flavour_is_routing_service(self):
        service = make_service(small_mask())
        assert isinstance(service, RoutingService)

    def test_online_flavour(self):
        service = make_service(small_mask(), online=True)
        assert isinstance(service, OnlineRoutingService)
        assert service.epoch == 0

    def test_facade_routes_like_direct_construction(self):
        mask = small_mask(seed=9)
        trace = make_trace((6, 6, 6), 6, rate=300.0, duration=0.1, seed=9)
        pairs = [(r.source, r.dest) for r in trace.requests]
        via_facade = make_service(mask, mode="mcc").route_batch(pairs)
        direct = RoutingService(mask, mode="mcc").route_batch(pairs)
        assert via_facade == direct


class TestLoadKnobRule:
    """Rates and durations finite and > 0, churn >= 1, counts >= 0."""

    @pytest.mark.parametrize(
        "knobs",
        [
            {"rate": float("nan")},
            {"rate": float("inf")},
            {"rate": 0.0},
            {"duration": float("inf")},
            {"duration": float("nan")},
            {"churn": 0},
            {"events": -1},
        ],
        ids=["nan-rate", "inf-rate", "zero-rate", "inf-duration",
             "nan-duration", "zero-churn", "negative-events"],
    )
    def test_make_trace_rejects_bad_knobs(self, deadline, knobs):
        # NaN and inf used to loop forever: the deadline turns a hang
        # into a failure.
        kwargs = {"rate": 200.0, "duration": 0.05, "seed": 5, **knobs}
        with deadline(2), pytest.raises(ValueError):
            make_trace((6, 6, 6), 6, **kwargs)

    def test_sweep_rejects_a_bad_rate_before_any_rate_runs(self, monkeypatch):
        from repro.serve import loadgen

        async def no_run(*args, **kwargs):
            raise AssertionError("a rate ran")

        monkeypatch.setattr(loadgen, "run_load", no_run)
        with pytest.raises(ValueError, match="rates must be finite and > 0"):
            run_offered_load_sweep(
                (6, 6, 6), 6, [100.0, float("nan")], duration=0.05
            )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rates", "nan"], "rates must be finite and > 0"),
            (["--rates", "100", "inf"], "rates must be finite and > 0"),
            (["--duration", "inf"], "duration must be finite and > 0"),
            (["--duration", "nan"], "duration must be finite and > 0"),
            (["--churn", "0"], "churn must be >= 1"),
            (["--events", "-1"], "events must be >= 0"),
            (["--faults", "-1"], "fault count must be >= 0"),
            (["--faults", "100000"], "cannot place 100000 faults in mesh of 512"),
            (["--shape", "8", "0", "8"], "mesh axis lengths must be >= 1"),
            (["--depth", "0"], "--depth must be >= 1"),
            (["--seed", "-1"], "--seed must be >= 0"),
            (["--batch-window", "nan"], "batch_window must be finite and > 0"),
            (["--batch-window", "inf"], "batch_window must be finite and > 0"),
            (["--batch-window", "0"], "batch_window must be finite and > 0"),
            (["--batch-window", "-1"], "batch_window must be finite and > 0"),
        ],
        ids=["nan-rate", "inf-rate", "inf-duration", "nan-duration",
             "zero-churn", "negative-events", "negative-faults",
             "faults-above-size", "zero-length-axis", "zero-depth",
             "negative-seed", "nan-window", "inf-window", "zero-window",
             "negative-window"],
    )
    def test_cli_reports_bad_knobs_as_usage_errors(
        self, capsys, monkeypatch, flags, message
    ):
        from repro.serve import __main__ as cli
        from repro.serve import loadgen

        def no_run(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(loadgen, "run_offered_load_sweep", no_run)
        with pytest.raises(SystemExit) as exc:
            cli.main(flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and message in err


class TestOffMeshEndpoints:
    def test_every_entry_point_rejects_off_mesh_endpoints(self):
        # numpy reads a negative index from the far end of an axis, so an
        # unchecked (-1, 0) would route from (4, 0) and call it minimal.
        mask = np.zeros((5, 5), dtype=bool)
        service = RoutingService(mask)
        online = OnlineRoutingService(mask.copy())
        good = ((0, 0), (4, 4))
        for bad in [((-1, 0), (4, 4)), (good[0], (0, -2)), ((-3, 1), (4, 4)),
                    ((5, 0), (4, 4))]:
            with pytest.raises(IndexError, match="outside mesh"):
                service.route(*bad)
            with pytest.raises(IndexError, match="outside mesh"):
                service.feasible_batch([good, bad])
            with pytest.raises(IndexError, match="outside mesh"):
                service.route_batch([good, bad])
            with pytest.raises(IndexError, match="outside mesh"):
                online.submit(*bad)
        assert online.flush() == {}

        async def scenario():
            served = AsyncRoutingService(mask.copy(), clock=VirtualClock())
            async with served:
                with pytest.raises(IndexError, match="outside mesh"):
                    await _pump(served.clock, served.route((-3, 1), (4, 4)))
                # The rejection happens before queueing: the batcher
                # lives on and answers the next valid request.
                result = await _pump(served.clock, served.route(*good))
                return result, served.metrics()

        result, metrics = asyncio.run(scenario())
        assert result.delivered and result.path[0] == (0, 0)
        assert metrics.requests == metrics.completed == 1
