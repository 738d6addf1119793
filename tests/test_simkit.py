"""Tests for the discrete-event simulation kit."""

import numpy as np
import pytest

from repro import obs
from repro.mesh.regions import mask_of_cells
from repro.mesh.topology import Mesh2D, Mesh3D
from repro.simkit.event_queue import EventQueue
from repro.simkit.message import Message
from repro.simkit.network import MeshNetwork
from repro.simkit.node import NodeProcess
from repro.simkit.simulator import Simulator
from repro.simkit.stats import StatsCollector
from tests.conftest import record_deliveries


def _drain(q):
    """Every ``(time, item)`` left in ``q``, group by group."""
    out = []
    while (group := q.pop_group()) is not None:
        time, fifo = group
        out += [(time, item) for item in fifo]
    return out


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert _drain(q) == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert not q and q.pop_group() is None

    def test_fifo_tie_breaking(self):
        q = EventQueue()
        for i in range(5):
            q.push(1.0, i)
        time, fifo = q.pop_group()
        assert time == 1.0 and list(fifo) == [0, 1, 2, 3, 4]
        assert not q

    def test_push_at_a_popped_time_starts_the_next_group(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(2.0, "c")
        time, fifo = q.pop_group()
        q.push(1.0, "b")
        assert (time, list(fifo)) == (1.0, ["a"])
        assert q.peek_time() == 1.0 and len(q) == 2
        assert _drain(q) == [(1.0, "b"), (2.0, "c")]

    def test_put_back_goes_ahead_of_later_pushes(self):
        q = EventQueue()
        for item in ("a", "b", "c"):
            q.push(1.0, item)
        time, fifo = q.pop_group()
        fifo.popleft()
        q.push(1.0, "d")
        q.push(0.5, "first")
        q.put_back(time, fifo)
        assert len(q) == 4
        assert _drain(q) == [(0.5, "first"), (1.0, "b"), (1.0, "c"), (1.0, "d")]

    def test_put_back_restores_a_time_and_ignores_an_empty_rest(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(1.0, "b")
        time, fifo = q.pop_group()
        fifo.popleft()
        q.put_back(time, fifo)
        assert q.peek_time() == 1.0 and len(q) == 1
        time, fifo = q.pop_group()
        fifo.popleft()
        q.put_back(time, fifo)
        assert not q and q.peek_time() is None and len(q) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1, lambda: None)

    def test_peek(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(5.0, lambda: None)
        assert q.peek_time() == 5.0


class _RecordingObserver:
    """A no-op observer that records the ``now`` of each event it brackets."""

    def __init__(self):
        self.nows = []
        self.afters = 0
        self.inside = False

    def before_event(self, now):
        assert not self.inside
        self.inside = True
        self.nows.append(now)

    def after_event(self):
        assert self.inside
        self.inside = False
        self.afters += 1


def _run_both(case):
    """Run ``case(sim, fired)`` without and then with an observer.

    Every action in ``case`` appends one ``(label, sim.now)`` record to
    ``fired``.  Both runs must fire the same actions in the same order
    at the same ``now`` and count the same events, and the observer must
    bracket each event once, seeing that event's ``now``.  Returns the
    unobserved simulator and its fire log.
    """
    runs = []
    for observer in (None, _RecordingObserver()):
        sim = Simulator()
        sim.observer = observer
        fired = []
        case(sim, fired)
        runs.append((sim, fired))
    (plain, fired), (observed, observed_fired) = runs
    assert observed_fired == fired
    assert observed.now == plain.now
    assert observed.events_processed == plain.events_processed
    assert observed.observer.nows == [now for _, now in fired]
    # One before/after pair per event, a raising one included.
    assert observed.observer.afters == len(observed.observer.nows)
    assert observed.observer.afters == observed.events_processed
    assert not observed.observer.inside
    return plain, fired


def _note(sim, fired, label):
    """An action that records its label and the time it fired at."""
    return lambda: fired.append((label, sim.now))


class TestSimulator:
    def test_clock_advances(self):
        def case(sim, fired):
            sim.schedule(2.0, _note(sim, fired, "b"))
            sim.schedule(1.0, _note(sim, fired, "a"))
            sim.run()

        sim, fired = _run_both(case)
        assert fired == [("a", 1.0), ("b", 2.0)]
        assert sim.now == 2.0

    def test_nested_scheduling(self):
        def case(sim, fired):
            def first():
                fired.append(("first", sim.now))
                sim.schedule(1.0, _note(sim, fired, "second"))

            sim.schedule(1.0, first)
            sim.run_to_quiescence()

        sim, fired = _run_both(case)
        assert fired == [("first", 1.0), ("second", 2.0)]
        assert sim.now == 2.0

    def test_until_limit(self):
        def case(sim, fired):
            sim.schedule(1.0, _note(sim, fired, 1))
            sim.schedule(5.0, _note(sim, fired, 5))
            sim.run(until=2.0)

        sim, fired = _run_both(case)
        assert fired == [(1, 1.0)]
        assert not sim.idle

    def test_max_events_stops_inside_a_timestamp(self):
        # A budget that ends inside one time's FIFO leaves the rest of
        # that FIFO queued, and the next run resumes it in push order.
        def case(sim, fired):
            for label in ("a", "b", "c"):
                sim.schedule(1.0, _note(sim, fired, label))
            sim.schedule(2.0, _note(sim, fired, "d"))
            assert sim.run(max_events=2) == 2
            assert len(sim.queue) == 2 and sim.queue.peek_time() == 1.0
            assert sim.run(max_events=0) == 0
            sim.run()

        sim, fired = _run_both(case)
        assert fired == [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)]
        assert sim.events_processed == 4

    @staticmethod
    def _chained(sim, fired):
        """Three events at 1.0 whose actions push at 1.0 and 2.0, and one at 3.0.

        Each of ``a`` and ``b`` pushes one event at its own time (delay
        0), which must run after every event already due then, and one
        a time unit later.
        """

        def spawn(label):
            def action():
                fired.append((label, sim.now))
                sim.schedule(0.0, _note(sim, fired, label + "0"))
                sim.schedule(1.0, _note(sim, fired, label + "1"))

            return action

        sim.schedule(1.0, spawn("a"))
        sim.schedule(1.0, spawn("b"))
        sim.schedule(1.0, _note(sim, fired, "c"))
        sim.schedule(3.0, _note(sim, fired, "d"))

    CHAINED_ORDER = [
        ("a", 1.0), ("b", 1.0), ("c", 1.0), ("a0", 1.0), ("b0", 1.0),
        ("a1", 2.0), ("b1", 2.0), ("d", 3.0),
    ]

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 7])
    def test_resumed_runs_replay_one_run(self, budget):
        # Runs cut by a budget, anywhere inside a timestamp, and resumed
        # fire the events of one uncut run in the same order.
        def case(sim, fired):
            self._chained(sim, fired)
            while not sim.idle:
                before = len(fired)
                assert sim.run(max_events=budget) == len(fired) - before
                assert len(fired) - before <= budget
                # Four events at the start, and two more per spawner run.
                spawned = 2 * sum(label in ("a", "b") for label, _ in fired)
                assert len(sim.queue) == 4 + spawned - len(fired)

        sim, fired = _run_both(case)
        assert fired == self.CHAINED_ORDER
        assert sim.events_processed == len(self.CHAINED_ORDER)

    def test_until_stops_at_a_timestamp_boundary(self):
        # ``until`` runs every event due by then, the ones pushed at
        # that very time while it runs included, and nothing later.
        def case(sim, fired):
            self._chained(sim, fired)
            assert sim.run(until=1.0) == 5
            assert sim.queue.peek_time() == 2.0 and len(sim.queue) == 3
            assert sim.run(until=2.5) == 2
            assert sim.now == 2.0 and sim.queue.peek_time() == 3.0
            sim.run()

        sim, fired = _run_both(case)
        assert fired == self.CHAINED_ORDER

    def test_raise_inside_a_timestamp_leaves_the_rest_queued(self):
        # The second of three events at 1.0 pushes one more at 1.0 and
        # raises: the queue then holds exactly the two events not yet
        # run, in the order one uncut run would fire them.
        def case(sim, fired):
            def boom():
                fired.append(("boom", sim.now))
                sim.schedule(0.0, _note(sim, fired, "pushed"))
                raise KeyError("boom")

            sim.schedule(1.0, _note(sim, fired, "a"))
            sim.schedule(1.0, boom)
            sim.schedule(1.0, _note(sim, fired, "c"))
            with pytest.raises(KeyError):
                sim.run()
            assert len(sim.queue) == 2 and sim.queue.peek_time() == 1.0
            assert not sim.idle
            assert sim.run() == 2
            assert len(sim.queue) == 0 and sim.queue.peek_time() is None
            assert sim.idle

        sim, fired = _run_both(case)
        assert fired == [("a", 1.0), ("boom", 1.0), ("c", 1.0), ("pushed", 1.0)]
        assert sim.events_processed == 4

    def test_negative_max_events_rejected(self):
        # A negative budget is an error, never a run whose length
        # depends on whether an observer is attached.
        def case(sim, fired):
            for i in range(3):
                sim.schedule(1.0, _note(sim, fired, i))
            with pytest.raises(ValueError):
                sim.run(max_events=-1)
            assert len(sim.queue) == 3

        sim, fired = _run_both(case)
        assert fired == []
        assert sim.events_processed == 0

    def test_runaway_protocol_detected(self):
        def case(sim, fired):
            def forever():
                fired.append(("tick", sim.now))
                sim.schedule(1.0, forever)

            sim.schedule(0.0, forever)
            with pytest.raises(RuntimeError):
                sim.run_to_quiescence(max_events=100)

        sim, fired = _run_both(case)
        assert len(fired) == sim.events_processed == 100

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.5, lambda: None)

    def test_count_survives_a_raising_action(self):
        # Two events run, the third raises: all three are counted, the
        # fourth stays queued, and the clock stands at the failed event.
        def case(sim, fired):
            def boom():
                fired.append(("boom", sim.now))
                raise KeyError("boom")

            sim.schedule(1.0, _note(sim, fired, "a"))
            sim.schedule(2.0, _note(sim, fired, "b"))
            sim.schedule(3.0, boom)
            sim.schedule(4.0, _note(sim, fired, "never"))
            with pytest.raises(KeyError):
                sim.run()

        sim, fired = _run_both(case)
        assert fired == [("a", 1.0), ("b", 2.0), ("boom", 3.0)]
        assert sim.events_processed == 3
        assert sim.now == 3.0 and len(sim.queue) == 1

    def test_quiescence_span_counts_events_when_an_action_raises(self):
        def boom():
            raise KeyError("boom")

        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        with obs.tracing() as tracer:
            with pytest.raises(KeyError):
                sim.run_to_quiescence()
        (span,) = [s for s in tracer.spans if s.name == "run_to_quiescence"]
        assert span.attrs["events"] == 2
        assert (span.vt0, span.vt1) == (0.0, 2.0)

    def test_schedule_passes_positional_args(self):
        def case(sim, fired):
            sim.schedule(1.0, fired.append, ("args", 1.0))
            sim.schedule(2.0, lambda a, b: fired.append((a + b, sim.now)), "x", "y")
            sim.run()

        sim, fired = _run_both(case)
        assert fired == [("args", 1.0), ("xy", 2.0)]
        assert sim.events_processed == 2

    def test_reentrant_peek_keeps_short_delay_schedules_in_order(self):
        # Regression: an action that peeks the queue (``sim.idle``) and
        # then schedules a short delay must still see that event fire in
        # (time, seq) order, at the right virtual time.
        def case(sim, fired):
            def first():
                assert not sim.idle  # reentrant peek
                sim.schedule(0.1, _note(sim, fired, "between"))
                fired.append(("first", sim.now))

            sim.schedule(0.5, first)
            sim.schedule(5.5, _note(sim, fired, "second"))
            sim.run_to_quiescence()

        sim, fired = _run_both(case)
        assert fired == [("first", 0.5), ("between", 0.5 + 0.1), ("second", 5.5)]


class _Echo(NodeProcess):
    """Test node: replies PONG to PING once."""

    def on_start(self):
        self.store["got"] = []
        if self.coord == (0, 0):
            self.send((0, 1), "PING")

    def on_message(self, msg):
        self.store["got"].append(msg.kind)
        if msg.kind == "PING":
            self.send(msg.src, "PONG")


class TestNetwork:
    def test_ping_pong(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo)
        net.start()
        net.run_to_quiescence()
        assert net.nodes[(0, 1)].store["got"] == ["PING"]
        assert net.nodes[(0, 0)].store["got"] == ["PONG"]
        assert net.stats.by_kind() == {"PING": 1, "PONG": 1}

    def test_non_neighbor_send_rejected(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            net.transmit(Message("X", (0, 0), (2, 0)))

    def test_faulty_nodes_neither_send_nor_receive(self):
        faults = mask_of_cells([(0, 1)], (2, 2))
        net = MeshNetwork(Mesh2D(2), faults, _Echo)
        net.start()
        net.run_to_quiescence()
        assert net.stats.gauges["dropped[dst-faulty]"] == 1
        assert net.nodes[(0, 0)].store["got"] == []

    def test_ttl_expiry_drops(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        msg = Message("HOP", (0, 0), (0, 1), ttl=0, hops=1)
        net.transmit(msg)
        net.run_to_quiescence()
        assert net.stats.gauges["dropped[ttl]"] == 1

    def test_trace_records_deliveries(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo)
        deliveries = record_deliveries(net)
        net.start()
        net.run_to_quiescence()
        assert deliveries == [
            (1.0, "PING", (0, 0), (0, 1)), (2.0, "PONG", (0, 1), (0, 0)),
        ]

    def test_deterministic_replay(self):
        def run():
            net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool), _Echo)
            net.start()
            net.run_to_quiescence()
            return net.sim.now, net.stats.total_messages

        assert run() == run()

    def test_inject_fault_mid_run(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), _Echo)
        net.start()
        net.inject_fault((0, 1))
        net.run_to_quiescence()
        assert net.nodes[(0, 0)].store["got"] == []

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeshNetwork(Mesh2D(3), np.zeros((2, 2), dtype=bool))

    def test_off_mesh_fault_event_rejected(self):
        # A negative index must not wrap onto the far face of the mask.
        net = MeshNetwork(Mesh3D(4), np.zeros((4, 4, 4), dtype=bool))
        with pytest.raises(IndexError):
            net.inject_fault((-1, 0, 0))
        with pytest.raises(IndexError):
            net.repair((4, 0, 0))
        assert not net.fault_mask.any()
        assert not net.is_faulty((3, 0, 0)) and not net.is_faulty((-1, 0, 0))

    def test_repair_revives_node(self):
        faults = mask_of_cells([(0, 1)], (2, 2))
        net = MeshNetwork(Mesh2D(2), faults, _Echo)
        net.repair((0, 1))
        assert not net.is_faulty((0, 1))
        net.start()
        net.run_to_quiescence()
        assert net.nodes[(0, 1)].store["got"] == ["PING"]

    def test_query_tagged_sends_attributed(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        net.transmit(Message("A", (0, 0), (0, 1), payload={"query": 7}))
        net.transmit(Message("B", (0, 1), (0, 0), payload={"query": 7}))
        net.transmit(Message("C", (0, 0), (1, 0), payload={"query": 9}))
        net.transmit(Message("D", (1, 0), (0, 0)))
        net.run_to_quiescence()
        assert net.stats.query_messages[7] == 2
        assert net.stats.query_messages[9] == 1
        assert net.stats.total_messages == 4


class TestStatsAndTrace:
    def test_stats_summary(self):
        stats = StatsCollector()
        stats.on_send("A")
        stats.on_send("A")
        stats.on_send("B")
        stats.bump("x", 2.5)
        assert stats.by_kind() == {"A": 2, "B": 1}
        assert stats.total_messages == 3
        assert stats.gauges == {"x": 2.5}


class TestNonFiniteTimes:
    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), lambda: None)

    def test_inf_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("inf"), lambda: None)

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(float("nan"), lambda: None)

    def test_inf_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(float("-inf"), lambda: None)


class TestForwardedPayloadIsolation:
    def test_forwarded_copy_does_not_alias(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"trail": "a", "n": 1})
        hop = msg.forwarded((0, 2))
        hop.payload["n"] = 2
        hop.payload["extra"] = True
        assert msg.payload == {"trail": "a", "n": 1}

    def test_forwarded_keeps_identity_and_hops(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"q": 1}, hops=3, ttl=9)
        hop = msg.forwarded((1, 1))
        assert hop.kind == msg.kind
        assert hop.hops == 4 and hop.ttl == 9
        assert hop.src == (0, 1) and hop.dst == (1, 1)
        assert hop.payload == msg.payload and hop.payload is not msg.payload

    def test_clear_writes_through_on_owned_view(self):
        # An owned view behaves exactly like the old plain-dict payload:
        # a caller that kept a reference to the dict it passed in sees
        # the clear and every later write.
        d = {"a": 1}
        msg = Message("ROUTE", (0, 0), (0, 1), payload=d)
        msg.payload.clear()
        assert d == {}
        msg.payload["b"] = 2
        assert d == {"b": 2}

    def test_clear_on_shared_view_stays_isolated(self):
        msg = Message("ROUTE", (0, 0), (0, 1), payload={"a": 1})
        hop = msg.forwarded((0, 2))
        hop.payload.clear()
        assert msg.payload == {"a": 1}
        assert hop.payload == {}


class TestContendedLinks:
    def _net(self, capacity, shape=(2, 2)):
        return MeshNetwork(
            Mesh2D(shape[0]), np.zeros(shape, dtype=bool), link_capacity=capacity
        )

    def test_uncontended_default_delivers_in_parallel(self):
        net = self._net(None)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append(net.sim.now)
        net.transmit(Message("A", (0, 0), (0, 1)))
        net.transmit(Message("B", (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [1.0, 1.0]

    def test_capacity_one_serializes_fifo(self):
        net = self._net(1)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append((m.kind, net.sim.now))
        for kind in ("A", "B", "C"):
            net.transmit(Message(kind, (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [("A", 1.0), ("B", 2.0), ("C", 3.0)]
        assert net.stats.gauges["link_peak_depth"] == 3
        assert net.stats.gauges["link_wait_total"] == 3.0  # 0 + 1 + 2

    def test_capacity_two_carries_pairs(self):
        net = self._net(2)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append(net.sim.now)
        for _ in range(4):
            net.transmit(Message("A", (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [1.0, 1.0, 2.0, 2.0]

    def test_directed_links_are_independent(self):
        net = self._net(1)
        times = {}
        net.nodes[(0, 1)].on_message = lambda m: times.setdefault("fwd", net.sim.now)
        net.nodes[(0, 0)].on_message = lambda m: times.setdefault("rev", net.sim.now)
        net.transmit(Message("A", (0, 0), (0, 1)))
        net.transmit(Message("B", (0, 1), (0, 0)))
        net.run_to_quiescence()
        assert times == {"fwd": 1.0, "rev": 1.0}

    def test_set_link_capacity_requires_idle(self):
        net = self._net(None)
        net.transmit(Message("A", (0, 0), (0, 1)))
        with pytest.raises(RuntimeError):
            net.set_link_capacity(1)
        net.run_to_quiescence()
        net.set_link_capacity(1)
        assert net.link_capacity == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            self._net(0)

    @pytest.mark.parametrize("delay", [float("nan"), -1.0, float("inf")])
    def test_bad_link_delay_rejected_at_construction(self, delay):
        with pytest.raises(ValueError, match="link_delay"):
            MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), link_delay=delay)

    def test_zero_link_delay_delivers_at_send_time(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool), link_delay=0.0)
        seen = []
        net.nodes[(0, 1)].on_message = lambda m: seen.append(net.sim.now)
        net.transmit(Message("A", (0, 0), (0, 1)))
        net.run_to_quiescence()
        assert seen == [0.0]

    def test_contended_run_is_deterministic(self):
        def run():
            net = self._net(1, shape=(3, 3))
            for i in range(5):
                net.transmit(Message(f"M{i}", (0, 0), (0, 1)))
                net.transmit(Message(f"N{i}", (0, 1), (0, 2)))
            net.run_to_quiescence()
            return net.sim.now, net.stats.total_messages, dict(net.stats.gauges)

        assert run() == run()


class TestFrames:
    def test_frame_latency_uncontended(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        assert net.stats.frame_latencies == [2.0]
        assert net.stats.frames_delivered == 1

    def test_frame_latency_queues_behind_contention(self):
        net = MeshNetwork(
            Mesh2D(3), np.zeros((3, 3), dtype=bool), link_capacity=1
        )
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        # Second frame waits one slot on the first link, then one more on
        # the second: head-of-line blocking carries through the path.
        assert net.stats.frame_latencies == [2.0, 3.0]

    def test_frame_into_faulty_node_lost(self):
        faults = mask_of_cells([(0, 1)], (3, 3))
        net = MeshNetwork(Mesh2D(3), faults)
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        assert net.stats.frames_delivered == 0
        assert net.stats.gauges["frames[lost]"] == 1

    def test_zero_hop_frame(self):
        net = MeshNetwork(Mesh2D(2), np.zeros((2, 2), dtype=bool))
        net.inject_frame([(0, 0)])
        assert net.stats.frame_latencies == [0.0]

    def test_frame_counts_as_messages(self):
        net = MeshNetwork(Mesh2D(3), np.zeros((3, 3), dtype=bool))
        net.inject_frame([(0, 0), (0, 1), (0, 2)])
        net.run_to_quiescence()
        assert net.stats.messages_sent["FRAME"] == 2
        assert not net.stats.query_messages


class _Relay(NodeProcess):
    """Test node: floods two tagged PINGs toward the far corner.

    (0, 0) sends PING for queries 1 and 2, then DIE and an untagged
    HELLO down its busiest link.  A PING is relayed one hop along each
    increasing axis; a node that receives DIE kills itself and then
    tries to answer, so its ACK is dropped at the source.
    """

    def on_start(self):
        if self.coord == (0, 0):
            self.send((0, 1), "PING", {"query": 1})
            self.send((1, 0), "PING", {"query": 2})
            self.send((0, 1), "DIE")
            self.send((0, 1), "HELLO", {"query": None})

    def on_message(self, msg):
        if msg.kind == "PING":
            for axis in (0, 1):
                nxt = self.step(axis, 1)
                if nxt is not None:
                    self.send(nxt, "PING", msg.payload)
        elif msg.kind == "DIE":
            self.network.inject_fault(self.coord)
            self.send(msg.src, "ACK", {"query": 3})


#: Deliveries up to t = 3 on both paths: (time, kind, src, dst).
_RELAY_HEAD = [
    (1.0, "PING", (0, 0), (0, 1)), (1.0, "PING", (0, 0), (1, 0)),
    (1.0, "DIE", (0, 0), (0, 1)),
    (2.0, "PING", (0, 1), (1, 1)), (2.0, "PING", (0, 1), (0, 2)),
    (2.0, "PING", (1, 0), (2, 0)), (2.0, "PING", (1, 0), (1, 1)),
    (3.0, "PING", (1, 1), (2, 1)), (3.0, "PING", (1, 1), (1, 2)),
    (3.0, "PING", (0, 2), (1, 2)), (3.0, "PING", (2, 0), (2, 1)),
    (3.0, "PING", (1, 1), (2, 1)), (3.0, "PING", (1, 1), (1, 2)),
]
_INTO_CORNER = [(2, 1), (1, 2), (1, 2), (2, 1), (2, 1), (1, 2)]


class TestSendAccounting:
    """What a send counts, queues and rejects, uncontended and contended.

    The values are pinned: a change to the send path must move no
    count, drop or delivery.
    """

    @pytest.mark.parametrize(
        "capacity, corner_times, gauges",
        [
            (None, [4.0] * 6, {}),
            (
                2,
                [4.0] * 4 + [5.0] * 2,
                {"link_peak_depth": 3, "link_wait_total": 3.0},
            ),
        ],
        ids=["uncontended", "capacity-2"],
    )
    def test_counts_drops_and_deliveries(self, capacity, corner_times, gauges):
        net = MeshNetwork(
            Mesh2D(3), np.zeros((3, 3), dtype=bool), _Relay,
            link_capacity=capacity,
        )
        deliveries = record_deliveries(net)
        net.start()
        net.run_to_quiescence()
        assert net.stats.by_kind() == {"PING": 18, "DIE": 1, "HELLO": 1}
        assert dict(net.stats.query_messages) == {1: 9, 2: 9}
        assert dict(net.stats.gauges) == {
            **gauges, "dropped[src-faulty]": 1.0, "dropped[dst-faulty]": 1.0,
        }
        assert net.sim.events_processed == 29
        assert deliveries == _RELAY_HEAD + [
            (t, "PING", src, (2, 2))
            for t, src in zip(corner_times, _INTO_CORNER, strict=True)
        ]

    @pytest.mark.parametrize("capacity", [None, 2], ids=["uncontended", "capacity-2"])
    def test_non_link_send_raises_and_counts_nothing(self, capacity):
        net = MeshNetwork(
            Mesh2D(3), mask_of_cells([(0, 1)], (3, 3)), link_capacity=capacity
        )
        for src, dst in [
            ((0, 0), (2, 2)),  # not adjacent
            ((0, 0), (0, 0)),  # the sender itself
            ((0, 0), (-1, 0)),  # off the mesh
            ((0, 0), None),
            ((0, 1), (2, 2)),  # a faulty sender still gets the link check
        ]:
            with pytest.raises(ValueError, match="is not a mesh link"):
                net.nodes[src].send(dst, "X", {"query": 9})
        assert net.stats.total_messages == 0
        assert not net.stats.query_messages
        assert not net.stats.gauges
        assert net.sim.idle
