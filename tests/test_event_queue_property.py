"""Hypothesis lockstep suite: EventQueue against a list model.

The model keeps the live ``(time, seq, tag)`` entries in a plain list
and pops the minimum.  The queue and the model are driven through
identical op sequences and must agree on everything observable: pop
order (including ``seq`` tie-breaking), peeked times, cancel semantics
(cancel-after-fire and double-cancel are no-ops), ``__len__``/
``__bool__`` accounting, and input validation.

Time distributions are adversarial for an ordered queue: dense
fractional times, all-equal bursts (ordering decided by ``seq`` alone),
spreads up to 1e30, and values clustered either side of integers.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit.event_queue import EventQueue
from repro.simkit.simulator import Simulator

# ---------------------------------------------------------------------------
# Adversarial time distributions
# ---------------------------------------------------------------------------

# Dense, fractional times near zero.
_dense_times = st.floats(
    min_value=0.0, max_value=16.0, allow_nan=False, allow_infinity=False
)

# All-equal bursts: many events collapse onto one timestamp, so ordering
# is decided purely by the seq tie-break.
_equal_times = st.sampled_from([0.0, 1.0, 2.5])

# Huge spreads, up to 1e30.
_spread_times = st.floats(
    min_value=0.0, max_value=1e30, allow_nan=False, allow_infinity=False
)

# Integers ± a hair, where an order decided on rounded times would
# reorder events.
_boundary_times = st.builds(
    lambda k, eps: float(k) + eps,
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0.0, 1e-9, 0.5, 1.0 - 1e-9]),
)

_times = st.one_of(_dense_times, _equal_times, _spread_times, _boundary_times)

# Op alphabet for the lockstep driver.  ``cancel`` carries an index into
# the list of handles issued so far (modulo its length), so it hits
# pending, already-fired, and already-cancelled handles alike.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("pop"), st.just(None)),
        st.tuples(st.just("peek"), st.just(None)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
        st.tuples(st.just("len"), st.just(None)),
    ),
    max_size=120,
)


class _Model:
    """Reference queue: a list of live ``(time, seq, tag)`` entries."""

    def __init__(self):
        self.live: list[tuple[float, int, int]] = []
        self.seq = 0

    def push(self, time, tag):
        self.live.append((time, self.seq, tag))
        self.seq += 1

    def cancel(self, seq):
        self.live = [entry for entry in self.live if entry[1] != seq]

    def pop(self):
        if not self.live:
            return None
        entry = min(self.live)
        self.live.remove(entry)
        return entry[0], entry[2]

    def peek_time(self):
        return min(self.live)[0] if self.live else None


def _run_lockstep(ops):
    """Apply one op sequence to the queue and the model, asserting agreement."""
    queue = EventQueue()
    model = _Model()
    handles: list = []
    for op, arg in ops:
        if op == "push":
            # Actions are never called by the queue, so the push index
            # (which equals the model's seq) makes pops comparable.
            model.push(arg, len(handles))
            handles.append(queue.push(arg, len(handles)))
        elif op == "pop":
            assert queue.pop() == model.pop()
        elif op == "peek":
            assert queue.peek_time() == model.peek_time()
        elif op == "cancel":
            if handles:
                i = arg % len(handles)
                queue.cancel(handles[i])
                model.cancel(i)
            else:
                queue.cancel(arg)  # an unknown handle must be a no-op
        elif op == "len":
            assert len(queue) == len(model.live)
            assert bool(queue) == bool(model.live)
    # Full drain: the remaining (time, tag) streams must match, then
    # both report empty.
    while True:
        popped = queue.pop()
        assert popped == model.pop()
        if popped is None:
            break
    assert len(queue) == 0
    assert not queue


class TestLockstep:
    @given(_ops)
    @settings(max_examples=200, deadline=None)
    def test_random_interleavings(self, ops):
        _run_lockstep(ops)

    @given(st.lists(_equal_times, min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_equal_time_bursts_fifo(self, times):
        # Pure tie-break stress: every pop must come out in push order
        # within a timestamp.
        _run_lockstep([("push", t) for t in times])


class TestCancelSemantics:
    @given(_times, _times)
    @settings(max_examples=50, deadline=None)
    def test_cancel_after_fire_is_noop(self, t_fire, t_keep):
        queue = EventQueue()
        handles = [queue.push(t_fire, 0), queue.push(t_keep, 1)]
        first = queue.pop()
        # Cancel whichever handle actually fired (the popped tag is its
        # index): the surviving event must be untouched.
        fired = first[1]
        queue.cancel(handles[fired])
        assert len(queue) == 1
        assert queue.pop() == ((t_keep, 1) if fired == 0 else (t_fire, 0))
        assert queue.pop() is None

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        handle = queue.push(1.0, 0)
        queue.push(2.0, 1)
        for _ in range(3):
            queue.cancel(handle)
            assert len(queue) == 1
        assert queue.pop() == (2.0, 1)

    def test_foreign_handles_are_noops(self):
        queue = EventQueue()
        queue.push(1.0, 0)
        for junk in (12345, -1, None, "handle", [1.0], [1.0, 0, None, 4], [1.0, 0, None]):
            queue.cancel(junk)
        assert len(queue) == 1

    def test_handle_from_another_queue_instance_is_noop(self):
        # The queue tag makes cross-instance cancels true no-ops: queue
        # B must not null out an entry owned by queue A, and an
        # entry-shaped caller list must never be mutated.
        a = EventQueue()
        b = EventQueue()
        ha = a.push(1.0, 0)
        b.push(1.0, 0)
        b.cancel(ha)
        assert len(a) == 1
        assert a.pop() == (1.0, 0)
        lookalike = [1.0, 0, "action", b]
        a.cancel(lookalike)
        assert lookalike[2] == "action"


class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, -1e-12, math.inf])
    def test_both_reject_bad_times(self, bad):
        # Both entry points: a queue time and a simulator delay.
        queue = EventQueue()
        sim = Simulator()
        with pytest.raises(ValueError):
            queue.push(bad, 0)
        with pytest.raises(ValueError):
            sim.schedule(bad, lambda: None)
        # A rejected push must leave no residue.
        assert len(queue) == 0 and queue.pop() is None
        assert sim.idle
