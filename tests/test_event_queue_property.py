"""Hypothesis lockstep suite: EventQueue against a list model.

The model keeps the pending ``(time, seq, tag)`` entries in a plain
list and pops the minimum.  The queue and the model are driven through
identical op sequences and must agree on everything observable: pop
order (including ``seq`` tie-breaking), peeked times, ``__len__``/
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

# Op alphabet for the lockstep driver.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(st.just("pop"), st.just(None)),
        st.tuples(st.just("peek"), st.just(None)),
        st.tuples(st.just("len"), st.just(None)),
    ),
    max_size=120,
)


class _Model:
    """Reference queue: a list of pending ``(time, seq, tag)`` entries."""

    def __init__(self):
        self.pending: list[tuple[float, int, int]] = []
        self.seq = 0

    def push(self, time, tag):
        self.pending.append((time, self.seq, tag))
        self.seq += 1

    def pop(self):
        if not self.pending:
            return None
        entry = min(self.pending)
        self.pending.remove(entry)
        return entry[0], entry[2]

    def peek_time(self):
        return min(self.pending)[0] if self.pending else None


def _run_lockstep(ops):
    """Apply one op sequence to the queue and the model, asserting agreement."""
    queue = EventQueue()
    model = _Model()
    for op, arg in ops:
        if op == "push":
            # Items are never called by the queue, so the push index
            # (which equals the model's seq) makes pops comparable.
            tag = model.seq
            model.push(arg, tag)
            assert queue.push(arg, tag) is None
        elif op == "pop":
            assert queue.pop() == model.pop()
        elif op == "peek":
            assert queue.peek_time() == model.peek_time()
        elif op == "len":
            assert len(queue) == len(model.pending)
            assert bool(queue) == bool(model.pending)
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
