"""Hypothesis lockstep suite: EventQueue against a list model.

The model keeps the pending ``(time, seq, tag)`` entries in a plain
list; a group pop takes every entry at the minimum time, in ``seq``
order, and a put-back returns entries with their original ``seq``.
The queue and the model are driven through identical op sequences and
must agree on everything observable: group order and contents
(including ``seq`` tie-breaking), peeked times, ``__len__``/
``__bool__`` accounting, and input validation.  A group op mirrors the
simulator's loop: it pops a group, pushes while the group is out (at
the group's own time too), uses the group's first ``k`` items and puts
the rest back.

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

# A push made while a group is out: at the group's own time (None) or
# at any time.
_group_pushes = st.lists(st.one_of(st.none(), _times), max_size=4)

# Op alphabet for the lockstep driver.  A group op carries how many of
# the group's items are used and the pushes made while it is out.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.tuples(
            st.just("group"), st.tuples(st.integers(0, 6), _group_pushes)
        ),
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

    def pop_group(self):
        """The entries at the minimum time, in ``seq`` order, removed."""
        if not self.pending:
            return None
        time = min(self.pending)[0]
        group = sorted(e for e in self.pending if e[0] == time)
        self.pending = [e for e in self.pending if e[0] != time]
        return time, group

    def put_back(self, entries):
        self.pending += entries

    def peek_time(self):
        return min(self.pending)[0] if self.pending else None


def _push(queue, model, time):
    # Items are never called by the queue, so the push index (which
    # equals the model's seq) makes groups comparable.
    tag = model.seq
    model.push(time, tag)
    assert queue.push(time, tag) is None


def _group(queue, model, used, pushes):
    """Pop a group from both, push while it is out, use ``used`` items
    and put the rest back."""
    popped = queue.pop_group()
    expected = model.pop_group()
    if expected is None:
        assert popped is None
        return
    time, fifo = popped
    assert (time, list(fifo)) == (expected[0], [e[2] for e in expected[1]])
    for push_time in pushes:
        _push(queue, model, time if push_time is None else push_time)
    for _ in range(min(used, len(fifo))):
        fifo.popleft()
    queue.put_back(time, fifo)
    model.put_back(expected[1][used:])


def _drained(queue):
    out = []
    while (group := queue.pop_group()) is not None:
        time, fifo = group
        out += [(time, tag) for tag in fifo]
    return out


def _run_lockstep(ops):
    """Apply one op sequence to the queue and the model, asserting agreement."""
    queue = EventQueue()
    model = _Model()
    for op, arg in ops:
        if op == "push":
            _push(queue, model, arg)
        elif op == "group":
            _group(queue, model, *arg)
        elif op == "peek":
            assert queue.peek_time() == model.peek_time()
        elif op == "len":
            assert len(queue) == len(model.pending)
            assert bool(queue) == bool(model.pending)
    # Full drain: the remaining (time, tag) streams must match, then
    # both report empty.
    assert _drained(queue) == [(time, tag) for time, _, tag in sorted(model.pending)]
    assert len(queue) == 0
    assert not queue
    assert queue.peek_time() is None


class TestLockstep:
    @given(_ops)
    @settings(max_examples=200, deadline=None)
    def test_random_interleavings(self, ops):
        _run_lockstep(ops)

    @given(st.lists(_equal_times, min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_equal_time_bursts_fifo(self, times):
        # Pure tie-break stress: every group must come out in push
        # order within a timestamp.
        _run_lockstep([("push", t) for t in times])

    @given(
        st.lists(_equal_times, min_size=1, max_size=16),
        st.lists(st.tuples(st.integers(0, 4), _group_pushes), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_pushes_at_the_time_being_drained(self, times, groups):
        # Few distinct times, and every group op pushes while its group
        # is out: the pushes at the group's own time must come out
        # after the group's unused rest.
        ops = [("push", t) for t in times]
        ops += [("group", (used, [None, *pushes])) for used, pushes in groups]
        _run_lockstep(ops)


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
        assert len(queue) == 0 and queue.pop_group() is None
        assert sim.idle
