"""The project's sanctioned wall-clock shim (the one D101 site).

Every deterministic guarantee in this repository — byte-identical
tables across shard/worker layouts, replayable serve soaks, resumable
checkpoints — rests on library code never reading the wall clock.  The
``repro-check`` D101 rule bans ``time.*``/``datetime.*`` reads in
``src/``; this module is the **single sanctioned exception** (the lint
exempts exactly this file, see
:data:`repro.analysis.lint.WALL_CLOCK_SANCTIONED`).

Two consumers are allowed to tell wall time, and both go through here:

* the span tracer (:mod:`repro.obs.tracer`) stamps wall-clock span
  bounds — but those stamps are *observability only*: they are excluded
  from the deterministic virtual-time stream
  (:func:`repro.obs.export.virtual_stream`) and never enter a
  ``ResultTable``;
* the live serving clock (:class:`repro.serve.clock.WallClock`)
  delegates its ``now()`` here — deterministic runs inject
  :class:`~repro.serve.clock.VirtualClock` instead.

Keeping one shim (rather than one inline suppression per reader) means
a determinism audit reduces to grepping for imports of this module.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Monotonic wall-clock seconds (arbitrary epoch, never goes back)."""
    return time.perf_counter()
