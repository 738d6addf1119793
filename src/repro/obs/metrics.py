"""Latency percentiles: the one arithmetic behind every p50/p99 column.

:func:`percentile` is ``float(np.percentile(values, q))`` over the exact
observations, 0.0 when there are none.  The serve layer's
:class:`~repro.serve.service.MetricsSnapshot`, ``loadgen.summarize`` and
T7's latency columns all call it on plain lists, so their percentiles
can never disagree.  Nothing here reads a clock.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """``float(np.percentile(values, q))``; 0.0 when ``values`` is empty."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))
