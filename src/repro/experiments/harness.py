"""One-call harness: regenerate the full evaluation (all tables).

``run_all(profile="quick")`` keeps everything laptop-fast (seconds to a
couple of minutes); ``profile="paper"`` uses the larger meshes and
trial counts recorded in DESIGN.md's experiment index.  Every table is
one :class:`~repro.parallel.sharding.SweepSpec` run by
:func:`~repro.parallel.sharding.run_sweep` — including the churn
comparisons T6 (mcc), T6r (T6 with ``mode="rfb"``), and T6d
(distributed stack vs both centralized models) — so ``workers=`` fans
every table's fault patterns across processes and ``checkpoint_dir=``
makes the whole evaluation resumable (one journal per table).
"""

from __future__ import annotations

import os

from repro.parallel.sharding import SweepSpec, run_sweep
from repro.util.records import ResultTable

PROFILES = {
    "quick": {
        "shape2d": (16, 16),
        "shape3d": (8, 8, 8),
        "faults2d": [2, 6, 12, 24],
        "faults3d": [2, 8, 20, 40],
        "trials": 8,
        "pairs": 60,
        "des_shape": (7, 7, 7),
        "des_faults": [2, 6, 12],
        "des_trials": 2,
        "des_queries": 12,
        "churn_epochs": 4,
        "load_rates": [0.2, 0.6],
        "load_duration": 20.0,
    },
    "paper": {
        "shape2d": (32, 32),
        "shape3d": (16, 16, 16),
        "faults2d": [10, 26, 51, 102, 154],
        "faults3d": [20, 82, 205, 410],
        "trials": 40,
        "pairs": 300,
        "des_shape": (10, 10, 10),
        "des_faults": [5, 20, 50, 80],
        "des_trials": 3,
        "des_queries": 60,
        "churn_epochs": 8,
        "load_rates": [0.2, 0.5, 1.0, 2.0],
        "load_duration": 60.0,
    },
}


def run_all(
    profile: str = "quick",
    seed: int = 2005,
    workers: int = 1,
    checkpoint_dir: str | None = None,
) -> dict[str, ResultTable]:
    """Regenerate T1–T7 for 2-D and 3-D; returns tables keyed by id.

    ``workers`` shards every table's multi-pattern sweep across
    processes via :mod:`repro.parallel.sharding`; tables are identical
    for any value.  ``checkpoint_dir`` (created if missing) journals
    each table as ``<key>.jsonl`` so an interrupted evaluation resumes
    where it stopped — completed tables reduce straight from disk.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; pick from {list(PROFILES)}")
    p = PROFILES[profile]
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)

    def ckpt(key: str) -> str | None:
        if checkpoint_dir is None:
            return None
        return os.path.join(checkpoint_dir, f"{key}.jsonl")

    few = max(2, p["trials"] // 4)
    churn_grid = (p["shape3d"], p["faults3d"][:3], few, seed)
    churn = {"pairs": max(20, p["pairs"] // 5), "epochs": p["churn_epochs"]}
    des_grid = (p["des_shape"], p["des_faults"], p["des_trials"], seed)
    small_des_grid = (p["des_shape"], p["des_faults"][:2], p["des_trials"], seed)
    specs = {
        "T1a": SweepSpec("t1", p["shape2d"], p["faults2d"], p["trials"], seed),
        "T1b": SweepSpec("t1", p["shape3d"], p["faults3d"], p["trials"], seed),
        "T2a": SweepSpec(
            "t2", p["shape2d"], p["faults2d"], few, seed, {"pairs": p["pairs"]}
        ),
        "T2b": SweepSpec(
            "t2", p["shape3d"], p["faults3d"], few, seed, {"pairs": p["pairs"]}
        ),
        "T3": SweepSpec("t3", *des_grid),
        "T4": SweepSpec("t4", *des_grid, {"queries": p["des_queries"]}),
        "T5": SweepSpec(
            "t5",
            p["shape3d"] if profile == "quick" else (10, 10, 10),
            p["faults3d"][:3],
            few,
            seed,
            {"pairs": max(20, p["pairs"] // 5)},
        ),
        "T6": SweepSpec("t6", *churn_grid, churn),
        "T6r": SweepSpec("t6", *churn_grid, {**churn, "mode": "rfb"}),
        "T7": SweepSpec(
            "t7",
            *small_des_grid,
            {"rates": list(p["load_rates"]), "duration": p["load_duration"]},
        ),
        "T6d": SweepSpec(
            "t6d",
            *small_des_grid,
            {
                "pairs": max(8, p["pairs"] // 10),
                "epochs": max(3, p["churn_epochs"] // 2),
            },
        ),
    }
    return {
        key: run_sweep(spec, workers=workers, checkpoint=ckpt(key))
        for key, spec in specs.items()
    }
