"""One-call harness: regenerate the full evaluation (all tables).

``run_all(profile="quick")`` keeps everything laptop-fast (seconds to a
couple of minutes); ``profile="paper"`` uses the larger meshes and
trial counts recorded in DESIGN.md's experiment index.  All tiers —
including the churn comparisons T6 (mcc), T6r (rfb baseline), and T6d
(distributed stack vs both centralized models) — run through
:mod:`repro.parallel.sharding`, so ``workers=`` fans every table's
fault patterns across processes and ``checkpoint_dir=`` makes the
whole evaluation resumable (one journal per table).

:class:`ExperimentSpec` is the shared-kwargs contract every ``run_*``
entry point honours: the **workload** (shape, fault counts, trials,
seed, per-experiment knobs like ``pairs``/``queries``/``epochs``) is
fixed at construction, while the **execution** kwargs — ``workers``,
``shards``, ``checkpoint``, ``save``, ``trace``, ``mode`` — are passed to
:meth:`ExperimentSpec.run` and forwarded uniformly.  The
``python -m repro.parallel`` CLI and :func:`run_all` both dispatch
through it, so every tier accepts the same flags and builds its
:class:`~repro.parallel.sharding.SweepSpec` in exactly one place
(fingerprints are shared by construction).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.parallel.sharding import CLI_ALIASES, CLI_RUNNERS, _resolve
from repro.util.records import ResultTable
from repro.util.rng import SeedLike

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


#: Execution kwargs shared by every experiment entry point.
SHARED_KWARGS = ("workers", "shards", "checkpoint", "save", "trace", "mode")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment invocation under the shared kwargs contract.

    ``experiment`` is a registered name from
    :data:`repro.parallel.sharding.CLI_RUNNERS` or a paper-table alias
    (``t1``–``t7``, ``a1``, ``a4``).  ``workload`` holds the
    per-experiment knobs (``pairs``, ``queries``, ``epochs``,
    ``churn``, ``des``) and is validated against the experiment's
    registered flag tuple at construction, so a typo'd knob fails
    before any work is done.  ``trials``/``seed`` default to the
    underlying ``run_*`` defaults when left ``None``.

    :meth:`run` forwards the execution kwargs — exactly
    :data:`SHARED_KWARGS` — to the experiment's ``run_*`` wrapper (the
    one place its :class:`~repro.parallel.sharding.SweepSpec` is
    built), so CLI- and Python-started runs of the same spec share
    checkpoints and fingerprints by construction.
    """

    experiment: str
    shape: tuple[int, ...]
    fault_counts: tuple[int, ...]
    trials: int | None = None
    seed: SeedLike | None = None
    workload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        name = self.resolved
        if name not in CLI_RUNNERS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; pick from "
                f"{sorted(CLI_RUNNERS)} or aliases {sorted(CLI_ALIASES)}"
            )
        _, flags = CLI_RUNNERS[name]
        allowed = set(flags) - {"mode"}  # mode is an execution kwarg
        unknown = set(self.workload) - allowed
        if unknown:
            raise ValueError(
                f"experiment {name!r} does not take workload knobs "
                f"{sorted(unknown)}; it takes {sorted(allowed)}"
            )

    @property
    def resolved(self) -> str:
        """The registered experiment name (aliases expanded)."""
        return CLI_ALIASES.get(self.experiment, self.experiment)

    def run(
        self,
        *,
        workers: int = 1,
        shards: int | None = None,
        checkpoint: str | None = None,
        save: str | None = None,
        trace: str | None = None,
        mode: str | None = None,
    ) -> ResultTable:
        """Execute via the experiment's ``run_*`` wrapper; return the table."""
        name = self.resolved
        runner_path, flags = CLI_RUNNERS[name]
        if mode is not None and "mode" not in flags:
            raise ValueError(
                f"experiment {name!r} does not take mode= (only the "
                "churn tiers route through a switchable online model)"
            )
        kwargs: dict[str, Any] = dict(self.workload)
        if self.trials is not None:
            kwargs["trials"] = self.trials
        if self.seed is not None:
            kwargs["seed"] = self.seed
        if mode is not None:
            kwargs["mode"] = mode
        return _resolve(runner_path)(
            tuple(self.shape),
            list(self.fault_counts),
            workers=workers,
            shards=shards,
            checkpoint=checkpoint,
            save=save,
            trace=trace,
            **kwargs,
        )


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

    churn_spec = ExperimentSpec(
        "t6",
        p["shape3d"],
        tuple(p["faults3d"][:3]),
        trials=max(2, p["trials"] // 4),
        seed=seed,
        workload={"pairs": max(20, p["pairs"] // 5), "epochs": p["churn_epochs"]},
    )
    plan: dict[str, tuple[ExperimentSpec, str | None]] = {
        "T1a": (
            ExperimentSpec(
                "t1", p["shape2d"], tuple(p["faults2d"]),
                trials=p["trials"], seed=seed,
            ),
            None,
        ),
        "T1b": (
            ExperimentSpec(
                "t1", p["shape3d"], tuple(p["faults3d"]),
                trials=p["trials"], seed=seed,
            ),
            None,
        ),
        "T2a": (
            ExperimentSpec(
                "t2", p["shape2d"], tuple(p["faults2d"]),
                trials=max(2, p["trials"] // 4), seed=seed,
                workload={"pairs": p["pairs"]},
            ),
            None,
        ),
        "T2b": (
            ExperimentSpec(
                "t2", p["shape3d"], tuple(p["faults3d"]),
                trials=max(2, p["trials"] // 4), seed=seed,
                workload={"pairs": p["pairs"]},
            ),
            None,
        ),
        "T3": (
            ExperimentSpec(
                "t3", p["des_shape"], tuple(p["des_faults"]),
                trials=p["des_trials"], seed=seed,
            ),
            None,
        ),
        "T4": (
            ExperimentSpec(
                "t4", p["des_shape"], tuple(p["des_faults"]),
                trials=p["des_trials"], seed=seed,
                workload={"queries": p["des_queries"]},
            ),
            None,
        ),
        "T5": (
            ExperimentSpec(
                "t5",
                p["shape3d"] if profile == "quick" else (10, 10, 10),
                tuple(p["faults3d"][:3]),
                trials=max(2, p["trials"] // 4),
                seed=seed,
                workload={"pairs": max(20, p["pairs"] // 5)},
            ),
            None,
        ),
        "T6": (churn_spec, None),
        "T6r": (churn_spec, "rfb"),
        "T7": (
            ExperimentSpec(
                "t7",
                p["des_shape"],
                tuple(p["des_faults"][:2]),
                trials=p["des_trials"],
                seed=seed,
                workload={
                    "rates": list(p["load_rates"]),
                    "duration": p["load_duration"],
                },
            ),
            None,
        ),
        "T6d": (
            ExperimentSpec(
                "t6",
                p["des_shape"],
                tuple(p["des_faults"][:2]),
                trials=p["des_trials"],
                seed=seed,
                workload={
                    "pairs": max(8, p["pairs"] // 10),
                    "epochs": max(3, p["churn_epochs"] // 2),
                    "des": True,
                },
            ),
            None,
        ),
    }
    return {
        key: spec.run(workers=workers, checkpoint=ckpt(key), mode=mode)
        for key, (spec, mode) in plan.items()
    }
