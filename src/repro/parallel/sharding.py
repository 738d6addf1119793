"""Sharded sweep runner: one fault pattern per task, shards per process.

The paper's headline curves (T1 region overhead, T2 success rate, T4 DES
routing) average over many independently sampled fault patterns.  Each
pattern is embarrassingly parallel — it owns its own
:class:`repro.routing.batch.RoutingService` and scores its pair workload
with one batched call — so the sweep scales on the *pattern* axis:

1. :func:`plan_tasks` derives one :class:`PatternTask` per (fault count,
   trial) cell, each carrying its own :class:`numpy.random.SeedSequence`
   child.  A task's stream depends only on the sweep seed and its
   position, never on which shard or process evaluates it.
2. :func:`partition_tasks` deals tasks round-robin into shards.
3. Workers evaluate their shards (``multiprocessing`` pool, or in-process
   when ``workers=1`` — the debuggable fallback) and return compact
   per-pattern records: plain dicts of counters, no arrays, no services.
4. The reducer merges records **in global task order**, so the merged
   table is byte-identical for any shard or worker count (float
   summation order is fixed; property-tested in test_sweep_sharding).

A sweep is one :class:`SweepSpec` run by :func:`run_sweep`; there is no
other entry point.  Experiments register in :data:`EXPERIMENTS`: the
evaluator and reducer as dotted ``module:function`` paths (resolved
lazily, so worker processes under the ``spawn`` start method re-import
them cleanly and there is no import cycle with
:mod:`repro.experiments`), and each workload knob with its one default,
which the spec fills in when its ``params`` leave the knob out.

Command-line interface (also see ``benchmarks/bench_sweep_sharding.py``)::

    PYTHONPATH=src python -m repro.parallel \
        t2 --shape 12 12 12 \
        --fault-counts 20 60 120 --trials 8 --pairs 200 \
        --workers 4 --seed 2005

The positional experiment accepts registered names (``success_rate``,
``region_overhead``, ``des_routing``, ``protocol_overhead``,
``fidelity``, ``churn``, ``churn_des``, ``load``, ``ablation_rfb``,
``ablation_4d``) or the table aliases (``t1``–``t7``, ``t6d``, ``a1``,
``a4``; ``t6``/``t6d`` are the fault-churn workloads and ``t7`` the
contended-link load sweep, all added on top of the paper).
``--shape``/``--fault-counts``/``--trials``/``--seed`` define the
pattern grid.  The workload knob flags (``--pairs``, ``--queries``,
``--epochs``, ``--churn``, ``--mode``, ``--rates``, ``--duration``,
``--capacity``) go into the spec's ``params`` only when given, so the
CLI and ``SweepSpec(...)`` with the same grid and knobs build the same
spec and share checkpoint fingerprints; a knob the experiment does not
take, like any value the sweep rule rejects, is a usage error (exit 2).
``--workers`` sets the process count (1 = in-process) and ``--shards``
overrides the partition count (defaults to ``workers``) for
shard-invariance checks; ``--csv`` emits CSV instead of the text table;
``--save PATH`` writes the merged table in the durable JSONL format.

Checkpoint & resume
-------------------

Long sweeps survive interruption: ``run_sweep(..., checkpoint=path)``
(CLI ``--checkpoint PATH``) opens a JSONL journal whose header carries
the canonical :meth:`SweepSpec.fingerprint`, and appends one compact
record per completed fault pattern as shards finish (flushed + fsynced,
so a kill loses at most the in-flight shard).  Restarting the same
command validates the fingerprint — a checkpoint from a different spec
fails loudly with :class:`repro.util.records.FingerprintMismatchError` —
drops any partially written final line, skips the task indices already
on disk, and reduces old+new records in global task order, so the
resumed table is byte-identical to an uninterrupted run (property-tested
in ``tests/test_sweep_sharding.py``)::

    PYTHONPATH=src python -m repro.parallel t3 --workers 4 \
        --checkpoint out/t3.jsonl

Run the command again after an interruption (same flags, same
checkpoint path) and only the missing patterns are evaluated; a
checkpoint that already holds every record reduces straight from disk
without touching a worker.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import multiprocessing as mp
import os
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.util.records import (
    ResultTable,
    TablePersistenceError,
    check_header,
    fingerprint_of,
    json_line,
    read_jsonl,
)
from repro.util.rng import (
    SeedLike,
    replayable_seed_payload,
    spawn_seed_sequences,
)
from repro.util.validation import check_workload


class Experiment(NamedTuple):
    """One registered sweep: how to score a pattern, merge, and its knobs.

    ``evaluator`` maps ``(spec, task) -> dict`` of plain numbers for one
    fault pattern; ``reducer`` maps ``(spec, records) -> ResultTable``
    with the records already sorted in global task order.  Both are
    dotted ``module:function`` paths (or plain callables).  ``knobs``
    names every workload knob the experiment reads, with its default.
    """

    evaluator: str | Callable
    reducer: str | Callable
    knobs: Mapping[str, Any] = MappingProxyType({})


_CHURN_KNOBS = {"pairs": 60, "epochs": 6, "churn": 2}

#: Registered experiments by name.  Each knob default is written here
#: and nowhere else: :class:`SweepSpec` fills every knob its ``params``
#: leave out, so evaluators and reducers read ``spec.params[name]``.
EXPERIMENTS: dict[str, Experiment] = {
    "success_rate": Experiment(
        "repro.experiments.exp_success_rate:evaluate_pattern",
        "repro.experiments.exp_success_rate:reduce_records",
        {"pairs": 200},
    ),
    "region_overhead": Experiment(
        "repro.experiments.exp_region_overhead:evaluate_pattern",
        "repro.experiments.exp_region_overhead:reduce_records",
        {"clustered": False},
    ),
    "des_routing": Experiment(
        "repro.experiments.exp_des_routing:evaluate_pattern",
        "repro.experiments.exp_des_routing:reduce_records",
        {"queries": 30},
    ),
    "protocol_overhead": Experiment(
        "repro.experiments.exp_protocol_overhead:evaluate_pattern",
        "repro.experiments.exp_protocol_overhead:reduce_records",
    ),
    "fidelity": Experiment(
        "repro.experiments.exp_fidelity:evaluate_pattern",
        "repro.experiments.exp_fidelity:reduce_records",
        {"pairs": 60},
    ),
    "ablation_rfb": Experiment(
        "repro.experiments.exp_ablation:evaluate_rfb_pattern",
        "repro.experiments.exp_ablation:reduce_rfb_records",
    ),
    "ablation_4d": Experiment(
        "repro.experiments.exp_ablation:evaluate_mesh4d_pattern",
        "repro.experiments.exp_ablation:reduce_mesh4d_records",
    ),
    "churn": Experiment(
        "repro.experiments.exp_churn:evaluate_pattern",
        "repro.experiments.exp_churn:reduce_records",
        {**_CHURN_KNOBS, "mode": "mcc"},
    ),
    "churn_des": Experiment(
        "repro.experiments.exp_churn:evaluate_des_pattern",
        "repro.experiments.exp_churn:reduce_des_records",
        _CHURN_KNOBS,
    ),
    "load": Experiment(
        "repro.experiments.exp_load:evaluate_pattern",
        "repro.experiments.exp_load:reduce_records",
        {"rates": (0.2, 0.5, 1.0), "duration": 40.0, "capacity": 1},
    ),
}

#: Paper-table shorthands, accepted wherever an experiment is named.
ALIASES: dict[str, str] = {
    "t1": "region_overhead",
    "t2": "success_rate",
    "t3": "protocol_overhead",
    "t4": "des_routing",
    "t5": "fidelity",
    "t6": "churn",
    "t6d": "churn_des",
    "t7": "load",
    "a1": "ablation_rfb",
    "a4": "ablation_4d",
}

#: Format marker + schema version of the sweep-checkpoint JSONL header.
CHECKPOINT_FORMAT = "repro.sweep-checkpoint"
CHECKPOINT_SCHEMA = 1


class PatternTaskError(RuntimeError):
    """A worker failed evaluating one fault pattern (task identified)."""


def _as_knob_type(name: str, value: Any, default: Any) -> Any:
    """``value`` cast to the type of the knob's registered ``default``.

    One value, one fingerprint: ``duration=12`` and ``--duration 12``
    (parsed as 12.0) must name the same sweep.  The sweep grid's
    ``trials``, ``shape`` and ``fault_counts`` go through the same rule
    with an int stand-in default.  Int knobs take integral numbers
    only, float knobs take any real number, a sequence knob casts each
    element like its default's first one, and a bool or str knob takes
    only its own type; anything else raises ``ValueError``.
    """
    if isinstance(default, tuple):
        if isinstance(value, str) or not isinstance(value, (Sequence, np.ndarray)):
            raise ValueError(f"{name} must be a sequence, got {value!r}")
        return tuple(_as_knob_type(name, v, default[0]) for v in value)
    if isinstance(default, bool):
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        return bool(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a str, got {value!r}")
        return value
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, (bool, np.bool_)) or not real:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(default, int) and not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return type(default)(value)


@dataclass(frozen=True)
class SweepSpec:
    """A deterministic multi-pattern sweep description (picklable).

    ``experiment`` is a registered name or a paper alias (``t1``–``t7``,
    ``t6d``, ``a1``, ``a4``) and is stored resolved.  ``params`` sets
    workload knobs (e.g. ``pairs`` for the success-rate sweep,
    ``queries`` for the DES sweep): a knob the experiment does not take
    raises ``ValueError``, and every knob left out takes its
    :data:`EXPERIMENTS` default, so the stored ``params`` is complete.

    Each knob value is stored as its default's type (``pairs=12.0`` as
    12), and ``trials``, ``shape`` and ``fault_counts`` as ints by the
    same rule (``trials=2.0`` as 2; ``trials=2.5`` or ``shape=(4.5, 4)``
    raises), so equal sweeps share a fingerprint however their values
    were typed.  Construction also applies the sweep rule: ``trials`` at
    least 1, an int ``seed`` at least 0, every mesh axis length at least
    1, every fault count in ``[0, mesh size]``, and
    :func:`~repro.util.validation.check_workload` on the knob values;
    anything else raises ``ValueError``.
    """

    experiment: str
    shape: tuple[int, ...]
    fault_counts: tuple[int, ...]
    trials: int
    seed: SeedLike = 2005
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        experiment = ALIASES.get(self.experiment, self.experiment)
        if experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; pick from "
                f"{sorted(EXPERIMENTS)} or aliases {sorted(ALIASES)}"
            )
        knobs = EXPERIMENTS[experiment].knobs
        unknown = sorted(set(self.params) - set(knobs))
        if unknown:
            raise ValueError(
                f"experiment {experiment!r} does not take knobs {unknown}; "
                f"it takes {sorted(knobs)}"
            )
        trials = _as_knob_type("trials", self.trials, 1)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        shape = _as_knob_type("shape", self.shape, (1,))
        fault_counts = _as_knob_type("fault_counts", self.fault_counts, (0,))
        if any(k < 1 for k in shape):
            raise ValueError(f"mesh axis lengths must be >= 1, got {shape}")
        size = math.prod(shape)
        bad = [c for c in fault_counts if not 0 <= c <= size]
        if bad:
            raise ValueError(
                f"fault counts must lie in [0, {size}] on a "
                f"{'x'.join(map(str, shape))} mesh, got {bad}"
            )
        params = {
            name: _as_knob_type(name, self.params.get(name, default), default)
            for name, default in knobs.items()
        }
        check_workload(params)
        object.__setattr__(self, "experiment", experiment)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "fault_counts", fault_counts)
        object.__setattr__(self, "params", params)

    def fingerprint(self) -> str:
        """Canonical digest of the sweep: same spec ⇔ same fingerprint.

        Stamped into checkpoint and result-table headers so a resume
        against different parameters (or a different experiment) is
        rejected instead of silently merging incompatible records.
        Only replayable seeds can be fingerprinted: an ``int``/``None``
        or a :class:`numpy.random.SeedSequence`; a live ``Generator``
        has hidden stream state and raises ``TypeError``.
        """
        try:
            seed = replayable_seed_payload(self.seed)
        except TypeError as exc:
            raise TypeError(
                "cannot fingerprint a sweep seeded with a live Generator; "
                "checkpointed sweeps need a replayable seed "
                "(int, None, or SeedSequence)"
            ) from exc
        return fingerprint_of(
            {
                "experiment": self.experiment,
                "shape": list(self.shape),
                "fault_counts": list(self.fault_counts),
                "trials": self.trials,
                "seed": seed,
                "params": dict(self.params),
            }
        )


@dataclass(frozen=True)
class PatternTask:
    """One fault pattern to evaluate: grid position + private seed."""

    index: int  # global position in the sweep (reduce order)
    count_index: int  # position of ``count`` in spec.fault_counts
    count: int  # number of faults in this pattern
    trial: int  # trial number within the fault count
    seed: np.random.SeedSequence

    def rng(self) -> np.random.Generator:
        """The pattern's private generator (mask + workload draws)."""
        return np.random.default_rng(self.seed)


def _resolve(path: str | Callable) -> Callable:
    """Import ``"module:attribute"`` lazily (worker-process safe).

    Already-callable registry entries pass through, so tests can patch
    :data:`EXPERIMENTS` with plain functions for in-process runs.
    """
    if callable(path):
        return path
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def plan_tasks(spec: SweepSpec) -> list[PatternTask]:
    """All pattern tasks of the sweep, in global (reduce) order.

    Seed derivation is positional: one child sequence per fault count,
    then one grandchild per trial — the same tree for every shard
    layout, so any partition of the tasks replays identical patterns.
    """
    count_seqs = spawn_seed_sequences(spec.seed, len(spec.fault_counts))
    tasks: list[PatternTask] = []
    for count_index, (count, seq) in enumerate(zip(spec.fault_counts, count_seqs, strict=True)):
        for trial, child in enumerate(seq.spawn(spec.trials)):
            tasks.append(
                PatternTask(
                    index=len(tasks),
                    count_index=count_index,
                    count=count,
                    trial=trial,
                    seed=child,
                )
            )
    return tasks


def partition_tasks(
    tasks: Sequence[PatternTask], shards: int
) -> list[list[PatternTask]]:
    """Deal tasks round-robin into ``shards`` lists (some may be empty).

    Round-robin balances the expensive high-fault-count tail across
    shards; correctness never depends on the layout because the reducer
    re-sorts by global task index.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [list(tasks[s::shards]) for s in range(shards)]


def evaluate_shard(
    spec: SweepSpec, tasks: Sequence[PatternTask], trace: bool = False
) -> list[dict[str, Any]]:
    """Evaluate one shard's patterns; records tagged with task positions.

    A pattern that raises is re-raised as :class:`PatternTaskError`
    naming the task's global index, fault count, trial, and seed, so a
    failure deep inside a long parallel sweep identifies exactly which
    pattern died and how to replay it.

    With ``trace=True`` each pattern evaluates under its own
    :class:`repro.obs.Tracer` (one Perfetto track per pattern, rooted in
    a ``pattern`` harness span) and ships its span buffer on the record
    as ``"_spans"`` — plain dicts, popped again by :func:`run_sweep`
    before any journaling so checkpoint bytes never change.
    """
    evaluator = _resolve(EXPERIMENTS[spec.experiment].evaluator)
    records = []
    for task in tasks:
        tracer = None
        try:
            if trace:
                tracer = obs.Tracer(track=f"pattern-{task.index:04d}")
                with obs.tracing(tracer), tracer.span(
                    "pattern",
                    cat="harness",
                    index=task.index,
                    faults=task.count,
                    trial=task.trial,
                ):
                    record = dict(evaluator(spec, task))
            else:
                record = dict(evaluator(spec, task))
        except Exception as exc:
            raise PatternTaskError(
                f"pattern task {task.index} failed (experiment="
                f"{spec.experiment!r}, faults={task.count}, "
                f"trial={task.trial}, seed entropy={task.seed.entropy}, "
                f"spawn_key={task.seed.spawn_key}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        record["_index"] = task.index
        record["_count_index"] = task.count_index
        record["_count"] = task.count
        if tracer is not None:
            record["_spans"] = [sp.to_dict() for sp in tracer.spans]
        records.append(record)
    return records


def _evaluate_shard_star(args: tuple[SweepSpec, list[PatternTask], bool]):
    return evaluate_shard(*args)


def reduce_records(
    spec: SweepSpec, records: Sequence[Mapping[str, Any]]
) -> ResultTable:
    """Merge per-pattern records into the experiment's summary table.

    Records are sorted by global task index first, so the reduction —
    including float accumulation — happens in one canonical order
    regardless of how many shards (or processes) produced them.
    """
    reducer = _resolve(EXPERIMENTS[spec.experiment].reducer)
    ordered = sorted(records, key=lambda r: r["_index"])
    return reducer(spec, ordered)


def _checkpoint_header(spec: SweepSpec) -> dict[str, Any]:
    return {
        "format": CHECKPOINT_FORMAT,
        "schema": CHECKPOINT_SCHEMA,
        "experiment": spec.experiment,
        "fingerprint": spec.fingerprint(),
    }


def _has_complete_header(path: str | os.PathLike) -> bool:
    """True when ``path`` holds at least one newline-terminated line."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return False
    with open(path, "rb") as fh:
        return fh.readline(1 << 20).endswith(b"\n")


def load_checkpoint(
    path: str | os.PathLike, spec: SweepSpec
) -> dict[int, dict[str, Any]]:
    """Completed per-pattern records from a checkpoint, keyed by index.

    Validates the header (format marker, schema version, spec
    fingerprint) and truncates any partially written final line — a
    killed writer may leave one — so the file is append-clean again.
    Duplicate indices keep the first occurrence.
    """
    header, rows, clean_bytes = read_jsonl(path, drop_partial_tail=True)
    check_header(
        header, path, CHECKPOINT_FORMAT, CHECKPOINT_SCHEMA, spec.fingerprint()
    )
    if os.path.getsize(path) > clean_bytes:
        os.truncate(path, clean_bytes)
    records: dict[int, dict[str, Any]] = {}
    for row in rows:
        index = row.get("_index")
        if isinstance(index, int) and index not in records:
            records[index] = row
    return records


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    shards: int | None = None,
    checkpoint: str | os.PathLike | None = None,
    save: str | os.PathLike | None = None,
    trace: str | os.PathLike | None = None,
) -> ResultTable:
    """Run the sweep: plan, partition, evaluate (maybe in parallel), reduce.

    ``workers=1`` evaluates every shard in the calling process — same
    code path as the parallel run minus the pool, for debugging.
    ``shards`` defaults to ``max(workers, 1)``; passing a different
    value checks shard invariance or over-partitions for balance.

    ``checkpoint`` names a JSONL journal: records append as they
    complete (per pattern in-process, per shard under the pool, each
    batch flushed and fsynced), and a rerun with the same spec skips the
    patterns already on disk.  Because the reducer consumes records in
    global task order, the resumed table is byte-identical to an
    uninterrupted run for any shard/worker count and any interruption
    point.  Records pass through the JSON codec even on the first run,
    so fresh and reloaded records are the same plain types.

    ``save`` writes the merged table as durable JSONL (CLI ``--save``).

    ``trace`` names a Perfetto trace-event JSON output: every evaluated
    pattern runs under a per-task tracer (one trace track per pattern)
    and the buffers merge in global task order, so the trace's
    virtual-time stream is byte-identical for any shard/worker layout.
    Span buffers ride the in-memory records only — they are stripped
    before checkpoint journaling (checkpoint bytes are unchanged by
    tracing), which also means patterns resumed *from* a checkpoint
    contribute no spans.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    tasks = plan_tasks(spec)
    done: dict[int, dict[str, Any]] = {}
    journal = None
    if checkpoint is not None:
        if _has_complete_header(checkpoint):
            done = load_checkpoint(checkpoint, spec)
        else:
            # Missing, empty, or killed mid-header-write (a non-empty
            # file with no newline yet): (re)start a fresh journal.
            # Overwriting is only safe when the stub really is our own
            # interrupted header — a prefix of this spec's header line —
            # otherwise a mistyped path would destroy an unrelated file.
            header_line = (json_line(_checkpoint_header(spec)) + "\n").encode(
                "utf-8"
            )
            if os.path.exists(checkpoint) and os.path.getsize(checkpoint) > 0:
                with open(checkpoint, "rb") as fh:
                    stub = fh.read(len(header_line) + 1)
                if not header_line.startswith(stub):
                    raise TablePersistenceError(
                        f"{checkpoint}: existing file is not a checkpoint "
                        "for this sweep (nor an interrupted header write); "
                        "refusing to overwrite it"
                    )
            with open(checkpoint, "w", encoding="utf-8", newline="") as fh:
                fh.write(header_line.decode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        journal = open(checkpoint, "a", encoding="utf-8", newline="")

    remaining = [t for t in tasks if t.index not in done]
    shard_lists = partition_tasks(
        remaining, shards if shards is not None else workers
    )
    work = [(spec, shard, trace is not None) for shard in shard_lists if shard]
    new_records: list[dict[str, Any]] = []
    spans_by_index: dict[int, list[dict[str, Any]]] = {}

    def absorb(shard_records: list[dict[str, Any]]) -> None:
        # Span buffers never reach the journal or the reducer: pop them
        # here so checkpoint files and tables are byte-identical whether
        # or not the run was traced.
        for r in shard_records:
            spans = r.pop("_spans", None)
            if spans is not None:
                spans_by_index[r["_index"]] = spans
        if journal is None:
            new_records.extend(shard_records)
            return
        lines = [json_line(r) for r in shard_records]
        journal.write("".join(line + "\n" for line in lines))
        journal.flush()
        os.fsync(journal.fileno())
        # Keep the in-memory copy JSON-typed, exactly as a resume would
        # reload it, so checkpointed and resumed reductions are
        # bit-for-bit the same arithmetic.
        new_records.extend(json.loads(line) for line in lines)

    try:
        if workers == 1 or len(work) <= 1:
            for s, shard, traced in work:
                if journal is None:
                    absorb(evaluate_shard(s, shard, traced))
                else:
                    # Per-pattern journal granularity: a kill mid-shard
                    # loses only the pattern being evaluated.
                    for task in shard:
                        absorb(evaluate_shard(s, [task], traced))
        else:
            # Fork is cheap and safe on Linux; elsewhere take the platform
            # default (macOS forks crash in Accelerate/objc after numpy
            # import — tasks are picklable by design, so spawn just works).
            ctx = (
                mp.get_context("fork")
                if sys.platform == "linux"
                else mp.get_context()
            )
            with ctx.Pool(processes=min(workers, len(work))) as pool:
                for shard_records in pool.imap_unordered(
                    _evaluate_shard_star, work
                ):
                    absorb(shard_records)
    finally:
        if journal is not None:
            journal.close()
    if trace is not None:
        # Merge worker buffers in global task order: the same stream for
        # any shard/worker layout (sequence numbers reassigned on absorb).
        merged = obs.Tracer()
        for index in sorted(spans_by_index):
            merged.absorb(spans_by_index[index])
        obs.write_perfetto(trace, merged.spans)
    table = reduce_records(spec, list(done.values()) + new_records)
    try:
        table.fingerprint = spec.fingerprint()
    except TypeError:
        pass  # Generator-seeded sweeps have no canonical fingerprint.
    if save is not None:
        table.save(save)
    return table


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run a sharded multi-pattern experiment sweep."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + sorted(ALIASES),
        help="registered experiment or paper-table alias (t1..t7, t6d, a1, a4)",
    )
    parser.add_argument("--shape", type=int, nargs="+", default=[12, 12, 12])
    parser.add_argument(
        "--fault-counts", type=int, nargs="+", default=[20, 60, 120]
    )
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2005)
    knobs = parser.add_argument_group(
        "workload knobs",
        "an unset knob takes the experiment's registered default; a knob "
        "the experiment does not take is a usage error",
    )
    knobs.add_argument(
        "--pairs", type=int, help="pairs per pattern (t2, t5) or per epoch (t6, t6d)"
    )
    knobs.add_argument("--queries", type=int, help="routed queries per pattern (t4)")
    knobs.add_argument("--epochs", type=int, help="fault events per pattern (t6, t6d)")
    knobs.add_argument(
        "--churn", type=int, help="cells injected/repaired per event (t6, t6d)"
    )
    knobs.add_argument(
        "--mode", choices=["mcc", "rfb", "oracle", "blind"],
        help="fault-information model the online service maintains (t6)",
    )
    knobs.add_argument(
        "--rates", type=float, nargs="+",
        help="offered session arrivals per time unit (t7)",
    )
    knobs.add_argument(
        "--duration", type=float, help="Poisson arrival window per rate (t7)"
    )
    knobs.add_argument(
        "--capacity", type=int, help="messages per directed link per link delay (t7)"
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL journal: append per-pattern records, resume if it exists",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the merged table as durable JSONL",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Perfetto trace-event JSON of the sweep's spans",
    )
    parser.add_argument("--csv", action="store_true", help="emit CSV")
    args = parser.parse_args(argv)
    # Only the knob flags actually given reach the spec; it fills the rest.
    knob_names = {name for entry in EXPERIMENTS.values() for name in entry.knobs}
    given = {
        name: value
        for name, value in vars(args).items()
        if name in knob_names and value is not None
    }
    try:
        spec = SweepSpec(
            args.experiment,
            tuple(args.shape),
            tuple(args.fault_counts),
            trials=args.trials,
            seed=args.seed,
            params=given,
        )
    except ValueError as exc:
        parser.error(str(exc))
    for flag in ("workers", "shards"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag} must be >= 1, got {value}")
    table = run_sweep(
        spec,
        workers=args.workers,
        shards=args.shards,
        checkpoint=args.checkpoint,
        save=args.save,
        trace=args.trace,
    )
    print(table.to_csv() if args.csv else table.render())


if __name__ == "__main__":
    main()
