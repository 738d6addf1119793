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

Experiments register themselves in :data:`EXPERIMENTS` as dotted
``module:function`` paths (resolved lazily, so worker processes under
the ``spawn`` start method re-import them cleanly and there is no
import cycle with :mod:`repro.experiments`).

Command-line interface (also see ``benchmarks/bench_sweep_sharding.py``)::

    PYTHONPATH=src python -m repro.parallel \
        t2 --shape 12 12 12 \
        --fault-counts 20 60 120 --trials 8 --pairs 200 \
        --workers 4 --seed 2005

The positional experiment accepts registered names (``success_rate``,
``region_overhead``, ``des_routing``, ``protocol_overhead``,
``fidelity``, ``churn``, ``load``, ``ablation_rfb``, ``ablation_4d``)
or the table aliases (``t1``–``t7``, ``a1``, ``a4``; ``t6`` is the
fault-churn workload and ``t7`` the contended-link load sweep, both
added on top of the paper); ``--experiment NAME`` is kept
for scripts.  ``--shape``/``--fault-counts``/``--trials``/``--seed``
define the pattern grid; ``--pairs`` (T1/T2/T5) or ``--queries`` (T4)
size the per-pattern workload; ``--workers`` sets the process count
(1 = in-process) and ``--shards`` overrides the partition count
(defaults to ``workers``) for shard-invariance checks; ``--csv`` emits
CSV instead of the text table; ``--save PATH`` writes the merged table
in the durable JSONL format.

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
from typing import Any, Callable, Mapping, Sequence

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

#: Registered experiments: name -> (evaluator path, reducer path).
#: An evaluator maps ``(spec, task) -> dict`` of plain numbers for one
#: fault pattern; a reducer maps ``(spec, records) -> ResultTable`` with
#: the records already sorted in global task order.
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "success_rate": (
        "repro.experiments.exp_success_rate:evaluate_pattern",
        "repro.experiments.exp_success_rate:reduce_records",
    ),
    "region_overhead": (
        "repro.experiments.exp_region_overhead:evaluate_pattern",
        "repro.experiments.exp_region_overhead:reduce_records",
    ),
    "des_routing": (
        "repro.experiments.exp_des_routing:evaluate_pattern",
        "repro.experiments.exp_des_routing:reduce_records",
    ),
    "protocol_overhead": (
        "repro.experiments.exp_protocol_overhead:evaluate_pattern",
        "repro.experiments.exp_protocol_overhead:reduce_records",
    ),
    "fidelity": (
        "repro.experiments.exp_fidelity:evaluate_pattern",
        "repro.experiments.exp_fidelity:reduce_records",
    ),
    "ablation_rfb": (
        "repro.experiments.exp_ablation:evaluate_rfb_pattern",
        "repro.experiments.exp_ablation:reduce_rfb_records",
    ),
    "ablation_4d": (
        "repro.experiments.exp_ablation:evaluate_mesh4d_pattern",
        "repro.experiments.exp_ablation:reduce_mesh4d_records",
    ),
    "churn": (
        "repro.experiments.exp_churn:evaluate_pattern",
        "repro.experiments.exp_churn:reduce_records",
    ),
    "churn_des": (
        "repro.experiments.exp_churn:evaluate_des_pattern",
        "repro.experiments.exp_churn:reduce_des_records",
    ),
    "load": (
        "repro.experiments.exp_load:evaluate_pattern",
        "repro.experiments.exp_load:reduce_records",
    ),
}

#: Paper-table shorthands accepted by the CLI's positional argument.
CLI_ALIASES: dict[str, str] = {
    "t1": "region_overhead",
    "t2": "success_rate",
    "t3": "protocol_overhead",
    "t4": "des_routing",
    "t5": "fidelity",
    "t6": "churn",
    "t7": "load",
    "a1": "ablation_rfb",
    "a4": "ablation_4d",
}

#: CLI dispatch: experiment -> (``run_*`` wrapper path, workload flags).
#: The wrapper is the one place the experiment's SweepSpec is built, so
#: CLI- and Python-started checkpoints share fingerprints by
#: construction.  The parser's experiment choices derive from this dict
#: (plus :data:`CLI_ALIASES`), so an experiment registered only in
#: :data:`EXPERIMENTS` is cleanly rejected by argparse instead of
#: crashing at dispatch; ``tests/test_sweep_sharding.py`` pins the two
#: registries to the same key set.
CLI_RUNNERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "success_rate": (
        "repro.experiments.exp_success_rate:run_success_rate",
        ("pairs",),
    ),
    "region_overhead": (
        "repro.experiments.exp_region_overhead:run_region_overhead",
        (),
    ),
    "des_routing": (
        "repro.experiments.exp_des_routing:run_des_routing",
        ("queries",),
    ),
    "protocol_overhead": (
        "repro.experiments.exp_protocol_overhead:run_protocol_overhead",
        (),
    ),
    "fidelity": ("repro.experiments.exp_fidelity:run_fidelity", ("pairs",)),
    "ablation_rfb": ("repro.experiments.exp_ablation:run_rfb_variants", ()),
    "ablation_4d": ("repro.experiments.exp_ablation:run_mesh4d_extension", ()),
    "churn": (
        "repro.experiments.exp_churn:run_churn",
        ("pairs", "epochs", "churn", "mode", "des"),
    ),
    # ``churn_des`` is reached through ``run_churn(des=True)`` — the CLI
    # exposes it as ``t6 --des`` so the sweep spec is built in exactly
    # one place and CLI/Python checkpoints share fingerprints.
    "churn_des": (
        "repro.experiments.exp_churn:run_churn",
        ("pairs", "epochs", "churn", "mode", "des"),
    ),
    "load": (
        "repro.experiments.exp_load:run_load_sweep",
        ("rates", "duration", "capacity"),
    ),
}

#: Format marker + schema version of the sweep-checkpoint JSONL header.
CHECKPOINT_FORMAT = "repro.sweep-checkpoint"
CHECKPOINT_SCHEMA = 1


class PatternTaskError(RuntimeError):
    """A worker failed evaluating one fault pattern (task identified)."""


def _checked_sweep(
    shape: Sequence[int], fault_counts: Sequence[int], trials: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``shape`` and ``fault_counts`` as int tuples, after the sweep rule.

    ``trials`` must be at least 1, every mesh axis length at least 1 and
    every fault count in ``[0, mesh size]``; anything else raises
    ``ValueError``.  :class:`SweepSpec` applies the rule at construction
    (with :func:`~repro.util.validation.check_workload` on its params)
    and :func:`main` before any runner starts, so the CLI reports a bad
    value as a usage error.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    shape = tuple(int(k) for k in shape)
    fault_counts = tuple(int(c) for c in fault_counts)
    if any(k < 1 for k in shape):
        raise ValueError(f"mesh axis lengths must be >= 1, got {shape}")
    size = math.prod(shape)
    bad = [c for c in fault_counts if not 0 <= c <= size]
    if bad:
        raise ValueError(
            f"fault counts must lie in [0, {size}] on a "
            f"{'x'.join(map(str, shape))} mesh, got {bad}"
        )
    return shape, fault_counts


@dataclass(frozen=True)
class SweepSpec:
    """A deterministic multi-pattern sweep description (picklable).

    ``params`` carries experiment-specific knobs (e.g. ``pairs`` for the
    success-rate sweep, ``queries`` for the DES sweep); evaluators read
    them with :meth:`param`.
    """

    experiment: str
    shape: tuple[int, ...]
    fault_counts: tuple[int, ...]
    trials: int
    seed: SeedLike = 2005
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"pick from {sorted(EXPERIMENTS)}"
            )
        shape, fault_counts = _checked_sweep(self.shape, self.fault_counts, self.trials)
        check_workload(self.params)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "fault_counts", fault_counts)

    def param(self, name: str, default: Any) -> Any:
        return self.params.get(name, default)

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
    evaluator = _resolve(EXPERIMENTS[spec.experiment][0])
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
    reducer = _resolve(EXPERIMENTS[spec.experiment][1])
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

    ``save`` writes the merged table as durable JSONL — the same flag
    every ``run_*`` entry point and the CLI expose (the shared kwargs
    contract normalized by ``repro.experiments.harness.ExperimentSpec``).

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
        "experiment_name",
        nargs="?",
        metavar="experiment",
        choices=sorted(CLI_RUNNERS) + sorted(CLI_ALIASES),
        help="registered experiment or paper-table alias (t1..t7, a1, a4)",
    )
    parser.add_argument(
        "--experiment",
        choices=sorted(CLI_RUNNERS),
        help="registered experiment (script-friendly form of the positional)",
    )
    parser.add_argument("--shape", type=int, nargs="+", default=[12, 12, 12])
    parser.add_argument(
        "--fault-counts", type=int, nargs="+", default=[20, 60, 120]
    )
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--queries", type=int, default=30)
    parser.add_argument(
        "--epochs", type=int, default=6,
        help="fault events per pattern (churn/t6 sweep)",
    )
    parser.add_argument(
        "--churn", type=int, default=2,
        help="cells injected/repaired per event (churn/t6 sweep)",
    )
    parser.add_argument(
        "--mode", choices=["mcc", "rfb", "oracle", "blind"], default="mcc",
        help="fault-information model the online service maintains (t6)",
    )
    parser.add_argument(
        "--des", action="store_true",
        help="score the distributed stack under churn next to the "
        "centralized mcc/rfb services (t6 --des)",
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[0.2, 0.5, 1.0],
        help="offered session arrivals per time unit (load/t7 sweep)",
    )
    parser.add_argument(
        "--duration", type=float, default=40.0,
        help="Poisson arrival window per rate (load/t7 sweep)",
    )
    parser.add_argument(
        "--capacity", type=int, default=1,
        help="messages per directed link per link delay (load/t7 sweep)",
    )
    parser.add_argument("--seed", type=int, default=2005)
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
    if args.experiment_name and args.experiment:
        parser.error(
            "give the experiment either positionally or via --experiment, "
            "not both"
        )
    name = args.experiment_name or args.experiment
    if name is None:
        parser.error("an experiment is required (positional or --experiment)")
    experiment = CLI_ALIASES.get(name, name)
    if experiment == "churn_des":
        # Selecting the DES variant by name is the same as ``t6 --des``.
        experiment, args.des = "churn", True
    _, workload_flags = CLI_RUNNERS[experiment]
    workload = {flag: getattr(args, flag) for flag in workload_flags if flag != "mode"}
    try:
        _checked_sweep(args.shape, args.fault_counts, args.trials)
        check_workload(workload)
    except ValueError as exc:
        parser.error(str(exc))
    for flag in ("workers", "shards"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag} must be >= 1, got {value}")
    # Lazy import: harness imports this module's registries at top
    # level, so the reverse edge must stay inside main().
    from repro.experiments.harness import ExperimentSpec

    spec = ExperimentSpec(
        experiment,
        tuple(args.shape),
        tuple(args.fault_counts),
        trials=args.trials,
        seed=args.seed,
        workload=workload,
    )
    table = spec.run(
        workers=args.workers,
        shards=args.shards,
        checkpoint=args.checkpoint,
        save=args.save,
        trace=args.trace,
        mode=args.mode if "mode" in workload_flags else None,
    )
    print(table.to_csv() if args.csv else table.render())


if __name__ == "__main__":
    main()
