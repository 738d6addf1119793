"""Tests for the sharded sweep runner (repro.parallel.sharding).

The load-bearing property: the merged table is byte-identical for any
shard count and any worker count, because every pattern owns a
positionally derived seed and the reducer consumes records in global
task order.  Covers empty shards (more shards than tasks) and
single-pattern shards, plus the multiprocessing pool path itself.

Checkpointing extends the property across process lifetimes: a sweep
killed after any prefix of completed pattern records resumes from its
journal to the same bytes (TestCheckpointResume).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import sharding
from repro.parallel.sharding import (
    ALIASES,
    CHECKPOINT_SCHEMA,
    EXPERIMENTS,
    Experiment,
    PatternTaskError,
    SweepSpec,
    evaluate_shard,
    load_checkpoint,
    partition_tasks,
    plan_tasks,
    reduce_records,
    run_sweep,
)
from repro.util.records import (
    FingerprintMismatchError,
    ResultTable,
    SchemaVersionError,
    TablePersistenceError,
    json_line,
)
from repro.util.validation import check_workload


def small_spec(seed=7, **overrides):
    kwargs = dict(
        experiment="success_rate",
        shape=(6, 6),
        fault_counts=(2, 5),
        trials=3,
        seed=seed,
        params={"pairs": 12},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestPlanAndPartition:
    def test_plan_is_positional_and_deterministic(self):
        a = plan_tasks(small_spec())
        b = plan_tasks(small_spec())
        assert [t.index for t in a] == list(range(6))
        assert [(t.count_index, t.count, t.trial) for t in a] == [
            (0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 5, 0), (1, 5, 1), (1, 5, 2),
        ]
        for x, y in zip(a, b, strict=True):
            assert x.seed.entropy == y.seed.entropy
            assert x.seed.spawn_key == y.seed.spawn_key
            assert np.array_equal(
                x.rng().integers(0, 1 << 30, 4), y.rng().integers(0, 1 << 30, 4)
            )

    def test_seed_sequence_input_is_replayable(self):
        # SeedSequence.spawn is stateful; the runner must copy the
        # sequence so repeated run_sweep calls replay the same patterns.
        seq = np.random.SeedSequence(7)
        spec = small_spec(seed=seq)
        first = run_sweep(spec, workers=1)
        second = run_sweep(spec, workers=1)
        assert first.to_csv() == second.to_csv()
        # And the caller's sequence still spawns from its own counter
        # deterministically relative to an untouched twin.
        assert seq.n_children_spawned == 0

    def test_partition_covers_each_task_once(self):
        tasks = plan_tasks(small_spec())
        for shards in (1, 2, 3, 4, 10):
            parts = partition_tasks(tasks, shards)
            assert len(parts) == shards
            flat = sorted(t.index for part in parts for t in part)
            assert flat == [t.index for t in tasks]
        # More shards than tasks -> some shards are empty, none lost.
        assert any(not part for part in partition_tasks(tasks, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("nope", (4, 4), (1,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec("success_rate", (4, 4), (1,), trials=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SweepSpec("success_rate", (4, 4), (1,), trials=1, seed=-1)
        with pytest.raises(ValueError):
            partition_tasks([], 0)
        with pytest.raises(ValueError):
            run_sweep(small_spec(), workers=0)

    @pytest.mark.parametrize(
        "shape, fault_counts",
        [((0, 5), (1,)), ((6, 6), (-2, 3)), ((2, 2), (5,))],
        ids=["empty-axis", "negative-count", "count-above-size"],
    )
    def test_bad_shape_or_fault_count_rejected(self, shape, fault_counts):
        with pytest.raises(ValueError):
            SweepSpec("region_overhead", shape, fault_counts, trials=1)
        # The CLI's --shape/--fault-counts reach the spec the same way.
        with pytest.raises(SystemExit):
            sharding.main(
                ["t1", "--shape", *map(str, shape),
                 "--fault-counts", *map(str, fault_counts), "--trials", "2"]
            )

    def test_integral_grid_values_are_stored_as_int(self):
        # trials=2.0 names the same sweep as trials=2, and numpy ints
        # fingerprint like Python ints.
        spec = SweepSpec("t1", (4.0, np.int64(4)), (np.int64(1), 2.0), trials=2.0)
        plain = SweepSpec("t1", (4, 4), (1, 2), trials=2)
        assert spec.fingerprint() == plain.fingerprint()
        assert type(spec.trials) is int
        assert all(type(v) is int for v in spec.shape + spec.fault_counts)
        assert len(plan_tasks(spec)) == 4

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"shape": (4.5, 4)}, "shape must be an integer, got 4.5"),
            ({"fault_counts": (1.7,)}, "fault_counts must be an integer, got 1.7"),
        ],
        ids=["trials", "shape", "fault-counts"],
    )
    def test_fractional_grid_values_rejected(self, grid, message):
        # Neither a late TypeError in plan_tasks nor a silent truncation.
        args = {"shape": (4, 4), "fault_counts": (1,), "trials": 2, **grid}
        with pytest.raises(ValueError, match=message):
            SweepSpec("t1", **args)


NAN, INF = float("nan"), float("inf")


class TestWorkloadRule:
    """Bad workload knobs raise ``ValueError`` before any pattern runs."""

    @pytest.mark.parametrize(
        "experiment, kwargs, message",
        [
            ("load", {"rates": [NAN]}, "rates"),
            ("load", {"rates": [INF]}, "rates"),
            ("load", {"rates": [0.5, 0.0]}, "rates"),
            ("load", {"rates": [-1.0]}, "rates"),
            ("load", {"duration": INF}, "duration"),
            ("load", {"duration": NAN}, "duration"),
            ("load", {"capacity": 0}, "capacity"),
            ("churn", {"churn": 0}, "churn"),
            ("churn", {"epochs": -1}, "epochs"),
            ("churn", {"pairs": -1}, "pairs"),
            ("success_rate", {"pairs": -1}, "pairs"),
            ("des_routing", {"queries": -1}, "queries"),
            ("fidelity", {"pairs": -1}, "pairs"),
        ],
        ids=["nan-rate", "inf-rate", "zero-rate", "negative-rate",
             "inf-duration", "nan-duration", "zero-capacity", "zero-churn",
             "negative-epochs", "negative-churn-pairs", "negative-pairs",
             "negative-queries", "negative-fidelity-pairs"],
    )
    def test_python_api_rejects_before_any_pattern(
        self, monkeypatch, experiment, kwargs, message
    ):
        def no_pattern(spec, task):
            raise AssertionError("a pattern ran")

        entry = EXPERIMENTS[experiment]
        monkeypatch.setitem(
            EXPERIMENTS, experiment, entry._replace(evaluator=no_pattern)
        )
        with pytest.raises(ValueError, match=message):
            run_sweep(
                SweepSpec(experiment, (6, 6), [2], trials=1, seed=1, params=kwargs)
            )

    def test_zero_shards_rejected_before_the_checkpoint_opens(self, tmp_path):
        journal = tmp_path / "ck.jsonl"
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_sweep(small_spec(), shards=0, checkpoint=journal)
        assert not journal.exists()


class TestShardInvariance:
    @given(
        seed=st.integers(0, 2**32 - 1),
        shards=st.integers(1, 9),
        experiment=st.sampled_from(["success_rate", "region_overhead"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_merge_equals_single_shard(self, seed, shards, experiment):
        """Merging per-shard tables == the single-shard table, bytewise.

        ``shards`` ranges past the task count (2 counts x 2 trials = 4
        tasks), so empty shards are exercised by construction.
        """
        params = {"pairs": 8} if experiment == "success_rate" else {}
        spec = small_spec(seed=seed, experiment=experiment, trials=2, params=params)
        baseline = run_sweep(spec, workers=1, shards=1)
        sharded = run_sweep(spec, workers=1, shards=shards)
        assert sharded.to_csv() == baseline.to_csv()
        assert sharded.title == baseline.title

    def test_single_pattern_shards(self):
        # One task total: every shard but one is empty.
        spec = small_spec(fault_counts=(3,), trials=1)
        baseline = run_sweep(spec, workers=1, shards=1)
        assert run_sweep(spec, workers=1, shards=5).to_csv() == baseline.to_csv()

    def test_reduce_is_order_insensitive(self):
        spec = small_spec()
        records = []
        for shard in partition_tasks(plan_tasks(spec), 3):
            records.extend(evaluate_shard(spec, shard))
        forward = reduce_records(spec, records)
        backward = reduce_records(spec, list(reversed(records)))
        assert forward.to_csv() == backward.to_csv()

    def test_worker_pool_matches_in_process(self):
        spec = small_spec(trials=2)
        assert (
            run_sweep(spec, workers=2).to_csv()
            == run_sweep(spec, workers=1, shards=2).to_csv()
        )


class TestPortedExperiments:
    def test_success_rate_workers_invariant(self):
        spec = SweepSpec("t2", (6, 6), [2, 5], trials=2, seed=9, params={"pairs": 10})
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert serial.to_csv() == parallel.to_csv()

    def test_region_overhead_workers_invariant(self):
        spec = SweepSpec("t1", (8, 8), [3, 6], trials=3, seed=11)
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2, shards=3)
        assert serial.to_csv() == parallel.to_csv()

    def test_des_routing_workers_invariant(self):
        spec = SweepSpec("t4", (5, 5), [2], trials=2, seed=13, params={"queries": 6})
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.rows[0]["agreement"] >= 0.99

    def test_registry_names_resolve(self):
        # Every registered evaluator/reducer path imports cleanly.
        from repro.parallel.sharding import _resolve

        for entry in EXPERIMENTS.values():
            assert callable(_resolve(entry.evaluator))
            assert callable(_resolve(entry.reducer))

    def test_cli_registries_cover_all_experiments(self):
        # Every alias names a registered experiment, and every registered
        # default passes the knob rule, so a spec that sets no knob is
        # valid for every experiment the CLI offers.
        assert set(ALIASES.values()) <= set(EXPERIMENTS)
        for name, experiment in ALIASES.items():
            assert SweepSpec(name, (4, 4), (1,), trials=1).experiment == experiment
        for entry in EXPERIMENTS.values():
            check_workload(entry.knobs)


def journal_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read().splitlines(keepends=True)


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        spec = small_spec()
        plain = run_sweep(spec, workers=1)
        journal = tmp_path / "t2.jsonl"
        checkpointed = run_sweep(spec, workers=1, checkpoint=journal)
        assert checkpointed.to_csv() == plain.to_csv()
        # One header + one record per pattern, every index journalled.
        lines = journal_lines(journal)
        assert len(lines) == len(plan_tasks(spec)) + 1
        assert sorted(json.loads(ln)["_index"] for ln in lines[1:]) == list(
            range(len(lines) - 1)
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 4),
        shards=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_kill_and_resume_is_byte_identical(self, tmp_path_factory, seed, k, shards):
        """Truncate the journal after k of n records; resume; same bytes.

        ``k`` spans 0 (header only) through n (complete journal, nothing
        left to evaluate); the spec has n = 2 counts x 2 trials = 4.
        """
        spec = small_spec(seed=seed, trials=2, params={"pairs": 6})
        tmp = tmp_path_factory.mktemp("resume")
        journal = tmp / "sweep.jsonl"
        uninterrupted = run_sweep(spec, workers=1, checkpoint=journal)
        lines = journal_lines(journal)
        assert len(lines) == 5

        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines[: 1 + k])
        resumed = run_sweep(spec, workers=1, shards=shards, checkpoint=journal)
        assert resumed.to_csv() == uninterrupted.to_csv()
        assert resumed.render() == uninterrupted.render()
        a, b = tmp / "a.jsonl", tmp / "b.jsonl"
        resumed.save(a, fingerprint=spec.fingerprint())
        uninterrupted.save(b, fingerprint=spec.fingerprint())
        assert a.read_bytes() == b.read_bytes()

    def test_resume_skips_completed_patterns(self, tmp_path, monkeypatch):
        spec = small_spec(trials=2, params={"pairs": 6})
        journal = tmp_path / "sweep.jsonl"
        expect = run_sweep(spec, workers=1, checkpoint=journal)
        lines = journal_lines(journal)
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines[:3])  # header + records 0..1 complete

        evaluated = []
        real_entry = EXPERIMENTS[spec.experiment]

        def counting(spec_, task):
            evaluated.append(task.index)
            from repro.experiments.exp_success_rate import evaluate_pattern

            return evaluate_pattern(spec_, task)

        monkeypatch.setitem(
            EXPERIMENTS, spec.experiment, real_entry._replace(evaluator=counting)
        )
        resumed = run_sweep(spec, workers=1, checkpoint=journal)
        assert resumed.to_csv() == expect.to_csv()
        done = {json.loads(ln)["_index"] for ln in lines[1:3]}
        assert sorted(evaluated) == [
            i for i in range(4) if i not in done
        ]
        # Complete journal: nothing evaluates at all.
        evaluated.clear()
        again = run_sweep(spec, workers=1, checkpoint=journal)
        assert again.to_csv() == expect.to_csv()
        assert evaluated == []

    def test_partial_final_line_is_dropped_and_repaired(self, tmp_path):
        spec = small_spec(trials=2, params={"pairs": 6})
        journal = tmp_path / "sweep.jsonl"
        expect = run_sweep(spec, workers=1, checkpoint=journal)
        lines = journal_lines(journal)
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines[:2])
            fh.write(lines[2][: len(lines[2]) // 2])  # killed mid-append
        resumed = run_sweep(spec, workers=2, checkpoint=journal)
        assert resumed.to_csv() == expect.to_csv()
        # The journal was repaired: all lines complete again.
        assert all(ln.endswith("\n") for ln in journal_lines(journal))

    def test_refuses_to_overwrite_a_foreign_file(self, tmp_path):
        # A mistyped --checkpoint pointing at an unrelated file (here a
        # newline-less one-liner) must not be clobbered.
        spec = small_spec()
        target = tmp_path / "notes.txt"
        target.write_text("precious data, no trailing newline")
        with pytest.raises(TablePersistenceError, match="refusing to overwrite"):
            run_sweep(spec, workers=1, checkpoint=target)
        assert target.read_text() == "precious data, no trailing newline"

    def test_partial_header_restarts_fresh(self, tmp_path):
        # Killed while the very first line was being written: the stub
        # (no newline yet) is replaced by a fresh journal, not rejected.
        from repro.parallel.sharding import _checkpoint_header

        spec = small_spec(trials=2, params={"pairs": 6})
        expect = run_sweep(spec, workers=1)
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(json_line(_checkpoint_header(spec))[:22])
        restarted = run_sweep(spec, workers=1, checkpoint=journal)
        assert restarted.to_csv() == expect.to_csv()
        lines = journal_lines(journal)
        assert len(lines) == 5 and all(ln.endswith("\n") for ln in lines)

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(small_spec(seed=1), workers=1, checkpoint=journal)
        with pytest.raises(FingerprintMismatchError, match="different sweep"):
            run_sweep(small_spec(seed=2), workers=1, checkpoint=journal)
        # Same seed, different workload param: also a different sweep.
        with pytest.raises(FingerprintMismatchError):
            run_sweep(
                small_spec(seed=1, params={"pairs": 99}),
                workers=1,
                checkpoint=journal,
            )

    def test_unknown_schema_version_is_rejected(self, tmp_path):
        spec = small_spec()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(spec, workers=1, checkpoint=journal)
        lines = journal_lines(journal)
        header = json.loads(lines[0])
        header["schema"] = CHECKPOINT_SCHEMA + 1
        with open(journal, "w", encoding="utf-8", newline="") as fh:
            fh.write(json_line(header) + "\n")
            fh.writelines(lines[1:])
        with pytest.raises(SchemaVersionError, match="schema version"):
            run_sweep(spec, workers=1, checkpoint=journal)
        with pytest.raises(SchemaVersionError):
            load_checkpoint(journal, spec)

    def test_generator_seed_cannot_checkpoint(self, tmp_path):
        spec = small_spec(seed=np.random.default_rng(3))
        with pytest.raises(TypeError, match="replayable seed"):
            run_sweep(spec, workers=1, checkpoint=tmp_path / "x.jsonl")

    def test_seed_sequence_fingerprint_is_stable(self):
        a = small_spec(seed=np.random.SeedSequence(42))
        b = small_spec(seed=np.random.SeedSequence(42))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != small_spec(seed=42).fingerprint()


class TestFailureSurfacing:
    def test_poisoned_pattern_reports_which_pattern_died(self, monkeypatch):
        def poison(spec, task):
            if task.index == 2:
                raise ValueError("boom in pattern fn")
            return {"x": 1}

        def reduce_(spec, records):
            table = ResultTable("poison")
            for record in records:
                table.add(x=record["x"])
            return table

        monkeypatch.setitem(EXPERIMENTS, "poisoned", Experiment(poison, reduce_))
        spec = SweepSpec("poisoned", (4, 4), (1, 2), trials=2, seed=77)
        with pytest.raises(PatternTaskError) as err:
            run_sweep(spec, workers=1)
        message = str(err.value)
        # Task 2 = fault count 2, trial 0: index, grid cell, and seed all
        # named, so the failing pattern is replayable from the message.
        assert "pattern task 2" in message
        assert "faults=2" in message and "trial=0" in message
        assert "entropy=77" in message and "spawn_key=" in message
        assert "ValueError: boom in pattern fn" in message
        assert isinstance(err.value.__cause__, ValueError)

    def test_healthy_patterns_before_poison_are_journalled(
        self, monkeypatch, tmp_path
    ):
        def poison(spec, task):
            if task.index == 3:
                raise ValueError("boom")
            return {"x": task.index}

        def reduce_(spec, records):
            table = ResultTable("poison")
            for record in records:
                table.add(x=record["x"])
            return table

        monkeypatch.setitem(EXPERIMENTS, "poisoned", Experiment(poison, reduce_))
        spec = SweepSpec("poisoned", (4, 4), (1, 2), trials=2, seed=5)
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(PatternTaskError):
            run_sweep(spec, workers=1, checkpoint=journal)
        # The crash kept the completed prefix: resume after "fixing" the
        # bug only needs the remaining pattern.
        done = load_checkpoint(journal, spec)
        assert sorted(done) == [0, 1, 2]


class TestCLI:
    def test_main_renders_table(self, capsys):
        sharding.main(
            [
                "region_overhead",
                "--shape", "6", "6",
                "--fault-counts", "2",
                "--trials", "2",
                "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert "T1 region overhead" in out and "rfb_over_mcc" in out

    def test_main_csv(self, capsys):
        sharding.main(
            [
                "success_rate",
                "--shape", "5", "5",
                "--fault-counts", "2",
                "--trials", "1",
                "--pairs", "5",
                "--csv",
            ]
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("faults,")

    def test_main_accepts_paper_alias_checkpoint_and_save(self, capsys, tmp_path):
        journal = tmp_path / "t3.jsonl"
        saved = tmp_path / "t3.table.jsonl"
        argv = [
            "t3",
            "--shape", "5", "5",
            "--fault-counts", "2",
            "--trials", "2",
            "--checkpoint", str(journal),
            "--save", str(saved),
            "--csv",
        ]
        sharding.main(argv)
        first = capsys.readouterr().out
        assert first.splitlines()[0].startswith("faults,")
        assert journal.exists() and saved.exists()
        # Re-running resumes from the complete journal: same output, and
        # the saved table loads back with a matching fingerprint.
        sharding.main(argv)
        assert capsys.readouterr().out == first
        loaded = ResultTable.load(saved)
        assert "per_node" in loaded.columns
        assert loaded.to_csv() + "\n" == first  # print() added the newline

    def test_main_requires_an_experiment(self, capsys):
        with pytest.raises(SystemExit):
            sharding.main(["--shape", "5", "5"])
        assert "experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["t1", "--fault-counts", "-2", "3"], "fault counts must lie in [0, 36]"),
            (["t1", "--shape", "6", "0"], "mesh axis lengths must be >= 1"),
            (["t1", "--fault-counts", "3", "37"], "fault counts must lie in [0, 36]"),
            (["t1", "--trials", "0"], "trials must be >= 1"),
            (["t1", "--seed", "-1"], "seed must be >= 0"),
            (["t7", "--rates", "nan"], "rates must be finite and > 0"),
            (["t7", "--rates", "inf"], "rates must be finite and > 0"),
            (["t7", "--rates", "0.5", "0"], "rates must be finite and > 0"),
            (["t7", "--rates", "-1"], "rates must be finite and > 0"),
            (["t7", "--duration", "inf"], "duration must be finite and > 0"),
            (["t7", "--duration", "nan"], "duration must be finite and > 0"),
            (["t7", "--capacity", "0"], "capacity must be >= 1"),
            (["t6", "--churn", "0"], "churn must be >= 1"),
            (["t6", "--epochs", "-1"], "epochs must be >= 0"),
            (["t2", "--pairs", "-1"], "pairs must be >= 0"),
            (["t4", "--queries", "-1"], "queries must be >= 0"),
            (["t1", "--workers", "0"], "--workers must be >= 1"),
            (["t1", "--shards", "0"], "--shards must be >= 1"),
            (["t1", "--mode", "rfb"], "does not take knobs ['mode']"),
            (["t1", "--pairs", "5"], "does not take knobs ['pairs']"),
            (["t4", "--rates", "1"], "does not take knobs ['rates']"),
            (["t6d", "--mode", "rfb"], "does not take knobs ['mode']"),
        ],
        ids=["negative-count", "zero-length-axis", "count-above-size", "no-trials",
             "negative-seed", "nan-rate", "inf-rate", "zero-rate", "negative-rate",
             "inf-duration", "nan-duration", "zero-capacity", "zero-churn",
             "negative-epochs", "negative-pairs", "negative-queries", "zero-workers",
             "zero-shards", "t1-mode", "t1-pairs", "t4-rates", "t6d-mode"],
    )
    def test_main_reports_bad_sweep_values_as_usage_errors(
        self, capsys, monkeypatch, argv, message
    ):
        # The sweep rule runs before any sweep starts: exit status 2
        # with the usage line, not a traceback from inside the sweep, a
        # table of zeros, (NaN or inf rates and durations) a Poisson
        # loop that never ends, or a knob the experiment never reads
        # dropped in silence.
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(sharding, "run_sweep", no_run)
        grid = ["--shape", "6", "6", "--fault-counts", "2", "--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            sharding.main(grid + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and message in err

    def test_knobs_take_their_default_type(self, capsys, monkeypatch):
        # argparse reads --duration 12 as 12.0; duration=12 from Python
        # names the same sweep, so both share one fingerprint.
        built = []

        def capture(spec, **kwargs):
            built.append(spec)
            return ResultTable("captured")

        monkeypatch.setattr(sharding, "run_sweep", capture)
        sharding.main(
            ["t7", "--shape", "6", "6", "6", "--fault-counts", "2", "--trials", "1",
             "--duration", "12"]
        )
        capsys.readouterr()
        spec = SweepSpec("t7", (6, 6, 6), (2,), trials=1, params={"duration": 12})
        assert built[0].fingerprint() == spec.fingerprint()
        assert type(spec.params["duration"]) is float
        pairs = SweepSpec("t2", (6, 6), (2,), trials=1, params={"pairs": 12.0})
        assert type(pairs.params["pairs"]) is int
        with pytest.raises(ValueError, match="pairs must be an integer"):
            SweepSpec("t2", (6, 6), (2,), trials=1, params={"pairs": 12.5})

    def test_cli_and_python_api_share_fingerprints(self, tmp_path):
        # A checkpoint begun from the CLI must be resumable through the
        # Python API (same spec -> same fingerprint) for T1's default
        # params.
        journal = tmp_path / "t1.jsonl"
        sharding.main(
            [
                "t1",
                "--shape", "6", "6",
                "--fault-counts", "2",
                "--trials", "2",
                "--seed", "3",
                "--checkpoint", str(journal),
            ]
        )
        spec = SweepSpec("t1", (6, 6), [2], trials=2, seed=3)
        plain = run_sweep(spec)
        resumed = run_sweep(spec, checkpoint=journal)
        assert resumed.to_csv() == plain.to_csv()

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS) + sorted(ALIASES))
    def test_cli_builds_the_python_spec_for_every_experiment(
        self, capsys, monkeypatch, name
    ):
        # With no knob flag the CLI and SweepSpec fill the same registered
        # defaults, so their checkpoints share one fingerprint.
        built = []

        def capture(spec, **kwargs):
            built.append(spec)
            return ResultTable("captured")

        monkeypatch.setattr(sharding, "run_sweep", capture)
        sharding.main(
            [name, "--shape", "6", "6", "--fault-counts", "2", "--trials", "2",
             "--seed", "3"]
        )
        capsys.readouterr()
        spec = SweepSpec(name, (6, 6), (2,), trials=2, seed=3)
        assert built == [spec]
        assert built[0].fingerprint() == spec.fingerprint()
