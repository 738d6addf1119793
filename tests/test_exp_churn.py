"""Tests for the T6 churn experiment (repro.experiments.exp_churn)."""

import numpy as np

from repro.experiments.exp_churn import evaluate_pattern
from repro.parallel.sharding import (
    ALIASES,
    EXPERIMENTS,
    SweepSpec,
    plan_tasks,
    run_sweep,
)


def tiny_spec(**overrides):
    kwargs = dict(
        experiment="churn",
        shape=(6, 6, 6),
        fault_counts=(3, 9),
        trials=2,
        seed=17,
        params={"pairs": 15, "epochs": 4, "churn": 2},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestRegistration:
    def test_registered_everywhere(self):
        assert "churn" in EXPERIMENTS
        assert "churn_des" in EXPERIMENTS
        assert ALIASES["t6"] == "churn"
        assert ALIASES["t6d"] == "churn_des"
        # The knobs each churn tier takes (and the CLI flags it accepts).
        assert set(EXPERIMENTS["churn"].knobs) == {"pairs", "epochs", "churn", "mode"}
        assert set(EXPERIMENTS["churn_des"].knobs) == {"pairs", "epochs", "churn"}

    def test_t6d_and_churn_des_build_the_same_spec(self):
        grid = ((5, 5), (2,), 1)
        assert SweepSpec("t6d", *grid) == SweepSpec("churn_des", *grid)
        assert SweepSpec("t6d", *grid).fingerprint() == (
            SweepSpec("churn_des", *grid).fingerprint()
        )


class TestEvaluatePattern:
    def test_counters_are_consistent(self):
        spec = tiny_spec()
        task = plan_tasks(spec)[0]
        record = evaluate_pattern(spec, task)
        assert record["pairs"] == (
            record["delivered"] + record["infeasible"] + record["stuck"]
        )
        # 4 epochs, every one applies an event on a 6^3 mesh.
        assert record["events"] == 4
        assert record["pairs"] > 0
        assert record["evicted"] + record["retained"] >= 0

    def test_deterministic_per_task(self):
        spec = tiny_spec()
        task = plan_tasks(spec)[0]
        assert evaluate_pattern(spec, task) == evaluate_pattern(spec, task)


class TestSweep:
    def test_shard_and_worker_invariance(self):
        spec = tiny_spec()
        base = run_sweep(spec, workers=1, shards=1)
        for workers, shards in ((1, 3), (2, 2), (1, 5)):
            other = run_sweep(spec, workers=workers, shards=shards)
            assert other.render() == base.render()
            assert other.to_csv() == base.to_csv()

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        clean = run_sweep(spec, workers=1)
        journal = tmp_path / "t6.jsonl"
        full = run_sweep(spec, workers=1, checkpoint=str(journal))
        assert full.render() == clean.render()
        lines = journal.read_text().splitlines(keepends=True)
        # Truncate to header + one record and resume.
        journal.write_text("".join(lines[:2]))
        resumed = run_sweep(spec, workers=1, checkpoint=str(journal))
        assert resumed.render() == clean.render()

    def test_small_t6_sweep(self):
        table = run_sweep(
            SweepSpec(
                "t6", (5, 5), [2], trials=1, seed=3,
                params={"pairs": 8, "epochs": 2, "churn": 1},
            )
        )
        rows = table.rows
        assert len(rows) == 1
        assert 0.0 <= rows[0]["delivered"] <= 1.0
        assert rows[0]["pairs"] > 0


class TestDESVariant:
    def des_spec(self, **overrides):
        kwargs = dict(
            experiment="churn_des",
            shape=(6, 6, 6),
            fault_counts=(3, 8),
            trials=2,
            seed=23,
            params={"pairs": 8, "epochs": 3, "churn": 2},
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_counters_consistent_and_des_tracks_mcc(self):
        from repro.experiments.exp_churn import evaluate_des_pattern

        spec = self.des_spec()
        task = plan_tasks(spec)[0]
        record = evaluate_des_pattern(spec, task)
        assert record["pairs"] == (
            record["des_delivered"]
            + record["des_infeasible"]
            + record["des_stuck"]
        )
        assert record["pairs"] > 0 and record["events"] == 3
        # The distributed walker and the centralized MCC service are
        # both exact, so they must agree pair-for-pair under churn.
        assert record["agree"] == record["pairs"]
        assert record["rfb_delivered"] <= record["mcc_delivered"]

    def test_shard_and_worker_invariance(self):
        spec = self.des_spec()
        base = run_sweep(spec, workers=1, shards=1)
        for workers, shards in ((1, 3), (2, 2)):
            other = run_sweep(spec, workers=workers, shards=shards)
            assert other.to_csv() == base.to_csv()

    def test_small_t6d_sweep(self):
        table = run_sweep(
            SweepSpec(
                "t6d", (5, 5), [2], trials=1, seed=3,
                params={"pairs": 6, "epochs": 2, "churn": 1},
            )
        )
        row = table.rows[0]
        assert {"des", "mcc", "rfb", "agree_des_mcc"} <= set(table.columns)
        assert 0.0 <= row["des"] <= 1.0

    def test_des_golden(self):
        # Golden T6d table: the distributed stack's verdicts, per-query
        # message cost and re-stabilization cost under churn.
        table = run_sweep(
            SweepSpec(
                "t6d", (7, 7, 7), [6, 20], trials=1, params={"pairs": 8, "epochs": 3}
            )
        )
        assert table.to_csv().replace("\r\n", "\n") == (
            "faults,pairs,des,mcc,rfb,agree_des_mcc,des_stuck,msgs_per_query,"
            "stabilize_msgs_per_event,restart_cells_per_event\n"
            "6,24,1.0,1.0,0.9583333333333334,1.0,0,85.04166666666667,815.0,"
            "101.66666666666667\n"
            "20,24,0.9166666666666666,0.9166666666666666,0.0,1.0,0,"
            "88.04166666666667,1528.6666666666667,157.0\n"
        )

    def test_rfb_mode_runs(self):
        # Golden T6r cost columns: the 6-fault row recomputes cropped
        # regions only, the 20-fault row hits the full fallback, and
        # cache_retained pins eviction by the dirty box.
        table = run_sweep(
            SweepSpec(
                "t6", (8, 8, 8), [6, 20], trials=2, seed=5,
                params={"pairs": 20, "epochs": 6, "churn": 2, "mode": "rfb"},
            )
        )
        assert "model rfb" in table.title
        assert table.to_csv().replace("\r\n", "\n") == (
            "faults,pairs,delivered,infeasible,stuck,relabel_cells_per_event,"
            "label_delta_per_event,full_recomputes,cache_retained\n"
            "6,240,0.9875,0.0125,0,73.58333333333333,0.0,0,0.40350877192982454\n"
            "20,240,0.675,0.325,0,860.0,0.0,10,0.11152416356877323\n"
        )


class TestChurnSemantics:
    def test_fault_count_oscillates_not_drifts(self):
        # Alternating inject/repair of the same churn size keeps the
        # fault population around its seed value; with churn=2 over 4
        # epochs the count never drifts by more than 2.
        from repro.experiments.workloads import random_fault_mask
        from repro.online import OnlineRoutingService

        rng = np.random.default_rng(5)
        mask = random_fault_mask((6, 6, 6), 9, rng=rng)
        online = OnlineRoutingService(mask)
        start = int(online.fault_mask.sum())
        for epoch in range(4):
            current = online.fault_mask
            pool = np.argwhere(~current if epoch % 2 == 0 else current)
            picks = rng.choice(len(pool), size=2, replace=False)
            cells = [tuple(int(v) for v in pool[i]) for i in picks]
            if epoch % 2 == 0:
                online.inject(cells)
            else:
                online.repair(cells)
            assert abs(int(online.fault_mask.sum()) - start) <= 2
