"""Tests for the experiment harness: schemas and expected shapes."""

import numpy as np
import pytest

from repro.experiments.exp_des_routing import run_des_routing
from repro.experiments.exp_fidelity import run_fidelity
from repro.experiments.exp_protocol_overhead import run_protocol_overhead
from repro.experiments.exp_region_overhead import (
    region_overhead_once,
    run_region_overhead,
)
from repro.experiments.exp_success_rate import run_success_rate
from repro.experiments import figures
from repro.util.records import ResultTable


class TestRegionOverhead:
    def test_once(self):
        # An NE-diagonal pair costs the MCC model nothing (it blocks no
        # monotone path) but the RFB closure glues it into a 2x2 block;
        # the anti-diagonal pair costs both models two filler nodes.
        mask = np.zeros((10, 10), dtype=bool)
        for cell in [(2, 2), (3, 3), (6, 2), (7, 1)]:
            mask[cell] = True
        mcc, rfb = region_overhead_once(mask)
        assert 0 < mcc < rfb
        assert mcc == 2 and rfb == 4

    def test_table_shape_t1(self):
        table = run_region_overhead((10, 10), [2, 8], trials=4, seed=1)
        assert len(table) == 2
        assert {"faults", "mcc_nonfaulty", "rfb_nonfaulty", "rfb_over_mcc"} <= set(
            table.columns
        )
        # Reproduction target: MCC captures fewer non-faulty nodes.
        for row in table.rows:
            assert row["mcc_nonfaulty"] <= row["rfb_nonfaulty"]

    def test_3d_gap_grows_with_faults(self):
        table = run_region_overhead((8, 8, 8), [4, 32], trials=6, seed=2)
        low, high = table.rows
        assert high["rfb_nonfaulty"] > low["rfb_nonfaulty"]
        assert high["rfb_nonfaulty"] >= high["mcc_nonfaulty"]

    def test_clustered_variant(self):
        table = run_region_overhead(
            (10, 10), [6], trials=4, seed=3, clustered=True
        )
        assert len(table) == 1


class TestSuccessRate:
    def test_ordering_oracle_mcc_rfb_ecube(self):
        table = run_success_rate((8, 8, 8), [8, 30], pairs=40, trials=3, seed=4)
        for row in table.rows:
            # MCC == oracle (the paper's exactness), RFB below, e-cube lowest-ish.
            assert row["mcc"] == pytest.approx(row["oracle"], abs=1e-9)
            assert row["rfb"] <= row["oracle"] + 1e-9
            assert row["ecube"] <= row["oracle"] + 1e-9

    def test_success_degrades_with_faults(self):
        table = run_success_rate((8, 8), [2, 20], pairs=60, trials=3, seed=5)
        assert table.rows[0]["oracle"] >= table.rows[1]["oracle"]


class TestProtocolOverhead:
    def test_schema_and_scaling(self):
        table = run_protocol_overhead((8, 8), [2, 10], trials=2, seed=6)
        assert {"label", "ident", "wall", "total"} <= set(table.columns)
        assert table.rows[1]["total"] >= table.rows[0]["total"]


class TestDESRouting:
    def test_schema_and_agreement(self):
        table = run_des_routing((6, 6), [2, 5], queries=8, trials=2, seed=7)
        for row in table.rows:
            assert row["agreement"] >= 0.99  # P4: distributed == oracle
            assert row["minimal_of_delivered"] == pytest.approx(1.0)


class TestFidelity:
    def test_perfect_agreement_small(self):
        table = run_fidelity((6, 6), [4], pairs=25, trials=3, seed=8)
        row = table.rows[0]
        assert row["cond_agree"] == pytest.approx(1.0)
        assert row["detect_agree"] == pytest.approx(1.0)
        assert row["router_complete"] == pytest.approx(1.0)


class TestFigures:
    def test_figure1_text(self):
        text = figures.figure1()
        assert "rectangular faulty block" in text
        assert "#" in text and "u" in text

    def test_figure5_reproduces_paper_facts(self):
        text = figures.figure5()
        assert "2 = useless" in text
        assert "3 = can't-reach" in text
        assert "MCC count (paper grouping): 2" in text

    def test_figure3_has_merged_chain(self):
        text = figures.figure3_walls()
        assert "merged chains" in text

    def test_figure4_7(self):
        text2 = figures.figure4_7_detection(three_d=False)
        assert "YES" in text2 and "NO" in text2
        text3 = figures.figure4_7_detection(three_d=True)
        assert "feasible=True" in text3

    def test_figure8(self):
        text = figures.figure8_routing()
        assert "delivered=True" in text


class TestRecords:
    def test_result_table_render_and_csv(self):
        table = ResultTable("demo")
        table.add(x=1, y=0.5)
        table.add(x=2, z="w")
        text = table.render()
        assert "demo" in text and "x" in text and "-" in text
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "x,y,z"
        assert table.column("y") == [0.5, None]


class TestExperimentSpec:
    def test_alias_resolution_and_validation(self):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec("t2", (8, 8), (4,), workload={"pairs": 10})
        assert spec.resolved == "success_rate"
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentSpec("t99", (8, 8), (4,))
        with pytest.raises(ValueError, match="workload knobs"):
            ExperimentSpec("t2", (8, 8), (4,), workload={"queries": 10})
        with pytest.raises(ValueError, match="mode="):
            ExperimentSpec("t1", (8, 8), (4,)).run(mode="rfb")

    def test_run_matches_direct_entry_point(self, tmp_path):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            "t2", (8, 8), (4, 8), trials=2, seed=3, workload={"pairs": 12}
        )
        saved = tmp_path / "t2.jsonl"
        via_spec = spec.run(save=str(saved))
        direct = run_success_rate((8, 8), [4, 8], pairs=12, trials=2, seed=3)
        assert via_spec.rows == direct.rows
        assert via_spec.fingerprint == direct.fingerprint
        # The shared save= kwarg wrote the durable JSONL table.
        assert ResultTable.load(str(saved)).rows == direct.rows

    def test_shared_kwargs_contract_is_universal(self):
        import inspect

        from repro.experiments import harness
        from repro.parallel.sharding import CLI_RUNNERS, _resolve

        for name, (runner_path, _flags) in CLI_RUNNERS.items():
            params = inspect.signature(_resolve(runner_path)).parameters
            for kwarg in ("workers", "shards", "checkpoint", "save", "trace"):
                assert kwarg in params, f"{name} run_* lacks {kwarg}="
        assert harness.SHARED_KWARGS == (
            "workers", "shards", "checkpoint", "save", "trace", "mode",
        )
