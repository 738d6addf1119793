"""Tests for the experiment harness: schemas and expected shapes."""

import numpy as np
import pytest

from repro.experiments.exp_region_overhead import region_overhead_once
from repro.experiments import figures
from repro.parallel.sharding import SweepSpec, run_sweep
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
        table = run_sweep(SweepSpec("t1", (10, 10), [2, 8], trials=4, seed=1))
        assert len(table) == 2
        assert {"faults", "mcc_nonfaulty", "rfb_nonfaulty", "rfb_over_mcc"} <= set(
            table.columns
        )
        # Reproduction target: MCC captures fewer non-faulty nodes.
        for row in table.rows:
            assert row["mcc_nonfaulty"] <= row["rfb_nonfaulty"]

    def test_3d_gap_grows_with_faults(self):
        table = run_sweep(SweepSpec("t1", (8, 8, 8), [4, 32], trials=6, seed=2))
        low, high = table.rows
        assert high["rfb_nonfaulty"] > low["rfb_nonfaulty"]
        assert high["rfb_nonfaulty"] >= high["mcc_nonfaulty"]

    def test_clustered_variant(self):
        table = run_sweep(
            SweepSpec("t1", (10, 10), [6], trials=4, seed=3, params={"clustered": True})
        )
        assert len(table) == 1


class TestSuccessRate:
    def test_ordering_oracle_mcc_rfb_ecube(self):
        table = run_sweep(
            SweepSpec("t2", (8, 8, 8), [8, 30], trials=3, seed=4, params={"pairs": 40})
        )
        for row in table.rows:
            # MCC == oracle (the paper's exactness), RFB below, e-cube lowest-ish.
            assert row["mcc"] == pytest.approx(row["oracle"], abs=1e-9)
            assert row["rfb"] <= row["oracle"] + 1e-9
            assert row["ecube"] <= row["oracle"] + 1e-9

    def test_success_degrades_with_faults(self):
        table = run_sweep(
            SweepSpec("t2", (8, 8), [2, 20], trials=3, seed=5, params={"pairs": 60})
        )
        assert table.rows[0]["oracle"] >= table.rows[1]["oracle"]


class TestProtocolOverhead:
    def test_schema_and_scaling(self):
        table = run_sweep(SweepSpec("t3", (8, 8), [2, 10], trials=2, seed=6))
        assert {"label", "ident", "wall", "total"} <= set(table.columns)
        assert table.rows[1]["total"] >= table.rows[0]["total"]


class TestDESRouting:
    def test_schema_and_agreement(self):
        table = run_sweep(
            SweepSpec("t4", (6, 6), [2, 5], trials=2, seed=7, params={"queries": 8})
        )
        for row in table.rows:
            assert row["agreement"] >= 0.99  # P4: distributed == oracle
            assert row["minimal_of_delivered"] == pytest.approx(1.0)


class TestFidelity:
    def test_perfect_agreement_small(self):
        table = run_sweep(
            SweepSpec("t5", (6, 6), [4], trials=3, seed=8, params={"pairs": 25})
        )
        row = table.rows[0]
        assert row["cond_agree"] == pytest.approx(1.0)
        assert row["detect_agree"] == pytest.approx(1.0)
        assert row["router_complete"] == pytest.approx(1.0)

    def test_one_dimensional_mesh(self):
        # Class-safe 1-D pairs used to reach the 2-D/3-D detection walks,
        # which raised.  With one fault every 1-D cell is class-unsafe.
        table = run_sweep(
            SweepSpec("t5", (9,), [0, 1], trials=1, params={"pairs": 50})
        )
        assert [row["pairs"] for row in table.rows] == [50, 0]
        for key in ("cond_agree", "detect_agree", "router_complete", "exclusion_exact"):
            assert table.rows[0][key] == 1.0


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
    """An experiment as a ``SweepSpec`` names it: alias, knobs, run."""

    def test_alias_resolution_and_validation(self):
        spec = SweepSpec("t2", (8, 8), (4,), trials=1, params={"pairs": 10})
        assert spec.experiment == "success_rate"
        with pytest.raises(ValueError, match="unknown experiment"):
            SweepSpec("t99", (8, 8), (4,), trials=1)
        with pytest.raises(ValueError, match="does not take knobs"):
            SweepSpec("t2", (8, 8), (4,), trials=1, params={"queries": 10})
        with pytest.raises(ValueError, match="mode"):
            SweepSpec("t1", (8, 8), (4,), trials=1, params={"mode": "rfb"})

    def test_run_matches_direct_entry_point(self, tmp_path):
        spec = SweepSpec("t2", (8, 8), (4, 8), trials=2, seed=3, params={"pairs": 12})
        saved = tmp_path / "t2.jsonl"
        via_spec = run_sweep(spec, save=str(saved))
        direct = run_sweep(
            SweepSpec(
                "success_rate", (8, 8), [4, 8], trials=2, seed=3, params={"pairs": 12}
            )
        )
        assert via_spec.rows == direct.rows
        assert via_spec.fingerprint == direct.fingerprint
        # The save= kwarg wrote the durable JSONL table.
        assert ResultTable.load(str(saved)).rows == direct.rows
