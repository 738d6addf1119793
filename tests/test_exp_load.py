"""Tests for the T7 contended-link load sweep (exp_load)."""

import os

import numpy as np
import pytest

from repro.distributed.pipeline import DistributedMCCPipeline
from repro.experiments.exp_load import MODES, poisson_schedule
from repro.mesh.topology import Mesh2D
from repro.parallel.sharding import SweepSpec, run_sweep

TINY = SweepSpec(
    "t7", (6, 6), [2, 4], trials=2, seed=7,
    params={"rates": [0.3, 1.0], "duration": 12.0},
)


@pytest.fixture(scope="module")
def tiny_table():
    return run_sweep(TINY)


class TestPoissonSchedule:
    def test_deterministic_and_canonical(self):
        safe = np.ones((6, 6), dtype=bool)
        a = poisson_schedule(np.random.default_rng(3), 1.0, 20.0, safe)
        b = poisson_schedule(np.random.default_rng(3), 1.0, 20.0, safe)
        assert a == b
        assert len(a) > 0
        for t, s, d in a:
            assert 0.0 < t <= 20.0
            assert all(x <= y for x, y in zip(s, d, strict=True))
            assert s != d

    def test_arrival_times_increase(self):
        safe = np.ones((5, 5), dtype=bool)
        times = [t for t, _s, _d in poisson_schedule(np.random.default_rng(1), 2.0, 10.0, safe)]
        assert times == sorted(times)

    def test_rate_scales_arrivals(self):
        safe = np.ones((6, 6), dtype=bool)
        slow = poisson_schedule(np.random.default_rng(5), 0.2, 100.0, safe)
        fast = poisson_schedule(np.random.default_rng(5), 2.0, 100.0, safe)
        assert len(fast) > len(slow)

    @pytest.mark.parametrize(
        "rate, duration",
        [
            (float("nan"), 10.0),
            (float("inf"), 10.0),
            (0.0, 10.0),
            (-1.0, 10.0),
            (1.0, float("inf")),
            (1.0, float("nan")),
            (1.0, 0.0),
        ],
        ids=["nan-rate", "inf-rate", "zero-rate", "negative-rate",
             "inf-duration", "nan-duration", "zero-duration"],
    )
    def test_bad_rate_or_duration_rejected(self, deadline, rate, duration):
        # NaN and inf used to loop forever: the deadline turns a hang
        # into a failure.
        safe = np.ones((6, 6), dtype=bool)
        with deadline(2), pytest.raises(ValueError, match="finite and > 0"):
            poisson_schedule(np.random.default_rng(5), rate, duration, safe)


class TestLoadTable:
    def test_columns_and_shape(self, tiny_table):
        csv = tiny_table.to_csv()
        header = csv.splitlines()[0].split(",")
        for m in MODES:
            for col in (f"delivered_{m}", f"p50_{m}", f"p95_{m}", f"p99_{m}",
                        f"thr_{m}", f"qpeak_{m}", f"sat_{m}"):
                assert col in header
        for col in ("faults", "rate", "offered", "des_delivered", "des_p50",
                    "des_p99", "des_thr"):
            assert col in header
        # One row per (fault count, rate).
        assert len(csv.splitlines()) == 1 + len(TINY.fault_counts) * len(
            TINY.params["rates"]
        )

    def test_saturation_is_max_throughput(self, tiny_table):
        rows = tiny_table.rows
        for m in MODES:
            for faults in TINY.fault_counts:
                group = [r for r in rows if r["faults"] == faults]
                assert group
                sats = {r[f"sat_{m}"] for r in group}
                assert len(sats) == 1
                assert sats.pop() == pytest.approx(
                    max(r[f"thr_{m}"] for r in group)
                )

    def test_offered_traffic_present(self, tiny_table):
        assert sum(r["offered"] for r in tiny_table.rows) > 0
        assert sum(r["des_delivered"] for r in tiny_table.rows) > 0


class TestGolden:
    def test_des_load_golden(self):
        # Golden T7 table: contended-link latencies of the three
        # centralized models and the distributed stack (des_* columns).
        table = run_sweep(
            SweepSpec(
                "t7", (6, 6, 6), [4, 12], trials=1,
                params={"rates": [0.5, 2.0], "duration": 12.0},
            )
        )
        assert table.to_csv().replace("\r\n", "\n") == (
            "faults,rate,offered,"
            "delivered_mcc,p50_mcc,p95_mcc,p99_mcc,thr_mcc,qpeak_mcc,"
            "delivered_rfb,p50_rfb,p95_rfb,p99_rfb,thr_rfb,qpeak_rfb,"
            "delivered_oracle,p50_oracle,p95_oracle,p99_oracle,thr_oracle,"
            "qpeak_oracle,sat_mcc,sat_rfb,sat_oracle,"
            "des_delivered,des_p50,des_p99,des_thr\n"
            "4,0.5,7,"
            "7,5.0,8.7,8.94,0.384988533069038,1,"
            "7,5.0,8.7,8.94,0.384988533069038,1,"
            "7,5.0,8.7,8.94,0.384988533069038,1,"
            "1.0840618113484766,1.0840618113484766,1.0840618113484766,"
            "7,15.0,28.700000000000003,0.03928559488507233\n"
            "4,2.0,25,"
            "24,5.0,8.0,11.08,1.0840618113484766,2,"
            "24,5.0,8.0,11.08,1.0840618113484766,2,"
            "24,5.0,8.0,11.08,1.0840618113484766,2,"
            "1.0840618113484766,1.0840618113484766,1.0840618113484766,"
            "24,17.168378215873403,32.699999999999996,0.13360051410767568\n"
            "12,0.5,1,"
            "1,6.0,6.0,6.0,0.10193317654888051,1,"
            "1,6.0,6.0,6.0,0.10193317654888051,1,"
            "1,6.0,6.0,6.0,0.10193317654888051,1,"
            "1.3349205038657388,0.4643201752576483,1.3349205038657388,"
            "1,18.0,18.0,0.005820371170372142\n"
            "12,2.0,23,"
            "23,6.0,9.699999999999996,10.780000000000001,1.3349205038657388,1,"
            "8,5.0,8.95,9.79,0.4643201752576483,1,"
            "23,6.0,9.699999999999996,10.780000000000001,1.3349205038657388,1,"
            "1.3349205038657388,0.4643201752576483,1.3349205038657388,"
            "23,19.0,31.585200613949482,0.1286377846499942\n"
        )


class TestInvariance:
    def test_shard_and_worker_invariance(self, tiny_table):
        base = tiny_table.to_csv()
        for shards in (2, 3):
            got = run_sweep(TINY, workers=2, shards=shards).to_csv()
            assert got == base

    def test_checkpoint_resume_byte_identical(self, tiny_table, tmp_path):
        base = tiny_table.to_csv()
        ck = os.path.join(tmp_path, "t7.jsonl")
        assert run_sweep(TINY, checkpoint=ck).to_csv() == base
        with open(ck) as fh:
            lines = fh.readlines()
        with open(ck, "w") as fh:
            fh.writelines(lines[:2])  # header + one pattern record
        assert run_sweep(TINY, checkpoint=ck, workers=2).to_csv() == base


class TestSessionLatency:
    def _pipe(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        return DistributedMCCPipeline(Mesh2D(5), mask).build()

    def test_submit_at_delays_arrival(self):
        pipe = self._pipe()
        t0 = pipe.net.sim.now
        handle = pipe.submit((0, 0), (4, 4), at=5.0)
        pipe.drain()
        record = handle.result
        assert record["status"] == "delivered"
        assert record["started_at"] == pytest.approx(t0 + 5.0)
        assert record["latency"] == pytest.approx(
            record["completed_at"] - record["started_at"]
        )
        assert record["latency"] > 0

    def test_contended_sessions_match_uncontended_outcomes(self):
        """Queueing delays messages but never reorders one walker's
        decisions: statuses and paths are identical, latency grows."""
        mask = np.zeros((5, 5), dtype=bool)
        mask[1, 1] = True
        pairs = [((0, 0), (3, 3)), ((0, 1), (4, 4)), ((1, 0), (4, 2))]

        def run(capacity):
            pipe = DistributedMCCPipeline(Mesh2D(5), mask).build()
            pipe.net.set_link_capacity(capacity)
            handles = [pipe.submit(s, d, at=0.0) for s, d in pairs]
            pipe.drain()
            return [
                (h.result["status"], h.result["path"], h.result["latency"])
                for h in handles
            ]

        free = run(None)
        tight = run(1)
        assert [(s, p) for s, p, _l in free] == [(s, p) for s, p, _l in tight]
        assert all(
            lt >= lf for (_, _, lf), (_, _, lt) in zip(free, tight, strict=True)
        )

    def test_infinite_at_rejected(self):
        pipe = self._pipe()
        with pytest.raises(ValueError):
            pipe.submit((0, 0), (4, 4), at=float("nan"))
