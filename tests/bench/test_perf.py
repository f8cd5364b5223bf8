"""Smoke tests for the perf-regression harness (repro.bench.perf)."""

from pathlib import Path

import pytest

from repro.bench import perf
from repro.bench.figures import MINI_SCALE


def tiny_kernel(**kwargs):
    return perf.kernel_events_per_sec(procs=4, rounds=25, repeats=2,
                                      **kwargs)


class TestKernelBench:
    def test_reports_positive_rate(self):
        sample = tiny_kernel()
        assert sample["events_per_sec"] > 0
        assert sample["procs"] == 4 and sample["rounds"] == 25
        assert sample["scheduler"] == "heap"
        # 4 sleepers x 25 rounds, plus process-start events.
        assert sample["events"] >= 4 * 25

    def test_deterministic_event_count(self):
        assert tiny_kernel()["events"] == tiny_kernel()["events"]

    def test_calendar_scheduler_same_event_count(self):
        cal = tiny_kernel(scheduler="calendar")
        assert cal["scheduler"] == "calendar"
        assert cal["events"] == tiny_kernel()["events"]


class TestFlockMetrics:
    def test_small_flock_figure(self):
        sample = perf.flock_load_metrics(clients=50, per_client_rate=0.2,
                                         duration=3.0, flock_size=16)
        assert sample["clients"] == 50
        assert sample["ops"] > 0
        assert sample["ops_per_sec"] > 0
        assert sample["peak_rss_mb"] is None or sample["peak_rss_mb"] > 0


class TestFlatness:
    def test_short_and_long_rate_per_mix(self):
        sample = perf.flatness_metrics(
            durations=(2.0, 4.0), clients=50, per_client_rate=0.2,
            flock_size=16)
        assert sample["durations_s"] == [2.0, 4.0]
        for mix in ("queue", "table"):
            short, long_ = sample[mix]["ops_per_sec"]
            assert short > 0 and long_ > 0
            assert sample[mix]["ratio"] == round(long_ / short, 3)


class TestSweepWallClock:
    def test_measures_both_legs(self):
        sample = perf.sweep_wall_clock(["fig6"], MINI_SCALE, jobs=2)
        assert sample["cells"] == len(MINI_SCALE.worker_counts)
        assert sample["serial_s"] > 0 and sample["parallel_s"] > 0
        assert sample["jobs"] == 2 and sample["scale"] == "mini"


class TestBenchDocument:
    def test_write_load_roundtrip(self, tmp_path):
        doc = {"schema": perf.BENCH_SCHEMA_VERSION,
               "kernel": {"events_per_sec": 123.0}}
        path = str(tmp_path / "BENCH_core.json")
        perf.write_bench(doc, path)
        assert perf.load_bench(path) == doc

    def test_load_rejects_other_schema(self, tmp_path):
        path = str(tmp_path / "BENCH_core.json")
        perf.write_bench({"schema": 999}, path)
        with pytest.raises(ValueError, match="schema"):
            perf.load_bench(path)

    def test_committed_bench_is_loadable_and_improved(self):
        """The committed trajectory must show the kernel acceptance bar."""
        committed = (Path(__file__).resolve().parents[2]
                     / "benchmarks" / "perf" / "BENCH_core.json")
        doc = perf.load_bench(str(committed))
        rate = doc["kernel"]["events_per_sec"]
        cal = doc["kernel_calendar"]["events_per_sec"]
        base = doc["baseline"]["kernel_events_per_sec"]
        assert cal >= 2.0 * base, (
            f"committed calendar rate {cal:,.0f} is not >=2x the "
            f"pre-PR heap baseline {base:,.0f}")
        assert rate >= 0.7 * base, (
            f"committed heap rate {rate:,.0f} regressed below the "
            f"30% floor of the pre-PR baseline {base:,.0f}")

    def test_committed_flock_figure_bounded_rss(self):
        committed = (Path(__file__).resolve().parents[2]
                     / "benchmarks" / "perf" / "BENCH_core.json")
        doc = perf.load_bench(str(committed))
        flock = doc["flock"]
        assert flock["clients"] >= 1_000_000
        assert flock["peak_rss_mb"] < 4096, (
            f"1M-client flock run peaked at {flock['peak_rss_mb']} MB")


class TestRegressionGate:
    BASE = {"kernel": {"events_per_sec": 1000.0}}

    def quiet(self, message):
        pass

    def test_within_tolerance_passes(self):
        current = {"kernel": {"events_per_sec": 750.0}}
        assert perf.check_regression(current, self.BASE, log=self.quiet)

    def test_faster_always_passes(self):
        current = {"kernel": {"events_per_sec": 5000.0}}
        assert perf.check_regression(current, self.BASE, log=self.quiet)

    def test_below_floor_fails(self):
        current = {"kernel": {"events_per_sec": 600.0}}
        assert not perf.check_regression(current, self.BASE, log=self.quiet)

    def test_tolerance_is_configurable(self):
        current = {"kernel": {"events_per_sec": 950.0}}
        assert not perf.check_regression(current, self.BASE, tolerance=0.01,
                                         log=self.quiet)

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError):
            perf.check_regression({}, self.BASE, log=self.quiet)

    def test_calendar_gate_applies_when_both_carry_it(self):
        base = {"kernel": {"events_per_sec": 1000.0},
                "kernel_calendar": {"events_per_sec": 2000.0}}
        current = {"kernel": {"events_per_sec": 1000.0},
                   "kernel_calendar": {"events_per_sec": 1000.0}}
        assert not perf.check_regression(current, base, log=self.quiet)
        current["kernel_calendar"]["events_per_sec"] = 1900.0
        assert perf.check_regression(current, base, log=self.quiet)

    def test_calendar_gate_skipped_for_schema1_baseline(self):
        current = {"kernel": {"events_per_sec": 1000.0},
                   "kernel_calendar": {"events_per_sec": 1.0}}
        assert perf.check_regression(current, self.BASE, log=self.quiet)


class TestRunPerf:
    def test_quick_document_shape(self, monkeypatch):
        # Keep the smoke genuinely quick: shrink the kernel bench and
        # point the sweep leg at the mini scale.
        real_kernel = perf.kernel_events_per_sec
        monkeypatch.setattr(
            perf, "kernel_events_per_sec",
            lambda **kw: real_kernel(procs=4, rounds=25, repeats=1, **kw))
        real_flock = perf.flock_load_metrics
        monkeypatch.setattr(
            perf, "flock_load_metrics",
            lambda **kw: real_flock(clients=20, per_client_rate=0.5,
                                    duration=2.0, flock_size=8))
        import repro.bench.figures as figures
        monkeypatch.setattr(figures, "QUICK_SCALE", MINI_SCALE)
        lines = []
        doc = perf.run_perf(quick=True, jobs=2,
                            baseline={"kernel": {"events_per_sec": 1.0},
                                      "host": {}},
                            log=lines.append)
        assert doc["schema"] == perf.BENCH_SCHEMA_VERSION
        assert doc["kernel"]["events_per_sec"] > 0
        assert doc["kernel"]["scheduler"] == "heap"
        assert doc["kernel_calendar"]["scheduler"] == "calendar"
        assert doc["kernel_calendar"]["events_per_sec"] > 0
        assert doc["flock"]["ops"] > 0
        assert doc["flatness"]["queue"]["ratio"] > 0
        assert doc["flatness"]["table"]["ratio"] > 0
        assert doc["sweeps"]["labels"] == ["fig6"]
        assert doc["baseline"]["kernel_events_per_sec"] == 1.0
        assert doc["host"]["cpus"] >= 1
        assert any("kernel" in line for line in lines)
