"""Tests for the benchmark harness: report tables, microbench tool,
experiment runners and the common apps helper."""

import pytest

from repro.apps.common import RemoteAllocator
from repro.bench.microbench import MicrobenchResult, run_microbench
from repro.bench.report import format_table, ratio, result_slug
from repro.bench.runner import (
    bench_features,
    build_deployment,
    load_hashtable_server,
    run_btree,
    run_dtx,
    run_hashtable,
)
from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import baseline, full
from repro.traffic import run_open_loop
from repro.workloads.ycsb import READ_ONLY, WRITE_HEAVY


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "4.25" in lines[-1]

    def test_ratio_handles_zero(self):
        assert ratio(10, 2) == 5.0
        assert ratio(10, 0) == 0.0

    def test_result_slug_basic(self):
        assert result_slug("Figure 3 (read): IOPS") == "figure-3-read-iops"

    def test_result_slug_never_empty(self):
        """Regression: names with no alphanumerics used to slug to "",
        producing hidden artifact files like ".txt"."""
        assert result_slug("") == "experiment"
        assert result_slug("!!! ???") == "experiment"
        assert result_slug("---") == "experiment"


class TestMicrobench:
    def test_result_str_mentions_iops(self):
        result = MicrobenchResult("smart", 8, 8, 8, "read", 12.5, 93.0)
        assert "IOPS=12.5" in str(result)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_microbench(policy="bogus", threads=1)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            run_microbench(policy="per-thread-db", threads=1, op="cas")

    def test_small_run_reports_throughput(self):
        result = run_microbench(
            policy="per-thread-db", threads=4, depth=8,
            warmup_ns=0.1e6, measure_ns=0.4e6,
        )
        assert result.throughput_mops > 1.0
        assert result.measured_wrs > 100
        assert result.dram_bytes_per_wr == pytest.approx(93.0)

    def test_latency_sampling(self):
        result = run_microbench(
            policy="per-thread-db", threads=2, depth=4,
            warmup_ns=0.1e6, measure_ns=0.4e6, latency_samples=True,
        )
        assert result.batch_latency_p50_ns is not None
        assert result.batch_latency_p99_ns >= result.batch_latency_p50_ns
        # A batch takes at least one RTT.
        assert result.batch_latency_p50_ns >= 2000

    def test_sim_events_recorded_and_replayed(self):
        kw = dict(policy="per-thread-qp", threads=4, depth=4,
                  warmup_ns=0.05e6, measure_ns=0.2e6, seed=5)
        first = run_microbench(**kw)
        second = run_microbench(**kw)
        assert first.sim_events > 0
        assert first.sim_events == second.sim_events

    def test_write_op_supported(self):
        result = run_microbench(
            policy="per-thread-db", threads=2, depth=4, op="write",
            warmup_ns=0.1e6, measure_ns=0.3e6,
        )
        assert result.throughput_mops > 0


class TestBenchFeatures:
    def test_scales_epochs_for_full(self):
        scaled = bench_features(full())
        assert scaled.update_delta_ns < full().update_delta_ns
        assert scaled.retry_window_ns < full().retry_window_ns

    def test_baseline_untouched(self):
        assert bench_features(baseline()) == baseline()


class TestBuildDeployment:
    def test_topology(self):
        deployment = build_deployment(full(), threads=4, compute_blades=2,
                                      memory_blades=3)
        assert len(deployment.compute_nodes) == 2
        assert len(deployment.memory_nodes) == 3
        assert len(deployment.smart_threads) == 8
        # Every thread is connected to every memory node.
        for thread in deployment.compute_nodes[0].threads:
            assert len(thread.qps) == 3


class TestRunners:
    """Tiny end-to-end runs: the point is wiring, not shapes."""

    def test_run_hashtable_returns_sane_result(self):
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 10
        assert result.throughput_mops > 0
        assert result.p50_latency_ns > 0
        assert result.system == "smart-ht"

    def test_run_hashtable_race_baseline(self):
        result = run_hashtable(
            "race", READ_ONLY, threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 10

    def test_run_dtx_smallbank(self):
        result = run_dtx(
            "smart-dtx", "smallbank", threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 5

    def test_run_dtx_tatp(self):
        result = run_dtx(
            "ford", "tatp", threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 5

    def test_run_dtx_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError):
            run_dtx("ford", "tpcc", threads=1, item_count=100)

    def test_run_btree_all_systems(self):
        for system in ("sherman", "sherman-sl", "smart-bt"):
            result = run_btree(
                system, READ_ONLY, threads=2, coroutines=2,
                item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
            )
            assert result.ops > 10, system

    def test_throttle_gap_lowers_throughput(self):
        fast = run_hashtable(
            "smart-ht", READ_ONLY, threads=2, coroutines=4,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=1.0e6,
        )
        slow = run_hashtable(
            "smart-ht", READ_ONLY, threads=2, coroutines=4,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=1.0e6,
            throttle_gap_ns=50_000.0,
        )
        assert slow.throughput_mops < fast.throughput_mops / 2

    @pytest.mark.parametrize("memory_blades", [2, 3])
    def test_small_table_loads_on_several_blades(self, memory_blades):
        # 500 items once sized the table to fewer segments than blades,
        # leaving a blade a zero-byte segment region.
        window = dict(item_count=500, memory_blades=memory_blades, threads=2,
                      warmup_ns=0.05e6, measure_ns=0.1e6)
        closed = run_hashtable(coroutines=2, **window)
        opened = run_open_loop(rate_mops=0.5, workers=4, **window)
        assert closed.ops > 0
        assert opened.tenants[0].completed > 0

    @pytest.mark.parametrize("item_count, memory_blades, segments", [
        (500, 2, 2), (500, 3, 4), (2_000, 2, 2), (20_000, 2, 32),
    ])
    def test_hashtable_segment_count(self, item_count, memory_blades, segments):
        def build():
            return build_deployment(full(), 1, memory_blades=memory_blades)

        _, server = load_hashtable_server(build(), item_count, 0, build)
        assert server.segments == segments


class TestRemoteAllocator:
    def _setup(self):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(1)
        (remote,) = cluster.add_nodes(1)
        head = remote.storage.alloc_region("head", 8)
        heap = remote.storage.alloc_region("heap", 1 << 16)
        remote.storage.write_u64(head.base, heap.base)
        SmartContext(compute, [remote], full())
        smart = SmartThread(compute.threads[0], full())
        allocator = RemoteAllocator(
            smart.handle(), remote.node_id,
            remote.storage.global_addr(head.base), heap.base, heap.end,
            chunk_bytes=256,
        )
        return cluster, allocator, remote, heap

    def test_allocations_unique_and_aligned(self):
        cluster, allocator, _, heap = self._setup()
        offsets = []

        def proc():
            for _ in range(40):
                offsets.append((yield from allocator.alloc(24)))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e8)
        assert len(offsets) == 40
        assert len(set(offsets)) == 40
        assert all(o % 8 == 0 for o in offsets)
        assert all(heap.base <= o < heap.end for o in offsets)

    def test_oversized_alloc_rejected(self):
        cluster, allocator, _, _ = self._setup()

        def proc():
            yield from allocator.alloc(512)

        proc_handle = cluster.sim.spawn(proc())
        with pytest.raises(ValueError):
            cluster.sim.run(until=1e8)

    def test_alloc_large_bypasses_chunking(self):
        cluster, allocator, _, heap = self._setup()
        out = []

        def proc():
            out.append((yield from allocator.alloc_large(4096)))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e8)
        assert heap.base <= out[0] < heap.end

    def test_exhaustion_raises(self):
        cluster, allocator, _, _ = self._setup()

        def proc():
            while True:
                yield from allocator.alloc_large(16384)

        cluster.sim.spawn(proc())
        with pytest.raises(MemoryError):
            cluster.sim.run(until=1e9)
