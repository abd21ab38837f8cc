"""Cross-module integration tests: determinism, feature matrix, and the
experiment/CLI plumbing."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.experiments import ExperimentResult, fig3_qp_policies
from repro.bench.microbench import run_microbench
from repro.bench.runner import run_hashtable
from repro.core.features import SmartFeatures, baseline, full
from repro.workloads.ycsb import WRITE_HEAVY


class TestDeterminism:
    def test_microbench_deterministic(self):
        a = run_microbench(policy="per-thread-db", threads=4, depth=4,
                           warmup_ns=0.1e6, measure_ns=0.4e6, seed=9)
        b = run_microbench(policy="per-thread-db", threads=4, depth=4,
                           warmup_ns=0.1e6, measure_ns=0.4e6, seed=9)
        assert a.throughput_mops == b.throughput_mops
        assert a.measured_wrs == b.measured_wrs

    def test_hashtable_run_deterministic(self):
        kwargs = dict(threads=2, coroutines=2, item_count=2_000,
                      warmup_ns=0.3e6, measure_ns=0.6e6, seed=5)
        a = run_hashtable("smart-ht", WRITE_HEAVY, **kwargs)
        b = run_hashtable("smart-ht", WRITE_HEAVY, **kwargs)
        assert a.ops == b.ops
        assert a.throughput_mops == b.throughput_mops
        assert a.retry_distribution == b.retry_distribution

    def test_different_seed_changes_run(self):
        a = run_hashtable("smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
                          item_count=2_000, warmup_ns=0.3e6, measure_ns=0.6e6,
                          seed=1)
        b = run_hashtable("smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
                          item_count=2_000, warmup_ns=0.3e6, measure_ns=0.6e6,
                          seed=2)
        assert a.ops != b.ops or a.p50_latency_ns != b.p50_latency_ns


class TestFeatureMatrix:
    """Every single-feature configuration must run end to end."""

    @pytest.mark.parametrize("flag", [
        "thread_aware_alloc",
        "work_req_throttling",
        "backoff",
        "dynamic_backoff_limit",
        "coroutine_throttling",
    ])
    def test_single_feature_on(self, flag):
        features = baseline().with_overrides(**{flag: True})
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, features=features,
            warmup_ns=0.3e6, measure_ns=0.6e6,
        )
        assert result.ops > 0

    @pytest.mark.parametrize("flag", [
        "thread_aware_alloc",
        "work_req_throttling",
        "backoff",
        "coroutine_throttling",
    ])
    def test_single_feature_off(self, flag):
        features = full().with_overrides(**{flag: False})
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, features=features,
            warmup_ns=0.3e6, measure_ns=0.6e6,
        )
        assert result.ops > 0


class TestExperimentPlumbing:
    def test_experiment_result_format_and_series(self):
        result = ExperimentResult(
            name="demo", headers=["x", "y"], rows=[[1, 2.0], [3, 4.0]],
            paper_claim="y grows", observations=["checked"],
        )
        text = result.format()
        assert "demo" in text and "paper: y grows" in text and "note:" in text
        assert result.series("y") == [2.0, 4.0]

    def test_fig3_tiny_grid_runs(self):
        result = fig3_qp_policies(threads=(2, 4), measure_ns=0.3e6)
        assert len(result.rows) == 2
        assert result.series("threads") == [2, 4]
        assert all(isinstance(v, float) for v in result.series("per-thread-db"))


class TestCli:
    def test_cli_runs_and_dumps(self, tmp_path, capsys):
        dump = tmp_path / "out.csv"
        code = cli_main([
            "4", "4", "--policy", "per-thread-db",
            "--measure-us", "300", "--dump-file-path", str(dump),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rdma-read: #threads=4, #depth=4" in printed
        assert dump.read_text().startswith("rdma-read,4,4,8,")

    @pytest.mark.parametrize("argv", [
        ["traffic", "--sweep", ","],
        ["odp", "--depths", "0"],
        ["offload", "--chunks", "0"],
    ])
    def test_cli_rejects_bad_list_in_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{argv[1]} values must be ")

    def test_cli_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            cli_main(["4", "4", "--policy", "nope"])

    def test_cli_profile_writes_pstats_next_to_dump(self, tmp_path, capsys):
        import pstats

        dump = tmp_path / "out.csv"
        code = cli_main([
            "2", "2", "--measure-us", "100",
            "--dump-file-path", str(dump), "--profile",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        pstats_path = tmp_path / "out.pstats"
        assert f"profile: wrote {pstats_path}" in printed
        # The dump is a loadable pstats file naming the kernel hot loop.
        stats = pstats.Stats(str(pstats_path))
        assert any("core.py" in key[0] and key[2] == "run"
                   for key in stats.stats)
