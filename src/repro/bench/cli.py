"""Command-line bench tool, mirroring the artifact's ``test_rdma``.

The paper's appendix (A.4.1) runs::

    LD_PRELOAD=libmlx5.so ./test/test_rdma 96 8

and prints::

    rdma-read: #threads=96, #depth=8, #block_size=8, BW=848.217 MB/s,
    IOPS=111.177 M/s, conn establish time=1245.924 ms

This module provides the simulated equivalent::

    python -m repro.bench.cli 96 8 --policy smart
    python -m repro.bench.cli --help

and can append a CSV line to a dump file, exactly like the artifact.

Figure grids run through the same tool: ``--figure fig7`` regenerates a
paper figure, and ``--jobs N`` (or ``REPRO_JOBS=N``) fans its
independent simulation points out over a process pool.

``traffic`` is a subcommand driving the open-loop multi-tenant engine::

    python -m repro.bench.cli traffic --app hashtable --rate 2.0
    python -m repro.bench.cli traffic --sweep 0.5,1,2,4 --json knee.json

A single run prints one row per tenant; ``--sweep`` runs the
``latency_throughput`` knee-finder experiment over the given offered
rates instead.

``resharding`` migrates shards of a live table between blades online,
under the same open-loop traffic, and prints per-tenant queue delay
for the before/during/after phases::

    python -m repro.bench.cli resharding --mode add_blade
    python -m repro.bench.cli resharding --mode drain --json out.json

``odp`` sweeps the on-demand-paging pinned ratio against the
outstanding-WR count, with and without doorbell request merging::

    python -m repro.bench.cli odp --ratios 1.0,0.5 --depths 4,32
    python -m repro.bench.cli odp --json odp.json

``offload`` sweeps the near-memory graph workload (BFS / PageRank)
across R-MAT skew, AM fan-out and the three execution modes::

    python -m repro.bench.cli offload --skews 0.0,0.6 --chunks 8,32
    python -m repro.bench.cli offload --algo pagerank --sanitize --json out.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional

from repro.bench.microbench import POLICIES, run_microbench
from repro.bench.parallel import default_jobs


def profile_path_for(args) -> str:
    """Where ``--profile`` writes its pstats dump: next to the result
    JSON (or CSV dump file) when one is requested, else the cwd."""
    for attr in ("json", "dump_file_path"):
        target = getattr(args, attr, None)
        if target:
            return os.path.splitext(target)[0] + ".pstats"
    return "repro-bench.pstats"


def run_profiled(path: str, fn: Callable[[], int]) -> int:
    """Run ``fn`` under cProfile; dump pstats to ``path`` and print the
    top of the cumulative-time table so the hotspots are visible without
    opening the dump.

    Only the parent process is profiled — with ``--jobs`` > 1 the
    simulation work happens in pool workers, so profile kernel-level
    questions with ``--jobs 1``.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        table = io.StringIO()
        stats = pstats.Stats(profiler, stream=table)
        stats.strip_dirs().sort_stats("cumulative").print_stats(10)
        print(table.getvalue().rstrip())
        print(f"profile: wrote {path} "
              f"(inspect with: python -m pstats {path})")


def list_arg(text, flag, cast, valid, rule):
    """The values of a comma-separated list option (None when not given).

    An empty or malformed list, or any value that fails ``valid``, exits
    with status 2 and the one-line message "``flag`` values must be
    ``rule``".
    """
    if text is None:
        return None
    try:
        values = tuple(cast(v) for v in text.split(",") if v.strip())
    except ValueError:
        values = ()
    if values and all(valid(v) for v in values):
        return values
    print(f"{flag} values must be {rule}", file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="simulated equivalent of SMART's test_rdma micro-benchmark",
    )
    parser.add_argument("threads", type=int, nargs="?", default=96,
                        help="worker thread count (default: 96)")
    parser.add_argument("depth", type=int, nargs="?", default=8,
                        help="outstanding work requests per thread (default: 8)")
    parser.add_argument("--policy", choices=POLICIES, default="smart",
                        help="QP allocation policy (default: smart)")
    parser.add_argument("--op", choices=("read", "write"), default="read")
    parser.add_argument("--block-size", type=int, default=8,
                        help="payload bytes per work request (default: 8)")
    parser.add_argument("--memory-nodes", type=int, default=1)
    parser.add_argument("--measure-us", type=float, default=1500.0,
                        help="measured window, simulated microseconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--access", choices=("random", "seq"), default="random",
                        help="remote address pattern per batch; 'seq' makes "
                             "WRs contiguous (mergeable)")
    parser.add_argument("--pinned-ratio", type=float, default=None,
                        metavar="R",
                        help="fraction of pages with pinned translations; "
                             "the rest fault on demand (default: 1.0)")
    parser.add_argument("--merge-wrs", action="store_true",
                        help="fuse address-contiguous WRs into one wire "
                             "message (RDMAbox-style request merging)")
    parser.add_argument("--adaptive-poll", action="store_true",
                        help="spin-then-yield CQ polling with amortized "
                             "batch drain")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault schedule: 'seeded' or clause list, e.g. "
                             "'loss=0.02@0.5ms+1ms,crash=1@0.8ms+0.4ms' "
                             "(kind=value@start+duration[:node])")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault schedule / per-message draws "
                             "(same seed replays a faulty run bit-identically)")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach RDMASan (remote-memory race sanitizer); "
                             "exits 1 when any finding is reported")
    parser.add_argument("--dump-file-path", default=None,
                        help="append a CSV result line to this file")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Perfetto/chrome://tracing timeline "
                             "(JSON) of the run to PATH")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics registry (counters, gauges, "
                             "latency histograms) as JSON to PATH")
    parser.add_argument("--figure", default=None, metavar="NAME",
                        help="regenerate a paper figure/table grid instead of "
                             "a single point (fig3..fig14, table1; 'all' runs "
                             "the whole suite)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="process-pool workers for --figure grids "
                             "(default: $REPRO_JOBS or 1 = serial; "
                             "0 = all cores)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="with --figure: also write the result rows as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and write a pstats dump next "
                             "to the result JSON/CSV (kernel PRs start from "
                             "data; profiles the parent process — use "
                             "--jobs 1 to capture simulation work)")
    return parser


def build_traffic_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench traffic",
        description="open-loop multi-tenant traffic engine "
                    "(arrivals independent of completions)",
    )
    parser.add_argument("--app", choices=("hashtable", "dtx", "btree"),
                        default="hashtable")
    parser.add_argument("--system", default=None,
                        help="system under test (default: the SMART variant "
                             "for --app; e.g. race, smart-ht, ford, sherman)")
    parser.add_argument("--workload",
                        choices=("write-heavy", "read-heavy", "read-only",
                                 "update-only"),
                        default=None,
                        help="YCSB mix for hashtable/btree (default: write-heavy)")
    parser.add_argument("--theta", type=float, default=None,
                        help="override the workload's Zipfian skew")
    parser.add_argument("--benchmark", choices=("smallbank", "tatp"),
                        default="smallbank", help="DTX benchmark")
    parser.add_argument("--arrivals",
                        choices=("deterministic", "poisson", "onoff", "ramp",
                                 "diurnal"),
                        default="poisson")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="offered load in MOPS, split across tenants "
                             "(base/trough rate for onoff/ramp/diurnal)")
    parser.add_argument("--peak", type=float, default=None,
                        help="peak rate in MOPS for onoff/ramp/diurnal "
                             "(default: 2x --rate)")
    parser.add_argument("--period-us", type=float, default=200.0,
                        help="on+off cycle / ramp / diurnal period, "
                             "simulated microseconds")
    parser.add_argument("--tenants", type=int, default=1,
                        help="tenant count; each gets rate/N and workers/N")
    parser.add_argument("--workers", type=int, default=16,
                        help="total worker coroutines across tenants")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--servers", type=int, default=1,
                        help="btree only: combined compute+memory blades")
    parser.add_argument("--item-count", type=int, default=30_000)
    parser.add_argument("--warmup-us", type=float, default=1000.0)
    parser.add_argument("--measure-us", type=float, default=1500.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slo-p99-us", type=float, default=None,
                        help="per-tenant p99 target; enables admission control")
    parser.add_argument("--max-queue", type=int, default=None,
                        help="per-tenant hard queue-depth cap")
    parser.add_argument("--admission", choices=("none", "shed", "defer"),
                        default=None,
                        help="over-budget policy (default: shed when an SLO "
                             "is set, else none)")
    parser.add_argument("--sweep", default=None, metavar="RATES",
                        help="comma-separated offered rates (MOPS): run the "
                             "latency_throughput knee sweep instead of one point")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="process-pool workers for --sweep "
                             "(0 = all cores)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write results as JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and write a pstats dump next "
                             "to the result JSON")
    return parser


def build_resharding_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench resharding",
        description="online shard migration under live open-loop traffic "
                    "(sharded hash table; blade join / drain / autoscale)",
    )
    parser.add_argument("--mode", choices=("add_blade", "drain", "autoscale"),
                        default="add_blade")
    parser.add_argument("--rate", type=float, default=0.4,
                        help="offered load in MOPS, split across tenants")
    parser.add_argument("--tenants", type=int, default=1,
                        help="tenant count; each gets rate/N and workers/N")
    parser.add_argument("--workers", type=int, default=4,
                        help="total worker coroutines across tenants")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--memory-blades", type=int, default=2)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--item-count", type=int, default=2_000)
    parser.add_argument("--warmup-us", type=float, default=500.0)
    parser.add_argument("--phase-us", type=float, default=1000.0,
                        help="length of each measured phase "
                             "(before / during / after), simulated us")
    parser.add_argument("--slo-p99-us", type=float, default=None,
                        help="per-tenant p99 target; enables admission control")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result as JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and write a pstats dump next "
                             "to the result JSON")
    return parser


def run_resharding_cmd(argv: List[str]) -> int:
    args = build_resharding_parser().parse_args(argv)
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    if args.profile:
        return run_profiled(profile_path_for(args),
                            lambda: _run_resharding(args))
    return _run_resharding(args)


def _run_resharding(args) -> int:
    import json

    from repro.bench.report import format_table
    from repro.traffic import (
        NO_SLO, PoissonArrivals, Slo, TenantSpec, run_resharding,
    )

    slo = (NO_SLO if args.slo_p99_us is None
           else Slo(target_p99_ns=args.slo_p99_us * 1e3, policy="shed"))
    workers_each = max(1, args.workers // args.tenants)
    tenants = [
        TenantSpec(f"t{i}", PoissonArrivals(args.rate / args.tenants),
                   slo=slo, workers=workers_each)
        for i in range(args.tenants)
    ]

    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = run_resharding(
        tenants=tenants, mode=args.mode, threads=args.threads,
        memory_blades=args.memory_blades, num_shards=args.shards,
        item_count=args.item_count, warmup_ns=args.warmup_us * 1e3,
        phase_ns=args.phase_us * 1e3, seed=args.seed,
    )
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)

    headers = ["phase", "tenant", "completed", "shed", "deferred",
               "queue_p50_us", "queue_p99_us"]
    rows = [
        [p.phase, p.tenant, p.completed, p.shed, p.deferred,
         (p.queue_p50_ns or 0) / 1e3, (p.queue_p99_ns or 0) / 1e3]
        for p in result.phases
    ]
    print(format_table(
        headers, rows,
        title=f"resharding ({result.mode}): queue delay around the rebalance",
    ))
    migration = result.migration_ns
    print(f"moves={len(result.moves)}, keys_copied={result.keys_copied}, "
          f"keys_skipped={result.keys_skipped}, "
          f"mirror_writes={result.mirror_writes}, "
          f"bytes_freed={result.bytes_freed}, "
          f"blades {result.blades_before}->{result.blades_after}")
    if migration is not None:
        print(f"migration took {migration / 1e3:.1f} us "
              f"(alloc p50={result.alloc_p50_ns or 0:.0f} ns over "
              f"{result.alloc_count} region allocs)")
    else:
        print("no migration was triggered")
    print(f"wall time={wall_s:.1f} s")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def build_odp_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench odp",
        description="ODP pinned-ratio sweep x outstanding-WR count, with "
                    "and without RDMAbox-style doorbell request merging",
    )
    parser.add_argument("--ratios", default=None, metavar="R1,R2,...",
                        help="pinned ratios to sweep (default: quick grid "
                             "1.0,0.75,0.5; REPRO_FULL=1 widens it)")
    parser.add_argument("--depths", default=None, metavar="D1,D2,...",
                        help="outstanding-WR depths to sweep "
                             "(default: quick grid 4,32)")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--block-size", type=int, default=64, metavar="BYTES")
    parser.add_argument("--measure-us", type=float, default=1000.0,
                        help="measurement window per point, simulated us")
    parser.add_argument("--jobs", type=int, default=None,
                        help="process-pool workers (0 = all cores)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result as JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and write a pstats dump next "
                             "to the result JSON")
    return parser


def run_odp_cmd(argv: List[str]) -> int:
    args = build_odp_parser().parse_args(argv)
    if args.profile:
        return run_profiled(profile_path_for(args), lambda: _run_odp(args))
    return _run_odp(args)


def _run_odp(args) -> int:
    from repro.bench.experiments import odp_sweep
    from repro.bench.report import write_experiment_json

    ratios = list_arg(args.ratios, "--ratios", float,
                      lambda r: 0.0 <= r <= 1.0, "in [0, 1]")
    depths = list_arg(args.depths, "--depths", int, lambda d: d >= 1,
                      "integers >= 1")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = odp_sweep(
        ratios=ratios, depths=depths, threads=args.threads,
        payload=args.block_size, measure_ns=args.measure_us * 1e3, jobs=jobs,
    )
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
    print(result.format())
    print(f"wall time={wall_s:.1f} s (jobs={jobs})")
    if args.json:
        write_experiment_json(result, args.json)
        print(f"wrote {args.json}")
    return 0


def build_offload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench offload",
        description="Near-memory offload sweep: graph skew x AM fan-out x "
                    "execution mode (one-sided CAS vs RPC vs offload)",
    )
    parser.add_argument("--skews", default=None, metavar="S1,S2,...",
                        help="R-MAT skews to sweep (default: quick grid "
                             "0.0,0.6; REPRO_FULL=1 widens it)")
    parser.add_argument("--chunks", default=None, metavar="C1,C2,...",
                        help="offload fan-outs to sweep (frontier slots per "
                             "active message; default: quick grid 8,32)")
    parser.add_argument("--modes", default="onesided,rpc,offload",
                        metavar="M1,M2,...",
                        help="execution modes (default: all three)")
    parser.add_argument("--algo", choices=("bfs", "pagerank"), default="bfs")
    parser.add_argument("--vertices", type=int, default=192)
    parser.add_argument("--degree", type=int, default=6)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--coroutines", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sanitize", action="store_true",
                        help="run every point under RDMASan")
    parser.add_argument("--jobs", type=int, default=None,
                        help="process-pool workers (0 = all cores)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result as JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and write a pstats dump next "
                             "to the result JSON")
    return parser


def run_offload_cmd(argv: List[str]) -> int:
    args = build_offload_parser().parse_args(argv)
    if args.profile:
        return run_profiled(profile_path_for(args), lambda: _run_offload(args))
    return _run_offload(args)


def _run_offload(args) -> int:
    from repro.apps.graph.client import MODES
    from repro.bench.experiments import offload_sweep
    from repro.bench.report import write_experiment_json

    skews = list_arg(args.skews, "--skews", float, lambda s: 0.0 <= s < 1.0,
                     "in [0, 1)")
    chunks = list_arg(args.chunks, "--chunks", int, lambda c: c >= 1,
                      "integers >= 1")
    modes = list_arg(args.modes, "--modes", str.strip, MODES.__contains__,
                     f"among {MODES}")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = offload_sweep(
        skews=skews, chunks=chunks, modes=modes, algo=args.algo,
        vertices=args.vertices, degree=args.degree, threads=args.threads,
        coroutines=args.coroutines, seed=args.seed, sanitize=args.sanitize,
        jobs=jobs,
    )
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
    print(result.format())
    print(f"wall time={wall_s:.1f} s (jobs={jobs})")
    if args.json:
        write_experiment_json(result, args.json)
        print(f"wrote {args.json}")
    return 0


_WORKLOADS = {
    "write-heavy": "WRITE_HEAVY",
    "read-heavy": "READ_HEAVY",
    "read-only": "READ_ONLY",
    "update-only": "UPDATE_ONLY",
}


def _traffic_arrivals(args):
    from repro.traffic import (
        DeterministicArrivals, OnOffArrivals, PoissonArrivals, RampArrivals,
    )

    rate = args.rate / args.tenants
    peak = (args.peak if args.peak is not None else 2.0 * args.rate) / args.tenants
    period_ns = args.period_us * 1e3
    if args.arrivals == "deterministic":
        return DeterministicArrivals(rate)
    if args.arrivals == "poisson":
        return PoissonArrivals(rate)
    if args.arrivals == "onoff":
        return OnOffArrivals(on_rate_mops=peak, off_rate_mops=0.0,
                             mean_on_ns=period_ns / 2, mean_off_ns=period_ns / 2)
    return RampArrivals(start_mops=rate, end_mops=peak, period_ns=period_ns,
                        shape="linear" if args.arrivals == "ramp" else "diurnal")


def run_traffic(argv: List[str]) -> int:
    args = build_traffic_parser().parse_args(argv)
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    if args.profile:
        return run_profiled(profile_path_for(args), lambda: _run_traffic(args))
    return _run_traffic(args)


def _run_traffic(args) -> int:
    import dataclasses
    import json

    from repro.bench.report import format_table

    if args.sweep is not None:
        from repro.bench.experiments import latency_throughput
        from repro.bench.report import write_experiment_json

        rates = list_arg(args.sweep, "--sweep", float, lambda r: r > 0,
                         "positive rates in MOPS")
        result = latency_throughput(
            app=args.app, rates_mops=rates, threads=args.threads,
            workers=args.workers, item_count=args.item_count,
            warmup_ns=args.warmup_us * 1e3, measure_ns=args.measure_us * 1e3,
            jobs=args.jobs,
        )
        print(result.format())
        if args.json:
            write_experiment_json(result, args.json)
            print(f"wrote {args.json}")
        return 0

    from repro.traffic import NO_SLO, Slo, TenantSpec, run_open_loop

    workload = None
    if args.workload is not None:
        import repro.workloads.ycsb as ycsb

        workload = getattr(ycsb, _WORKLOADS[args.workload])
    if args.theta is not None:
        from repro.workloads.ycsb import WRITE_HEAVY

        workload = (workload or WRITE_HEAVY).with_theta(args.theta)
    if args.app == "dtx":
        workload = args.benchmark

    if args.slo_p99_us is None and args.max_queue is None:
        slo = NO_SLO
    else:
        policy = args.admission or "shed"
        slo = Slo(
            target_p99_ns=(args.slo_p99_us * 1e3
                           if args.slo_p99_us is not None else None),
            max_queue_depth=args.max_queue,
            policy=policy,
        )
    arrivals = _traffic_arrivals(args)
    workers_each = max(1, args.workers // args.tenants)
    tenants = [
        TenantSpec(f"t{i}", arrivals, workload=workload, slo=slo,
                   workers=workers_each)
        for i in range(args.tenants)
    ]

    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = run_open_loop(
        app=args.app, system=args.system, tenants=tenants,
        threads=args.threads, servers=args.servers,
        item_count=args.item_count, benchmark=args.benchmark,
        warmup_ns=args.warmup_us * 1e3, measure_ns=args.measure_us * 1e3,
        seed=args.seed,
    )
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
    headers = ["tenant", "offered", "achieved", "shed", "deferred", "backlog",
               "p50_us", "p99_us", "queue_p99_us"]
    rows = [
        [t.tenant, t.offered_mops, t.achieved_mops, t.shed, t.deferred,
         t.backlog, (t.p50_latency_ns or 0) / 1e3, (t.p99_latency_ns or 0) / 1e3,
         (t.queue_p99_ns or 0) / 1e3]
        for t in result.tenants
    ]
    print(format_table(
        headers, rows,
        title=f"open-loop {result.app} ({result.system}), "
              f"{args.arrivals} arrivals",
    ))
    print(f"total: offered={result.offered_mops:.3f} MOPS, "
          f"achieved={result.achieved_mops:.3f} MOPS, "
          f"wall time={wall_s:.1f} s")
    if args.json:
        payload = {
            "app": result.app,
            "system": result.system,
            "threads": result.threads,
            "measure_ns": result.measure_ns,
            "tenants": [dataclasses.asdict(t) for t in result.tenants],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_figures(args) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.bench.report import write_experiment_json

    names = list(ALL_EXPERIMENTS) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from "
              f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    for name in names:
        started = time.time()  # lint: disable=SIM001 (host wall clock)
        result = ALL_EXPERIMENTS[name](jobs=jobs)
        wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
        print(result.format())
        print(f"[{name}] wall time={wall_s:.1f} s (jobs={jobs})")
        print()
        if args.json:
            write_experiment_json(result, args.json)
    return 0


def format_phase_breakdown(breakdown) -> str:
    """Render the per-phase latency table printed under a traced run."""
    from repro.obs.tracing import SEGMENTS

    lines = [
        "batch lifecycle breakdown "
        f"({breakdown['batches']:.0f} complete batches):",
        f"  {'segment':<24}{'mean ns':>12}{'share':>8}",
    ]
    total = breakdown["total"] or 1.0
    for name, _, _ in SEGMENTS:
        lines.append(
            f"  {name:<24}{breakdown[name]:>12.1f}"
            f"{breakdown[name] / total:>7.1%}"
        )
    lines.append(f"  {'total':<24}{breakdown['total']:>12.1f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "traffic":
        return run_traffic(argv[1:])
    if argv and argv[0] == "resharding":
        return run_resharding_cmd(argv[1:])
    if argv and argv[0] == "odp":
        return run_odp_cmd(argv[1:])
    if argv and argv[0] == "offload":
        return run_offload_cmd(argv[1:])
    args = build_parser().parse_args(argv)
    if args.figure:
        if args.trace or args.metrics_out:
            print("--trace/--metrics-out apply to single-point runs, "
                  "not --figure grids", file=sys.stderr)
            return 2
        if args.profile:
            return run_profiled(profile_path_for(args),
                                lambda: run_figures(args))
        return run_figures(args)
    if args.profile:
        return run_profiled(profile_path_for(args), lambda: run_single(args))
    return run_single(args)


def run_single(args) -> int:
    if args.pinned_ratio is not None and not 0.0 <= args.pinned_ratio <= 1.0:
        print("--pinned-ratio must be in [0, 1]", file=sys.stderr)
        return 2
    obs = None
    if args.trace or args.metrics_out:
        from repro.obs import Observability

        obs = Observability()
    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = run_microbench(
        policy=args.policy,
        threads=args.threads,
        depth=args.depth,
        payload=args.block_size,
        op=args.op,
        memory_nodes=args.memory_nodes,
        measure_ns=args.measure_us * 1e3,
        seed=args.seed,
        access=args.access,
        pinned_ratio=args.pinned_ratio,
        merge_wrs=args.merge_wrs or None,
        adaptive_poll=args.adaptive_poll or None,
        faults=args.faults,
        fault_seed=args.fault_seed,
        obs=obs,
        sanitize=args.sanitize,
    )
    bandwidth_mbps = result.throughput_mops * args.block_size
    wall_ms = (time.time() - started) * 1e3  # lint: disable=SIM001 (host wall clock)
    print(
        f"rdma-{args.op}: #threads={args.threads}, #depth={args.depth}, "
        f"#block_size={args.block_size}, BW={bandwidth_mbps:.3f} MB/s, "
        f"IOPS={result.throughput_mops:.3f} M/s, "
        f"sim wall time={wall_ms:.3f} ms"
    )
    if args.faults:
        print(
            f"faults: dropped={result.messages_dropped}, "
            f"retransmits={result.retransmissions}, "
            f"wasted_wrs={result.wasted_wrs}"
        )
    if args.pinned_ratio is not None or args.merge_wrs:
        print(
            f"odp/merge: faults={result.odp_faults}, "
            f"invalidations={result.odp_invalidations}, "
            f"merged_wrs={result.merged_wrs}"
        )
    if args.dump_file_path:
        with open(args.dump_file_path, "a") as dump:
            dump.write(
                f"rdma-{args.op},{args.threads},{args.depth},{args.block_size},"
                f"{bandwidth_mbps:.3f},{result.throughput_mops:.3f},{wall_ms:.3f}\n"
            )
    if obs is not None:
        if result.phase_breakdown:
            print(format_phase_breakdown(result.phase_breakdown))
        obs.write(
            trace_path=args.trace,
            metrics_path=args.metrics_out,
            metadata={
                "bench": f"rdma-{args.op}",
                "threads": args.threads,
                "depth": args.depth,
                "block_size": args.block_size,
                "policy": args.policy,
            },
        )
        for path in (args.trace, args.metrics_out):
            if path:
                print(f"wrote {path}")
    if result.sanitizer is not None:
        report = result.sanitizer
        print(
            f"rdmasan: ops_checked={report['ops_checked']}, "
            f"findings={len(report['findings'])}, leaks={len(report['leaks'])}"
        )
        for finding in report["findings"]:
            print(f"  {finding['kind']}: blade={finding['blade']} "
                  f"region={finding['region']} addr={finding['addr']:#x} "
                  f"bytes={finding['bytes']}")
        if report["findings"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
