"""Run one benchmark point in this (fresh) process and print it as JSON.

    python3 perfbench/point.py --workload NAME --seed N [--trace 1]

The point calls the unchanged ``repro.bench`` entry point named by the
workload with the workload's parameters and ``seed``.  The last line of
standard output is one JSON row: host timings (nominal, as ``probes``
calibrates them, and wall), simulated statistics, the ``sim_digest`` over
them, the output-check violations and, with ``--trace 1``, the per-layer
metrics of the traced window.  ``run.py``
starts one such process per point, one at a time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent

from probes import WINDOW_RUN_CALL, Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: counters that stay zero in a fault-free run
FAULT_COUNTERS = ("error_completions", "flushed_wrs", "retransmissions",
                  "messages_dropped")
#: the percentile the benchmark reports needs this many samples beyond it
TAIL_SAMPLES = 10


def entry_point(spec: dict, seed: int):
    """The ``repro.bench`` call of a workload, ready to run."""
    from repro.bench import microbench, runner
    from repro.workloads import ycsb

    # Imported here, not inside run_dtx, so import time stays out of setup_s.
    import repro.apps.ford.server  # noqa: F401
    import repro.apps.ford.txn  # noqa: F401
    import repro.workloads.smallbank  # noqa: F401
    import repro.workloads.tatp  # noqa: F401

    params = dict(spec["params"])
    name = spec["runner"]
    if name == "run_hashtable":
        mixes = {w.name: w for w in vars(ycsb).values()
                 if isinstance(w, ycsb.YcsbWorkload)}
        params["workload"] = mixes[params.pop("ycsb")]
        return lambda: runner.run_hashtable(seed=seed, **params)
    if name == "run_dtx":
        return lambda: runner.run_dtx(seed=seed, **params)
    if name == "run_microbench":
        return lambda: microbench.run_microbench(seed=seed, **params)
    raise ValueError(f"unknown runner {name!r}")


def totals(snapshot: dict) -> dict:
    """Sum the per-node counters of a probe snapshot."""
    out = {}
    for node in snapshot["nodes"]:
        for key, value in node["counters"].items():
            out[key] = out.get(key, 0) + value
    return out


def window_delta(before: dict, after: dict) -> dict:
    a, b = totals(after), totals(before)
    return {key: a[key] - b[key] for key in a}


def outcome(spec: dict, result, probe: Probe) -> dict:
    """Ops, failures and latency of the measured window.

    App workloads take them from the merged ``OperationStats`` that
    ``runner.measure`` returned; the microbench from the WR counters.
    A SmallBank business-rule abort is a correct outcome, not a failure,
    but it is not a successful op either.
    """
    window = window_delta(probe.counters_before, probe.counters_after)
    error_wrs = window["error_completions"] + window["flushed_wrs"]
    if spec["runner"] == "run_microbench":
        ops = result.measured_wrs
        return {
            "ops": ops, "attempted": ops, "failed": error_wrs, "ok": ops - error_wrs,
            "retries": 0, "fault_aborts": 0,
            "p50_ns": result.batch_latency_p50_ns,
            "p99_ns": result.batch_latency_p99_ns,
            "latency_samples": ops // spec["params"]["depth"],
            "sim_mops": result.throughput_mops,
        }
    stats = probe.stats
    rule_aborts = stats.failed_ops if spec["runner"] == "run_dtx" else 0
    wrong = stats.failed_ops - rule_aborts
    return {
        "ops": stats.ops,
        "attempted": stats.ops + stats.fault_aborts,
        "failed": wrong + stats.fault_aborts + error_wrs,
        "ok": stats.ops - stats.failed_ops,
        "retries": stats.retries,
        "fault_aborts": stats.fault_aborts,
        "p50_ns": result.p50_latency_ns,
        "p99_ns": result.p99_latency_ns,
        "latency_samples": stats.ops,
        "sim_mops": result.throughput_mops,
    }


def output_check(out: dict, probe: Probe) -> list:
    """Violations of what a correct fault-free point must show."""
    problems = []
    if len(probe.runs) != WINDOW_RUN_CALL:
        problems.append(f"expected {WINDOW_RUN_CALL} Simulator.run calls, "
                        f"saw {len(probe.runs)}")
    end = probe.counters_after
    counted = totals(end)
    for key in FAULT_COUNTERS:
        if counted[key]:
            problems.append(f"{key}={counted[key]} in a fault-free run")
    if end["fabric"]["dropped"]:
        problems.append(f"fabric dropped {end['fabric']['dropped']} messages")
    for index, node in enumerate(end["nodes"]):
        c = node["counters"]
        if c["wqe_processed"] != c["cqe_delivered"] + node["outstanding"]:
            problems.append(f"node {index}: {c['wqe_processed']} WRs posted but "
                            f"{c['cqe_delivered']} completed + "
                            f"{node['outstanding']} outstanding")
    if out["failed"]:
        problems.append(f"{out['failed']} failed ops")
    if out["latency_samples"] * 0.01 < TAIL_SAMPLES:
        problems.append(f"{out['latency_samples']} latency samples leave fewer "
                        f"than {TAIL_SAMPLES} beyond p99")
    return problems


def digest(out: dict, window_events: int, total_events: int, probe: Probe) -> str:
    """Hash of every simulated statistic of the point."""
    end = probe.counters_after
    content = {
        "ops": out["ops"], "failed": out["failed"], "ok": out["ok"],
        "retries": out["retries"], "fault_aborts": out["fault_aborts"],
        "p50_ns": out["p50_ns"], "p99_ns": out["p99_ns"],
        "sim_mops": out["sim_mops"],
        "window_events": window_events, "total_events": total_events,
        "nodes": [node["counters"] for node in end["nodes"]],
        "fabric": end["fabric"],
    }
    blob = json.dumps(content, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def layer_metrics(tracer: Tracer, probe: Probe, out: dict, window_events: int,
                  setup_s: float, setup_scale: float, measure_ns: float) -> dict:
    """The per-layer metrics of the traced window.  Host times are nominal:
    the window's (and setup's) wall-to-nominal scale applies to their parts."""
    summary = tracer.summary()
    window = probe.window
    scale = window.nominal_ns / window.host_ns
    self_ns = {layer: ns * scale
               for layer, ns in tracer.layer_self_ns(summary).items()}
    ops = out["ops"]
    delta = window_delta(probe.counters_before, probe.counters_after)
    before, after = probe.counters_before, probe.counters_after

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def mean_sim_ns(name):
        row = summary.get(name)
        return row["sim_ns"] / row["done"] if row and row["done"] else 0.0

    def self_us_per_op(layer):
        return self_ns.get(layer, 0) / 1e3 / ops

    def util(busy_key, work_key):
        busy, nodes = 0.0, 0
        for b, a in zip(before["nodes"], after["nodes"]):
            if a["counters"][work_key] > b["counters"][work_key]:
                nodes += 1
                busy += a["counters"][busy_key] - b["counters"][busy_key]
        return busy / (nodes * measure_ns) if nodes else 0.0

    wrs = delta["wqe_processed"]
    cas_calls = calls("memory:MemoryBlade.compare_and_swap")
    failed_cas = sum(a["blade"]["failed_cas"] - b["blade"]["failed_cas"]
                     for b, a in zip(before["nodes"], after["nodes"]))
    posts = calls("verbs:post_send")
    load_s = setup_scale * sum(seconds for name, seconds in tracer.setup_s.items()
                               if not name.endswith("build_deployment"))
    memory_fns = [n for n in summary if n.startswith("memory:")]
    return {
        "sim.events_per_op": window_events / ops,
        "sim.self_us_per_op": self_us_per_op("sim"),
        "sim.self_ns_per_event": self_ns.get("sim", 0) / window_events,
        "cluster.compute_calls_per_op": calls("cluster:ComputeThread.compute") / ops,
        "cluster.self_us_per_op": self_us_per_op("cluster"),
        "core.post_sends_per_op": calls("core:SmartHandle.post_send") / ops,
        "core.self_us_per_op": self_us_per_op("core"),
        "core.sync_sim_us": mean_sim_ns("core:SmartHandle.sync") / 1e3,
        "core.retries_per_op": out["retries"] / ops,
        "verbs.posts_per_op": posts / ops,
        "verbs.wrs_per_post": wrs / posts if posts else 0.0,
        "verbs.self_us_per_op": self_us_per_op("verbs"),
        "verbs.post_send_sim_ns": mean_sim_ns("verbs:post_send"),
        "rnic.self_us_per_op": self_us_per_op("rnic"),
        "rnic.doorbell_rings_per_op": delta["doorbell_rings"] / ops,
        "rnic.wqe_miss_rate": delta["wqe_cache_miss_wrs"] / wrs if wrs else 0.0,
        "rnic.requester_util": util("requester_busy_ns", "wqe_processed"),
        "rnic.responder_util": util("responder_busy_ns", "responder_ops"),
        "rnic.dram_bytes_per_wr": delta["dram_bytes"] / wrs if wrs else 0.0,
        "rnic.wasted_wrs": (delta["retransmissions"] + delta["error_completions"]
                            + delta["flushed_wrs"]),
        "network.msgs_per_op":
            (after["fabric"]["messages"] - before["fabric"]["messages"]) / ops,
        "network.bytes_per_op":
            (after["fabric"]["bytes"] - before["fabric"]["bytes"]) / ops,
        "network.self_us_per_op": self_us_per_op("network"),
        "memory.calls_per_op": calls(*memory_fns) / ops,
        "memory.bytes_per_op": tracer.meters.get("memory", 0) / ops,
        "memory.cas_success_ratio":
            (cas_calls - failed_cas) / cas_calls if cas_calls else 0.0,
        "memory.self_us_per_op": self_us_per_op("memory"),
        "apps.self_us_per_op": self_us_per_op("apps"),
        "apps.op_sim_us.search":
            mean_sim_ns("apps:HashTableClient.search") / 1e3,
        "apps.op_sim_us.update":
            mean_sim_ns("apps:HashTableClient.update") / 1e3,
        "apps.op_sim_us.txn": mean_sim_ns("apps:TxnClient.run") / 1e3,
        "workloads.self_us_per_op": self_us_per_op("workloads"),
        "setup.build_s": setup_s - load_s,
        "setup.load_s": load_s,
    }


def run_point(name: str, seed: int, traced: bool) -> dict:
    spec = WORKLOADS[name]
    call = entry_point(spec, seed)
    probe = Probe().install()
    tracer = Tracer().install(probe) if traced else None
    meter = probe.meter
    gc.collect()
    before_setup = meter.tick()
    start = perf_counter_ns()
    result = call()
    end = perf_counter_ns()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    peak_rss_mb = (peak_rss - meter.resident_bytes) / 2**20

    runs = probe.runs
    window = probe.window
    # Setup ends where the first Simulator.run call times its first slice.
    setup_ns = runs[0].entered - start
    setup_nominal = meter.nominal(setup_ns, before_setup, meter.slices[1])
    run_ns = sum(run.host_ns for run in runs)
    other_ns = (end - start) - setup_ns - run_ns - sum(meter.slices[1:])
    point_nominal = (setup_nominal + sum(run.nominal_ns for run in runs)
                     + other_ns * meter.speed)
    window_events = window.events_after - window.events_before
    total_events = runs[-1].events_after
    out = outcome(spec, result, probe)
    row = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "point_s": point_nominal / 1e9,
        "setup_s": setup_nominal / 1e9,
        "window_host_s": window.nominal_ns / 1e9,
        "wall": {"point_s": (setup_ns + run_ns + other_ns) / 1e9,
                 "setup_s": setup_ns / 1e9,
                 "window_s": window.host_ns / 1e9},
        "host_speed": meter.speed,
        "window_events": window_events,
        "total_events": total_events,
        "peak_rss_mb": peak_rss_mb,
        **out,
        "violations": output_check(out, probe),
        "sim_digest": digest(out, window_events, total_events, probe),
    }
    if tracer is not None:
        row["layers"] = layer_metrics(tracer, probe, out, window_events,
                                      setup_nominal / 1e9, setup_nominal / setup_ns,
                                      spec["params"]["measure_ns"])
        spans = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.tsv.gz"
        spans.parent.mkdir(exist_ok=True)
        row["spans"] = tracer.write(spans)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    print(json.dumps(run_point(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
