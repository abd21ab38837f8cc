"""Schedule-identity guard: tiny figure points against pinned constants.

Each point runs on a fixed seed and must reproduce, exactly, the kernel
events it executed, its op count, its latency percentiles and its
per-node RNIC counters as recorded at commit fe6eddc (the B+Tree and
open-loop points at 736f0c6).  A hot-path change
that executes the same bucket entries in the same order passes; one that
reorders same-tick events (or adds/drops one) moves at least one of
these numbers and fails here, before any golden table notices.

When a change *means* to alter the schedule, re-record the constants
and say so in the change description.
"""

import hashlib

import pytest

from repro import cluster as cluster_mod
from repro.bench import microbench, runner
from repro.traffic import OpenLoopResult, PoissonArrivals, Slo, TenantSpec, run_open_loop
from repro.workloads import ycsb

#: name -> entry point of one tiny point
POINTS = {
    "smart-ht": lambda: runner.run_hashtable(
        system="smart-ht", workload=ycsb.WRITE_HEAVY, threads=4, coroutines=4,
        item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6, seed=3,
    ),
    "smart-dtx": lambda: runner.run_dtx(
        system="smart-dtx", benchmark="smallbank", threads=4, coroutines=4,
        item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6, seed=1,
    ),
    # features off: disabled throttler and op credits (pre-triggered grants)
    "race": lambda: runner.run_hashtable(
        system="race", workload=ycsb.WRITE_HEAVY, threads=4, coroutines=4,
        item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6, seed=5,
    ),
    # contended doorbell spinlocks (hand-off events)
    "per-thread-qp": lambda: microbench.run_microbench(
        policy="per-thread-qp", threads=24, depth=4, warmup_ns=0.05e6,
        measure_ns=0.2e6, seed=0, latency_samples=True,
    ),
    # the QP share lock and its sharing-penalty CPU charge
    "shared-qp": lambda: microbench.run_microbench(
        policy="shared-qp", threads=8, depth=4, warmup_ns=0.05e6,
        measure_ns=0.2e6, seed=0, latency_samples=True,
    ),
    # combined compute+memory servers, per-node lock tables, speculative cache
    "smart-bt": lambda: runner.run_btree(
        system="smart-bt", workload=ycsb.WRITE_HEAVY, threads=4, coroutines=4,
        item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6, seed=2,
    ),
    # open loop: two tenants on shared threads, one shedding over its SLO
    "open-hashtable": lambda: run_open_loop(
        app="hashtable", tenants=[
            TenantSpec("hot", PoissonArrivals(3.0), workers=4,
                       slo=Slo(target_p99_ns=15e3, policy="shed")),
            TenantSpec("cold", PoissonArrivals(0.5), workers=2),
        ], threads=4, item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6,
        seed=2,
    ),
    "open-dtx": lambda: run_open_loop(
        app="dtx", benchmark="smallbank", rate_mops=0.4, workers=6, threads=4,
        item_count=2000, warmup_ns=0.1e6, measure_ns=0.3e6, seed=1,
    ),
    "open-btree": lambda: run_open_loop(
        app="btree", rate_mops=1.0, workers=6, threads=4, item_count=2000,
        warmup_ns=0.1e6, measure_ns=0.3e6, seed=3,
    ),
}

#: name -> ((kernel events, ops, p50 ns, p99 ns),
#:          per node (wqe_processed, doorbell_rings, responder_ops,
#:                    cqe_delivered),
#:          sha256 prefix over every counter of every node)
#: The microbench's ops are its measured WRs and its percentiles are
#: batch latencies.  An open-loop point's head is (kernel events,
#: per tenant (name, completed, shed, queue p99 ns)).
EXPECTED = {
    "smart-ht": (
        (193543, 752, 4568, 22271),
        [(22718, 14283, 0, 22701), (0, 0, 10343, 0), (0, 0, 12370, 0)],
        "d616b7e1152f8aec",
    ),
    "smart-dtx": (
        (152967, 162, 15913, 184497),
        [(15339, 11424, 0, 15321), (0, 0, 8507, 0), (0, 0, 6819, 0)],
        "c58cf473b9c7bead",
    ),
    "race": (
        (38107, 792, 6749, 15716),
        [(4549, 2855, 0, 4523), (0, 0, 2083, 0), (0, 0, 2455, 0)],
        "a898012ecdc28480",
    ),
    "per-thread-qp": (
        (25288, 7356, 2656, 2685),
        [(9216, 2304, 0, 9120), (0, 0, 9216, 0)],
        "ef9eb2552a7ecda3",
    ),
    "shared-qp": (
        (1569, 328, 19680, 19680),
        [(412, 103, 0, 412), (0, 0, 412, 0)],
        "6fa1d0d4df3b28b9",
    ),
    "smart-bt": (
        (104421, 325, 10298, 33957),
        [(7102, 7102, 7097, 7093)],
        "4c00116b91887cbf",
    ),
    "open-hashtable": (
        (91820, [("hot", 202, 679, 13777.246867516858),
                 ("cold", 103, 0, 741455.2001894653)]),
        [(9643, 6037, 0, 9638), (0, 0, 4712, 0), (0, 0, 4930, 0)],
        "3445ddb06f199db9",
    ),
    "open-dtx": (
        (86651, [("t0", 139, 0, 32768.0)]),
        [(8714, 6400, 0, 8707), (0, 0, 4626, 0), (0, 0, 4087, 0)],
        "27c13d61f13f55e4",
    ),
    "open-btree": (
        (63121, [("t0", 184, 0, 920781.9326577964)]),
        [(4159, 4159, 4155, 4155)],
        "4cfca3b81f438c03",
    ),
}


def _run(name, monkeypatch):
    clusters = []
    init = cluster_mod.Cluster.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clusters.append(self)

    monkeypatch.setattr(cluster_mod.Cluster, "__init__", recording_init)
    result = POINTS[name]()
    cluster = clusters[-1]
    if isinstance(result, OpenLoopResult):
        head = (cluster.sim.events_executed,
                [(t.tenant, t.completed, t.shed, t.queue_p99_ns)
                 for t in result.tenants])
    elif isinstance(result, microbench.MicrobenchResult):
        head = (cluster.sim.events_executed, result.measured_wrs,
                result.batch_latency_p50_ns, result.batch_latency_p99_ns)
    else:
        head = (cluster.sim.events_executed, result.ops,
                result.p50_latency_ns, result.p99_latency_ns)
    counters = [vars(node.device.counters) for node in cluster.nodes]
    nodes = [(c["wqe_processed"], c["doorbell_rings"], c["responder_ops"],
              c["cqe_delivered"]) for c in counters]
    everything = repr([sorted(c.items()) for c in counters]).encode()
    return head, nodes, hashlib.sha256(everything).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(POINTS))
def test_point_executes_the_pinned_schedule(name, monkeypatch):
    head, nodes, digest = _run(name, monkeypatch)
    expected_head, expected_nodes, expected_digest = EXPECTED[name]
    assert head == expected_head
    assert nodes == expected_nodes
    assert digest == expected_digest
