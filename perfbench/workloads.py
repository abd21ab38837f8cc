"""The benchmark's workloads: one figure point each, as plain parameters.

Every workload is a closed loop (each client coroutine waits for its
completion before issuing the next op).  Parameters are plain JSON
values so that their hash identifies a row; ``point.py`` turns them into
a call of the unchanged ``repro.bench`` entry point named by ``runner``.
"""

WORKLOADS = {
    # Fig 7 baseline point: SMART-HT, YCSB write-heavy (50/50, theta 0.99).
    # The RACE client, SmartHandle throttling/backoff and CAS retries on
    # Zipfian hot keys do most of the work; ComputeThread.compute CPU
    # charges are dense.
    "ht-write-heavy": {
        "runner": "run_hashtable",
        "params": {
            "system": "smart-ht",
            "ycsb": "write-heavy",
            "threads": 8,
            "coroutines": 8,
            "compute_blades": 1,
            "memory_blades": 2,
            "item_count": 20_000,
            "warmup_ns": 1.0e6,
            "measure_ns": 2.0e6,
        },
    },
    # Fig 10 point: SMART-DTX running SmallBank on NVM-backed blades.  The
    # workload with writes beside reads; each transaction makes many round
    # trips (lock CAS, undo log, write-back, unlock), so it has the most
    # kernel events per op and the largest memory-blade share.
    "dtx-smallbank": {
        "runner": "run_dtx",
        "params": {
            "system": "smart-dtx",
            "benchmark": "smallbank",
            "threads": 8,
            "coroutines": 8,
            "compute_blades": 1,
            "memory_blades": 2,
            "item_count": 20_000,
            "warmup_ns": 1.0e6,
            "measure_ns": 5.0e6,
        },
    },
    # Fig 3 collapse point: the raw bench tool, per-thread QPs, 96 threads,
    # depth 8, 8-byte random READs.  No app and no SmartHandle, so the
    # kernel, the verb path, doorbell contention and the RNIC engine do
    # nearly all the work; app and core.api changes are bypassed.
    "qp-micro-96": {
        "runner": "run_microbench",
        "params": {
            "policy": "per-thread-qp",
            "threads": 96,
            "depth": 8,
            "payload": 8,
            "op": "read",
            "memory_nodes": 1,
            "warmup_ns": 0.4e6,
            "measure_ns": 3.0e6,
            "latency_samples": True,
        },
    },
}
