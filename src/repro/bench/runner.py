"""Application experiment runner.

Each SMART app (RACE hash table, FORD transactions, Sherman B+Tree) has
one adapter here — the only code that knows its wiring: it builds and
loads the deployment and server, and hands drivers op streams and
per-client ``execute(op)`` functions.  Two drivers share the adapters:
the closed loop below (client threads x coroutines measured over a warm
window — the skeleton behind Figures 5 and 7-12) and the open loop of
:mod:`repro.traffic.runner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.apps.ford.recovery import RecoveryManager
from repro.apps.ford.server import DtxServer
from repro.apps.ford.txn import TxnClient
from repro.apps.race.client import HashTableClient
from repro.apps.race.server import HashTableServer
from repro.apps.sherman.client import BTreeClient, LocalLockTable, SpeculativeCache
from repro.apps.sherman.server import BTreeServer
from repro.cluster import Cluster, Node
from repro.core import OperationStats, SmartContext, SmartFeatures, SmartThread
from repro.core.features import baseline, full
from repro.rnic.config import RnicConfig, apply_feature_overrides
from repro.workloads import smallbank, tatp
from repro.workloads.ycsb import READ, UPDATE, WRITE_HEAVY, YcsbWorkload

#: Scaled-down adaptive-throttling epoch so the C_max search converges
#: within millisecond-scale simulations (the paper's 8 ms Δ assumes
#: multi-second runs; ratios are preserved).
BENCH_DELTA_NS = 0.3e6

#: Scaled-down γ sampling window (paper: 1 ms) for the same reason: the
#: t_max/c_max controller needs tens of windows to converge.
BENCH_RETRY_WINDOW_NS = 0.05e6


def bench_features(features: SmartFeatures) -> SmartFeatures:
    """Apply the bench-scale controller periods to a feature set."""
    if features.dynamic_backoff_limit or features.coroutine_throttling:
        features = features.with_overrides(retry_window_ns=BENCH_RETRY_WINDOW_NS)
    if features.work_req_throttling and features.adaptive_credit:
        features = features.with_overrides(update_delta_ns=BENCH_DELTA_NS)
    return features


SYSTEM_FEATURES: Dict[str, Callable[[], SmartFeatures]] = {
    "race": baseline,
    "smart-ht": full,
    "ford": baseline,
    "smart-dtx": full,
    "sherman": baseline,
    "smart-bt": full,
}


@dataclass
class RunResult:
    """Aggregated outcome of one experiment point."""

    system: str
    workload: str
    threads: int
    coroutines: int
    compute_blades: int
    throughput_mops: float
    p50_latency_ns: Optional[float]
    p99_latency_ns: Optional[float]
    avg_retries: float
    retry_distribution: Dict[int, float]
    ops: int
    measure_ns: float
    # Fault-injection observability (all stay zero for fault-free runs).
    fault_aborts: int = 0
    recoveries: int = 0
    failed_recoveries: int = 0
    avg_recovery_us: float = 0.0
    retransmissions: int = 0
    error_completions: int = 0
    flushed_wrs: int = 0
    wasted_wrs: int = 0
    messages_dropped: int = 0
    crashes: int = 0
    #: in-doubt records rolled back by FORD's recovery manager
    rolled_back: int = 0
    #: batch-weighted per-segment means (only when an Observability is
    #: attached; stays None — and out of serialized results — otherwise)
    phase_breakdown: Optional[Dict] = None
    #: RDMASan report (only when the run was sanitized; None otherwise)
    sanitizer: Optional[Dict] = None
    #: kernel events the whole point executed (warmup + measure) — with
    #: the host wall-clock this gives events/sec per figure point, the
    #: same currency as benchmarks/results/BENCH_kernel.json
    sim_events: int = 0

    @property
    def total_threads(self) -> int:
        return self.threads * self.compute_blades


@dataclass
class Deployment:
    """A wired cluster ready to run client coroutines."""

    cluster: Cluster
    compute_nodes: List[Node]
    memory_nodes: List[Node]
    smart_threads: List[SmartThread]
    features: SmartFeatures


def build_deployment(
    features: SmartFeatures,
    threads: int,
    compute_blades: int = 1,
    memory_blades: int = 2,
    config: Optional[RnicConfig] = None,
    seed: int = 0,
) -> Deployment:
    """Create the cluster and per-thread SMART state for an experiment."""
    features = bench_features(features)
    cluster = Cluster(config)
    compute_nodes = cluster.add_nodes(compute_blades)
    memory_nodes = cluster.add_nodes(memory_blades)
    smart_threads: List[SmartThread] = []
    for blade_index, node in enumerate(compute_nodes):
        node.add_threads(threads)
        SmartContext(node, memory_nodes, features)
        for thread in node.threads:
            smart_threads.append(
                SmartThread(thread, features, seed=seed + blade_index * 1000)
            )
    return Deployment(cluster, compute_nodes, memory_nodes, smart_threads, features)


def install_faults(
    deployment: Deployment,
    faults,
    fault_seed: int,
    warmup_ns: float,
    measure_ns: float,
):
    """Arm a fault schedule on a freshly built deployment.

    ``faults`` is ``None`` (no-op, the run is bit-identical to a build
    without fault injection), a :class:`repro.faults.FaultSchedule`, the
    literal ``"seeded"``, or a clause spec string (see
    :meth:`repro.faults.FaultSchedule.parse`).  Seeded schedules target
    the measurement window and crash only memory blades.
    """
    if faults is None:
        return None
    from repro.faults import FaultInjector, FaultSchedule

    schedule = FaultSchedule.from_spec(
        faults,
        seed=fault_seed,
        window_start_ns=effective_warmup_ns(deployment.features, warmup_ns),
        window_ns=measure_ns,
        crash_nodes=[n.node_id for n in deployment.memory_nodes],
    )
    return FaultInjector(deployment.cluster, schedule).install()


def attach_sanitizer(sanitize, cluster):
    """Attach an RDMASan instance when ``sanitize`` is truthy.

    ``sanitize`` may be ``True`` (builds a fresh sanitizer) or an
    existing :class:`repro.analysis.RdmaSanitizer` to reuse; falsy
    returns ``None`` and the run stays byte-identical to an unsanitized
    build.
    """
    if not sanitize:
        return None
    from repro.analysis.rdmasan import RdmaSanitizer

    sanitizer = sanitize if isinstance(sanitize, RdmaSanitizer) else RdmaSanitizer()
    sanitizer.attach_cluster(cluster)
    return sanitizer


def collect_sanitizer(sanitizer, result: RunResult) -> RunResult:
    """Run teardown leak checks and embed the report (no-op on None)."""
    if sanitizer is not None:
        sanitizer.finish()
        result.sanitizer = sanitizer.report()
    return result


def effective_warmup_ns(features: SmartFeatures, warmup_ns: float) -> float:
    """The warmup :func:`measure` will actually use.

    Adaptive-credit systems extend warmup to cover the C_max search
    phase; fault schedules anchored to the measurement window must use
    the same boundary (stats are reset at its end).
    """
    if features.work_req_throttling and features.adaptive_credit:
        update_phase = len(features.cmax_candidates) * features.update_delta_ns
        warmup_ns = max(warmup_ns, update_phase + 0.5e6)
    return warmup_ns


def measure(
    deployment: Deployment,
    warmup_ns: float,
    measure_ns: float,
) -> OperationStats:
    """Run warmup, reset stats, run the measured window, merge stats."""
    warmup_ns = effective_warmup_ns(deployment.features, warmup_ns)
    sim = deployment.cluster.sim
    sim.run(until=warmup_ns)
    for smart in deployment.smart_threads:
        smart.stats.reset()
    sim.run(until=warmup_ns + measure_ns)
    return OperationStats.merge([s.stats for s in deployment.smart_threads])


def load_hashtable_server(
    deployment: Deployment,
    item_count: int,
    seed: int,
    rebuild: Callable[[], Deployment],
):
    """Size and bulk-load a RACE hash table onto a deployment.

    Sizes the table for ~30% load so splits stay out of the measurement
    window, with at least one segment per memory blade; a freak
    both-buckets-full collision during loading retries with a doubled
    directory on a fresh deployment (``rebuild``).
    Returns the (possibly rebuilt) deployment and the loaded server.
    """
    slots_needed = int(item_count / 0.30)
    buckets = 512
    segments = 1 << (len(deployment.memory_nodes) - 1).bit_length()
    while segments * buckets * 7 < slots_needed:
        segments *= 2
    for _ in range(3):
        try:
            server = HashTableServer(
                deployment.memory_nodes,
                segments=segments,
                buckets_per_segment=buckets,
                heap_bytes_per_blade=max(8 << 20, item_count * 64),
            )
            server.bulk_load(YcsbWorkload.load_items(item_count, seed))
            return deployment, server
        except MemoryError:
            segments *= 2
            deployment = rebuild()
    raise MemoryError("could not load the table even after resizing")


# -- per-app adapters ----------------------------------------------------------


def ycsb_execute(search, update, insert):
    """``execute(op)`` for YCSB ``(kind, key, value)`` ops over one client.

    It returns the client call's own generator, so a driver's
    ``yield from execute(op)`` adds no generator frame per op.
    """

    def execute(op):
        kind, key, value = op
        if kind == READ:
            return search(key)
        if kind == UPDATE:
            return update(key, value)
        return insert(key, value)

    return execute


class AppAdapter:
    """The one place that knows how a SMART app is wired.

    Building an adapter builds and loads its deployment and server.  A
    driver then asks it for each client's op stream (``stream``) and, as
    the client starts, for an ``execute(op)`` bound to a fresh app client
    on one SMART thread (``executor``).  :func:`_run_closed_loop` and
    :func:`repro.traffic.runner.run_open_loop` drive the same adapters.
    Constructors take the union of the apps' options and ignore the rest.
    """

    def __init__(self, deployment: Deployment, server, item_count: int):
        self.deployment = deployment
        #: declares the app's sanitizer regions
        self.server = server
        self.item_count = item_count

    def stream(self, workload, seed: int):
        """One client's YCSB op stream (``None`` is write-heavy)."""
        return (workload or WRITE_HEAVY).stream(self.item_count, seed)

    def executor(self, smart: SmartThread, workload):
        raise NotImplementedError

    def wire_recovery(self, injector):
        """Hand crash recovery the app's state; returns its manager."""
        return None


class HashTableApp(AppAdapter):
    """RACE hashing (Figures 5, 7, 8, 9)."""

    def __init__(self, system, threads, item_count, seed, features=None,
                 config=None, compute_blades=1, memory_blades=2, **_):
        if features is None:
            features = SYSTEM_FEATURES[system]()

        def build():
            return build_deployment(
                features, threads, compute_blades, memory_blades, config, seed
            )

        deployment, server = load_hashtable_server(build(), item_count, seed, build)
        super().__init__(deployment, server, item_count)
        self.meta = server.meta()

    def executor(self, smart, workload):
        client = HashTableClient(smart.handle(), self.meta)
        return ycsb_execute(client.search, client.update, client.insert)


class DtxApp(AppAdapter):
    """FORD transactions (Figures 10, 11); a workload names a benchmark.

    A benchmark's tables are created when a stream first asks for it, so
    a run populates only the benchmarks its clients use.
    """

    BENCHMARKS = {"smallbank": smallbank, "tatp": tatp}

    def __init__(self, system, threads, item_count, seed, features=None,
                 config=None, compute_blades=1, memory_blades=2,
                 benchmark="smallbank", **_):
        if features is None:
            features = SYSTEM_FEATURES[system]()
        deployment = build_deployment(
            features, threads, compute_blades, memory_blades, config, seed
        )
        server = DtxServer(deployment.memory_nodes, replicas=min(2, memory_blades))
        super().__init__(deployment, server, item_count)
        self.benchmark = benchmark
        self.tables: Dict = {}
        #: every client's NVM undo-log ring, replayed by crash recovery
        self.log_rings: List = []

    def _bench(self, workload):
        name = workload or self.benchmark
        if name not in self.BENCHMARKS:
            raise ValueError(f"benchmark must be smallbank or tatp, got {name!r}")
        module = self.BENCHMARKS[name]
        if name not in self.tables:
            self.tables[name] = module.setup(self.server, self.item_count)
        return module, self.tables[name]

    def stream(self, workload, seed):
        module, _ = self._bench(workload)
        return module.transaction_stream(self.item_count, seed)

    def executor(self, smart, workload):
        module, tables = self._bench(workload)
        run_profile = module.run_profile
        ring = self.server.alloc_log_ring()
        self.log_rings.append(ring)
        client = TxnClient(smart.handle(), ring)

        def execute(op):
            profile, first, second = op
            return client.run(
                lambda txn: run_profile(txn, tables, profile, first, second)
            )

        return execute

    def wire_recovery(self, injector):
        recovery = RecoveryManager(self.server)
        injector.wire_ford_recovery(recovery, self.log_rings)
        return recovery


class BTreeApp(AppAdapter):
    """Sherman's B+Tree (Figure 12).

    Every server is both a memory blade and a compute blade; the SMART
    threads of one server share its index cache, local lock table and
    speculative-lookup cache.
    """

    def __init__(self, system, threads, item_count, seed, features=None,
                 config=None, servers=1, speculative=None,
                 client_cpu_ns=2000.0, hopl=True, **_):
        if features is None:
            base = {"sherman": "sherman", "sherman-sl": "sherman", "smart-bt": "smart-bt"}
            features = SYSTEM_FEATURES[base[system]]()
        if speculative is None:
            speculative = system in ("sherman-sl", "smart-bt")
        features = bench_features(features)
        cluster = Cluster(config)
        nodes = cluster.add_nodes(servers)
        server = BTreeServer(nodes, heap_bytes_per_blade=max(16 << 20, item_count * 64))
        rng = random.Random(seed)
        server.bulk_load([(k, rng.getrandbits(32)) for k in range(item_count)])
        self.meta = server.meta()
        self.client_cpu_ns = client_cpu_ns
        #: SMART thread -> its server's (index cache, locks, speculative cache)
        self.shared: Dict[SmartThread, tuple] = {}
        for blade_index, node in enumerate(nodes):
            node.add_threads(threads)
            SmartContext(node, nodes, features)
            shared = ({}, LocalLockTable(cluster.sim, use_local_queues=hopl),
                      SpeculativeCache() if speculative else None)
            for thread in node.threads:
                smart = SmartThread(thread, features, seed=seed + blade_index * 1000)
                self.shared[smart] = shared
        deployment = Deployment(cluster, nodes, nodes, list(self.shared), features)
        super().__init__(deployment, server, item_count)

    def executor(self, smart, workload):
        index_cache, locks, spec_cache = self.shared[smart]
        client = BTreeClient(
            smart.handle(), self.meta, index_cache, locks, spec_cache=spec_cache,
            client_cpu_ns=self.client_cpu_ns,
        )
        return ycsb_execute(client.lookup, client.update, client.insert)


#: app name -> adapter
APPS = {"hashtable": HashTableApp, "dtx": DtxApp, "btree": BTreeApp}


# -- the closed-loop driver ----------------------------------------------------


def _client_loop(executor, smart, workload, stream, gap):
    execute = executor(smart, workload)
    for op in stream:
        yield from execute(op)
        if gap is not None:
            yield gap


def _run_closed_loop(app: AppAdapter, system, workload, label, threads,
                     coroutines, blades, warmup_ns, measure_ns, seed,
                     throttle_gap_ns, faults, fault_seed, obs,
                     sanitize) -> RunResult:
    """``coroutines`` clients per SMART thread, each issuing its next op
    when the last completes (after ``throttle_gap_ns`` of idle time).
    The result is labelled ``label`` with ``blades`` compute blades."""
    deployment = app.deployment
    cluster = deployment.cluster
    sim = cluster.sim
    seeds = random.Random(seed)
    clients = [(smart, app.stream(workload, seeds.getrandbits(31)))
               for smart in deployment.smart_threads for _ in range(coroutines)]
    injector = install_faults(deployment, faults, fault_seed, warmup_ns, measure_ns)
    recovery = app.wire_recovery(injector) if injector is not None else None
    if obs is not None:
        obs.attach_deployment(deployment)
    sanitizer = attach_sanitizer(sanitize, cluster)
    if sanitizer is not None:
        app.server.declare_sanitizer_regions(sanitizer)
    # One reusable pure-delay object serves every coroutine's gap sleeps
    # (the kernel's cheap Timeout alternative for fire-and-forget waits).
    gap = sim.delay(throttle_gap_ns) if throttle_gap_ns > 0 else None
    # Process handles, so a client's failure stays inspectable.
    processes = [sim.spawn(_client_loop(app.executor, smart, workload, stream, gap))
                 for smart, stream in clients]

    stats = measure(deployment, warmup_ns, measure_ns)
    result = RunResult(
        system=system, workload=label, threads=threads, coroutines=coroutines,
        compute_blades=blades, throughput_mops=stats.ops / measure_ns * 1e3,
        p50_latency_ns=stats.latency_percentile_ns(0.50),
        p99_latency_ns=stats.latency_percentile_ns(0.99),
        avg_retries=stats.avg_retries,
        retry_distribution=stats.retry_distribution(),
        ops=stats.ops, measure_ns=measure_ns, sim_events=sim.events_executed,
        fault_aborts=stats.fault_aborts, recoveries=stats.recoveries,
        failed_recoveries=stats.failed_recoveries,
        avg_recovery_us=stats.avg_recovery_ns / 1e3,
        messages_dropped=cluster.fabric.messages_dropped,
        crashes=injector.crashes_fired if injector is not None else 0,
        rolled_back=recovery.rolled_back if recovery is not None else 0,
    )
    for node in cluster.nodes:
        counters = node.device.counters
        result.retransmissions += counters.retransmissions
        result.error_completions += counters.error_completions
        result.flushed_wrs += counters.flushed_wrs
        result.wasted_wrs += counters.wasted_wrs
    if obs is not None:
        warm = effective_warmup_ns(deployment.features, warmup_ns)
        obs.phase("warmup", 0, warm)
        obs.phase("measure", warm, warm + measure_ns)
        obs.collect_cluster(cluster, window_ns=measure_ns)
        obs.collect_stats(stats)
        result.phase_breakdown = obs.phase_breakdown(cluster)
    return collect_sanitizer(sanitizer, result)


# -- the figure entry points ---------------------------------------------------


def run_hashtable(
    system: str = "smart-ht",
    workload: Optional[YcsbWorkload] = None,
    threads: int = 8,
    coroutines: int = 8,
    compute_blades: int = 1,
    memory_blades: int = 2,
    item_count: int = 100_000,
    features: Optional[SmartFeatures] = None,
    config: Optional[RnicConfig] = None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    throttle_gap_ns: float = 0.0,
    faults=None,
    fault_seed: int = 0,
    obs=None,
    sanitize=False,
    pinned_ratio: Optional[float] = None,
    merge_wrs: Optional[bool] = None,
    adaptive_poll: Optional[bool] = None,
) -> RunResult:
    """One point of the hash-table experiments.

    ``throttle_gap_ns`` inserts idle time between ops (used by the
    Fig-9 throughput/latency curve to sweep offered load).
    ``faults`` arms a fault schedule (loss/dup/delay windows; the RACE
    client has no crash-recovery path, so crash faults belong to the DTX
    runner where FORD's recovery handles them).
    ``pinned_ratio``/``merge_wrs``/``adaptive_poll`` override the
    matching :class:`RnicConfig` knobs (ODP + doorbell batching axes).
    """
    config = apply_feature_overrides(config, pinned_ratio, merge_wrs, adaptive_poll)
    workload = workload or WRITE_HEAVY
    app = HashTableApp(system, threads, item_count, seed, features, config,
                       compute_blades, memory_blades)
    return _run_closed_loop(
        app, system, workload, workload.name, threads, coroutines,
        compute_blades, warmup_ns, measure_ns, seed, throttle_gap_ns, faults,
        fault_seed, obs, sanitize,
    )


def run_dtx(
    system: str = "smart-dtx",
    benchmark: str = "smallbank",
    threads: int = 8,
    coroutines: int = 8,
    compute_blades: int = 1,
    memory_blades: int = 2,
    item_count: int = 100_000,
    features: Optional[SmartFeatures] = None,
    config: Optional[RnicConfig] = None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    throttle_gap_ns: float = 0.0,
    faults=None,
    fault_seed: int = 0,
    obs=None,
    sanitize=False,
    pinned_ratio: Optional[float] = None,
    merge_wrs: Optional[bool] = None,
    adaptive_poll: Optional[bool] = None,
) -> RunResult:
    """One point of the FORD / SMART-DTX experiments (throughput in
    committed M txn/s).

    ``faults`` arms a fault schedule (see :func:`install_faults`); blade
    restarts then run FORD's recovery manager over every client's NVM
    log ring, rolling back in-doubt records before traffic resumes.
    ``pinned_ratio``/``merge_wrs``/``adaptive_poll`` override the
    matching :class:`RnicConfig` knobs (ODP + doorbell batching axes).
    """
    config = apply_feature_overrides(config, pinned_ratio, merge_wrs, adaptive_poll)
    app = DtxApp(system, threads, item_count, seed, features, config,
                 compute_blades, memory_blades, benchmark)
    return _run_closed_loop(
        app, system, benchmark, benchmark, threads, coroutines, compute_blades,
        warmup_ns, measure_ns, seed, throttle_gap_ns, faults, fault_seed, obs,
        sanitize,
    )


def run_btree(
    system: str = "smart-bt",
    workload: Optional[YcsbWorkload] = None,
    threads: int = 8,
    coroutines: int = 8,
    servers: int = 1,
    item_count: int = 100_000,
    features: Optional[SmartFeatures] = None,
    config: Optional[RnicConfig] = None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    speculative: Optional[bool] = None,
    client_cpu_ns: float = 2000.0,
    throttle_gap_ns: float = 0.0,
    hopl: bool = True,
    obs=None,
    sanitize=False,
    pinned_ratio: Optional[float] = None,
    merge_wrs: Optional[bool] = None,
    adaptive_poll: Optional[bool] = None,
) -> RunResult:
    """One point of the Sherman / SMART-BT experiments.

    Matching the paper's setup, every server is both a memory blade and a
    compute blade (``servers`` scales both out together).  Systems:
    ``sherman`` (Sherman+), ``sherman-sl`` (Sherman+ w/ speculative
    lookup) and ``smart-bt``.  ``hopl=False`` degrades node locks to naive
    remote CAS spinlocks (the §3.3 behaviour HOPL avoids) — used by the
    HOPL ablation bench.
    """
    config = apply_feature_overrides(config, pinned_ratio, merge_wrs, adaptive_poll)
    workload = workload or WRITE_HEAVY
    app = BTreeApp(system, threads, item_count, seed, features, config,
                   servers=servers, speculative=speculative,
                   client_cpu_ns=client_cpu_ns, hopl=hopl)
    return _run_closed_loop(
        app, system, workload, workload.name, threads, coroutines, servers,
        warmup_ns, measure_ns, seed, throttle_gap_ns, None, 0, obs, sanitize,
    )
