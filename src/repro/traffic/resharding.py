"""Online shard migration under live open-loop traffic.

The experiment this module runs is the elasticity headline: a sharded
RACE table serves multi-tenant open-loop traffic while the fleet
changes shape underneath it —

* ``mode="add_blade"`` — a new memory blade joins mid-run; the
  consistent-hash ring steals shards onto it and the migrator moves
  them online (scale-out);
* ``mode="drain"`` — the last blade is drained; its shards move to the
  survivors (scale-in);
* ``mode="autoscale"`` — an :class:`repro.memory.elastic.Autoscaler`
  watches the admission controller's shed/defer deltas and triggers
  scale-out itself.

The run is cut into three equal measured phases — *before* (steady
state), *during* (migration in flight), *after* (new placement) — and
per-tenant queue-delay histograms are snapshotted at each boundary
(:meth:`LogHistogram.copy`/:meth:`~LogHistogram.delta`), so the SLO
impact of rebalancing is a first-class result rather than something
smeared into a run-wide percentile.

Registered with :mod:`repro.bench.parallel`; everything in the result
is plain data, and fixed seeds replay the whole dance — migration,
frees, reallocation — bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.sharded import (
    ShardMigrator,
    ShardedHashTableClient,
    ShardedHashTableService,
)
from repro.bench.runner import (
    SYSTEM_FEATURES,
    AppAdapter,
    build_deployment,
    ycsb_execute,
)
from repro.memory.elastic import Autoscaler
from repro.obs.metrics import LogHistogram
from repro.traffic.engine import OpenLoopEngine
from repro.traffic.runner import add_tenants, default_tenants, warm_up
from repro.traffic.tenant import Slo, TenantSpec

PHASES = ("before", "during", "after")
MODES = ("add_blade", "drain", "autoscale")


@dataclass
class PhaseStats:
    """One tenant's outcome over one phase window."""

    tenant: str
    phase: str
    completed: int
    shed: int
    deferred: int
    queue_p50_ns: Optional[float]
    queue_p99_ns: Optional[float]
    queue_mean_ns: float


@dataclass
class ReshardingResult:
    """Everything a resharding run measured."""

    mode: str
    seed: int
    phase_ns: float
    #: actual during-window length (stretched until the migration ended)
    during_ns: float = 0.0
    phases: List[PhaseStats] = field(default_factory=list)
    #: ShardMove tuples as (shard, src, dst)
    moves: List[tuple] = field(default_factory=list)
    migration_start_ns: Optional[float] = None
    migration_end_ns: Optional[float] = None
    keys_copied: int = 0
    keys_skipped: int = 0
    mirror_writes: int = 0
    bytes_freed: int = 0
    blades_before: int = 0
    blades_after: int = 0
    #: modeled control-plane allocation latency percentiles
    alloc_p50_ns: Optional[float] = None
    alloc_p99_ns: Optional[float] = None
    alloc_count: int = 0
    #: blade id -> allocator stats snapshot at run end
    allocator_stats: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: autoscaler decisions as (at_ns, action, blades_before, blades_after)
    scale_events: List[tuple] = field(default_factory=list)

    @property
    def migration_ns(self) -> Optional[float]:
        if self.migration_start_ns is None or self.migration_end_ns is None:
            return None
        return self.migration_end_ns - self.migration_start_ns

    def phase_table(self) -> Dict[str, List[PhaseStats]]:
        out: Dict[str, List[PhaseStats]] = {p: [] for p in PHASES}
        for row in self.phases:
            out[row.phase].append(row)
        return out

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "phase_ns": self.phase_ns,
            "during_ns": self.during_ns,
            "phases": [vars(p).copy() for p in self.phases],
            "moves": [list(m) for m in self.moves],
            "migration_start_ns": self.migration_start_ns,
            "migration_end_ns": self.migration_end_ns,
            "migration_ns": self.migration_ns,
            "keys_copied": self.keys_copied,
            "keys_skipped": self.keys_skipped,
            "mirror_writes": self.mirror_writes,
            "bytes_freed": self.bytes_freed,
            "blades_before": self.blades_before,
            "blades_after": self.blades_after,
            "alloc_p50_ns": self.alloc_p50_ns,
            "alloc_p99_ns": self.alloc_p99_ns,
            "alloc_count": self.alloc_count,
            "allocator_stats": {
                str(k): v for k, v in sorted(self.allocator_stats.items())
            },
            "scale_events": [list(e) for e in self.scale_events],
        }


class _Snapshot:
    """Per-tenant counters + histogram copy at a phase boundary."""

    def __init__(self, state):
        self.ops = state.stats.ops
        self.shed = state.stats.shed
        self.deferred = state.stats.deferred
        self.queue_hist = state.stats.queue_delay_hist.copy()


def _phase_rows(phase: str, states, snapshots=None) -> List[PhaseStats]:
    """One row per tenant since ``snapshots`` (None: since the window
    reset, where every stat restarted from zero)."""
    rows = []
    for index, state in enumerate(states):
        stats = state.stats
        window = stats.queue_delay_hist
        ops, shed, deferred = stats.ops, stats.shed, stats.deferred
        if snapshots is not None:
            snap = snapshots[index]
            window = window.delta(snap.queue_hist)
            ops, shed = ops - snap.ops, shed - snap.shed
            deferred -= snap.deferred
        rows.append(PhaseStats(
            tenant=state.spec.name,
            phase=phase,
            completed=ops,
            shed=shed,
            deferred=deferred,
            queue_p50_ns=window.percentile(0.50),
            queue_p99_ns=window.percentile(0.99),
            queue_mean_ns=window.mean,
        ))
    return rows


def run_resharding(
    tenants: Optional[List[TenantSpec]] = None,
    rate_mops: float = 0.4,
    slo: Optional[Slo] = None,
    workers: int = 4,
    threads: int = 4,
    compute_blades: int = 1,
    memory_blades: int = 2,
    num_shards: int = 8,
    segments_per_shard: int = 16,
    buckets_per_segment: int = 64,
    heap_bytes_per_shard: int = 1 << 20,
    item_count: int = 2_000,
    mode: str = "add_blade",
    system: str = "smart-ht",
    features=None,
    config=None,
    warmup_ns: float = 0.5e6,
    phase_ns: float = 1.0e6,
    grace_ns: float = 50_000.0,
    seed: int = 0,
    obs=None,
) -> ReshardingResult:
    """One resharding experiment point (see module docstring)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if features is None:
        features = SYSTEM_FEATURES[system]()
    deployment = build_deployment(
        features, threads, compute_blades, memory_blades, config, seed
    )
    cluster = deployment.cluster
    sim = cluster.sim

    service = ShardedHashTableService(
        deployment.memory_nodes,
        num_shards=num_shards,
        segments_per_shard=segments_per_shard,
        buckets_per_segment=buckets_per_segment,
        heap_bytes_per_shard=heap_bytes_per_shard,
    )
    rng = random.Random(seed)
    service.bulk_load((k, rng.getrandbits(32)) for k in range(item_count))

    if obs is not None:
        obs.attach_deployment(deployment)

    engine = OpenLoopEngine(sim, seed=seed)
    add_tenants(
        engine, default_tenants(tenants, rate_mops, None, slo, workers),
        _ShardedApp(deployment, service, item_count), seed,
    )

    # -- migration machinery -----------------------------------------------
    alloc_hist = LogHistogram()
    migrator = ShardMigrator(
        service, deployment.smart_threads[0].handle(), sim,
        grace_ns=grace_ns, alloc_latency_hist=alloc_hist,
    )
    result = ReshardingResult(mode=mode, seed=seed, phase_ns=phase_ns)
    result.blades_before = len(service.shard_map.ring.members)

    def grow_fleet():
        """Add a blade, wire every compute thread to it, rebalance."""
        node = cluster.add_node()
        for compute in deployment.compute_nodes:
            compute.smart_context.connect_node(node)
        moves = service.add_blade(node)
        result.moves.extend((m.shard, m.src, m.dst) for m in moves)
        moved = yield from migrator.migrate_all(moves)
        return moved

    def drain_last():
        """Drain the highest-numbered blade and empty it online."""
        node = deployment.memory_nodes[-1]
        cluster.drain_node(node.node_id)
        moves = service.drain_blade(node)
        result.moves.extend((m.shard, m.src, m.dst) for m in moves)
        moved = yield from migrator.migrate_all(moves)
        return moved

    def tracked(action):
        result.migration_start_ns = sim.now
        yield from action()
        result.migration_end_ns = sim.now

    autoscaler = None
    if mode == "autoscale":
        autoscaler = Autoscaler(
            sim,
            engine.tenants,
            blade_count_fn=lambda: len(service.shard_map.ring.members),
            scale_out_fn=lambda: tracked(grow_fleet),
            period_ns=phase_ns / 8,
            shed_threshold=1,
            defer_threshold=8,
            max_blades=memory_blades + 1,
        )

    # -- timeline ----------------------------------------------------------
    warm = warm_up(deployment, engine, warmup_ns)
    states = engine.tenants
    boundaries = [warm + i * phase_ns for i in range(1, 4)]

    sim.run(until=boundaries[0])
    snaps = [_Snapshot(s) for s in states]
    result.phases.extend(_phase_rows("before", states))

    if mode == "autoscale":
        migrator_process = sim.spawn(autoscaler.run(), name="autoscaler")
    else:
        migrator_process = sim.spawn(
            tracked(grow_fleet if mode == "add_blade" else drain_last),
            name="migrator",
        )
    # The during window lasts at least phase_ns and stretches (in
    # half-phase slices, capped at 8 extra phases) until the migration
    # has completed, so "after" genuinely measures the post-rebalance
    # steady state rather than the migration's tail.
    deadline = boundaries[1]
    cap = boundaries[1] + 8 * phase_ns
    while True:
        sim.run(until=deadline)
        if result.migration_end_ns is not None or deadline >= cap:
            break
        deadline += phase_ns / 2
    result.during_ns = deadline - boundaries[0]
    during = _phase_rows("during", states, snaps)
    snaps = [_Snapshot(s) for s in states]
    result.phases.extend(during)

    sim.run(until=deadline + phase_ns)
    result.phases.extend(_phase_rows("after", states, snaps))
    if autoscaler is not None:
        autoscaler.stop()
        result.scale_events = [
            (e.at_ns, e.action, e.blades_before, e.blades_after)
            for e in autoscaler.events
        ]

    # -- results -----------------------------------------------------------
    result.keys_copied = migrator.keys_copied
    result.keys_skipped = migrator.keys_skipped
    result.mirror_writes = service.mirror_writes
    result.bytes_freed = service.bytes_freed
    result.blades_after = len(service.shard_map.ring.members)
    result.alloc_count = alloc_hist.count
    result.alloc_p50_ns = alloc_hist.percentile(0.50)
    result.alloc_p99_ns = alloc_hist.percentile(0.99)
    for node in cluster.nodes:
        if node in deployment.compute_nodes:
            continue
        result.allocator_stats[node.node_id] = node.storage.allocator.stats()

    if obs is not None:
        obs.phase("warmup", 0, warm)
        during_end = boundaries[0] + result.during_ns
        obs.phase("before", warm, boundaries[0])
        obs.phase("during", boundaries[0], during_end)
        obs.phase("after", during_end, during_end + phase_ns)
        obs.collect_cluster(cluster, window_ns=2 * phase_ns + result.during_ns)
        obs.collect_memory(cluster)
        if alloc_hist.count:
            obs.registry.adopt_histogram("memory.alloc_latency_ns", alloc_hist)
        for state in states:
            obs.collect_stats(state.stats, prefix=f"tenant.{state.spec.name}")
    return result


class _ShardedApp(AppAdapter):
    """The sharded RACE table as an app: YCSB ops through a shard-routing
    client."""

    def executor(self, smart, workload):
        client = ShardedHashTableClient(self.server, smart.handle())
        return ycsb_execute(client.search, client.update, client.insert)
