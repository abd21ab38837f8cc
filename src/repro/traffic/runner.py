"""Open-loop driver for the three SMART applications.

It drives the app adapters of :mod:`repro.bench.runner` (the same ones
its closed loop uses) from an :class:`OpenLoopEngine`: every tenant's
arrivals are queued and served by workers spread over the deployment's
SMART threads, so offered load is independent of service progress and
queueing delay is measured rather than omitted.  This module knows no
app; :mod:`repro.traffic.resharding` reuses its tenant wiring.

``run_open_loop`` is registered with :mod:`repro.bench.parallel`, so
every argument (including :class:`TenantSpec` and its arrival process /
SLO members) must stay picklable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.bench.runner import APPS, effective_warmup_ns
from repro.core import OperationStats
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import OpenLoopEngine
from repro.traffic.tenant import NO_SLO, Slo, TenantSpec

#: default system per app (mirrors the closed-loop runners)
DEFAULT_SYSTEMS = {"hashtable": "smart-ht", "dtx": "smart-dtx", "btree": "smart-bt"}


@dataclass
class TenantResult:
    """Measured-window outcome for one tenant."""

    tenant: str
    workers: int
    #: long-run mean of the arrival process (what the sweep asked for)
    nominal_mops: float
    #: arrivals actually generated in the window
    offered_mops: float
    #: ops completed in the window
    achieved_mops: float
    offered: int
    completed: int
    shed: int
    deferred: int
    #: ops still queued (admitted, not yet issued) at window end —
    #: grows without bound past the knee when admission is off
    backlog: int
    max_queue_depth: int
    #: arrival→completion latency (includes queueing delay)
    p50_latency_ns: Optional[float]
    p99_latency_ns: Optional[float]
    #: arrival→issue queueing delay
    queue_p50_ns: Optional[float]
    queue_p99_ns: Optional[float]
    queue_mean_ns: float
    avg_retries: float


@dataclass
class OpenLoopResult:
    """Aggregated outcome of one open-loop experiment point."""

    app: str
    system: str
    threads: int
    measure_ns: float
    tenants: List[TenantResult] = field(default_factory=list)

    @property
    def offered_mops(self) -> float:
        return sum(t.offered_mops for t in self.tenants)

    @property
    def achieved_mops(self) -> float:
        return sum(t.achieved_mops for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    @property
    def deferred(self) -> int:
        return sum(t.deferred for t in self.tenants)

    @property
    def backlog(self) -> int:
        return sum(t.backlog for t in self.tenants)

    @property
    def worst_p99_latency_ns(self) -> Optional[float]:
        values = [t.p99_latency_ns for t in self.tenants
                  if t.p99_latency_ns is not None]
        return max(values) if values else None


def _tenant_result(state, measure_ns: float) -> TenantResult:
    stats: OperationStats = state.stats
    queue_hist = stats.queue_delay_hist
    return TenantResult(
        tenant=state.spec.name,
        workers=state.spec.workers,
        nominal_mops=state.spec.arrivals.offered_mops,
        offered_mops=stats.offered / measure_ns * 1e3,
        achieved_mops=stats.ops / measure_ns * 1e3,
        offered=stats.offered,
        completed=stats.ops,
        shed=stats.shed,
        deferred=stats.deferred,
        backlog=state.backlog,
        max_queue_depth=state.max_queue_depth,
        p50_latency_ns=stats.latency_percentile_ns(0.50),
        p99_latency_ns=stats.latency_percentile_ns(0.99),
        queue_p50_ns=queue_hist.percentile(0.50),
        queue_p99_ns=queue_hist.percentile(0.99),
        queue_mean_ns=queue_hist.mean,
        avg_retries=stats.avg_retries,
    )


def add_tenants(engine: OpenLoopEngine, tenants: List[TenantSpec], app,
                seed: int) -> None:
    """Give each tenant an op stream and workers from ``app`` (an
    :class:`repro.bench.runner.AppAdapter`), the workers spread
    round-robin over the app's SMART threads."""
    smart_threads = app.deployment.smart_threads
    seeder = random.Random(seed)
    worker_index = 0
    for spec in tenants:
        stream = app.stream(spec.workload, seeder.getrandbits(31))
        executors = []
        for _ in range(spec.workers):
            smart = smart_threads[worker_index % len(smart_threads)]
            executors.append(partial(app.executor, smart, spec.workload))
            worker_index += 1
        engine.add_tenant(spec, stream, executors, seeder.getrandbits(31))


def default_tenants(tenants, rate_mops: float, arrivals, slo, workers: int):
    """``tenants``, or one tenant "t0" (Poisson unless ``arrivals`` is set)."""
    if tenants is not None:
        return tenants
    return [TenantSpec("t0", arrivals or PoissonArrivals(rate_mops),
                       slo=slo or NO_SLO, workers=workers)]


def warm_up(deployment, engine: OpenLoopEngine, warmup_ns: float) -> float:
    """Run the warmup and reset every window stat; returns its end."""
    warm = effective_warmup_ns(deployment.features, warmup_ns)
    deployment.cluster.sim.run(until=warm)
    for smart in deployment.smart_threads:
        smart.stats.reset()
    engine.reset_window()
    return warm


# -- the runner ----------------------------------------------------------------


def run_open_loop(
    app: str = "hashtable",
    system: Optional[str] = None,
    tenants: Optional[List[TenantSpec]] = None,
    rate_mops: float = 1.0,
    arrivals=None,
    slo: Optional[Slo] = None,
    workers: int = 8,
    threads: int = 8,
    compute_blades: int = 1,
    memory_blades: int = 2,
    servers: int = 1,
    item_count: int = 50_000,
    benchmark: str = "smallbank",
    features=None,
    config=None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    client_cpu_ns: float = 2000.0,
    obs=None,
) -> OpenLoopResult:
    """One open-loop experiment point.

    With ``tenants=None`` a single default tenant is built from
    ``rate_mops`` / ``arrivals`` / ``slo`` / ``workers`` (Poisson
    arrivals unless an explicit process is given).  Each tenant's
    workers are spread round-robin over the deployment's SMART threads,
    so tenants contend for the same RNICs and fabric while keeping
    private queues, stats and admission state.
    """
    if app not in APPS:
        raise ValueError(f"app must be one of {sorted(APPS)}, got {app!r}")
    system = system or DEFAULT_SYSTEMS[app]
    tenants = default_tenants(tenants, rate_mops, arrivals, slo, workers)
    adapter = APPS[app](
        system, threads, item_count, seed, features=features, config=config,
        compute_blades=compute_blades, memory_blades=memory_blades,
        servers=servers, benchmark=benchmark, client_cpu_ns=client_cpu_ns,
    )
    deployment = adapter.deployment
    if obs is not None:
        obs.attach_deployment(deployment)
    sim = deployment.cluster.sim
    engine = OpenLoopEngine(sim, seed=seed)
    add_tenants(engine, tenants, adapter, seed)
    warm = warm_up(deployment, engine, warmup_ns)
    sim.run(until=warm + measure_ns)

    result = OpenLoopResult(
        app=app, system=system, threads=threads, measure_ns=measure_ns,
        tenants=[_tenant_result(state, measure_ns) for state in engine.tenants],
    )

    if obs is not None:
        obs.phase("warmup", 0, warm)
        obs.phase("measure", warm, warm + measure_ns)
        obs.collect_cluster(deployment.cluster, window_ns=measure_ns)
        obs.collect_stats(
            OperationStats.merge([s.stats for s in deployment.smart_threads])
        )
        for state in engine.tenants:
            obs.collect_stats(state.stats, prefix=f"tenant.{state.spec.name}")
    return result
