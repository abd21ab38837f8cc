"""Hooks the benchmark installs on ``repro`` from outside, without editing it.

:class:`Probe` is always installed.  It wraps three functions that run a
handful of times per point (``Cluster.__init__``, ``Simulator.run`` and
``runner.measure``) to capture what the result objects lack: the
measured-window host time and kernel events, the merged
``OperationStats`` and the device counters at the window's edges.

The host this runs on changes speed by up to 2x within seconds (other
tenants share its cores), so the probe also calibrates every host time
it reports.  It runs each ``Simulator.run`` call as :data:`CHUNKS`
equal spans of simulated time and times a fixed pure-Python
:func:`reference_slice` before each span and after the last.  A span's
*nominal* host time is its wall time scaled by how much slower than
:data:`REF_SLICE_NS` the slices around it ran: the time the span would
take on a host where the slice takes exactly that long.  The slices are
not part of any reported time.  Splitting a run at ``until`` boundaries
does not change what the kernel executes (the ``sim_digest`` checks it).

:class:`Tracer` is installed only for the traced run.  It wraps the
public entry points of every ``repro`` layer (see :data:`LAYERS`) and,
while the measured window runs, records one span per call: layer, function,
simulated start and end, host busy time, parent span and request id.
Host busy time of a generator is the sum of its resume intervals, since
coroutines interleave.  Spans are kept in column arrays and written out
after the point.

Both are passive: they only read state and time calls, so the simulated
statistics of a point are identical with or without them.  A point runs
in a fresh process, so nothing is ever uninstalled.
"""

from __future__ import annotations

import functools
import gc
import gzip
import heapq
import importlib
import random
import resource
import statistics
from array import array
from time import perf_counter_ns

#: ``runner.measure`` and ``run_microbench`` both run the warmup and then
#: the measured window: the window is the second ``Simulator.run`` call.
WINDOW_RUN_CALL = 2


#: every ``Simulator.run`` call runs as this many spans of simulated time
CHUNKS = 32
#: host ns one :meth:`Speedometer.tick` slice takes on the nominal host
REF_SLICE_NS = 3_000_000
#: the reference slice's table; at several times a core's caches its
#: lookups wait on memory, as the simulator's do (a cache-resident slice
#: slowed by 25% more than the simulator when the host slowed)
REF_TABLE = 300_000
REF_CLIENTS = 2048
REF_EVENTS = 1000


class _Message:
    __slots__ = ("src", "dst", "size", "seq")

    def __init__(self, src, dst, size, seq):
        self.src = src
        self.dst = dst
        self.size = size
        self.seq = seq


def reference_slice(keys: array, table: dict) -> None:
    """A fixed closed-loop event simulation in plain Python (generators, a
    heap, small slotted objects, updates spread over a large dict): the
    kind of work the kernel does, in code the benchmarked program cannot
    change."""
    rng = random.Random(12345)
    count = len(keys)

    def client(index):
        seq = 0
        while True:
            seq += 1
            key = keys[(index * 131 + seq * 977) % count]
            table[key] += 1
            msg = _Message(index, key, 8 + (seq & 63), seq)
            yield 100 + (msg.size * 3) % 997

    heap = [(i, i, client(i)) for i in range(REF_CLIENTS)]
    seq = len(heap)
    for _ in range(REF_EVENTS):
        when, _, proc = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (when + next(proc) + rng.randrange(8), seq, proc))


def resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()


class Speedometer:
    """Times reference slices and turns wall time into nominal host time."""

    def __init__(self):
        #: host ns of every slice timed, in order
        self.slices = array("q")
        before = resident_bytes()
        self.keys = array("q", range(0, 7919 * REF_TABLE, 7919))
        self.table = dict.fromkeys(self.keys, 0)
        #: memory the reference table holds, which is not the program's
        self.resident_bytes = resident_bytes() - before

    def tick(self) -> int:
        """Time one reference slice (with the collector off, so that a
        collection the program is due does not land in it)."""
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        reference_slice(self.keys, self.table)
        spent = perf_counter_ns() - start
        if enabled:
            gc.enable()
        self.slices.append(spent)
        return spent

    @staticmethod
    def nominal(spent_ns: int, before_ns: int, after_ns: int) -> float:
        """``spent_ns`` of wall time between slices that took ``before_ns``
        and ``after_ns``, in nominal host ns."""
        return spent_ns * 2 * REF_SLICE_NS / (before_ns + after_ns)

    @property
    def speed(self) -> float:
        """Host speed over the point, nominal = 1 (median slice)."""
        return REF_SLICE_NS / statistics.median(self.slices)


class Run:
    """One ``Simulator.run`` call."""

    __slots__ = ("entered", "events_before", "events_after", "host_ns",
                 "nominal_ns")

    def __init__(self, entered, events_before, events_after, host_ns, nominal_ns):
        self.entered = entered
        self.events_before = events_before
        self.events_after = events_after
        #: wall ns spent in the kernel (the reference slices excluded)
        self.host_ns = host_ns
        self.nominal_ns = nominal_ns


class Probe:
    """Window edges, window host time and events, and the run's stats."""

    def __init__(self, calibrate: bool = True):
        self.clusters = []
        #: one :class:`Run` per ``Simulator.run`` call
        self.runs = []
        self.stats = None
        self.cluster = None
        self.counters_before = None
        self.counters_after = None
        self.tracer = None
        #: None runs every ``Simulator.run`` call whole and uncalibrated
        self.meter = Speedometer() if calibrate else None

    def install(self) -> "Probe":
        from repro import cluster as cluster_mod
        from repro.bench import runner
        from repro.sim.core import Simulator

        probe = self
        cluster_init = cluster_mod.Cluster.__init__
        sim_run = Simulator.run
        measure = runner.measure

        @functools.wraps(cluster_init)
        def init(cluster, *args, **kwargs):
            cluster_init(cluster, *args, **kwargs)
            probe.clusters.append(cluster)

        @functools.wraps(sim_run)
        def run(sim, until=None, max_events=None):
            window = len(probe.runs) + 1 == WINDOW_RUN_CALL
            if window:
                probe._window_begin(sim)
            events = sim.events_executed
            entered = perf_counter_ns()
            host_ns, nominal_ns = probe._run_chunks(sim_run, sim, until, max_events)
            probe.runs.append(Run(entered, events, sim.events_executed,
                                  host_ns, nominal_ns))
            if window:
                probe._window_end(host_ns)

        @functools.wraps(measure)
        def measure_hook(*args, **kwargs):
            probe.stats = measure(*args, **kwargs)
            return probe.stats

        cluster_mod.Cluster.__init__ = init
        Simulator.run = run
        runner.measure = measure_hook
        return self

    def _run_chunks(self, sim_run, sim, until, max_events):
        """Run one ``Simulator.run`` call in :data:`CHUNKS` spans with a
        reference slice around each; returns its wall and nominal ns."""
        meter = self.meter
        if meter is None:
            start = perf_counter_ns()
            sim_run(sim, until, max_events)
            spent = perf_counter_ns() - start
            return spent, float(spent)
        # The runners always bound their runs by ``until``.
        first = sim.now
        stops = [first + (until - first) * k // CHUNKS for k in range(1, CHUNKS)]
        stops.append(until)
        host_ns = 0
        nominal_ns = 0.0
        before = meter.tick()
        for stop in stops:
            start = perf_counter_ns()
            sim_run(sim, stop, max_events)
            spent = perf_counter_ns() - start
            after = meter.tick()
            host_ns += spent
            nominal_ns += meter.nominal(spent, before, after)
            before = after
        return host_ns, nominal_ns

    def _window_begin(self, sim) -> None:
        self.cluster = next(c for c in reversed(self.clusters) if c.sim is sim)
        self.counters_before = snapshot(self.cluster)
        if self.tracer is not None:
            self.tracer.begin(sim)

    def _window_end(self, host_ns: int) -> None:
        self.counters_after = snapshot(self.cluster)
        if self.tracer is not None:
            self.tracer.end(host_ns)

    @property
    def window(self) -> Run:
        """The measured-window ``Simulator.run`` call."""
        return self.runs[WINDOW_RUN_CALL - 1]


def snapshot(cluster) -> dict:
    """Every device counter, blade counter and fabric counter of a cluster."""
    nodes = []
    for node in cluster.nodes:
        blade = node.storage
        nodes.append({
            "counters": dict(vars(node.device.counters.snapshot())),
            "outstanding": node.device.outstanding,
            "blade": {"reads": blade.reads, "writes": blade.writes,
                      "atomics": blade.atomics, "failed_cas": blade.failed_cas},
        })
    fabric = cluster.fabric
    return {
        "nodes": nodes,
        "fabric": {"messages": fabric.messages, "bytes": fabric.bytes_carried,
                   "dropped": fabric.messages_dropped},
    }


# -- the traced run -------------------------------------------------------------

#: a plain call
CALL = "call"
#: a generator function; its span lives across resumes
GEN = "gen"
#: a generator that starts a request when no enclosing span has one
GEN_ROOT = "gen-root"
#: a plain call whose first argument is a WorkBatch (request id via batch)
BATCH = "batch"
#: returns an iterator; each ``next`` is a span
STREAM = "stream"
#: always timed, outside the window: setup steps
SETUP = "setup"


def _blade_bytes_read(args, result):
    return args[2]


def _blade_bytes_write(args, result):
    return len(args[2])


def _blade_bytes_atomic(args, result):
    return 8


#: (layer, module, attribute, kind, meter) for every wrapped entry point.
#: A meter maps ``(args, result)`` to a quantity summed per layer.
LAYERS = (
    ("cluster", "repro.cluster", "ComputeThread.compute", GEN, None),
    ("core", "repro.core.api", "SmartHandle.post_send", GEN, None),
    ("core", "repro.core.api", "SmartHandle.sync", GEN, None),
    ("core", "repro.core.api", "SmartHandle.backoff_cas_sync", GEN, None),
    ("verbs", "repro.rnic.verbs", "post_send", GEN, None),
    ("verbs", "repro.rnic.verbs", "wait_completion", GEN, None),
    ("verbs", "repro.rnic.verbs", "post_and_wait", GEN_ROOT, None),
    ("rnic", "repro.rnic.engine", "RequesterEngine.submit", BATCH, None),
    ("rnic", "repro.rnic.engine", "ResponderEngine.handle", BATCH, None),
    # Not a public entry point, but the responder's execute step is a kernel
    # callback of its own: wrapping it gives the memory and return-path
    # network spans a parent and a request id.
    ("rnic", "repro.rnic.engine", "ResponderEngine._execute_and_reply", BATCH, None),
    ("rnic", "repro.rnic.device", "RnicDevice.complete", BATCH, None),
    ("network", "repro.network.fabric", "Fabric.transit", CALL, None),
    ("memory", "repro.memory.blade", "MemoryBlade.read", CALL, _blade_bytes_read),
    ("memory", "repro.memory.blade", "MemoryBlade.write", CALL, _blade_bytes_write),
    ("memory", "repro.memory.blade", "MemoryBlade.compare_and_swap", CALL,
     _blade_bytes_atomic),
    ("memory", "repro.memory.blade", "MemoryBlade.fetch_and_add", CALL,
     _blade_bytes_atomic),
    ("apps", "repro.apps.race.client", "HashTableClient.search", GEN_ROOT, None),
    ("apps", "repro.apps.race.client", "HashTableClient.update", GEN_ROOT, None),
    ("apps", "repro.apps.race.client", "HashTableClient.insert", GEN_ROOT, None),
    ("apps", "repro.apps.ford.txn", "TxnClient.run", GEN_ROOT, None),
    ("workloads", "repro.workloads.ycsb", "YcsbWorkload.stream", STREAM, None),
    ("workloads", "repro.workloads.smallbank", "transaction_stream", STREAM, None),
    # The microbench draws its random WR addresses here: its input stream.
    ("workloads", "repro.bench.microbench", "_make_wrs", CALL, None),
    ("setup", "repro.bench.runner", "build_deployment", SETUP, None),
    ("setup", "repro.bench.runner", "load_hashtable_server", SETUP, None),
    ("setup", "repro.workloads.smallbank", "setup", SETUP, None),
)

#: the root span of the window: the measured ``Simulator.run`` call
RUN_NAME = "sim:Simulator.run"


class Tracer:
    """Span recorder over the wrapped layer entry points."""

    def __init__(self):
        self.recording = False
        self.sim = None
        #: span indices of the wrapped calls active right now, innermost last
        self.stack = []
        self.names = [RUN_NAME]
        # span columns
        self.fn = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.sim_start = array("d")
        self.sim_end = array("d")
        self.busy_ns = array("q")
        #: host ns the span's own wrapper spent outside ``busy_ns`` (opening
        #: and closing the span); charged to no layer, not to the parent
        self.cost_ns = array("q")
        #: request id of every batch submitted under a request
        self.batch_request = {}
        #: summed meter quantity per layer
        self.meters = {}
        #: host seconds per SETUP function, outside the window
        self.setup_s = {}

    def install(self, probe: Probe) -> "Tracer":
        probe.tracer = self
        for layer, module_name, attr, kind, meter in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, fn_name)
            fid = len(self.names)
            self.names.append(f"{layer}:{attr}")
            setattr(owner, fn_name, self._wrap(fn, fid, kind, layer, meter))
        return self

    # -- window edges (called by the Probe) ------------------------------------

    def begin(self, sim) -> None:
        self.sim = sim
        self.recording = True
        self.stack.append(self._open(0, False, None))

    def end(self, host_ns: int) -> None:
        self.recording = False
        self._close(self.stack.pop(), host_ns)
        if self.stack:
            raise RuntimeError("unbalanced span stack at window end")
        self.batch_request.clear()

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, fid: int, root: bool, batch) -> int:
        index = len(self.fn)
        parent = self.stack[-1] if self.stack else -1
        request = self.request[parent] if parent >= 0 else -1
        if batch is not None:
            if request >= 0:
                self.batch_request[batch.batch_id] = request
            else:
                request = self.batch_request.get(batch.batch_id, -1)
        elif request < 0 and root:
            request = index
        self.fn.append(fid)
        self.parent.append(parent)
        self.request.append(request)
        self.sim_start.append(self.sim.now)
        self.sim_end.append(-1.0)
        self.busy_ns.append(0)
        self.cost_ns.append(0)
        return index

    def _close(self, index: int, busy_ns: int) -> None:
        self.sim_end[index] = self.sim.now
        self.busy_ns[index] = busy_ns

    def _wrap(self, fn, fid, kind, layer, meter):
        tracer = self
        stack = self.stack

        if kind == SETUP:
            name = self.names[fid]

            @functools.wraps(fn)
            def setup_step(*args, **kwargs):
                start = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = (perf_counter_ns() - start) / 1e9
                    tracer.setup_s[name] = tracer.setup_s.get(name, 0.0) + spent
            return setup_step

        if kind in (GEN, GEN_ROOT):
            root = kind == GEN_ROOT

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.recording:
                    return gen
                entered = perf_counter_ns()
                index = tracer._open(fid, root, None)
                driver = tracer._drive(gen, index)
                tracer.cost_ns[index] = perf_counter_ns() - entered
                return driver
            return generator

        if kind == STREAM:
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                return _TimedIterator(tracer, fid, fn(*args, **kwargs))
            return stream

        with_batch = kind == BATCH

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            entered = perf_counter_ns()
            index = tracer._open(fid, False, args[1] if with_batch else None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(index, end - start)
            if meter is not None:
                tracer.meters[layer] = tracer.meters.get(layer, 0) + meter(args, result)
            tracer.cost_ns[index] = start - entered + perf_counter_ns() - end
            return result
        return call

    def _drive(self, gen, index):
        """Run ``gen`` as this span, adding each resume interval to its
        busy time (so a span still open at the window's end keeps what it
        has spent so far)."""
        stack = self.stack
        busy = self.busy_ns
        value = None
        error = None
        while True:
            start = perf_counter_ns()
            stack.append(index)
            try:
                target = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self.sim_end[index] = self.sim.now
                return stop.value
            finally:
                busy[index] += perf_counter_ns() - start
                stack.pop()
            error = None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, finished calls, summed busy and self host ns
        and the simulated ns of the finished calls."""
        count = len(self.fn)
        child_busy = [0] * count
        parent = self.parent
        busy, cost = self.busy_ns, self.cost_ns
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_busy[p] += busy[i] + cost[i]
        per_fn = {}
        fn, sim_start, sim_end = self.fn, self.sim_start, self.sim_end
        for i in range(count):
            row = per_fn.get(fn[i])
            if row is None:
                row = per_fn[fn[i]] = {"calls": 0, "done": 0, "busy_ns": 0,
                                       "self_ns": 0, "sim_ns": 0.0}
            row["calls"] += 1
            row["busy_ns"] += busy[i]
            row["self_ns"] += busy[i] - child_busy[i]
            if sim_end[i] >= 0:
                row["done"] += 1
                row["sim_ns"] += sim_end[i] - sim_start[i]
        return {self.names[f]: row for f, row in per_fn.items()}

    def layer_self_ns(self, summary: dict) -> dict:
        layers = {}
        for name, row in summary.items():
            layer = name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0) + row["self_ns"]
        return layers

    def write(self, path) -> int:
        """Write every span as a gzipped TSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tfunction\tsim_start_ns\t"
                      "sim_end_ns\tbusy_ns\tcost_ns\n")
            names = self.names
            for i in range(len(self.fn)):
                out.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                          f"{names[self.fn[i]]}\t{self.sim_start[i]:.0f}\t"
                          f"{self.sim_end[i]:.0f}\t{self.busy_ns[i]}\t"
                          f"{self.cost_ns[i]}\n")
        return len(self.fn)


class _TimedIterator:
    """An input stream whose every ``next`` is a span while recording."""

    __slots__ = ("tracer", "fid", "it")

    def __init__(self, tracer: Tracer, fid: int, it):
        self.tracer = tracer
        self.fid = fid
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.recording:
            return next(self.it)
        entered = perf_counter_ns()
        index = tracer._open(self.fid, False, None)
        tracer.stack.append(index)
        start = perf_counter_ns()
        try:
            return next(self.it)
        finally:
            end = perf_counter_ns()
            tracer.stack.pop()
            tracer._close(index, end - start)
            tracer.cost_ns[index] = start - entered + perf_counter_ns() - end
