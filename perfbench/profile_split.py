"""One-off check: does the traced layer split agree with cProfile's?

    python3 perfbench/profile_split.py --workload NAME --seed N

Prints three splits of one point's measured window into layers, as shares
of the window, each from its own fresh process:

* ``cProfile``: the window of an untraced point under cProfile.  Each
  function's own time is bucketed the way the trace does it: a wrapped
  entry point (``probes.LAYERS``) or the kernel's drain loop keeps its
  own time, and any other function's time goes to its callers' layers in
  proportion to the time each caller's calls took.
* ``sampled``: the window of an untraced point sampled every 0.5 ms of
  CPU time; a sample goes to the innermost entry point on the stack, or
  to the kernel when there is none.  It adds no cost per call, so it
  serves as the reference for the two instrumented splits.
* ``trace``: the layer self times of a traced point (``point.py --trace 1``).

cProfile adds its cost to every call and the trace to every span, so
call-heavy layers look bigger under cProfile and span-heavy parents
bigger under the trace.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import signal
import subprocess
import sys
from pathlib import Path

from probes import LAYERS, SETUP, Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LAYER_ORDER = ("sim", "cluster", "core", "verbs", "rnic", "network", "memory",
               "apps", "workloads")
SAMPLE_INTERVAL_S = 0.0005


def entry_points() -> dict:
    """``(file suffix, function name) -> layer`` of every wrapped entry
    point, plus the kernel's drain loop."""
    points = {("repro/sim/core.py", "run"): "sim"}
    for layer, module, attr, kind, _meter in LAYERS:
        if kind != SETUP:
            path = module.replace(".", "/") + ".py"
            points[(path, attr.rpartition(".")[2])] = layer
    return points


def layer_of(func, points: dict) -> str | None:
    """The layer a function's own time belongs to, or None when it belongs
    to whoever called it: as in the trace, only the wrapped entry points
    open a layer, and everything they call is theirs."""
    filename, _, name = func
    for (suffix, fn_name), layer in points.items():
        if name == fn_name and filename.endswith(suffix):
            return layer
    return None


def profile_split(stats: pstats.Stats) -> dict:
    """Each function's own time as shares per layer; a function without a
    layer of its own is split over its callers' layers in proportion to
    the time each caller's calls took."""
    table = stats.stats
    points = entry_points()
    memo = {}

    def shares_of(func, seen):
        if func in memo:
            return memo[func]
        layer = layer_of(func, points)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = table[func][4] if func in table else {}
            total = sum(c[2] for c in callers.values())
            result = {}
            for caller, caller_stats in callers.items():
                weight = caller_stats[2] / total if total else 1 / len(callers)
                inherited = ({"sim": 1.0} if caller in seen
                             else shares_of(caller, seen | {func}))
                for name, share in inherited.items():
                    result[name] = result.get(name, 0.0) + weight * share
            result = result or {"sim": 1.0}
        memo[func] = result
        return result

    shares = dict.fromkeys(LAYER_ORDER, 0.0)
    for func, row in table.items():
        for layer, share in shares_of(func, frozenset()).items():
            shares[layer] += row[2] * share
    total = sum(shares.values())
    return {layer: value / total for layer, value in shares.items()}


class _WindowProfiler:
    """Stands in for a Tracer: profiles exactly the measured window."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def begin(self, sim) -> None:
        self.profile.enable()

    def end(self, host_ns: int) -> None:
        self.profile.disable()

    def split(self) -> dict:
        return profile_split(pstats.Stats(self.profile))


class _WindowSampler:
    """Stands in for a Tracer: samples the stack during the window."""

    def __init__(self):
        import importlib

        from repro.sim.core import Simulator

        self.codes = {Simulator.run.__code__: "sim"}
        for layer, module, attr, kind, _meter in LAYERS:
            if kind == SETUP:
                continue
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            self.codes[owner.__code__] = layer
        self.counts = dict.fromkeys(LAYER_ORDER, 0)

    def begin(self, sim) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def end(self, host_ns: int) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum, frame) -> None:
        codes = self.codes
        while frame is not None:
            layer = codes.get(frame.f_code)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["sim"] += 1

    def split(self) -> dict:
        total = sum(self.counts.values())
        return {layer: count / total for layer, count in self.counts.items()}


def measure_split(workload: str, seed: int, method: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from point import entry_point
    from workloads import WORKLOADS

    call = entry_point(WORKLOADS[workload], seed)
    # Built before the probe wraps Simulator.run, so that the sampler keys
    # the kernel's own code object.
    window = _WindowProfiler() if method == "cprofile" else _WindowSampler()
    # Uncalibrated: the window runs whole, with no reference slices in it.
    probe = Probe(calibrate=False).install()
    probe.tracer = window
    call()
    return window.split()


def child(script: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--method", choices=("cprofile", "sample"),
                        help="measure one split in this process and print it")
    args = parser.parse_args(argv)
    if args.method:
        print(json.dumps(measure_split(args.workload, args.seed, args.method)))
        return 0

    point = ["--workload", args.workload, "--seed", str(args.seed)]
    by_profile = child("profile_split.py", *point, "--method", "cprofile")
    by_sample = child("profile_split.py", *point, "--method", "sample")
    layers = child("point.py", *point, "--trace", "1")["layers"]
    self_us = {layer: layers[f"{layer}.self_us_per_op"] for layer in LAYER_ORDER}
    total = sum(self_us.values())
    print(f"{args.workload} seed {args.seed}: share of the measured window")
    print(f"{'layer':10s} {'cProfile':>9s} {'sampled':>9s} {'trace':>9s} "
          f"{'trace-cProfile':>15s}")
    for layer in LAYER_ORDER:
        a, s, b = by_profile[layer], by_sample[layer], self_us[layer] / total
        print(f"{layer:10s} {a:9.1%} {s:9.1%} {b:9.1%} {100 * (b - a):+15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
