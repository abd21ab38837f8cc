"""Repo benchmark: host cost per simulated op on three figure points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload's figure point again and again, each time in a
fresh process (``point.py``) and one at a time, until ``--seconds`` is
used up (at least MIN_POINTS times).  Every point uses the same seed, so
its simulated statistics must repeat exactly: their ``sim_digest`` is
compared across points, and the output check of every point must pass.

``--trace 0`` reports the end-to-end metrics: host times as medians over
the points, simulated statistics from the (identical) points.  Host times
are nominal: calibrated against a reference slice timed alongside (see
``probes``), since this host's speed drifts by up to 2x.
``--trace 1`` alternates an untraced and a traced point and reports the
per-layer metrics of the traced points (medians), plus ``trace.overhead``,
the traced over the untraced measured-window host time.

Metric names and units come from ``BENCHMARK.json``.  Each point's row is
printed as one JSON line with its provenance (source hash, git sha when
the tree is a git checkout, parameter hash, seed, nproc, Python version);
the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fewest points per run: a median and a repeat check need several
MIN_POINTS = 3
#: a point that takes longer than this is a failure
POINT_TIMEOUT_S = 170


class PointFailed(RuntimeError):
    pass


def git_sha(root: Path):
    """HEAD's sha read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256(root: Path) -> str:
    """Hash of every Python source under ``src``: the code that ran."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(name: str, seed: int) -> dict:
    spec = WORKLOADS[name]
    params = json.dumps({"workload": name, **spec}, sort_keys=True)
    params_hash = hashlib.sha256(params.encode()).hexdigest()[:16]
    src = src_sha256(ROOT)
    run_id = hashlib.sha256(f"{src}:{params_hash}:{seed}".encode()).hexdigest()[:12]
    return {
        "run_id": run_id,
        "git_sha": git_sha(ROOT),
        "src_sha256": src,
        "params_hash": params_hash,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_point(name: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "point.py"), "--workload", name,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=POINT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PointFailed(f"point timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise PointFailed(proc.stderr.strip() or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_points(name: str, seed: int, seconds: float, traced_run: bool) -> list:
    """Points while the next one still fits the budget, judged by the
    slowest so far; a traced run alternates an untraced and a traced point."""
    rows = []
    start = time.monotonic()
    slowest = 0.0
    while True:
        began = time.monotonic()
        rows.append(run_point(name, seed, False))
        if traced_run:
            rows.append(run_point(name, seed, True))
        slowest = max(slowest, time.monotonic() - began)
        enough = len(rows) >= (2 if traced_run else MIN_POINTS)
        if enough and time.monotonic() - start + slowest > seconds:
            return rows


def check(rows: list) -> list:
    """Run-level output check: every point's own check, and one digest."""
    problems = [f"point {i}: {v}" for i, r in enumerate(rows) for v in r["violations"]]
    digests = {r["sim_digest"] for r in rows}
    if len(digests) != 1:
        problems.append(f"sim_digest differs between points of one seed: "
                        f"{sorted(digests)}")
    return problems


def end_to_end(rows: list, correct: bool) -> dict:
    def median(values):
        return statistics.median(list(values))

    sim = rows[0]
    return {
        "point_s": median(r["point_s"] for r in rows),
        "setup_s": median(r["setup_s"] for r in rows),
        "host_us_per_op": median(r["window_host_s"] / r["ops"] * 1e6 for r in rows),
        "sim_events_per_s": median(r["window_events"] / r["window_host_s"]
                                   for r in rows),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rows),
        "sim_mops": sim["sim_mops"],
        "sim_p50_us": sim["p50_ns"] / 1e3,
        "sim_p99_us": sim["p99_ns"] / 1e3,
        "ok_op_ratio": sim["ok"] / sim["attempted"] if correct else 0.0,
    }


def per_layer(rows: list) -> dict:
    traced = [r for r in rows if r["traced"]]
    plain = [r for r in rows if not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead"] = (
        statistics.median(r["window_host_s"] for r in traced)
        / statistics.median(r["window_host_s"] for r in plain)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    try:
        rows = run_points(args.workload, args.seed, args.seconds, bool(args.trace))
    except PointFailed as exc:
        print(f"{args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    problems = check(rows)
    correct = not problems
    measured = per_layer(rows) if args.trace else end_to_end(rows, correct)
    missing = {m["name"] for m in wanted} ^ set(measured)
    if missing:
        print(f"metrics out of step with BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1

    origin = provenance(args.workload, args.seed)
    for row in rows:
        print(json.dumps({"provenance": origin,
                          **{k: v for k, v in row.items() if k != "layers"}}))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for metric in wanted:
        print(f"{metric['name']:30s} {measured[metric['name']]:>16.6g} "
              f"{metric['unit']}")
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows) if correct else attempted
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
