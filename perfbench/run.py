"""Run one benchmark workload; print its metrics as the last line.

    python3 perfbench/run.py --workload scan-s1 --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it): the program is
imported from ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter as clock
from time import process_time

ROOT = Path(__file__).resolve().parent.parent

#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def stolen_seconds() -> float:
    """CPU time the host took from this machine's virtual CPUs (the
    ``steal`` column of /proc/stat; 0 where there is none)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(workload: str, seed: int, directory: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first op being
    ready (imports, input load, fit, indexes, service start)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--probe-setup", str(directory)]
    start = clock()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as probe:
        line = probe.stdout.readline()
        elapsed = clock() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]

    if args.probe_setup:
        workload = kind(args.seed, Path(args.probe_setup))
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    run_dir = inputs.CACHE / "runs" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs.build(args.workload, args.seed, run_dir)
        setups = [time_setup(args.workload, args.seed, run_dir)
                  for _ in range(SETUP_PROBES)]
        workload = kind(args.seed, run_dir)
        if args.trace:
            result = traced_run(workload, args.seconds)
        else:
            result = timed_run(workload, args.seconds)
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = result.pop("ops")
    failed = [op for op in ops if op.failures]
    for op in failed:
        for failure in op.failures:
            print(f"FAILED {op.kind}: {failure}", file=sys.stderr)
    summary = ", ".join(
        f"{k}={v:.6g}" for k, v in result.pop("figures").items()
    )
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, "
          f"set-up probes {[round(s, 3) for s in setups]}; {summary}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


def primary(workload, ops):
    """The ops whose latency is the workload's op latency."""
    return [op for op in ops if workload.primary_kind in (None, op.kind)]


def one_round(workload, seconds, tracer=None, counters=None):
    """One round (with its set-up when state is per round), traced when
    ``tracer`` is given."""
    from perfbench import layers

    fresh = workload.fresh_state_per_round
    # Every round starts from the same heap: no garbage left over from
    # set-up or the previous round (it would shift the peak RSS).
    gc.collect()
    if tracer is not None:
        layers.install(tracer, counters)
    try:
        if fresh:
            workload.setup()
        cpu, wall = process_time(), clock()
        ops = workload.run_round(seconds, tracer)
        if tracer is not None:
            counters["proc.cpu_s"] += process_time() - cpu
            counters["proc.wall_s"] += clock() - wall
    finally:
        if tracer is not None:
            tracer.restore()
    if fresh:
        workload.end_round()
        if tracer is not None:
            stats = workload.service_stats
            counters["serve.shed"] += stats["rejected"]
            counters["serve.timeouts"] += stats["timeouts"]
            counters["serve.retries"] += stats["retries"]
    return ops


def timed_run(workload, seconds):
    """Untraced rounds for ``seconds``; the end-to-end metrics."""
    if not workload.fresh_state_per_round:
        workload.setup()
    start, stolen = clock(), stolen_seconds()
    ops = one_round(workload, seconds)
    # Later rounds repeat the first; their peak would add only allocator
    # retention, which grows with the number of rounds a run fits.
    peak = peak_rss_mb()
    while clock() - start < seconds:
        ops += one_round(workload, seconds)
    stolen = stolen_seconds() - stolen
    workload.check()
    workload.close()
    timed = primary(workload, ops)
    rows = sum(op.rows for op in timed)
    if workload.name == "serve-ingest":
        cpu = workload.drive_cpu
        rows_per_s = rows / workload.drive_seconds
    else:
        cpu = sum(op.cpu for op in timed)
        rows_per_s = statistics.median(op.rows / op.seconds for op in timed)
    metrics = {
        "cpu_us_per_row": (1e6 * cpu / rows, "us"),
        "peak_rss_mb": (peak, "MB"),
    }
    found = {
        "rows_per_s": rows_per_s,
        "op_p50_ms": 1e3 * statistics.median(op.seconds for op in timed),
        **workload.figures(ops),
        "steal_s": stolen,
    }
    return {"ops": ops, "metrics": metrics, "figures": found}


def traced_run(workload, seconds):
    """Untraced and traced rounds in turn on the same inputs; the
    per-layer metrics from the traced ones (set-up included)."""
    from perfbench import layers
    from perfbench.spans import Tracer

    tracer = Tracer()
    counters = defaultdict(float)
    untraced, traced = [], []
    if not workload.fresh_state_per_round:
        layers.install(tracer, counters)
        try:
            workload.setup()
        finally:
            tracer.restore()
    start = clock()
    while True:
        untraced += one_round(workload, seconds)
        traced += one_round(workload, seconds, tracer, counters)
        if clock() - start >= seconds:
            break
    workload.check()
    workload.close()
    found = workload.figures(untraced)
    counters["scan.hits"] = found.get("hits", 0)
    counters["scan.new_64s"] = found.get("new_64s", 0)
    counters["serve.generate_tail_ms"] = found.get("op_tail_ms", 0.0)
    counters["ingest.batch_p50_ms"] = found.get("ingest_p50_ms", 0.0)
    counters["feed.late_ms"] = found.get("feed_late_ms", 0.0)
    counters["trace.overhead"] = (
        statistics.median(op.seconds for op in primary(workload, traced))
        / statistics.median(op.seconds for op in primary(workload, untraced))
    )
    metrics = {
        name: (value, layers.describe(name)["unit"])
        for name, value in layers.compute(tracer, counters, workload.name).items()
    }
    return {"ops": untraced + traced, "metrics": metrics, "figures": found}


if __name__ == "__main__":
    sys.exit(main())
