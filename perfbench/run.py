"""Benchmark of the ``toricfano`` command line, run in-process from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's CLI pass is repeated in a closed loop (one
client) for about S seconds, at least three times, and the end-to-end metrics
are reported. With ``--trace 1`` one CLI pass is followed by a library replay
of the same pass, untraced and then traced with spans, and by a profiled
replay that counts ``exactlin`` calls; the per-layer metrics are reported.
Every CLI output is checked against the benchmark's own oracle. The process
pins itself to one CPU, and end-to-end times are wall times scaled to a
reference host speed that a background thread samples during the passes
(see :mod:`speed`). The last stdout line is the JSON result; the lines before
it repeat the metrics with their units, sample counts, the unscaled medians,
and the interpreter, CPU count, default ``--jobs`` and pinned CPU. Results,
and spans of a traced run, are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MIN_PASSES = 3
SETUP_RUNS = 16
SETUP_PROBES = 20
SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import toricfano; toricfano.shipped_database(); t = time.perf_counter() - t; "
    f"sys.path.insert(0, sys.argv[2]); import speed; print(t, speed.probe_mean({SETUP_PROBES}))"
)

# per-layer span metrics: span name -> quantities reported for it
SPAN_METRICS = {
    "fan.validate_fan": ("s", "calls", "walls"),
    "fan.primitive_relation": ("s", "calls"),
    "fan.build_fan_from_rays": ("s", "calls", "subsets"),
    "fan.minimal_nonfaces": ("s", "subsets"),
    "fan.build_fan": ("s", "calls"),
    "atlas.parse": ("s", "bytes"),
    "atlas.shipped_database": ("s",),
    "atlas.record_fan": ("s", "calls"),
    "atlas.validate_record": ("s", "calls", "rejected"),
    "chern.classify": ("s", "calls", "surfaces"),
    "chern.ch2_dot_surface": ("s", "calls"),
    "cli.build_parser": ("s",),
}
UNITS = {"s": "s", "bytes": "B"}


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on one CPU.

    With the CLI's default thread pool spread over two CPUs of a shared
    host, every hand-over of the interpreter lock waits for the other CPU to
    be scheduled: a ``classify --all`` pass took about 1.3 times its CPU
    time, and its scaled time varied by up to 1.7 times between runs. On one
    CPU the threads still take turns under the lock, but a pass takes its CPU
    time, and the speed sampler measures the CPU the program runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_package():
    """Import ``toricfano`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "toricfano" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'toricfano'}")
    sys.path.insert(0, str(SRC))
    import toricfano
    import toricfano.cli

    if Path(toricfano.__file__).resolve().parent != SRC / "toricfano":
        raise SystemExit(f"perfbench: imported toricfano from {toricfano.__file__}")
    return toricfano


def library(package):
    """What a workload replay calls: the modules plus argument parsing."""
    return SimpleNamespace(
        atlas=package.atlas,
        chern=package.chern,
        cli=package.cli,
        parse_args=lambda argv: package.cli.build_parser().parse_args(argv),
    )


def invoke(cli, argv):
    """Run ``cli.main(argv)`` with captured output: (exit code, stdout, stderr, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # counted as a failed call, the loop goes on
            rc = f"raised {exc!r}"
        end = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), (start, end)


def cli_pass(cli, workload):
    """One pass of the workload's calls: (call intervals, attempted, failed)."""
    intervals, attempted, failed = [], 0, 0
    for call in workload.calls:
        rc, out, err, interval = invoke(cli, call.argv)
        intervals.append(interval)
        attempted += call.items
        failed += call.check(rc, out, err)
    return intervals, attempted, failed


def p99(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def setup_seconds(runs: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds to import the package and load the bundled
    atlas in fresh interpreters, each scaled by probes run right after it."""
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        wall, probe = map(float, done.stdout.split())
        times.append((wall, wall * speed.REFERENCE_S / probe))
    return times


def end_to_end(package, workload, seconds):
    # half the set-up samples before the passes and half after, since the
    # speed of a shared host drifts within a run
    setup = setup_seconds(SETUP_RUNS // 2)
    passes, attempted, failed = [], 0, 0
    busy = []
    with speed.Sampler() as sampler:
        # stop at the pass boundary nearest to ``seconds`` of measured time
        while len(passes) < MIN_PASSES or sum(busy) + statistics.median(busy) / 2 < seconds:
            intervals, att, fail = cli_pass(package.cli, workload)
            passes.append(intervals)
            busy.append(sum(end - start for start, end in intervals))
            attempted += att
            failed += fail
    setup += setup_seconds(SETUP_RUNS - len(setup))
    scaled = [[(end - start) * sampler.scale(start, end) for start, end in p] for p in passes]
    latencies = [t for p in scaled for t in p]
    pass_times = [sum(p) for p in scaled]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "items_per_s": (attempted / sum(pass_times), "1/s"),
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_p99": (statistics.median(p99(p) for p in scaled) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": SETUP_RUNS, "pass_s": len(passes)}
    samples.update(dict.fromkeys(("latency_ms_p50", "latency_ms_p99"), len(latencies)))
    wall = {
        "setup_s": statistics.median(w for w, _ in setup),
        "pass_s": statistics.median(busy),
        "speed_scale": sum(pass_times) / sum(busy),
        "probes": len(sampler.probes),
    }
    return metrics, samples, attempted, failed, wall


def per_layer(package, workload):
    intervals, attempted, failed = cli_pass(package.cli, workload)
    cli_busy = sum(end - start for start, end in intervals)
    lib = library(package)

    start = time.perf_counter()
    workload.replay(lib)
    plain = time.perf_counter() - start

    load_db = package.atlas.shipped_database
    tracer = tracing.Tracer()
    with tracer.installed(package):
        traced_lib = library(package)
        traced_lib.parse_args = tracer.span("cli.build_parser", lib.parse_args)
        load_db.cache_clear()
        traced_lib.atlas.shipped_database()
        first = len(tracer.spans)
        start = time.perf_counter()
        workload.replay(traced_lib)
        traced = time.perf_counter() - start

    def setup_and_pass():
        load_db.cache_clear()
        load_db()
        workload.replay(lib)

    calls = tracing.count_calls(package.exactlin.__file__, setup_and_pass)

    totals = tracer.totals()
    metrics = {
        "exactlin.solve.calls": (calls["solve"], "count"),
        "exactlin.det4.calls": (calls["det4"], "count"),
    }
    for name, quantities in SPAN_METRICS.items():
        for q in quantities:
            metrics[f"{name}.{q}"] = (totals[name][q], UNITS.get(q, "count"))
    for name, found in (("fan.build_fan_from_rays", "cones"), ("fan.minimal_nonfaces", "nonfaces")):
        metrics[f"{name}.hit_ratio"] = (totals[name][found] / totals[name]["subsets"], "ratio")
    metrics["cli.self_s"] = (cli_busy - tracer.top_level_seconds(first), "s")
    metrics["trace.items_per_s"] = (attempted / traced, "1/s")
    metrics["trace.overhead_ratio"] = (1 - plain / traced, "ratio")
    return metrics, {}, attempted, failed, {"spans": tracer.as_json()}


def environment(package, cpu: int) -> dict:
    return {
        "pinned_cpu": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "jobs_default": package.cli.build_parser().parse_args(["list"]).jobs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    package = load_package()
    WORK.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, WORK)
    invoke(package.cli, ["list"])  # loads the bundled atlas once, as setup_s measures separately
    measured = per_layer(package, workload) if args.trace else end_to_end(package, workload, args.seconds)
    metrics, samples, attempted, failed, details = measured

    env = environment(package, cpu)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        extra = f" (n={samples[name]})" if name in samples else ""
        print(f"# {name} {value:.6g} {unit}{extra}")
    if not args.trace:
        print("# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in details.items()))
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env, **result, **details}
    out = WORK / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
