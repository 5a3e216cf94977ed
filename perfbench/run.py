"""ecclab benchmark: one workload in one process, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload tree-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run makes one untimed warm-up round, then repeats
rounds of the workload for ``--seconds`` seconds and prints the end-to-end
metrics; set-up time and peak memory are measured in fresh child processes
of this script. With ``--trace 1`` it runs a fixed number of rounds both
untraced and traced and prints the per-layer metrics; the spans go to
``.perfbench/`` in the repository root.
Every output is checked. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import tracing
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Rounds in a traced run. Fixed, so that per-layer counts for a seed repeat
# exactly and compare between commits.
TRACE_ROUNDS = 4


@dataclass
class Outcome:
    label: str
    seconds: float
    cases: int
    failed: int
    suite: Optional[str] = None
    suite_wall_s: float = 0.0


def set_up(setup, seed: int, workdir: Path):
    """Import ecclab from ``src/`` and build the workload's inputs; returns
    the workload's ``round_calls``."""
    ecclab = importlib.import_module("ecclab")
    importlib.import_module("ecclab.cli")
    if not Path(ecclab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ecclab imported from {ecclab.__file__}, not from {SRC}")
    return setup(seed, workdir)


def cold_setup(args, workdir: Path, peak: bool = False) -> tuple[float, Optional[float]]:
    """Start this script as a child that sets up the workload and reports.
    Returns the seconds from starting the child to the end of its set-up
    and, with ``peak``, the child's peak RSS in MiB after it has made one
    round of the workload's calls, unchecked: so the peak is ecclab's and
    its inputs', not the checker's. A child's peak RSS also counts its
    parent's at the time the child starts, so the peak child must start
    before this process sets up.

    Each child writes its inputs into a new ``workdir``, removed after the
    child has ended: on one 2-vCPU virtual machine with ext4, creating
    graph-queries' 500 files in a new directory took 13 to 46 ms, while
    rewriting existing ones took 18 to 250 ms."""
    command = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--child", "peak" if peak else "setup", "--workdir", str(workdir)]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        seconds = perf_counter() - start
        rest = child.stdout.read()
    shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return seconds, float(rest.split()[-1]) if peak else None


def child_main(args, setup) -> int:
    round_calls = set_up(setup, args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.child == "peak":
        for call in round_calls(0):
            call.run()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def execute(call: Call, tracer: Optional[tracing.Tracer]) -> Outcome:
    """Time one call; check its result outside the timed region."""
    if tracer is not None:
        tracer.enabled = True
        span = tracer.begin(0)
    start = perf_counter()
    try:
        result = call.run()
        raised = False
    except Exception:
        raised = True
        traceback.print_exc()
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.finish(span)
        tracer.enabled = False
    outcome = Outcome(call.label, seconds, call.cases, call.cases, call.suite)
    if raised:
        return outcome
    try:
        outcome.failed = min(call.check(result), call.cases)
    except Exception:
        traceback.print_exc()
    if outcome.failed:
        print(f"check failed: {call.label}", file=sys.stderr)
    if call.suite is not None:
        outcome.suite_wall_s = result.wall_time
    if tracer is not None and call.output_bytes is not None:
        tracer.counts["serialize.bytes"] += call.output_bytes(result)
    return outcome


def run_round(calls: list[Call], tracer: Optional[tracing.Tracer] = None) -> list[Outcome]:
    return [execute(call, tracer) for call in calls]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def end_to_end(rounds: list[list[Outcome]], setup_s: float, peak_mib: float) -> dict:
    """Throughput and latency over every timed call of the run. On a shared
    machine a call's time moves by a third from one repetition to the next
    and drifts for a minute or more, so the figures weigh every repetition
    in full: from run to run this is far steadier than each call's best
    time (see README.md)."""
    outcomes = [o for rnd in rounds for o in rnd]
    cases_per_s = sum(o.cases for o in outcomes) / sum(o.seconds for o in outcomes)
    latencies = sorted(o.seconds * 1000 for o in outcomes)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cases_per_s": {"value": cases_per_s, "unit": "1/s"},
        "query_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
        "query_p99_ms": {"value": percentile(latencies, 99), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MB"},
    }


def per_layer(untraced: list[list[Outcome]], traced: list[list[Outcome]],
              tracer: tracing.Tracer) -> dict:
    values = tracer.layer_metrics()
    for suite in tracing.SUITES:
        runs = [o for rnd in untraced for o in rnd if o.suite == suite]
        values[f"suites.{suite}.wall_s"] = sum(o.suite_wall_s for o in runs)
        values[f"suites.{suite}.cases"] = sum(o.cases for o in runs)
    wall = [sum(o.seconds for rnd in rounds for o in rnd) for rounds in (untraced, traced)]
    values["trace.overhead_s"] = wall[1] - wall[0]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.metric_units().items()}


def git_commit() -> Optional[str]:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the run itself, to start the set-up children.
    parser.add_argument("--child", choices=("setup", "peak"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecclab" / "__init__.py").is_file():
        print(f"error: no ecclab sources under {SRC}", file=sys.stderr)
        return 2
    # The load is fixed by the benchmark: every suite runs with jobs=1, and
    # the CLI must not read a jobs setting from the environment.
    os.environ.pop("ECCLAB_JOBS", None)
    sys.path.insert(0, str(SRC))
    setup = WORKLOADS[args.workload]
    if args.child:
        return child_main(args, setup)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if not args.trace:
            _, peak_mib = cold_setup(args, workdir / "peak", peak=True)
        round_calls = set_up(setup, args.seed, workdir / "main")
        ecclab = sys.modules["ecclab"]

        # A process's first round runs cold, up to a fifth slower than the
        # rounds after it; it is checked but not timed.
        warm_up = run_round(round_calls(0))
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = [], []
            for r in range(TRACE_ROUNDS):
                # Each round runs untraced and traced, in alternating order,
                # so that drift in machine speed cancels out of the overhead.
                for with_trace in (False, True) if r % 2 == 0 else (True, False):
                    if with_trace:
                        tracer.install()
                        traced.append(run_round(round_calls(r), tracer))
                        tracer.uninstall()
                        tracer.end_round()
                    else:
                        untraced.append(run_round(round_calls(r)))
            rounds = [warm_up] + untraced + traced
            metrics = per_layer(untraced, traced, tracer)
        else:
            timed, setup_times = [], []
            start = perf_counter()
            while not timed or perf_counter() - start < args.seconds:
                timed.append(run_round(round_calls(len(timed) + 1)))
                # A cold set-up after every round, so that the median spans
                # the machine's states during the whole run.
                setup_times.append(cold_setup(args, workdir / f"setup-{len(timed)}")[0])
            rounds = [warm_up] + timed
            metrics = end_to_end(timed, statistics.median(setup_times), peak_mib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.cases for rnd in rounds for o in rnd)
    failed = sum(o.failed for rnd in rounds for o in rnd)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "ecclab": ecclab.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(),
        "jobs": 1,
        "loop": "closed, one caller",
        "rounds": len(rounds),
        "calls_per_round": len(rounds[0]),
        "latency_samples": None if args.trace else len(timed) * len(rounds[0]),
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans, info)
        info["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
