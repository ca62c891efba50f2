"""rigkit benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload fit --seed 1 --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  rigkit is imported from ``src/`` of the same checkout, with
``RIGKIT_THREADS=1``, in this single process.

``--trace 0`` repeats the workload's set-up at least SETUP_REPEATS times and
for at least SETUP_SECONDS, runs one warm-up task, then runs its task until
``--seconds`` have passed, and reports the end-to-end
metrics: median set-up seconds, median task seconds and peak RSS.
``--trace 1`` traces one set-up, runs untraced tasks for half of
``--seconds`` and traced tasks for the other half, and reports the
per-layer metrics of :mod:`layers` plus the tracing overhead.

Human-readable lines (machine record, the workload's named results) go to
stdout first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record is
also written to ``bench/out/``.
"""

from __future__ import annotations

import os

# Must precede the first numpy import: rigkit maps it onto the BLAS
# thread-count variables when it is imported.
os.environ["RIGKIT_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "RIGKIT_THREADS": os.environ.get("RIGKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each workload's name for its task time, and what one task is.
TASK_NAMES = {
    "fit": ("fit_s", "one fit at the fixed Adam budget"),
    "synth": ("pipeline_s", "one CLI pipeline pass over both meshes"),
    "gradcheck": ("gradcheck_s", "one 20-instance grad-check battery"),
    "tokens": ("batch_s", "round trips of a batch of 70 trees (1-70 joints)"),
}


class Tally:
    """Task times (raw and scaled) and check outcomes over a run."""

    def __init__(self, clock):
        self.clock = clock
        self.raw: list[float] = []
        self.times: list[float] = []  # scaled to the reference speed
        self.attempted = 0
        self.failed = 0

    def run(self, workload, k: int) -> None:
        verify, raw, scaled = self.clock.time(lambda: workload.task(k))
        self.raw.append(raw)
        self.times.append(scaled)
        attempted, failed = verify()
        self.attempted += attempted
        self.failed += failed


def run_until(workload, tally: Tally, deadline: float, k: int) -> int:
    """Run tasks k, k+1, ... until ``deadline`` (at least one); next k."""
    while True:
        tally.run(workload, k)
        k += 1
        if time.perf_counter() >= deadline:
            return k


def warm_up(workload, clock) -> Tally:
    """Run task 0, which also pays first-touch page faults and first-call
    costs; it is checked but kept out of the medians."""
    warm = Tally(clock)
    warm.run(workload, 0)
    return warm


def measure(workload, seconds: float) -> dict:
    from speed import ScaledClock

    clock = ScaledClock()
    setups_raw, setups = [], []
    started = time.perf_counter()
    # Short set-ups repeat until SETUP_SECONDS have passed, so that their
    # median rests on more than three samples.
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
        _, raw, scaled = clock.time(workload.setup)
        setups_raw.append(raw)
        setups.append(scaled)
    warm = warm_up(workload, clock)
    tally = Tally(clock)
    run_until(workload, tally, time.perf_counter() + seconds, 1)
    return {
        "setup_times_raw": setups_raw,
        "setup_times": setups,
        "warmup_time_raw": warm.raw[0],
        "task_times_raw": tally.raw,
        "task_times": tally.times,
        "attempted": warm.attempted + tally.attempted,
        "failed": warm.failed + tally.failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "task_s": {"value": statistics.median(tally.times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        },
    }


def measure_traced(workload, seconds: float, spans_path: Path) -> dict:
    from layers import GROUPS, HOOKS, LAYER_METRICS
    from spans import Tracer
    from speed import ScaledClock

    tracer = Tracer(GROUPS, HOOKS)
    clock = ScaledClock(on_probe=tracer.exclude)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    started = time.perf_counter()
    warm = warm_up(workload, clock)
    untraced, traced = Tally(clock), Tally(clock)
    # Untraced tasks for the first half of the time, traced for the second;
    # the difference of their medians is the tracing overhead.
    k = run_until(workload, untraced, started + seconds / 2, 1)
    tracer.phase = "task"
    tracer.install()
    try:
        run_until(workload, traced, started + seconds, k)
    finally:
        tracer.uninstall()
    stats, counts = tracer.per_task(len(traced.times))
    metrics = {
        name: {"value": float(fn(stats, counts)), "unit": unit}
        for name, unit, _, fn in LAYER_METRICS
    }
    attempted = warm.attempted + untraced.attempted + traced.attempted
    failed = warm.failed + untraced.failed + traced.failed
    base = statistics.median(untraced.times)
    overhead = statistics.median(traced.times) - base
    metrics.update(run_level_metrics(workload, attempted, failed, overhead, base))
    tracer.dump(spans_path)
    return {
        "untraced_task_times": untraced.times,
        "task_times_raw": traced.raw,
        "task_times": traced.times,
        "attempted": attempted,
        "failed": failed,
        "spans": tracer.spans_total,
        "metrics": metrics,
    }


# Per-layer metrics that come from the run rather than from spans.
RUN_LEVEL_METRICS = [
    ("failed_frac", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("animate.optimize.rot_err_deg", "deg", "lower"),
    ("animate.optimize.reproj_px", "px", "lower"),
]


def run_level_metrics(workload, attempted, failed, overhead, untraced) -> dict:
    values = {
        "failed_frac": failed / max(attempted, 1),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / untraced,
        "animate.optimize.rot_err_deg": workload.extras.get("fit_rot_err_deg", 0.0),
        "animate.optimize.reproj_px": workload.extras.get("fit_reproj_px", 0.0),
    }
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in RUN_LEVEL_METRICS
    }


def report_lines(name: str, record: dict, extras: dict) -> list[str]:
    times = record["task_times"]
    task_name, task_what = TASK_NAMES[name]
    lines = [f"workload {name}: {len(times)} task(s), {task_what} each"]
    named = {}
    if "warmup_time_raw" in record:
        named["setup_s"] = (record["metrics"]["setup_s"]["value"], "s")
        named[task_name] = (statistics.median(times), "s")
        if name == "tokens":
            named["trees_per_s"] = (70.0 / statistics.median(times), "1/s")
        named["peak_rss_mb"] = (record["metrics"]["peak_rss_mb"]["value"], "MB")
        named["warmup_s (raw)"] = (record["warmup_time_raw"], "s")
        named[task_name + " (raw)"] = (statistics.median(record["task_times_raw"]), "s")
    if "fit_reproj_px" in extras:
        named["fit_reproj_px"] = (extras["fit_reproj_px"], "px")
        named["fit_rot_err_deg"] = (extras["fit_rot_err_deg"], "deg")
    named["failed_frac"] = (record["failed"] / max(record["attempted"], 1), "ratio")
    for key, (value, unit) in named.items():
        lines.append(f"  {key:<18} {value:.6g} {unit}")
    lines.append(
        f"  task times (s): min {min(times):.4f}  median"
        f" {statistics.median(times):.4f}  max {max(times):.4f}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "synth", "gradcheck", "tokens"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "rigkit" / "__init__.py").is_file():
        print(f"rigkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import rigkit  # noqa: F401  first, so RIGKIT_THREADS reaches BLAS before numpy loads
    from workloads import WORKLOADS

    machine = machine_record()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            record = measure_traced(workload, args.seconds, OUT / f"{stem}-spans.npz")
        else:
            record = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, extras=workload.extras)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("machine " + json.dumps(machine))
    for line in report_lines(args.workload, record, workload.extras):
        print(line)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
