"""Benchmark for the qhpp toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload deep_build --seed 1 --seconds 20 --trace 0

One process, one thread.  The workload's items (see ``workloads.py``) are
generated from ``--seed``; passes over them repeat until ``--seconds`` of
wall time have gone by, and every output is checked against ``oracle.py``.
All times are reference seconds (see ``speed.py``): wall time rescaled by a
calibration loop, so that the phases in which a shared machine runs slower
do not read as changes in the program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes, then one traced pass, and prints the per-layer metrics.
Commented ``#`` lines give provenance, per-case sizes and timings; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "qhpp"
SETUP_SPAWNS = 7

# Runs in a fresh interpreter: times `import qhpp.cli` plus building the CLI
# parser, bracketed by calibration loops that give the machine's speed.
SETUP_CHILD = r"""
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import calibrate
def cal():
    t = time.perf_counter()
    calibrate()
    return time.perf_counter() - t
for _ in range(3):
    calibrate()
before = sorted(cal() for _ in range(3))[1]
t0 = time.perf_counter()
import qhpp.cli
qhpp.cli.build_parser()
t1 = time.perf_counter()
after = sorted(cal() for _ in range(3))[1]
print(t1 - t0, before, after)
"""


def measure_setup(reference_s: float) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (reference, raw) seconds.
    The first spawn only writes bytecode caches and is not counted."""
    ref, raw = [], []
    for spawn in range(SETUP_SPAWNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        seconds, before, after = map(float, done.stdout.split())
        if spawn:
            ref.append(seconds * reference_s / ((before + after) / 2))
            raw.append(seconds)
    return statistics.median(ref), statistics.median(raw)


def provenance(qhpp) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        sha = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "qhpp_version": qhpp.__version__,
    }


def max_rss_kib() -> int:
    """Peak resident set of this process so far, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(items, clock) -> tuple[array, list]:
    """Run every item once: raw start and end times, interleaved, and the
    outputs."""
    marks, outputs = array("d"), []
    for item in items:
        start = clock.now()
        try:
            output = item.run()
        except Exception as exc:  # a failed operation, counted by check_pass
            output = exc
        marks.extend((start, clock.now()))
        outputs.append(output)
    return marks, outputs


def ref_times(marks: array, clock) -> list[float]:
    return [clock.ref_seconds(marks[i], marks[i + 1]) for i in range(0, len(marks), 2)]


def check_pass(items, outputs) -> tuple[int, int, int]:
    """(attempted, failed, work) of one pass."""
    attempted = failed = work = 0
    for item, output in zip(items, outputs):
        attempted += item.attempted
        if isinstance(output, Exception):
            item.problems.append(repr(output))
            failed += item.attempted
            continue
        try:
            bad, done = item.check(output)
        except Exception as exc:  # malformed output
            item.problems.append(f"unreadable output: {exc!r}")
            bad, done = item.attempted, 0
        failed += min(bad, item.attempted)
        work += done
    return attempted, failed, work


def slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); 0 without spread."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    var = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var if var else 0.0


def case_lines(items, latency) -> list[dict]:
    """Size parameters beside each case's median reference latency, one
    line per label: item count, summed latency and each size's range."""
    groups: dict = {}
    for item, t in zip(items, latency):
        group = groups.setdefault(item.label, {"case": item.label, "count": 0, "ref_s": 0.0})
        group["count"] += 1
        group["ref_s"] += t
        for key, value in item.size.items():
            for v in value if isinstance(value, list) else [value]:
                low, high = group.get(key, [v, v])
                group[key] = [min(low, v), max(high, v)]
    return list(groups.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: qhpp source not found under {SOURCE.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import qhpp
    from oracle import Oracle
    from speed import REFERENCE_S, ReferenceClock
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print("# provenance " + json.dumps(provenance(qhpp)))
    setup = None if args.trace else measure_setup(REFERENCE_S)
    workload = WORKLOADS[args.workload](args.seed, Oracle())
    items = workload.items
    attempted = failed = 0
    passes = []
    with ReferenceClock() as clock:
        rss_before = max_rss_kib()
        begin = clock.now()
        while not passes or clock.now() - begin < args.seconds:
            marks, outputs = run_pass(items, clock)
            if not passes:  # the program's working set; later passes reuse it
                rss_growth = max_rss_kib() - rss_before
            tried, bad, work = check_pass(items, outputs)
            attempted, failed = attempted + tried, failed + bad
            passes.append(marks)
        if args.trace:
            tracer = Tracer()
            tracer.install(clock.now)
            try:
                traced_marks, outputs = run_pass(items, clock)
            finally:
                tracer.uninstall()
            tried, bad, _ = check_pass(items, outputs)
            attempted, failed = attempted + tried, failed + bad

    ref = [ref_times(marks, clock) for marks in passes]
    wall_s = statistics.median(sum(p) for p in ref)
    raw_wall = statistics.median(sum(m[1::2]) - sum(m[::2]) for m in passes)
    latency = [statistics.median(times) for times in zip(*ref)]
    for case in case_lines(items, latency):
        print("# case " + json.dumps(case))
    for item in items:
        for problem in item.problems[:3]:
            print(f"mismatch in {item.label}: {problem}", file=sys.stderr)
    work_unit = workload.work_unit
    info = {
        "passes": (len(passes), "count"),
        "raw_wall_s": (raw_wall, "s"),
        "rss_before_passes_mib": (rss_before / 1024, "MiB"),
        "speed": (clock.speed(), "ratio"),
        "failed_ratio": (failed / attempted, "ratio"),
        f"{work_unit}_per_pass": (work, "count"),
        f"{work_unit}_per_s": (work / wall_s, "1/s"),
    }
    blowups = sum(it.size.get("blowups", 0) for it in items)
    if blowups and work_unit != "blowups":
        info["blowups_per_s"] = (blowups / wall_s, "1/s")
    if args.trace:
        single = [(it.size["blowups"], t) for it, t in zip(items, latency) if it.attempted == 1 and "blowups" in it.size]
        deep_slope = slope(*zip(*single)) if single else 0.0
        traced_wall = sum(ref_times(traced_marks, clock))
        metrics = tracer.metrics(clock.ref_seconds)
        metrics["families.scaling_exponent"] = (deep_slope, "1")
        metrics["trace.overhead_ratio"] = (traced_wall / wall_s, "ratio")
    else:
        info["raw_setup_s"] = (setup[1], "s")
        metrics = {
            "setup_s": (setup[0], "s"),
            "wall_s": (wall_s, "s"),
            "work_per_s": (work / wall_s, "1/s"),
            "peak_rss_mib": (rss_growth / 1024, "MiB"),
        }
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
