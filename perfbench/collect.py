"""Run the benchmark over several seeds and summarise every metric.

Run from the repository root, for example:

    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1-2 --out perfbench/baseline.json

Runs ``perfbench/run.py`` for every workload, one run at a time, with
``run_seconds`` from ``BENCHMARK.json``: untraced for each of ``--seeds`` and
traced for each of ``--trace-seeds``.  For each workload and metric it prints
the median, the quartiles and the spread (interquartile range over median,
from ``statistics.quantiles(values, n=4)``); end-to-end spreads are compared
with a third of the metric's bound.  ``--out`` writes every run and summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, provenance)."""
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}")
    prefix = "# provenance "
    provenance = next(json.loads(ln[len(prefix):]) for ln in lines if ln.startswith(prefix))
    return json.loads(lines[-1]), provenance


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="untraced runs: LO-HI or a comma list")
    parser.add_argument("--trace-seeds", default="", help="traced runs: LO-HI or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, help="write runs and summaries as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report: dict = {"settings": {"seconds": seconds, "seeds": args.seeds, "trace_seeds": args.trace_seeds}}
    wide = 0
    for trace, key, seeds in ((0, "end_to_end", args.seeds), (1, "per_layer", args.trace_seeds)):
        for workload in args.workloads.split(",") if seed_list(seeds) else []:
            runs = []
            for seed in seed_list(seeds):
                result, provenance = run_once(spec, workload, seed, seconds, trace)
                report.setdefault("provenance", provenance)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": metrics})
                shown = {k: v for k, v in metrics.items() if trace == 0 or k.endswith(".self_s")}
                print(f"{workload} seed {seed}: correct {result['correct']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), flush=True)
            summary = {name: summarise([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
            report.setdefault(key, {})[workload] = {"summary": summary, "runs": runs}
            for name, s in summary.items():
                bound = bounds.get(name) if trace == 0 else None  # per-layer: no bound
                verdict = ""
                if name == "setup_s":
                    verdict = f"  bound {bound}  (spread not gated)"
                elif bound is not None:
                    steady = s["spread"] < bound / 3
                    wide += not steady
                    verdict = f"  bound {bound}  {'ok' if steady else 'WIDE'}"
                print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                      f"q3 {s['q3']:.6g} spread {s['spread']:.4f}{verdict}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
