"""Run the benchmark over workloads and seeds; print every metric with its unit and spread.

    python3 perfbench/report.py                       # every workload, seed 1, untraced + traced
    python3 perfbench/report.py --seeds 1-10 --trace 0 --out runs.json

Each run is a separate ``run.py`` process, started one at a time, so peak
memory and timings are per workload.  For every metric the table shows the
median over the seeds, the quartiles, and the spread (q3 - q1) / median.
The exit code is 1 when any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("se_paper", "matern_large", "cli_pipeline")
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", help="write the per-metric summary as JSON here")
    args = parser.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    all_ok = True
    report = {}
    for workload in args.workloads.split(","):
        for trace in traces:
            runs = []
            for seed in parse_seeds(args.seeds):
                meta, result = run_once(workload, seed, args.seconds, trace)
                runs.append((meta, result))
                ok = result["correct"] and result["failed"] == 0
                all_ok &= ok
                print(f"{workload} trace={trace} seed={seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            metrics = {}
            for name, entry in runs[0][1]["metrics"].items():
                stats = summarize([r["metrics"][name]["value"] for _, r in runs])
                metrics[name] = {"unit": entry["unit"], **stats}
                print(f"  {name:30s} {stats['median']:14.6g} {entry['unit']:6s} "
                      f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.3f}")
            report.setdefault(workload, {})[f"trace{trace}"] = {
                "meta": runs[0][0],
                "seeds": [m["seed"] for m, _ in runs],
                "attempted": sum(r["attempted"] for _, r in runs),
                "failed": sum(r["failed"] for _, r in runs),
                "metrics": metrics,
            }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("all outputs correct" if all_ok else "SOME OUTPUTS INCORRECT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
