"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/collect.py --seeds 1-10 --seconds 30 --out FILE.json
    python3 benchmarks/collect.py --workloads moduli_mc --seeds 1,2,3 --trace

Run from the repository root.  Runs are sequential, one process at a time.
For every workload and metric the summary holds each seed's value, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(quartile distance over median); it also records each seed's output digest,
the Python version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bilip_roundtrip", "moduli_mc", "workspace_read")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split("sha256:")[1] for ln in lines
                             if "sha256:" in ln), None)
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((ln.split(":", 1)[1].strip() for ln in f
                         if ln.startswith("model name")), platform.machine())
    except OSError:
        return platform.machine()


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary = {"python": platform.python_version(),
               "nproc": os.cpu_count(), "cpu": cpu_model(),
               "seconds": args.seconds,
               "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}",
                  flush=True)
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "metrics": {name: dict(unit=names[name]["unit"], **summarize(
                [r["metrics"][name]["value"] for r in runs]))
                for name in names},
        }
        for name, m in summary["workloads"][workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<42} median {m['median']:>12.6g} {m['unit']:<6}"
                  f" spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
