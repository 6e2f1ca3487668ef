"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --workloads fg-table correlators --seeds 1-10 --seconds 30
    python3 benchmarks/sweep.py --seeds 1-10 --seconds 30 --out benchmarks/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median, next to the bound
from BENCHMARK.json. With ``--traced`` it also makes one traced run per
workload (first seed) and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-300:]}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {
        "seeds": args.seeds, "seconds": args.seconds,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "commit": run.git_commit(), "source_sha256": run.source_digest()},
        "workloads": {},
    }
    worst_ok = True
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry: dict = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, failed {entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            }
            steady = spread < bound / 3
            worst_ok &= steady or name == "setup_s"
            print(f"  {name:<12} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.3f} (bound {bound}) {'' if steady else 'WIDE'}")
        if args.traced:
            traced = _run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
