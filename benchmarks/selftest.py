"""Self-test of the benchmark's output gate.

    python3 benchmarks/selftest.py

Runs ``fg-table`` with one ``F_g`` coefficient corrupted and
``spectral-batch`` with one solved shift moved, each for a single round, and
requires that the gate counts a failed operation and the run reports
``correct: false``. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def caught(workload: str) -> bool:
    out = os.path.join(ROOT, ".bench_out", f"selftest-{workload}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--corrupt", "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"{workload}: no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
        return False
    result = json.loads(lines[-1])
    ratio = result["failed"] / result["attempted"]
    ok = proc.returncode == 1 and not result["correct"] and result["failed"] > 0
    print(f"{workload}: failed_ratio {ratio:.6g} ({result['failed']}/{result['attempted']}), "
          f"correct={result['correct']}, exit {proc.returncode}: {'caught' if ok else 'MISSED'}")
    for line in lines[:-1]:
        if "FAILED" in line:
            print("  " + line.lstrip("# "))
    return ok


def main() -> int:
    results = [caught(w) for w in ("fg-table", "spectral-batch")]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
