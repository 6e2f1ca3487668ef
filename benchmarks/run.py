"""Run the taulap benchmark from the root of a checkout.

    python3 benchmarks/run.py --workload fg-table --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller runs the workload closed-loop: it starts one part at a time, each
in a fresh interpreter (``worker.py``), waits for its report, and starts the
next while the next is expected to finish within ``--seconds``; every part
runs at least once. Set-up (process start to the end of ``import
taulap.cli``) is also sampled by processes that stop right there. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of one
traced round of the workload's parts, and the run fails when a traced
function is missing from the program. The full result (environment stamp,
seed, samples, spans) is written once, at the end, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

# Set-up-only processes started before each round of a workload's parts, so
# the set-up samples spread over the whole run.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150


def _stamp() -> dict:
    return {"loadavg": list(os.getloadavg()), "time": time.time()}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "taulap")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Starts worker processes for one workload and keeps their reports."""

    def __init__(self, workload: str, seed: int, corrupt: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.corrupt = corrupt
        self.reports: list[dict] = []
        self.errors: list[str] = []
        self.refs: dict[str, str] = {}

    def spawn(self, part: str, *, trace: bool = False, setup_only: bool = False) -> dict | None:
        job = {
            "workload": self.workload, "seed": self.seed, "part": part,
            "trace": trace, "setup_only": setup_only, "corrupt": self.corrupt,
            "run_id": f"{self.workload}/{self.seed}/{len(self.reports)}",
            "ref": self.refs.get(part),
        }
        job["t0"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-E", "-s", os.path.join(HERE, "worker.py"), json.dumps(job)],
                cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{part}: worker exceeded {WORKER_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.errors.append(f"{part}: worker exited {proc.returncode}: {tail[0]}")
            return None
        report = json.loads(lines[-1])
        report["trace"] = trace
        if not setup_only:
            self.reports.append(report)
            if not report["failures"] and "ref" in report:
                self.refs.setdefault(part, report["ref"])
        return report


def run_workload(workload: str, seed: int, seconds: float, trace: bool, corrupt: bool) -> dict:
    parts = workloads.parts(workload)
    runner = Runner(workload, seed, corrupt)
    started = time.monotonic()
    stamp = _stamp()
    setups: list[float] = []
    if trace:
        for part in parts:
            report = runner.spawn(part, trace=True)
            if report is not None:
                setups.append(report["setup_s"])
    else:
        deadline = started + seconds
        last: dict[str, float] = {}
        i = 0
        while True:
            part = parts[i % len(parts)]
            if i >= len(parts) and time.monotonic() + last[part] > deadline:
                break
            begin = time.monotonic()
            if part == parts[0]:
                for _ in range(SETUP_PROBES):
                    probe = runner.spawn(part, setup_only=True)
                    if probe is not None:
                        setups.append(probe["setup_s"])
            report = runner.spawn(part)
            last[part] = time.monotonic() - begin
            if report is not None:
                setups.append(report["setup_s"])
            i += 1

    attempted = sum(len(r["ops"]) for r in runner.reports) + len(runner.errors)
    failed = sum(1 for r in runner.reports for op in r["ops"] if not op[2]) + len(runner.errors)
    if not runner.reports or not setups:
        raise SystemExit(f"{workload}: no part completed: {runner.errors}")
    if trace:
        metrics = _layer_metrics(runner.reports)
    else:
        metrics = _end_to_end(runner.reports, parts, setups)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "messages": runner.errors + [m for r in runner.reports for m in r["failures"]],
        "untraced": sorted({t for r in runner.reports for t in r.get("untraced", [])}),
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "source_sha256": source_digest(),
            "start": stamp, "end": _stamp(), "elapsed_s": time.monotonic() - started,
        },
        "samples": [{k: v for k, v in r.items() if k != "spans"} for r in runner.reports],
        "setup_samples": setups,
        "spans": [s for r in runner.reports for s in r.get("spans", [])],
    }


def _end_to_end(reports: list[dict], parts: list[str], setups: list[float]) -> dict:
    by_part = {part: [r for r in reports if r["part"] == part] for part in parts}
    latencies: dict[str, list[float]] = {}
    for report in reports:
        for name, seconds, _ in report["ops"]:
            latencies.setdefault(name, []).append(seconds)
    per_op = sorted(statistics.median(v) for v in latencies.values())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(r["wall_s"] for r in rs) for rs in by_part.values() if rs),
        "peak_rss_mb": max(statistics.median(r["rss_mb"] for r in rs) for rs in by_part.values() if rs),
        "op_ms_p99": 1000 * _percentile(per_op, 99),
    }


def _layer_metrics(traced: list[dict]) -> dict:
    out: dict[str, float] = {}
    for report in traced:
        for name, value in report["layers"].items():
            combine = max if name in layertrace.LAST_OF_CHAIN else (lambda a, b: a + b)
            out[name] = combine(out[name], value) if name in out else value
    out["trace.overhead_s"] = sum(r["overhead_s"] for r in traced)
    return out


def _declared(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _result_line(result: dict, units: dict[str, str], prefix: str = "") -> dict:
    missing = set(units) - set(result["metrics"])
    if missing:
        raise SystemExit(f"BENCHMARK.json declares metrics the harness does not compute: {sorted(missing)}")
    return {f"{prefix}{name}": {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()}


def _print_human(result: dict, units: dict[str, str]) -> None:
    env = result["env"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"nproc={env['nproc']} python={env['python']} commit={env['commit'][:12]} "
          f"load={env['start']['loadavg'][0]:.2f}->{env['end']['loadavg'][0]:.2f}")
    for name, unit in units.items():
        print(f"#   {name:<26} {result['metrics'][name]:.6g} {unit}")
    print(f"#   {'failed_ratio':<26} {result['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for message in result["messages"][:10]:
        print(f"#   FAILED: {message}")
    for target in result["untraced"]:
        allowed = target in layertrace.MAY_BE_MISSING
        print(f"#   UNTRACED: {target} is not in the program"
              + (" (allowed; its metrics read 0)" if allowed else ""))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before the gate (used by selftest.py)")
    parser.add_argument("--out", help="where to write the full result (default: .bench_out/)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "taulap", "__init__.py")):
        print(f"error: no taulap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = _declared(trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    line: dict = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace, args.corrupt)
        line.update(_result_line(result, units, f"{name}." if len(names) > 1 else ""))
        _print_human(result, units)
        results.append(result)

    out = args.out or os.path.join(
        ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results if len(results) > 1 else results[0], handle, indent=1)

    unexpected = [t for r in results for t in r["untraced"] if t not in layertrace.MAY_BE_MISSING]
    if unexpected:
        print(f"error: cannot trace {', '.join(unexpected)}; update TARGETS in "
              "benchmarks/layertrace.py", file=sys.stderr)
        return 3
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": line,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
