"""One cold pass of one benchmark part, in a fresh interpreter started by run.py.

Usage: ``python3 benchmarks/worker.py '<job as JSON>'``. The job names the
workload, part, seed, run id, whether to trace, and ``t0``: the parent's
``time.monotonic()`` just before it started this process, so that set-up
time runs from process start to the end of ``import taulap.cli``: the
interpreter start and the program's import, not the benchmark's own input
generation. The worker imports taulap from the checkout's ``src`` only and
prints one JSON report on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    import taulap.cli  # noqa: F401  (the import a `taulap` command makes)

    report: dict = {"part": job["part"], "setup_s": time.monotonic() - job["t0"]}
    if not os.path.abspath(taulap.__file__).startswith(os.path.join(SRC, "taulap") + os.sep):
        print(f"taulap was imported from {taulap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if job.get("setup_only"):
        print(json.dumps(report))
        return 0
    import workloads

    workload, part = job["workload"], job["part"]
    inputs = workloads.make_inputs(workload, job["seed"], part)
    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.Tracer(job["run_id"])
        tracer.install()
    done = workloads.run_pass(workload, inputs, job.get("corrupt", False))
    # Time in the program's calls only; spectral-batch draws and checks its
    # models between them.
    report["wall_s"] = sum(seconds for _, seconds, _ in done.ops)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The gate below calls taulap too; its spans are not part of the pass.
    spans = list(tracer.spans) if tracer is not None else []
    report["failures"] = workloads.check_pass(workload, inputs, done, job.get("ref"))
    report["ops"] = done.ops
    if "value" in done.outputs:
        report["ref"] = str(done.outputs["value"])
    if tracer is not None:
        report["layers"] = layertrace.layer_metrics(spans)
        report["spans"] = tracer.export(len(spans))
        report["overhead_s"] = len(spans) * layertrace.wrapper_cost()
        report["untraced"] = tracer.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
