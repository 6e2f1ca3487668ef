"""Outside-in layer trace: spans around calls into each taulap module's public functions.

The program carries no tracing of its own. In a traced pass the worker
replaces the functions named in ``TARGETS`` with wrappers, in their module
and in every taulap module that imported them by name, so calls between
modules are recorded too. Spans stay in memory and are handed back once, at
the end of the pass. A layer is a module; its self time is the time inside
its spans minus the time inside their child spans. Ring arithmetic
(``MomentPoly``/``ZLaurent`` operators) is too fine-grained to wrap, so it
counts as the self time of the layer that calls it; only rendering is a
``ring`` span.

Every name in ``TARGETS`` must still exist: a renamed or merged function
would otherwise drop out of its metric and read as a speed-up, so run.py
fails a traced run that cannot wrap one. ``MAY_BE_MISSING`` names the
exceptions.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time

LAYERS = ("cli", "bell", "laplacian", "ring", "boundary", "recursion", "virasoro", "spectral")

# (module, attribute or Class.method, span name); the layer is the span name's prefix.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("bell", "reciprocal_coefficient", "bell.coeff"),
    ("bell", "resolvent_coefficient", "bell.coeff"),
    ("bell", "resolvent_coefficient_t", "bell.coeff"),
    ("laplacian", "apply_laplacian_rho", "laplacian.step"),
    ("laplacian", "apply_laplacian_t", "laplacian.step"),
    ("laplacian", "StablePartition.z", "laplacian.z"),
    ("laplacian", "StablePartition.f", "laplacian.extract"),
    ("ring", "render_terms", "ring.render"),
    ("ring", "render_str", "ring.render"),
    ("ring", "render_z", "ring.render"),
    ("boundary", "create", "boundary.create"),
    ("boundary", "correlator", "boundary.correlator"),
    ("boundary", "evaluate_correlator", "boundary.eval"),
    ("recursion", "one_point", "recursion.one_point"),
    ("recursion", "one_point_residual", "recursion.residual"),
    ("recursion", "dse_residual", "recursion.residual"),
    ("recursion", "dse_certify", "recursion.certify"),
    ("virasoro", "stable_series", "virasoro.series"),
    ("virasoro", "constraint_satisfied", "virasoro.constraints"),
    ("spectral", "SpectralModel.from_json", "spectral.parse"),
    ("spectral", "solve", "spectral.solve"),
    ("spectral", "SpectralSolution.moments", "spectral.moments"),
)

# Targets whose deletion is planned; their metrics then read 0, which is the
# intended "no change".
MAY_BE_MISSING = ("recursion.dse_certify",)

# Per-layer metrics in the order BENCHMARK.json lists them; trace.overhead_s is
# filled in by run.py from the span count and ``wrapper_cost``.
METRICS = (
    "bell.coeff_s", "bell.coeff_count",
    "laplacian.chain_s", "laplacian.step_last_s", "laplacian.u_terms", "laplacian.extract_s",
    "ring.render_s",
    "boundary.create_s", "boundary.create_terms", "boundary.eval_exact_s", "boundary.eval_float_s",
    "recursion.one_point_s", "recursion.residual_s", "recursion.certify_s",
    "virasoro.series_s", "virasoro.constraints_s",
    "spectral.parse_s", "spectral.solve_s", "spectral.moments_s", "spectral.rejected",
    "trace.overhead_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)

# Metrics that combine over a workload's parts by taking the largest, not the sum.
LAST_OF_CHAIN = ("laplacian.step_last_s", "laplacian.u_terms")


def _terms(obj) -> int:
    terms = getattr(obj, "terms", None)
    if terms is None:
        terms = getattr(getattr(obj, "num", None), "terms", None)
    return len(terms) if terms is not None else 0


class Tracer:
    """Records spans as ``[name, start, end, parent, attrs]``; one tracer per pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _annotate(name, span[4], fn, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; targets the program no longer has are listed in ``missing``."""
        modules = {name: importlib.import_module(f"taulap.{name}") for name in LAYERS}
        for module_name, attr, span_name in TARGETS:
            owner = modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(path[-1]) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, path[-1], classmethod(self.wrap(span_name, raw.__func__)))
                continue
            wrapped = self.wrap(span_name, raw)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if name == "taulap" or name.startswith("taulap."):
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)

    def export(self, count: int) -> list[list]:
        """The first ``count`` spans as ``[name, start, end, parent, run_id]``."""
        return [[s[0], s[1], s[2], s[3], self.run_id] for s in self.spans[:count]]


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Median extra seconds a traced call costs over a plain one, measured on a no-op.

    The annotations some spans add are not included, so span count times this
    cost is a lower estimate of what tracing adds to a pass.
    """
    def noop(arg):
        return arg

    tracer = Tracer("calibration")
    wrapped = tracer.wrap("calibration", noop)
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        middle = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        samples.append((time.perf_counter() - 2 * middle + start) / calls)
    return statistics.median(samples)


def _annotate(name: str, attrs: dict, fn, args: tuple, result) -> None:
    if name in ("laplacian.step", "boundary.create"):
        attrs["terms"] = _terms(result)
    elif name == "laplacian.z":
        attrs["g"] = args[1]
        attrs["terms"] = _terms(result)
    elif name == "bell.coeff":
        attrs["key"] = f"{fn.__name__}{args!r}"
    elif name == "boundary.eval":
        attrs["float"] = isinstance(args[1][0][0], float)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all of ``METRICS`` but the overhead)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    selfs = [(s[2] - s[1]) - child_time[i] for i, s in enumerate(spans)]

    def self_of(*names: str, where=None) -> float:
        return sum(t for s, t in zip(spans, selfs)
                   if s[0] in names and (where is None or where(s[4])))

    out = {metric: 0.0 for metric in METRICS if metric != "trace.overhead_s"}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs)
                                     if s[0].split(".")[0] == layer)
    out["bell.coeff_s"] = self_of("bell.coeff")
    out["bell.coeff_count"] = len({s[4]["key"] for s in spans
                                   if s[0] == "bell.coeff" and "key" in s[4]})
    out["laplacian.chain_s"] = self_of("laplacian.step", "laplacian.z")
    steps = [(s, t) for s, t in zip(spans, selfs) if s[0] == "laplacian.step"]
    if steps:
        out["laplacian.step_last_s"] = max(steps, key=lambda st: st[0][2])[1]
    chain = [s[4] for s in spans if s[0] == "laplacian.z" and "g" in s[4]]
    if chain:
        out["laplacian.u_terms"] = max(chain, key=lambda a: a["g"])["terms"]
    out["laplacian.extract_s"] = self_of("laplacian.extract")
    out["ring.render_s"] = self_of("ring.render")
    out["boundary.create_s"] = self_of("boundary.create")
    out["boundary.create_terms"] = sum(s[4].get("terms", 0) for s in spans
                                       if s[0] == "boundary.create")
    out["boundary.eval_exact_s"] = self_of("boundary.eval", where=lambda a: not a.get("float"))
    out["boundary.eval_float_s"] = self_of("boundary.eval", where=lambda a: bool(a.get("float")))
    out["recursion.one_point_s"] = self_of("recursion.one_point")
    out["recursion.residual_s"] = self_of("recursion.residual")
    out["recursion.certify_s"] = self_of("recursion.certify")
    out["virasoro.series_s"] = self_of("virasoro.series")
    out["virasoro.constraints_s"] = self_of("virasoro.constraints")
    out["spectral.parse_s"] = self_of("spectral.parse")
    out["spectral.solve_s"] = self_of("spectral.solve")
    out["spectral.moments_s"] = self_of("spectral.moments")
    out["spectral.rejected"] = sum(1 for s in spans if s[0] == "spectral.solve" and "error" in s[4])
    return out
