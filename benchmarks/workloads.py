"""The four benchmark workloads: seeded inputs, one cold pass each, and the output gate.

A workload is split into parts. One part is what one fresh interpreter runs,
the way one ``taulap`` command line does: every ``lru_cache`` and the shared
``stable_partition`` chains start cold. ``run.py`` reads only the workload
names and parts from here; taulap is imported only inside the child
interpreters that ``worker.py`` runs.

Shapes are fixed per workload; the seed only draws values (boundary points,
spectra). ``fg-table`` and ``validation`` take no values, so their inputs are
the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction

WORKLOADS = ("fg-table", "correlators", "validation", "spectral-batch")

# --- fg-table ---------------------------------------------------------------
FG_GMAX = 8
FG_ARGV = ["fg", "--gmax", str(FG_GMAX), "--format", "json"]
# sha256 of the stdout of ``taulap fg --gmax 8 --format json``, frozen at the
# commit that introduced this benchmark.
FG_DIGEST = "a94ee7e3914e1cb18fd201af3ac4431cac1184b47bb909d7d3529bc26044a781"

# --- correlators ------------------------------------------------------------
# (g, B) -> sizes of the boundary groups evaluated exactly.
CORRELATOR_SHAPES = {
    (0, 10): (1,) * 10,
    (1, 7): (2, 2, 1, 1, 1, 1, 1),
    (2, 5): (2, 2, 1, 1, 1),
}
# Frozen term counts and sha256 of ``render_z(G, "rho")`` of the built correlators.
CORRELATOR_TERMS = {(0, 10): 19448, (1, 7): 3432, (2, 5): 1287}
CORRELATOR_RENDER = {
    (0, 10): "518b8909368a52c10a17b09cbdda9c4b8301591beeac2645082f2cd833eabb8e",
    (1, 7): "955b3d9e0dfacdd047c23f765a1a50ebd3fdd4ca12431c769b8b9bc73621092b",
    (2, 5): "e72144a242916165aaef9f43cfcde7c8370dd609602ac9467e7e72d0c0c442df",
}

# --- validation -------------------------------------------------------------
VALIDATION_ARGV = (
    ["check", "--suite", "virasoro", "--gmax", "7"],
    ["check", "--suite", "oracle", "--gmax", "7"],
    ["check", "--suite", "dse1", "--gmax", "6"],
    ["check", "--suite", "dseB"],
)
VALIDATION_LINES = (
    [f"constraint {n}: ok" for n in range(18)],
    [f"one-point genus {g}: ok" for g in range(1, 8)],
    [f"one-boundary loop equation genus {g}: ok" for g in range(1, 7)],
    [f"loop equation ({g}, {b}): ok" for g, b in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]],
)

# --- spectral-batch ---------------------------------------------------------
SPECTRAL_MODELS = 64
SPECTRAL_MAX_LEVELS = 2000
# One coupling range for every model. Its top is set so that, as in the
# traffic the benchmark was specified for, about 29% of the models have no
# root (30% over seeds 1-3).
SPECTRAL_COUPLING = (0.05, 0.42)
SPECTRAL_LMAX = 8
# (genus, group sizes) of the float correlator evaluated per model, by model index mod 3.
SPECTRAL_EVALS = ((0, (1, 1, 1)), (1, (1, 1)), (2, (2,)))
EDGE_TOL = 1e-10
# ``solve`` accepts a small step with |residual| <= sqrt(tol); tol is 1e-12.
RESIDUAL_TOL = 1e-6
ROOT_SCAN_POINTS = 40


def parts(workload: str) -> list[str]:
    """Names of the cold processes one round of ``workload`` is made of."""
    if workload == "correlators":
        return [f"{g},{b}" for g, b in CORRELATOR_SHAPES]
    return ["all"]


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}|{part}|{seed}")


def make_inputs(workload: str, seed: int, part: str) -> dict:
    """The generated inputs of one part; the same seed gives the same inputs."""
    rng = _rng(workload, seed, part)
    if workload == "correlators":
        g, b = (int(x) for x in part.split(","))
        groups = [_distinct_points(rng, size) for size in CORRELATOR_SHAPES[(g, b)]]
        perm = list(range(b))
        while perm == sorted(perm):
            rng.shuffle(perm)
        return {"g": g, "b": b, "groups": groups, "perm": perm}
    if workload == "spectral-batch":
        # Drawn one at a time as the pass asks for them, so no more than one
        # model's input is held in memory.
        return {"models": (_spectral_model(rng, i) for i in range(SPECTRAL_MODELS))}
    return {}


def _distinct_points(rng: random.Random, size: int) -> list[Fraction]:
    """Distinct points p/q in lowest terms with 7-bit p and 5-bit q.

    Exact evaluation cost grows with the bit size of the points, so the
    seed draws values from a narrow band of heights and every seed does about
    the same work.
    """
    points: list[Fraction] = []
    while len(points) < size:
        p, q = rng.randint(100, 127), rng.randint(24, 31)
        if math.gcd(p, q) == 1 and Fraction(p, q) not in points:
            points.append(Fraction(p, q))
    return points


def _stratum(rng: random.Random, index: int, stride: int) -> float:
    """A uniform draw from stratum ``index * stride mod SPECTRAL_MODELS`` of [0, 1).

    Each model index owns one stratum per range, so every pass covers the whole
    range evenly and every seed does about the same work; the seed draws the
    position inside the stratum.
    """
    return ((index * stride) % SPECTRAL_MODELS + rng.random()) / SPECTRAL_MODELS


def _spectral_model(rng: random.Random, index: int) -> dict:
    """One seeded model with an explicit spectrum.

    Dimensions cycle through 0, 2, 4, 6. Level counts are uniform over
    1..SPECTRAL_MAX_LEVELS and couplings uniform over SPECTRAL_COUPLING, both
    stratified (see ``_stratum``). Energies, multiplicities and the
    evaluation points are plain seeded draws. The volume is the total
    multiplicity, so the level weights add up to ``8 lambda^2``.
    """
    dimension = (0, 2, 4, 6)[index % 4]
    levels = 1 + int(SPECTRAL_MAX_LEVELS * _stratum(rng, index, 37))
    low, high = SPECTRAL_COUPLING
    coupling = round(low + (high - low) * _stratum(rng, index, 61), 6)
    spectrum = [{"E": round(rng.uniform(0.2, 3.0), 6), "mult": rng.randint(1, 3)}
                for _ in range(levels)]
    text = {"dimension": dimension, "lambda": coupling,
            "volume": sum(level["mult"] for level in spectrum), "eigenvalues": spectrum}
    genus, sizes = SPECTRAL_EVALS[index % len(SPECTRAL_EVALS)]
    points = sorted(rng.sample(range(150, 400), sum(sizes)))
    flat = [p / 100 for p in points]
    groups, start = [], 0
    for size in sizes:
        groups.append(flat[start:start + size])
        start += size
    return {"json": json.dumps(text), "genus": genus, "groups": groups}


# ---------------------------------------------------------------------------
# one cold pass


class Pass:
    """Timed operations of one part and the outputs the gate checks."""

    def __init__(self) -> None:
        self.ops: list[list] = []  # [name, seconds, ok]
        self.outputs: dict = {}

    def timed(self, name: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.ops.append([name, time.perf_counter() - start, True])
        return result


def _cli(argv: list[str]) -> tuple[int, str]:
    from taulap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_pass(workload: str, inputs: dict, corrupt: bool = False) -> Pass:
    """Run one part's program calls; only the calls themselves are timed.

    With ``corrupt`` one output is damaged the way a defect would damage it,
    before the gate sees it (the gate's self-test).
    """
    from taulap import boundary

    if corrupt and workload not in ("fg-table", "spectral-batch"):
        raise ValueError(f"no corruption defined for {workload}")
    out = Pass()
    if workload == "fg-table":
        rc, text = out.timed("fg", _cli, FG_ARGV)
        if corrupt:
            # 1/1152 is <tau_4>_2; make it wrong.
            text = text.replace('"1/1152"', '"1/1153"', 1)
        out.outputs["fg"] = rc, text
    elif workload == "validation":
        for argv in VALIDATION_ARGV:
            out.outputs[argv[2]] = out.timed(argv[2], _cli, list(argv))
    elif workload == "correlators":
        g, b = inputs["g"], inputs["b"]
        out.outputs["G"] = out.timed(f"build {g},{b}", boundary.correlator, g, b)
        out.outputs["value"] = out.timed(
            f"eval {g},{b}", boundary.evaluate_correlator, g, inputs["groups"])
    else:
        # Each model is checked as soon as it is done and then dropped, so the
        # pass holds one model at a time. This gate calls no traced function.
        failed = out.outputs["failed"] = []
        for i, spec in enumerate(inputs["models"]):
            result, error = out.timed(f"model {i}", _spectral_pipeline, spec)
            if corrupt and error is None:
                result, corrupt = _moved_shift(result), False
            message = _check_model(result, error)
            if message:
                failed.append((i, f"model {i}: {message}"))
    return out


def _spectral_pipeline(spec: dict):
    from taulap.spectral import SpectralError, SpectralModel, solve

    try:
        model = SpectralModel.from_json(spec["json"])
    except SpectralError as exc:
        return None, exc
    try:
        sol = solve(model)
        sol.moments(SPECTRAL_LMAX)
        sol.wave_renorm
        sol.mass_shift
        value = sol.evaluate_correlator(spec["genus"], spec["groups"])
    except SpectralError as exc:
        return (model, None, None), exc
    return (model, sol, value), None


def _moved_shift(result: tuple) -> tuple:
    from taulap.spectral import SpectralSolution

    model, sol, value = result
    return model, SpectralSolution(model, sol.shift + 0.01), value


# ---------------------------------------------------------------------------
# output gate


def check_pass(workload: str, inputs: dict, done: Pass, ref: str | None) -> list[str]:
    """Mark each failed operation in ``done.ops``; return one message per failure.

    ``ref`` is the exact value an earlier pass of the same correlator part
    produced and verified; a later pass only has to reproduce it.
    """
    failures: list[tuple[int, str]] = []
    if workload == "fg-table":
        failures += [(0, m) for m in _check_fg(*done.outputs["fg"])]
    elif workload == "validation":
        for i, (argv, lines) in enumerate(zip(VALIDATION_ARGV, VALIDATION_LINES)):
            rc, text = done.outputs[argv[2]]
            if rc != 0 or text != "\n".join(lines + ["all checks passed"]) + "\n":
                failures.append((i, f"{argv[2]}: exit {rc}, unexpected report"))
    elif workload == "correlators":
        failures += [(0, m) for m in _check_built(inputs["g"], inputs["b"], done.outputs["G"])]
        failures += [(1, m) for m in _check_value(inputs, done.outputs["value"], ref)]
    else:
        failures += done.outputs["failed"]
    for index, _ in failures:
        done.ops[index][2] = False
    return [message for _, message in failures]


def _check_fg(rc: int, text: str) -> list[str]:
    out = []
    if rc != 0:
        out.append(f"fg exited {rc}")
    if hashlib.sha256(text.encode()).hexdigest() != FG_DIGEST:
        out.append("fg stdout differs from the frozen digest")
    try:
        tables = json.loads(text)
    except json.JSONDecodeError:
        return out + ["fg stdout is not JSON"]
    for g in range(2, FG_GMAX + 1):
        # <tau_{3g-2}>_g is the coefficient of the lone variable t_{3g-2}.
        index = 3 * g - 2
        found = [v for k, v in tables.get(f"F{g}", {}).items()
                 if k.split("/")[0] == f"t{index}"]
        expected = Fraction(1, 24 ** g * math.factorial(g))
        if len(found) != 1 or Fraction(found[0]) != expected:
            out.append(f"<tau_{index}>_{g} is {found}, expected {expected}")
    return out


def _check_built(g: int, b: int, obj) -> list[str]:
    from taulap.boundary import number_operator_z
    from taulap.ring import render_z

    out = []
    if len(obj.terms) != CORRELATOR_TERMS[(g, b)]:
        out.append(f"G({g},{b}) has {len(obj.terms)} terms, expected {CORRELATOR_TERMS[(g, b)]}")
    if hashlib.sha256(render_z(obj, "rho").encode()).hexdigest() != CORRELATOR_RENDER[(g, b)]:
        out.append(f"G({g},{b}) renders differently from the frozen digest")
    if number_operator_z(obj) != obj.scale(2 * g + b - 2):
        out.append(f"G({g},{b}) is not an eigenvector of the number operator")
    return out


def _check_value(inputs: dict, value: Fraction, ref: str | None) -> list[str]:
    from taulap.boundary import evaluate_correlator

    g, b = inputs["g"], inputs["b"]
    if ref is not None:
        return [] if str(value) == ref else [f"G({g},{b}) value changed between passes"]
    permuted = [inputs["groups"][i] for i in inputs["perm"]]
    if evaluate_correlator(g, permuted) != value:
        return [f"G({g},{b}) value changes when its boundary groups are permuted"]
    return []


def _implicit(model, c: float) -> float:
    """The implicit shift equation, transcribed here independently of ``taulap.spectral``."""
    z0 = math.sqrt(1 + c)
    half = model.dimension // 2
    lhs = (1 - z0) * ((1 + z0) if model.dimension == 6 else 1.0)
    total = 0.0
    for energy, mult in model.levels:
        weight = 8 * model.coupling ** 2 * mult / model.volume
        y = math.sqrt(4 * energy * energy + c)
        total += weight / ((z0 + y) ** half * y)
    return lhs - total / 2


def _root_exists(model) -> bool:
    """True when the transcribed equation changes sign between the wall and 0."""
    wall = max(-1.0, -min(4 * e * e for e, _ in model.levels))
    # Distances from the wall as a share of |wall|: geometric near it, linear beyond.
    steps = ROOT_SCAN_POINTS - 1
    shares = {10.0 ** (-12 + 12 * k / steps) for k in range(steps + 1)}
    shares |= {k / steps for k in range(1, steps + 1)}
    last = None
    for share in sorted(shares):
        value = _implicit(model, wall * (1 - share))
        if value == 0 or (last is not None and (value > 0) != (last > 0)):
            return True
        last = value
    return False


def _check_model(result, error) -> str | None:
    if result is None:
        return f"input rejected: {error}"
    model, sol, value = result
    if error is not None:
        return f"{type(error).__name__} although a root exists" if _root_exists(model) else None
    if not math.isfinite(value):
        return "correlator value is not finite"
    residual = _implicit(model, sol.shift)
    if not abs(residual) <= RESIDUAL_TOL:
        return f"shift {sol.shift!r} leaves residual {residual:.3e}"
    if model.dimension >= 2 and not abs(sol.boundary_value() - 1) <= EDGE_TOL:
        return f"boundary value {sol.boundary_value()!r} is not 1"
    if model.dimension >= 4 and not abs(sol.boundary_slope() - 0.5) <= EDGE_TOL:
        return f"boundary slope {sol.boundary_slope()!r} is not 1/2"
    return None
