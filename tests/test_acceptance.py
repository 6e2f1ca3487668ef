"""End-to-end acceptance gate.

Each test pins one externally meaningful guarantee of the package: frozen
exact tables, closed-form families, dual-construction agreement, stored
low-order objects, loop equations, operator algebra, constraint sweeps,
structural invariants, and the numeric spectral pipeline — with the stated
tolerances and wall-clock budgets.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial, sqrt

import mpmath
import pytest

from oracles import annihilate, bell, evaluate_full, multipass_create
from taulap.boundary import (
    correlator,
    create,
    generic_moments,
    lambda_exponent,
    number_operator,
    number_operator_z,
)
from taulap.laplacian import free_energy, stable_partition, tau_intersection
from taulap.recursion import dse_residual, one_point, one_point_residual
from taulap.ring import MomentPoly, ZLaurent, ZRational, render_terms
from taulap.spectral import SpectralModel, solve

F = Fraction

GENUS2_TABLE = {
    "t2^3/T0^5": "7/240",
    "t2*t3/T0^4": "29/5760",
    "t4/T0^3": "1/1152",
}

GENUS3_TABLE = {
    "t2^6/T0^10": "1225/144",
    "t2^4*t3/T0^9": "193/288",
    "t2^2*t3^2/T0^8": "205/3456",
    "t2^3*t4/T0^8": "53/1152",
    "t3^3/T0^7": "583/96768",
    "t2*t3*t4/T0^7": "1121/241920",
    "t2^2*t5/T0^7": "17/5760",
    "t4^2/T0^6": "607/1451520",
    "t3*t5/T0^6": "503/1451520",
    "t2*t6/T0^6": "77/414720",
    "t7/T0^5": "1/82944",
}

GENUS4_TABLE = {
    "t2^9/T0^15": "1816871/48",
    "t2^7*t3/T0^14": "3326267/1728",
    "t2^5*t3^2/T0^13": "728465/6912",
    "t2^3*t3^3/T0^12": "43201/6912",
    "t2*t3^4/T0^11": "134233/331776",
    "t2^6*t4/T0^13": "70735/864",
    "t2^4*t3*t4/T0^12": "83851/17280",
    "t2^2*t3^2*t4/T0^11": "26017/82944",
    "t3^3*t4/T0^10": "185251/8294400",
    "t2^3*t4^2/T0^11": "5609/23040",
    "t2*t3*t4^2/T0^10": "177/10240",
    "t4^3/T0^9": "175/165888",
    "t2^5*t5/T0^12": "21329/6912",
    "t2^3*t3*t5/T0^11": "13783/69120",
    "t2*t3^2*t5/T0^10": "1837/129600",
    "t2^2*t4*t5/T0^10": "7597/691200",
    "t3*t4*t5/T0^9": "719/829440",
    "t2*t5^2/T0^9": "533/967680",
    "t2^4*t6/T0^11": "2471/23040",
    "t2^2*t3*t6/T0^10": "7897/1036800",
    "t3^2*t6/T0^9": "1997/3317760",
    "t2*t4*t6/T0^9": "1081/2322432",
    "t5*t6/T0^8": "487/18579456",
    "t2^3*t7/T0^10": "4907/1382400",
    "t2*t3*t7/T0^9": "16243/58060800",
    "t4*t7/T0^8": "1781/92897280",
    "t2^2*t8/T0^9": "53/460800",
    "t3*t8/T0^8": "947/92897280",
    "t2*t9/T0^8": "149/39813120",
    "t10/T0^7": "1/7962624",
}

SPECTRAL_MODELS = [
    SpectralModel(0, 0.3, 2.0, ((0.7, 1), (1.2, 2))),
    SpectralModel(2, 0.25, 2.0, ((0.9, 2), (1.6, 1))),
    SpectralModel(4, 0.3, 2.5, ((0.6, 1), (1.1, 2), (1.7, 1))),
    SpectralModel(6, 0.2, 3.0, ((0.8, 1), (1.3, 3))),
]


# ---------------------------------------------------------------------------
# 1. low-genus generating functions: exact frozen tables, under one second


def test_low_genus_tables_exact_and_fast():
    script = (
        "import json, time\n"
        "from taulap.laplacian import free_energy\n"
        "from taulap.ring import render_terms\n"
        "t0 = time.perf_counter()\n"
        "tables = {g: dict(render_terms(free_energy(g, 't'), 't', normalized=True))\n"
        "          for g in (2, 3, 4)}\n"
        "elapsed = time.perf_counter() - t0\n"
        "print(json.dumps({'elapsed': elapsed, 'tables': tables}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["elapsed"] < 1.0
    assert payload["tables"]["2"] == GENUS2_TABLE
    assert payload["tables"]["3"] == GENUS3_TABLE
    assert payload["tables"]["4"] == GENUS4_TABLE


# ---------------------------------------------------------------------------
# 2. closed-form one-variable family through genus 10, CLI within budget


def test_single_variable_family_through_genus_ten():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "taulap.cli", "fg", "--gmax", "10", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed <= 120.0
    data = json.loads(proc.stdout)
    for g in range(2, 11):
        key = f"t{3 * g - 2}/T0^{2 * g - 1}"
        expected = F(1, 24**g * factorial(g))
        assert data[f"F{g}"][key] == f"{expected.numerator}/{expected.denominator}"
    # same closed form through the library entry point
    for g in range(2, 7):
        assert tau_intersection([3 * g - 2]) == F(1, 24**g * factorial(g))


# ---------------------------------------------------------------------------
# 3. one-boundary correlators: two independent constructions agree


def test_one_boundary_dual_construction_agrees():
    start = time.perf_counter()
    for g in range(1, 6):
        assert one_point(g).terms == correlator(g, 1).terms, f"genus {g}"
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 4. stored low-order objects and coupling bookkeeping


def test_stored_objects_and_coupling_powers():
    assert correlator(1, 1) == ZLaurent(
        1, {(-3,): MomentPoly({(-2, 1): 2}), (-5,): MomentPoly({(-1,): -2})}
    )
    assert correlator(0, 3) == ZLaurent(3, {(-3, -3, -3): MomentPoly({(-1,): -32})})
    for (g, b), power in {(0, 2): 2, (0, 3): 5, (1, 1): 4, (2, 1): 8, (1, 2): 6}.items():
        assert lambda_exponent(g, b) == power


# ---------------------------------------------------------------------------
# 5. loop equations: symbolic one-boundary, certified multi-boundary


def test_loop_equations_hold():
    for g in range(1, 5):
        assert not one_point_residual(g).terms, f"one-boundary residual genus {g}"
    for g, b in [(0, 3), (0, 4), (1, 2), (1, 3), (2, 2)]:
        assert dse_residual(g, b).is_zero, f"multi-boundary residual ({g}, {b})"


# ---------------------------------------------------------------------------
# 6. creation/annihilation operator algebra


def test_operator_algebra():
    # creation into two new slots commutes (up to relabeling the new slots)
    for base in (correlator(1, 1), correlator(0, 3)):
        twice = multipass_create(multipass_create(base))
        swap = list(range(base.nvars)) + [base.nvars + 1, base.nvars]
        assert twice == twice.embed(swap, base.nvars + 2)

    # annihilation after creation is the grading operator, through weight 8
    probes = [
        MomentPoly.one(),
        MomentPoly.unit_power(-3),
        MomentPoly.variable(1),
        MomentPoly({(-2, 1, 1): F(3, 7), (0, 0, 2): 1}),
        MomentPoly({(1, 0, 0, 1): F(-2, 5)}),
        MomentPoly({(-8, 8): 1}),
        MomentPoly({(0, 0, 4): F(5, 3)}),
        MomentPoly({(-3, 2, 0, 2): 1}),
    ]
    assert max(max(p.weights(), default=0) for p in probes) == 8
    for p in probes:
        assert annihilate(create(p)) == number_operator(p)

    # stored correlators are grading eigenvectors with eigenvalue 2g + B - 2
    for energy in range(1, 9):
        for g in range(0, (energy + 1) // 2 + 1):
            b = energy + 2 - 2 * g
            if b < 1 or (g, b) == (0, 1):
                continue
            stored = correlator(g, b)
            assert isinstance(stored, ZLaurent)
            assert number_operator_z(stored) == stored.scale(energy), (g, b)

    # removing one boundary scales by 2^(3 - delta_{B,2}) (2g + B - 3)
    for g, b in [(1, 2), (0, 3), (2, 2), (0, 4)]:
        factor = F(2 ** (3 - (1 if b == 2 else 0)) * (2 * g + b - 3))
        lower = correlator(g, b - 1)
        removed = annihilate(correlator(g, b))
        if isinstance(lower, ZRational):
            pts = [F(2), F(5)]
            assert evaluate_full(removed, pts, generic_moments()) == (
                evaluate_full(lower, pts, generic_moments()) * factor
            )
        else:
            assert removed == lower.scale(factor)
    # the grading of F_1 = -log(r0) / 24 is the constant 1/24, times 2^4
    assert annihilate(correlator(1, 1)) == MomentPoly.constant(F(16, 24))
    for g in (2, 3):
        assert annihilate(correlator(g, 1)) == number_operator(
            stable_partition("rho").f(g)
        ).scale(2 ** (4 * g))


# ---------------------------------------------------------------------------
# 7. constraint sweep on the partition series


def test_constraint_sweep():
    from taulap.virasoro import constraint_satisfied, scaling_constraint, stable_series

    series = stable_series(5)
    for n in range(0, 18):
        assert constraint_satisfied(n, series), f"constraint {n}"
    for g in range(2, 7):
        assert scaling_constraint(free_energy(g, "rho")).is_zero, f"grade-zero on F_{g}"
    # index-shift identity of the partial Bell polynomials, full deterministic sweep
    xs = [F(2 * j + 1, j + 2) for j in range(1, 12)]
    for n in range(1, 11):
        for k in range(0, n + 1):
            left = sum(
                (comb(n, j) * xs[j - 1] * bell(n - j, k, xs)
                 for j in range(1, n - k + 1)),
                start=F(0),
            )
            assert left == (k + 1) * bell(n, k + 1, xs), (n, k)


# ---------------------------------------------------------------------------
# 8. structural invariants by genus


def test_structure_by_genus():
    expected_counts = {2: 3, 3: 11, 4: 30, 5: 77, 6: 176}
    for g, count in expected_counts.items():
        poly = free_energy(g, "t")
        assert len(poly.terms) == count
        for key in poly.terms:
            weight = sum(l * e for l, e in enumerate(key))
            assert weight == 3 * g - 3
            e0 = key[0] if key else 0
            assert e0 == -(2 * g - 2) - sum(e for l, e in enumerate(key) if l)
    for g in range(1, 6):
        stored = correlator(g, 1)
        exponents = [e for (e,) in stored.terms]
        assert all(e % 2 == 1 for e in exponents), f"genus {g} parity"
        assert min(exponents) >= -(6 * g + 1), f"genus {g} pole order"
        assert max(exponents) <= -3


# ---------------------------------------------------------------------------
# 9. numeric spectral pipeline


def _reference_implicit(model: SpectralModel, c: float) -> float:
    z0 = sqrt(1 + c)
    lhs = (1 - z0) * ((1 + z0) if model.dimension == 6 else 1.0)
    total = 0.0
    for (energy, _), w in zip(model.levels, model.weights):
        y = sqrt(4 * energy**2 + c)
        total += w / ((z0 + y) ** (model.dimension // 2) * y)
    return lhs - total / 2


def _bisect_shift(model: SpectralModel) -> float:
    wall = max(-1.0, -min(4 * e * e for e, _ in model.levels))
    lo, hi = wall + 1e-9, 0.0
    flo = _reference_implicit(model, lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        fmid = _reference_implicit(model, mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-14:
            break
    return (lo + hi) / 2


def test_spectral_pipeline():
    # exact zero-coupling short circuit
    free = solve(SpectralModel(6, 0.0, 2.0, ((0.8, 1),)))
    assert free.shift == 0.0 and free.moment(0) == 1.0
    assert all(free.moment(l) == 0.0 for l in range(1, 6))

    for model in SPECTRAL_MODELS:
        sol = solve(model)
        # solver against plain bisection
        assert abs(sol.shift - _bisect_shift(model)) < 1e-10

        # edge conditions in four dimensions
        if model.dimension == 4:
            assert abs(sol.boundary_value() - 1.0) < 1e-10
            assert abs(sol.boundary_slope() - 0.5) < 1e-10

        # moments against a 40-digit independent solve
        mpmath.mp.dps = 40
        half = model.dimension // 2

        def phi(c, _model=model, _half=half):
            z0 = mpmath.sqrt(1 + c)
            lhs = (1 - z0) * ((1 + z0) if _model.dimension == 6 else mpmath.mpf(1))
            total = mpmath.mpf(0)
            for (energy, _), w in zip(_model.levels, _model.weights):
                y = mpmath.sqrt(4 * mpmath.mpf(energy) ** 2 + c)
                total += mpmath.mpf(w) / ((z0 + y) ** _half * y)
            return lhs - total / 2

        c_ref = mpmath.findroot(phi, mpmath.mpf(sol.shift))
        z0 = mpmath.sqrt(1 + c_ref)
        if model.dimension == 6:
            inv_sqrt_z = z0 + sum(
                mpmath.mpf(w)
                / ((z0 + mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref)) ** 2
                   * mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref))
                for (e, _), w in zip(model.levels, model.weights)
            ) / 2
        else:
            inv_sqrt_z = mpmath.mpf(1)
        for l in range(0, 6):
            total = sum(
                mpmath.mpf(w)
                / mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref) ** (3 + 2 * l)
                for (e, _), w in zip(model.levels, model.weights)
            )
            ref = (inv_sqrt_z if l == 0 else mpmath.mpf(0)) - total / 2
            assert abs(sol.moment(l) - float(ref)) < 1e-8, (model.dimension, l)
