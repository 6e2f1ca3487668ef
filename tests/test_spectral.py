"""Tests for the numeric spectral pipeline.

Three independent oracles validate the Newton solve:

* plain bisection on an independently transcribed implicit function;
* the analytic first-order shift at small coupling with an O(lambda^4)
  remainder-scaling test;
* a 40-digit mpmath re-solve of the same equation feeding high-precision
  moment values.
"""

import json
import math
from math import sqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulap import boundary, spectral
from taulap.spectral import (
    BranchViolation,
    InvalidModel,
    NoConvergence,
    NoRoot,
    OnCut,
    SpectralModel,
    SpectralSolution,
    _implicit,
    _newton,
    _value,
    solve,
)

MODELS = [
    SpectralModel(0, 0.3, 2.0, ((0.7, 1), (1.2, 2))),
    SpectralModel(2, 0.25, 2.0, ((0.9, 2), (1.6, 1))),
    SpectralModel(4, 0.3, 2.5, ((0.6, 1), (1.1, 2), (1.7, 1))),
    SpectralModel(6, 0.2, 3.0, ((0.8, 1), (1.3, 3))),
]


def reference_implicit(model: SpectralModel, c: float) -> float:
    """Independent transcription of the implicit shift equation."""
    z0 = sqrt(1 + c)
    lhs = (1 - z0) * ((1 + z0) if model.dimension == 6 else 1.0)
    total = 0.0
    for energy, mult in model.levels:
        w = 8 * model.coupling**2 * mult / model.volume
        y = sqrt(4 * energy**2 + c)
        total += w / ((z0 + y) ** (model.dimension // 2) * y)
    return lhs - total / 2


def scan_for_sign_change(model: SpectralModel, points: int = 400) -> bool:
    """True when ``reference_implicit`` reaches zero somewhere between the wall and 0.

    The gaps from the wall shrink geometrically towards it, where the function
    may rise steeply, and are evenly spaced beyond.
    """
    wall = max(-1.0, -min(4 * e * e for e, _ in model.levels))
    gaps = {10.0 ** (-12 + 12 * k / points) for k in range(points + 1)}
    gaps |= {k / points for k in range(1, points)}
    return any(reference_implicit(model, wall * (1 - gap)) >= 0 for gap in gaps)


def bisect_shift(model: SpectralModel, tol: float = 1e-14) -> float:
    wall = max(-1.0, -min(4 * e * e for e, _ in model.levels))
    lo, hi = wall + 1e-9, 0.0
    flo = reference_implicit(model, lo)
    fhi = reference_implicit(model, hi)
    assert flo * fhi <= 0, "oracle bracket must straddle the root"
    for _ in range(200):
        mid = (lo + hi) / 2
        fmid = reference_implicit(model, mid)
        if flo * fmid <= 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo < tol:
            break
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# model construction and parsing


def test_model_validation():
    with pytest.raises(InvalidModel):
        SpectralModel(3, 0.1, 1.0, ((1.0, 1),))
    with pytest.raises(InvalidModel):
        SpectralModel(2, -0.1, 1.0, ((1.0, 1),))
    with pytest.raises(InvalidModel):
        SpectralModel(2, 0.1, 0.0, ((1.0, 1),))
    with pytest.raises(InvalidModel):
        SpectralModel(2, 0.1, 1.0, ())
    with pytest.raises(InvalidModel):
        SpectralModel(2, 0.1, 1.0, ((0.0, 1),))
    with pytest.raises(InvalidModel):
        SpectralModel(2, 0.1, 1.0, ((1.0, 0),))


def test_from_dict_explicit_eigenvalues():
    model = SpectralModel.from_dict(
        {
            "dimension": 4,
            "lambda": 0.2,
            "volume": 2.0,
            "eigenvalues": [{"E": 0.5, "mult": 1}, {"E": 1.25, "mult": 3}],
        }
    )
    assert model.levels == ((0.5, 1), (1.25, 3))
    assert model.weights == (2 * 0.4**2 / 2.0, 2 * 0.4**2 * 3 / 2.0)


def test_from_dict_linear_generator():
    model = SpectralModel.from_dict(
        {
            "dimension": 4,
            "lambda": 0.1,
            "volume": 4.0,
            "generator": {"e": "linear", "cutoff_N": 3, "mu2": 1.5},
        }
    )
    spacing = 1 / (1.5 * 4.0 ** (2 / 4))
    for m, (energy, mult) in enumerate(model.levels):
        assert energy == pytest.approx(0.75 + m * spacing, abs=0, rel=1e-15)
        assert mult == m + 1  # binom(m+1, 1)
    assert len(model.levels) == 4


def test_generator_multiplicities_by_dimension():
    base = {"lambda": 0.1, "volume": 1.0, "generator": {"e": "linear", "cutoff_N": 4, "mu2": 1.0}}
    m2 = SpectralModel.from_dict({"dimension": 2, **base})
    assert [mult for _, mult in m2.levels] == [1, 1, 1, 1, 1]
    m6 = SpectralModel.from_dict({"dimension": 6, **base})
    assert [mult for _, mult in m6.levels] == [1, 3, 6, 10, 15]  # binom(m+2, 2)


def test_from_dict_errors():
    with pytest.raises(InvalidModel):
        SpectralModel.from_dict({"dimension": 4, "lambda": 0.1})
    with pytest.raises(InvalidModel):
        SpectralModel.from_dict(
            {"dimension": 4, "lambda": 0.1, "volume": 1.0, "eigenvalues": [{"E": 1.0}]}
        )
    with pytest.raises(InvalidModel):
        SpectralModel.from_dict(
            {
                "dimension": 0,
                "lambda": 0.1,
                "volume": 1.0,
                "generator": {"e": "linear", "cutoff_N": 2, "mu2": 1.0},
            }
        )
    with pytest.raises(InvalidModel):
        SpectralModel.from_dict(
            {
                "dimension": 4,
                "lambda": 0.1,
                "volume": 1.0,
                "generator": {"e": "quadratic", "cutoff_N": 2, "mu2": 1.0},
            }
        )
    with pytest.raises(InvalidModel):
        SpectralModel.from_json("{not json")


def test_from_dict_rejects_non_finite_values():
    base = {"dimension": 4, "lambda": 0.1, "volume": 1.0,
            "eigenvalues": [{"E": 1.0, "mult": 1}]}
    for bad in (
        {"eigenvalues": [{"E": "inf", "mult": 1}]},
        {"eigenvalues": [{"E": 1.0, "mult": 1}, {"E": float("nan"), "mult": 2}]},
        {"lambda": "inf"},
        {"lambda": float("nan")},
        {"volume": float("inf")},
        {"dimension": float("inf")},
    ):
        with pytest.raises(InvalidModel):
            SpectralModel.from_dict({**base, **bad})
    with pytest.raises(InvalidModel):
        SpectralModel.from_json('{"dimension": 2, "lambda": 0.1, "volume": Infinity,'
                                ' "eigenvalues": [{"E": 1.0, "mult": 1}]}')


def test_generator_cutoff_ceiling(monkeypatch):
    def generated(cutoff):
        return SpectralModel.from_dict({"dimension": 2, "lambda": 0.1, "volume": 1.0,
                                        "generator": {"e": "linear", "cutoff_N": cutoff,
                                                      "mu2": 1.0}})

    for cutoff in (spectral.MAX_CUTOFF + 1, 10**9, 10**30):
        with pytest.raises(InvalidModel, match="at most"):
            generated(cutoff)
    # the bound itself is accepted; a small stand-in keeps the build small
    monkeypatch.setattr(spectral, "MAX_CUTOFF", 3)
    assert len(generated(3).levels) == 4
    with pytest.raises(InvalidModel):
        generated(4)


def test_from_dict_rejects_fractional_counts():
    base = {"dimension": 4, "lambda": 0.1, "volume": 1.0,
            "eigenvalues": [{"E": 1.0, "mult": 2}]}
    for bad in (
        {"dimension": 4.9},
        {"eigenvalues": [{"E": 1.0, "mult": 1.7}]},
        {"generator": {"e": "linear", "cutoff_N": 2.5, "mu2": 1.0}, "eigenvalues": None},
    ):
        data = {k: v for k, v in {**base, **bad}.items() if v is not None}
        with pytest.raises(InvalidModel):
            SpectralModel.from_dict(data)
    whole = SpectralModel.from_dict({**base, "dimension": 4.0,
                                     "eigenvalues": [{"E": 1.0, "mult": 2.0}]})
    assert whole.dimension == 4 and whole.levels == ((1.0, 2),)


# ---------------------------------------------------------------------------
# solving


def test_zero_coupling_is_exact():
    model = SpectralModel(4, 0.0, 2.5, ((0.6, 1), (1.1, 2)))
    sol = solve(model)
    assert sol.shift == 0.0
    assert sol.wave_renorm == 1.0
    assert sol.mass_shift == 0.0
    assert sol.moment(0) == 1.0
    assert all(sol.moment(l) == 0.0 for l in range(1, 6))


def test_newton_matches_bisection():
    for model in MODELS:
        newton = solve(model).shift
        oracle = bisect_shift(model)
        assert abs(newton - oracle) < 1e-10, model


def test_solution_residual_tiny():
    for model in MODELS:
        sol = solve(model)
        assert abs(reference_implicit(model, sol.shift)) < 1e-11


def test_huge_level_solves_at_zero_shift():
    # the residual vanishes at c = 0 while (z0 + y)^4 overflows in the slope
    model = SpectralModel(6, 0.1, 1.0, ((1e80, 1),))
    sol = solve(model)
    assert sol.shift == 0.0
    assert sol.moments(0) == {0: 1.0}


def test_small_coupling_first_order():
    for dimension in (0, 2, 4, 6):
        errs = []
        for lam in (0.04, 0.02):
            model = SpectralModel(dimension, lam, 2.0, ((0.7, 1), (1.2, 2)))
            sol = solve(model)
            s0 = sum(
                w / ((1 + 2 * e) ** (dimension // 2) * 2 * e)
                for w, (e, _) in zip(model.weights, model.levels)
            ) / 2
            first = -2 * s0 / (2 if dimension == 6 else 1)
            errs.append(abs(sol.shift - first))
        assert errs[0] < 20 * 0.04**4  # fourth-order remainder, not second
        ratio = errs[0] / errs[1]
        assert 9 < ratio < 30  # halving lambda divides the remainder by ~16


def test_moments_match_high_precision_oracle():
    mpmath.mp.dps = 40
    for model in MODELS:
        half = model.dimension // 2

        def phi(c):
            z0 = mpmath.sqrt(1 + c)
            lhs = (1 - z0) * ((1 + z0) if model.dimension == 6 else mpmath.mpf(1))
            total = mpmath.mpf(0)
            for (energy, mult), w in zip(model.levels, model.weights):
                y = mpmath.sqrt(4 * mpmath.mpf(energy) ** 2 + c)
                total += mpmath.mpf(w) / ((z0 + y) ** half * y)
            return lhs - total / 2

        c_ref = mpmath.findroot(phi, mpmath.mpf(solve(model).shift))
        z0 = mpmath.sqrt(1 + c_ref)
        if model.dimension == 6:
            inv_sqrt_z = z0 + sum(
                mpmath.mpf(w) / ((z0 + mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref)) ** 2
                                 * mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref))
                for (e, _), w in zip(model.levels, model.weights)
            ) / 2
        else:
            inv_sqrt_z = mpmath.mpf(1)
        sol = solve(model)
        for l in range(0, 6):
            total = sum(
                mpmath.mpf(w) / mpmath.sqrt(4 * mpmath.mpf(e) ** 2 + c_ref) ** (3 + 2 * l)
                for (e, _), w in zip(model.levels, model.weights)
            )
            ref = (inv_sqrt_z if l == 0 else mpmath.mpf(0)) - total / 2
            assert abs(sol.moment(l) - float(ref)) < 1e-8


# ---------------------------------------------------------------------------
# edge conditions and derived quantities


def test_edge_conditions():
    for model in MODELS:
        sol = solve(model)
        if model.dimension >= 2:
            assert abs(sol.boundary_value() - 1.0) < 1e-10
        if model.dimension >= 4:
            assert abs(sol.boundary_slope() - 0.5) < 1e-10


def test_renormalisation_by_dimension():
    for model in MODELS:
        sol = solve(model)
        if model.dimension < 6:
            assert sol.wave_renorm == 1.0
        else:
            assert 0 < sol.wave_renorm < 1.5
        if model.dimension < 4:
            assert sol.mass_shift == 0.0


def test_derived_values_are_computed_once(monkeypatch):
    calls = []
    spectral_sum = SpectralSolution._spectral_sum

    def counted(self, edge_power):
        calls.append(edge_power)
        return spectral_sum(self, edge_power)

    monkeypatch.setattr(SpectralSolution, "_spectral_sum", counted)
    for model in MODELS:
        sol = solve(model)
        calls.clear()
        first = (sol.edge, sol.wave_renorm, sol.mass_shift, sol.moment(0), sol.resolvent(1.3))
        once = sorted(calls)
        # wave_renorm sums once in dimension 6, mass_shift once from dimension 4
        assert once == [p for p, dim in ((1, 4), (2, 6)) if model.dimension >= dim]
        for _ in range(3):
            again = (sol.edge, sol.wave_renorm, sol.mass_shift, sol.moment(0), sol.resolvent(1.3))
            assert again == first
            sol.moments(4)
            sol.boundary_value()
            sol.boundary_slope()
        assert sorted(calls) == once
        # every moment was kept: with the levels gone, nothing can be summed again
        moments = sol.moments(4)
        value = sol.evaluate_correlator(1, [[1.7], [2.9]])
        sol.__dict__["_cut_positions"] = None
        assert sol.moments(4) == moments and sol.moment(2) == moments[2]
        assert sol.evaluate_correlator(1, [[1.7], [2.9]]) == value

def test_moment_signs_weak_coupling():
    sol = solve(SpectralModel(4, 0.1, 2.0, ((0.7, 1), (1.2, 2))))
    assert 0 < sol.moment(0) < 1
    assert all(sol.moment(l) < 0 for l in range(1, 5))


# ---------------------------------------------------------------------------
# failure modes


def test_rootless_model_raises():
    with pytest.raises(NoConvergence):
        solve(SpectralModel(0, 5.0, 1.0, ((1.0, 1),)))


def test_no_root_is_a_no_convergence_certified_before_newton(monkeypatch):
    assert issubclass(NoRoot, NoConvergence)

    def no_newton(*args):
        raise AssertionError("Newton ran on a certified rootless model")

    monkeypatch.setattr(spectral, "_newton", no_newton)
    for model in (SpectralModel(0, 5.0, 1.0, ((1.0, 1),)),
                  SpectralModel(6, 1.0, 1.0, ((0.3, 2), (2.0, 1)))):
        with pytest.raises(NoRoot):
            solve(model)


def test_branch_wall_press_raises():
    # f(-1) = 1 - 2.56/sqrt(3) < 0 and f decreases: provably rootless, so the
    # solve stops at the certificate; Newton alone presses into the branch wall
    model = SpectralModel(0, 0.8, 1.0, ((1.0, 1),))
    with pytest.raises(NoRoot):
        solve(model)
    with pytest.raises(BranchViolation):
        _newton(model, _implicit(model, 0.0), 1e-12, 200)


def test_certificate_gates_newton_without_moving_the_shift(monkeypatch):
    passes = []

    def counted(model, c):
        passes.append(c)
        return _value(model, c)

    for model in MODELS:
        direct = _newton(model, _implicit(model, 0.0), 1e-12, 200)
        assert solve(model).shift == direct.shift
        # a sign change is found within the first few midpoints
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_value", counted)
            assert not spectral._rootless(model, _implicit(model, 0.0)[0], 1e-12)
        assert 1 <= len(passes) <= 3


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.999, 3.0))
def test_value_pass_equals_the_value_of_implicit_bitwise(c):
    # the certificate's value-only pass sums in the same order as _implicit;
    # the first level of the last model overflows (z0 + y) ** 3
    huge = SpectralModel(6, 0.3, 1.0, ((1e150, 1), (0.5, 2)))
    for model in (*MODELS, huge):
        assert _value(model, c) == _implicit(model, c)[0]


def test_certificate_at_the_critical_coupling():
    # one level at E = 1 in dimension 0: f decreases from f(-1) = 1 - w/(2 sqrt 3),
    # so w = 2 sqrt(3) (1 - eps) puts a root just above the branch point for
    # eps > 0 and none for eps < 0
    for eps in (1e-3, 1e-4, -1e-4, -1e-3):
        model = SpectralModel(0, sqrt(sqrt(3) * (1 - eps) / 4), 1.0, ((1.0, 1),))
        if eps > 0:
            assert scan_for_sign_change(model)
            assert abs(reference_implicit(model, solve(model).shift)) <= 1e-6
        else:
            assert not scan_for_sign_change(model)
            with pytest.raises(NoRoot):
                solve(model)


spectra = st.lists(
    st.tuples(st.floats(0.05, 4.0), st.integers(1, 4)), min_size=1, max_size=3
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((0, 2, 4, 6)), st.floats(0.01, 2.0), st.floats(0.3, 5.0), spectra)
def test_certificate_agrees_with_root_scan(dimension, coupling, volume, spectrum):
    model = SpectralModel(dimension, coupling, volume, spectrum)
    tol = 1e-12
    try:
        sol = solve(model, tol=tol)
    except NoRoot:
        assert not scan_for_sign_change(model)
    except (NoConvergence, BranchViolation, OnCut):
        pass
    else:
        assert abs(reference_implicit(model, sol.shift)) <= sqrt(tol)


def test_solution_construction_guards():
    model = SpectralModel(0, 0.1, 1.0, ((1.0, 1),))
    with pytest.raises(BranchViolation):
        SpectralSolution(model, -1.0)
    thin = SpectralModel(0, 0.1, 1.0, ((0.2, 1),))
    with pytest.raises(OnCut):
        SpectralSolution(thin, -0.17)


# ---------------------------------------------------------------------------
# correlator delegation


def test_planar_pair_value():
    model = SpectralModel(4, 0.3, 2.5, ((0.6, 1), (1.1, 2)))
    sol = solve(model)
    lam = model.coupling
    x, y = 1.3, 2.1
    expected = lam**2 * 4 / (x * y * (x + y) ** 2)
    assert sol.evaluate_correlator(0, [[x], [y]]) == pytest.approx(expected, rel=1e-12)


def test_one_boundary_value_from_moments():
    model = SpectralModel(4, 0.3, 2.5, ((0.6, 1), (1.1, 2), (1.7, 1)))
    sol = solve(model)
    lam, z = model.coupling, 1.7
    r0, r1 = sol.moment(0), sol.moment(1)
    expected = lam**4 * (2 * r1 / (r0**2 * z**3) - 2 / (r0 * z**5))
    assert sol.evaluate_correlator(1, [[z]]) == pytest.approx(expected, rel=1e-12)


def test_delegation_matches_boundary_module():
    model = SpectralModel(6, 0.2, 3.0, ((0.8, 1), (1.3, 3)))
    sol = solve(model)
    groups = [[1.1, 1.9], [2.6]]
    direct = boundary.evaluate_correlator(1, groups, model.coupling, sol.moments(8))
    assert sol.evaluate_correlator(1, groups) == pytest.approx(direct, rel=1e-13)
