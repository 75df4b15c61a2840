import math

import numpy as np
import pytest

from qesforge import validator
from qesforge.validator import (
    CompiledU,
    check_admissibility,
    discriminant_samples,
    find_level_crossings,
    locate_zeros,
)

TWO_PI = 2.0 * math.pi
RAZAVY = "4*eps0*eps1*sin(x)^2"
DETUNED = "4*eps0*eps1*sin(x)^2*((1-0.6)+0.6*cos(2*x))"

ADMISSIBLE = [
    (RAZAVY, 0.75, 0.25),
    (RAZAVY, 1.0, 0.5),
    (RAZAVY, 1.5, 1.0),
    (RAZAVY, 2.0, 1.5),
    (RAZAVY, 3.0, 2.5),
    (DETUNED, 2.8, 0.5),
    (DETUNED, 3.2, 0.5),
]


# ------------------------------------------------------------------ CompiledU


def test_compiled_u_accessors():
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    assert cu.value(0.8) == pytest.approx(2.0 * math.sin(0.8) ** 2, rel=1e-14)
    assert cu.deriv(0.8) == pytest.approx(2.0 * math.sin(1.6), rel=1e-12)
    assert cu.deriv(0.8, 2) == pytest.approx(4.0 * math.cos(1.6), rel=1e-12)
    xs = np.array([0.0, 0.8, 2.5])
    np.testing.assert_allclose(cu.arr(xs), 2.0 * np.sin(xs) ** 2, atol=1e-14)
    assert cu.params == {"eps0": 1.0, "eps1": 0.5}


def test_compiled_u_accepts_parsed_expression():
    from qesforge import expr

    cu = CompiledU(expr.parse("sin(x)^2"), 1.0, 0.5, TWO_PI)
    assert cu.value(0.3) == pytest.approx(math.sin(0.3) ** 2)


# --------------------------------------------------------------------- zeros


def test_locate_zeros_orders_and_classes():
    for k, cls in (
        (1, validator.FIRST_ORDER),
        (2, validator.SECOND_ORDER),
        (3, validator.FORBIDDEN),
    ):
        recs = locate_zeros(f"sin(x/2)^{k}", 1.0, 0.5, TWO_PI)
        assert len(recs) == 1
        assert recs[0].x == pytest.approx(0.0, abs=1e-9)
        assert recs[0].order == k
        assert recs[0].classification == cls


def test_locate_zeros_double_pair():
    recs = locate_zeros(RAZAVY, 1.0, 0.5, TWO_PI)
    assert [r.order for r in recs] == [2, 2]
    assert recs[0].x == pytest.approx(0.0, abs=1e-9)
    assert recs[1].x == pytest.approx(math.pi, abs=1e-9)


def test_locate_zeros_detuned_family():
    recs = locate_zeros(DETUNED, 3.2, 0.5, TWO_PI)
    assert [r.order for r in recs] == [2, 1, 1, 2, 1, 1]
    # simple zeros sit where cos(2x) = -2/3
    z = 0.5 * math.acos(-2.0 / 3.0)
    want = [0.0, z, math.pi - z, math.pi, math.pi + z, TWO_PI - z]
    for r, w in zip(recs, want):
        assert r.x == pytest.approx(w, abs=1e-9)


# ----------------------------------------------------------- level crossings


def test_level_crossings_transversal():
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    got = find_level_crossings(cu, 1.0)
    want = [0.25 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 1.75 * math.pi]
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


def test_level_crossings_tangential_touch():
    # U = sin^2 grazes level 1 at pi/2 and 3pi/2 without crossing
    cu = CompiledU("sin(x)^2", 1.0, 0.5, TWO_PI)
    got = find_level_crossings(cu, 1.0)
    assert len(got) == 2
    assert got[0] == pytest.approx(0.5 * math.pi, abs=1e-9)
    assert got[1] == pytest.approx(1.5 * math.pi, abs=1e-9)


def test_level_crossings_none_below_range():
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    assert find_level_crossings(cu, -2.0) == ()


# --------------------------------------------------------------- discriminant


def test_discriminant_samples_frozen_values():
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    xs, sv = discriminant_samples(cu)
    assert len(xs) == 4096
    i = 1024  # xs[i] = pi/2 exactly on this grid
    assert xs[i] == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert sv[i] == pytest.approx(32.0, rel=1e-9)
    j = 512  # pi/4
    assert sv[j] == pytest.approx(4.0, rel=1e-9)
    assert float(np.min(sv)) > -1e-9 * float(np.max(np.abs(sv)))


def test_discriminant_negative_for_small_eps0():
    cu = CompiledU(RAZAVY, 0.4, -0.1, TWO_PI)
    _, sv = discriminant_samples(cu)
    assert float(np.min(sv)) < -1e-3


# ------------------------------------------------------------- admissibility


@pytest.mark.parametrize("u,eps0,eps1", ADMISSIBLE)
def test_corpus_members_admissible(u, eps0, eps1):
    rep = check_admissibility(u, eps0, eps1, TWO_PI)
    assert rep.passed
    assert all(c.passed for c in rep.checks)
    assert rep.curvature_target == pytest.approx(8.0 * eps0 * eps1)
    assert rep.curvature_value == pytest.approx(rep.curvature_target, rel=1e-9)
    assert abs(rep.third_derivative_midpoint) < 1e-8
    assert rep.parity_defect < 1e-10


def test_report_check_lookup():
    rep = check_admissibility(RAZAVY, 1.0, 0.5, TWO_PI)
    assert rep.check("periodicity").passed
    with pytest.raises(KeyError):
        rep.check("no_such_check")


def test_reject_negative_lower_energy():
    rep = check_admissibility(RAZAVY, 0.4, -0.1, TWO_PI)
    assert not rep.passed
    assert not rep.check("energies_positive").passed
    assert not rep.check("discriminant_nonnegative").passed
    assert rep.s_min < 0.0


def test_reject_simple_zero_at_midpoint():
    rep = check_admissibility("sin(x)", 1.0, 0.5, TWO_PI)
    assert not rep.passed
    assert not rep.check("midpoint_double_zero").passed
    assert not rep.check("parity_about_midpoint").passed


def test_reject_broken_parity():
    rep = check_admissibility(RAZAVY + " + 0.1*sin(x)", 1.0, 0.5, TWO_PI)
    assert not rep.passed
    assert not rep.check("parity_about_midpoint").passed
    assert rep.parity_defect > 0.1


def test_reject_higher_order_zero():
    rep = check_admissibility("sin(x)^3", 1.0, 0.5, TWO_PI)
    assert not rep.passed
    assert not rep.check("zero_orders").passed
    assert any(z.classification == validator.FORBIDDEN for z in rep.zeros)


def test_reject_constant_potential():
    rep = check_admissibility("1", 1.0, 0.5, TWO_PI)
    assert not rep.passed
    assert not rep.check("midpoint_double_zero").passed
    assert rep.zeros == ()


def test_reject_curvature_mismatch():
    # sin^2 with eps0 = 1, eps1 = 0.5: U''(pi) = 2 but 8*eps0*eps1 = 4
    rep = check_admissibility("sin(x)^2", 1.0, 0.5, TWO_PI)
    assert not rep.passed
    assert not rep.check("curvature_at_double_zeros").passed


# -------------------------------------------------------- partner regularity


def test_level_crossings_confined():
    # U confined to the open strip (-2*eps0, 2*eps1): no edge crossings
    cu = CompiledU("0.1*sin(x)^2", 1.0, 0.5, TWO_PI)
    assert find_level_crossings(cu, 2.0 * cu.eps1) == ()
    assert find_level_crossings(cu, -2.0 * cu.eps0) == ()
    assert check_admissibility(cu, 1.0, 0.5, TWO_PI).range_ok


def test_level_crossings_razavy():
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    upper = find_level_crossings(cu, 2.0 * cu.eps1)
    assert len(upper) == 4
    assert upper[0] == pytest.approx(0.25 * math.pi, abs=1e-9)
    assert find_level_crossings(cu, -2.0 * cu.eps0) == ()
    assert not check_admissibility(cu, 1.0, 0.5, TWO_PI).range_ok


def test_regularity_crossings_scale_with_eps0():
    cu = CompiledU(RAZAVY, 0.75, 0.25, TWO_PI)
    upper = find_level_crossings(cu, 2.0 * cu.eps1)
    z = math.asin(math.sqrt(2.0 / 3.0))
    want = [z, math.pi - z, math.pi + z, TWO_PI - z]
    assert len(upper) == 4
    for g, w in zip(upper, want):
        assert g == pytest.approx(w, abs=1e-9)


# ------------------------------------------------------------------ root refinement


def _evaluations(solve, f, *args, **kwargs):
    """Result (or error class) of a solver run, with every point it evaluated."""
    seen = []

    def recording(x):
        seen.append(x)
        return f(x)

    try:
        got = solve(recording, *args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        got = type(exc).__name__
    return got, type(got), seen


def test_brentq_matches_scipy_step_for_step():
    # scipy's brentq is the reference: the same points in the same order and
    # the same root or error, on smooth brackets, flat high-order roots (where
    # a step divides by zero), same-sign brackets, exhausted iterations and NaN
    from scipy.optimize import brentq

    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        c = rng.uniform(-2.0, 2.0, 5)
        cases.append((lambda x, c=c: c[0] + c[1] * x + c[2] * x * x + c[3] * math.sin(3.0 * x) + c[4] * x**3,
                       rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)))
    for p in range(1, 10):
        r = rng.uniform(-1.0, 1.0)
        cases.append((lambda x, p=p, r=r: (x - r) ** p * (1.0 + 0.1 * x), -1.5, 1.7))
    cases.append((lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0))
    for f, a, b in cases:
        for xtol, rtol, maxiter in ((1e-14, 8.9e-16, 200), (1e-6, 1e-10, 5)):
            want = _evaluations(brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
            got = _evaluations(validator._brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
            assert got == want
