import math

import numpy as np
import pytest

from qesforge import susy, validator
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
    np.testing.assert_allclose(cu.jet(xs, 1).value, 2.0 * np.sin(xs) ** 2, atol=1e-14)
    assert cu.params == {"eps0": 1.0, "eps1": 0.5}


def test_compiled_u_grid():
    # U and U' on the scan grid, from one batch jet kept on the instance
    cu = CompiledU(RAZAVY, 1.0, 0.5, TWO_PI)
    xs, u, up = cu.grid
    assert cu.grid is cu.grid
    np.testing.assert_array_equal(xs, np.linspace(0.0, TWO_PI, validator.GRID, endpoint=False))
    np.testing.assert_allclose(u, 2.0 * np.sin(xs) ** 2, atol=1e-14)
    np.testing.assert_allclose(up, 2.0 * np.sin(2.0 * xs), atol=1e-14)
    # a constant's coefficients are shared floats, spread over the grid
    xs, u, up = CompiledU("3", 1.0, 0.5, TWO_PI).grid
    assert u.shape == up.shape == xs.shape
    assert (u == 3.0).all() and (up == 0.0).all()


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


def test_discriminant_samples_match_closed_form_on_a_sharp_u():
    # U = 1/(a - cos x) with a - 1 = 1e-5 peaks at 1e5 over a width of
    # ~4.5e-3: U' from the jets is exact to roundoff, where a spectral
    # derivative from the grid samples aliases
    a = 1.00001
    cu = CompiledU(f"1/({a} - cos(x))", 1.0, 0.5, TWO_PI)
    xs, sv = discriminant_samples(cu)
    c = a - np.cos(xs)
    u, up = 1.0 / c, -np.sin(xs) / c**2
    want = up * up + 4.0 * u * (u + 2.0) * (u - 1.0)
    assert float(np.max(np.abs(sv - want))) <= 1e-12 * float(np.max(np.abs(want)))


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


def _even_trig_draws(seed, count):
    """Seeded even trigonometric inputs with the midpoint double zero of the
    right curvature: U = b1 (1 + cos x) + sum_{k=2..K} bk (1 - cos k(x - pi)),
    K <= 4, b1 setting U''(pi) = 8 eps0 eps1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k_max = int(rng.integers(2, 5))
        e0, e1 = float(rng.choice([0.5, 1.0, 2.0, 3.0])), float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        b = (rng.uniform(-1.0, 1.0, k_max - 1) * e0 * e1).tolist()
        b1 = 8.0 * e0 * e1 - sum((k + 2) ** 2 * bk for k, bk in enumerate(b))
        u = f"{b1!r}*(1+cos(x))" + "".join(f" + {bk!r}*(1-cos({k + 2}*(x-pi)))" for k, bk in enumerate(b))
        yield u, e0, e1


def test_origin_check_rejects_what_cannot_build():
    # W+ odd about pi with period 2 pi is odd about 0 too, so S(0) must
    # vanish; none of these draws has U(0) in {0, -2 eps0, 2 eps1}.  Without
    # the check 79 of them passed the validator and then failed to build
    # (BranchInconsistencyError); each is now rejected with a named check
    rejected = 0
    for u, e0, e1 in _even_trig_draws(2026, 120):
        rep = check_admissibility(u, e0, e1, TWO_PI)
        if rep.passed:  # an admissible input must build
            susy.construct(u, e0, e1, TWO_PI).wavefunctions_minus(1.0)
            continue
        rejected += 1
        assert not rep.check("origin_structural").passed
        assert rep.check("origin_structural").detail.startswith("S(0) = ")
    assert rejected == 120
    for u, e0, e1 in ADMISSIBLE:
        assert check_admissibility(u, e0, e1, TWO_PI).check("origin_structural").passed


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


# ------------------------------------------------------------------ level scans


def _scan_roots_per_sample(cu, level):
    """The level scan as one Python step per sample: the oracle for the
    array scan of validator._scan_roots, which must find the same roots."""
    L = cu.period
    n = validator.GRID
    xs = np.linspace(0.0, L, n, endpoint=False)
    vals = cu.jet(xs, 1).value - level
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return []

    def f(x):
        return cu.value(x) - level

    roots = []
    dx = L / n
    for i in range(n):
        a, b = vals[i], vals[(i + 1) % n]
        if a == 0.0:
            roots.append(xs[i])
            continue
        if a < 0.0 < b or b < 0.0 < a:
            roots.append(validator._refine_transversal(f, xs[i], xs[i] + dx))
    absv = np.abs(vals)
    for i in np.nonzero(absv < 1e-9 * scale)[0]:
        if absv[i] <= absv[(i - 1) % n] and absv[i] <= absv[(i + 1) % n]:
            got = validator._refine_tangential(lambda x: cu.deriv(x, 1), float(xs[i]), dx)
            if got is not None and abs(f(got)) < 1e-7 * scale:
                roots.append(got)
    out = []
    for r in sorted(r % L for r in roots):
        if out and min(r - out[-1], out[0] + L - r) < 1e-8 * L:
            continue
        out.append(r)
    return out


def _bits(roots):
    return [(type(r).__name__, r.hex()) for r in roots]


def test_scan_roots_match_per_sample_scan():
    rng = np.random.default_rng(12)
    cases = [
        (CompiledU("sin(x)", 1.0, 0.5, TWO_PI), 0.0),  # the sample at 0 is exactly 0
        (CompiledU("sin(x)^2", 1.0, 0.5, TWO_PI), 1.0),  # tangential touches
        (CompiledU("sin(x)^2", 1.0, 0.5, TWO_PI), 0.0),  # exact zero that is also a touch
        (CompiledU("cos(x)*1e-300", 1.0, 0.5, TWO_PI), 0.0),  # neighbours' products underflow
    ]
    for u, e0, e1 in ((RAZAVY, 1.0, 0.5), (DETUNED, 2.8, 0.5), (DETUNED, 8.0, 2.5)):
        cu = CompiledU(u, e0, e1, TWO_PI)
        uv = cu.jet(np.linspace(0.0, TWO_PI, 512), 1).value
        levels = [0.0, -2.0 * e0, 2.0 * e1] + rng.uniform(np.min(uv), np.max(uv), 6).tolist()
        cases += [(cu, level) for level in levels]
    touched = 0
    for cu, level in cases:
        want = _scan_roots_per_sample(cu, level)
        assert _bits(validator._scan_roots(cu, level)) == _bits(want), (cu.expression, level)
        touched += any(abs(cu.deriv(x, 1)) < 1e-6 for x in want)
    assert touched >= 3


# ------------------------------------------------------ lower-level touches


def test_lower_touch_rule_rejects_untuned_curvature():
    # detuned (5.0, 2.5) touches U = -2*eps0 at pi/2 with U''/2 = 70, but a
    # branch vanishing with slope +2*eps0 needs 4*eps0*(eps0+eps1)/3 = 50
    rep = check_admissibility(DETUNED, 5.0, 2.5, TWO_PI)
    assert [c.name for c in rep.checks if not c.passed] == ["lower_touch_curvature"]
    assert "2.000e+01" in rep.check("lower_touch_curvature").detail
    assert rep.lower_crossings == pytest.approx((0.5 * math.pi, 1.5 * math.pi), abs=1e-9)


def test_lower_touch_rule_accepts_tuned_touch():
    # detuned (8.0, 2.5) meets it exactly: U''/2 = 112 = 4*8*10.5/3
    rep = check_admissibility(DETUNED, 8.0, 2.5, TWO_PI)
    assert rep.passed
    assert rep.check("lower_touch_curvature").passed
    assert len(rep.lower_crossings) == 2


def test_lower_touch_rule_ignores_transversal_crossings():
    # detuned (1.0, 3.0) dips to U = -2.4*eps0 at pi/2: four transversal
    # crossings of the lower level, which the rule leaves to the other checks
    rep = check_admissibility(DETUNED, 1.0, 3.0, TWO_PI)
    assert rep.check("lower_touch_curvature").passed
    assert len(rep.lower_crossings) == 4


def test_lower_touch_rule_accepts_a_touch_from_below():
    # U = -2*eps0 - k*eps0*(eps0+eps1)*cos(x)^2 touches the lower level from
    # below at pi/2 and 3*pi/2 with U''/2 = -k*eps0*(eps0+eps1); a branch
    # vanishing with slope -2*eps0 exists exactly at k = 4
    for k, ok in ((4.0, True), (2.0, False)):
        rep = check_admissibility(f"-2*eps0 - {k}*eps0*(eps0+eps1)*cos(x)^2", 1.0, 0.5, TWO_PI)
        assert len(rep.lower_crossings) == 2
        assert rep.check("lower_touch_curvature").passed == ok
