import math

import numpy as np
import pytest

from qesforge import jets, local_series, susy
from qesforge.errors import QuadratureNonconvergenceError
from qesforge.local_series import LaurentPoly, taylor, taylor_branches
from series_oracle import discriminant_poly, residual_norm

# U = 2 sin(x)^2 with (eps0, eps1) = (1, 0.5); closed-form Taylor data below.
EPS0 = 1.0
EPS1 = 0.5


def u_sin2(x):
    return 2.0 * math.sin(x) ** 2, 2.0 * math.sin(2.0 * x)


def sin2_taylor(x0, n=7):
    # 2 sin^2 = 1 - cos(2x): derivatives cycle through 2 sin/cos(2 x0)
    out = []
    for k in range(n):
        if k == 0:
            out.append(2.0 * math.sin(x0) ** 2)
            continue
        d = 2.0 ** (k - 1) * 2.0  # k-th derivative magnitude of -cos(2x)
        phase = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)][(k - 1) % 4]
        out.append(d * phase(2.0 * x0) / math.factorial(k))
    return out


def branch_roots(x, eps0=EPS0, eps1=EPS1):
    """Numeric roots of (U - 2 eps1) w^2 + U' w - U (U + 2 eps0) at a point."""
    u, du = u_sin2(x)
    a = u - 2.0 * eps1
    b = du
    c = -u * (u + 2.0 * eps0)
    rd = math.sqrt(b * b - 4.0 * a * c)
    return ((-b + rd) / (2.0 * a), (-b - rd) / (2.0 * a))


def match_error(series, roots_fn, probes):
    err = 0.0
    for t in probes:
        val = series(series.x0 + t)
        err = max(err, min(abs(val - r) for r in roots_fn(series.x0 + t)))
    return err


# ---------------------------------------------------------------- LaurentPoly


def test_call_matches_explicit_powers():
    p = LaurentPoly(1.5, -1, (2.0, -3.0, 0.5, 4.0))
    for x in (0.7, 1.9, 3.2):
        t = x - 1.5
        want = 2.0 / t - 3.0 + 0.5 * t + 4.0 * t * t
        assert p(x) == pytest.approx(want, rel=1e-14)


def test_call_array_input():
    p = taylor(0.0, [1.0, 2.0, 3.0])
    xs = np.array([0.0, 1.0, 2.0])
    out = p(xs)
    assert out.shape == (3,)
    np.testing.assert_allclose(out, [1.0, 6.0, 17.0])


def test_derivative_and_coeff():
    p = LaurentPoly(0.0, -1, (5.0, 1.0, 2.0))
    d = p.derivative()
    assert d.valuation == -2
    assert d.coeff(-2) == -5.0
    assert d.coeff(-1) == 0.0
    assert d.coeff(0) == 2.0
    assert p.coeff(3) == 0.0
    assert p.residue() == 5.0


def test_regular_part_drops_pole():
    p = LaurentPoly(2.0, -2, (4.0, -1.0, 7.0, 3.0))
    r = p.regular_part()
    assert r.valuation == 0
    assert r.coeffs == (7.0, 3.0)
    q = taylor(2.0, [1.0, 2.0])
    assert q.regular_part() is q


def test_arithmetic_round_trip():
    a = taylor(0.3, [1.0, -2.0, 0.5, 0.25])
    b = taylor(0.3, [2.0, 1.0, -1.0])
    q = a / b
    back = q * b
    for x in (0.25, 0.3, 0.42):
        # product is exact only through the shared truncation order
        assert back(x) == pytest.approx(a(x), abs=1e-3)
    s = a + b - b
    for x in (0.1, 0.6):
        assert s(x) == pytest.approx(a(x), rel=1e-14)


def test_scalar_ops():
    p = taylor(0.0, [1.0, 1.0])
    assert (2.0 * p)(3.0) == 8.0
    assert (p + 1.0)(3.0) == 5.0
    assert (1.0 - p)(3.0) == -3.0
    assert (p / 2.0)(3.0) == 2.0


def test_mixed_expansion_points_rejected():
    with pytest.raises(ValueError):
        taylor(0.0, [1.0]) + taylor(1.0, [1.0])
    with pytest.raises(ValueError):
        taylor(0.0, [1.0]) * taylor(1.0, [1.0])


def test_division_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        taylor(0.0, [1.0]) / taylor(0.0, [0.0, 0.0])


def test_division_shifts_valuation():
    num = LaurentPoly(0.0, 0, (0.0, 0.0, 6.0, 2.0))
    den = LaurentPoly(0.0, 0, (0.0, 3.0, 1.0))
    q = (num.structurally_trimmed(1e-14)) / den
    assert q.valuation == 1
    assert q.coeff(1) == pytest.approx(2.0)


def test_trimmed_raises_valuation():
    p = LaurentPoly(0.0, 0, (0.0, 0.0, 1.0, 2.0))
    t = p.trimmed()
    assert t.valuation == 2
    assert t.coeffs == (1.0, 2.0)


def test_structural_trim_ignores_high_order_growth():
    # global-max trimming would also strip the genuine 1.0 leading term here
    cs = (1e-18, 1.0, 5.0, 2.0, 3.0, 1e9)
    p = LaurentPoly(0.0, 0, cs)
    assert p.trimmed(1e-9).valuation == 2
    s = p.structurally_trimmed(1e-9)
    assert s.valuation == 1
    assert s.coeffs[0] == 1.0


# ---------------------------------------------------- discriminant and inputs


def test_discriminant_constant_term():
    # S = U'^2 + 4 U (U + 2 eps0)(U - 2 eps1)
    for x0, want in ((0.5 * math.pi, 32.0), (0.25 * math.pi, 4.0)):
        s = discriminant_poly(sin2_taylor(x0), EPS0, EPS1)
        assert s[0] == pytest.approx(want, rel=1e-12)


def test_discriminant_series_tracks_pointwise_values():
    x0 = 1.1
    s = taylor(x0, discriminant_poly(sin2_taylor(x0, 9), EPS0, EPS1))
    for t in (-0.05, 0.02, 0.07):
        u, du = u_sin2(x0 + t)
        want = du * du + 4.0 * u * (u + 2.0 * EPS0) * (u - 2.0 * EPS1)
        assert s(x0 + t) == pytest.approx(want, rel=1e-8)


# ------------------------------------------------------------ series branches


def test_generic_point_two_branches():
    x0 = 1.1
    branches = taylor_branches(x0, sin2_taylor(x0, 9), EPS0, EPS1, n_coeffs=5)
    assert len(branches) == 2
    # one branch has a pole at pi/4 (radius ~0.31), so probe well inside it
    probes = (-0.01, 0.004, 0.01)
    for b in branches:
        assert match_error(b, branch_roots, probes) < 1e-6
    vals = sorted(b(x0) for b in branches)
    assert vals[0] == pytest.approx(min(branch_roots(x0)), rel=1e-10)
    assert vals[1] == pytest.approx(max(branch_roots(x0)), rel=1e-10)


def upper_edge_branches(x0=0.25 * math.pi, u=None):
    """The finite and the pole branch of the one call at an upper edge
    (U = 2 eps1), at pi/4 unless U's Taylor data is given."""
    branches = taylor_branches(x0, sin2_taylor(x0, 9) if u is None else u, EPS0, EPS1)
    assert sorted(b.valuation for b in branches) == [-1, 0]
    return sorted(branches, key=lambda b: -b.valuation)


def test_finite_branch_value_where_leading_coefficient_vanishes():
    # at U = 2 eps1 the quadratic drops to linear: w = U (U + 2 eps0) / U'
    # = 2 eps1 (2 eps1 + 2 eps0) / U'; here U' = 2, so w = 1.5
    finite, _ = upper_edge_branches()
    assert finite(finite.x0) == pytest.approx(1.5, rel=1e-10)


def test_pole_branch_residue_is_minus_one():
    _, pole = upper_edge_branches()
    assert pole.valuation == -1
    assert pole.residue() == pytest.approx(-1.0, abs=1e-9)


def test_pole_branch_tracks_divergent_root():
    _, p = upper_edge_branches()
    x0 = p.x0
    for t in (-0.03, 0.02, 0.04):
        roots = branch_roots(x0 + t)
        assert min(abs(p(x0 + t) - r) for r in roots) < 1e-5 / abs(t)


def test_pole_branch_at_a_steep_upper_edge():
    # U = 2 eps1 + t/10 + 1000 t^2: the product form's denominator
    # U' - sqrt(S) cancels at t^0, and its t^1 term (-6) sits below the
    # structural trim of a series whose coefficients grow 1e4 per order;
    # the root form divides by U - 2 eps1 itself
    u = [2.0 * EPS1, 0.1, 1000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    finite, pole = upper_edge_branches(0.0, u)
    assert finite.coeffs[0] == pytest.approx(2.0 * EPS1 * (2.0 * EPS1 + 2.0 * EPS0) / 0.1, rel=1e-12)
    assert pole.residue() == pytest.approx(-1.0, abs=1e-12)


def test_pole_branches_where_the_coefficients_grow_1e2_per_order():
    # U = 1 + t + 1e2 t^2 at the upper edge U = 2 eps1 of (1.0, 0.5): S's
    # leading coefficient stays inside the valuation trim's eight-order window
    branches = taylor_branches(0.0, [1.0, 1.0, 1e2] + [0.0] * 15, 1.0, 0.5, n_coeffs=16)
    assert sorted(b.valuation for b in branches) == [-1, 0]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the valuation trim of S compares each leading coefficient with the next "
    "eight, so a series whose coefficients grow by more than 1e12 over eight orders (a radius below "
    "~0.02) loses its genuine leading coefficient and the branches with it",
)
def test_pole_branches_where_the_coefficients_grow_1e4_per_order():
    # the same edge with 1e4 t^2: S's coefficients are 1, 4.0e4, 4.0e8, ...
    branches = taylor_branches(0.0, [1.0, 1.0, 1e4] + [0.0] * 15, 1.0, 0.5, n_coeffs=16)
    assert len(branches) == 2


def test_vanishing_branch_slope_at_simple_zero():
    # U(x0) = 0, U'(x0) = u1 != 0 forces w in {0, u1 / (2 eps1)} at x0;
    # order one of the residual then pins the vanishing branch slope to 2 eps0
    u1 = 3.0
    u = [0.0, u1, -0.7, 0.2, 0.05, 0.0, 0.0, 0.0, 0.0]
    branches = taylor_branches(0.0, u, EPS0, EPS1, n_coeffs=4)
    assert len(branches) == 2
    by_val = {round(b(0.0), 6): b for b in branches}
    vanishing = by_val[0.0]
    finite = by_val[round(u1 / (2.0 * EPS1), 6)]
    assert vanishing.coeff(1) == pytest.approx(2.0 * EPS0, rel=1e-10)
    assert finite(0.0) == pytest.approx(u1 / (2.0 * EPS1), rel=1e-12)


def test_double_zero_branches_share_forced_slope():
    # both branches leave a second-order zero of U with slope 2 eps0 when
    # U''/2 = 4 eps0 eps1 (the only curvature with real branches on both sides)
    x0 = math.pi
    branches = taylor_branches(x0, sin2_taylor(x0, 11), EPS0, EPS1, n_coeffs=5)
    assert len(branches) == 2
    for b in branches:
        assert b.coeff(0) == pytest.approx(0.0, abs=1e-10)
        assert b.coeff(1) == pytest.approx(2.0 * EPS0, rel=1e-9)
        assert b.coeff(2) == pytest.approx(0.0, abs=1e-8)
    # cubic terms: w = -U'/(2(U-1)) +- t^3 sqrt(32)/(2(U-1)) + ...
    # = 2t + (8/3 -+ 2 sqrt(2)) t^3 + ...  (S = 32 t^6 + O(t^8) here)
    c3 = sorted(b.coeff(3) for b in branches)
    assert c3[0] == pytest.approx(8.0 / 3.0 - 2.0 * math.sqrt(2.0), rel=1e-8)
    assert c3[1] == pytest.approx(8.0 / 3.0 + 2.0 * math.sqrt(2.0), rel=1e-8)
    # each series continues one analytic root curve through the zero
    probes = (-0.02, -0.01, 0.015, 0.02)
    for b in branches:
        assert match_error(b, branch_roots, probes) < 1e-6


def test_double_zero_mirror_pair_with_quartic_split():
    # detuned quartic term: branches become 2 eps0 t +/- b t^2 + ..., a pair
    # swapped by t -> -t, w -> -w (even orders flip, odd orders match)
    eps0, eps1 = 3.2, 0.5
    u = [0.0, 0.0, 4.0 * eps0 * eps1, 0.0, -147.2 / 15.0, 0.0, 1.0, 0.0, 0.0]
    branches = taylor_branches(0.0, u, eps0, eps1, n_coeffs=4)
    assert len(branches) == 2
    c2 = sorted(b.coeff(2) for b in branches)
    assert c2[0] == pytest.approx(-c2[1], rel=1e-9)
    assert c2[1] == pytest.approx(math.sqrt(32.768), rel=1e-9)
    for b in branches:
        assert b.coeff(1) == pytest.approx(2.0 * eps0, rel=1e-10)
    c3 = [b.coeff(3) for b in branches]
    assert c3[0] == pytest.approx(c3[1], rel=1e-8)

    def roots(x):
        uv = sum(c * x**k for k, c in enumerate(u))
        du = sum(k * c * x ** (k - 1) for k, c in enumerate(u) if k)
        a, bq, cq = uv - 2.0 * eps1, du, -uv * (uv + 2.0 * eps0)
        rd = math.sqrt(bq * bq - 4.0 * a * cq)
        return ((-bq + rd) / (2.0 * a), (-bq - rd) / (2.0 * a))

    probes = (-0.02, -0.01, 0.01, 0.02)
    for b in branches:
        assert match_error(b, roots, probes) < 1e-4


def test_no_real_branch_when_discriminant_negative():
    # eps0 = 0.4, eps1 = -0.1 puts S below zero near x = pi/2
    u = sin2_taylor(0.5 * math.pi, 9)
    u = [c * (4.0 * 0.4 * -0.1) / 2.0 for c in u]
    s0 = discriminant_poly(u, 0.4, -0.1)[0]
    assert s0 < 0.0
    assert taylor_branches(0.5 * math.pi, u, 0.4, -0.1) == []


def test_residual_norm_flags_corrupted_series():
    # a series must be long enough to satisfy every trustworthy residual
    # order (orders 0..n-2 for n input coefficients at a generic point)
    x0 = 1.1
    u = sin2_taylor(x0, 9)
    good = taylor_branches(x0, u, EPS0, EPS1, n_coeffs=8)[0]
    assert residual_norm(x0, good, u, EPS0, EPS1) < 1e-6
    bad = LaurentPoly(x0, 0, (good.coeffs[0] + 0.1,) + good.coeffs[1:])
    assert residual_norm(x0, bad, u, EPS0, EPS1) > 1e-2


def test_longer_input_extends_trustworthy_orders():
    x0 = 1.1
    short = taylor_branches(x0, sin2_taylor(x0, 7), EPS0, EPS1, n_coeffs=7)
    long = taylor_branches(x0, sin2_taylor(x0, 12), EPS0, EPS1, n_coeffs=7)
    assert all(len(b.coeffs) == 6 for b in short)
    assert all(len(b.coeffs) == 7 for b in long)
    probes = (-0.01, 0.006, 0.01)
    for b in long:
        assert match_error(b, branch_roots, probes) < 1e-7


# --------------------------------------------------- branches on real patches

DETUNED = "4*eps0*eps1*sin(x)^2*((1-{a})+{a}*cos(2*x))"
# every family member that builds and assembles (the 12 of the benchmark
# scan grid, Razavy (3.0, 2.5), detuned (2.8, 0.5) and the touch (8.0, 2.5)),
# and Razavy (3.2, 2.5), which builds but fails in its state assembly
PATCH_MEMBERS = [
    (0.0, 1.0, 0.5), (0.0, 3.2, 0.5), (0.0, 5.0, 0.5), (0.0, 5.0, 2.5),
    (0.2, 3.2, 0.5), (0.2, 5.0, 0.5), (0.2, 5.0, 2.5), (0.4, 3.2, 0.5),
    (0.4, 5.0, 0.5), (0.4, 5.0, 2.5), (0.6, 3.2, 0.5), (0.6, 5.0, 0.5),
    (0.0, 3.0, 2.5), (0.6, 2.8, 0.5), (0.6, 8.0, 2.5), (0.0, 3.2, 2.5),
]

SIDE_SIGNS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))  # a patch's (side, sign) keys


@pytest.fixture(scope="module")
def patch_systems():
    """Each member of PATCH_MEMBERS, constructed."""
    return {
        member: susy.construct(DETUNED.format(a=member[0]), member[1], member[2], 2.0 * math.pi)
        for member in PATCH_MEMBERS
    }


def window_residual(patch, w, u, eps0, eps1):
    """residual_norm of the branch w in the variable s = t / r, with r the
    patch's evaluation radius, so that residual order k weighs r^k.  The
    quadratic is homogeneous: U and the spacings scale by r^2, W by r."""
    r = patch.eval_halfwidth
    us = [c * r ** (k + 2) for k, c in enumerate(u)]
    ws = tuple(c * r ** (w.valuation + j + 1) for j, c in enumerate(w.coeffs))
    return residual_norm(0.0, LaurentPoly(0.0, w.valuation, ws), us, eps0 * r * r, eps1 * r * r)


def test_chosen_branches_solve_the_quadratic(patch_systems):
    for (a, eps0, eps1), system in patch_systems.items():
        for patch in system.patches:
            # U's top order enters only orders beyond those a branch carries
            u = system.u.jet(patch.x, susy.U_TAYLOR_TERMS - 1).coeffs
            for key in SIDE_SIGNS:
                if not isinstance(patch.branches[key], str):
                    got = window_residual(patch, patch.local(*key).wp, u, eps0, eps1)
                    assert got < 1e-16, ((a, eps0, eps1), patch.kind, key, got)


def test_razavy_double_zero_branches_and_failed_assembly(patch_systems):
    # Razavy (3.2, 2.5) builds, but its tables never converge; its double
    # zeros each give the two branches w2 = +-4.05
    system = patch_systems[(0.0, 3.2, 2.5)]
    doubles = [p for p in system.patches if p.kind == susy.KIND_DOUBLE_ZERO]
    assert len(doubles) == 2
    for patch in doubles:
        w2 = sorted({patch.local(*key).wp.coeff(2) for key in SIDE_SIGNS})
        assert w2 == pytest.approx([-4.05, 4.05], abs=5e-3)
    with pytest.raises(QuadratureNonconvergenceError):
        system.wavefunctions_minus(np.array([1.0]))


@pytest.mark.parametrize("member", [(0.0, 3.0, 2.5), (0.0, 1.0, 0.5)])
def test_discriminant_valuation_at_a_smooth_double_zero(patch_systems, member):
    # on Razavy's line 2 (eps0 - eps1) = 1, S vanishes to order 6 at pi, and
    # its lower orders are roundoff up to 1e-10 (at t^5 on (3.0, 2.5)): a
    # trim that looked only four orders ahead would read an odd valuation
    system = patch_systems[member]
    psi = system.wavefunctions_minus(np.array([1.0, 3.0]))
    assert np.all(np.isfinite(psi))
    (patch,) = [p for p in system.patches if abs(p.x - math.pi) < 1e-9]
    u = system.u.jet(patch.x, susy.U_TAYLOR_TERMS)
    du = local_series._trimmed(jets.differentiate(u))
    assert local_series._discriminant(u, du, member[1], member[2]).valuation == 6


def test_no_branch_where_discriminant_has_odd_valuation():
    # U = 1/2 - sqrt(5/2) t puts S's zero at t = 0, with S = sqrt(5/2) t + ...:
    # real roots on t > 0 only, and no series through the point
    u = [0.5, -math.sqrt(2.5), 0.0, 0.0, 0.0, 0.0, 0.0]
    s = discriminant_poly(u, EPS0, EPS1)
    assert abs(s[0]) < 1e-14 and s[1] == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert taylor_branches(0.0, u, EPS0, EPS1) == []


def razavy_w_plus(x, sign, eps0, eps1):
    """W+ of Razavy's U = c sin^2 x, c = 4 eps0 eps1, in the stable form for
    the sign, from the factored S = 4 c^2 sin^4 x (B^2 + c sin^2 x) with
    B^2 = 2 (eps0 - eps1) - 1: its square root has no cancellation."""
    c = 4.0 * eps0 * eps1
    s2 = math.sin(x) ** 2
    u, up = c * s2, c * math.sin(2.0 * x)
    sqrt_s = 2.0 * c * s2 * math.sqrt(2.0 * (eps0 - eps1) - 1.0 + c * s2)
    if sign * up >= 0.0:
        return 2.0 * u * (u + 2.0 * eps0) / (up + sign * sqrt_s)
    return (-up + sign * sqrt_s) / (2.0 * (u - 2.0 * eps1))


@pytest.mark.parametrize("member", [(0.0, 1.0, 0.5), (0.0, 3.2, 0.5), (0.0, 5.0, 0.5), (0.0, 5.0, 2.5)])
def test_w_plus_inside_the_windows_matches_the_factored_discriminant(patch_systems, member):
    system = patch_systems[member]
    for patch in system.patches:
        h = patch.eval_halfwidth
        for x in (patch.x + np.linspace(-h, h, 40)).tolist():
            want = razavy_w_plus(x, system.branch_map.sign_at(x), member[1], member[2])
            got = system.w_plus(x).value
            assert abs(got - want) <= 2e-12 * max(1.0, abs(want)), (member, patch.kind, x)
