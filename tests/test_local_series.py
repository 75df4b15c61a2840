import math
import random

import numpy as np
import pytest

from qesforge import local_series
from qesforge.local_series import LaurentPoly, pole_branches, taylor, taylor_branches
import series_oracle
from series_oracle import discriminant_poly, residual_norm, residual_pole, residual_taylor

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


def test_finite_branch_value_where_leading_coefficient_vanishes():
    # at U = 2 eps1 the quadratic drops to linear: w = U (U + 2 eps0) / U'
    # = 2 eps1 (2 eps1 + 2 eps0) / U'; here U' = 2, so w = 1.5
    x0 = 0.25 * math.pi
    branches = taylor_branches(x0, sin2_taylor(x0, 9), EPS0, EPS1)
    assert len(branches) == 1
    assert branches[0](x0) == pytest.approx(1.5, rel=1e-10)


def test_pole_branch_residue_is_minus_one():
    x0 = 0.25 * math.pi
    poles = pole_branches(x0, sin2_taylor(x0, 9), EPS0, EPS1)
    assert len(poles) == 1
    p = poles[0]
    assert p.valuation == -1
    assert p.residue() == pytest.approx(-1.0, abs=1e-9)


def test_pole_branch_tracks_divergent_root():
    x0 = 0.25 * math.pi
    p = pole_branches(x0, sin2_taylor(x0, 9), EPS0, EPS1)[0]
    for t in (-0.03, 0.02, 0.04):
        roots = branch_roots(x0 + t)
        assert min(abs(p(x0 + t) - r) for r in roots) < 1e-5 / abs(t)


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


@pytest.mark.parametrize("pole", [False, True])
def test_order_residual_matches_full_residual(pole):
    # the solver's one-order residual at each probe is the full residual's
    # entry, bit for bit
    full = residual_pole if pole else residual_taylor
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((7, 12, 18))
        u = [rng.uniform(-3.0, 3.0) if rng.random() > 0.2 else 0.0 for _ in range(n)]
        eps0, eps1 = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        wc = [rng.uniform(-5.0, 5.0) if rng.random() > 0.2 else 0.0 for _ in range(rng.randint(0, 15))]
        fn = local_series._order_residual(u, eps0, eps1, pole)
        for k in range(n):
            got = fn(wc, k)
            for probe, value in zip(local_series.PROBES, got):
                assert value.hex() == full(u, eps0, eps1, wc + [probe])[k].hex()


# ------------------------------------------------- the solve on real patches

DETUNED = "4*eps0*eps1*sin(x)^2*((1-{a})+{a}*cos(2*x))"
# every family member that builds (the 12 of the benchmark scan grid, Razavy
# (3.0, 2.5), detuned (2.8, 0.5) and the touch (8.0, 2.5)), and Razavy
# (3.2, 2.5), which fails after solving both its double zeros
PATCH_MEMBERS = [
    (0.0, 1.0, 0.5), (0.0, 3.2, 0.5), (0.0, 5.0, 0.5), (0.0, 5.0, 2.5),
    (0.2, 3.2, 0.5), (0.2, 5.0, 0.5), (0.2, 5.0, 2.5), (0.4, 3.2, 0.5),
    (0.4, 5.0, 0.5), (0.4, 5.0, 2.5), (0.6, 3.2, 0.5), (0.6, 5.0, 0.5),
    (0.0, 3.0, 2.5), (0.6, 2.8, 0.5), (0.6, 8.0, 2.5), (0.0, 3.2, 2.5),
]


@pytest.fixture(scope="module")
def patch_solves():
    """One dict per taylor_branches call the construction of PATCH_MEMBERS
    makes: the member, the call's args and kwargs, the branches it returned
    and the (prefix, order) of each residual order its solves read."""
    from qesforge import susy

    calls = []
    solve, order_residual = local_series.taylor_branches, local_series._order_residual

    def counted(u, eps0, eps1, pole):
        fn = order_residual(u, eps0, eps1, pole)
        if pole:  # pole_branches' own solve
            return fn

        def reading(wc, k):
            calls[-1]["reads"].append((tuple(wc), k))
            return fn(wc, k)

        return reading

    def recorded(*args, **kwargs):
        calls.append({"member": member, "args": args, "kwargs": kwargs, "reads": []})
        calls[-1]["got"] = solve(*args, **kwargs)
        return calls[-1]["got"]

    mp = pytest.MonkeyPatch()
    mp.setattr(local_series, "taylor_branches", recorded)
    mp.setattr(local_series, "_order_residual", counted)
    try:
        for member in PATCH_MEMBERS:
            a, e0, e1 = member
            try:
                susy.construct(DETUNED.format(a=a), e0, e1, 2.0 * math.pi)
            except susy.SeamMismatchError:
                assert member == (0.0, 3.2, 2.5)
    finally:
        mp.undo()
    return calls


def _series_bits(branches):
    return [(b.x0.hex(), b.valuation, [c.hex() for c in b.coeffs]) for b in branches]


def test_resumed_solve_matches_two_solves(patch_solves):
    # the deeper solve continues each truncated candidate where the first
    # one stopped; re-running the whole tree must give the same bits
    assert {c["member"] for c in patch_solves} == set(PATCH_MEMBERS)
    for c in patch_solves:
        want = series_oracle.taylor_branches_two_solves(*c["args"], **c["kwargs"])
        assert _series_bits(c["got"]) == _series_bits(want), (c["member"], c["args"][0])
    # Razavy (3.2, 2.5)'s double zeros keep their roundoff fork at
    # coefficient 15: four branches at 0, two at pi
    razavy = {round(c["args"][0], 6): c["got"] for c in patch_solves if c["member"] == (0.0, 3.2, 2.5)}
    assert len(razavy[0.0]) == 4 and len(razavy[round(math.pi, 6)]) == 2


def test_solve_reads_each_residual_order_once(patch_solves):
    resumed = 0
    for c in patch_solves:
        reads = c["reads"]
        assert len(reads) == len(set(reads)), (c["member"], c["args"][0])
        # the deeper solve reads the top order, one below the input's length
        resumed += max(k for _, k in reads) == len(c["args"][1]) - 1
    assert resumed > 0
