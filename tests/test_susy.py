"""Construction pipeline: branch-resolved W+, the three-member superpotential
chain, partner potentials, and the five closed-form states.

Frozen numbers are either hand-derived from the branch quadratic
(U - 2*eps1) W^2 + U' W - U (U + 2*eps0) = 0 or checked against the known
closed forms of the trigonometric double-well member (eps0 = 1)."""

import gc
import math
import sys
import weakref
from bisect import bisect_right
from functools import partial

import numpy as np
import pytest
import quad_oracle
from numpy.polynomial.chebyshev import Chebyshev

from qesforge import expr, jets, susy, validator
from qesforge.errors import (
    BranchInconsistencyError,
    DomainEvaluationError,
    InadmissibleInputError,
    NegativeDiscriminantError,
    PatchFailureError,
    QesError,
    QuadratureNonconvergenceError,
    UnremovablePoleError,
    VplusPoleError,
)
from qesforge.local_series import LaurentPoly
from qesforge.susy import construct

TWO_PI = 2.0 * math.pi
RAZAVY = "4*eps0*eps1*sin(x)^2"
DETUNED = "4*eps0*eps1*sin(x)^2*((1-0.6)+0.6*cos(2*x))"


@pytest.fixture(scope="module")
def razavy1():
    return construct(RAZAVY, 1.0, 0.5, TWO_PI)


@pytest.fixture(scope="module")
def beta_b0():
    # detuned family member whose midpoint quadratic coefficient vanishes
    return construct(DETUNED, 2.8, 0.5, TWO_PI)


@pytest.fixture(scope="module")
def beta_bnz():
    # detuned family member with a genuine W0 jump at the midpoint
    return construct(DETUNED, 3.2, 0.5, TWO_PI)


@pytest.fixture(scope="module")
def touch():
    # lower strip edge tangent to U at pi/2 and 3*pi/2: min U = -2*eps0 exactly
    return construct(DETUNED, 8.0, 2.5, TWO_PI)


def _gap(x, y, period):
    d = abs(x - y) % period
    return min(d, period - d)


def clean_points(system, n=120):
    """Sample points keeping clear of every patch window."""
    out = []
    for k in range(n):
        x = (k + 0.37) / n * system.period
        if all(_gap(x, p.x, system.period) > 2.0 * p.eval_halfwidth for p in system.patches):
            out.append(x)
    assert len(out) > n // 2
    return out


def near_patch(system, x):
    """The per-point window rule the locator tabulates, kept as its oracle:
    (patch index, signed offset) when x lies in a patch window, else
    (None, 0.0).  Only the two patches around x count, the left one first."""
    L = system.period
    xr = susy._reduce(x, L)
    xs = [p.x for p in system.patches]
    i = bisect_right(xs, xr)
    for j in (i - 1, i % len(xs)):
        t = xr - xs[j]
        t -= L * round(t / L)
        if abs(t) <= system.patches[j].eval_halfwidth:
            return j % len(xs), t
    return None, 0.0


def near_patches(system, xr):
    """near_patch on numpy for an array reduced to [0, L]: the window index
    (-1 for none) and offset per point, as batch callers computed them."""
    L, n = system.period, len(system.patches)
    where, offset = np.full(xr.shape, -1), np.zeros(xr.shape)
    px = np.array([p.x for p in system.patches])
    half = np.array([p.eval_halfwidth for p in system.patches])
    i = np.searchsorted(px, xr, side="right")
    for j in ((i - 1) % n, i % n):
        t = xr - px[j]
        t = t - L * np.round(t / L)
        hit = (where < 0) & (np.abs(t) <= half[j])
        where[hit], offset[hit] = j[hit], t[hit]
    return where, offset


def rule_sign(system, j, t, xr):
    """The branch sign a point takes: the sign map's at the point off the
    windows, inside one the map's half a window out on the offset's side."""
    if j is None or j < 0:
        return system.branch_map.sign_at(xr)
    side = 1 if t >= 0.0 else -1
    return system.branch_map.sign_at(system.patches[j].x + side * 0.5 * system.patch_halfwidth)


def off_windows(system, x):
    """Whether x lies off every patch window, by the locator."""
    return system._locate(susy._reduce(x, system.period))[0] < 0


def spectral_derivative(vals, order=1):
    n = len(vals)
    coef = np.fft.rfft(vals)
    modes = 1j * np.arange(coef.size)  # period 2*pi
    return np.fft.irfft(coef * modes**order, n)


# -- structure ---------------------------------------------------------------


def test_energies_and_pair(razavy1):
    assert razavy1.energies == (0.0, 1.0, 1.5)
    assert razavy1.pair.eps0 == 1.0
    assert razavy1.pair.eps1 == 0.5
    assert razavy1.pair.top == 1.5
    assert razavy1.period == TWO_PI
    assert razavy1.midpoint == pytest.approx(math.pi, abs=1e-12)
    assert razavy1.patch_halfwidth == pytest.approx(1e-3 * TWO_PI)


def test_nonpositive_spacing_rejected():
    with pytest.raises(ValueError):
        construct(RAZAVY, 0.4, -0.1, TWO_PI)
    with pytest.raises(ValueError):
        construct(RAZAVY, 0.0, 0.5, TWO_PI)


def test_branch_map_frozen(razavy1):
    bm = razavy1.branch_map
    assert len(bm.breakpoints) == 2
    assert bm.breakpoints[0] == pytest.approx(0.0, abs=1e-9)
    assert bm.breakpoints[1] == pytest.approx(math.pi, abs=1e-9)
    assert tuple(bm.signs) == (1, -1)
    assert bm.sign_at(0.5) == 1
    assert bm.sign_at(4.0) == -1
    assert bm.sign_at(0.5 + TWO_PI) == 1  # periodic lookup


def test_patch_kinds_razavy(razavy1):
    got = [(p.x, p.kind) for p in razavy1.patches]
    want = [
        (0.0, "double_zero"),
        (0.25 * math.pi, "upper_strip_edge"),
        (0.75 * math.pi, "upper_strip_edge"),
        (math.pi, "double_zero"),
        (1.25 * math.pi, "upper_strip_edge"),
        (1.75 * math.pi, "upper_strip_edge"),
    ]
    assert len(got) == len(want)
    for (gx, gk), (wx, wk) in zip(got, want):
        assert gx == pytest.approx(wx, abs=1e-8)
        assert gk == wk


def test_patch_kinds_beta(beta_b0):
    kinds = [p.kind for p in beta_b0.patches]
    assert kinds.count("double_zero") == 2
    assert kinds.count("simple_zero") == 4
    assert kinds.count("upper_strip_edge") == 8
    # simple zeros of the modulation factor: cos(2x) = -2/3
    z = 0.5 * math.acos(-2.0 / 3.0)
    simple = sorted(p.x for p in beta_b0.patches if p.kind == "simple_zero")
    for got, want in zip(simple, (z, math.pi - z, math.pi + z, TWO_PI - z)):
        assert got == pytest.approx(want, abs=1e-8)


def test_report_attachment():
    checked = construct(RAZAVY, 1.0, 0.5, TWO_PI)
    assert checked.report is not None and checked.report.passed
    raw = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    assert raw.report is None


# -- branch values of W+ and its tilde partner -------------------------------


def test_w_plus_frozen_values(razavy1):
    # at pi/4 the quadratic degenerates (U = 2*eps1): the surviving root is
    # U (U + 2*eps0) / U' = 1 * 3 / 2
    assert razavy1.w_plus(0.25 * math.pi).value == pytest.approx(1.5, abs=1e-9)
    # at pi/2, U' = 0: W^2 = U (U + 2*eps0) / (U - 2*eps1) = 2 * 4 / 1
    assert razavy1.w_plus(0.5 * math.pi).value == pytest.approx(math.sqrt(8.0), abs=1e-9)
    # generic point: root of 0.5 W^2 + sqrt(3) W - 5.25 with the (+) form
    x = math.pi / 3.0
    u, up = 1.5, math.sqrt(3.0)
    root = (-up + math.sqrt(up**2 + 4.0 * 0.5 * u * (u + 2.0))) / (2.0 * 0.5)
    assert razavy1.w_plus(x).value == pytest.approx(root, abs=1e-9)
    assert razavy1.w_plus_tilde(0.25 * math.pi).value == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_factorization_of_u(razavy1, beta_b0):
    # U = W+ * W~+ away from the zeros
    for system in (razavy1, beta_b0):
        for x in clean_points(system, 60):
            u = system.u.value(x)
            prod = system.w_plus(x).value * system.w_plus_tilde(x).value
            assert prod == pytest.approx(u, abs=1e-9 * max(1.0, abs(u)))


def test_vanishing_slopes_at_midpoint(razavy1):
    wp = razavy1.w_plus(math.pi)
    assert abs(wp.value) < 1e-9
    assert wp.derivative(1) == pytest.approx(2.0, abs=1e-8)  # 2*eps0
    wt = razavy1.w_plus_tilde(math.pi)
    assert abs(wt.value) < 1e-9
    assert wt.derivative(1) == pytest.approx(1.0, abs=1e-8)  # 2*eps1


def test_sign_override_root_identities(razavy1):
    # the two sign branches are the two quadratic roots: their sum and
    # product are rational in U
    for x in (0.8, 2.2, 4.5):
        u = razavy1.u.value(x)
        up = razavy1.u.deriv(x)
        a = razavy1.w_plus(x, sign=+1).value
        b = razavy1.w_plus(x, sign=-1).value
        assert a + b == pytest.approx(-up / (u - 1.0), rel=1e-9)
        assert a * b == pytest.approx(-u * (u + 2.0) / (u - 1.0), rel=1e-9)


# -- superpotential chain ----------------------------------------------------


def test_chain_sums(razavy1, beta_b0):
    for system in (razavy1, beta_b0):
        for x in clean_points(system, 80):
            w0, w1, w2 = system.superpotentials(x)
            wp = system.w_plus(x).value
            wt = system.w_plus_tilde(x).value
            scale = max(1.0, abs(wp), abs(wt))
            assert w0.value + w1.value == pytest.approx(wp, abs=1e-9 * scale)
            assert w1.value + w2.value == pytest.approx(wt, abs=1e-9 * scale)


def test_riccati_chain(razavy1, beta_b0):
    """Adjacent chain members generate the same intermediate potential."""
    for system in (razavy1, beta_b0):
        e0, e1 = system.pair.eps0, system.pair.eps1
        for x in clean_points(system, 80):
            w0, w1, w2 = system.superpotentials(x)
            a = w1.value**2 - w1.derivative(1) + 2.0 * e0
            b = w0.value**2 + w0.derivative(1)
            assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))
            c = w2.value**2 - w2.derivative(1) + 2.0 * e1
            d = w1.value**2 + w1.derivative(1)
            assert c == pytest.approx(d, abs=1e-9 * max(1.0, abs(c)))


def test_potential_difference_is_w0_slope(razavy1):
    for x in clean_points(razavy1, 80):
        vm, vp = razavy1.potentials(x)
        w0 = razavy1.superpotentials(x)[0]
        assert vp - vm == pytest.approx(w0.derivative(1), abs=1e-10 * max(1.0, abs(vp)))


def test_v_minus_closed_form(razavy1):
    def ref(x):
        # eps0 = 1, eps1 = 0.5
        return 0.5 + 0.25 * (0.5 - 6.0 * math.sqrt(0.5) * math.cos(x) - 0.5 * math.cos(2.0 * x))

    assert razavy1.potentials(0.0)[0] == pytest.approx(-0.5606601717798212, abs=1e-9)
    assert razavy1.potentials(0.25 * math.pi)[0] == pytest.approx(-0.125, abs=1e-9)
    assert razavy1.potentials(0.5 * math.pi)[0] == pytest.approx(0.75, abs=1e-9)
    assert razavy1.potentials(math.pi)[0] == pytest.approx(1.5606601717798212, abs=1e-9)
    for x in (0.0, 0.3, 1.1, 2.0, math.pi, 4.4, 6.0):
        assert razavy1.potentials(x)[0] == pytest.approx(ref(x), abs=1e-9)


def test_w0_frozen_value(razavy1):
    # closed form: sqrt(1/2) sin x + 2 (sqrt(1/2) + 1/2) sin x / g with
    # g = 1 + 2 (sqrt(1/2) + 1/2)(1 + cos x); at 3*pi/4 this is exactly 3/2
    assert razavy1.superpotentials(0.75 * math.pi)[0].value == pytest.approx(1.5, abs=1e-9)


def test_oddness_about_midpoint(razavy1, beta_b0):
    for system in (razavy1, beta_b0):
        xm = system.midpoint
        for t in (0.05, 0.3, 0.9, 1.4, 2.8):
            left = system.w_plus(xm - t).value
            right = system.w_plus(xm + t).value
            assert right == pytest.approx(-left, abs=1e-8 * max(1.0, abs(left)))
            lw = system.superpotentials(xm - t)
            rw = system.superpotentials(xm + t)
            for a, b in zip(lw, rw):
                assert b.value == pytest.approx(-a.value, abs=1e-8 * max(1.0, abs(a.value)))


def test_period_integrals_vanish(razavy1, beta_b0):
    # W1 and W2 are read as principal values through their simple poles
    for system in (razavy1, beta_b0):
        for i in range(3):
            val = system.integrate_superpotential(i, 0.0, system.period)
            assert abs(val) < 1e-8


def test_integrals_match_quad_oracle(razavy1, beta_b0, beta_bnz, touch):
    # the tables against scipy quad on the chain jets: a period cut at a
    # seeded point and inside a pole window, so pieces end in a window, at
    # L, and cross poles as principal values; each piece is also read
    # shifted by -L and +L, where the integral is the same
    rng = np.random.default_rng(5)
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        poles = [q for q, _ in system.poles["w1"]]
        cuts = [0.0] + sorted([rng.uniform(0.0, L), poles[0] + 0.3 * system.patch_halfwidth]) + [L]
        pieces = list(zip(cuts[:-1], cuts[1:]))
        assert any(lo < q < hi for lo, hi in pieces for q in poles)
        for i in range(3):
            for lo, hi in pieces:
                want = quad_oracle.integrate(system, i, lo, hi)
                for shift in (-L, 0.0, L):
                    got = system.integrate_superpotential(i, lo + shift, hi + shift)
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (i, lo, hi, shift)


def test_integrals_never_call_quad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(susy, "quad", refuse)
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    for i in range(3):
        system.integrate_superpotential(i, 0.1, 3.0)


def test_integral_typed_outcomes(touch):
    # an endpoint on a pole diverges; the range must fit one period and
    # the chain index must exist; reversed bounds flip the sign
    q = touch.poles["w1"][0][0]
    for a, b in ((q, q + 1.0), (q - 1.0, q)):
        with pytest.raises(QuadratureNonconvergenceError):
            touch.integrate_superpotential(1, a, b)
    with pytest.raises(ValueError):
        touch.integrate_superpotential(0, 0.5, 0.5 + 1.01 * touch.period)
    for i in (-1, 3):
        with pytest.raises(ValueError):
            touch.integrate_superpotential(i, 0.1, 1.0)
    assert touch.integrate_superpotential(2, 3.0, 0.1) == -touch.integrate_superpotential(2, 0.1, 3.0)


@pytest.mark.parametrize(
    "power, match", [(-1, "residue of w1 differs"), (-2, "nonintegrable pole order in w1")]
)
def test_pole_series_must_agree_across_a_point(monkeypatch, power, match):
    # the tables integrate each pole as a simple one with one residue: a
    # left series with a different residue or a double pole fails the build
    active = susy.ConstructedSystem._active_local

    def skewed(self, patch, side, sign=None):
        loc = active(self, patch, side, sign)
        if side > 0:
            return loc
        return loc._replace(w1=loc.w1 + LaurentPoly(loc.w1.x0, power, (0.5,)))

    monkeypatch.setattr(susy.ConstructedSystem, "_active_local", skewed)
    with pytest.raises(PatchFailureError, match=match):
        construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)


def test_unconverged_table_raises(monkeypatch):
    # a Chebyshev ladder that reaches its cap with a live tail fails loudly
    monkeypatch.setattr(susy, "CHEB_DEGREE_MAX", 512)
    monkeypatch.setattr(susy, "CHEB_TAIL_REL", 0.0)
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    with pytest.raises(QuadratureNonconvergenceError):
        system.integrate_superpotential(0, 0.1, 3.0)
    with pytest.raises(QuadratureNonconvergenceError):
        system.wavefunctions_minus(1.0)


def integrals_from_midpoint(system, i, xs):
    """PV integral of W_i from the half-period point to each x, summed over
    the gaps between neighbouring points by the quad oracle."""
    xm = system.midpoint
    out = {}
    for side in (sorted(x for x in xs if x >= xm), sorted((x for x in xs if x < xm), reverse=True)):
        acc, prev = 0.0, xm
        for x in side:
            acc += quad_oracle.integrate(system, i, prev, x)
            out[x], prev = acc, x
    return out


def test_states_are_chain_exponentials(razavy1, beta_b0, touch):
    # |psi / factor| = exp(-PV integral of W_i from the half-period point)
    # for every state on an array grid: the integral is the quad oracle,
    # which never reads the Chebyshev tables the states come from
    for system in (razavy1, beta_b0, touch):
        xs = clean_points(system, 10)
        pm = system.wavefunctions_minus(np.array(xs))
        pp = system.wavefunctions_plus(np.array(xs))
        integrals = [integrals_from_midpoint(system, i, xs) for i in range(3)]
        for k, x in enumerate(xs):
            c = system.chain(x)
            states = (
                (0, pm[0][k], 1.0),
                (1, pm[1][k], c.wp.value),
                (2, pm[2][k], c.g.value),
                (1, pp[0][k], math.sqrt(2.0) * system.pair.eps0),
                (2, pp[1][k], c.h.value / math.sqrt(2.0)),
            )
            for i, psi, factor in states:
                assert abs(psi / factor) == pytest.approx(math.exp(-integrals[i][x]), rel=1e-8)


# -- states ------------------------------------------------------------------


def test_wavefunction_anchors(razavy1):
    p0, p1, p2 = razavy1.wavefunctions_minus(math.pi)
    assert p0 == pytest.approx(1.0, abs=1e-10)
    assert abs(p1) < 1e-10
    assert p2 == pytest.approx(-1.0, abs=1e-10)
    assert abs(razavy1.wavefunctions_minus(0.0)[1]) < 1e-10
    # closed forms at pi/2 and pi/4, eps0 = 1: s = sqrt(1/2), p = s + 1/2
    s = math.sqrt(0.5)
    p = s + 0.5
    assert razavy1.wavefunctions_minus(0.5 * math.pi)[1] == pytest.approx(
        -2.0 * math.exp(s), rel=1e-9
    )
    c2 = (1.0 + math.sqrt(0.5)) / 2.0  # cos^2(pi/8)
    want0 = math.exp(2.0 * s * c2) * (1.0 + 4.0 * p * c2)
    assert razavy1.wavefunctions_minus(0.25 * math.pi)[0] == pytest.approx(want0, rel=1e-9)
    # top state has a node exactly on the upper strip edge crossing
    assert abs(razavy1.wavefunctions_minus(0.25 * math.pi)[2]) < 1e-10


def test_constants_scale_linearly(razavy1):
    x = 1.234
    base_m = razavy1.wavefunctions_minus(x)
    scaled_m = razavy1.wavefunctions_minus(x, c0=2.0, c1=-0.5, c2=3.0)
    assert scaled_m[0] == pytest.approx(2.0 * base_m[0], rel=1e-12)
    assert scaled_m[1] == pytest.approx(-0.5 * base_m[1], rel=1e-12)
    assert scaled_m[2] == pytest.approx(3.0 * base_m[2], rel=1e-12)
    base_p = razavy1.wavefunctions_plus(x)
    scaled_p = razavy1.wavefunctions_plus(x, c1=-1.5, c2=0.25)
    assert scaled_p[0] == pytest.approx(-1.5 * base_p[0], rel=1e-12)
    assert scaled_p[1] == pytest.approx(0.25 * base_p[1], rel=1e-12)


def test_schrodinger_residuals(razavy1):
    n = 512
    xs = np.arange(n) * (TWO_PI / n)
    vm = np.array([razavy1.potentials(float(x))[0] for x in xs])
    vp = np.array([razavy1.potentials(float(x))[1] for x in xs])
    p0, p1, p2 = razavy1.wavefunctions_minus(xs)
    q1, q2 = razavy1.wavefunctions_plus(xs)
    cases = [
        (p0, 0.0, vm),
        (p1, 1.0, vm),
        (p2, 1.5, vm),
        (q1, 1.0, vp),
        (q2, 1.5, vp),
    ]
    for psi, energy, v in cases:
        res = -0.5 * spectral_derivative(psi, 2) + (v - energy) * psi
        assert np.max(np.abs(res)) < 1e-6 * np.max(np.abs(psi))


def test_intertwining(razavy1):
    """psi_n_plus is proportional to psi_n_minus' + W0 psi_n_minus."""
    n = 512
    xs = np.arange(n) * (TWO_PI / n)
    w0 = np.array([razavy1.superpotentials(float(x))[0].value for x in xs])
    _, p1, p2 = razavy1.wavefunctions_minus(xs)
    q1, q2 = razavy1.wavefunctions_plus(xs)
    for minus, plus in ((p1, q1), (p2, q2)):
        mapped = spectral_derivative(minus, 1) + w0 * minus
        c = float(np.dot(mapped, plus) / np.dot(plus, plus))
        assert np.max(np.abs(mapped - c * plus)) < 1e-7 * np.max(np.abs(mapped))


def test_wrap_periodicity(razavy1, beta_b0, beta_bnz, touch):
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        for x in (0.6, 2.9, 5.7):
            a = system.w_plus(x).value
            assert system.w_plus(x + L).value == pytest.approx(a, rel=1e-9)
            assert system.w_plus(x - L).value == pytest.approx(a, rel=1e-9)
            base_m = system.wavefunctions_minus(x)
            base_p = system.wavefunctions_plus(x)
            for shift in (L, -L):
                wrapped_m = system.wavefunctions_minus(x + shift)
                wrapped_p = system.wavefunctions_plus(x + shift)
                for a_, b_ in zip(base_m + base_p, wrapped_m + wrapped_p):
                    assert b_ == pytest.approx(a_, rel=1e-9, abs=1e-12)


def test_state_continuity_at_pole_windows(razavy1, beta_b0):
    # psi-1, psi-2 and psi+2 hand over from the weight formula to the
    # shifted local series where |x - q| = patch_halfwidth
    for system in (razavy1, beta_b0):
        h = system.patch_halfwidth
        states = {
            "w1": lambda x: system.wavefunctions_minus(x)[1:2],
            "w2": lambda x: system.wavefunctions_minus(x)[2:] + system.wavefunctions_plus(x)[1:],
        }
        for name, read in states.items():
            for q, _ in system.poles[name]:
                for side in (+1, -1):
                    inner = read(q + side * h * (1.0 - 1e-6))
                    outer = read(q + side * h * (1.0 + 1e-6))
                    for a, b in zip(inner, outer):
                        assert b == pytest.approx(a, rel=1e-6)


def test_seam_continuity(razavy1, beta_b0):
    # patch-local series and the direct stable form must agree where the
    # evaluation routes hand over, for every chain member and its slope
    for system in (razavy1, beta_b0):
        for patch in system.patches:
            r = patch.eval_halfwidth
            for side in (+1, -1):
                inner = system.chain(patch.x + side * r * (1.0 - 1e-7))
                outer = system.chain(patch.x + side * r * (1.0 + 1e-7))
                for a, b in zip(inner, outer):
                    for k in (0, 1):
                        want = a.derivative(k)
                        assert b.derivative(k) == pytest.approx(want, abs=1e-6 * max(1.0, abs(want)))


def test_log_weight_periodic(razavy1, beta_b0):
    # the pole-regularized integral of W_i over a whole period vanishes
    for system in (razavy1, beta_b0):
        L = system.period
        for i in range(3):
            for x in (0.4, 1.0, 2.6, 3.9, 5.5):
                base = system.log_weight(i, x)
                for shift in (L, -L):
                    assert system.log_weight(i, x + shift) == pytest.approx(base, rel=1e-9)


@pytest.fixture
def eval_jet_calls(monkeypatch):
    """Base points of every expr.eval_jet call made during the test."""
    calls = []
    original = expr.eval_jet

    def counting(e, x0, params, n=jets.N_COEFF):
        calls.append(x0)
        return original(e, x0, params, n)

    monkeypatch.setattr(expr, "eval_jet", counting)
    return calls


@pytest.fixture
def kernel_runs(monkeypatch):
    """(x, returned) for every run of a kernel recorded during the test:
    returned is False at a side exit or a raise."""
    runs = []
    trace = jets.trace

    def recording(fn, x):
        kernel = trace(fn, x)

        def counted(x):
            runs.append((x, False))
            got = kernel(x)
            runs[-1] = (x, got is not None)
            return got

        return counted

    monkeypatch.setattr(jets, "trace", recording)
    return runs


def test_one_u_jet_per_point(beta_b0, eval_jet_calls, kernel_runs):
    # away from patch windows and pole images every evaluator reads one
    # chain per point, built from a single jet of U: W one call per point,
    # the states each point exactly once across their calls
    xs = clean_points(beta_b0, 40)
    beta_b0.wavefunctions_minus(xs[0])  # assemble the tables first
    evaluators = {
        "psi-": lambda: beta_b0.wavefunctions_minus(np.array(xs)),
        "psi+": lambda: beta_b0.wavefunctions_plus(np.array(xs)),
        "psi- per point": lambda: [beta_b0.wavefunctions_minus(x) for x in xs],
        "W": lambda: [beta_b0.superpotentials(x) for x in xs],
    }
    for name, run in evaluators.items():
        eval_jet_calls.clear()
        run()
        seen = np.concatenate([np.atleast_1d(x0) for x0 in eval_jet_calls]).tolist()
        assert sorted(seen) == sorted(xs), name
        if name == "W":
            assert len(eval_jet_calls) == len(xs), name
    # V: each call returns from one recorded kernel or reads one U jet at
    # its point; each call that read one records a kernel from one more U
    # jet, traced at the same point, while its key has room
    beta_b0._kernels.clear()
    for x in xs:
        eval_jet_calls.clear()
        kernel_runs.clear()
        beta_b0.potentials(x)
        plain = [x0 for x0 in eval_jet_calls if not isinstance(x0, jets.Traced)]
        traced = [x0.value for x0 in eval_jet_calls if isinstance(x0, jets.Traced)]
        returned = [x0 for x0, ok in kernel_runs if ok]
        assert returned + plain == [x]
        assert traced in ([], plain)
    recorded = sum(len(k) for k in beta_b0._kernels.values())
    assert 0 < recorded < len(xs)


# the jet length of U each caller asks for: the orders the members it reads
# need (W+ and W~+ 2, W0, W1, W2 and g 3, h 4) plus one for a slope; the
# public jets and the zero-order probe take the full length, a patch's
# series solve its U_TAYLOR_TERMS, the scan grid U and U', and the root
# refinement and the periodicity and parity probes the value alone
STATED_U_TERMS = {
    "potentials": {4},
    "_regular_samples": {3},
    "_match_patches": {2, susy.U_TAYLOR_TERMS},
    "_verify_oddness": {2},
    "_is_breakpoint": {2},
    "_glue_preference": {3},
    "_zero_order": {jets.N_COEFF},
    "chain": {jets.N_COEFF},
    "w_plus": {jets.N_COEFF},
    "grid": {2},
    "value": {1},
    "check_admissibility": {1},
}


def test_callers_request_the_orders_they_read(monkeypatch):
    requested = {}
    original = expr.eval_jet
    # a recording traces potentials' own jet path: its U jet counts as potentials'
    plumbing = {"jet", "_direct_members", "_members", "<listcomp>", "_scalar_potentials", "trace"}

    def recording(e, x0, params, n=jets.N_COEFF):
        frame = sys._getframe(1)
        while frame.f_code.co_name in plumbing:
            frame = frame.f_back
        name = frame.f_code.co_name
        if name == "deriv":  # CompiledU.deriv(x, k) reads k + 1 coefficients
            name = f"deriv k={frame.f_locals['k']}"
        elif name == "evaluate":  # the states: psi- reads W+ and g, psi+ h
            name = f"evaluate {frame.f_locals['names']}"
        requested.setdefault(name, set()).add(n)
        return original(e, x0, params, n)

    monkeypatch.setattr(expr, "eval_jet", recording)
    system = construct(DETUNED, 2.8, 0.5, TWO_PI)
    xs = clean_points(system, 40)
    system.wavefunctions_minus(np.array(xs))
    system.wavefunctions_minus(xs[0])
    system.wavefunctions_plus(np.array(xs))
    system.potentials(xs[0])
    system.potentials(np.array(xs))
    system.superpotentials(xs[0])
    system.w_plus(xs[0])
    stated = dict(STATED_U_TERMS)
    stated.update({"deriv k=1": {2}, "deriv k=2": {3}, "deriv k=3": {4}})
    stated.update({"evaluate ['wp', 'g']": {3}, "evaluate ['h']": {4}})
    assert requested == stated
    assert list(system._kernels) == [(system.branch_map.sign_at(xs[0]), 4)]


def test_chain_carries_only_valid_coefficients(razavy1, beta_b0, beta_bnz, touch):
    # every coefficient a public chain jet carries is the one a U jet two
    # orders longer gives: none stands for an order differentiation cannot
    # know (x = 1 on the detuned member is where padding showed most)
    for system in (razavy1, beta_b0, beta_bnz, touch):
        xs = clean_points(system, 30) + [1.0]
        for x in xs:
            if not off_windows(system, x):
                continue
            chain = system.chain(x)
            longer = system._direct_members(x, susy._Chain._fields, system.branch_map.sign_at(x), jets.N_COEFF + 2)
            assert [len(j.coeffs) for j in chain] == [6, 6, 5, 5, 5, 5, 4]
            for short, long in zip(chain, longer):
                assert short.coeffs == long.coeffs[: len(short.coeffs)]


def test_validated_build_samples_discriminant_once(monkeypatch):
    # the admissibility report carries the S samples the construction reads
    calls = []
    original = validator.discriminant_samples

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(validator, "discriminant_samples", counting)
    construct(RAZAVY, 1.0, 0.5, TWO_PI)
    assert len(calls) == 1


def test_validated_build_samples_the_grid_once(eval_jet_calls):
    # the validator's scans and the construction read one batch jet of U
    # and U' on the scan grid
    construct(DETUNED, 2.8, 0.5, TWO_PI)
    grids = [x0 for x0 in eval_jet_calls if np.size(x0) == validator.GRID]
    assert len(grids) == 1


def test_each_patch_reads_one_long_u_jet(monkeypatch):
    # a patch's series solve reads its Taylor data from one jet of U
    calls = []
    original = expr.eval_jet

    def recording(e, x0, params, n=jets.N_COEFF):
        calls.append((x0, n))
        return original(e, x0, params, n)

    monkeypatch.setattr(expr, "eval_jet", recording)
    for u, e0, e1 in ((RAZAVY, 1.0, 0.5), (DETUNED, 8.0, 2.5)):
        calls.clear()
        system = construct(u, e0, e1, TWO_PI)
        long = [x0 for x0, n in calls if n == susy.U_TAYLOR_TERMS]
        assert long == [p.x for p in system.patches]


@pytest.mark.parametrize("u", ["cos(x)*1e-300", "sin(x)*1e-300", "1/sin(x)"])
def test_tiny_or_singular_u_raises_typed(u):
    # sign changes of values whose products underflow, and a pole on a
    # grid sample, end in a typed error, never a raw one from root finding
    with pytest.raises(QesError):
        construct(u, 1.0, 0.5, TWO_PI)


def test_assembly_samples_each_node_once(eval_jet_calls, monkeypatch):
    # the three chain members share their Chebyshev samples: the batched U
    # jets cover every node outside the patch windows exactly once
    nodes = []
    original = susy._cheb_fit

    def recording(f, n, lo, hi):
        def sample(xv):
            nodes.extend(xv.tolist())
            return f(xv)

        return original(sample, n, lo, hi)

    monkeypatch.setattr(susy, "_cheb_fit", recording)
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    eval_jet_calls.clear()
    system._ensure_assembly()
    seen = np.concatenate([np.atleast_1d(x0) for x0 in eval_jet_calls]).tolist()
    assert len(set(seen)) == len(seen)
    off_window = {x for x in nodes if off_windows(system, x)}
    assert off_window and set(seen) == off_window


def test_batched_window_lookup_matches_points(razavy1, beta_b0, beta_bnz, touch):
    # the locator's array lookup makes the scalar lookup's decision, offset
    # and sign at every point, edges of every window included, and both
    # make the per-point rule's
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        xs = [(k + 0.5) / 997 * L for k in range(997)]
        for p in system.patches:
            for f in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                xs += [p.x + f * p.eval_halfwidth, p.x - f * p.eval_halfwidth]
        xs = np.array([x % L for x in xs])
        where, side, sign, offset = system._locate(xs)
        for x, j, s, t in zip(xs.tolist(), where.tolist(), sign.tolist(), offset.tolist()):
            want, want_t = near_patch(system, x)
            assert system._locate(x)[0] == j == (-1 if want is None else want)
            assert s == system._locate(x)[2] == rule_sign(system, want, want_t, x)
            if want is not None:
                assert t == want_t == system._locate(x)[3]


def test_locator_decides_every_float_near_an_edge_as_the_rule_does(razavy1, beta_b0, beta_bnz, touch):
    # every float within 4 ulps of a window edge, a breakpoint or an interval
    # start of the locator, over three images: the scalar and array lookups
    # give the per-point rule's window, offset bits and sign
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        centres = [p.x + f * p.eval_halfwidth for p in system.patches for f in (-1.0, 0.0, 1.0)]
        centres += list(system.branch_map.breakpoints) + system._starts[:-1]
        xs = []
        for c in centres:
            for k in (-1, 0, 1):
                x = c + k * L
                for _ in range(4):
                    x = math.nextafter(x, -math.inf)
                for _ in range(9):
                    xs.append(x)
                    x = math.nextafter(x, math.inf)
        xr = susy._reduce(np.array(xs), L)
        where, side, sign, offset = system._locate(xr)
        want_where, want_offset = near_patches(system, xr)
        np.testing.assert_array_equal(where, want_where)
        assert offset[where >= 0].tobytes() == want_offset[where >= 0].tobytes()
        for x, j, s in zip(xs, where.tolist(), sign.tolist()):
            want, t = near_patch(system, x)
            got = system._locate(susy._reduce(x, L))
            assert got[0] == j == (-1 if want is None else want), x
            assert got[2] == s == rule_sign(system, want, t, susy._reduce(x, L)), x
            if want is not None:
                assert got[1] == (1 if t >= 0.0 else -1) and got[3].hex() == t.hex(), x


def test_batched_chain_matches_points(razavy1, beta_b0, beta_bnz, touch):
    # one batch through the stable form reproduces every per-point chain jet
    for system in (razavy1, beta_b0, beta_bnz, touch):
        xs = clean_points(system)
        signs = np.array([system.branch_map.sign_at(x) for x in xs])
        batch = system._direct_members(np.array(xs), susy._Chain._fields, signs)
        for k, x in enumerate(xs):
            for got, want in zip(batch, system.chain(x)):
                assert [float(np.broadcast_to(c, len(xs))[k]) for c in got.coeffs] == list(want.coeffs)


def test_oddness_probe_reports_negative_discriminant_like_scalar_probe():
    # S < 0 only part-way through the probe order; the batched probe must
    # name the point a per-point probe (a0, b0, a1, b1, ...) meets first
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    system.u = validator.CompiledU("2*sin(x)^2 + 0.05*cos(x)", 1.0, 0.5, TWO_PI)
    xm = system.midpoint
    first = None
    for t in np.linspace(0.0, 0.5 * TWO_PI, 514)[1:-1]:
        a, b = xm + t, xm - t
        if not (off_windows(system, a) and off_windows(system, b)):
            continue
        try:
            system.w_plus(a)
            system.w_plus(b)
        except NegativeDiscriminantError as exc:
            first = exc
            break
    assert first is not None and abs(first.x - xm) > 1.0
    with pytest.raises(NegativeDiscriminantError) as got:
        system._verify_oddness()
    assert (got.value.x, got.value.value) == (first.x, first.value)


def test_in_window_potentials_read_one_series(beta_b0):
    # V needs W0 alone: inside a window only the tables of W0's series and
    # of its slope are built, for a scalar point or a batch, once, and kept
    for patch in beta_b0.patches:
        beta_b0._series_tables.clear()
        x = patch.x + 0.5 * patch.eval_halfwidth
        beta_b0.potentials(x)
        kept = dict(beta_b0._series_tables)
        assert sorted(kept) == [("w0", "", None), ("w0", "slope", None)], patch.kind
        beta_b0.potentials(np.array([x, x - patch.eval_halfwidth]))
        beta_b0.potentials(x - patch.eval_halfwidth)
        assert beta_b0._series_tables == kept
        assert all(beta_b0._series_tables[key] is table for key, table in kept.items())


def test_in_window_potentials_follow_the_sign(beta_b0, touch):
    # each (side, sign) keeps its own W0 series: a scalar window point on
    # either branch, in any call order, gives what that branch's series
    # gives through LaurentPoly on a one-point array, bit for bit
    for system in (beta_b0, touch):
        for patch in system.patches:
            for side in (+1, -1):
                x = patch.x + side * 0.5 * patch.eval_halfwidth
                t = np.array([system._locate(susy._reduce(x, system.period))[3]])
                for sign in (None, +1, -1, None):
                    try:
                        got = system.potentials(x, sign)
                    except UnremovablePoleError:
                        continue
                    lp = system._active_local(patch, side, sign).w0.structurally_trimmed(1e-12)
                    w0 = LaurentPoly(0.0, lp.valuation, lp.coeffs)
                    want = susy._partner_potentials(w0(t), w0.derivative().trimmed()(t))
                    assert got == (float(want[0][0]), float(want[1][0])), (patch.kind, side, sign)


def test_scalar_series_sum_rounds_like_the_array_path():
    # scalar in-window V sums floats; it must round as LaurentPoly's numpy
    # call on a one-point array, whose power of the offset is numpy's
    # (reciprocal, square or its own pow), not libm's pow
    rng = np.random.default_rng(5)
    for valuation in (-2, -1, 0, 1, 2, 3):
        lp = LaurentPoly(0.0, valuation, tuple(rng.normal(size=6)))
        for t in rng.uniform(-0.05, 0.05, 2000) * 10.0 ** rng.uniform(-6, 0, 2000):
            assert susy._series_at(lp, float(t)) == float(lp(np.array([t]))[0]), valuation


def test_gathered_series_sum_rounds_like_each_rows_call(touch):
    # one Horner pass over gathered rows of unequal length, then one power
    # per distinct valuation: every point is what LaurentPoly's call on its
    # own row, valuation shifted, gives on the whole batch, bit for bit; a
    # row whose pole cannot cancel raises at its first point in batch order
    rng = np.random.default_rng(7)
    for sign in (None, +1, -1):
        for name in ("w0", "w2", "g", "h"):
            table = touch._series(name, "", sign)
            good = np.flatnonzero(~table.bad)
            rows = rng.choice(good, 400)
            t = rng.uniform(-0.05, 0.05, 400) * 10.0 ** rng.uniform(-8, 0, 400)
            t[:3] = (0.0, -0.0, 1e-100)
            shift = rng.choice([-1.0, 0.0, 1.0], 400)
            got = touch._sum(table, rows, t, shift)
            for g in set(rows.tolist()):
                on = rows == g
                for s in set(shift[on].tolist()):
                    lp = table.polys[g]
                    pick = on & (shift == s)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        want = LaurentPoly(0.0, lp.valuation - int(s), lp.coeffs)(t[pick])
                    assert got[pick].tobytes() == want.tobytes(), (name, sign, g, s)
            bad = np.flatnonzero(table.bad)
            if bad.size:
                rows = np.concatenate([good[:2], bad[::-1], good[:1]])
                with pytest.raises(UnremovablePoleError) as exc:
                    touch._sum(table, rows, np.full(rows.size, 1e-3))
                assert exc.value.x == touch.patches[bad[-1] // 2].x


def test_dropped_system_is_freed_without_cycle_collection():
    # the system and its state assembly form no reference cycle, so
    # reference counting alone frees them
    gc.disable()
    try:
        system = construct(DETUNED, 2.8, 0.5, TWO_PI)
        system.wavefunctions_minus(np.array([0.5, 2.0, math.pi]))
        system.wavefunctions_plus(1.0)
        system.potentials(1.0)
        system.integrate_superpotential(1, 0.1, 3.0)
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_state_continuity_at_breakpoints(razavy1):
    for x0 in (0.0, math.pi):
        left = razavy1.wavefunctions_minus(x0 - 1e-9)
        right = razavy1.wavefunctions_minus(x0 + 1e-9)
        for a, b in zip(left, right):
            assert b == pytest.approx(a, abs=1e-6)


# -- poles -------------------------------------------------------------------


def test_pole_registry_razavy(razavy1):
    assert razavy1.poles["w0"] == []
    w1 = sorted(razavy1.poles["w1"])
    w2 = sorted(razavy1.poles["w2"])
    assert len(w1) == 2 and len(w2) == 2
    assert w1[0][0] == pytest.approx(0.75 * math.pi, abs=1e-9)
    assert w1[1][0] == pytest.approx(1.25 * math.pi, abs=1e-9)
    assert all(r == -1.0 for _, r in w1)
    assert all(r == +1.0 for _, r in w2)
    assert [x for x, _ in w2] == pytest.approx([x for x, _ in w1])


def test_pole_registry_beta(beta_b0):
    assert beta_b0.poles["w0"] == []
    w1 = beta_b0.poles["w1"]
    w2 = beta_b0.poles["w2"]
    assert len(w1) == 4 and len(w2) == 4
    assert all(r == -1.0 for _, r in w1)
    assert all(r == +1.0 for _, r in w2)
    edges = {p.x for p in beta_b0.patches if p.kind == "upper_strip_edge"}
    for x, _ in w1 + w2:
        assert min(abs(x - e) for e in edges) < 1e-9


def test_exact_pole_hit(razavy1):
    x = 0.75 * math.pi
    w0, w1, w2 = razavy1.superpotentials(x)
    assert w0.value == pytest.approx(1.5, abs=1e-9)
    assert math.isinf(w1.value)
    assert math.isinf(w2.value)
    vm, vp = razavy1.potentials(x)  # both partner potentials stay finite
    assert math.isfinite(vm) and math.isfinite(vp)
    for val in razavy1.wavefunctions_minus(x) + razavy1.wavefunctions_plus(x):
        assert math.isfinite(val)


# -- midpoint jump of the detuned member -------------------------------------


def test_b_nonzero_midpoint_jump(beta_bnz):
    e0, e1 = 3.2, 0.5
    u4 = beta_bnz.u.jet(math.pi).derivative(4)
    b_const = 0.25 * math.sqrt(32.0 * (e0 - e1) + u4 / (2.0 * e0 * e1))
    assert b_const == pytest.approx(math.sqrt(0.8), abs=1e-9)
    # one-sided limits W0 -> +B from the left, -B from the right; exactly at
    # the midpoint the right-side local data answers
    assert beta_bnz.superpotentials(math.pi)[0].value == pytest.approx(-b_const, abs=1e-12)
    left = beta_bnz.superpotentials(math.pi - 1e-6)
    right = beta_bnz.superpotentials(math.pi + 1e-6)
    assert left[0].value == pytest.approx(+b_const, abs=1e-5)
    assert right[0].value == pytest.approx(-b_const, abs=1e-5)
    assert left[1].value == pytest.approx(-b_const, abs=1e-5)
    assert right[1].value == pytest.approx(+b_const, abs=1e-5)
    assert left[2].value == pytest.approx(+b_const, abs=1e-5)
    assert right[2].value == pytest.approx(-b_const, abs=1e-5)


def test_b_zero_midpoint_continuous(beta_b0):
    left = beta_b0.superpotentials(math.pi - 1e-6)[0].value
    right = beta_b0.superpotentials(math.pi + 1e-6)[0].value
    assert abs(left) < 1e-4 and abs(right) < 1e-4


# -- lower-edge touch member -------------------------------------------------


def test_touch_member_structure(touch):
    assert touch.report is not None and touch.report.passed
    bm = touch.branch_map
    want = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
    assert len(bm.breakpoints) == 4
    for got, expect in zip(bm.breakpoints, want):
        assert got == pytest.approx(expect, abs=1e-8)
    # signs must flip at every breakpoint; either global orientation is fine
    assert tuple(bm.signs) in ((1, -1, 1, -1), (-1, 1, -1, 1))
    lower = [p for p in touch.patches if p.kind == "lower_strip_edge"]
    assert len(lower) == 2
    assert all(not p.vplus_pole for p in lower)
    assert touch.poles["w0"] == []
    w2 = {round(x, 9): r for x, r in touch.poles["w2"]}
    assert w2[round(0.5 * math.pi, 9)] == -1.0
    assert w2[round(1.5 * math.pi, 9)] == -1.0


def test_touch_member_local_behaviour(touch):
    # local data at the touch: U = -16 + 112 t^2 - (400/3) t^4, so the branch
    # vanishing with slope +2*eps0 = 16 continues with c3 = 256/21, giving
    # W0'(pi/2) = 8 - 3*c3/32 = 48/7 and V-(pi/2) = -W0'/2 = -24/7
    x = 0.5 * math.pi
    wp = touch.w_plus(x)
    assert abs(wp.value) < 1e-9
    assert wp.derivative(1) == pytest.approx(16.0, abs=1e-6)
    for t in (-2e-3, -1e-3, 1e-3, 2e-3):
        val = touch.w_plus(x + t).value
        assert val == pytest.approx(16.0 * t, rel=1e-3)
    vm, vp_ = touch.potentials(x)
    assert vm == pytest.approx(-24.0 / 7.0, abs=1e-9)
    assert vp_ == pytest.approx(+24.0 / 7.0, abs=1e-9)
    # the partner branch vanishes with slope -16/3, which no chain member
    # can absorb; it stays stored and only raises when actually selected
    with pytest.raises(UnremovablePoleError):
        touch.superpotentials(x + 1e-4, sign=touch.branch_map.sign_at(x - 1e-4))
    with pytest.raises(UnremovablePoleError):
        touch.superpotentials(x - 1e-4, sign=touch.branch_map.sign_at(x + 1e-4))


def test_vplus_pole_flag_raises(touch):
    patch = next(p for p in touch.patches if p.kind == "lower_strip_edge")
    assert not patch.vplus_pole
    patch.vplus_pole = True
    try:
        with pytest.raises(VplusPoleError):
            touch.potentials(patch.x)
        with pytest.raises(VplusPoleError):
            touch.potentials(np.array([1.0, patch.x + touch.period, 2.0]))
        touch.potentials(np.array([1.0, patch.x + 1e-6]))  # only exact hits raise
    finally:
        patch.vplus_pole = False
    touch.potentials(patch.x)  # healthy again


def test_nan_points_read_nan_off_the_windows(razavy1):
    # a NaN sorts past every start of the locator, onto the direct arc the
    # branch map's bisect gives it, so the scalar evaluators and the states
    # read NaN there
    x = np.array([math.nan, 1.0])
    assert razavy1._locate(math.nan)[:3] == (-1, 0, razavy1.branch_map.signs[-1])
    assert np.isnan(razavy1.potentials(math.nan)).all() and np.isnan(razavy1.w_plus(math.nan).value)
    for got in razavy1.wavefunctions_minus(x) + razavy1.wavefunctions_plus(x):
        assert np.isnan(got[0]) and np.isfinite(got[1])


def test_window_potentials_raise_as_a_pass_patch_by_patch(touch):
    # on an overridden sign a side of each lower-edge patch keeps a pole that
    # cannot cancel; a batch meeting both, the later patch first, raises at
    # the earlier one, and a V+ pole hit raises before its own patch's sides
    for sign in (+1, -1):
        rows = np.flatnonzero(touch._series("w0", "", sign).bad).tolist()
        patches = [touch.patches[g // 2] for g in rows]
        xs = [p.x + (0.5 if g % 2 == 0 else -0.5) * p.eval_halfwidth for p, g in zip(patches, rows)]
        assert len({p.x for p in patches}) == 2
        with pytest.raises(UnremovablePoleError) as exc:
            touch.potentials(np.array(xs[::-1]), sign)
        assert exc.value.x == patches[0].x
        for p, want in ((patches[1], UnremovablePoleError), (patches[0], VplusPoleError)):
            p.vplus_pole = True
            try:
                with pytest.raises(want) as exc:
                    touch.potentials(np.array([xs[1], patches[1].x, xs[0], patches[0].x]), sign)
            finally:
                p.vplus_pole = False
            assert exc.value.x == patches[0].x


def test_off_window_potentials_stop_at_w0(beta_b0, monkeypatch, kernel_runs):
    # V reads W0 alone: outside the windows the chain stops before W~+,
    # g and h, on the jet path and in every recording, and W0 is the full
    # chain's bit for bit
    xs = clean_points(beta_b0, 40)
    want = [beta_b0.chain(x).w0 for x in xs]
    built = []
    chain = susy._chain

    def recording(*args):
        built.append(chain(*args))
        return built[-1]

    monkeypatch.setattr(susy, "_chain", recording)
    beta_b0._kernels.clear()
    v = [beta_b0.potentials(x) for x in xs]
    batch = beta_b0.potentials(np.array(xs))
    got = [beta_b0._members(x, ("w0",))[0] for x in xs]
    traced = [c for c in built if isinstance(c.wp.x0, jets.Traced)]
    returned = sum(ok for _, ok in kernel_runs)
    assert 0 < len(traced) == sum(len(k) for k in beta_b0._kernels.values())
    assert 0 < returned < len(xs)
    # each V call not returned by a kernel, each _members call and the batch
    assert len(built) - len(traced) == (len(xs) - returned) + len(xs) + 1
    assert all(c.w0 is not None and c.wt is None for c in built)
    for w0, jet, (vm, vp) in zip(want, got, v):
        assert jet.coeffs == w0.coeffs
        assert (vm, vp) == (0.5 * (w0.value**2 - w0.derivative(1)), 0.5 * (w0.value**2 + w0.derivative(1)))
    np.testing.assert_array_equal(np.array(batch), np.array(v).T)


def _jet_path_potentials(system, x, sign=None):
    """Off-window V through the jets alone: W0 and its slope from one U jet
    of 4 coefficients."""
    sign = system.branch_map.sign_at(x) if sign is None else sign
    w0 = system._direct_members(susy._reduce(x, system.period), ("w0",), sign, 4)[0]
    return susy._partner_potentials(w0.value, w0.derivative(1))


def _outcome(fn, *args):
    """The float bytes fn returns, or the class and message it raises."""
    try:
        return tuple(float(v).hex() for v in fn(*args))
    except QesError as exc:
        return type(exc), str(exc)


def test_kernel_potentials_match_the_jet_path(razavy1, beta_b0, beta_bnz, touch, kernel_runs):
    # off the windows a scalar V from the recorded kernels is the jet path's,
    # bit for bit: seeded points over three periods, both sides of every
    # window edge, 0 and pi/2 with their images, on the sign-map branch and
    # on either override
    rng = np.random.default_rng(1018)
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        system._kernels.clear()
        xs = []
        while len(xs) < 2000:
            x = float(rng.uniform(-L, 2.0 * L))
            if off_windows(system, x):
                xs.append(x)
        for p in system.patches:
            for f in (1.0 - 1e-12, 1.0 + 1e-12):
                xs += [p.x + f * p.eval_halfwidth, p.x - f * p.eval_halfwidth]
        for x in (0.0, 0.5 * math.pi):
            xs += [x - L, x, x + L]
        xs = [x for x in xs if off_windows(system, x)]
        kernel_runs.clear()
        for sign in (None, +1, -1):
            for x in xs:
                want = _outcome(_jet_path_potentials, system, x, sign)
                assert _outcome(system.potentials, x, sign) == want, (x, sign)
        assert sum(ok for _, ok in kernel_runs) > 0.99 * 3 * len(xs)
        assert all(len(k) <= susy.KERNELS_PER_KEY for k in system._kernels.values())


def test_kernels_inline_single_use_temporaries(touch, monkeypatch):
    # a W0 kernel writes each arithmetic temporary read once into the
    # expression reading it: over 3x fewer statements than one per recorded
    # operation (compile time, and each run's loads and stores), same floats
    fn = partial(touch._direct_members, names=("w0",), sign=+1, n=4)
    inlined = jets.trace(fn, 1.0)
    monkeypatch.setattr(jets, "INLINE_DEPTH", 0)  # nothing nests: a statement per operation
    flat = jets.trace(fn, 1.0)

    def statements(kernel):
        return len(kernel.source.splitlines()) - 2

    assert statements(inlined) <= 70 and 3 * statements(inlined) < statements(flat)
    assert inlined.source.count("if ") == flat.source.count("if ")  # every guard stays
    for x in np.linspace(0.2, 2.9, 55).tolist():
        got, want = inlined(x), flat(x)
        assert (got is None) == (want is None)
        if got is not None:
            assert [[c.hex() for c in row] for row in got] == [[c.hex() for c in row] for row in want]


def test_kernel_side_exits_where_the_form_flips(kernel_runs):
    # the stable form of W+ depends on sign * U'; a kernel recorded on one
    # form side-exits on the other, whose point gets the jet path's value
    # and records the second kernel of its key
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI)
    x1, x2 = 1.0, 2.0
    sign = system.branch_map.sign_at(x1)
    assert system.branch_map.sign_at(x2) == sign
    assert (sign * system.u.deriv(x1) >= 0.0) != (sign * system.u.deriv(x2) >= 0.0)
    system.potentials(x1)
    assert system.potentials(x1) == _jet_path_potentials(system, x1)
    assert kernel_runs == [(x1, True)]
    got = system.potentials(x2)
    assert kernel_runs[1] == (x2, False)
    assert _outcome(lambda: got) == _outcome(_jet_path_potentials, system, x2)
    assert len(system._kernels[(sign, 4)]) == 2
    kernel_runs.clear()
    assert system.potentials(x2) == got and kernel_runs[-1] == (x2, True)


def test_kernels_per_key_stay_within_the_bound(monkeypatch):
    # with room for one kernel the other form's points take the jet path
    monkeypatch.setattr(susy, "KERNELS_PER_KEY", 1)
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI)
    for x in (1.0, 2.0, 1.1, 2.1, 1.2, 2.2):
        assert system.potentials(x) == _jet_path_potentials(system, x)
    assert [len(k) for k in system._kernels.values()] == [1]


@pytest.mark.parametrize(
    "u, good, bad, error",
    [
        ("2*sin(x)^2 + 0.01*sqrt(x - 2)", 2.5, 1.5, DomainEvaluationError),  # sqrt of a negative
        ("2*sin(x)^2 + 0.01/(x - 2)", 2.5, 2.0, DomainEvaluationError),  # division by zero
        ("2*sin(x)^2 + 0.05*cos(x)", 1.0, None, NegativeDiscriminantError),
        ("2*sin(x)^2 + exp(300*x)", 0.5, 3.0, OverflowError),
    ],
)
def test_kernel_leaves_errors_to_the_jet_path(u, good, bad, error, kernel_runs):
    # a kernel side-exits (or fails) before a point the jets cannot
    # evaluate; the jet path then raises there as it always did
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI, validate=False)
    system.u = validator.CompiledU(u, 1.0, 0.5, TWO_PI)
    if bad is None:  # the first probe point off the windows where S < 0
        for bad in np.linspace(0.0, TWO_PI, 1001).tolist():
            if off_windows(system, bad):
                try:
                    _jet_path_potentials(system, bad)
                except error:
                    break
    assert off_windows(system, bad) and system.branch_map.sign_at(bad) == system.branch_map.sign_at(good)
    system.potentials(good)
    with pytest.raises(error) as want:
        _jet_path_potentials(system, bad)
    with pytest.raises(error) as got:
        system.potentials(bad)
    assert str(got.value) == str(want.value)
    assert kernel_runs == [(bad, False)] and sum(len(k) for k in system._kernels.values()) == 1


def test_unremovable_pole_error_leaves_no_cycle():
    # each raise is a fresh error, so no stored traceback ties the system
    # to its own frames
    gc.disable()
    try:
        system = construct(DETUNED, 8.0, 2.5, TWO_PI)
        x = 0.5 * math.pi
        try:
            system.superpotentials(x + 1e-4, sign=system.branch_map.sign_at(x - 1e-4))
        except UnremovablePoleError:
            pass
        else:
            pytest.fail("the unremovable branch evaluated")
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        gc.enable()


# -- evaluation -------------------------------------------------------------


def test_array_evaluation_matches_scalars(razavy1):
    xs = np.array([0.5, 1.7, 4.2, 6.1])
    trio = razavy1.wavefunctions_minus(xs)
    duo = razavy1.wavefunctions_plus(xs)
    assert all(arr.shape == xs.shape for arr in trio + duo)
    for i, x in enumerate(xs):
        for j, val in enumerate(razavy1.wavefunctions_minus(float(x))):
            assert trio[j][i] == pytest.approx(val, rel=1e-12, abs=1e-15)
        for j, val in enumerate(razavy1.wavefunctions_plus(float(x))):
            assert duo[j][i] == pytest.approx(val, rel=1e-12, abs=1e-15)


def test_batch_equals_batches_of_one(razavy1, beta_b0, touch):
    # window centres and edges, exact pole hits and +-L images included;
    # array V equals the scalar loop bit for bit
    for system in (razavy1, beta_b0, touch):
        L = system.period
        xs = [(k + 0.5) / 31 * L for k in range(31)]
        for p in system.patches:
            for r in (p.eval_halfwidth, system.patch_halfwidth):
                for f in (0.0, 1.0 - 1e-12, 1.0 + 1e-12):
                    xs += [p.x + f * r, p.x - f * r]
        xs += [q for name in susy.CHAIN_NAMES for q, _ in system.poles[name]]
        xs = np.concatenate([xs, np.add(xs, L), np.subtract(xs, L)])
        batch = system.wavefunctions_minus(xs) + system.wavefunctions_plus(xs)
        ones = np.array([system.wavefunctions_minus(x) + system.wavefunctions_plus(x) for x in xs])
        np.testing.assert_array_equal(np.array(batch), ones.T)
        vm, vp = system.potentials(xs)
        loop = np.array([system.potentials(float(x)) for x in xs])
        np.testing.assert_array_equal(np.array([vm, vp]), loop.T)
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert all(a.shape == (2, 3) for a in razavy1.potentials(grid) + razavy1.wavefunctions_plus(grid))


def test_grid_states_skip_scalar_paths(beta_b0, eval_jet_calls, monkeypatch):
    # a 512-point grid reads every table in per-segment batches, never one
    # point at a time, and takes one U jet batch per state call
    beta_b0.wavefunctions_minus(beta_b0.midpoint)
    scalar_reads = []
    cheb_call = Chebyshev.__call__
    clenshaw = susy._clenshaw

    def reading(table, arg):
        scalar_reads.append(np.ndim(arg) == 0)
        return cheb_call(table, arg)

    def python_sum(c, y):
        scalar_reads.append(True)
        return clenshaw(c, y)

    monkeypatch.setattr(Chebyshev, "__call__", reading)
    monkeypatch.setattr(susy, "_clenshaw", python_sum)
    xs = 0.1 + np.arange(512) * (TWO_PI / 512)
    eval_jet_calls.clear()
    beta_b0.wavefunctions_minus(xs)
    beta_b0.wavefunctions_plus(xs)
    assert not any(scalar_reads)
    assert len(eval_jet_calls) == 2


# -- construction without repeated work ------------------------------------


def _accidental_zeros_per_sample(sv, period, s_scale):
    """ConstructedSystem._accidental_discriminant_zeros one Python step per
    sample: the oracle for its array form."""
    n = len(sv)
    out = []
    av = np.abs(sv)
    tiny = av < 1e-9 * s_scale
    idx = np.nonzero(tiny)[0]
    if idx.size and idx.size < n:
        runs = []
        start = prev = int(idx[0])
        for i in idx[1:]:
            i = int(i)
            if i == prev + 1:
                prev = i
                continue
            runs.append((start, prev))
            start = prev = i
        runs.append((start, prev))
        if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
            head = runs[0]
            runs = runs[1:-1] + [(runs[-1][0], head[1] + n)]
        for (a, b) in runs:
            imin = min(range(a, b + 1), key=lambda i: av[i % n]) % n
            out.append(imin * period / n)
    for i in range(n):
        if sv[i] * sv[(i + 1) % n] < 0 and not (tiny[i] or tiny[(i + 1) % n]):
            out.append((i + 0.5) * period / n)
    return sorted(out)


def test_accidental_zeros_match_per_sample_scan(razavy1, beta_b0, touch):
    rng = np.random.default_rng(5)
    cases = [s._s_samples for s in (razavy1, beta_b0, touch)]
    for k in range(40):
        # sign changes, runs of roundoff-sized samples, exact zeros, and a
        # flat run (tied smallest samples) that wraps around the end or not
        sv = rng.normal(size=256) * rng.choice((1.0, 1e-12), size=256, p=(0.8, 0.2))
        sv[rng.integers(0, 256, 3)] = 0.0
        sv[np.arange(-3, 3) + 128 * (k % 2)] = 1e-13
        cases.append(sv)
    cases.append(np.full(64, 1e-13))  # tiny everywhere: no run
    for sv in cases:
        scale = max(float(np.max(np.abs(sv))), 1.0)
        system = type("S", (), {"_s_samples": sv, "period": TWO_PI, "_s_scale": scale})()
        got = susy.ConstructedSystem._accidental_discriminant_zeros(system)
        assert [type(x).__name__ + x.hex() for x in got] == [
            type(x).__name__ + x.hex() for x in _accidental_zeros_per_sample(sv, TWO_PI, scale)
        ]


def test_match_patches_builds_one_chain_per_chosen_candidate(monkeypatch):
    calls = []
    chain = susy._chain

    def counted(wp, *args, **kwargs):
        if isinstance(wp, LaurentPoly):
            calls.append(wp)
        return chain(wp, *args, **kwargs)

    monkeypatch.setattr(susy, "_chain", counted)
    for u, e0, e1 in ((RAZAVY, 1.0, 0.5), (DETUNED, 2.8, 0.5), (DETUNED, 8.0, 2.5)):
        calls.clear()
        system = construct(u, e0, e1, TWO_PI)
        chosen = 0
        for patch in system.patches:
            picked = {}  # W+ series -> the chain its (side, sign) pairs share
            for got in patch.branches.values():
                if not isinstance(got, str):
                    assert picked.setdefault((got.wp.valuation, got.wp.coeffs), got) is got
            chosen += len(picked)
        assert len(calls) == chosen < 4 * len(system.patches)


def _regular_samples_per_point(assembly, xs):
    """_StateAssembly._regular_samples with one Python step per window
    point: the oracle for its grouped form."""
    sysm = assembly.sys
    out = np.empty((len(susy.CHAIN_NAMES), xs.size))
    window, offset = near_patches(sysm, xs)
    direct = window < 0
    if direct.any():
        xd = xs[direct]
        chain = sysm._direct_members(xd, susy.CHAIN_NAMES, np.array([sysm.branch_map.sign_at(v) for v in xd]), 3)
        for i, jet in enumerate(chain):
            v = jet.value
            for (q, rho) in assembly.images[i]:
                v = v - rho / (xd - q)
            out[i, direct] = v
    for k in np.flatnonzero(~direct):
        x, t = xs[k], offset[k]
        loc = sysm._active_local(sysm.patches[window[k]], +1 if t >= 0.0 else -1)
        for i, name in enumerate(susy.CHAIN_NAMES):
            lp = getattr(loc, name).structurally_trimmed(1e-12).regular_part()
            v = float(lp(lp.x0 + t))
            for (q, rho) in assembly.images[i]:
                if abs(q - (x - t)) >= 1e-9:
                    v -= rho / (x - q)
            out[i, k] = v
    return out


def test_regular_samples_match_per_point(razavy1, beta_b0, beta_bnz, touch):
    for system in (razavy1, beta_b0, beta_bnz, touch):
        assembly = system._ensure_assembly()
        xs = [np.linspace(0.0, system.period, 301)]
        for p in system.patches:  # both sides of every window, its centre and edges
            t = np.linspace(-p.eval_halfwidth, p.eval_halfwidth, 41)
            xs.append(np.clip(p.x + t, 0.0, system.period))
        xs = np.concatenate(xs)
        assert assembly._regular_samples(xs).tobytes() == _regular_samples_per_point(assembly, xs).tobytes()


# -- rejection paths ---------------------------------------------------------


def test_inadmissible_input_raises_with_report():
    with pytest.raises(InadmissibleInputError) as exc:
        construct("sin(x)", 1.0, 0.5, TWO_PI)
    assert exc.value.report is not None
    assert not exc.value.report.passed


def test_untuned_lower_touch_is_rejected():
    # detuned (5.0, 2.5) touches U = -2*eps0 where no W+ branch can vanish
    # with slope +-2*eps0; the validator says so before construction
    with pytest.raises(InadmissibleInputError) as exc:
        construct(DETUNED, 5.0, 2.5, TWO_PI)
    assert "lower_touch_curvature" in str(exc.value)


def test_unremovable_pole_vanishing_slope():
    # both midpoint branches of 2.5*sin(x)^2 vanish with slopes outside
    # {+2*eps0, -2*eps0}
    with pytest.raises(UnremovablePoleError):
        construct("2.5*sin(x)^2", 1.0, 0.5, TWO_PI, validate=False)


def test_patch_failure_complex_branches():
    with pytest.raises(PatchFailureError):
        construct("1.5*sin(x)^2", 1.0, 0.5, TWO_PI, validate=False)


def test_branch_inconsistency_without_symmetry():
    with pytest.raises(BranchInconsistencyError):
        construct(RAZAVY + "+0.1*sin(x)", 1.0, 0.5, TWO_PI, validate=False)
