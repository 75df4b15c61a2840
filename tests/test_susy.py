"""Construction pipeline: branch-resolved W+, the three-member superpotential
chain, partner potentials, and the five closed-form states.

Frozen numbers are either hand-derived from the branch quadratic
(U - 2*eps1) W^2 + U' W - U (U + 2*eps0) = 0 or checked against the known
closed forms of the trigonometric double-well member (eps0 = 1)."""

import gc
import math
import weakref

import numpy as np
import pytest

from qesforge import expr, susy, validator
from qesforge.errors import (
    BranchInconsistencyError,
    InadmissibleInputError,
    NegativeDiscriminantError,
    PatchFailureError,
    UnremovablePoleError,
    VplusPoleError,
)
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


def test_psi0_is_w0_exponential(razavy1):
    for a, b in ((0.9, 2.3), (math.pi, 5.0), (0.3, 5.9)):
        pa = razavy1.wavefunctions_minus(a)[0]
        pb = razavy1.wavefunctions_minus(b)[0]
        integral = razavy1.integrate_superpotential(0, a, b)
        assert pb / pa == pytest.approx(math.exp(-integral), rel=1e-8)


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

    def counting(e, x0, params):
        calls.append(x0)
        return original(e, x0, params)

    monkeypatch.setattr(expr, "eval_jet", counting)
    return calls


def test_one_u_jet_per_point(beta_b0, eval_jet_calls):
    # away from patch windows and pole images every evaluator reads one
    # chain, built from a single jet of U
    xs = clean_points(beta_b0, 40)
    beta_b0.wavefunctions_minus(xs[0])  # assemble the tables first
    evaluators = {
        "psi-": lambda: beta_b0.wavefunctions_minus(np.array(xs)),
        "psi+": lambda: beta_b0.wavefunctions_plus(np.array(xs)),
        "V": lambda: [beta_b0.potentials(x) for x in xs],
        "W": lambda: [beta_b0.superpotentials(x) for x in xs],
    }
    for name, run in evaluators.items():
        eval_jet_calls.clear()
        run()
        assert len(eval_jet_calls) == len(xs), name


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
    off_window = {x for x in nodes if system._near_patch(x)[0] is None}
    assert off_window and set(seen) == off_window


def test_batched_window_lookup_matches_points(razavy1, beta_b0, beta_bnz, touch):
    # the batch paths split window points from direct ones exactly as the
    # per-point lookup does, edges of every window included
    for system in (razavy1, beta_b0, beta_bnz, touch):
        L = system.period
        xs = [(k + 0.5) / 997 * L for k in range(997)]
        for p in system.patches:
            for f in (0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12):
                xs += [p.x + f * p.eval_halfwidth, p.x - f * p.eval_halfwidth]
        xs = np.array([x % L for x in xs])
        where, offset = system._near_patches(xs)
        for x, j, t in zip(xs, where, offset):
            patch, want = system._near_patch(x)
            assert (j < 0) == (patch is None)
            if patch is not None:
                assert system.patches[j] is patch and t == want


def test_batched_chain_matches_points(razavy1, beta_b0, beta_bnz, touch):
    # one batch through the stable form reproduces every per-point chain jet
    for system in (razavy1, beta_b0, beta_bnz, touch):
        xs = clean_points(system)
        batch = system._direct_chain(np.array(xs))
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
        if system._near_patch(a)[0] is not None or system._near_patch(b)[0] is not None:
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


def test_in_window_potentials_read_one_series(beta_b0, monkeypatch):
    # V needs W0 alone: inside a window no other member's series is evaluated
    calls = []
    original = susy.ConstructedSystem._local_jet

    def counting(lp, t, x):
        calls.append(lp)
        return original(lp, t, x)

    monkeypatch.setattr(susy.ConstructedSystem, "_local_jet", staticmethod(counting))
    for patch in beta_b0.patches:
        calls.clear()
        beta_b0.potentials(patch.x + 0.5 * patch.eval_halfwidth)
        assert len(calls) == 1, patch.kind


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
    finally:
        patch.vplus_pole = False
    touch.potentials(patch.x)  # healthy again


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


# -- rejection paths ---------------------------------------------------------


def test_inadmissible_input_raises_with_report():
    with pytest.raises(InadmissibleInputError) as exc:
        construct("sin(x)", 1.0, 0.5, TWO_PI)
    assert exc.value.report is not None
    assert not exc.value.report.passed


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
