"""Construction in one batch per phase.

The seam match, the branch map and the first rung of the antiderivative
ladder each read one batch where a per-point pass takes one call per
patch, side, sign or segment, and a patch expands the Laurent chain of a
branch off the sign map only when something reads it.  Each batch is
checked here against the per-point path bit for bit, on every member of
the benchmark's family-scan grid that builds and on its dense-grid members.
"""

import itertools
import math
import re

import numpy as np
import pytest

from qesforge import local_series, susy
from qesforge.errors import InadmissibleInputError, QesError, QuadratureNonconvergenceError, UnremovablePoleError
from qesforge.local_series import LaurentPoly

TWO_PI = 2.0 * math.pi
DETUNED = "4*eps0*eps1*sin(x)^2*((1-{a})+{a}*cos(2*x))"
# the family-scan grid a x eps0 x eps1 (13 of its 24 members build) and
# the dense-grid members, Razavy (1.0, 0.5) among the 13
SCAN_GRID = list(itertools.product((0.0, 0.2, 0.4, 0.6), (1.0, 3.2, 5.0), (0.5, 2.5)))
DENSE_MEMBERS = [(0.0, 1.0, 0.5), (0.6, 2.8, 0.5), (0.6, 8.0, 2.5)]
SIDE_SIGNS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))  # a patch's (side, sign) keys


def build(a, eps0, eps1):
    return susy.construct(DETUNED.format(a=a), eps0, eps1, TWO_PI)


def build_members():
    """Every scan-grid member that builds, then the two other dense-grid
    members, each freshly constructed."""
    out = {}
    for member in dict.fromkeys(SCAN_GRID + DENSE_MEMBERS):
        try:
            out[member] = build(*member)
        except InadmissibleInputError:
            continue
    assert len(out) == 15
    return out


@pytest.fixture(scope="module")
def members():
    return build_members()


def per_point_pick(system, candidates, x, sign):
    """The branch a per-point match stores for the seam point x and a sign:
    the candidate closest to the stable form there, from one U jet at x
    and one call of each candidate at x, or why its chain pole cannot
    cancel."""
    e0 = system.pair.eps0
    target = system._w_direct(system.u.jet(susy._reduce(x, system.period), 2), sign).value
    errs = [abs(cand(x) - target) for cand in candidates]
    assert min(errs) <= susy.SEAM_TOL * max(1.0, abs(target))
    pick = candidates[errs.index(min(errs))]
    lead = pick.structurally_trimmed(1e-9)
    slope, tol = lead.coeff(1), 1e-6 * max(1.0, 2.0 * e0)
    if lead.valuation >= 1 and abs(slope - 2.0 * e0) > tol and abs(slope + 2.0 * e0) > tol:
        return f"W+ vanishes with slope {slope:.6g} outside {{+2*eps0, -2*eps0}}; the chain pole cannot cancel"
    return pick


def test_seam_batch_equals_the_per_point_path(members):
    for member, system in members.items():
        e0, e1 = system.pair.eps0, system.pair.eps1
        seams = [p.x + side * system.patch_halfwidth for p in system.patches for side in (+1, -1)]
        u = system.u.jet(susy._reduce(np.array(seams), system.period), 2)
        for sign in (+1, -1):
            ones = [system._w_direct(system.u.jet(susy._reduce(x, system.period), 2), sign).value for x in seams]
            np.testing.assert_array_equal(system._w_direct(u, sign).value, ones)
        for k, patch in enumerate(system.patches):
            uc = system.u.jet(patch.x, susy.U_TAYLOR_TERMS).coeffs
            candidates = local_series.taylor_branches(patch.x, uc, e0, e1, n_coeffs=susy.LOCAL_COEFFS)
            pair = seams[2 * k : 2 * k + 2]
            for cand in candidates:
                np.testing.assert_array_equal(cand(np.array(pair)), [cand(x) for x in pair])
            for x, side in zip(pair, (+1, -1)):
                for sign in (+1, -1):
                    want, got = per_point_pick(system, candidates, x, sign), patch.branches[(side, sign)]
                    if isinstance(want, str):
                        assert got == want, (member, patch.x, side, sign)
                    else:
                        assert (got.wp.valuation, got.wp.coeffs) == (want.valuation, want.coeffs)


def test_branch_map_batches_equal_the_per_point_path(members):
    for system in members.values():
        xs = system._patch_xs
        assert system._is_breakpoint(xs) == [breakpoint_per_point(system, x) for x in xs]
        bps = list(system.branch_map.breakpoints)
        assert system._glue_preference(bps) == [glue_per_point(system, b) for b in bps]


def breakpoint_per_point(system, x):
    """_is_breakpoint at one point, from a scalar jet."""
    u, up = system.u.jet(x, 2).coeffs
    return abs(susy.stable_discriminant(u, up, system.pair.eps0, system.pair.eps1)) <= 1e-8 * system._s_scale


def glue_per_point(system, b):
    """_glue_preference at one breakpoint from scalar jets, one per side."""
    d = system.patch_halfwidth
    ul = system.u.jet(susy._reduce(b - d, system.period), 3)
    ur = system.u.jet(susy._reduce(b + d, system.period), 3)
    out = {}
    for sl in (+1, -1):
        jl = system._w_direct(ul, sl)
        grow = jl.value + 2.0 * d * jl.derivative(1)
        for sr in (+1, -1):
            jr = system._w_direct(ur, sr)
            out[(sl, sr)] = abs(jr.value - grow) + 2.0 * d * abs(jr.derivative(1) - jl.derivative(1))
    same, flip = max(out[(+1, +1)], out[(-1, -1)]), max(out[(+1, -1)], out[(-1, +1)])
    return -1 if 10.0 * flip <= same else +1 if 10.0 * same <= flip else None


def series(lp):
    return lp.valuation, lp.coeffs


def test_every_chain_read_through_local_is_its_candidates_chain(members):
    for system in members.values():
        for patch in system.patches:
            uc = system.u.jet(patch.x, susy.U_TAYLOR_TERMS).coeffs
            u_loc = LaurentPoly(patch.x, 0, uc)
            for key in SIDE_SIGNS:
                if isinstance(patch.branches[key], str):
                    with pytest.raises(UnremovablePoleError):
                        patch.local(*key)
                    continue
                got = patch.local(*key)
                want = susy._chain(
                    got.wp, u_loc, system.pair, LaurentPoly.derivative, lambda lp: lp.structurally_trimmed(1e-12)
                )
                assert [series(lp) for lp in got] == [series(lp) for lp in want]


def test_construction_expands_the_sign_map_chains_alone():
    # over the scan grid 118 chains are read at construction and 70 wait
    # for a read that no default call makes
    expanded, waiting = set(), set()
    for member, system in build_members().items():
        if member not in SCAN_GRID:
            continue
        for patch in system.patches:
            on_map = [patch.branches[(side, patch.side_signs[side])] for side in (+1, -1)]
            held = {key: got for key, got in patch.branches.items() if not isinstance(got, str)}
            for key, got in held.items():
                assert (got.w0 is not None) == any(got is chain for chain in on_map), (member, patch.x, key)
                (expanded if got.w0 is not None else waiting).add(id(got))
            for key, got in held.items():  # a read expands a chain once for every pair that shares it
                full = patch.local(*key)
                assert full.w0 is not None and patch.local(*key) is full
                assert all(patch.branches[k] is full for k, v in held.items() if v is got)
    assert (len(expanded), len(waiting)) == (118, 70)


def outcome(call):
    try:
        got = call()
    except QesError as exc:
        return type(exc).__name__, str(exc)
    return got


def jet_coeffs(chain):
    return [j.coeffs for j in chain]


def test_a_sign_override_reads_the_same_chain_expanded_late(members):
    # inside a window an override reads the (side, sign) chain off the
    # sign map: expanded on that read, or expanded beforehand as a
    # construction that expands every chain does, the numbers are the same
    for member in members:
        lazy, eager = build(*member), build(*member)
        for patch in eager.patches:
            for key in SIDE_SIGNS:
                patch.branch(*key)
        xs = [p.x + f * p.eval_halfwidth for p in lazy.patches for f in (-0.5, -1e-3, 1e-3, 0.5)]
        for sign in (+1, -1):
            for x in xs:
                assert outcome(lambda: lazy.potentials(x, sign=sign)) == outcome(lambda: eager.potentials(x, sign=sign))
                got, want = (outcome(lambda s=s: jet_coeffs(s.chain(x, sign))) for s in (lazy, eager))
                assert got == want
            got, want = (outcome(lambda s=s: np.array(s.potentials(np.array(xs), sign=sign)).tobytes()) for s in (lazy, eager))
            assert got == want


def test_one_sample_call_over_segments_equals_one_call_each(members):
    for member, system in members.items():
        if member == (0.0, 3.2, 2.5):  # its assembly fails; see below
            continue
        assembly = system._ensure_assembly()
        segments = list(zip(assembly.seg_bounds[:-1], assembly.seg_bounds[1:]))
        assert len(segments) >= 2
        for n in (susy.CHEB_DEGREE, 17):
            nodes = [susy._cheb_nodes(n, a, b) for a, b in segments]
            whole = assembly._regular_samples(np.concatenate(nodes))
            each = np.concatenate([assembly._regular_samples(x) for x in nodes], axis=1)
            assert whole.tobytes() == each.tobytes()


def test_first_rung_is_one_sample_call(monkeypatch):
    # the touch member has four segments and every table converges on the
    # first rung; Razavy (3.2, 2.5) shares the first rung, then climbs its
    # first segment alone to the cap and fails there as a segment-by-segment
    # ladder does, with the same interval and tail
    calls = []
    samples = susy._StateAssembly._regular_samples

    def counted(assembly, xs):
        calls.append(xs.size)
        return samples(assembly, xs)

    monkeypatch.setattr(susy._StateAssembly, "_regular_samples", counted)
    touch = build(0.6, 8.0, 2.5)
    touch.wavefunctions_minus(1.0)
    assert calls == [4 * susy.CHEB_DEGREE]
    calls.clear()
    razavy = build(0.0, 3.2, 2.5)
    want = "quadrature over [0, 3.14159265359] error estimate 1.723e-10 > 1.0e-10"
    with pytest.raises(QuadratureNonconvergenceError, match=re.escape(want)):
        razavy.wavefunctions_minus(1.0)
    assert calls == [2 * susy.CHEB_DEGREE, 1024, 2048, 4096, susy.CHEB_DEGREE_MAX]


def test_a_failed_first_rung_samples_each_segment_alone(monkeypatch):
    # a sampling error in the shared call leaves each segment to sample
    # itself, so the first error raised is the one a segment-by-segment
    # ladder meets
    calls = []
    samples = susy._StateAssembly._regular_samples

    def failing(assembly, xs):
        calls.append(xs.size)
        if xs.size > susy.CHEB_DEGREE or xs[0] > math.pi:
            raise UnremovablePoleError(float(xs[0]), "injected")
        return samples(assembly, xs)

    monkeypatch.setattr(susy._StateAssembly, "_regular_samples", failing)
    system = build(0.0, 1.0, 0.5)
    with pytest.raises(UnremovablePoleError, match="injected"):
        system.wavefunctions_minus(1.0)
    assert calls == [2 * susy.CHEB_DEGREE, susy.CHEB_DEGREE, susy.CHEB_DEGREE]
