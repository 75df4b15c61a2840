"""The antiderivative tables of the state assembly: the numpy DCT-II, the
integration recurrence, the endpoint sums and the batch read against
independent oracles, and the cut that stores each table only as long as its
function needs."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from qesforge import susy
from qesforge.errors import InadmissibleInputError, QesError, QuadratureNonconvergenceError
from qesforge.susy import construct

TWO_PI = 2.0 * math.pi
RAZAVY = "4*eps0*eps1*sin(x)^2"
DETUNED = "4*eps0*eps1*sin(x)^2*((1-0.6)+0.6*cos(2*x))"
MEMBERS = {
    # member: longest table per chain, in coefficients
    "razavy1": ((RAZAVY, 1.0, 0.5), 40),
    "detuned": ((DETUNED, 2.8, 0.5), 220),
    "touch": ((DETUNED, 8.0, 2.5), 200),
}


def _passes_ladder_test(coef, dropped):
    """The ladder's tail test on the coefficients dropped from coef."""
    mag = np.abs(coef)
    return dropped.size == 0 or np.max(np.abs(dropped)) <= susy.CHEB_TAIL_REL * max(np.max(mag), 1e-300)


def _recorded_assembly(spec, monkeypatch):
    """A system's assembly and every fit its ladders made, in order."""
    fits = []
    original = susy._cheb_fit

    def recording(f, n, lo, hi):
        fits.append(original(f, n, lo, hi))
        return fits[-1]

    monkeypatch.setattr(susy, "_cheb_fit", recording)
    return construct(*spec, TWO_PI)._ensure_assembly(), fits


# -- oracles for the numerics ------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 8, 511, 512, 1024])
def test_dct_matches_the_direct_sum(n):
    # sum_j y_j cos(pi k (2j + 1) / 2n), the angle reduced mod 2 pi in
    # integers so the oracle's own cosines stay exact to an ulp
    y = np.random.default_rng(n).standard_normal(n)
    k, j = np.arange(n)[:, None], np.arange(n)
    direct = np.cos(math.pi * ((k * (2 * j + 1)) % (4 * n)) / (2.0 * n)) @ y
    assert np.max(np.abs(susy._dct2(y) - direct)) <= 1e-14 * np.max(np.abs(direct))


@pytest.mark.parametrize("m", [1, 2, 3, 513])
def test_recurrence_matches_chebint(m):
    # chebint's constant makes the antiderivative vanish at 0; the tables'
    # is 0, since each segment's base absorbs it
    c = np.random.default_rng(m).uniform(-1.0, 1.0, m)
    got, want = susy._antiderivative(c, 0.7), chebyshev.chebint(c, scl=0.7)
    assert got.shape == want.shape and got[0] == 0.0
    assert np.max(np.abs(got[1:] - want[1:])) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_endpoint_sums_match_chebval(name):
    # phi starts at 0 and is continuous across segments: the bases were set
    # from sums of +-c_k, checked here against chebval at +-1
    asm = construct(*MEMBERS[name][0], TWO_PI)._ensure_assembly()
    for tables, bases in zip(asm.seg_tables, asm.seg_base):
        ends = [(base + chebyshev.chebval(-1.0, t.coef), base + chebyshev.chebval(1.0, t.coef))
                for t, base in zip(tables, bases)]
        assert abs(ends[0][0]) <= 1e-14
        for (_, right), (left, _) in zip(ends[:-1], ends[1:]):
            assert abs(right - left) <= 1e-13 * max(1.0, abs(right))


# -- the cut -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_tables_keep_only_what_the_function_needs(name, monkeypatch):
    # the ladder's accepted fits, one per (segment, chain) in build order,
    # are the fits that pass its tail test; each table integrates the
    # shortest prefix of its fit whose whole dropped tail passes that test
    spec, longest = MEMBERS[name]
    asm, fits = _recorded_assembly(spec, monkeypatch)
    accepted = [f for f in fits if _passes_ladder_test(f.coef, f.coef[-max(8, len(f.coef) // 8):])]
    assert len(accepted) == len(asm.seg_tables) * (len(asm.seg_bounds) - 1)
    for k, (a, b) in enumerate(zip(asm.seg_bounds[:-1], asm.seg_bounds[1:])):
        for i, tables in enumerate(asm.seg_tables):
            fit, table = accepted[k * len(asm.seg_tables) + i], tables[k]
            kept = len(table.coef) - 1
            assert len(table.coef) <= longest < len(fit.coef)
            assert list(table.domain) == list(fit.domain) == [a, b]
            assert _passes_ladder_test(fit.coef, fit.coef[kept:])
            assert not _passes_ladder_test(fit.coef, fit.coef[kept - 1:])
            # the table integrates that prefix, scaled to the segment
            slope = chebyshev.chebder(table.coef) * (2.0 / (b - a))
            assert np.max(np.abs(slope - fit.coef[:kept])) <= 1e-14 * np.max(np.abs(fit.coef))


def test_the_cut_never_runs_on_an_unconverged_fit(monkeypatch):
    # W2's samples jump inside the first segment, so its ladder climbs to
    # the cap and fails; every prefix integrated before the failure is a
    # prefix of a converged fit
    events = []  # fits and integrated prefixes, in call order
    fit, integrate = susy._cheb_fit, susy._antiderivative
    samples = susy._StateAssembly._regular_samples

    def recording_fit(*args):
        events.append(fit(*args))
        return events[-1]

    def recording_integrate(c, scale):
        events.append(c.copy())
        return integrate(c, scale)

    def jumping(assembly, xs):
        out = samples(assembly, xs)
        out[2, xs > 1.0] += 1.0
        return out

    monkeypatch.setattr(susy, "_cheb_fit", recording_fit)
    monkeypatch.setattr(susy, "_antiderivative", recording_integrate)
    monkeypatch.setattr(susy._StateAssembly, "_regular_samples", jumping)
    system = construct(RAZAVY, 1.0, 0.5, TWO_PI)
    with pytest.raises(QuadratureNonconvergenceError):
        system.wavefunctions_minus(1.0)
    assert len(events[-1].coef) == susy.CHEB_DEGREE_MAX
    assert sum(isinstance(e, np.ndarray) for e in events) == 2  # W0's and W1's ladders converge first
    for before, prefix in zip(events[:-1], events[1:]):
        if isinstance(prefix, np.ndarray):
            n = len(before.coef)
            assert _passes_ladder_test(before.coef, before.coef[-max(8, n // 8):])
            np.testing.assert_array_equal(prefix, before.coef[: prefix.size])


# -- the batch read ----------------------------------------------------------


def _check_against_chebval(asm, x, chains=(0, 1, 2)):
    """The batch phi at x against numpy's chebval of the table each point's
    segment holds, plus the segment's base, to 1e-14 of the table's sum |c_k|."""
    assert x.size >= susy.BATCH_MIN
    got = asm._phi(x, chains)
    seg = np.minimum(np.searchsorted(asm.seg_bounds, x, side="right") - 1, len(asm.seg_bounds) - 2)
    for i in chains:
        for k in set(seg.tolist()):
            on = seg == k
            table = asm.seg_tables[i][k]
            want = asm.seg_base[i][k] + table(x[on])  # chebval on the mapped points
            assert np.max(np.abs(got[i, on] - want)) <= 1e-14 * np.sum(np.abs(table.coef))


def _batches(asm):
    """Batches that stress the segment split: segment ends, exactly BATCH_MIN
    points, one point alone in a segment, and all points in one segment."""
    rng = np.random.default_rng(28)
    bounds = np.array(asm.seg_bounds)
    a, b = bounds[:-1], bounds[1:]
    ends = np.concatenate([bounds, np.nextafter(b, -np.inf), np.nextafter(a, np.inf)])
    yield np.concatenate([ends, rng.uniform(0.0, bounds[-1], susy.BATCH_MIN)])
    yield rng.uniform(0.0, bounds[-1], susy.BATCH_MIN)
    for k in range(len(a)):
        inside = rng.uniform(a[k], b[k], 2 * susy.BATCH_MIN)
        yield inside
        other = (k + 1) % len(a)
        yield np.concatenate([inside[:1], rng.uniform(a[other], b[other], susy.BATCH_MIN)])


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_batch_phi_matches_chebval(name):
    asm = construct(*MEMBERS[name][0], TWO_PI)._ensure_assembly()
    assert len(asm.seg_bounds) > 2  # a split to stress
    for x in _batches(asm):
        _check_against_chebval(asm, x)
        for i in range(len(susy.CHAIN_NAMES)):
            _check_against_chebval(asm, x, (i,))


def test_batch_phi_reads_in_chunks():
    # a basis of more than BASIS_CELLS entries is built a chunk of points at a time
    asm = construct(*MEMBERS["detuned"][0], TWO_PI)._ensure_assembly()
    x = np.random.default_rng(5).uniform(0.0, TWO_PI, 2 * susy.BASIS_CELLS // asm._coef[0].shape[1] + 7)
    _check_against_chebval(asm, x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64, 196, 257])
def test_doubling_basis_matches_cosines(n):
    # T_k(y) = cos(k arccos y); the doubling steps add their roundoff, so
    # the error grows with k, here bounded by k^2 ulps; at y = -1 and 1
    # every step is exact
    y = np.concatenate([[-1.0, 1.0, 0.0], np.random.default_rng(n).uniform(-1.0, 1.0, 300)])
    k = np.arange(n)[:, None]
    basis = susy._cheb_basis(y, n)
    assert np.all(np.abs(basis - np.cos(k * np.arccos(y))) <= (k * k + 4) * np.finfo(float).eps)
    np.testing.assert_array_equal(basis[:, :2], np.hstack([(-1.0) ** k, np.ones((n, 1))]))


# -- the contract on a seeded family -----------------------------------------


def _q_family_draw(rng):
    """U = sin(x)^2 (c - sin(x)^2 Q(cos x)), c = 4 eps0 eps1, Q of degree <= 3
    with coefficients up to c in size: double zeros at 0 and pi with the
    right curvature and parity by construction; the detuned family is
    Q = 2ac."""
    e0 = float(rng.choice((0.5, 1.0, 2.0, 3.2, 5.0, 8.0)))
    e1 = float(rng.choice((0.25, 0.5, 1.0, 2.5)))
    q = rng.uniform(-1.0, 1.0, int(rng.integers(1, 5))).round(3)
    poly = " + ".join(f"({v:g})*cos(x)^{k}" for k, v in enumerate(q))
    return f"4*eps0*eps1*sin(x)^2 - 4*eps0*eps1*sin(x)^4*({poly})", e0, e1


def test_seeded_q_family_builds_or_fails_typed():
    # every draw is rejected, fails with a typed error, or builds and gives
    # finite states on a grid whose phi passes the chebval oracle
    rng = np.random.default_rng(7)
    x = 0.1 + np.arange(512) * (TWO_PI / 512)
    outcomes = {"rejected": 0, "typed": 0, "builds": 0}
    for _ in range(32):
        spec = _q_family_draw(rng)
        try:
            system = construct(*spec, TWO_PI)
            states = np.array(system.wavefunctions_minus(x) + system.wavefunctions_plus(x))
        except InadmissibleInputError:
            outcomes["rejected"] += 1
            continue
        except QesError:
            outcomes["typed"] += 1
            continue
        assert np.isfinite(states).all(), spec
        _check_against_chebval(system._ensure_assembly(), susy._reduce(x, TWO_PI))
        outcomes["builds"] += 1
    assert outcomes["builds"] and outcomes["rejected"]
