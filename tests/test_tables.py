"""The antiderivative tables of the state assembly: the numpy DCT-II, the
integration recurrence and the endpoint sums against independent oracles,
and the cut that stores each table only as long as its function needs."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev

from qesforge import susy
from qesforge.errors import QuadratureNonconvergenceError
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
