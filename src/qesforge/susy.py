"""Three-level factorization chain driven by a single generating function.

Given an admissible periodic U(x) and positive level spacings (eps0, eps1),
this module resolves the root branches of the defining quadratic
(U - 2*eps1) W^2 + U' W - U (U + 2*eps0) = 0, assembles the superpotential
chain W0, W1, W2, the partner potentials, and the three lower / two upper
eigenfunctions.  Evaluation is jet based away from the structural points of
U and switches to matched local series inside narrow windows around them;
the seam between the two representations is verified at construction time.
One point locator, built with the system, tells every evaluator which window,
side and branch sign a point takes; batches read the series from one table
per chain member and the integrals in one Clenshaw pass across segments.

The chain formulas (W~+ = U/W+, W0 and W1 from W+, W2 from W~+, and the
excited-state factors g and h) live in ``_chain`` alone, which works on any
truncated series type: patches apply it once to their Laurent series, and
``ConstructedSystem.chain`` applies it to jets at a point.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from . import jets, local_series, validator
from .validator import stable_discriminant
from .errors import (
    BranchInconsistencyError,
    InadmissibleInputError,
    NegativeDiscriminantError,
    PatchFailureError,
    QuadratureNonconvergenceError,
    SeamMismatchError,
    UnremovablePoleError,
    VplusPoleError,
)

PATCH_FRACTION = 1e-3
SEAM_TOL = 1e-8
DISC_TOL = 1e-12
# First rung of the antiderivative ladder.  Far more nodes than most tables
# keep (the cut leaves 14-206 coefficients on the bench family), but a
# sample call is mostly per-call work (1.2-1.6 ms at 17-65 nodes, 2.5-6.7 ms
# at 512), so a ladder that starts low and climbs pays several calls where
# this one pays one: started at 24 or 32 nodes it made assembly ~1.6x
# slower over the family-scan members.
CHEB_DEGREE = 512
# Chain functions can have complex branch points close to the real axis
# (steep shoulders in the potential); the antiderivative tables double
# their resolution until the coefficient tail is negligible.
CHEB_DEGREE_MAX = 8192
CHEB_TAIL_REL = 1e-10
CHAIN_NAMES = ("w0", "w1", "w2")
BATCH_MIN = 12  # state batches below this many points run on Python floats
# Recorded W0 kernels kept per (sign, U order) for scalar V off the windows:
# one per stable form of W+, and room for ones recorded where a guard's
# outcome is rare (a coefficient exactly 0)
KERNELS_PER_KEY = 4

# Length of the high-order local Taylor data for U (one jet per patch) and
# of the series branches formed from it.
U_TAYLOR_TERMS = 18
LOCAL_COEFFS = 16
# Where S has a high-order zero the direct evaluator inherits catastrophic
# cancellation well beyond the nominal patch window; the matched series is
# the accurate representation out to this fraction of the period.
WIDE_EVAL_FRACTION = 8e-3

KIND_SIMPLE_ZERO = "simple_zero"
KIND_DOUBLE_ZERO = "double_zero"
KIND_UPPER_EDGE = "upper_strip_edge"
KIND_LOWER_EDGE = "lower_strip_edge"
KIND_BRANCH_TOUCH = "branch_touch"


@dataclass(frozen=True)
class EnergyPair:
    """Spacings of the two excited levels above the ground state."""

    eps0: float
    eps1: float

    def __post_init__(self):
        if not (self.eps0 > 0.0 and self.eps1 > 0.0):
            raise ValueError("both level spacings must be positive")

    @property
    def top(self) -> float:
        return self.eps0 + self.eps1


@dataclass(frozen=True)
class BranchMap:
    """Piecewise-constant root-branch sign on the period circle.

    breakpoints are the zeros of the branch discriminant S in [0, L);
    signs[i] applies on the arc from breakpoints[i] up to the next
    breakpoint (cyclically), closed on the left.
    """

    period: float
    breakpoints: tuple
    signs: tuple

    def sign_at(self, x: float) -> int:
        """Sign at x (index -1 is the last arc); the system's locator tabulates it."""
        return self.signs[bisect_right(self.breakpoints, x % self.period) - 1]


class _Chain(NamedTuple):
    """One W+ branch and everything the chain derives from it."""

    wp: object
    wt: object
    w0: object
    w1: object
    w2: object
    g: object
    h: object


class _Series(NamedTuple):  # a chain member's window series: row 2j is patch j's right side, 2j + 1 its left
    polys: list  # per row its LaurentPoly in the offset, or why its pole cannot cancel
    valuation: np.ndarray
    coef: np.ndarray  # (terms, rows): a row's coefficients, zero-padded at the high end
    bad: np.ndarray  # rows whose pole cannot cancel


# The stage at which the chain computes each member (a stage runs after every
# earlier one); and the Taylor coefficients of U that a member's value needs:
# W+ and W~+ read U', W0, W1, W2 and g one derivative more, h two.  A
# member's slope needs one coefficient more.
_STAGE = {"wp": 0, "w0": 1, "w1": 2, "wt": 3, "w2": 3, "g": 4, "h": 5}
_U_TERMS = {"wp": 2, "wt": 2, "w0": 3, "w1": 3, "w2": 3, "g": 3, "h": 4}


def _chain(wp, u, pair: EnergyPair, d, cancel, stage: int = 5) -> _Chain:
    """The chain of one W+ branch, over jets or Laurent series alike, up to
    the given stage (see _STAGE); later members are None.

    d differentiates a series; cancel trims a numerator that cancels at the
    expansion point, which must happen before dividing or roundoff remnants
    turn into spurious pole terms downstream.
    """
    w0 = w1 = wt = w2 = g = h = None
    if stage >= 1:
        diff0 = cancel(d(wp) - 2.0 * pair.eps0) / wp
        w0 = (wp - diff0) * 0.5
    if stage >= 2:
        w1 = (wp + diff0) * 0.5
    if stage >= 3:
        wt = cancel(u) / wp
        wt_d = d(wt)
        diff2 = cancel(wt_d - 2.0 * pair.eps1) / wt
        w2 = (wt + diff2) * 0.5
    if stage >= 4:
        g = (w0 + w2) * wt - wt_d
    if stage >= 5:
        h = d(g) - g * (w2 - w0)
    return _Chain(wp, wt, w0, w1, w2, g, h)


class _Patch:
    """A structural point of U with its per-(side, sign) matched branches."""

    def __init__(self, x: float, kind: str):
        self.x = x
        self.kind = kind
        self.branches = {}  # (side, sign) -> _Chain of LaurentPoly, or why its pole cannot cancel
        self.side_signs = {}  # side -> the sign map's branch half a window out on that side
        self.vplus_pole = False
        self.eval_halfwidth = 0.0

    def local(self, side: int, sign: int) -> _Chain:
        # a fresh error per raise: a stored one's traceback keeps the system alive
        got = self.branches[(side, sign)]
        if isinstance(got, str):
            raise UnremovablePoleError(self.x, got)
        return got


def _reduce(x, period: float):
    """x modulo the period, into [0, period]; per point for an array."""
    if isinstance(x, np.ndarray):
        xr = np.fmod(x, period)
        return np.where(xr < 0.0, xr + period, xr)
    xr = math.fmod(float(x), period)
    if xr < 0.0:
        xr += period
    return xr


def _product_form(u, up, sqrt_s, sign, pair: EnergyPair):
    return 2.0 * u * (u + 2.0 * pair.eps0) / (up + sign * sqrt_s)


def _root_form(u, up, sqrt_s, sign, pair: EnergyPair):
    return (-up + sign * sqrt_s) / (2.0 * (u - 2.0 * pair.eps1))


def _select_form(u: jets.Jet, up: jets.Jet, sqrt_s: jets.Jet, sign, pair: EnergyPair) -> jets.Jet:
    """Cancellation-free form of the chosen root branch, point by point.

    Both forms are the same root algebraically; the choice keeps the
    denominator (resp. numerator) a same-sign sum.
    """
    return jets.piecewise(sign * up.value >= 0.0, _product_form, _root_form, u, up, sqrt_s, sign, pair)


class ConstructedSystem:
    """Result of the construction; every evaluator hangs off an instance."""

    def __init__(self, u, eps0: float, eps1: float, period: float, validate: bool = True):
        self.pair = EnergyPair(float(eps0), float(eps1))
        self.period = float(period)
        self.u = validator.CompiledU(u, self.pair.eps0, self.pair.eps1, self.period)
        self.patch_halfwidth = PATCH_FRACTION * self.period
        self.midpoint = 0.5 * self.period
        self.report = None
        if validate:
            self.report = validator.check_admissibility(self.u, eps0, eps1, period)
            if not self.report.passed:
                failed = [c.name for c in self.report.checks if not c.passed]
                raise InadmissibleInputError(
                    "generating function failed admissibility checks: " + ", ".join(failed),
                    self.report,
                )
        self._classify_points()
        self._match_patches()
        self._build_branch_map()
        self._build_locator()
        self._register_poles()
        self._verify_oddness()
        self._assembly = None
        self._kernels = {}  # (sign, U order) -> W0 kernels from jets.trace, see _scalar_potentials
        self._series_tables = {}  # (member, variant, sign) -> _Series, see _series

    # ------------------------------------------------------------------
    # construction phases
    # ------------------------------------------------------------------

    def _classify_points(self):
        L = self.period
        if self.report is not None:
            sv = self.report.s_samples
            zero_records = self.report.zeros
            lower = self.report.lower_crossings
        else:
            _, sv = validator.discriminant_samples(self.u)
            zero_records = validator.locate_zeros(self.u, self.pair.eps0, self.pair.eps1, L)
            lower = validator.find_level_crossings(self.u, -2.0 * self.pair.eps0)
        self._s_samples = sv
        self._s_scale = max(float(np.max(np.abs(sv))), 1.0)
        pts = []
        for z in zero_records:
            if z.order == 1:
                pts.append((z.x, KIND_SIMPLE_ZERO))
            elif z.order == 2:
                pts.append((z.x, KIND_DOUBLE_ZERO))
            else:
                raise InadmissibleInputError(
                    f"zero of order {z.order} at x={z.x:.6g} is outside the supported classes",
                    self.report,
                )
        for p in validator.find_level_crossings(self.u, 2.0 * self.pair.eps1):
            pts.append((p, KIND_UPPER_EDGE))
        for p in lower:
            pts.append((p, KIND_LOWER_EDGE))
        known = sorted(p for p, _ in pts)
        for p in self._accidental_discriminant_zeros():
            if not known or min(abs(p - k) for k in known) > 1e-6 * L:
                if min(p, L - p) > 1e-6 * L:
                    pts.append((p, KIND_BRANCH_TOUCH))
        pts.sort()
        self.patches = [_Patch(p, kind) for p, kind in pts]
        self._patch_xs = [p.x for p in self.patches]
        n = len(self.patches)
        for i, patch in enumerate(self.patches):
            r = self.patch_halfwidth
            if patch.kind in (KIND_DOUBLE_ZERO, KIND_BRANCH_TOUCH):
                r = WIDE_EVAL_FRACTION * L
                if n > 1:
                    xs = self._patch_xs
                    gap = min(
                        (xs[(i + 1) % n] - xs[i]) % L, (xs[i] - xs[i - 1]) % L
                    )
                    r = min(r, 0.3 * gap)
                r = max(r, self.patch_halfwidth)
            patch.eval_halfwidth = r

    def _accidental_discriminant_zeros(self):
        sv = self._s_samples
        n = len(sv)
        L = self.period
        out = []
        av = np.abs(sv)
        tiny = av < 1e-9 * self._s_scale
        # one candidate per contiguous tiny run (circular): a flat valley of
        # a high-order zero is full of roundoff wiggles, and each spurious
        # local minimum would otherwise become a structural point
        idx = np.flatnonzero(tiny)
        if idx.size and idx.size < n:
            cut = np.flatnonzero(np.diff(idx) != 1) + 1
            runs = list(zip(idx[np.r_[0, cut]].tolist(), idx[np.r_[cut - 1, -1]].tolist()))
            if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n - 1:
                head = runs[0]
                runs = runs[1:-1] + [(runs[-1][0], head[1] + n)]
            for (a, b) in runs:
                # the first smallest sample of the run, in run order
                imin = (a + int(np.argmin(np.take(av, range(a, b + 1), mode="wrap")))) % n
                out.append(imin * L / n)
        sign = np.sign(sv)  # compared, not multiplied, as the validator's scans do
        flip = (sign * np.roll(sign, -1) < 0) & ~tiny & ~np.roll(tiny, -1)
        out.extend((i + 0.5) * L / n for i in np.flatnonzero(flip).tolist())
        return sorted(out)

    def _is_breakpoint(self, x: float) -> bool:
        u, up = self.u.jet(x, 2).coeffs
        s = stable_discriminant(u, up, self.pair.eps0, self.pair.eps1)
        return abs(s) <= 1e-8 * self._s_scale

    def _build_branch_map(self):
        L = self.period
        tol = 1e-6 * L
        bps = sorted(p.x for p in self.patches if self._is_breakpoint(p.x))
        if not bps:
            raise BranchInconsistencyError(
                "no discriminant zeros found; a branch sign map cannot be anchored"
            )
        if not any(abs(b - self.midpoint) <= tol for b in bps):
            raise BranchInconsistencyError(
                "the half-period point is not a discriminant zero; "
                "no sign assignment can make W+ odd about it"
            )
        n = len(bps)
        # arc i runs from bps[i] to the next breakpoint; reflecting its
        # midpoint about the half-period point finds its parity partner
        pairing = []
        for i in range(n):
            hi = bps[(i + 1) % n] + (L if i == n - 1 else 0.0)
            mid = _reduce(2.0 * self.midpoint - 0.5 * (bps[i] + hi), L)
            j = bisect_right(bps, mid) - 1
            if j < 0:
                j = n - 1
            pairing.append(j)
            if j == i:
                raise BranchInconsistencyError(
                    "an arc is its own reflection about the half-period point; "
                    "W+ cannot be odd with one sign on it"
                )
        # rel[i]: stable-form sign relation across bps[i] (arc i-1 -> arc i)
        # that continues W+ smoothly, when first-order data can tell
        rel = [self._glue_preference(b) for b in bps]
        signs = [0] * n
        signs[0] = +1  # arc whose left endpoint is nearest the origin wins +
        while not all(signs):
            progressed = False
            for i in range(n):
                j = (i - 1) % n
                if rel[i] is not None:
                    if signs[j] and not signs[i]:
                        signs[i] = signs[j] * rel[i]
                        progressed = True
                    elif signs[i] and not signs[j]:
                        signs[j] = signs[i] * rel[i]
                        progressed = True
                if signs[i] and not signs[pairing[i]]:
                    signs[pairing[i]] = -signs[i]
                    progressed = True
            if not progressed:
                signs[signs.index(0)] = +1
        for i in range(n):
            if signs[pairing[i]] != -signs[i]:
                raise BranchInconsistencyError(
                    "reflection pairing of the arcs is inconsistent; "
                    "the breakpoint set is not symmetric about the half-period point"
                )
            if rel[i] is not None and signs[i] != signs[(i - 1) % n] * rel[i]:
                raise BranchInconsistencyError(
                    "smooth continuation across a discriminant zero contradicts "
                    "the parity pairing of the arcs"
                )
        self.branch_map = BranchMap(L, tuple(bps), tuple(signs))

    def _glue_preference(self, b: float):
        """Sign relation (+1 same, -1 flipped) continuing W+ through b.

        At an odd-power discriminant zero the fixed-sign stable forms swap
        root curves, so exactly one relation is differentiable; at an
        analytic even-power touch both look alike at this order and the
        decision is left to the parity pairing (None).
        """
        d = self.patch_halfwidth
        ul = self.u.jet(_reduce(b - d, self.period), _U_TERMS["wp"] + 1)
        ur = self.u.jet(_reduce(b + d, self.period), _U_TERMS["wp"] + 1)
        out = {}
        for sl in (+1, -1):
            jl = self._w_direct(ul, sl)
            grow = jl.value + 2.0 * d * jl.derivative(1)
            for sr in (+1, -1):
                jr = self._w_direct(ur, sr)
                out[(sl, sr)] = abs(jr.value - grow) + 2.0 * d * abs(
                    jr.derivative(1) - jl.derivative(1)
                )
        same = max(out[(+1, +1)], out[(-1, -1)])
        flip = max(out[(+1, -1)], out[(-1, +1)])
        if 10.0 * flip <= same:
            return -1
        if 10.0 * same <= flip:
            return +1
        return None

    def _match_patches(self):
        h = self.patch_halfwidth
        e0, e1 = self.pair.eps0, self.pair.eps1
        for patch in self.patches:
            uc = self.u.jet(patch.x, U_TAYLOR_TERMS).coeffs
            candidates = local_series.taylor_branches(patch.x, uc, e0, e1, n_coeffs=LOCAL_COEFFS)
            if not candidates:
                raise PatchFailureError(patch.x, "no local branch solves the quadratic")
            u_loc = local_series.LaurentPoly(patch.x, 0, uc)
            slope_tol = 1e-6 * max(1.0, 2.0 * e0)
            chains = {}  # candidate index -> its Laurent chain, shared by the (side, sign) pairs picking it
            for side in (+1, -1):
                xs = patch.x + side * h
                u_seam = self.u.jet(_reduce(xs, self.period), _U_TERMS["wp"])
                for sign in (+1, -1):
                    target = self._w_direct(u_seam, sign).value
                    ref = max(1.0, abs(target))
                    pick, best_err = None, math.inf
                    for i, cand in enumerate(candidates):
                        err = abs(cand(xs) - target)
                        if err < best_err:
                            pick, best_err = i, err
                    if best_err > SEAM_TOL * ref:
                        raise SeamMismatchError(xs, best_err / ref, SEAM_TOL)
                    # a branch vanishing with a slope other than +-2*eps0 leaves
                    # a chain pole that cannot cancel; the reason is stored
                    wpt = candidates[pick].structurally_trimmed(1e-9)
                    slope = wpt.coeff(1)
                    if (
                        wpt.valuation >= 1
                        and abs(slope - 2.0 * e0) > slope_tol
                        and abs(slope + 2.0 * e0) > slope_tol
                    ):
                        patch.branches[(side, sign)] = (
                            f"W+ vanishes with slope {slope:.6g} outside {{+2*eps0, -2*eps0}}; "
                            "the chain pole cannot cancel"
                        )
                        continue
                    if pick not in chains:
                        chains[pick] = _chain(
                            candidates[pick], u_loc, self.pair, local_series.LaurentPoly.derivative,
                            lambda lp: lp.structurally_trimmed(1e-12),
                        )
                    patch.branches[(side, sign)] = chains[pick]
            if patch.kind not in (KIND_DOUBLE_ZERO, KIND_BRANCH_TOUCH):
                for sign in (+1, -1):
                    pa = patch.branches[(+1, sign)]
                    pb = patch.branches[(-1, sign)]
                    if isinstance(pa, str) or isinstance(pb, str):
                        continue
                    a = pa.wp.structurally_trimmed(1e-9)
                    b = pb.wp.structurally_trimmed(1e-9)
                    if a.valuation != b.valuation:
                        raise PatchFailureError(
                            patch.x, "branch type changes across a point that is not a breakpoint"
                        )

    def _build_locator(self):
        """One sorted table of interval starts over [0, L] for every lookup of
        a reduced point xr: the left one of its two neighbouring patches holds
        it when |t| <= eval_halfwidth, t = xr - p.x wrapped by L*round(t/L),
        else the right one, else the arc of its branch sign.  Between two
        patch points the left window is a run of floats from the start and the
        right one a run to the end, so a search of the float bit patterns finds
        each edge exactly.  A NaN sorts past every start, onto the last arc."""
        L, ps, xs, bm = self.period, self.patches, self._patch_xs, self.branch_map
        for p in ps:
            p.side_signs = {s: bm.sign_at(p.x + s * 0.5 * self.patch_halfwidth) for s in (+1, -1)}

        def wrapped(p, x):
            t = x - p.x
            return t - L * round(t / L)

        def first(pred, lo, hi, guess):  # the first float of [lo, hi) where pred holds (on a suffix), else hi
            a, b, k = np.array([lo, hi, min(max(guess, lo), hi)]).view(np.int64).tolist()
            probes = iter((0, -1, 1, -16, 16, -4096, 4096))  # out from the guess, then bisection
            while a < b:
                mid = next(probes, (a - k + b - k) // 2) + k
                if a <= mid < b:
                    a, b = (a, mid) if pred(float(np.int64(mid).view(np.float64))) else (mid + 1, b)
            return float(np.int64(a).view(np.float64))

        cells = []  # (start, patch index or -1, side, sign)
        bounds = [0.0] + xs + [L, math.nextafter(L, math.inf)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            i = bisect_right(xs, lo)
            (left, pl), (right, pr) = ((j % len(ps), ps[j % len(ps)]) for j in (i - 1, i))
            e1 = first(lambda x: abs(wrapped(pl, x)) > pl.eval_halfwidth, lo, hi, (pl.x + pl.eval_halfwidth) % L)
            e2 = first(lambda x: abs(wrapped(pr, x)) <= pr.eval_halfwidth, e1, hi, (pr.x - pr.eval_halfwidth) % L)
            for start, end, j in ((lo, e1, left), (e1, e2, -1), (e2, hi, right)):
                side = 0 if j < 0 else 1 if wrapped(ps[j], start) >= 0.0 else -1
                if start < end:
                    cells.append((float(start), j, side, ps[j].side_signs[side] if side else bm.sign_at(start)))
        cells.append((bounds[-1], -1, 0, bm.signs[-1]))
        self._starts, *cols = (list(c) for c in zip(*cells))
        self._cells = list(zip(*cols))
        self._columns = [np.array(c) for c in [self._starts, *cols, xs]]

    def _locate(self, xr):
        """(patch index or -1, side, sign, offset from the patch) of a point in
        [0, L] from one bisect; for an array, arrays from one searchsorted."""
        if isinstance(xr, np.ndarray):
            starts, where, side, sign, px = self._columns
            k = np.searchsorted(starts, xr, side="right") - 1
            t = xr - px[where[k]]
            return where[k], side[k], sign[k], t - self.period * np.round(t / self.period)
        j, side, sign = self._cells[bisect_right(self._starts, xr) - 1]
        t = xr - self._patch_xs[j] if j >= 0 else 0.0
        return j, side, sign, t - self.period * round(t / self.period)

    def _active_local(self, patch: _Patch, side: int, sign: int | None = None) -> _Chain:
        """Local chain on one side of a patch, on the sign-map branch unless overridden."""
        return patch.local(side, patch.side_signs[side] if sign is None else sign)

    def _register_poles(self):
        """Pole locations and residues of each chain member under the sign map.

        The antiderivative tables take every pole as a simple one with one
        integer residue, so both sides' series must agree on it.
        """
        self.poles = {name: [] for name in CHAIN_NAMES}
        for patch in self.patches:
            loc = self._active_local(patch, +1)
            left = self._active_local(patch, -1)
            # V+ is singular exactly where the active W0 keeps a pole; at a
            # transversal lower-edge crossing that is the vanishing branch,
            # but a tuned tangential touch can stay regular
            patch.vplus_pole = (
                patch.kind == KIND_LOWER_EDGE
                and loc.w0.structurally_trimmed(1e-9).valuation < 0
            )
            for name in CHAIN_NAMES:
                lp = getattr(loc, name).structurally_trimmed(1e-12)
                lp_l = getattr(left, name).structurally_trimmed(1e-12)
                if min(lp.valuation, lp_l.valuation) < -1:
                    raise PatchFailureError(patch.x, f"nonintegrable pole order in {name}")
                res_l = lp_l.residue()
                if abs(res_l - lp.residue()) > 1e-6 * max(1.0, abs(res_l)):
                    raise PatchFailureError(
                        patch.x, f"pole residue of {name} differs across the point; no principal value exists"
                    )
                if lp.valuation < 0:
                    res = lp.residue()
                    if abs(res) > 1e-8:
                        if abs(res - round(res)) > 1e-6:
                            raise PatchFailureError(
                                patch.x, f"{name} residue {res:.8g} is not an integer"
                            )
                        self.poles[name].append((patch.x, int(round(res))))

    def _verify_oddness(self):
        """W+(xm + t) = -W+(xm - t) on 512 probe pairs across the half period.

        A pair is skipped when either point lies in a patch window or
        |W+| > 1e3 at either; the defect is the largest |W+(a) + W+(b)|
        against the largest |W+| seen.  Every probe lies inside (0, L) and
        off the windows, so all are one batch through the stable form,
        ordered a0, b0, a1, b1, ... as a per-point probe would visit them:
        a negative discriminant is reported at the same point.
        """
        L, xm = self.period, self.midpoint
        t = np.linspace(0.0, 0.5 * L, 514)[1:-1]
        t = t[(self._locate(xm + t)[0] < 0) & (self._locate(xm - t)[0] < 0)]
        x = np.column_stack((xm + t, xm - t)).ravel()
        w = self._w_direct(self.u.jet(x, _U_TERMS["wp"]), self._locate(x)[2]).value if x.size else x
        wa, wb = w[0::2], w[1::2]
        keep = ~((np.abs(wa) > 1e3) | (np.abs(wb) > 1e3))
        if not keep.any():
            raise BranchInconsistencyError("no usable probes for the oddness check")
        scale = max(1.0, float(np.max(np.maximum(np.abs(wa), np.abs(wb))[keep])))
        worst = float(np.max(np.abs(wa + wb)[keep]))
        # a NaN defect fails too
        if not worst <= 1e-8 * scale:
            raise BranchInconsistencyError(
                f"W+ is not odd about the half-period point under the accepted sign map "
                f"(defect {worst:.3e} at scale {scale:.3g})"
            )

    # ------------------------------------------------------------------
    # W evaluators
    # ------------------------------------------------------------------

    def _w_direct(self, u: jets.Jet, sign) -> jets.Jet:
        """Stable-form W+ on the given branch, from the jet of U at a point
        (or from a batch jet of U, with one sign per point).  S <= 0 within
        roundoff is clamped point by point; below it the first offending
        point raises."""
        up = jets.differentiate(u)
        # the rest reads U to the orders U' carries: a shorter jet of U has
        # the same leading coefficients, so W+ does too, at less cost
        u = jets.Jet(u.x0, u.coeffs[: len(up.coeffs)])
        s = stable_discriminant(u, up, self.pair.eps0, self.pair.eps1)
        scale = (
            up.value * up.value
            + abs(4.0 * u.value * (u.value + 2.0 * self.pair.eps0) * (u.value - 2.0 * self.pair.eps1))
            + 1.0
        )
        bad = jets.first(s.value < -DISC_TOL * scale)
        if bad is not None:
            raise NegativeDiscriminantError(jets.at(u.x0, bad), jets.at(s.value, bad))
        low = s.value <= 0.0
        if jets.first(low) is not None:
            s = jets.Jet(s.x0, (jets.where(low, 1e-30 * scale, s.value),) + s.coeffs[1:])
        return _select_form(u, up, jets.sqrt(s), sign, self.pair)

    @staticmethod
    def _local_jet(lp: local_series.LaurentPoly, t: float, x: float) -> jets.Jet:
        lp = lp.structurally_trimmed(1e-12)
        if t == 0.0:
            if lp.valuation >= 0:
                return jets.Jet(x, tuple(lp.coeff(k) for k in range(jets.N_COEFF)))
            # exact pole hit: signed infinity, right-side convention
            inf = math.copysign(math.inf, lp.coeffs[0])
            return jets.Jet(x, (inf,) * jets.N_COEFF)
        coeffs = []
        fact = 1.0
        for k in range(jets.N_COEFF):
            acc = 0.0
            for j, c in enumerate(lp.coeffs):
                m = lp.valuation + j
                ff = 1.0
                for r in range(k):
                    ff *= m - r
                if ff != 0.0 and c != 0.0:
                    acc += c * ff * t ** (m - k)
            coeffs.append(acc / fact)
            fact *= k + 1.0
        return jets.Jet(x, tuple(coeffs))

    def w_plus(self, x: float, sign: int | None = None) -> jets.Jet:
        """Jet of the branch-resolved W+ at x (sign-map branch unless overridden)."""
        return self._members(x, ("wp",), sign)[0]

    def _direct_members(self, xr, names, sign, n: int = jets.N_COEFF) -> list:
        """Jets of the named chain members from one jet of n coefficients of U
        at a reduced point outside the patch windows, or a batch (one sign per
        point), stopping the chain at the last member asked for."""
        u = self.u.jet(xr, n)
        stage = max(_STAGE[name] for name in names)
        got = _chain(self._w_direct(u, sign), u, self.pair, jets.differentiate, lambda j: j, stage)
        return [getattr(got, name) for name in names]

    def _members(self, x: float, names, sign: int | None = None) -> list:
        """Jets of the named chain members at x; inside a patch window only
        their own local series are evaluated."""
        xr = _reduce(x, self.period)
        j, side, s, t = self._locate(xr)
        if j < 0:
            return self._direct_members(xr, names, s if sign is None else sign)
        loc = self._active_local(self.patches[j], side, sign)
        return [self._local_jet(getattr(loc, name), t, xr) for name in names]

    def chain(self, x: float, sign: int | None = None) -> _Chain:
        """Jets of every chain member at x (sign-map branch unless overridden);
        local-series backed inside patch windows."""
        return _Chain(*self._members(x, _Chain._fields, sign))

    def w_plus_tilde(self, x: float, sign: int | None = None) -> jets.Jet:
        return self.chain(x, sign).wt

    def superpotentials(self, x: float, sign: int | None = None):
        """(W0, W1, W2) jets at x."""
        c = self.chain(x, sign)
        return c.w0, c.w1, c.w2

    def potentials(self, x, sign: int | None = None):
        """(V-, V+) at x, or per point of an array x.  An exact hit of a
        lower-strip-edge point whose active branch vanishes raises: V+ has
        a genuine pole there.  A scalar x off the windows runs a recorded
        kernel where one applies (see _scalar_potentials); inside them W0
        and its slope come from the window-series tables."""
        n = _U_TERMS["w0"] + 1  # W0 and its slope
        L = self.period
        if not isinstance(x, np.ndarray):
            xr = _reduce(x, L)
            j, side, s = self._cells[bisect_right(self._starts, xr) - 1]  # _locate's lookup, inlined
            if j < 0:
                return self._scalar_potentials(xr, s if sign is None else sign, n)
            t = self._locate(xr)[3]
            if self.patches[j].vplus_pole and abs(t) < 1e-12 * L:
                raise VplusPoleError(self.patches[j].x)
            w0, slope = (self._series("w0", v, sign).polys[2 * j + (side < 0)] for v in ("", "slope"))
            if isinstance(w0, str):
                raise UnremovablePoleError(self.patches[j].x, w0)
            return _partner_potentials(_series_at(w0, t), _series_at(slope, t))
        xr = _reduce(x.ravel(), L)
        where, side, s, t = self._locate(xr)
        direct = where < 0
        out = np.empty((2, xr.size))
        w0 = self._direct_members(xr[direct], ("w0",), s[direct] if sign is None else sign, n)[0]
        out[:, direct] = _partner_potentials(w0.value, w0.derivative(1))
        if not direct.all():
            j, t = where[~direct], t[~direct]
            rows = 2 * j + (side[~direct] < 0)
            w0, slope = self._series("w0", "", sign), self._series("w0", "slope", sign)
            # the first error of a pass patch by patch: a V+ pole hit, then the right side, then the left
            hit = np.array([p.vplus_pole for p in self.patches])[j] & (np.abs(t) < 1e-12 * L)
            k = np.argmin(key := 4 * j + np.where(hit, 0, np.where(w0.bad[rows], 1 + rows % 2, 3)))
            if key[k] % 4 < 3:
                x0 = self.patches[j[k]].x
                raise VplusPoleError(x0) if key[k] % 4 == 0 else UnremovablePoleError(x0, w0.polys[rows[k]])
            out[:, ~direct] = _partner_potentials(self._sum(w0, rows, t), self._sum(slope, rows, t))
        return out[0].reshape(x.shape), out[1].reshape(x.shape)

    def _scalar_potentials(self, xr: float, sign: int, n: int):
        """(V-, V+) at a reduced point off the windows from W0 and its slope.

        The W0 kernels recorded for the sign (jets.trace of the jet path
        below) run first; at a side exit of each, or with none, the jet path
        runs and raises as it does, and a call it completes records one
        more kernel while the key has room."""
        kernels = self._kernels.setdefault((sign, n), [])
        for i, kernel in enumerate(kernels):
            try:
                got = kernel(xr)
            except (ArithmeticError, ValueError):  # the jet path raises its own
                break
            if got is not None:
                if i:  # neighbouring points mostly take the same one
                    kernels.insert(0, kernels.pop(i))
                (w0,) = got
                return _partner_potentials(w0[0], w0[1] * 1)  # as Jet.derivative(1)
        w0 = self._direct_members(xr, ("w0",), sign, n)[0]
        if len(kernels) < KERNELS_PER_KEY:
            kernels.append(jets.trace(partial(self._direct_members, names=("w0",), sign=sign, n=n), xr))
        return _partner_potentials(w0.value, w0.derivative(1))

    def _series(self, name: str, variant: str = "", sign: int | None = None) -> "_Series":
        """One chain member's window-series table on the sign-map branch (or
        one sign), built on first use: each (patch, side)'s trimmed series in
        the offset; "regular" drops its negative powers, "slope" is W0'."""
        key = (name, variant, sign)
        if key not in self._series_tables:
            polys = [p.branches[(s, sign or p.side_signs[s])] for p in self.patches for s in (+1, -1)]
            for g, got in enumerate(polys):
                if not isinstance(got, str):
                    lp = getattr(got, name).structurally_trimmed(1e-12)
                    lp = polys[g] = local_series.LaurentPoly(0.0, lp.valuation, lp.coeffs)
                    if variant == "regular":
                        polys[g] = lp.regular_part()
                    elif variant == "slope":  # trimmed() drops the zero term a constant leaves
                        polys[g] = lp.derivative().trimmed()
            bad = np.array([isinstance(lp, str) for lp in polys])
            lps = [local_series.LaurentPoly(0.0, 0, ()) if b else lp for lp, b in zip(polys, bad)]
            width = max(len(lp.coeffs) for lp in lps)
            coef = np.array([list(lp.coeffs) + [0.0] * (width - len(lp.coeffs)) for lp in lps]).T
            self._series_tables[key] = _Series(polys, np.array([lp.valuation for lp in lps]), coef, bad)
        return self._series_tables[key]

    def _sum(self, table: "_Series", rows: np.ndarray, t: np.ndarray, shift=0) -> np.ndarray:
        """Each point's table row at its offset t, valuation lowered by shift:
        one Horner pass over the gathered rows, then t ** v per distinct v, a
        scalar exponent as in LaurentPoly's call, so each point rounds as that
        call does.  A row whose pole cannot cancel raises at its first point."""
        bad = np.flatnonzero(table.bad[rows])
        if bad.size:
            raise UnremovablePoleError(self.patches[rows[bad[0]] // 2].x, table.polys[rows[bad[0]]])
        acc = np.zeros(t.size)
        for c in table.coef[::-1, rows]:
            acc = acc * t + c
        v = table.valuation[rows] - shift
        with np.errstate(divide="ignore", invalid="ignore"):
            for val in set(v[v != 0].tolist()):
                on = v == val
                acc[on] *= t[on] ** float(val)
        return acc

    # ------------------------------------------------------------------
    # wavefunctions
    # ------------------------------------------------------------------

    def _ensure_assembly(self) -> "_StateAssembly":
        if self._assembly is None:
            self._assembly = _StateAssembly(self)
        return self._assembly

    def wavefunctions_minus(self, x, c0: float = 1.0, c1: float = 1.0, c2: float = 1.0):
        return self._ensure_assembly().evaluate(x, ((0, None), (1, "wp"), (2, "g")), (c0, c1, c2))

    def wavefunctions_plus(self, x, c1: float = 1.0, c2: float = 1.0):
        consts = (c1 * math.sqrt(2.0) * self.pair.eps0, c2 / math.sqrt(2.0))
        return self._ensure_assembly().evaluate(x, ((1, None), (2, "h")), consts)

    def log_weight(self, i: int, x):
        """Pole-regularized integral of W_i from the half-period point to x
        (periodic in x): a float for a scalar x, else an array of its shape."""
        xr = _reduce(np.asarray(x, dtype=float).ravel(), self.period)
        out = self._ensure_assembly().log_weight(i, xr)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    # ------------------------------------------------------------------
    # quadrature
    # ------------------------------------------------------------------

    def integrate_superpotential(self, i: int, a: float, b: float) -> float:
        """Integral of W_i over [a, b]; principal value across chain poles.

        [a, b] must fit inside one period after reduction by a common shift.
        The integral is read from the antiderivative tables of the state
        assembly, which the first call builds.  An endpoint exactly on a
        pole image diverges and raises QuadratureNonconvergenceError.
        """
        if i not in (0, 1, 2):
            raise ValueError("chain index must be 0, 1 or 2")
        if b < a:
            return -self.integrate_superpotential(i, b, a)
        L = self.period
        shift = math.floor(a / L) * L
        a2, b2 = a - shift, b - shift
        if b2 > L + 1e-12:
            raise ValueError("integration range spans more than one period after reduction")
        lo, hi = self._ensure_assembly().log_weight(i, np.array([a2, min(b2, L)])).tolist()
        if not math.isfinite(hi - lo):
            raise QuadratureNonconvergenceError(a, b, math.inf, 1e-10)
        return hi - lo

    # ------------------------------------------------------------------

    @property
    def energies(self):
        return (0.0, self.pair.eps0, self.pair.top)


def _series_at(lp: local_series.LaurentPoly, t: float) -> float:
    """lp(t) for a series expanded at 0 and a float offset t, rounded as
    LaurentPoly's numpy evaluation of a one-point array rounds."""
    acc = 0.0
    for c in reversed(lp.coeffs):
        acc = acc * t + c
    if lp.valuation:
        # numpy's array power (reciprocal, square or a SIMD pow) rounds
        # unlike libm's pow, so the power comes from a one-point array
        with np.errstate(divide="ignore", invalid="ignore"):
            acc = acc * float((np.array([t]) ** float(lp.valuation))[0])
    return acc


def _partner_potentials(w0, slope):
    """(V-, V+) = ((W0^2 - W0') / 2, (W0^2 + W0') / 2) from W0 and W0'."""
    v = w0 * w0
    return 0.5 * (v - slope), 0.5 * (v + slope)


def _cheb_fit(f, n: int, lo: float, hi: float) -> Chebyshev:
    """Degree n-1 Chebyshev interpolant on [lo, hi] via first-kind nodes,
    every coefficient kept: the ladder tests the tail before the assembly
    cuts it.

    The DCT route (numpy's FFT, see _dct2) avoids the O(n^2) Vandermonde of
    Chebyshev.interpolate, which matters once the resolution ladder climbs
    past a few thousand.
    """
    j = np.arange(n)
    theta = (2.0 * j + 1.0) * math.pi / (2.0 * n)
    x = np.cos(theta)
    y = f(lo + (hi - lo) * 0.5 * (x + 1.0))
    c = _dct2(y) * (2.0 / n)
    c[0] *= 0.5
    return Chebyshev(c, domain=[lo, hi])


def _dct2(y: np.ndarray) -> np.ndarray:
    """sum_j y_j cos(pi k (2j + 1) / 2n) for k < n = len(y), from one complex
    FFT of y's even samples followed by its odd ones reversed (Makhoul,
    IEEE TASSP 28(1), 1980)."""
    n = y.size
    v = np.concatenate((y[::2], y[1::2][::-1]))
    return (np.exp(-0.5j * math.pi / n * np.arange(n)) * np.fft.fft(v)).real


def _antiderivative(c: np.ndarray, scale: float) -> np.ndarray:
    """Chebyshev coefficients of the antiderivative of scale * sum c_k T_k:
    C_k = scale * (c_{k-1} - c_{k+1}) / 2k with c_0 counted twice, as
    chebint's loop computes them; the free constant C_0 is 0."""
    m = c.size
    d = np.zeros(m + 2)
    d[:m] = c * scale
    d[0] *= 2.0
    out = np.zeros(m + 1)
    out[1:] = (d[:m] - d[2:]) / (2.0 * np.arange(1, m + 1))
    return out


class _StateAssembly:
    """Spectral antiderivative tables and pole bookkeeping for the five states.

    A state is its factor (1, W+, g, h or sqrt(2)*eps0) times the weight
    w_i(x) = exp(phi_i(xm) - phi_i(x)) * prod ((x - q) / (xm - q))^(-rho) over
    the pole images (q, rho) of chain i; phi_i integrates the pole-free part
    of W_i and xm is the half-period point.  The residues rho are integers,
    so the signed powers carry every sign through a pole.  Inside a pole
    window the image's power becomes (xm - q)^rho and factor * (x - q)^(-rho)
    comes from the factor's local series, its valuation shifted by -rho.
    Across the seam state(x + L) = sigma_i * state(x), sigma_i = (-1)^(sum of
    rho over a period): W_i is odd about xm, so its principal value over a
    period vanishes, and the factors are periodic.
    A scalar x is a batch of one: the system's locator splits a batch, phi is
    one Clenshaw pass across segments, and the factors are one chain batch
    outside the windows and one pass over the window-series tables inside.
    Each table integrates the shortest prefix of its converged fit whose
    whole dropped tail passes the ladder's own test (Chebfun's chop once a
    series has converged; Aurentz & Trefethen, ACM TOMS 43(4), 2017), so it
    is as long as its function needs.
    """

    def __init__(self, system: ConstructedSystem):
        # the system owns its assembly; a weak link back keeps the pair free
        # of a reference cycle, so dropping the system frees both at once
        self.sys = weakref.proxy(system)
        L = system.period
        self.xm = system.midpoint
        # When the root branches carry a midpoint constant (W0 -> +/-B with
        # B != 0) the glued chain jumps at the branch-map breakpoints; a
        # single fit across a jump never converges, so the tables are built
        # per smooth segment.
        cuts = sorted(b for b in set(system.branch_map.breakpoints) if 1e-12 < b < L - 1e-12)
        self.seg_bounds = [0.0] + cuts + [L]
        self.images = [
            tuple((q + k * L, rho) for q, rho in system.poles[name] for k in (-1, 0, 1)
                  if -0.5 * L <= q + k * L <= 1.5 * L)
            for name in CHAIN_NAMES
        ]
        self.wrap = tuple(-1.0 if sum(r for _, r in system.poles[name]) % 2 else 1.0 for name in CHAIN_NAMES)
        self.seg_tables = [[] for _ in CHAIN_NAMES]
        self.seg_base = [[] for _ in CHAIN_NAMES]
        self._segments = []  # per segment: domain map, bases, coefficient rows as Python floats
        acc = [0.0 for _ in CHAIN_NAMES]
        for a, b in zip(self.seg_bounds[:-1], self.seg_bounds[1:]):
            # node count -> all three chains sampled at those nodes; each
            # chain climbs its own resolution ladder over the shared samples
            rows = {}
            for i in range(len(CHAIN_NAMES)):

                def sample(xv, i=i, rows=rows):
                    if xv.size not in rows:
                        rows[xv.size] = self._regular_samples(xv)
                    return rows[xv.size][i]

                n = CHEB_DEGREE
                while True:
                    cheb = _cheb_fit(sample, n, a, b)
                    mag = np.abs(cheb.coef)
                    tail = float(np.max(mag[-max(8, n // 8):]))
                    scale = max(float(np.max(mag)), 1e-300)
                    if tail <= CHEB_TAIL_REL * scale:
                        break
                    if n >= CHEB_DEGREE_MAX:
                        # the tables are the integrals of W_i: an unconverged fit fails
                        raise QuadratureNonconvergenceError(a, b, tail / scale, CHEB_TAIL_REL)
                    n *= 2
                # the shortest prefix whose whole dropped tail passes that test
                live = np.flatnonzero(mag > CHEB_TAIL_REL * scale)
                c = _antiderivative(cheb.coef[: live[-1] + 1 if live.size else 1], 0.5 * (b - a))
                at_a = float(np.sum(c[::2]) - np.sum(c[1::2]))  # T_k(-1) = (-1)^k
                self.seg_tables[i].append(Chebyshev(c, domain=[a, b]))
                self.seg_base[i].append(acc[i] - at_a)
                acc[i] += float(np.sum(c)) - at_a  # T_k(1) = 1
            base = np.array([per_chain[-1] for per_chain in self.seg_base])
            lists = [t[-1].coef.tolist() for t in self.seg_tables]
            self._segments.append((*self.seg_tables[0][-1].mapparms(), base, lists))
        # (terms, chain, segment), each table zero-padded at the top to the
        # longest: leading zeros change no bit of a Clenshaw sum
        n = max(len(t.coef) for per_chain in self.seg_tables for t in per_chain)
        self._block = np.array([[np.pad(t.coef, (0, n - len(t.coef))) for t in per_chain]
                                for per_chain in self.seg_tables]).transpose(2, 0, 1)
        self.phi_mid = self._phi(np.array([self.xm]))[:, 0].tolist()

    def _phi(self, x: np.ndarray, chains=range(len(CHAIN_NAMES))) -> np.ndarray:
        """Integrals of the pole-free W0, W1, W2 from 0 to each x in [0, L], a
        row each; the rows of chains not asked for are left unset.  Below
        BATCH_MIN points (an integral's two ends), Clenshaw sums of Python
        floats per segment; a larger batch is one pass across segments, its
        points sorted into rows of m = ceil(n / segments), each row one
        segment's, its coefficients broadcast along the row.  Both round as
        chebval does."""
        nseg = len(self._segments)
        seg = np.minimum(np.searchsorted(self.seg_bounds, x, side="right") - 1, nseg - 1)
        out = np.empty((len(CHAIN_NAMES), x.size))
        rows = list(chains)
        if x.size < BATCH_MIN:
            for k in set(seg.tolist()):
                idx = np.flatnonzero(seg == k)
                off, scl, base, lists = self._segments[k]
                y = off + scl * x[idx]
                for i in rows:
                    out[i, idx] = base[i] + np.array([_clenshaw(lists[i], v) for v in y.tolist()])
            return out
        m = -(-x.size // nseg)
        order = np.argsort(seg, kind="stable")
        sk, counts = seg[order], np.bincount(seg, minlength=nseg)
        nrows = -(-counts // m)
        pos = np.arange(x.size) - (np.cumsum(counts) - counts)[sk]
        row, col = (np.cumsum(nrows) - nrows)[sk] + pos // m, pos % m
        y = np.zeros((int(nrows.sum()), m))
        off, scl = np.array([segment[:2] for segment in self._segments]).T[:, sk]
        y[row, col] = off + scl * x[order]
        coef = self._block[:, rows][:, :, np.repeat(np.arange(nseg), nrows), None]
        c0, c1, spare = np.empty((3, len(rows)) + y.shape)
        c0[:], c1[:], x2 = coef[-2], coef[-1], 2.0 * y
        for ck in coef[-3::-1]:  # (c0, c1) <- (ck - c1, c0 + c1 * x2)
            np.add(c0, np.multiply(c1, x2, out=spare), out=spare)
            np.subtract(ck, c1, out=c0)
            c1, spare = spare, c1
        out[np.ix_(rows, order)] = np.array(self.seg_base)[rows][:, sk] + (c0 + c1 * y)[:, row, col]
        return out

    def _regular_samples(self, xs: np.ndarray) -> np.ndarray:
        """W0, W1, W2 at xs in [0, L] with every registered pole term removed,
        a row each: one chain batch outside the patch windows; inside, each
        member's window series less its own pole, at x0 + t less x0 as a
        one-point call takes it; then the other images' poles, in order."""
        sysm = self.sys
        out = np.empty((len(CHAIN_NAMES), xs.size))
        where, side, sign, offset = sysm._locate(xs)
        direct = where < 0
        if direct.any():
            xd = xs[direct]
            chain = sysm._direct_members(xd, CHAIN_NAMES, sign[direct], max(map(_U_TERMS.get, CHAIN_NAMES)))
            for i, jet in enumerate(chain):
                v = jet.value
                for (q, rho) in self.images[i]:
                    v = v - rho / (xd - q)
                out[i, direct] = v
        if not direct.all():
            x, t = xs[~direct], offset[~direct]
            x0 = sysm._columns[-1][where[~direct]]
            rows = 2 * where[~direct] + (side[~direct] < 0)
            for i, name in enumerate(CHAIN_NAMES):
                v = sysm._sum(sysm._series(name, "regular"), rows, (x0 + t) - x0)
                for (q, rho) in self.images[i]:
                    other = np.abs(q - (x - t)) >= 1e-9  # its own pole is in the series split
                    v[other] -= rho / (x[other] - q)
                out[i, ~direct] = v
        return out

    def log_weight(self, i: int, x: np.ndarray) -> np.ndarray:
        """phi_i from xm to each x in [0, L] plus rho * log|(x - q) / (xm - q)|
        per pole image: -inf * rho on an image, so a difference of two is the
        principal-value integral of W_i between them.  One table read of
        chain i; the logs are math.log's, whatever the batch size."""
        phi = self._phi(x, (i,))[i] - self.phi_mid[i]
        for (q, rho) in self.images[i]:
            logs = [math.log(d) if d > 0.0 else -math.inf for d in np.abs(x - q).tolist()]
            phi += rho * (np.array(logs) - math.log(abs(self.xm - q)))
        return phi

    def evaluate(self, x, states, consts):
        """const * factor * w_i for each (i, factor name or None for 1) of
        states, at every point of x: floats for a scalar x, else arrays of
        its shape.  Points are reduced once and continued by sigma_i^m."""
        sysm = self.sys
        flat = np.asarray(x, dtype=float).ravel()
        xr = _reduce(flat, sysm.period)
        m = np.rint((flat - xr) / sysm.period)
        phi = self._phi(xr, sorted({i for i, _ in states}))
        where, side, sign, offset = sysm._locate(xr)
        direct, inside = np.flatnonzero(where < 0), np.flatnonzero(where >= 0)
        names = [name for _, name in states if name]
        n = max(_U_TERMS[name] for name in names)
        if direct.size >= BATCH_MIN:
            factors = [jet.value for jet in sysm._direct_members(xr[direct], names, sign[direct], n)]
        else:  # one float jet per point beats a small batch
            factors = [[j.value for j in sysm._direct_members(v, names, s, n)]
                       for v, s in zip(xr[direct].tolist(), sign[direct].tolist())]
            factors = np.reshape(factors, (direct.size, len(names))).T
        factors = dict(zip(names, factors))
        rows = 2 * where[inside] + (side[inside] < 0)
        out = []
        for (i, name), const in zip(states, consts):
            w = np.exp(self.phi_mid[i] - phi[i])
            q, rho = np.array(sorted(self.images[i])).reshape(-1, 2).T  # ties go to the smaller q
            near = np.full(xr.size, -1)  # the image whose pole window holds the point
            r = (xr - q[:, None]) / (self.xm - q[:, None])
            power = np.full(r.shape, math.inf)  # an exact hit outside a window reads 0, or inf for rho > 0
            np.power(r, -rho[:, None], out=power, where=(r != 0.0) | (rho[:, None] < 0))
            if name and q.size and inside.size:
                d = np.abs(xr[inside] - q[:, None])
                hit = np.min(d, axis=0) <= sysm.patch_halfwidth
                pts, j = inside[hit], np.argmin(d, axis=0)[hit]
                near[pts] = j
                power[j, pts] = (self.xm - q[j]) ** rho[j]
            w *= power.prod(axis=0)
            if name:
                f = np.empty(xr.size)
                f[direct] = factors[name]
                if inside.size:  # in the offset itself, so no rounding of patch.x + t enters
                    shift = np.append(rho, 0)[near[inside]]  # near = -1 reads the appended 0
                    f[inside] = sysm._sum(sysm._series(name), rows, offset[inside], shift)
                w *= f
            out.append(const * self.wrap[i] ** m * w)
        if np.ndim(x) == 0:
            return tuple(float(row[0]) for row in out)
        return tuple(row.reshape(np.shape(x)) for row in out)


def _clenshaw(c: list, y: float) -> float:
    """chebval(y, c) on Python floats, operation for operation."""
    c0, c1, x2 = c[-2], c[-1], 2.0 * y
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * y


def __getattr__(name):  # susy.quad for bench/selftest.py, imported on first read (~25 MB)
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad

    return quad


def construct(u, eps0: float, eps1: float, period: float, validate: bool = True) -> ConstructedSystem:
    """Build the full three-level system from a generating-function expression."""
    return ConstructedSystem(u, eps0, eps1, period, validate=validate)
