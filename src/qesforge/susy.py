"""Three-level factorization chain driven by a single generating function.

Given an admissible periodic U(x) and positive level spacings (eps0, eps1),
this module resolves the root branches of the defining quadratic
(U - 2*eps1) W^2 + U' W - U (U + 2*eps0) = 0, assembles the superpotential
chain W0, W1, W2, the partner potentials, and the three lower / two upper
eigenfunctions.  Evaluation is jet based away from the structural points of
U and switches to matched local series inside narrow windows around them;
the seam between the two representations is verified at construction time.

The chain formulas (W~+ = U/W+, W0 and W1 from W+, W2 from W~+, and the
excited-state factors g and h) live in ``_chain`` alone, which works on any
truncated series type: patches apply it once to their Laurent series, and
``ConstructedSystem.chain`` applies it to jets at a point.
"""

from __future__ import annotations

import functools
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.fft import dct
from scipy.integrate import quad

from . import jets, local_series, validator
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
CHEB_DEGREE = 512
# Chain functions can have complex branch points close to the real axis
# (steep shoulders in the potential); the antiderivative tables double
# their resolution until the coefficient tail is negligible.
CHEB_DEGREE_MAX = 8192
CHEB_TAIL_REL = 1e-10
CHAIN_NAMES = ("w0", "w1", "w2")

# Length of the high-order local Taylor data for U (from its Fourier modes)
# and of the series branches solved from it.
U_TAYLOR_TERMS = 18
LOCAL_COEFFS = 16
# Where S has a high-order zero the direct evaluator inherits catastrophic
# cancellation well beyond the nominal patch window; the matched series is
# the accurate representation out to this fraction of the period.
WIDE_EVAL_FRACTION = 8e-3
FOURIER_SAMPLES = 4096

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

    def sign_at(self, x):
        """Sign at x, or per point for an array of points."""
        if isinstance(x, np.ndarray):
            i = np.searchsorted(self.breakpoints, np.remainder(x, self.period), side="right") - 1
            return np.asarray(self.signs)[i]  # i = -1 is the last arc, as below
        xr = x % self.period
        i = bisect_right(self.breakpoints, xr) - 1
        if i < 0:
            i = len(self.signs) - 1
        return self.signs[i]


class _Chain(NamedTuple):
    """One W+ branch and everything the chain derives from it."""

    wp: object
    wt: object
    w0: object
    w1: object
    w2: object
    g: object
    h: object


def _chain(wp, u, pair: EnergyPair, d, cancel) -> _Chain:
    """The chain of one W+ branch, over jets or Laurent series alike.

    d differentiates a series; cancel trims a numerator that cancels at the
    expansion point, which must happen before dividing or roundoff remnants
    turn into spurious pole terms downstream.
    """
    e0, e1 = pair.eps0, pair.eps1
    diff0 = cancel(d(wp) - 2.0 * e0) / wp
    w0 = (wp - diff0) * 0.5
    w1 = (wp + diff0) * 0.5
    wt = cancel(u) / wp
    wt_d = d(wt)
    diff2 = cancel(wt_d - 2.0 * e1) / wt
    w2 = (wt + diff2) * 0.5
    g = (w0 + w2) * wt - wt_d
    h = d(g) - g * (w2 - w0)
    return _Chain(wp, wt, w0, w1, w2, g, h)


class _Patch:
    """A structural point of U with its per-(side, sign) matched branches."""

    def __init__(self, x: float, kind: str, u_jet: jets.Jet):
        self.x = x
        self.kind = kind
        self.u_jet = u_jet
        self.branches = {}  # (side, sign) -> _Chain of LaurentPoly or UnremovablePoleError
        self.vplus_pole = False
        self.eval_halfwidth = 0.0

    def local(self, side: int, sign: int) -> _Chain:
        # a combination whose chain pole cannot cancel is stored as the
        # error itself: harmless unless evaluation actually lands on it
        got = self.branches[(side, sign)]
        if isinstance(got, UnremovablePoleError):
            raise got
        return got


def _reduce(x: float, period: float) -> float:
    xr = math.fmod(float(x), period)
    if xr < 0.0:
        xr += period
    return xr


def stable_discriminant(u_jet: jets.Jet, pair: EnergyPair) -> jets.Jet:
    """Jet of S = U'^2 + 4 U (U + 2 eps0)(U - 2 eps1); total, never raises."""
    up = jets.differentiate(u_jet)
    return up * up + 4.0 * u_jet * (u_jet + 2.0 * pair.eps0) * (u_jet - 2.0 * pair.eps1)


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
        self._build_fourier()
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
        self._register_poles()
        self._verify_oddness()
        self._assembly = None

    # ------------------------------------------------------------------
    # construction phases
    # ------------------------------------------------------------------

    def _build_fourier(self):
        """Retained Fourier modes of U, for Taylor data beyond the jet order."""
        n = FOURIER_SAMPLES
        xs = np.arange(n) * (self.period / n)
        spec = np.fft.rfft(np.asarray(self.u.arr(xs), dtype=float)) / n
        mag = np.abs(spec)
        keep = np.nonzero(mag > 1e-13 * max(float(mag.max()), 1e-300))[0]
        weight = np.where((keep == 0) | (keep == n // 2), 1.0, 2.0)
        self._fourier_amp = spec[keep] * weight
        self._fourier_freq = keep * (2.0 * math.pi / self.period)

    def _u_taylor(self, x0: float, m: int):
        """First m Taylor coefficients of U at x0, via its Fourier modes."""
        cur = self._fourier_amp * np.exp(1j * self._fourier_freq * x0)
        out = [float(np.sum(cur.real))]
        fact = 1.0
        for k in range(1, m):
            cur = cur * (1j * self._fourier_freq)
            fact *= k
            out.append(float(np.sum(cur.real)) / fact)
        return tuple(out)

    def _classify_points(self):
        L = self.period
        if self.report is not None:
            sv = self.report.s_samples
            zero_records = self.report.zeros
        else:
            _, sv = validator.discriminant_samples(self.u)
            zero_records = validator.locate_zeros(self.u, self.pair.eps0, self.pair.eps1, L)
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
        for p in validator.find_level_crossings(self.u, -2.0 * self.pair.eps0):
            pts.append((p, KIND_LOWER_EDGE))
        known = sorted(p for p, _ in pts)
        for p in self._accidental_discriminant_zeros():
            if not known or min(abs(p - k) for k in known) > 1e-6 * L:
                if min(p, L - p) > 1e-6 * L:
                    pts.append((p, KIND_BRANCH_TOUCH))
        pts.sort()
        self.patches = [_Patch(p, kind, self.u.jet(p)) for p, kind in pts]
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
                out.append(imin * L / n)
        for i in range(n):
            if sv[i] * sv[(i + 1) % n] < 0 and not (tiny[i] or tiny[(i + 1) % n]):
                out.append((i + 0.5) * L / n)
        return sorted(out)

    def _is_breakpoint(self, x: float) -> bool:
        s = stable_discriminant(self.u.jet(x), self.pair).value
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
        ul = self.u.jet(_reduce(b - d, self.period))
        ur = self.u.jet(_reduce(b + d, self.period))
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
            uc = self._u_taylor(patch.x, U_TAYLOR_TERMS)
            scale = max(1.0, max(abs(c) for c in patch.u_jet.coeffs))
            for a, b in zip(uc, patch.u_jet.coeffs):
                if abs(a - b) > 1e-7 * scale:
                    raise PatchFailureError(
                        patch.x, "Fourier-mode Taylor data disagrees with the jet of U"
                    )
            candidates = list(
                local_series.taylor_branches(patch.x, uc, e0, e1, n_coeffs=LOCAL_COEFFS)
            )
            if patch.kind == KIND_UPPER_EDGE:
                candidates += list(
                    local_series.pole_branches(patch.x, uc, e0, e1, n_coeffs=LOCAL_COEFFS)
                )
            if not candidates:
                raise PatchFailureError(patch.x, "no local branch solves the quadratic")
            u_loc = local_series.LaurentPoly(patch.x, 0, uc)
            slope_tol = 1e-6 * max(1.0, 2.0 * e0)
            for side in (+1, -1):
                xs = patch.x + side * h
                u_seam = self.u.jet(_reduce(xs, self.period))
                for sign in (+1, -1):
                    target = self._w_direct(u_seam, sign).value
                    ref = max(1.0, abs(target))
                    best, best_err = None, math.inf
                    for cand in candidates:
                        err = abs(cand(xs) - target)
                        if err < best_err:
                            best, best_err = cand, err
                    if best_err > SEAM_TOL * ref:
                        raise SeamMismatchError(xs, best_err / ref, SEAM_TOL)
                    # a branch vanishing with a slope other than +-2*eps0 leaves
                    # a chain pole that cannot cancel; it is stored as the error
                    wpt = best.structurally_trimmed(1e-9)
                    slope = wpt.coeff(1)
                    if (
                        wpt.valuation >= 1
                        and abs(slope - 2.0 * e0) > slope_tol
                        and abs(slope + 2.0 * e0) > slope_tol
                    ):
                        patch.branches[(side, sign)] = UnremovablePoleError(
                            patch.x,
                            f"W+ vanishes with slope {slope:.6g} outside {{+2*eps0, -2*eps0}}; "
                            "the chain pole cannot cancel",
                        )
                    else:
                        patch.branches[(side, sign)] = _chain(
                            best, u_loc, self.pair, local_series.LaurentPoly.derivative,
                            lambda lp: lp.structurally_trimmed(1e-12),
                        )
            if patch.kind not in (KIND_DOUBLE_ZERO, KIND_BRANCH_TOUCH):
                for sign in (+1, -1):
                    pa = patch.branches[(+1, sign)]
                    pb = patch.branches[(-1, sign)]
                    if isinstance(pa, UnremovablePoleError) or isinstance(pb, UnremovablePoleError):
                        continue
                    a = pa.wp.structurally_trimmed(1e-9)
                    b = pb.wp.structurally_trimmed(1e-9)
                    if a.valuation != b.valuation:
                        raise PatchFailureError(
                            patch.x, "branch type changes across a point that is not a breakpoint"
                        )

    def _active_local(self, patch: _Patch, side: int, sign: int | None = None) -> _Chain:
        """Local chain on one side of a patch, on the sign-map branch half a window out."""
        if sign is None:
            sign = self.branch_map.sign_at(patch.x + side * 0.5 * self.patch_halfwidth)
        return patch.local(side, sign)

    def _register_poles(self):
        """Pole locations and residues of each chain member under the sign map."""
        self.poles = {name: [] for name in CHAIN_NAMES}
        for patch in self.patches:
            loc = self._active_local(patch, +1)
            # V+ is singular exactly where the active W0 keeps a pole; at a
            # transversal lower-edge crossing that is the vanishing branch,
            # but a tuned tangential touch can stay regular
            patch.vplus_pole = (
                patch.kind == KIND_LOWER_EDGE
                and loc.w0.structurally_trimmed(1e-9).valuation < 0
            )
            for name in CHAIN_NAMES:
                lp = getattr(loc, name).structurally_trimmed(1e-12)
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
        t = t[(self._near_patches(xm + t)[0] < 0) & (self._near_patches(xm - t)[0] < 0)]
        x = np.column_stack((xm + t, xm - t)).ravel()
        w = self._w_direct(self.u.jet(x), self.branch_map.sign_at(x)).value if x.size else x
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

    def _near_patch(self, x: float):
        """(patch, signed offset) if x lies inside a patch's series region,
        else (None, 0.0).  The region is the wide evaluation window, not the
        nominal patch window."""
        if not self.patches:
            return None, 0.0
        xr = _reduce(x, self.period)
        i = bisect_right(self._patch_xs, xr)
        for j in (i - 1, i % len(self.patches)):
            p = self.patches[j]
            t = xr - p.x
            t -= self.period * round(t / self.period)
            if abs(t) <= p.eval_halfwidth:
                return p, t
        return None, 0.0

    def _near_patches(self, xr: np.ndarray):
        """_near_patch for an array of points already reduced to [0, L):
        the index into self.patches of each point's window (-1 for none)
        and its signed offset, by the same two-neighbour rule."""
        n = len(self.patches)
        where = np.full(xr.shape, -1)
        offset = np.zeros(xr.shape)
        if not n:
            return where, offset
        px = np.array(self._patch_xs)
        half = np.array([p.eval_halfwidth for p in self.patches])
        i = np.searchsorted(px, xr, side="right")
        for j in ((i - 1) % n, i % n):
            t = xr - px[j]
            t = t - self.period * np.round(t / self.period)
            hit = (where < 0) & (np.abs(t) <= half[j])
            where[hit] = j[hit]
            offset[hit] = t[hit]
        return where, offset

    def _w_direct(self, u: jets.Jet, sign) -> jets.Jet:
        """Stable-form W+ on the given branch, from the jet of U at a point
        (or from a batch jet of U, with one sign per point).  S <= 0 within
        roundoff is clamped point by point; below it the first offending
        point raises."""
        up = jets.differentiate(u)
        s = stable_discriminant(u, self.pair)
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
        xr = _reduce(x, self.period)
        patch, t = self._near_patch(xr)
        if patch is None:
            if sign is None:
                sign = self.branch_map.sign_at(xr)
            return self._w_direct(self.u.jet(xr), sign)
        return self._local_jet(self._active_local(patch, +1 if t >= 0.0 else -1, sign).wp, t, xr)

    def _direct_chain(self, xr, sign=None) -> _Chain:
        """Chain jets from one jet of U, at a reduced point outside every
        patch window or at a batch of them (one sign per point)."""
        if sign is None:
            sign = self.branch_map.sign_at(xr)
        u = self.u.jet(xr)
        return _chain(self._w_direct(u, sign), u, self.pair, jets.differentiate, lambda j: j)

    def _members(self, x: float, names, sign: int | None = None) -> list:
        """Jets of the named chain members at x; inside a patch window only
        their own local series are evaluated."""
        xr = _reduce(x, self.period)
        patch, t = self._near_patch(xr)
        if patch is None:
            chain = self._direct_chain(xr, sign)
            return [getattr(chain, name) for name in names]
        loc = self._active_local(patch, +1 if t >= 0.0 else -1, sign)
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

    def potentials(self, x: float, sign: int | None = None):
        """(V-, V+) at x.  An exact hit of a lower-strip-edge point whose
        active branch vanishes raises: V+ has a genuine pole there."""
        xr = _reduce(x, self.period)
        patch, t = self._near_patch(xr)
        if patch is not None and abs(t) < 1e-12 * self.period and patch.vplus_pole:
            raise VplusPoleError(patch.x)
        (w0,) = self._members(xr, ("w0",), sign)
        v = w0.value * w0.value
        d = w0.derivative(1)
        return 0.5 * (v - d), 0.5 * (v + d)

    # ------------------------------------------------------------------
    # wavefunctions
    # ------------------------------------------------------------------

    def _ensure_assembly(self) -> "_StateAssembly":
        if self._assembly is None:
            self._assembly = _StateAssembly(self)
        return self._assembly

    def wavefunctions_minus(self, x, c0: float = 1.0, c1: float = 1.0, c2: float = 1.0):
        return self._ensure_assembly().psi_minus(x, c0, c1, c2)

    def wavefunctions_plus(self, x, c1: float = 1.0, c2: float = 1.0):
        return self._ensure_assembly().psi_plus(x, c1, c2)

    def log_weight(self, i: int, x) -> float:
        """Pole-regularized integral of W_i from the half-period point to x
        (periodic in x)."""
        return self._ensure_assembly().log_weight(i, _reduce(x, self.period))

    # ------------------------------------------------------------------
    # quadrature
    # ------------------------------------------------------------------

    def integrate_superpotential(self, i: int, a: float, b: float) -> float:
        """Integral of W_i over [a, b]; principal value across chain poles.

        [a, b] must fit inside one period after reduction by a common shift.
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
        b2 = min(b2, L)
        h = self.patch_halfwidth
        name = CHAIN_NAMES[i]
        cuts = [a2, b2]
        windows = []
        for patch in self.patches:
            for img in (patch.x - L, patch.x, patch.x + L):
                lo, hi = img - h, img + h
                if hi <= a2 or lo >= b2:
                    continue
                lo, hi = max(lo, a2), min(hi, b2)
                cuts += [lo, hi]
                windows.append((lo, hi, patch, img))
        cuts = sorted(set(cuts))
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo < 1e-15:
                continue
            win = next((w for w in windows if w[0] <= lo and hi <= w[1]), None)
            if win is not None:
                total += self._integrate_local(win[2], win[3], name, lo, hi)
            else:
                val, err = quad(
                    lambda x: self._members(x, (name,))[0].value, lo, hi,
                    epsabs=1e-13, epsrel=1e-13, limit=200,
                )
                if err > 1e-10:
                    raise QuadratureNonconvergenceError(lo, hi, err, 1e-10)
                total += val
        return total

    def _integrate_local(self, patch: _Patch, img: float, name: str, lo: float, hi: float) -> float:
        t0, t1 = lo - img, hi - img
        lp_l = getattr(self._active_local(patch, -1), name).structurally_trimmed(1e-12)
        lp_r = getattr(self._active_local(patch, +1), name).structurally_trimmed(1e-12)
        if t1 <= 0.0:
            return _laurent_piece(lp_l, t0, t1)
        if t0 >= 0.0:
            return _laurent_piece(lp_r, t0, t1)
        res_l, res_r = lp_l.residue(), lp_r.residue()
        if abs(res_l - res_r) > 1e-6 * max(1.0, abs(res_l)):
            raise PatchFailureError(
                patch.x, f"pole residue of {name} differs across the point; no principal value exists"
            )
        total = res_l * math.log(abs(t1 / t0))
        total += _laurent_piece(_drop_residue(lp_l), t0, 0.0)
        total += _laurent_piece(_drop_residue(lp_r), 0.0, t1)
        return total

    # ------------------------------------------------------------------

    @property
    def energies(self):
        return (0.0, self.pair.eps0, self.pair.top)


def _drop_residue(lp: local_series.LaurentPoly) -> local_series.LaurentPoly:
    if lp.valuation > -1:
        return lp
    idx = -1 - lp.valuation
    coeffs = tuple(0.0 if j == idx else c for j, c in enumerate(lp.coeffs))
    return local_series.LaurentPoly(lp.x0, lp.valuation, coeffs)


def _laurent_piece(lp: local_series.LaurentPoly, t0: float, t1: float) -> float:
    """Integral of a Laurent series over [t0, t1] lying on one side of 0."""
    if lp.valuation < -1:
        raise PatchFailureError(lp.x0, "nonintegrable pole order in a chain member")
    total = 0.0
    for k, c in enumerate(lp.coeffs):
        if c == 0.0:
            continue
        p = lp.valuation + k
        if p == -1:
            if t0 == 0.0 or t1 == 0.0:
                # endpoint exactly on a logarithmic singularity: divergent
                raise QuadratureNonconvergenceError(lp.x0 + t0, lp.x0 + t1, math.inf, 1e-10)
            total += c * math.log(abs(t1 / t0))
        else:
            total += c * (t1 ** (p + 1) - t0 ** (p + 1)) / (p + 1)
    return total


def _safe_log(d: float) -> float:
    return math.log(d) if d > 0.0 else -math.inf


def _cheb_fit(f, n: int, lo: float, hi: float) -> Chebyshev:
    """Degree n-1 Chebyshev interpolant on [lo, hi] via first-kind nodes.

    The DCT route avoids the O(n^2) Vandermonde of Chebyshev.interpolate,
    which matters once the resolution ladder climbs past a few thousand.
    """
    j = np.arange(n)
    theta = (2.0 * j + 1.0) * math.pi / (2.0 * n)
    x = np.cos(theta)
    y = f(lo + (hi - lo) * 0.5 * (x + 1.0))
    c = dct(y, type=2) / n
    c[0] *= 0.5
    return Chebyshev(c, domain=[lo, hi])


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
        self.images = []
        for name in CHAIN_NAMES:
            imgs = []
            for (q, rho) in system.poles[name]:
                for k in (-1, 0, 1):
                    qi = q + k * L
                    if -0.5 * L <= qi <= 1.5 * L:
                        imgs.append((qi, rho))
            self.images.append(tuple(imgs))
        self.wrap = tuple(
            -1.0 if sum(rho for _, rho in system.poles[name]) % 2 else 1.0 for name in CHAIN_NAMES
        )
        self.seg_tables = [[] for _ in CHAIN_NAMES]
        self.seg_base = [[] for _ in CHAIN_NAMES]
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
                    tail = float(np.max(np.abs(cheb.coef[-max(8, n // 8):])))
                    scale = float(np.max(np.abs(cheb.coef)))
                    if tail <= CHEB_TAIL_REL * max(scale, 1e-300) or n >= CHEB_DEGREE_MAX:
                        break
                    n *= 2
                cheb = cheb.integ()
                self.seg_tables[i].append(cheb)
                self.seg_base[i].append(acc[i] - float(cheb(a)))
                acc[i] += float(cheb(b)) - float(cheb(a))
        self.phi_mid = [self._phi(i, self.xm) for i in range(len(CHAIN_NAMES))]

    def _phi(self, i: int, x: float) -> float:
        """Antiderivative of the pole-free part of chain i, from 0 to x."""
        bounds = self.seg_bounds
        xc = min(max(x, bounds[0]), bounds[-1])
        k = min(max(bisect_right(bounds, xc) - 1, 0), len(bounds) - 2)
        return self.seg_base[i][k] + float(self.seg_tables[i][k](xc))

    def _regular_samples(self, xs: np.ndarray) -> np.ndarray:
        """W0, W1, W2 with every registered pole term removed, one row each.

        xs lie in [0, L].  Points outside every patch window are one batch
        through the stable form; points inside a window read the patch's
        local series, less its own pole.  Each point then loses the pole
        terms of the other images, subtracted in image order.
        """
        sysm = self.sys
        out = np.empty((len(CHAIN_NAMES), xs.size))
        window, offset = sysm._near_patches(xs)
        direct = window < 0
        if direct.any():
            xd = xs[direct]
            chain = sysm._direct_chain(xd)
            for i, name in enumerate(CHAIN_NAMES):
                v = getattr(chain, name).value
                for (q, rho) in self.images[i]:
                    v = v - rho / (xd - q)
                out[i, direct] = v
        for k in np.flatnonzero(~direct):
            x, t = xs[k], offset[k]
            patch = sysm.patches[window[k]]
            loc = sysm._active_local(patch, +1 if t >= 0.0 else -1)
            center = x - t
            for i, name in enumerate(CHAIN_NAMES):
                lp = getattr(loc, name).structurally_trimmed(1e-12)
                if lp.valuation < 0:
                    lp = lp.regular_part()
                v = float(lp(lp.x0 + t))
                for (q, rho) in self.images[i]:
                    if abs(q - center) < 1e-9:
                        continue  # own pole handled by the series split
                    v -= rho / (x - q)
                out[i, k] = v
        return out

    def log_weight(self, i: int, x: float) -> float:
        phi = self._phi(i, x) - self.phi_mid[i]
        for (q, rho) in self.images[i]:
            phi += rho * (_safe_log(abs(x - q)) - math.log(abs(self.xm - q)))
        return phi

    def _state(self, i: int, x: float, factor, local_name: str | None = None) -> float:
        """factor() * w_i(x) at x in [0, L), unit constant; inside a pole-image
        window of chain i, the local series of local_name stands in for the
        factor and the image's own power.  A constant factor cancels no pole
        and takes no local_name."""
        h = self.sys.patch_halfwidth
        inside = [(abs(x - q), q, rho) for q, rho in self.images[i] if abs(x - q) <= h]
        near = min(inside) if local_name and inside else None
        w = math.exp(self.phi_mid[i] - self._phi(i, x))
        for (q, rho) in self.images[i]:
            if near and q == near[1]:
                w *= (self.xm - q) ** rho
                continue
            r = (x - q) / (self.xm - q)
            # an exact hit with no window reads the limit: 0, or inf for rho > 0
            w *= r ** -rho if r != 0.0 or rho < 0 else math.inf
        if near is None:
            return factor() * w
        _, q, rho = near
        sysm = self.sys
        patch, t = sysm._near_patch(x)
        if patch is None:
            raise PatchFailureError(q, "pole image lies outside every patch window")
        lp = getattr(sysm._active_local(patch, +1 if t >= 0.0 else -1), local_name)
        lp = lp.structurally_trimmed(1e-12)
        # expanded in the offset itself, so no rounding of patch.x + t enters
        shifted = local_series.LaurentPoly(0.0, lp.valuation - rho, lp.coeffs)
        return shifted(t) * w

    def _minus_raw(self, x: float):
        """(psi0, psi1, psi2) at x in [0, L), unit constants; psi1 and psi2
        share one evaluation of their factors."""
        factors = functools.cache(lambda: self.sys._members(x, ("wp", "g")))
        return (
            self._state(0, x, lambda: 1.0),
            self._state(1, x, lambda: factors()[0].value, "wp"),
            self._state(2, x, lambda: factors()[1].value, "g"),
        )

    def _plus_raw(self, x: float):
        """(psi1+, psi2+) at x in [0, L), unit constants."""
        p1 = self._state(1, x, lambda: math.sqrt(2.0) * self.sys.pair.eps0)
        p2 = self._state(2, x, lambda: self.sys._members(x, ("h",))[0].value, "h")
        return p1, p2 / math.sqrt(2.0)

    def _per_point(self, x, raw, wrap_index, consts):
        """Per-point loop: raw values on the reduced point, continued to
        other periods with the chains' wrap signs."""
        L = self.sys.period
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty((len(consts), xs.size))
        for k, xi in enumerate(xs.ravel()):
            xr = _reduce(xi, L)
            m = int(round((xi - xr) / L))
            for j, v in enumerate(raw(xr)):
                out[j, k] = consts[j] * (self.wrap[wrap_index[j]] ** m) * v
        if np.ndim(x) == 0:
            return tuple(float(row[0]) for row in out)
        return tuple(row.reshape(np.shape(x)) for row in out)

    def psi_minus(self, x, c0: float, c1: float, c2: float):
        return self._per_point(x, self._minus_raw, (0, 1, 2), (c0, c1, c2))

    def psi_plus(self, x, c1: float, c2: float):
        return self._per_point(x, self._plus_raw, (1, 2), (c1, c2))


def construct(u, eps0: float, eps1: float, period: float, validate: bool = True) -> ConstructedSystem:
    """Build the full three-level system from a generating-function expression."""
    return ConstructedSystem(u, eps0, eps1, period, validate=validate)
