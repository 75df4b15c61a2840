"""Admissibility screening for generating functions.

Decides whether a periodic U(x) can drive the three-level construction:
zero structure (simple zeros anywhere, one double zero at the half-period),
evenness about the half-period, the curvature constraints at double zeros
and at tangential touches of the lower level -2*eps0, global nonnegativity
of the branch discriminant, and its zero at the origin.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr, jets

GRID = 4096
FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order_midpoint"
FORBIDDEN = "forbidden_higher_order"


@dataclass(frozen=True)
class ZeroRecord:
    """One zero of U in [0, L): location, multiplicity, admissibility class."""

    x: float
    order: int
    classification: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    zeros: tuple
    parity_defect: float
    curvature_value: float
    curvature_target: float
    third_derivative_midpoint: float
    s_min: float
    range_ok: bool
    checks: tuple = field(default=())
    # S on the uniform GRID of CompiledU.grid and the points where U
    # meets the lower level -2 eps0, reused by the construction
    s_samples: np.ndarray = field(default=None, repr=False, compare=False)
    lower_crossings: tuple = field(default=None, repr=False, compare=False)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class CompiledU:
    """U bound to parameter values; every value and derivative of U is read
    from its jets."""

    def __init__(self, u, eps0: float, eps1: float, period: float):
        if isinstance(u, str):
            u = expr.parse(u)
        self.expression = u
        self.eps0 = float(eps0)
        self.eps1 = float(eps1)
        self.period = float(period)
        self.params = {"eps0": self.eps0, "eps1": self.eps1}

    def jet(self, x: float, n: int = jets.N_COEFF) -> jets.Jet:
        """Jet of the first n Taylor coefficients of U at x (or a batch)."""
        return expr.eval_jet(self.expression, x, self.params, n)

    def value(self, x: float) -> float:
        """U(x) from a jet of the value alone, for root refinement."""
        return self.jet(x, 1).value

    def deriv(self, x: float, k: int = 1) -> float:
        return self.jet(x, k + 1).derivative(k)

    @cached_property
    def grid(self):
        """(xs, U, U') on GRID uniform samples of one period, from one batch
        jet that every scan of the validator and the construction reads."""
        xs = np.linspace(0.0, self.period, GRID, endpoint=False)
        u, up = (np.broadcast_to(c, xs.shape) for c in self.jet(xs, 2).coeffs)
        return xs, u, up


def stable_discriminant(u, up, eps0: float, eps1: float):
    """S = U'^2 + 4 U (U + 2 eps0)(U - 2 eps1) from U and U', as floats,
    arrays or jets alike; total, never raises."""
    return up * up + 4.0 * u * (u + 2.0 * eps0) * (u - 2.0 * eps1)


def _refine_transversal(f, lo: float, hi: float) -> float:
    return _brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Brent's method (Brent 1973, ch. 4) step for step as the brentq the
    tests compare against takes it, errors included: written out so that
    the package runs on numpy alone."""

    def call(x):
        v = float(f(x))
        if v != v:
            raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
        return v

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects; in C a division by zero gives inf or nan, which bisect too
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with contextlib.suppress(ZeroDivisionError):
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}.")


def _refine_tangential(fp, x: float, dx: float):
    """Refine a touch point as a root of f'; None if f' has no sign change.

    Signs are compared, not multiplied: a product of two tiny values
    underflows to 0 and would pass a same-sign bracket to _brentq."""
    lo, hi = x - dx, x + dx
    flo, fhi = fp(lo), fp(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        return None
    return _refine_transversal(fp, lo, hi)


def _scan_roots(cu: CompiledU, level: float) -> list:
    """All roots of U - level in [0, L), transversal and tangential."""
    L = cu.period
    xs, uv, _ = cu.grid
    vals = uv - level
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return []

    def f(x):
        return cu.value(x) - level

    def fp(x):
        return cu.deriv(x, 1)

    roots = []
    dx = L / GRID
    # transversal: an exact zero sample, or a sign change to the next
    # sample (circular), by signs so tiny values cannot underflow; only the
    # brentq refinements run per root
    sign = np.sign(vals)
    for i in np.flatnonzero((sign == 0.0) | (sign * np.roll(sign, -1) < 0.0)):
        roots.append(xs[i] if vals[i] == 0.0 else _refine_transversal(f, xs[i], xs[i] + dx))
    # tangential: local minima of |U - level| that graze zero
    absv = np.abs(vals)
    graze = (absv < 1e-9 * scale) & (absv <= np.roll(absv, 1)) & (absv <= np.roll(absv, -1))
    for i in np.flatnonzero(graze):
        got = _refine_tangential(fp, float(xs[i]), dx)
        if got is not None and abs(f(got)) < 1e-7 * scale:
            roots.append(got)

    reduced = sorted(r % L for r in roots)
    out = []
    for r in reduced:
        if out and min(r - out[-1], out[0] + L - r) < 1e-8 * L:
            continue
        out.append(r)
    return out


def _zero_order(cu: CompiledU, x: float, scale: float) -> int:
    j = cu.jet(x)
    thr = 1e-10 * max(scale, 1.0)
    for k, c in enumerate(j.coeffs):
        if abs(c) > thr:
            return k
    return jets.N_COEFF


def locate_zeros(u, eps0: float, eps1: float, period: float) -> tuple:
    """Zeros of U in [0, period) with orders, sorted by location."""
    cu = u if isinstance(u, CompiledU) else CompiledU(u, eps0, eps1, period)
    scale = float(np.max(np.abs(cu.grid[1])))
    records = []
    for r in _scan_roots(cu, 0.0):
        order = _zero_order(cu, r, scale)
        if order == 1:
            cls = FIRST_ORDER
        elif order == 2:
            cls = SECOND_ORDER
        else:
            cls = FORBIDDEN
        records.append(ZeroRecord(r, order, cls))
    return tuple(records)


def discriminant_samples(cu: CompiledU):
    """(xs, S) on the GRID samples of CompiledU.grid."""
    xs, uv, up = cu.grid
    return xs, stable_discriminant(uv, up, cu.eps0, cu.eps1)


def check_admissibility(u, eps0: float, eps1: float, period: float) -> AdmissibilityReport:
    """Run every admissibility check; the report carries all diagnostics."""
    cu = u if isinstance(u, CompiledU) else CompiledU(u, eps0, eps1, period)
    L = cu.period
    xm = 0.5 * L
    uv = cu.grid[1]
    scale = float(np.max(np.abs(uv)))
    ref = max(scale, 1.0)
    checks = []

    def add(name, passed, detail):
        checks.append(CheckResult(name, bool(passed), detail))

    pos = cu.eps0 > 0.0 and cu.eps1 > 0.0
    add("energies_positive", pos, f"eps0={cu.eps0:g}, eps1={cu.eps1:g}")

    probes = np.linspace(0.0, L, 17)
    per_defect = float(np.max(np.abs(cu.jet(probes + L, 1).value - cu.jet(probes, 1).value)))
    add("periodicity", per_defect <= 1e-8 * ref, f"defect {per_defect:.3e}")

    t = np.linspace(0.0, 0.5 * L, 512, endpoint=False)[1:]
    parity_defect = float(np.max(np.abs(cu.jet(xm + t, 1).value - cu.jet(xm - t, 1).value)))
    add("parity_about_midpoint", parity_defect <= 1e-8 * ref, f"defect {parity_defect:.3e}")

    zeros = locate_zeros(cu, cu.eps0, cu.eps1, L)
    bad = [z for z in zeros if z.classification == FORBIDDEN]
    add(
        "zero_orders",
        not bad,
        "orders " + (", ".join(f"{z.order}@{z.x:.6f}" for z in zeros) or "none"),
    )

    doubles = [z for z in zeros if z.order == 2]
    mid = [z for z in doubles if abs(z.x - xm) <= 1e-6 * L]
    add("midpoint_double_zero", bool(mid), f"double zeros at {[round(float(z.x), 6) for z in doubles]}")

    target = 8.0 * cu.eps0 * cu.eps1
    curv_mid = cu.deriv(xm, 2)
    curv_ok = True
    worst = 0.0
    for z in doubles:
        dev = abs(cu.deriv(z.x, 2) - target)
        worst = max(worst, dev)
        if dev > 1e-6 * max(abs(target), 1.0):
            curv_ok = False
    add("curvature_at_double_zeros", curv_ok and bool(doubles), f"max |U'' - 8*eps0*eps1| = {worst:.3e}")

    # where U touches the lower level -2 eps0 (U' = 0), W+ has a vanishing
    # branch whose slope s solves -2 (eps0 + eps1) s^2 + 2 c2 s + 2 eps0 c2 = 0
    # (c2 = U''/2); the chain pole cancels only for s = +-2 eps0, which needs
    # c2 = 4 eps0 (eps0 + eps1) / 3 or c2 = -4 eps0 (eps0 + eps1)
    lower = find_level_crossings(cu, -2.0 * cu.eps0)
    top = cu.eps0 + cu.eps1
    touch_targets = (4.0 * cu.eps0 * top / 3.0, -4.0 * cu.eps0 * top)
    touch_ok, touch_worst = True, 0.0
    for x in lower:
        _, d1, c2 = cu.jet(x, 3).coeffs
        if abs(d1) > 1e-6 * ref:  # a transversal crossing
            continue
        dev, target_c2 = min((abs(c2 - t), t) for t in touch_targets)
        touch_worst = max(touch_worst, dev)
        if dev > 1e-6 * max(abs(target_c2), 1.0):
            touch_ok = False
    add("lower_touch_curvature", touch_ok, f"max |U''/2 - c2 for slope +-2*eps0| = {touch_worst:.3e}")

    d3_mid = cu.deriv(xm, 3)
    d3_ok = all(abs(cu.deriv(z.x, 3)) <= 1e-6 * ref for z in doubles)
    add("third_derivative_vanishes", d3_ok, f"U'''(midpoint) = {d3_mid:.3e}")

    _, sv = discriminant_samples(cu)
    s_scale = max(float(np.max(np.abs(sv))), 1.0)
    s_min = float(np.min(sv))
    add("discriminant_nonnegative", s_min >= -1e-9 * s_scale, f"min S = {s_min:.6e}")

    # a W+ odd about the midpoint with period L is odd about 0 too, so it
    # vanishes there, which needs a branch breakpoint: S(0) = 0 to the
    # construction's breakpoint tolerance (the first GRID sample is x = 0)
    add("origin_structural", abs(sv[0]) <= 1e-8 * s_scale, f"S(0) = {sv[0]:.3e}")

    umin, umax = float(np.min(uv)), float(np.max(uv))
    range_ok = umin > -2.0 * cu.eps0 and umax < 2.0 * cu.eps1

    passed = all(c.passed for c in checks)
    return AdmissibilityReport(
        passed=passed,
        zeros=zeros,
        parity_defect=parity_defect,
        curvature_value=curv_mid,
        curvature_target=target,
        third_derivative_midpoint=d3_mid,
        s_min=s_min,
        range_ok=range_ok,
        checks=tuple(checks),
        s_samples=sv,
        lower_crossings=lower,
    )


def find_level_crossings(cu: CompiledU, level: float) -> tuple:
    """Points in [0, L) where U crosses or touches the given level."""
    return tuple(_scan_roots(cu, level))
