"""Local series solutions of the branch quadratic near special points.

The summed superpotential w(x) obeys a pointwise quadratic relation

    (U - 2*eps1) w^2 + U' w - U (U + 2*eps0) = 0,

which degenerates wherever its leading coefficient, linear coefficient, or
discriminant vanishes.  Near such points the stable representation is a short
Laurent/Taylor series in t = x - x0.  This module provides exact truncated
polynomial arithmetic on such series and an order-by-order solver that finds
every formal series branch of the quadratic, including pole branches with
residue -1 via the substitution p = t*w.

Input U data comes as Taylor coefficients (c_k = U^(k)(x0)/k!); their count
bounds the orders of the residual that are trustworthy, and the solver never
constrains a coefficient from an order the input cannot support.  N_TERMS is
the default length for jet-sourced input; longer inputs yield longer series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_TERMS = 7


def _pad(a, n=N_TERMS):
    out = list(a[:n])
    out.extend(0.0 for _ in range(n - len(out)))
    return out


def _pmul(a, b, n=N_TERMS):
    out = [0.0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class LaurentPoly:
    """Finite series sum_j coeffs[j] * (x - x0)^(valuation + j)."""

    x0: float
    valuation: int
    coeffs: tuple

    def __call__(self, x):
        t = np.asarray(x, dtype=float) - self.x0
        acc = np.zeros_like(t)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        if self.valuation:
            with np.errstate(divide="ignore", invalid="ignore"):
                acc = acc * t ** float(self.valuation)
        return acc if acc.ndim else float(acc)

    def derivative(self) -> "LaurentPoly":
        v = self.valuation
        return LaurentPoly(self.x0, v - 1, tuple(c * (v + j) for j, c in enumerate(self.coeffs)))

    def coeff(self, power: int) -> float:
        """Coefficient of (x - x0)^power."""
        idx = power - self.valuation
        return self.coeffs[idx] if 0 <= idx < len(self.coeffs) else 0.0

    def residue(self) -> float:
        return self.coeff(-1)

    def regular_part(self) -> "LaurentPoly":
        """Series with every negative power dropped."""
        if self.valuation >= 0:
            return self
        keep = self.coeffs[-self.valuation:]
        return LaurentPoly(self.x0, 0, keep if keep else (0.0,))

    def trimmed(self, tol: float = 0.0) -> "LaurentPoly":
        """Strip negligible leading coefficients, raising the valuation."""
        mag = max((abs(c) for c in self.coeffs), default=0.0)
        cut = 0
        while cut < len(self.coeffs) - 1 and abs(self.coeffs[cut]) <= tol * mag:
            cut += 1
        return LaurentPoly(self.x0, self.valuation + cut, self.coeffs[cut:])

    def structurally_trimmed(self, tol: float, window: int = 4) -> "LaurentPoly":
        """Strip leading coefficients negligible next to the adjacent orders.

        trimmed() compares against the global max coefficient, which a
        series with a nearby singularity inflates without bound; valuation
        decisions belong to the low orders alone.
        """
        cs = self.coeffs
        k = 0
        while k < len(cs) - 1:
            mag = max(abs(c) for c in cs[k : k + window])
            if abs(cs[k]) > tol * max(mag, 1e-300):
                break
            k += 1
        return LaurentPoly(self.x0, self.valuation + k, cs[k:])

    def _align(self, other: "LaurentPoly"):
        if self.x0 != other.x0:
            raise ValueError("series expanded at different points")
        v = min(self.valuation, other.valuation)
        a = [0.0] * (self.valuation - v) + list(self.coeffs)
        b = [0.0] * (other.valuation - v) + list(other.coeffs)
        n = max(len(a), len(b))
        return v, _pad(a, n), _pad(b, n)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = LaurentPoly(self.x0, 0, (float(other),))
        v, a, b = self._align(other)
        return LaurentPoly(self.x0, v, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.x0, self.valuation, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = LaurentPoly(self.x0, 0, (float(other),))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return LaurentPoly(self.x0, self.valuation, tuple(float(other) * c for c in self.coeffs))
        if self.x0 != other.x0:
            raise ValueError("series expanded at different points")
        n = max(len(self.coeffs), len(other.coeffs))
        return LaurentPoly(
            self.x0,
            self.valuation + other.valuation,
            tuple(_pmul(self.coeffs, other.coeffs, n)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / float(other))
        den = other.structurally_trimmed(1e-14)
        if not any(den.coeffs):
            raise ZeroDivisionError("division by an identically zero series")
        n = max(len(self.coeffs), len(den.coeffs))
        a = _pad(self.coeffs, n)
        b = _pad(den.coeffs, n)
        q = [0.0] * n
        for k in range(n):
            acc = a[k]
            for j in range(1, k + 1):
                acc -= b[j] * q[k - j]
            q[k] = acc / b[0]
        return LaurentPoly(self.x0, self.valuation - den.valuation, tuple(q))


def taylor(x0: float, coeffs) -> LaurentPoly:
    return LaurentPoly(x0, 0, tuple(float(c) for c in coeffs))


PROBES = (0.0, 1.0, -1.0)


def _order_residual(u, eps0, eps1, pole: bool):
    """One order of the residual at the solver's three probes, as fn(wc, k).

    fn(wc, k)[n] equals order k of the full residual of wc + [PROBES[n]]
    bit for bit: residual_taylor (residual_pole when pole) of the tests'
    series_oracle, which forms every order with _pmul.  It forms only the
    product coefficients order k needs, each summed in _pmul's order; the
    part of w*w that the probed coefficient does not enter is formed once
    for all three probes, and the w-free U (U + 2 eps0) product once for
    every call.  Terms _pmul adds from zero padding are +-0 and leave its
    sums unchanged, so they are skipped.
    """
    n = max(len(u), N_TERMS)
    u = _pad(u, n)
    um = list(u)
    um[0] -= 2.0 * eps1
    up = list(u)
    up[0] += 2.0 * eps0
    if pole:
        lin = [k * u[k] for k in range(n)]
        free = [0.0, 0.0] + _pmul(u, up, n)[: n - 2]
    else:
        lin = _pad([(k + 1) * u[k + 1] for k in range(n - 1)], n)
        free = _pmul(u, up, n)

    def fn(wc, k):
        p = len(wc)
        head = []  # (w * w)[j] for j < p, free of the probed w[p]
        for j in range(min(k + 1, p)):
            acc = 0.0
            for i in range(j + 1):
                wi = wc[i]
                if wi != 0.0:
                    acc += wi * wc[j - i]
            head.append(acc)
        out = []
        for probe in PROBES:
            w = wc + [probe]
            ww = list(head)
            for j in range(p, k + 1):
                acc = 0.0
                for i in range(j - p, p + 1):
                    wi = w[i]
                    if wi != 0.0:
                        acc += wi * w[j - i]
                ww.append(acc)
            quad = 0.0
            for i in range(k + 1):
                if um[i] != 0.0:
                    quad += um[i] * ww[k - i]
            linear = 0.0
            for i in range(k - p if k > p else 0, k + 1):
                if lin[i] != 0.0:
                    linear += lin[i] * w[k - i]
            out.append((quad + linear) - free[k])
        return out

    return fn


def _solve_tree(res_fn, n_coeffs, max_order, tol, wc=(), floor=0):
    """All formal series branches, coefficient by coefficient.

    res_fn(wc, k) is order k of the residual of wc extended by each of
    the probes w = 0, +1, -1 (see _order_residual); only the order under
    test is ever computed.  At each step the next coefficient enters some
    residual order as a quadratic a*w^2 + b*w + g recovered from those
    three evaluations.
    Vacuous orders (a, b, g all negligible) are skipped; a genuinely
    non-negligible g with no w dependence kills the branch; a quadratic with
    two distinct real roots forks it.  Branches whose next coefficient is not
    constrained by any trustworthy order are returned truncated.

    The tree grows from the prefix wc, whose next coefficient is sought
    from residual order floor on.  It returns (coefficients, resume) pairs:
    resume is max_order + 1 for a branch truncated because the orders ran
    out, so a solve with a higher max_order continues it from there (the
    orders it read are all vacuous, and a deeper solve reads them alike);
    it is None for a complete branch and for one truncated at the
    precision floor below, which a deeper solve also truncates there.

    High residual orders of a branch with growing coefficients carry values
    far above the nominal tolerance; roundoff in them would read as a fake
    quadratic term and kill the branch, so every negligibility decision is
    also floored relative to the magnitudes actually evaluated at the order.
    """
    out = []

    def extend(wc, floor):
        if len(wc) == n_coeffs:
            out.append((tuple(wc), None))
            return
        for order in range(floor, max_order + 1):
            g, rp, rm = res_fn(wc, order)
            a = 0.5 * (rp + rm) - g
            b = 0.5 * (rp - rm)
            gmax = max(abs(g), abs(rp), abs(rm))
            eff = max(tol, 1e-12 * gmax)
            if abs(a) <= eff and abs(b) <= eff:
                if abs(g) <= eff:
                    continue
                # b's roundoff floor is eps * gmax, far below eff once the
                # coefficients grow; a linear term alive at that scale still
                # absorbs g, and any error it carries is invisible at
                # evaluation radii (the term is damped by (t/R)^order)
                eff2 = max(tol, 1e-14 * gmax)
                if abs(b) > eff2:
                    extend(wc + [-g / b], order + 1)
                    return
                if 1e-12 * gmax > tol:
                    # residuals have outrun double precision: the prefix is
                    # all the information there is, so truncate, don't kill
                    out.append((tuple(wc), None))
                return
            if abs(a) <= eff:
                extend(wc + [-g / b], order + 1)
                return
            disc = b * b - 4.0 * a * g
            # root-separation scale: a residual of size eff moves a double
            # root by sqrt(eff/|a|), i.e. disc by ~4|a|eff
            thresh = 4.0 * abs(a) * eff
            if disc < -thresh:
                return
            if disc < thresh:
                extend(wc + [-b / (2.0 * a)], order + 1)
                return
            rd = math.sqrt(disc)
            extend(wc + [(-b + rd) / (2.0 * a)], order + 1)
            extend(wc + [(-b - rd) / (2.0 * a)], order + 1)
            return
        out.append((tuple(wc), max_order + 1))

    extend(list(wc), floor)
    return _dedup(out, key=lambda pair: pair[0])


def _dedup(cands, key=lambda c: c):
    """cands in order, less each one whose key lies within 1e-7 of an earlier kept one's."""
    kept = []
    for c in cands:
        a = key(c)
        if not any(
            len(b) == len(a) and all(abs(p - q) <= 1e-7 * (1.0 + abs(p) + abs(q)) for p, q in zip(b, a))
            for b in map(key, kept)
        ):
            kept.append(c)
    return kept


def _residual_scale(u, eps0, eps1):
    m = max(max(abs(c) for c in u), 2.0 * eps0, 2.0 * eps1, 1.0)
    return m * m


def taylor_branches(x0: float, u, eps0: float, eps1: float, n_coeffs: int = 4, rtol: float = 1e-9):
    """Regular series branches of the quadratic at x0 (U given as Taylor coeffs).

    Residual orders involving a derivative of U beyond the input are not
    used: the top order is trusted only when the leading series coefficient
    vanishes, which covers the degenerate double-zero case that needs it.
    So the solve stops one order short, and a truncated branch whose
    leading coefficient vanishes resumes from where it stopped, into the
    top order; no residual order of a prefix is evaluated twice.
    """
    m = max(len(u), N_TERMS)
    tol = rtol * _residual_scale(u, eps0, eps1)
    fn = _order_residual(u, eps0, eps1, pole=False)
    refined = []
    for c, resume in _solve_tree(fn, n_coeffs, m - 2, tol):
        if resume is not None and abs(c[0]) <= tol:
            refined.extend(d for d, _ in _solve_tree(fn, n_coeffs, m - 1, tol, c, resume))
        else:
            refined.append(c)
    return [LaurentPoly(x0, 0, c) for c in _dedup(refined)]


def pole_branches(x0: float, u, eps0: float, eps1: float, n_coeffs: int = 5, rtol: float = 1e-9):
    """Simple-pole branches (residue -1) of the quadratic at x0."""
    m = max(len(u), N_TERMS)
    tol = rtol * _residual_scale(u, eps0, eps1)
    fn = _order_residual(u, eps0, eps1, pole=True)
    out = []
    for c, _ in _solve_tree(fn, n_coeffs, m - 1, tol):
        if c and abs(c[0] + 1.0) <= 1e-7:
            out.append(LaurentPoly(x0, -1, c))
    return out
