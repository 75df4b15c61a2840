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


def _padd(a, b, n=N_TERMS):
    a, b = _pad(a, n), _pad(b, n)
    return [x + y for x, y in zip(a, b)]


def _pscale(a, s, n=N_TERMS):
    return [s * x for x in _pad(a, n)]


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


def discriminant_poly(u, eps0: float, eps1: float) -> list:
    """Taylor coefficients of S = U'^2 + 4 U (U + 2 eps0)(U - 2 eps1).

    The top coefficient is only complete when U'(x0) = 0 (else it would need
    one more derivative of U than the input carries); that is exactly the
    double-zero case where the high orders matter.
    """
    n = max(len(u), N_TERMS)
    u = _pad(u, n)
    du = _pad([(k + 1) * u[k + 1] for k in range(n - 1)], n)
    up = list(u)
    up[0] += 2.0 * eps0
    um = list(u)
    um[0] -= 2.0 * eps1
    return _padd(_pmul(du, du, n), _pscale(_pmul(u, _pmul(up, um, n), n), 4.0, n), n)


def _residual_taylor(u, eps0, eps1, w):
    """(U - 2e1) W^2 + U' W - U (U + 2e0) for Taylor W."""
    n = max(len(u), N_TERMS)
    u = _pad(u, n)
    du = _pad([(k + 1) * u[k + 1] for k in range(n - 1)], n)
    um = list(u)
    um[0] -= 2.0 * eps1
    up = list(u)
    up[0] += 2.0 * eps0
    w = _pad(w, n)
    r = _padd(_pmul(um, _pmul(w, w, n), n), _pmul(du, w, n), n)
    return [a - b for a, b in zip(r, _pmul(u, up, n))]


def _residual_pole(u, eps0, eps1, p):
    """Residual of the same relation for W = P/t, multiplied through by t^2.

    (U - 2e1) P^2 + (t U') P - t^2 U (U + 2e0); every coefficient of t U'
    is complete because it needs no derivative of U beyond the input order.
    """
    n = max(len(u), N_TERMS)
    u = _pad(u, n)
    tdu = [k * u[k] for k in range(n)]
    um = list(u)
    um[0] -= 2.0 * eps1
    up = list(u)
    up[0] += 2.0 * eps0
    p = _pad(p, n)
    r = _padd(_pmul(um, _pmul(p, p, n), n), _pmul(tdu, p, n), n)
    shifted = [0.0, 0.0] + _pmul(u, up, n)[: n - 2]
    return [a - b for a, b in zip(r, shifted)]


def _solve_tree(res_fn, n_coeffs, max_order, tol):
    """All formal series branches, coefficient by coefficient.

    At each step the next coefficient enters some residual order as a
    quadratic a*w^2 + b*w + g recovered from evaluations at w = 0, +1, -1.
    Vacuous orders (a, b, g all negligible) are skipped; a genuinely
    non-negligible g with no w dependence kills the branch; a quadratic with
    two distinct real roots forks it.  Branches whose next coefficient is not
    constrained by any trustworthy order are returned truncated.

    High residual orders of a branch with growing coefficients carry values
    far above the nominal tolerance; roundoff in them would read as a fake
    quadratic term and kill the branch, so every negligibility decision is
    also floored relative to the magnitudes actually evaluated at the order.
    """
    out = []

    def extend(wc, floor):
        if len(wc) == n_coeffs:
            out.append(tuple(wc))
            return
        for order in range(floor, max_order + 1):
            g = res_fn(wc + [0.0])[order]
            rp = res_fn(wc + [1.0])[order]
            rm = res_fn(wc + [-1.0])[order]
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
                    break
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
        out.append(tuple(wc))

    extend([], 0)
    return _dedup(out)


def _dedup(cands):
    kept = []
    for c in cands:
        for k in kept:
            if len(k) == len(c) and all(
                abs(a - b) <= 1e-7 * (1.0 + abs(a) + abs(b)) for a, b in zip(k, c)
            ):
                break
        else:
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
    """
    m = max(len(u), N_TERMS)
    tol = rtol * _residual_scale(u, eps0, eps1)
    fn = lambda w: _residual_taylor(u, eps0, eps1, w)
    cands = _solve_tree(fn, n_coeffs, m - 2, tol)
    refined = []
    for c in cands:
        if len(c) < n_coeffs and abs(c[0]) <= tol:
            deeper = _solve_tree(fn, n_coeffs, m - 1, tol)
            refined.extend(d for d in deeper if d[: len(c)] == c)
        else:
            refined.append(c)
    return [LaurentPoly(x0, 0, c) for c in _dedup(refined)]


def pole_branches(x0: float, u, eps0: float, eps1: float, n_coeffs: int = 5, rtol: float = 1e-9):
    """Simple-pole branches (residue -1) of the quadratic at x0."""
    m = max(len(u), N_TERMS)
    tol = rtol * _residual_scale(u, eps0, eps1)
    fn = lambda p: _residual_pole(u, eps0, eps1, p)
    cands = _solve_tree(fn, n_coeffs, m - 1, tol)
    out = []
    for c in cands:
        if c and abs(c[0] + 1.0) <= 1e-7:
            out.append(LaurentPoly(x0, -1, c))
    return out


def residual_norm(x0: float, w: LaurentPoly, u, eps0: float, eps1: float) -> float:
    """Max residual coefficient of a candidate series, for diagnostics."""
    m = max(len(u), N_TERMS)
    if w.valuation == 0:
        r = _residual_taylor(u, eps0, eps1, list(w.coeffs))
        top = m - 1 if abs(w.coeffs[0]) < 1e-12 else m - 2
    elif w.valuation == -1:
        r = _residual_pole(u, eps0, eps1, list(w.coeffs))
        top = m - 1
    else:
        raise ValueError("unsupported valuation")
    return max(abs(c) for c in r[: top + 1])
