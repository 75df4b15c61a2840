"""Local series of the branch quadratic near special points.

The summed superpotential w(x) obeys a pointwise quadratic relation

    (U - 2*eps1) w^2 + U' w - U (U + 2*eps0) = 0,

which degenerates wherever its leading coefficient, linear coefficient, or
discriminant S = U'^2 + 4 U (U + 2*eps0)(U - 2*eps1) vanishes.  Near such
points the stable representation is a short Laurent/Taylor series in
t = x - x0.  This module provides truncated polynomial arithmetic on such
series and ``taylor_branches``, which writes each branch in closed form from
a series square root of S: the pole branch with residue -1 at an upper
strip edge included.

Input U data comes as Taylor coefficients (c_k = U^(k)(x0)/k!); their count
bounds the orders a branch carries, so longer inputs yield longer series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .validator import stable_discriminant


def _pad(a, n):
    out = list(a[:n])
    out.extend(0.0 for _ in range(n - len(out)))
    return out


def _pmul(a, b, n):
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


def _trimmed(j: jets.Jet, window: int = 4) -> LaurentPoly:
    """A Taylor jet as a series, less the leading orders that are roundoff
    next to the orders after them (see LaurentPoly.structurally_trimmed)."""
    return LaurentPoly(j.x0, 0, j.coeffs).structurally_trimmed(1e-12, window)


def _discriminant(u: jets.Jet, du: LaurentPoly, eps0: float, eps1: float) -> LaurentPoly:
    """S = U'^2 + 4 U (U + 2 eps0)(U - 2 eps1) from U's jet and U' trimmed,
    with its valuation read off.

    Where U' has valuation v, U'^2 is known v orders further than U' is,
    so S carries every order that U supports.  At a double zero of U on
    Razavy's line 2 (eps0 - eps1) = 1, S starts at t^6 and every lower
    order is roundoff (up to 8.8e-13 at t^1 and 7.9e-11 at t^5 against
    1.1e5 at t^6 on (3.0, 2.5)), so the trim looks eight orders ahead: four
    would read valuation 1.
    """
    v = du.valuation
    # zeros for the cut roundoff, and v more on top that only ever meet those
    up = jets.Jet(u.x0, (0.0,) * v + du.coeffs + (0.0,) * v)
    return _trimmed(stable_discriminant(u, up, eps0, eps1), window=8)


def taylor_branches(x0: float, u, eps0: float, eps1: float, n_coeffs: int = 4):
    """Every series branch of the quadratic at x0 (U given as Taylor coeffs),
    one per sign of the square root, or [] where S has no real square root
    (an odd valuation or a negative leading coefficient).

    Where S has valuation 2m, sqrt(S) = t^m sqrt(S / t^2m), the latter an
    ordinary jet square root.  Each branch is then one division, in the
    form whose denominator does not cancel: the product form
    2 U (U + 2 eps0) / (U' +- sqrt(S)), or the root form
    (-U' +- sqrt(S)) / (2 (U - 2 eps1)) where U' and +-sqrt(S) lead with
    the same order and opposite signs.  At an upper strip edge, where
    U = 2 eps1, that root form is the pole branch with residue -1.

    A branch carries at most n_coeffs coefficients from its valuation on,
    and only the orders its input supports: U' has one order fewer than U,
    and sqrt(S) m fewer again.
    """
    u = jets.Jet(x0, tuple(float(c) for c in u))
    du = jets.differentiate(u)
    lead = _trimmed(du)
    s = _discriminant(u, lead, eps0, eps1)
    m, odd = divmod(s.valuation, 2)
    if odd or s.coeffs[0] <= 0.0:
        return []
    sqrt_s = jets.Jet(x0, (0.0,) * m + jets.sqrt(jets.Jet(x0, s.coeffs)).coeffs)
    out = []
    for sign in (+1, -1):
        if lead.valuation == m and sign * lead.coeffs[0] < 0.0:
            num, den = sign * sqrt_s - du, 2.0 * (u - 2.0 * eps1)
        else:
            num, den = 2.0 * u * (u + 2.0 * eps0), du + sign * sqrt_s
        # leading orders that cancelled to roundoff would become spurious
        # pole terms or a zero divisor
        a, b = _trimmed(num), _trimmed(den)
        q = jets.Jet(x0, a.coeffs) / jets.Jet(x0, b.coeffs)
        out.append(LaurentPoly(x0, a.valuation - b.valuation, q.coeffs[:n_coeffs]))
    return out
