"""Truncated Taylor series ("jets") of fixed order 6.

A jet stores f(x0), f'(x0)/1!, ..., f^(6)(x0)/6! and propagates them through
arithmetic and elementary functions exactly, so downstream code gets machine-
precision derivatives without symbolic algebra or finite differences.

One jet can also carry a whole batch of points (Taylor-mode differentiation
over a batch, as in Griewank & Walther, *Evaluating Derivatives*, ch. 13):
x0 is then a 1-D array and each coefficient is either a float shared by
every point (the zeros of a constant, say) or an array of the same length.
The recurrences below are written once for both.  Arithmetic is the same
IEEE operation per point, so a batch reproduces the scalar jets bit for bit
wherever the elementary functions do: they call ``math`` on floats and
numpy on arrays, which agree exactly for sqrt and, on common hardware, for
sin and cos, while exp, sinh and cosh may differ in the last bit.  A domain
error in a batch is reported at its first offending point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainEvaluationError

ORDER = 6
N_COEFF = ORDER + 1

_FACT = [math.factorial(k) for k in range(N_COEFF)]


class Jet:
    """Value plus scaled derivatives of a scalar function at base point x0
    (or at each point of an array x0).

    A jet is a value: no operation changes one after it is made.  The
    class is slotted and checks nothing but the length on construction,
    because every operation makes a new jet and the scalar paths make tens
    of them per point.
    """

    __slots__ = ("x0", "coeffs")

    # numpy arrays on the left of an operator defer to the jet's reflected
    # method instead of broadcasting over the jet as an object
    __array_ufunc__ = None

    def __init__(self, x0, coeffs: tuple):
        if len(coeffs) != N_COEFF:
            raise ValueError(f"jet needs exactly {N_COEFF} coefficients")
        self.x0 = x0
        self.coeffs = coeffs

    def __repr__(self):
        return f"Jet(x0={self.x0!r}, coeffs={self.coeffs!r})"

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, k: int) -> float:
        """k-th derivative of the represented function at x0, k <= 6."""
        if not 0 <= k <= ORDER:
            raise ValueError(f"derivative order {k} outside 0..{ORDER}")
        return self.coeffs[k] * _FACT[k]

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_base(other)
            return Jet(self.x0, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return Jet(self.x0, (self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.x0, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_base(other)
            a, b = self.coeffs, other.coeffs
            out = [0.0] * N_COEFF  # floats: += never writes into an operand's array
            for i in range(N_COEFF):
                ai = a[i]
                if ai.__class__ is float and ai == 0.0:
                    continue
                for j in range(N_COEFF - i):
                    out[i + j] += ai * b[j]
            return Jet(self.x0, tuple(out))
        return Jet(self.x0, tuple(a * other for a in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check_base(other)
            return _div(self, other)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return constant(other, self.x0) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return 1.0 / (self ** (-n))
        result = constant(1.0, self.x0)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _check_base(self, other: "Jet"):
        if self.x0 is not other.x0 and np.any(np.not_equal(self.x0, other.x0)):
            raise ValueError("jets have different base points")


def first(bad):
    """Index of the first point where bad holds (0 for a scalar), or None."""
    if isinstance(bad, np.ndarray):
        hits = np.flatnonzero(bad)
        return int(hits[0]) if hits.size else None
    return 0 if bad else None


def at(v, i: int):
    """Value of v at point i of a batch; a scalar is the same at every point."""
    return float(v[i]) if isinstance(v, np.ndarray) else v


def where(cond, a, b):
    """a where cond holds, else b, point by point."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _take(v, idx):
    if isinstance(v, Jet):
        return Jet(v.x0[idx], tuple(_take(c, idx) for c in v.coeffs))
    return v[idx] if isinstance(v, np.ndarray) else v


def piecewise(cond, when_true, when_false, *args):
    """when_true(*args) where cond holds and when_false(*args) elsewhere.

    For scalar jets cond is a bool.  For a batch it holds one bool per
    point and args[0] is a jet of the batch; each branch then runs only on
    its own points, taken from every jet or per-point array in args, so it
    never meets a zero denominator that belongs to the other branch.
    """
    if not isinstance(cond, np.ndarray):
        return when_true(*args) if cond else when_false(*args)
    parts = []
    for mask, fn in ((cond, when_true), (~cond, when_false)):
        idx = np.flatnonzero(mask)
        if idx.size:
            parts.append((idx, fn(*(_take(a, idx) for a in args))))
    coeffs = []
    for k in range(N_COEFF):
        col = np.empty(cond.size)
        for idx, jet in parts:
            col[idx] = jet.coeffs[k]
        coeffs.append(col)
    return Jet(args[0].x0, tuple(coeffs))


def _lib(v):
    """The elementary functions for a coefficient: numpy on arrays, math on floats."""
    return np if isinstance(v, np.ndarray) else math


def _check(bad, reason: str, x0):
    if bad is False:  # the common scalar case, without a call to first
        return
    i = first(bad)
    if i is not None:
        raise DomainEvaluationError(reason, at(x0, i))


def constant(v: float, x0: float = 0.0) -> Jet:
    return Jet(x0, (float(v),) + (0.0,) * ORDER)


def differentiate(j: Jet, n: int = 1) -> Jet:
    """Jet of the n-th derivative; the top n coefficients are lost (set to 0)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    coeffs = j.coeffs
    for _ in range(n):
        coeffs = tuple((k + 1) * coeffs[k + 1] for k in range(N_COEFF - 1)) + (0.0,)
    return Jet(j.x0, coeffs)


def variable(x0) -> Jet:
    """The identity function x as a jet at x0 (a float, or a 1-D array of points)."""
    value = np.asarray(x0, dtype=float) if isinstance(x0, np.ndarray) else float(x0)
    return Jet(x0, (value, 1.0) + (0.0,) * (ORDER - 1))


def _div(num: Jet, den: Jet) -> Jet:
    _check(den.coeffs[0] == 0.0, "division by zero", num.x0)
    a, b = num.coeffs, den.coeffs
    q = [0.0] * N_COEFF
    inv = 1.0 / b[0]
    for k in range(N_COEFF):
        acc = a[k]
        for j in range(k):
            acc = acc - q[j] * b[k - j]  # acc may be the caller's array: never in place
        q[k] = acc * inv
    return Jet(num.x0, tuple(q))


def exp(u: Jet) -> Jet:
    c = [0.0] * N_COEFF
    c[0] = _lib(u.coeffs[0]).exp(u.coeffs[0])
    for k in range(1, N_COEFF):
        acc = 0.0
        for j in range(1, k + 1):
            acc += j * u.coeffs[j] * c[k - j]
        c[k] = acc / k
    return Jet(u.x0, tuple(c))


def _sin_cos(u: Jet, hyperbolic: bool):
    s = [0.0] * N_COEFF
    c = [0.0] * N_COEFF
    v = u.coeffs[0]
    lib = _lib(v)
    if hyperbolic:
        s[0], c[0] = lib.sinh(v), lib.cosh(v)
    else:
        s[0], c[0] = lib.sin(v), lib.cos(v)
    for k in range(1, N_COEFF):
        sa = ca = 0.0
        for j in range(1, k + 1):
            sa += j * u.coeffs[j] * c[k - j]
            ca += j * u.coeffs[j] * s[k - j]
        s[k] = sa / k
        c[k] = ca / k if hyperbolic else -ca / k
    return Jet(u.x0, tuple(s)), Jet(u.x0, tuple(c))


def sin(u: Jet) -> Jet:
    return _sin_cos(u, False)[0]


def cos(u: Jet) -> Jet:
    return _sin_cos(u, False)[1]


def tan(u: Jet) -> Jet:
    s, c = _sin_cos(u, False)
    _check(c.coeffs[0] == 0.0, "tan at a pole", u.x0)
    return s / c


def sinh(u: Jet) -> Jet:
    return _sin_cos(u, True)[0]


def cosh(u: Jet) -> Jet:
    return _sin_cos(u, True)[1]


def tanh(u: Jet) -> Jet:
    s, c = _sin_cos(u, True)
    return s / c


def sqrt(u: Jet) -> Jet:
    v = u.coeffs[0]
    _check(v < 0.0, "sqrt of a negative value", u.x0)
    _check(v == 0.0, "sqrt at a zero is not jet-differentiable", u.x0)
    r = [0.0] * N_COEFF
    r[0] = _lib(v).sqrt(v)
    inv = 0.5 / r[0]
    for k in range(1, N_COEFF):
        acc = u.coeffs[k]
        for j in range(1, k):
            acc = acc - r[j] * r[k - j]  # acc may be the caller's array: never in place
        r[k] = acc * inv
    return Jet(u.x0, tuple(r))


FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "exp": exp,
    "sqrt": sqrt,
}
