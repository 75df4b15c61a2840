"""Truncated Taylor series ("jets") that carry only the orders asked for.

A jet stores f(x0), f'(x0)/1!, ..., f^(n-1)(x0)/(n-1)! and propagates them
through arithmetic and elementary functions exactly, so downstream code gets
machine-precision derivatives without symbolic algebra or finite differences.
Its length n is exactly the number of valid coefficients: a caller asks for
the orders it reads (N_COEFF, order 6, by default), an operation on two jets
keeps the shorter length, and differentiation drops the top coefficient.
Every recurrence is triangular, coefficient k reading only coefficients
0..k of its operands, so a shorter jet holds the leading coefficients of a
longer one bit for bit.

One jet can also carry a whole batch of points (Taylor-mode differentiation
over a batch, as in Griewank & Walther, *Evaluating Derivatives*, ch. 13):
x0 is then a 1-D array and each coefficient is either a scalar shared by
every point (a constant's zeros, say) or an array of the same length.
The recurrences below are written once for both.  Arithmetic is the same
IEEE operation per point, so a batch reproduces the scalar jets bit for bit
wherever the elementary functions do: they call ``math`` on floats and
numpy on arrays, which agree exactly for sqrt and, on common hardware, for
sin and cos, while exp, sinh and cosh may differ in the last bit.  A domain
error in a batch is reported at its first offending point.

Coefficients the structure fixes are exact ints (Taylor-mode sparsity, as
in Griewank & Walther, ch. 13): a constant's derivatives and the
variable's coefficients past its slope are the int 0, and the variable's
slope is the int 1.  An operation reads each operand's support, one past
its last coefficient that is not an int 0, once, and skips every term an
int 0 decides: a coefficient no term reaches is an int 0 itself, so the
zeros of a constant stay structural through exp, sqrt, a product or a
quotient.  It skips the multiply or divide an int 1 decides (a product
with the variable, the recurrences over a linear argument, derivative(1)
and k = 1), and a sum starts from its first term, never from 0.0.  Values
are always plain arithmetic: no coefficient's value decides a skip, so a
zero only the point decides (sin at 0) is multiplied like any float.  An
int that meets no skip is plain Python arithmetic too, which is exact (0 +
x rounds as 0.0 + x does), and a caller that hands a coefficient out of
the package converts it to float.

A coefficient can also be a ``Traced`` float, which records what is done
with it (an AD tape, as in Griewank & Walther): each operation computes
its float result and appends one Python statement to the tape that the
traced value holds, and an operation between plain floats folds at once,
as does a multiply by the int 1.  ``trace(fn, x)`` runs fn on
a traced x and compiles the tape into a straight-line function of x that
repeats fn's float operations in order, so it returns the same
coefficients bit for bit.  Every comparison that reads a traced value
(the domain checks of a division, sqrt and tan, and a caller's branch)
returns the outcome observed at the recorded x and appends a guard: an
``if`` that makes the compiled function return None, a side exit,
wherever the outcome differs.  A caller that meets a side exit evaluates
the jets again, where the check raises or takes the other branch.  A
traced value has no truth value and no float conversion, so an unrecorded
decision or constant fails loudly instead.
"""

from __future__ import annotations

import math
import operator
import types
from collections import Counter

import numpy as np

from .errors import DomainEvaluationError

ORDER = 6
N_COEFF = ORDER + 1


class Jet:
    """Value plus scaled derivatives of a scalar function at base point x0
    (or at each point of an array x0).

    A jet is a value: no operation changes one after it is made.  The
    class is slotted and checks nothing but that a coefficient is there on
    construction, because every operation makes a new jet and the scalar
    paths make tens of them per point.
    """

    __slots__ = ("x0", "coeffs")

    # numpy arrays on the left of an operator defer to the jet's reflected
    # method instead of broadcasting over the jet as an object
    __array_ufunc__ = None

    def __init__(self, x0, coeffs: tuple):
        if not coeffs:
            raise ValueError("a jet needs at least its value")
        self.x0 = x0
        self.coeffs = coeffs

    def __repr__(self):
        return f"Jet(x0={self.x0!r}, coeffs={self.coeffs!r})"

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def derivative(self, k: int) -> float:
        """k-th derivative of the represented function at x0, for an order
        the jet carries (an int where the coefficient is structural)."""
        if not 0 <= k < len(self.coeffs):
            raise ValueError(f"derivative order {k} outside the carried 0..{len(self.coeffs) - 1}")
        c = self.coeffs[k]
        return c * math.factorial(k) if k > 1 else c

    def __add__(self, other):
        if isinstance(other, Jet):
            if self.x0 is not other.x0:
                self._check_base(other)
            return Jet(self.x0, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))
        return Jet(self.x0, (self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.x0, tuple([-a for a in self.coeffs]))

    # a - b is a + (-b) in IEEE arithmetic, signed zeros included
    def __sub__(self, other):
        if isinstance(other, Jet):
            if self.x0 is not other.x0:
                self._check_base(other)
            return Jet(self.x0, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))
        return Jet(self.x0, (self.coeffs[0] - other,) + self.coeffs[1:])

    def __rsub__(self, other):
        return Jet(self.x0, (other - self.coeffs[0],) + tuple([-a for a in self.coeffs[1:]]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            if self.x0 is not other.x0:
                self._check_base(other)
            a, b = self.coeffs, other.coeffs
            n = min(len(a), len(b))
            # each operand's support, the whole jet where its top is not an int
            sa = len(a) if a[-1].__class__ is not int else _support(a)
            sb = len(b) if b[-1].__class__ is not int else _support(b)
            # the rows from which a term meets an operand's top coefficient
            # where that is an int 1 (x's slope, or the top of a power of
            # x): b's top meets a row's first term, a's its last; n: never
            fa = sb - 1 if b[sb - 1].__class__ is int and b[sb - 1] == 1 else n
            la = sa - 1 if a[sa - 1].__class__ is int and a[sa - 1] == 1 else n
            out = []
            for k in range(min(n, sa + sb - 1)):
                # the terms a_i b_(k-i) inside both supports, lo <= i <= hi
                lo = k - sb + 1 if k >= sb else 0
                hi = k if k < sa else sa - 1
                if lo < hi:
                    acc = a[lo] if k >= fa else a[lo] * b[k - lo]
                    for i in range(lo + 1, hi):
                        acc = acc + a[i] * b[k - i]  # acc may be an operand's array: never in place
                    out.append(acc + (b[k - hi] if k >= la else a[hi] * b[k - hi]))
                else:
                    out.append(a[lo] if k >= fa else b[k - lo] if k >= la else a[lo] * b[k - lo])
            return Jet(self.x0, tuple(out) + (0,) * (n - len(out)))
        c = self.coeffs
        s = len(c) if c[-1].__class__ is not int else _support(c)
        return Jet(self.x0, tuple([a * other for a in c[:s]]) + c[s:])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if self.x0 is not other.x0:
                self._check_base(other)
            return _div(self, other)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return constant(other, self.x0, len(self.coeffs)) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return 1.0 / (self ** (-n))
        if n == 0:
            return constant(1.0, self.x0, len(self.coeffs))
        # the ladder starts from the base itself, which is what a unit
        # constant jet times the base gives (1.0 * c, assigned), without the product
        result = None
        base = self
        k = n
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def _check_base(self, other: "Jet"):
        """Raise unless other, whose x0 is another object, has the same base
        points; a NaN base point equals a NaN."""
        differ = np.not_equal(self.x0, other.x0)
        if np.any(differ) and np.any(differ & ~(np.isnan(self.x0) & np.isnan(other.x0))):
            raise ValueError("jets have different base points")


def _support(c) -> int:
    """One past the last coefficient that is not a structural zero (an int 0)."""
    s = len(c)
    while s > 1 and c[s - 1].__class__ is int and c[s - 1] == 0:
        s -= 1
    return s


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


def _take(v, idx, base, x0):
    """v at the points idx; a jet on the base points gets x0, their copy."""
    if isinstance(v, Jet):
        return Jet(x0 if v.x0 is base else v.x0[idx], tuple(_take(c, idx, base, x0) for c in v.coeffs))
    return v[idx] if isinstance(v, np.ndarray) else v


def piecewise(cond, when_true, when_false, *args):
    """when_true(*args) where cond holds and when_false(*args) elsewhere.

    For scalar jets cond is a bool.  For a batch it holds one bool per
    point and args[0] is a jet of the batch; each branch then runs only on
    its own points, taken from every jet or per-point array in args, so it
    never meets a zero denominator that belongs to the other branch.  The
    jets on args[0]'s base points share one copy of the branch's points,
    so their arithmetic skips the base-point comparison.
    """
    if not isinstance(cond, np.ndarray):
        return when_true(*args) if cond else when_false(*args)
    base = args[0].x0
    parts = []
    for mask, fn in ((cond, when_true), (~cond, when_false)):
        idx = np.flatnonzero(mask)
        if idx.size or not cond.size:  # an empty batch learns its length from both
            x0 = base[idx]
            parts.append((idx, fn(*(_take(a, idx, base, x0) for a in args))))
    coeffs = []
    for k in range(min(len(jet.coeffs) for _, jet in parts)):
        col = np.empty(cond.size)
        for idx, jet in parts:
            col[idx] = jet.coeffs[k]
        coeffs.append(col)
    return Jet(args[0].x0, tuple(coeffs))


def _lib(v):
    """The elementary functions for a coefficient: numpy on arrays, math on
    floats, recording ones on traced floats."""
    if v.__class__ is Traced:
        return _TRACED_LIB
    return np if isinstance(v, np.ndarray) else math


def _check(bad, reason: str, x0):
    if bad is False:  # the common scalar case, without a call to first
        return
    i = first(bad)
    if i is not None:
        raise DomainEvaluationError(reason, at(x0, i))


def constant(v: float, x0: float = 0.0, n: int = N_COEFF) -> Jet:
    """The constant v as a jet of n coefficients at x0; its derivatives are
    structural zeros."""
    return Jet(x0, (float(v),) + (0,) * (n - 1))


def differentiate(j: Jet, n: int = 1) -> Jet:
    """Jet of the n-th derivative, n coefficients shorter: differentiation
    cannot know the orders above the ones the jet carries."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    coeffs = j.coeffs
    if n >= len(coeffs):
        raise ValueError(f"a jet of {len(coeffs)} coefficients has no derivative of order {n}")
    for _ in range(n):
        coeffs = coeffs[1:2] + tuple([(k + 1) * coeffs[k + 1] for k in range(1, len(coeffs) - 1)])
    return Jet(j.x0, coeffs)


def variable(x0, n: int = N_COEFF) -> Jet:
    """The identity function x as a jet of n coefficients at x0 (a float, a
    traced float, or a 1-D array of points): its slope is the structural
    1 and its higher coefficients structural zeros."""
    if isinstance(x0, np.ndarray):
        value = np.asarray(x0, dtype=float)
    else:
        value = x0 if x0.__class__ is Traced else float(x0)
    return Jet(x0, ((value, 1) + (0,) * (n - 2))[:n])


def _div(num: Jet, den: Jet) -> Jet:
    _check(den.coeffs[0] == 0.0, "division by zero", num.x0)
    a, b = num.coeffs, den.coeffs
    inv = 1.0 / b[0]
    q = []
    # each operand's support, the whole jet where its top is not an int
    sa = len(a) if a[-1].__class__ is not int else _support(a)
    sb = len(b) if b[-1].__class__ is not int else _support(b)
    # where the denominator's top coefficient is x's slope 1 (0: nowhere, as
    # a term's b index is at least 1)
    unit = sb - 1 if sb > 1 and b[sb - 1].__class__ is int and b[sb - 1] == 1 else 0
    for k in range(min(len(a), len(b))):
        lo = k - sb + 1 if k >= sb else 0  # the terms q_j b_(k-j), lo <= j < k, inside b's support
        if lo < k:
            t = q[lo] if k - lo == unit else q[lo] * b[k - lo]
            acc = a[k] - t if k < sa else -t
            for j in range(lo + 1, k):
                acc -= q[j] * b[k - j]  # acc is this row's own value: in place is safe
        elif k < sa:
            acc = a[k]
        else:
            q.append(0)
            continue
        q.append(acc * inv)
    return Jet(num.x0, tuple(q))


def _slopes(a, s: int):
    """(u's coefficients scaled as u' has them, j u_j for 1 <= j < s, and
    whether u_1 is x's slope 1) for the recurrences of exp, sin and cos."""
    d = [a[1]]
    for j in range(2, s):
        d.append(j * a[j])
    return d, a[1].__class__ is int and a[1] == 1


def exp(u: Jet) -> Jet:
    a = u.coeffs
    c = [_lib(a[0]).exp(a[0])]
    s = _support(a)
    if s == 1:
        return Jet(u.x0, tuple(c) + (0,) * (len(a) - 1))
    d, unit = _slopes(a, s)
    for k in range(1, len(a)):
        acc = c[k - 1] if unit else d[0] * c[k - 1]
        for j in range(2, k + 1 if k < s else s):
            acc = acc + d[j - 1] * c[k - j]
        c.append(acc / k if k > 1 else acc)
    return Jet(u.x0, tuple(c))


def _sin_cos(u: Jet, hyperbolic: bool):
    a = u.coeffs
    v = a[0]
    lib = _lib(v)
    s, c = ([lib.sinh(v)], [lib.cosh(v)]) if hyperbolic else ([lib.sin(v)], [lib.cos(v)])
    m = _support(a)
    if m == 1:
        zeros = (0,) * (len(a) - 1)
        return Jet(u.x0, tuple(s) + zeros), Jet(u.x0, tuple(c) + zeros)
    d, unit = _slopes(a, m)
    for k in range(1, len(a)):
        sa, ca = (c[k - 1], s[k - 1]) if unit else (d[0] * c[k - 1], d[0] * s[k - 1])
        for j in range(2, k + 1 if k < m else m):
            sa = sa + d[j - 1] * c[k - j]
            ca = ca + d[j - 1] * s[k - j]
        if k > 1:
            sa, ca = sa / k, ca / k if hyperbolic else -ca / k
        elif not hyperbolic:
            ca = -ca
        s.append(sa)
        c.append(ca)
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
    a = u.coeffs
    r = [_lib(v).sqrt(v)]
    s = _support(a)
    if s == 1:
        return Jet(u.x0, tuple(r) + (0,) * (len(a) - 1))
    inv = 0.5 / r[0]
    r.append(inv if a[1].__class__ is int and a[1] == 1 else a[1] * inv)
    for k in range(2, len(a)):
        t = r[1] * r[k - 1]
        acc = a[k] - t if k < s else -t
        for j in range(2, k):
            acc -= r[j] * r[k - j]  # acc is this row's own value: in place is safe
        r.append(acc * inv)
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


# -- recording ---------------------------------------------------------------------

_ELEMENTARY = ("exp", "sin", "cos", "sinh", "cosh", "sqrt")


# Single-use temporaries nest at most this deep in one compiled expression,
# far inside the parser's limit on nested parentheses
INLINE_DEPTH = 24


class _Tape:
    """The statements one traced run recorded, in order, each as (the name
    it assigns or None for a guard, its source with a {} per operand, its
    operands as operand() gives them, and whether it stays when nothing
    reads it: guards, and calls, which may raise)."""

    def __init__(self):
        self.lines = []
        self.consts = {}  # names for the constants no literal spells (inf, nan)

    def operand(self, v):
        """(source, name read or None) for a traced value or a constant."""
        if v.__class__ is Traced:
            if v.tape is not self:
                raise ValueError("traced values from different tapes")
            return v.name, v.name
        # each statement is one operation on names and literals, where a
        # negative literal needs no parentheses
        if isinstance(v, (int, np.integer)):
            return repr(int(v)), None
        v = float(v)
        if math.isfinite(v):
            return repr(v), None
        name = f"c{len(self.consts)}"
        self.consts[name] = v
        return name, None

    def assign(self, value, text: str, operands: tuple, call: bool = False) -> "Traced":
        name = f"t{len(self.lines)}"
        self.lines.append((name, text, operands, call))
        return Traced(self, name, value)

    def guard(self, held, text: str, operands: tuple) -> bool:
        held = bool(held)
        self.lines.append((None, f"if {'not ' if held else ''}{text}: return None", operands, True))
        return held

    def compile(self, out):
        """The function of x that returns the coefficients of the jets in
        out, keeping every guard and the statements they or out read.

        Guards and calls stay statements, in the recorded order; an
        arithmetic temporary read once is written, parenthesized, into the
        expression that reads it.  CPython rounds every binary operation
        of a nested expression as it rounds it into a temporary, so the
        kernel computes the same floats with a fraction of the statements
        to compile."""
        results, live = [], set()
        for jet in out:
            results.append([self.operand(c) for c in jet.coeffs])
            live.update(name for _, name in results[-1])
        kept = []
        for line in reversed(self.lines):
            target, _, operands, kept_anyway = line
            if kept_anyway or target in live:
                kept.append(line)
                live.update(name for _, name in operands)
        reads = Counter(name for line in kept for _, name in line[2])
        reads.update(name for parts in results for _, name in parts)
        inline = {}  # name -> (its parenthesized expression, nesting depth)
        body = []
        for target, text, operands, kept_anyway in reversed(kept):
            srcs, depth = [], 0
            for src, name in operands:
                if name in inline:
                    src, got = inline.pop(name)
                    depth = max(depth, got)
                srcs.append(src)
            text = text.format(*srcs)
            if not kept_anyway and reads[target] == 1 and depth < INLINE_DEPTH:
                inline[target] = (f"({text})", depth + 1)
            else:
                body.append(f"{target} = {text}" if target else text)
        returned = [[inline.pop(name)[0] if name in inline else src for src, name in parts] for parts in results]
        source = "def kernel(x):\n" + "".join(f"    {line}\n" for line in body)
        source += f"    return ({''.join('(' + ''.join(s + ', ' for s in srcs) + '), ' for srcs in returned)})\n"
        namespace = {name: getattr(math, name) for name in _ELEMENTARY}
        namespace.update(self.consts)
        exec(compile(source, "<jets.trace>", "exec"), namespace)
        kernel = namespace["kernel"]
        kernel.source = source
        return kernel


def _is_operand(v) -> bool:
    cls = v.__class__
    return cls is Traced or cls is float or cls is int or isinstance(v, (np.floating, np.integer))


def _traced_arithmetic(symbol: str, op, unit: bool = False):
    """The forward and reflected operator; where unit is set, a product
    with the int 1 on either side returns the traced value itself, exactly,
    and records nothing."""

    def record(a, b):
        tape = a.tape if a.__class__ is Traced else b.tape
        value = op(a.value if a.__class__ is Traced else a, b.value if b.__class__ is Traced else b)
        return tape.assign(value, f"{{}} {symbol} {{}}", (tape.operand(a), tape.operand(b)))

    def forward(self, other):
        if unit and other.__class__ is int and other == 1:
            return self
        return record(self, other) if _is_operand(other) else NotImplemented

    def reflected(self, other):
        if unit and other.__class__ is int and other == 1:
            return self
        return record(other, self) if _is_operand(other) else NotImplemented

    return forward, reflected


def _traced_comparison(symbol: str, op):
    def compare(self, other):
        if not _is_operand(other):
            return NotImplemented
        held = op(self.value, other.value if other.__class__ is Traced else other)
        return self.tape.guard(held, f"{{}} {symbol} {{}}", (self.tape.operand(self), self.tape.operand(other)))

    return compare


class Traced:
    """A float at the traced point that records what is done with it on its
    tape (see the module docstring)."""

    __slots__ = ("tape", "name", "value")

    # numpy scalars on the left of an operator defer to the reflected method
    __array_ufunc__ = None

    def __init__(self, tape: _Tape, name: str, value):
        self.tape = tape
        self.name = name
        self.value = value

    def __repr__(self):
        return f"Traced({self.name}={self.value!r})"

    def __bool__(self):
        raise TypeError("a traced value has no truth value: compare it, which records a guard")

    __add__, __radd__ = _traced_arithmetic("+", operator.add)
    __sub__, __rsub__ = _traced_arithmetic("-", operator.sub)
    __mul__, __rmul__ = _traced_arithmetic("*", operator.mul, unit=True)
    __truediv__, __rtruediv__ = _traced_arithmetic("/", operator.truediv)
    __eq__ = _traced_comparison("==", operator.eq)
    __ne__ = _traced_comparison("!=", operator.ne)
    __lt__ = _traced_comparison("<", operator.lt)
    __le__ = _traced_comparison("<=", operator.le)
    __gt__ = _traced_comparison(">", operator.gt)
    __ge__ = _traced_comparison(">=", operator.ge)

    def __neg__(self):
        return self.tape.assign(-self.value, "-{}", ((self.name, self.name),))

    def __abs__(self):
        return self.tape.assign(abs(self.value), "abs({})", ((self.name, self.name),))


def _traced_elementary(name: str):
    f = getattr(math, name)

    def call(v: Traced) -> Traced:
        return v.tape.assign(f(v.value), f"{name}({{}})", ((v.name, v.name),), call=True)

    return call


_TRACED_LIB = types.SimpleNamespace(**{name: _traced_elementary(name) for name in _ELEMENTARY})


def trace(fn, x: float):
    """Record fn, from a point x to a sequence of jets, at the float x and
    compile it: the result maps a float to the tuple of the jets'
    coefficient tuples, computed by fn's float operations in fn's order,
    or to None where a comparison fn made comes out otherwise (a side
    exit).  The recorded fn may raise; then nothing is compiled."""
    tape = _Tape()
    return tape.compile(fn(Traced(tape, "x", float(x))))
