"""Full-residual references for ``qesforge.local_series``.

The package finds its branches in closed form, from a square root of the
discriminant.  This module checks them against the quadratic itself: the
discriminant series, the full residual of a candidate series, and its
largest trustworthy residual coefficient, all from truncated products.
"""

from qesforge.local_series import LaurentPoly, _pad, _pmul

N_TERMS = 7  # the shortest U input the residuals are formed over


def _padd(a, b, n=N_TERMS):
    a, b = _pad(a, n), _pad(b, n)
    return [x + y for x, y in zip(a, b)]


def _pscale(a, s, n=N_TERMS):
    return [s * x for x in _pad(a, n)]


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


def residual_taylor(u, eps0, eps1, w):
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


def residual_pole(u, eps0, eps1, p):
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


def residual_norm(x0: float, w: LaurentPoly, u, eps0: float, eps1: float) -> float:
    """Max residual coefficient of a candidate series, for diagnostics."""
    m = max(len(u), N_TERMS)
    if w.valuation >= 0:
        wc = [0.0] * w.valuation + list(w.coeffs)
        r = residual_taylor(u, eps0, eps1, wc)
        top = m - 1 if abs(wc[0]) < 1e-12 else m - 2
    elif w.valuation == -1:
        r = residual_pole(u, eps0, eps1, list(w.coeffs))
        top = m - 1
    else:
        raise ValueError("unsupported valuation")
    return max(abs(c) for c in r[: top + 1])

