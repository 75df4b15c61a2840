"""Independent reference integrals of the chain members W0, W1, W2.

``integrate(system, i, a, b)`` integrates W_i over [a, b] with scipy ``quad``
on the chain jets outside the patch windows and term by term on the matched
Laurent series inside them, taking principal values across chain poles.  It
never reads the Chebyshev antiderivative tables that
``ConstructedSystem.integrate_superpotential`` and the states are built from,
so the tests use it as the oracle for both.
"""

import math

from scipy.integrate import quad

from qesforge import local_series, susy
from qesforge.errors import PatchFailureError, QuadratureNonconvergenceError


def integrate(system, i: int, a: float, b: float) -> float:
    """Integral of W_i over [a, b]; principal value across chain poles.

    [a, b] must fit inside one period after reduction by a common shift.
    """
    if i not in (0, 1, 2):
        raise ValueError("chain index must be 0, 1 or 2")
    if b < a:
        return -integrate(system, i, b, a)
    L = system.period
    shift = math.floor(a / L) * L
    a2, b2 = a - shift, b - shift
    if b2 > L + 1e-12:
        raise ValueError("integration range spans more than one period after reduction")
    b2 = min(b2, L)
    h = system.patch_halfwidth
    name = susy.CHAIN_NAMES[i]
    cuts = [a2, b2]
    windows = []
    for patch in system.patches:
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
            total += _integrate_local(system, win[2], win[3], name, lo, hi)
        else:
            val, err = quad(
                lambda x: system._members(x, (name,))[0].value, lo, hi,
                epsabs=1e-13, epsrel=1e-13, limit=200,
            )
            if err > 1e-10:
                raise QuadratureNonconvergenceError(lo, hi, err, 1e-10)
            total += val
    return total


def _integrate_local(system, patch, img: float, name: str, lo: float, hi: float) -> float:
    t0, t1 = lo - img, hi - img
    lp_l = getattr(system._active_local(patch, -1), name).structurally_trimmed(1e-12)
    lp_r = getattr(system._active_local(patch, +1), name).structurally_trimmed(1e-12)
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
