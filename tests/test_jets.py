import math

import numpy as np
import pytest

from qesforge import jets
from qesforge.errors import DomainEvaluationError


def test_variable_and_constant():
    x = jets.variable(2.5)
    assert x.value == 2.5
    assert x.derivative(1) == 1.0
    assert x.derivative(2) == 0.0
    c = jets.constant(7.0, 2.5)
    assert c.value == 7.0
    assert all(c.coeffs[k] == 0.0 for k in range(1, jets.N_COEFF))


def test_sin_jet_at_zero():
    j = jets.sin(jets.variable(0.0))
    expected = (0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0, 0.0)
    assert j.coeffs == pytest.approx(expected, abs=1e-15)


def test_polynomial_exactness():
    # 3x^4 - 2x^2 + 5 at x0 = 1.5: jet arithmetic on polynomials is exact
    x0 = 1.5
    x = jets.variable(x0)
    j = 3.0 * x**4 - 2.0 * x**2 + 5.0
    assert j.value == 3 * x0**4 - 2 * x0**2 + 5
    assert j.derivative(1) == 12 * x0**3 - 4 * x0
    assert j.derivative(2) == 36 * x0**2 - 4
    assert j.derivative(3) == 72 * x0
    assert j.derivative(4) == 72.0
    assert j.derivative(5) == 0.0
    assert j.derivative(6) == 0.0


@pytest.mark.parametrize("x0", [0.0, 0.7, -1.3, math.pi / 3])
def test_product_rule(x0):
    f = jets.sin(jets.variable(x0))
    g = jets.exp(jets.variable(x0))
    fg = f * g
    for k in range(1, jets.ORDER + 1):
        lhs = fg.derivative(k)
        rhs = sum(math.comb(k, i) * f.derivative(i) * g.derivative(k - i) for i in range(k + 1))
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


def test_quotient_and_reciprocal():
    x0 = 0.4
    x = jets.variable(x0)
    j = jets.sin(x) / jets.cos(x)
    t = jets.tan(x)
    assert j.coeffs == pytest.approx(t.coeffs, rel=1e-14)
    r = 1.0 / jets.cosh(x)
    assert r.value == pytest.approx(1.0 / math.cosh(x0), rel=1e-15)


def test_trig_identity():
    x0 = 1.1
    x = jets.variable(x0)
    one = jets.sin(x) ** 2 + jets.cos(x) ** 2
    assert one.value == pytest.approx(1.0, abs=1e-15)
    for k in range(1, jets.ORDER + 1):
        assert one.derivative(k) == pytest.approx(0.0, abs=1e-13)


def test_hyperbolic_identity():
    x = jets.variable(0.6)
    one = jets.cosh(x) ** 2 - jets.sinh(x) ** 2
    assert one.value == pytest.approx(1.0, abs=1e-14)
    for k in range(1, jets.ORDER + 1):
        assert one.derivative(k) == pytest.approx(0.0, abs=1e-13)


def test_sqrt_recurrence():
    x0 = 2.0
    j = jets.sqrt(jets.variable(x0))
    # d^k/dx^k sqrt(x): 1/2 x^-1/2, -1/4 x^-3/2, 3/8 x^-5/2, ...
    assert j.value == pytest.approx(math.sqrt(x0), rel=1e-15)
    assert j.derivative(1) == pytest.approx(0.5 / math.sqrt(x0), rel=1e-14)
    assert j.derivative(2) == pytest.approx(-0.25 * x0**-1.5, rel=1e-14)
    assert j.derivative(3) == pytest.approx(0.375 * x0**-2.5, rel=1e-14)


def test_sqrt_of_square():
    x0 = 0.9
    x = jets.variable(x0)
    j = jets.sqrt(jets.cosh(x) * jets.cosh(x))
    c = jets.cosh(x)
    assert j.coeffs == pytest.approx(c.coeffs, rel=1e-13)


def test_negative_power():
    x0 = 1.7
    j = jets.variable(x0) ** -3
    assert j.value == pytest.approx(x0**-3, rel=1e-15)
    assert j.derivative(1) == pytest.approx(-3 * x0**-4, rel=1e-14)
    assert j.derivative(2) == pytest.approx(12 * x0**-5, rel=1e-14)


def test_division_by_zero_jet():
    zero = jets.constant(0.0, 1.0)
    with pytest.raises(DomainEvaluationError):
        jets.variable(1.0) / zero


def test_tan_near_pole_stays_finite():
    # float cos(pi/2) is ~6.1e-17, not exactly zero; the pole guard only
    # fires on exact zeros, so the jet is huge but finite
    j = jets.tan(jets.variable(math.pi / 2))
    assert abs(j.value) > 1e15
    assert math.isfinite(j.value)


def test_sqrt_negative():
    with pytest.raises(DomainEvaluationError):
        jets.sqrt(jets.constant(-1.0, 0.0))


def test_sqrt_zero_base():
    with pytest.raises(DomainEvaluationError):
        jets.sqrt(jets.constant(0.0, 0.0))


def test_base_point_mismatch():
    with pytest.raises(ValueError):
        jets.variable(0.0) + jets.variable(1.0)


def test_derivative_factorial_scaling():
    j = jets.exp(jets.variable(0.0))
    for k in range(jets.N_COEFF):
        assert j.derivative(k) == pytest.approx(1.0, rel=1e-14)
        assert j.coeffs[k] == pytest.approx(1.0 / math.factorial(k), rel=1e-14)


# -- batches of points ---------------------------------------------------------

BATCH_X = np.random.default_rng(7).uniform(-2.0, 2.0, 257)

# (name, jet function, reference): each function runs once on the whole
# batch and once per point.  With no reference the two must be equal; where
# numpy's exp, sinh or cosh enter they may round differently from math's,
# and the recurrences carry that last bit into every coefficient, so the
# bound is 4 ulp of the reference jet's largest coefficient at the point.
# tanh = sinh/cosh scales its operands' differences by cosh, hence cosh.
BATCH_CASES = [
    ("add", lambda x: x + jets.sin(x), None),
    ("radd", lambda x: 2.5 + x, None),
    ("sub", lambda x: jets.cos(x) - x, None),
    ("rsub", lambda x: 1.0 - x, None),
    ("neg", lambda x: -jets.sin(x), None),
    ("mul", lambda x: jets.sin(x) * jets.cos(x), None),
    ("mul_constant", lambda x: jets.constant(3.0, x.x0) * jets.sin(x), None),
    ("mul_scalar", lambda x: 0.7 * x, None),
    ("mul_per_point", lambda x: np.sign(x.value) * jets.sin(x), None),
    ("div", lambda x: jets.sin(x) / (2.0 + jets.cos(x)), None),
    ("rdiv", lambda x: 1.0 / (3.0 + x), None),
    ("pow", lambda x: (x + 0.5) ** 5, None),
    ("negative_pow", lambda x: (3.0 + x) ** -3, None),
    # a result shares coefficient arrays with its operands; reading an
    # operand again catches a recurrence that writes into them
    ("div_keeps_operands", lambda x: (lambda n: n / (2.0 + jets.cos(x)) + n)(jets.sin(x) - 1.0), None),
    ("sqrt_keeps_operand", lambda x: (lambda v: jets.sqrt(v) + v)(3.0 + jets.sin(x)), None),
    ("differentiate", lambda x: jets.differentiate(jets.sin(x) * x, 2), None),
    ("sin", jets.sin, None),
    ("cos", jets.cos, None),
    ("tan", lambda x: jets.tan(0.5 * x), None),
    ("sqrt", lambda x: jets.sqrt(3.0 + x), None),
    ("exp", jets.exp, jets.exp),
    ("sinh", jets.sinh, jets.sinh),
    ("cosh", jets.cosh, jets.cosh),
    ("tanh", jets.tanh, jets.cosh),
]


def _coeff_rows(fn, x, batch):
    """Coefficients of fn over the points x, one row per order."""
    if batch:
        jet = fn(jets.variable(x))
        assert np.shape(jet.x0) == x.shape
        return np.array([np.broadcast_to(c, x.shape) for c in jet.coeffs])
    return np.array([fn(jets.variable(float(x0))).coeffs for x0 in x]).T


@pytest.mark.parametrize("name, fn, reference", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_batch_matches_scalar_jets(name, fn, reference):
    got = _coeff_rows(fn, BATCH_X, batch=True)
    want = _coeff_rows(fn, BATCH_X, batch=False)
    if reference is None:
        assert np.array_equal(got, want), name
    else:
        scale = np.max(np.abs(_coeff_rows(reference, BATCH_X, batch=False)), axis=0)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale)), name


def test_batch_domain_error_reports_first_point():
    x = np.array([0.5, 1.0, -1.0, 2.0, -3.0])
    with pytest.raises(DomainEvaluationError) as exc:
        jets.sqrt(jets.variable(x))
    assert exc.value.x0 == -1.0
    with pytest.raises(DomainEvaluationError) as exc:
        jets.constant(1.0, x) / (jets.variable(x) - 1.0)
    assert exc.value.x0 == 1.0


def test_batch_base_point_mismatch():
    with pytest.raises(ValueError):
        jets.variable(np.array([0.0, 1.0])) + jets.variable(np.array([0.0, 2.0]))


def test_piecewise_runs_each_branch_on_its_points():
    x = jets.variable(np.array([-2.0, 0.5, -0.25, 3.0]))
    seen = []

    def inverse(j):
        seen.append(j.x0)
        return 1.0 / j

    def doubled(j):
        seen.append(j.x0)
        return 2.0 * j

    got = jets.piecewise(x.value < 0.0, inverse, doubled, x)
    assert [list(s) for s in seen] == [[-2.0, -0.25], [0.5, 3.0]]
    for i, x0 in enumerate(x.x0):
        want = inverse(jets.variable(x0)) if x0 < 0.0 else doubled(jets.variable(x0))
        assert [c[i] for c in got.coeffs] == list(want.coeffs)
    # a scalar condition picks one branch
    one = jets.variable(0.5)
    assert jets.piecewise(False, inverse, doubled, one).coeffs == doubled(one).coeffs
