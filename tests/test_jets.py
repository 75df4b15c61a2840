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


def test_batch_nan_base_points_match():
    # a NaN base point is the same point as a NaN, not a mismatch
    x = np.array([math.nan, 1.0])
    got = jets.variable(x) + jets.variable(x.copy())
    assert np.isnan(got.value[0]) and got.value[1] == 2.0
    with pytest.raises(ValueError):
        jets.variable(x) + jets.variable(np.array([math.nan, 2.0]))
    with pytest.raises(ValueError):
        jets.variable(x) * jets.variable(np.array([0.0, 1.0]))


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


# -- carried length -------------------------------------------------------------


def test_length_is_the_carried_orders():
    assert jets.variable(0.5, 1).coeffs == (0.5,)
    assert jets.variable(0.5, 3).coeffs == (0.5, 1.0, 0.0)
    assert jets.constant(2.0, 0.5, 2).coeffs == (2.0, 0.0)
    x = jets.variable(0.5, 4)
    # a mixed-length operation keeps the shorter length
    for got in (x + jets.sin(jets.variable(0.5)), jets.variable(0.5) * x, jets.variable(0.5) / (2.0 + x)):
        assert len(got.coeffs) == 4
    assert len((1.0 / x).coeffs) == len((x**3).coeffs) == len(jets.sqrt(x).coeffs) == 4


def test_differentiate_drops_the_top_coefficient():
    x = jets.variable(0.3)
    j = jets.sin(x) * x
    once = jets.differentiate(j)
    assert len(once.coeffs) == jets.N_COEFF - 1
    assert once.coeffs == tuple((k + 1) * j.coeffs[k + 1] for k in range(jets.N_COEFF - 1))
    assert len(jets.differentiate(j, 3).coeffs) == jets.N_COEFF - 3
    with pytest.raises(ValueError):
        jets.differentiate(j, jets.N_COEFF)


def test_derivative_past_the_carried_orders_raises():
    j = jets.exp(jets.variable(0.2, 3))
    assert j.derivative(2) == pytest.approx(math.exp(0.2), rel=1e-15)
    with pytest.raises(ValueError):
        j.derivative(3)
    with pytest.raises(ValueError):
        jets.differentiate(j).derivative(2)
    with pytest.raises(ValueError):
        jets.Jet(0.0, ())


@pytest.mark.parametrize("name, fn, reference", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_short_jets_are_leading_coefficients(name, fn, reference):
    # every recurrence is triangular: a jet of n coefficients repeats the
    # first n of the full one bit for bit
    for x0 in BATCH_X[:8].tolist():
        full = fn(jets.variable(x0)).coeffs
        for n in range(3, jets.N_COEFF + 1):
            got = fn(jets.variable(x0, n)).coeffs
            assert np.array(got).tobytes() == np.array(full[: len(got)]).tobytes(), (name, n)


# -- powers ---------------------------------------------------------------------


def _unit_ladder(b, n):
    """b ** n as the squaring ladder started from a unit constant jet."""
    result, base, k = jets.constant(1.0, b.x0, len(b.coeffs)), b, n
    while True:
        if k & 1:
            result = result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def test_power_ladder_matches_a_unit_start():
    # the ladder starts from the base itself, as a unit constant jet times
    # the base does (each first term 1.0 * c is assigned, not summed into
    # 0.0): a -0.0 coefficient stays -0.0 either way
    x = np.array([0.7, -1.3, 0.0, 2.5])
    bases = [
        jets.Jet(0.7, (0.7, -0.0, 1.5, -0.0)),
        jets.Jet(-0.0, (-0.0, 1.0, -0.0, 0.25)),
        jets.Jet(x, (x, -0.0, np.array([1.5, -0.0, 0.0, -2.0]), -0.0)),
    ]
    for b in bases:
        for k in range(1, 6):
            got, want = (b**k).coeffs, _unit_ladder(b, k).coeffs
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes(), k
        assert (b**0).coeffs == jets.constant(1.0, b.x0, 4).coeffs


# -- recording ----------------------------------------------------------------------


def _hex(coeffs):
    return [float(c).hex() for c in coeffs]


@pytest.mark.parametrize("name, fn, reference", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_traced_kernel_repeats_the_jets(name, fn, reference):
    # a kernel recorded at one point returns, wherever it does not side
    # exit, the coefficients the float jets give, bit for bit (math's exp,
    # sinh and cosh on both sides)
    xs = BATCH_X.tolist()
    if name == "mul_per_point":  # np.sign would turn the traced value into a constant
        with pytest.raises(TypeError):
            jets.trace(lambda x: [fn(jets.variable(x))], xs[0])
        return
    kernels, returned = [], 0
    for x0 in xs:
        want = _hex(fn(jets.variable(x0)).coeffs)
        for kernel in kernels:
            got = kernel(x0)
            if got is not None:
                assert [_hex(c) for c in got] == [want], (name, x0)
                returned += 1
                break
        else:
            kernels.append(jets.trace(lambda x: [fn(jets.variable(x))], x0))
    assert len(kernels) <= 2 and returned == len(xs) - len(kernels), name


def test_guards_side_exit_where_a_comparison_flips():
    # each comparison that read a traced value holds at the recorded point
    # and sends every point where it does not to a side exit (None)
    cases = [
        (lambda x: jets.sqrt(x), 2.0, (-1.0, 0.0)),  # sqrt's domain checks
        (lambda x: 1.0 / (x - 1.0), 2.0, (1.0,)),  # division by zero
        (lambda x: jets.tan(x), 0.3, ()),  # cos(x) == 0 is never met exactly
        (lambda x: jets.piecewise(x.value >= 0.0, jets.sin, jets.cos, x), 0.5, (-0.5, -1e-300)),
    ]
    for fn, at, exits in cases:
        kernel = jets.trace(lambda x: [fn(jets.variable(x))], at)
        assert "assert" not in kernel.source
        assert kernel(at) == (fn(jets.variable(at)).coeffs,)
        for x0 in exits:
            assert kernel(x0) is None, (at, x0)
    sqrt = jets.trace(lambda x: [jets.sqrt(jets.variable(x))], 2.0)
    with pytest.raises(DomainEvaluationError) as exc:
        jets.sqrt(jets.variable(-1.0))
    assert sqrt(-1.0) is None and exc.value.x0 == -1.0


def test_runtime_zero_coefficients_take_no_side_exit():
    # a product reads no coefficient's value to skip a term, so a zero that
    # only the point decides (sin(x) at 0) leaves the recorded kernel on
    # course, with the coefficients the jets give bit for bit
    for fn in (lambda x: jets.sin(x) * x, lambda x: jets.sin(x) * jets.cos(x) * jets.sin(2.0 * x)):
        for at, other in ((0.0, 0.5), (0.5, 0.0), (0.5, -0.0)):
            kernel = jets.trace(lambda x: [fn(jets.variable(x))], at)
            assert "if " not in kernel.source
            for x0 in (at, other):
                got = kernel(x0)
                assert got is not None, (at, x0)
                assert [_hex(c) for c in got] == [_hex(fn(jets.variable(x0)).coeffs)], (at, x0)


def test_structural_coefficients_are_exact_ints():
    # a constant's derivatives are int zeros and x's slope the int 1; the
    # operations keep them where the structure decides them and skip the
    # arithmetic on them, so a traced kernel holds no 0.0 + , * 1 or / 1
    def ints(coeffs):
        assert all(k.__class__ is int for k in coeffs), coeffs
        return coeffs

    x = jets.variable(0.3, 4)
    c = jets.constant(2.0, 0.3, 4)
    assert ints(x.coeffs[1:]) == (1, 0, 0) and ints(c.coeffs[1:]) == (0, 0, 0)
    for f in (jets.exp, jets.sqrt, jets.sin, jets.cosh, lambda j: 1.0 / j, lambda j: j * j):
        assert ints(f(c).coeffs[1:]) == (0, 0, 0)
    assert ints((x * x).coeffs[2:]) == (1, 0) and ints((2.0 * x).coeffs[2:]) == (0, 0)
    assert ints((x / c).coeffs[2:]) == (0, 0) and ints(jets.differentiate(x * x).coeffs[1:]) == (2, 0)
    assert x.derivative(1).__class__ is int
    kernel = jets.trace(lambda v: (lambda x: [jets.sin(x) * jets.exp(2.0 * x) / (x + 1.0)])(jets.variable(v)), 0.3)
    for text in ("0.0 +", "* 1)", "/ 1)", "(1 *", "0.0 *"):
        assert text not in kernel.source, text


def test_products_with_x_skip_the_multiply_by_its_slope():
    # x's slope is the int 1, so a product or quotient with x passes the
    # other factor's terms through; floats that count each multiply or
    # divide by an int 1 show that none is done
    ones = []

    class Counted(float):
        def __neg__(self):
            return Counted(-float(self))

    for name in ("add", "sub", "mul", "truediv"):
        for side in ("", "r"):

            def method(self, other, op=getattr(float, f"__{side}{name}__"), name=name):
                if name in ("mul", "truediv") and other.__class__ is int and other == 1:
                    ones.append(name)
                return Counted(op(self, other))

            setattr(Counted, f"__{side}{name}__", method)

    x0 = 0.3
    x = jets.Jet(x0, (Counted(x0), 1, 0, 0))
    f = jets.Jet(x0, tuple(Counted(v) for v in (0.7, 0.5, -0.2, 0.1)))
    v, g = jets.variable(x0, 4), jets.Jet(x0, tuple(float(c) for c in f.coeffs))
    for got, plain in ((x * f, v * g), (f * x, g * v), (x * x * f, v * v * g), (f / (x + 1.0), g / (v + 1.0))):
        assert [float(c) for c in got.coeffs] == [float(c) for c in plain.coeffs]
    assert ones == []


def test_traced_values_refuse_unrecorded_decisions():
    # a truth test or a float conversion would fix the recorded outcome
    # without a guard, so both fail; two tapes never mix
    tape_a, tape_b = [], []
    jets.trace(lambda x: tape_a.append(x) or [jets.variable(x)], 1.0)
    jets.trace(lambda x: tape_b.append(x) or [jets.variable(x)], 2.0)
    a, b = tape_a[0], tape_b[0]
    with pytest.raises(TypeError):
        bool(a)
    with pytest.raises(TypeError):
        float(a)
    with pytest.raises(ValueError):
        a + b
    assert (a * 2.0).value == 2.0 and (3 - b).value == 1.0


def test_kernel_keeps_calls_nothing_reads():
    # a call may raise where the jets raise, so it stays though unread;
    # unread arithmetic goes
    kernel = jets.trace(lambda x: (lambda v: [jets.exp(1000.0 * v), v * 3.0][1:])(jets.variable(x)), 0.1)
    # exp(x * 1000.0) and a return of x * 3.0, of the exp jet's ~50 statements:
    # the products are each read once, so they move into their readers
    assert len(kernel.source.splitlines()) == 3 and "exp((x * 1000.0))" in kernel.source
    assert kernel(0.2) == ((0.2 * 3.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0),)
    with pytest.raises(OverflowError):
        jets.exp(jets.variable(1.0) * 1000.0)
    with pytest.raises(OverflowError):
        kernel(1.0)


def test_non_finite_constants_are_named():
    kernel = jets.trace(lambda x: (lambda v: [v + math.inf, v * 0.0 + math.nan])(jets.variable(x, 2)), 1.0)
    (first, second) = kernel(2.0)
    assert first[0] == math.inf and math.isnan(second[0])


def test_long_single_use_chains_compile():
    # a chain of temporaries each read once nests only INLINE_DEPTH deep,
    # however long, and still computes the recorded floats
    def chain(x):
        v = jets.variable(x, 2)
        for k in range(400):
            v = v * 1.0001 + (0.5 if k % 2 else -0.25)
        return [v]

    kernel = jets.trace(chain, 0.3)
    assert max(line.count("(") for line in kernel.source.splitlines()) <= 2 * jets.INLINE_DEPTH + 4
    for x0 in (0.3, -1.7, 12.5):
        assert [_hex(c) for c in kernel(x0)] == [_hex(chain(x0)[0].coeffs)]
