import math

import numpy as np
import pytest

from qesforge import expr
from qesforge.errors import ParseError, UnknownIdentifierError

RAZAVY_U = "4*eps0*eps1*sin(x)^2"
P = {"eps0": 1.0, "eps1": 0.5}


def test_parse_number():
    e = expr.parse("2.5e-3")
    assert expr.eval_jet(e, 0.0, {}).value == 2.5e-3


def test_precedence():
    assert expr.eval_jet(expr.parse("2+3*4"), 0.0, {}).value == 14.0
    assert expr.eval_jet(expr.parse("(2+3)*4"), 0.0, {}).value == 20.0
    assert expr.eval_jet(expr.parse("2*x^2"), 3.0, {}).value == 18.0
    assert expr.eval_jet(expr.parse("-x^2"), 3.0, {}).value == -9.0


def test_power_right_associative():
    # x^3^2 = x^(3^2) = x^9
    assert expr.eval_jet(expr.parse("x^3^2"), 2.0, {}).value == 512.0


def test_negative_exponent():
    assert expr.eval_jet(expr.parse("x^-2"), 2.0, {}).value == 0.25


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        expr.parse("x^2.5")
    with pytest.raises(ParseError):
        expr.parse("x^x")


def test_unclosed_call_offset():
    with pytest.raises(ParseError) as exc_info:
        expr.parse("sin(")
    assert exc_info.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc_info:
        expr.parse("2*y")
    assert exc_info.value.name == "y"
    assert exc_info.value.offset == 2
    with pytest.raises(UnknownIdentifierError):
        expr.parse("foo(x)")


def test_trailing_input():
    with pytest.raises(ParseError):
        expr.parse("x x")


def test_empty_input():
    with pytest.raises(ParseError):
        expr.parse("   ")


def test_pi_constant():
    assert expr.eval_jet(expr.parse("pi"), 0.0, {}).value == math.pi
    assert expr.eval_jet(expr.parse("cos(pi)"), 0.0, {}).value == pytest.approx(-1.0, abs=1e-15)


def test_unbound_parameter():
    e = expr.parse("eps0*x")
    with pytest.raises(KeyError):
        expr.eval_jet(e, 1.0, {})


def test_exact_pole_raises_with_location():
    from qesforge.errors import DomainEvaluationError

    # cos(0) == 1.0 exactly, so the denominator jet has an exact zero value
    e = expr.parse("sin(x)/(1 - cos(x))")
    with pytest.raises(DomainEvaluationError) as exc_info:
        expr.eval_jet(e, 0.0, {})
    assert exc_info.value.x0 == 0.0


def test_razavy_jet_at_half_pi():
    j = expr.eval_jet(expr.parse(RAZAVY_U), math.pi / 2, P)
    assert j.coeffs[0] == pytest.approx(2.0, abs=1e-12)
    assert j.coeffs[1] == pytest.approx(0.0, abs=1e-12)
    assert j.coeffs[2] == pytest.approx(-2.0, abs=1e-12)


def test_razavy_derivatives_at_pi():
    e = expr.parse(RAZAVY_U)
    j = expr.eval_jet(e, math.pi, P)
    assert j.derivative(2) == pytest.approx(4.0, abs=1e-12)
    assert j.derivative(3) == pytest.approx(0.0, abs=1e-12)


def test_round_trip():
    sources = [
        RAZAVY_U,
        "sin(x)^2 - cos(x)^2",
        "-(x + 1) * exp(-x^2)",
        "eps0 / (eps1 + 1)",
        "sqrt(1 + tanh(x)^2)",
        "2 - 3 - 4",
        "2 / 3 / 4",
        "x^-3",
        "-x^2",
    ]
    for src in sources:
        e1 = expr.parse(src)
        printed = expr.to_source(e1)
        e2 = expr.parse(printed)
        assert expr.to_source(e2) == printed
        xs = np.linspace(0.3, 1.1, 7)
        v1 = [np.broadcast_to(c, xs.shape) for c in expr.eval_jet(e1, xs, P).coeffs]
        v2 = [np.broadcast_to(c, xs.shape) for c in expr.eval_jet(e2, xs, P).coeffs]
        np.testing.assert_allclose(v1, v2, rtol=0, atol=0)


def test_subtraction_left_associative():
    assert expr.eval_jet(expr.parse("2 - 3 - 4"), 0.0, {}).value == -5.0
    assert expr.eval_jet(expr.parse("2 / 4 / 2"), 0.0, {}).value == 0.25


def test_value_jet_matches_full_jet():
    # a jet of the value alone is the leading coefficient of the full one,
    # for a batch as for each point
    e = expr.parse(RAZAVY_U)
    xs = np.linspace(0.0, 2 * math.pi, 17)
    values = expr.eval_jet(e, xs, P, 1)
    assert len(values.coeffs) == 1
    np.testing.assert_allclose(values.value, expr.eval_jet(e, xs, P).value, rtol=0, atol=0)
    jet_vals = np.array([expr.eval_jet(e, float(x), P).value for x in xs])
    np.testing.assert_allclose(values.value, jet_vals, rtol=1e-15, atol=1e-15)


def test_constant_batch_jet():
    # a constant's coefficients are floats shared by every point of the batch
    xs = np.zeros(5)
    j = expr.eval_jet(expr.parse("3"), xs, {}, 2)
    assert j.x0 is xs
    assert j.coeffs == (3.0, 0.0)


def test_all_functions_parse_and_evaluate():
    x0 = 0.37
    expected = {
        "sin": math.sin, "cos": math.cos, "tan": math.tan,
        "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
        "exp": math.exp, "sqrt": math.sqrt,
    }
    for name, fn in expected.items():
        e = expr.parse(f"{name}(x)")
        assert expr.eval_jet(e, x0, {}).value == pytest.approx(fn(x0), rel=1e-15)


DETUNED_U = "4*eps0*eps1*sin(x)^2*((1-0.6)+0.6*cos(2*x))"
BATCH_X = np.random.default_rng(3).uniform(-1.0, 7.0, 256)


def _coeff_rows(e, params, batch):
    if batch:
        jet = expr.eval_jet(e, BATCH_X, params)
        return np.array([np.broadcast_to(c, BATCH_X.shape) for c in jet.coeffs])
    return np.array([expr.eval_jet(e, float(x), params).coeffs for x in BATCH_X]).T


@pytest.mark.parametrize("source", [RAZAVY_U, DETUNED_U])
def test_eval_jet_batch_matches_points(source):
    # one walk of the AST over 256 points reproduces every scalar jet
    e = expr.parse(source)
    params = {"eps0": 2.8, "eps1": 0.5}
    assert np.array_equal(_coeff_rows(e, params, True), _coeff_rows(e, params, False))


def test_eval_jet_batch_exp_family(monkeypatch):
    # numpy's exp, sinh and cosh may round differently from math's (their
    # per-function bound is in test_jets); with the same elementary
    # functions on both paths the batch is exact
    from qesforge import jets

    e = expr.parse("eps0*exp(-cos(2*x)) - cosh(sin(x)) + eps1*sinh(x)")
    params = {"eps0": 2.8, "eps1": 0.5}
    batch = _coeff_rows(e, params, True)
    monkeypatch.setattr(jets, "_lib", lambda v: np)
    assert np.array_equal(batch, _coeff_rows(e, params, False))


TRUNCATION_SOURCES = [RAZAVY_U, DETUNED_U, "eps0*exp(-cos(2*x)) - cosh(sin(x)) + eps1*sinh(x)"]


@pytest.mark.parametrize("source", TRUNCATION_SOURCES)
@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_shorter_jets_are_leading_coefficients(source, batch):
    # a jet of n coefficients holds the first n of the full jet, bit for
    # bit (signed zeros included), at a point and over a batch
    from qesforge import jets

    e = expr.parse(source)
    params = {"eps0": 2.8, "eps1": 0.5}
    xs = BATCH_X if batch else BATCH_X[:16].tolist()

    def rows(n):
        if batch:
            return np.array([np.broadcast_to(c, BATCH_X.shape) for c in expr.eval_jet(e, BATCH_X, params, n).coeffs])
        return np.array([expr.eval_jet(e, x, params, n).coeffs for x in xs]).T

    full = rows(jets.N_COEFF)
    for n in range(1, jets.N_COEFF + 1):
        got = rows(n)
        assert got.shape == (n,) + full.shape[1:]
        assert got.tobytes() == full[:n].tobytes(), n


def test_constant_subtrees_fold_like_constant_jets():
    # a folded constant rounds as a jet of constants does: a/b as a*(1/b)
    # and c^3 by the squaring ladder c*(c*c), not as Python's a/b or c**3
    third = 1.0 * (1.0 / 3.0)
    assert expr.eval_jet(expr.parse("3/5 + x"), 0.0, {}, 1).value == 3.0 * (1.0 / 5.0) != 3 / 5
    assert expr.eval_jet(expr.parse("(1/3)^3 + x"), 0.0, {}, 1).value == third * (third * third) != third**3
    # the whole expression constant: a constant jet of the asked length
    assert expr.eval_jet(expr.parse("eps0 * 2"), 0.5, P, 3).coeffs == (2.0, 0.0, 0.0)


def test_constant_domain_error_names_the_point():
    from qesforge.errors import DomainEvaluationError

    e = expr.parse("x + 1/(eps0 - 1)")
    for x0 in (0.25, 0.75):
        with pytest.raises(DomainEvaluationError) as exc_info:
            expr.eval_jet(e, x0, P)
        assert exc_info.value.x0 == x0


def test_compiled_once_per_parameter_values():
    e = expr.parse(RAZAVY_U)
    first = expr.eval_jet(e, 0.3, P)
    expr.eval_jet(e, 0.4, P)
    assert len(e.compiled) == 1
    other = expr.eval_jet(e, 0.3, {"eps0": 2.0, "eps1": 0.5})
    assert len(e.compiled) == 2
    assert other.value == 2.0 * first.value
