"""Scalars of Q[TAU, TAU^-1]: polynomials in zero variables."""

from fractions import Fraction

import pytest

from polarcalc.polynomials import TAU_SYM, Polynomial, RationalFunction, ScalarError


def scalar(value, tau_exp=0):
    return Polynomial.scalar(value, tau_exp)


def test_rational_arithmetic_is_exact():
    a = scalar(Fraction(1, 3))
    b = scalar(Fraction(1, 6))
    assert a + b == scalar(Fraction(1, 2))
    assert a - a == scalar(0)
    assert a * scalar(3) == scalar(1)


def test_tau_grading():
    t = scalar(1, 1)
    assert t * t == scalar(1, 2)
    assert (t * scalar(2)) / t == scalar(2)
    mixed = scalar(3) + t
    assert mixed.to_sympy() == 3 + TAU_SYM
    assert mixed - t == scalar(3)


def test_division_and_powers():
    t = scalar(1, 1)
    assert t / t == scalar(1)
    assert t**2 == scalar(1, 2)
    assert scalar(1) / scalar(Fraction(2, 5)) == scalar(Fraction(5, 2))
    assert scalar(Fraction(3, 2), 1) / scalar(-3, 2) == scalar(Fraction(-1, 2), -1)


def test_non_monomial_division_fails():
    mixed = scalar(1) + scalar(1, 1)
    with pytest.raises(ScalarError, match=r"got 1 \+ TAU$"):
        scalar(1) / mixed


def test_rational_value_guards():
    with pytest.raises(ScalarError, match="nonzero TAU grade: TAU$"):
        scalar(1, 1).rational_value()
    assert scalar(Fraction(-7, 2)).rational_value() == Fraction(-7, 2)
    assert scalar(0).rational_value() == 0


def test_zero_division_refused():
    with pytest.raises(ScalarError, match="division by zero scalar"):
        scalar(1) / scalar(0)


# The text of each scalar as the engine has always printed it: chain
# coefficients, chain keys and refusal messages depend on it.
PRINTED = [
    (scalar(0), "0"),
    (scalar(Fraction(-7, 2)), "-7/2"),
    (scalar(1, 1), "TAU"),
    (scalar(-1, -1), "-1*TAU^-1"),
    (scalar(2, 3), "2*TAU^3"),
    (scalar(3) - scalar(2, 1) + scalar(1, 2), "3 - 2*TAU + TAU^2"),
]


@pytest.mark.parametrize("value, text", PRINTED, ids=[t for _, t in PRINTED])
def test_scalar_text_is_pinned(value, text):
    assert str(value) == text
    coords = ("x", "y")
    x = Polynomial.variable(coords, "x")
    # a scalar equals, and hashes as, the value of a polynomial at a point
    p = x + Polynomial.constant(coords, value)
    got = p.evaluate({"x": Fraction(0), "y": Fraction(5)})
    assert got == value and hash(got) == hash(value)
    q = Polynomial.constant(coords, value) * x * x
    got = q.evaluate({"x": Fraction(1), "y": Fraction(0)})
    assert got == value and hash(got) == hash(value)


def test_tau_sum_coefficient_keeps_its_parentheses():
    coords = ("x", "y")
    x, y = (Polynomial.variable(coords, v) for v in coords)
    tau_sum = scalar(1) + scalar(1, 1)
    assert str(x + y.scale(tau_sum)) == "x + (1 + TAU)*y"
    assert str(Polynomial.constant(coords, tau_sum)) == "(1 + TAU)"
    # the value of a point form is printed as a coefficient
    assert str(RationalFunction.constant((), tau_sum)) == "(1 + TAU)"
