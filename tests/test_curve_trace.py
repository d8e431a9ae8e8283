"""Curve-ring reduction and the P1 trace against sympy-expression oracles."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.polyerrors import NotInvertible

from polarcalc.chains import pushforward_form
from polarcalc.forms import DifferentialForm
from polarcalc.geometry import curve_reduce, plane_curve, proj_line
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_polynomial, parse_rational
from polarcalc.polynomials import (
    TAU_SYM,
    Polynomial,
    PolynomialError,
    RationalFunction,
    from_univariate,
    to_univariate,
)

COORDS = ("x", "y")
X, Y = sp.symbols("x y")
QX = sp.QQ.frac_field(X, TAU_SYM)
CURVES = (
    "y^2 - x^3 - x - 1",
    "y^2 - x^3 + x",
    "2*y^2 - x^3 - 1",
    "x^3 + y^3 - 1",
    "y^3 - x^3 - x*y - 1",
    "x*y^2 + y - x^3 - 1",
)

def laurent(coeffs):
    """The scalar sum of c * TAU^k over {k: c}."""
    return sum((Polynomial.scalar(c, k) for k, c in coeffs.items()), Polynomial.scalar(0))


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero = fractions.filter(bool)
tau_monomials = st.builds(
    Polynomial.scalar,
    st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)),
    st.integers(-2, 2),
)
scalars = st.one_of(
    tau_monomials,
    st.dictionaries(st.integers(-2, 2), fractions, max_size=2).map(laurent),
)


def polys(variables, coeffs=scalars, min_terms=0, max_degree=3):
    exps = st.tuples(*[st.integers(0, max_degree)] * len(variables))
    return st.dictionaries(exps, coeffs, min_size=min_terms, max_size=3).map(
        lambda terms: Polynomial(variables, terms)
    )


def expr(rf: RationalFunction):
    return rf.num.to_sympy() / rf.den.to_sympy()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.sampled_from(CURVES),
    polys(COORDS),
    polys(COORDS, tau_monomials, min_terms=1),
)
def test_curve_reduce_matches_expressions(spec, num, den):
    curve = plane_curve(parse_polynomial(spec, COORDS))
    p = curve.curve_polys["A0"]
    rf = RationalFunction(num, den)
    P = p.to_sympy()
    try:
        inverse = sp.invert(rf.den.to_sympy(), P, Y, domain=QX)
    except NotInvertible:
        with pytest.raises(ZeroDivisionError):
            curve_reduce(rf, curve)
        return
    expected = sp.rem(sp.rem(rf.num.to_sympy(), P, Y, domain=QX) * inverse, P, Y, domain=QX)
    reduced = curve_reduce(rf, curve)
    assert reduced.degree() < p.degree_in("y")
    assert sp.cancel(reduced.as_expr() - expected) == 0


@st.composite
def line_maps(draw):
    """A map formula in s of degree 1-3: a leading s^d plus lower terms, over a denominator."""
    degree = draw(st.integers(1, 3))
    lower = draw(polys(("s",), fractions, max_degree=degree - 1))
    num = Polynomial(("s",), {(degree,): draw(nonzero)}) + lower
    den = draw(polys(("s",), fractions, min_terms=1, max_degree=degree))
    assume(not den.is_zero())
    return num, den


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.sampled_from(["z", "t"]),
    line_maps(),
    polys(("s",), nonzero, min_terms=1, max_degree=2),
    polys(("s",), nonzero, min_terms=1, max_degree=2),
    st.integers(-2, 2),
)
def test_pushforward_matches_root_sum(src, map_formula, an, ad, k):
    """P1(src) -> P1(z) of degree 1-3; src = z puts one name on both sides."""
    coords = (src,)
    r = RationalFunction(*(p.rename(coords) for p in map_formula))
    a = RationalFunction(an.rename(coords), ad.rename(coords)).scale(Polynomial.scalar(1, k))
    assume(not r.is_constant())
    source, image = proj_line(src), proj_line("z")
    map_ = VarietyMap(source, image, image.main_chart.id, {"z": r})
    form = DifferentialForm(source.main_chart.id, coords, 1, {(0,): a})
    got = pushforward_form(map_, form, VarietyMap.identity(image), "z")
    assert got.chart == image.main_chart.id and got.coords == ("z",)

    t, w, s = sp.Dummy("t"), sp.Symbol("z"), sp.Symbol(src)
    R, A = expr(r).subs(s, t), (an.to_sympy() / ad.to_sympy()).subs(sp.Symbol("s"), t)
    fiber = sp.Poly(r.num.to_sympy().subs(s, t) - w * r.den.to_sympy().subs(s, t), t)
    trace = sp.cancel(sp.RootSum(fiber, sp.Lambda(t, A / sp.diff(R, t))))
    zero = RationalFunction.constant(("z",), 0)
    assert sp.cancel(expr(got.components.get((0,), zero)) - TAU_SYM**k * trace) == 0


def test_trace_along_a_map_with_tau():
    """z -> z^2 + TAU z carries TAU/(z - 1) dz to TAU/(z - 1 - TAU) dz.

    Reducing modulo the fiber over Q(z) no longer meets a TAU-sum leading
    coefficient on the way; only the result must be a canonical fraction.
    """
    line = proj_line("z")
    r = parse_rational("z^2 + TAU*z", ("z",))
    a = parse_rational("TAU/(z - 1)", ("z",))
    map_ = VarietyMap(line, line, line.main_chart.id, {"z": r})
    form = DifferentialForm(line.main_chart.id, ("z",), 1, {(0,): a})
    got = pushforward_form(map_, form, VarietyMap.identity(line), "z")
    assert str(got) == "TAU/(z + (-1 - 1*TAU)) dz"


def test_curve_reduce_of_tau_sum_denominator():
    """1/(x + (1+TAU) y) on y^2 = x^3 + x + 1 reduces in the field.

    Its inverse (x - (1+TAU) y)/(x^2 - (1+TAU)^2 (x^3 + x + 1)) has a
    denominator whose leading coefficient is a TAU-sum, so the conversion
    back to a canonical fraction refuses.
    """
    curve = plane_curve(parse_polynomial("y^2 - x^3 - x - 1", COORDS))
    x, y = (Polynomial.variable(COORDS, v) for v in COORDS)
    line = x + y.scale(laurent({0: 1, 1: 1}))
    one = Polynomial.constant(COORDS, 1)
    reduced = curve_reduce(RationalFunction(one, line), curve)
    assert reduced.degree() == 1
    modulus = to_univariate(RationalFunction.from_poly(curve.curve_polys["A0"]), "y")
    assert (reduced * to_univariate(RationalFunction.from_poly(line), "y")).rem(modulus) == 1
    with pytest.raises(PolynomialError) as excinfo:
        from_univariate(reduced, COORDS)
    assert str(excinfo.value) == (
        "cannot normalize: denominator leading coefficient 1 + 2*TAU + TAU^2 is a TAU-sum"
    )


def test_univariate_round_trip():
    coords = ("x", "y")
    rf = RationalFunction(
        parse_polynomial("TAU*x*y^2 - y/TAU + 3", coords),
        parse_polynomial("x^2 + 2*x/TAU", coords),
    )
    f = to_univariate(rf, "y")
    assert f.degree() == 2
    assert from_univariate(f, coords) == rf
    with pytest.raises(PolynomialError):
        to_univariate(rf, "x")
