"""Residue extraction against independently derived values.

The expected numbers are frozen from hand partial-fraction decompositions:
  1/(z(z-1)(z-2)) = (1/2)/z - 1/(z-1) + (1/2)/(z-2)
and from the classical minus-one residue at infinity of dz/z.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given
from hypothesis import strategies as st
from sympy.polys.rings import PolyElement
from test_polynomials import (
    _spy,
    assert_canonical_cancel,
    differential,
    polys,
    tau_monomials,
)

from polarcalc import residue
from polarcalc.forms import DifferentialForm
from polarcalc.geometry import (
    INF,
    DivisorComponent,
    VarietyPoint,
    plane_curve,
    point_component,
    product_of_lines,
    proj_line,
    proj_plane,
)
from polarcalc.parsing import parse_form, parse_polynomial, parse_rational
from polarcalc.polynomials import Polynomial, RationalFunction, poly_divides
from polarcalc.residue import (
    ResidueError,
    iterated_residue,
    poincare_residue,
    total_residue_p1,
)


def line_z():
    return proj_line("z")


def comp_at(line, value):
    return point_component(line, VarietyPoint.product_point([value]))


def test_residue_of_dlog_at_origin():
    line = line_z()
    omega = parse_form("dlog(z)", ("z",), line.main_chart.id)
    res = poincare_residue(omega, comp_at(line, 0), line)
    assert res.value == Polynomial.scalar(1)


def test_partial_fraction_residues():
    line = line_z()
    omega = parse_form("d(z)/(z*(z-1)*(z-2))", ("z",), line.main_chart.id)
    expected = {
        Fraction(0): Polynomial.scalar(Fraction(1, 2)),
        Fraction(1): Polynomial.scalar(-1),
        Fraction(2): Polynomial.scalar(Fraction(1, 2)),
    }
    for value, want in expected.items():
        res = poincare_residue(omega, comp_at(line, value), line)
        assert res.value == want


def test_residue_at_infinity():
    line = line_z()
    omega = parse_form("dlog(z)", ("z",), line.main_chart.id)
    res = poincare_residue(
        omega, point_component(line, VarietyPoint.product_point([INF])), line
    )
    assert res.value == Polynomial.scalar(-1)


def test_second_order_pole_rejected():
    line = line_z()
    omega = parse_form("d(z)/z^2", ("z",), line.main_chart.id)
    with pytest.raises(ResidueError):
        poincare_residue(omega, comp_at(line, 0), line)


def test_total_residue_vanishes():
    line = line_z()
    omega = parse_form(
        "(z^2 + 3) * d(z) / ((z-1)*(z+1)*(z-2))", ("z",), line.main_chart.id
    )
    total, breakdown = total_residue_p1(omega, line)
    assert total.is_zero()
    # three finite poles plus the pole at infinity (deg num = deg den - 1)
    assert len(breakdown) == 4


def test_irrational_pole_rejected():
    line = line_z()
    omega = parse_form("d(z)/(z^2 - 2)", ("z",), line.main_chart.id)
    with pytest.raises(ResidueError):
        total_residue_p1(omega, line)


def test_residue_on_product_is_a_form():
    prod = product_of_lines(["z1", "z2"])
    coords = prod.main_chart.coords
    omega = parse_form(
        "dlog(z1) wedge dlog(z2)", coords, prod.main_chart.id
    )
    comp = DivisorComponent.from_chart_poly(
        prod, prod.main_chart.id, parse_polynomial("z1", coords)
    )
    res = poincare_residue(omega, comp, prod)
    assert res.kind == "line"
    expected = parse_form("dlog(z2)", ("z2",), res.form.chart)
    assert res.form == expected


def test_iterated_residue_anticommutes():
    prod = product_of_lines(["z1", "z2"])
    coords = prod.main_chart.coords
    omega = parse_form(
        "(z1 + 2*z2 + 3) * d(z1) wedge d(z2) / (z1 * z2)",
        coords, prod.main_chart.id,
    )
    c1 = DivisorComponent.from_chart_poly(
        prod, prod.main_chart.id, parse_polynomial("z1", coords)
    )
    c2 = DivisorComponent.from_chart_poly(
        prod, prod.main_chart.id, parse_polynomial("z2", coords)
    )
    fwd = iterated_residue(omega, c1, c2, prod)
    bwd = iterated_residue(omega, c2, c1, prod)
    # numerator at the origin is 3, so the residues are +3 and -3
    assert fwd.value == Polynomial.scalar(3)
    assert bwd.value == Polynomial.scalar(-3)


def test_direction_independence():
    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    p = parse_polynomial("x + y - 1", coords)
    comp = DivisorComponent.from_chart_poly(plane, "A0", p)
    omega = parse_form(
        "d(x) wedge d(y) / (x + y - 1)", coords, "A0"
    )
    res_x = poincare_residue(omega, comp, plane, direction="x")
    res_y = poincare_residue(omega, comp, plane, direction="y")
    assert res_x.form == res_y.form


def test_elliptic_curve_residue():
    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    p = parse_polynomial("y^2 - x^3 - 2*x - 3", coords)
    comp = DivisorComponent.from_chart_poly(plane, "A0", p)
    omega = parse_form(
        "d(x) wedge d(y) / (y^2 - x^3 - 2*x - 3)", coords, "A0"
    )
    res = poincare_residue(omega, comp, plane)
    assert res.kind == "curve"
    # -dx/(2y) in the curve ring: y-numerator over y^2 = x^3 + 2x + 3
    g = parse_polynomial("x^3 + 2*x + 3", coords)
    num = Polynomial.variable(coords, "y").scale(Polynomial.scalar(Fraction(-1, 2)))
    expected = RationalFunction(num, g)
    assert res.form.components[(0,)] == expected


# ---------------------------------------------------------------------------
# p * omega by exact division, against sympy.cancel
# ---------------------------------------------------------------------------

PLANE = ("x", "y")
POLES = {  # a coordinate, lines, conics; each also times a TAU-monomial
    "coordinate": "y",
    "line": "x + 2*y - 1",
    "conic": "x^2 + y^2 - 1",
    "parabola": "y - x^2 + 3",
}


@st.composite
def simple_pole_forms(draw):
    """(shape, p, form, direction): a 1- or 2-form on PLANE whose first
    coefficient has a simple pole along p; the second coefficient of a
    1-form has one or none."""
    shape = draw(st.sampled_from(sorted(POLES)))
    p = parse_polynomial(POLES[shape], PLANE)
    if draw(st.booleans()):
        p = p.scale(draw(tau_monomials))
        shape += " times a TAU-monomial"
    nums = polys(PLANE, min_terms=1).filter(lambda a: not a.is_zero())
    dens = polys(PLANE, tau_monomials, min_terms=1)
    first = RationalFunction(draw(nums), p * draw(dens))
    if draw(st.booleans()):
        form = DifferentialForm("A0", PLANE, 2, {(0, 1): first})
    else:
        second = RationalFunction(draw(nums), draw(dens) * p ** draw(st.integers(0, 1)))
        form = DifferentialForm("A0", PLANE, 1, {(0,): first, (1,): second})
    assume(form.pole_order(p) == -1)
    direction = draw(st.sampled_from([None] + [v for v in PLANE if p.depends_on(v)]))
    return shape, p, form, direction


reached_contraction_cases = set()
contraction_gcd_calls = []


@differential
@given(simple_pole_forms())
def _contracted_matches_cancel(case):
    shape, p, form, direction = case
    rho = residue._contracted(form, p, PLANE, direction)
    P = p.to_sympy()
    j = direction or next(v for v in PLANE if p.depends_on(v))
    dP = sp.diff(P, sp.Symbol(j))
    expected = {}
    for idx, c in form.components.items():
        exact = poly_divides(p, c.den)
        calls = len(contraction_gcd_calls)
        times_p = c.times_poly(p)
        if exact:  # one division, no general gcd
            assert len(contraction_gcd_calls) == calls
        assert times_p == c * RationalFunction.from_poly(p)
        reached_contraction_cases.add("exact division" if exact else "product")
        i = PLANE.index(j)
        if i in idx:
            times_p = sp.cancel(c.num.to_sympy() / c.den.to_sympy() * P)
            sign = -1 if idx.index(i) % 2 else 1
            expected[tuple(k for k in idx if k != i)] = sign * times_p / dP
    assert set(rho.components) == set(expected)
    for idx, expr in expected.items():
        assert_canonical_cancel(rho.components[idx], expr, PLANE)
    reached_contraction_cases.add(shape)
    reached_contraction_cases.add("constant d_j p" if dP.is_constant() else "nonconstant d_j p")


def test_contracted_matches_cancel(monkeypatch):
    """The contraction of p * omega with (1/d_j p) d_j equals sympy's
    cancelled product and quotient, through both branches of `times_poly`."""
    reached_contraction_cases.clear()
    monkeypatch.setattr(PolyElement, "cofactors", _spy(contraction_gcd_calls, PolyElement.cofactors))
    _contracted_matches_cancel()
    shapes = {s + t for s in POLES for t in ("", " times a TAU-monomial")}
    assert reached_contraction_cases == shapes | {
        "exact division", "product", "constant d_j p", "nonconstant d_j p",
    }
