"""The normal form kept without rescans, and the kernel's fast paths.

A Polynomial is TAU^shift * content * prim: prim is primitive in
ZZ[variables, TAU], with a positive lex-leading coefficient and lowest TAU
power 0, and content is a nonzero Fraction (0 with shift 0 for the zero
polynomial).  `Polynomial._same` trusts that an operation keeps this form;
`_normal` rescans.  The property below checks every operation that takes
`_same` against `_normal` of its result, and pinned cases show operations
that need the rescan.  The fast predicates and constructors are checked
against their former definitions, kept here as oracles and read through
the QQ view `content * prim` where they read a QQ element.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from polarcalc import polynomials
from polarcalc.geometry import plane_curve, point_variety, product_of_lines, proj_line, proj_plane
from polarcalc.polynomials import (
    Polynomial,
    PolynomialError,
    RationalFunction,
    grlex_key,
    poly_div_exact,
)

VARIABLE_SETS = ((), ("x",), ("x", "y"))


def is_normal(p):
    """p's stored form is canonical, and `_normal` of it changes nothing."""
    prim = p.prim
    if prim.ring != polynomials._zring(p.variables) or type(p.content) is not Fraction:
        return False
    if not prim:
        return p.shift == 0 and p.content == 0
    form = (
        p.content != 0
        and math.gcd(*prim.values()) == 1
        and prim[max(prim)] > 0  # the lex-leading coefficient
        and min(m[-1] for m in prim) == 0
    )
    again = polynomials._normal(p.variables, prim, p.content, p.shift)
    return form and again == p and again.shift == p.shift


def laurent(coeffs):
    """The scalar sum of c * TAU^k over {k: c}."""
    return sum((Polynomial.scalar(c, k) for k, c in coeffs.items()), Polynomial.scalar(0))


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3))
scalars = st.dictionaries(st.integers(-2, 2), fractions, max_size=2).map(laurent)


def polys(variables, min_terms=0):
    exps = st.tuples(*[st.integers(0, 2)] * len(variables))
    return st.dictionaries(exps, scalars, min_size=min_terms, max_size=3).map(
        lambda terms: Polynomial(variables, terms)
    )


@st.composite
def cases(draw):
    """(variables, a, b, a TAU-monomial m, a line L or None)."""
    variables = draw(st.sampled_from(VARIABLE_SETS))
    a, b = draw(polys(variables)), draw(polys(variables))
    m = Polynomial.constant(variables, Polynomial.scalar(draw(nonzero), draw(st.integers(-2, 2))))
    line = None
    if variables:
        v = Polynomial.variable(variables, draw(st.sampled_from(variables)))
        tau = Polynomial.scalar(draw(nonzero), draw(st.integers(0, 1)))
        line = v + Polynomial.constant(variables, tau)
    return variables, a, b, m, line


def same_sites(variables, a, b, m, line):
    """Every result the kernel builds with `_same` from these operands."""
    out = [
        a * b, -a, a / m, a ** 0, a ** 1, a ** 3, a.scale(m.constant_value()),
        Polynomial.constant(variables, m.constant_value()),
        Polynomial.constant(variables, Fraction(-2, 3)), Polynomial.constant(variables, 0),
        Polynomial.scalar(Fraction(5, 2), -3), Polynomial.scalar(0, 2),
        polynomials._one(variables),
        a.rename(tuple(v.upper() for v in variables)),
        a.lift(variables + ("w",)), a.lift(("w",) + variables[::-1]),
    ]
    out += [Polynomial.variable(variables, v) for v in variables]
    out += [polynomials._zero(variables), Polynomial.zero(variables)]
    if variables:
        x = Polynomial.variable(variables, variables[0])
        if not (a * x + m).is_zero():
            out.append(polynomials.poly_valuation(a * x * x + x * m, x)[1])  # one-term p
    if not b.is_zero():
        out.append(poly_div_exact(a * b, b))
        out += polynomials._cofactors(a, b)
        out += polynomials._cofactors(a, m)  # one-term operand
    for p in (a, b):
        try:
            out.append(polynomials._canonical_assoc(p))
        except PolynomialError:  # a TAU-sum lead
            pass
    if not b.is_zero() and len(polynomials._lead(b.prim)[1]) == 1:
        out += polynomials._lead_one(a, b)
    if line is not None:
        out += polynomials._cofactors(a * line, line)  # line operand
        out += polynomials._cofactors(line, b)
        rf = RationalFunction(a, line * line).times_poly(line)  # exact quotient
        out += [rf.num, rf.den]
        if not a.is_zero():
            out.append(polynomials.poly_valuation(a * line * line, line)[1])
        # substitution numerators and denominators, on the general and on
        # the one-term path
        general = RationalFunction(line, line + Polynomial.constant(variables, 1))
        x = Polynomial.variable(variables, variables[0])
        one_term = RationalFunction(m * x, x * x)
        for image in (general, one_term):
            mapping = {v: image for v in variables}
            nums, _ = polynomials._substituted((a, b), mapping, variables)
            out += nums + [a.substitute(mapping, variables).den]
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_same_sites_keep_the_normal_form(case):
    for p in same_sites(*case):
        assert is_normal(p), p


def test_sums_derivatives_and_specializations_are_rescanned():
    xy = ("x", "y")
    x, y = (Polynomial.variable(xy, v) for v in xy)
    tau = Polynomial.constant(xy, Polynomial.scalar(1, 1))
    assert (x + tau) - x == tau and is_normal((x + tau) - x)
    assert (x + tau * y).differentiate("y") == tau
    assert is_normal((x + tau * y).differentiate("y"))
    x = Polynomial.variable(("x",), "x")
    p = (x + Polynomial.constant(("x",), Polynomial.scalar(1, 1))).specialize({"x": 0})
    assert p == Polynomial.scalar(1, 1) and is_normal(p)


def test_contents_and_signs_are_rescanned():
    """Sums, specializations and reorderings move an integer content or
    flip the lex-leading sign."""
    xy = ("x", "y")
    x, y = (Polynomial.variable(xy, v) for v in xy)
    half = Polynomial.constant(xy, Fraction(1, 2))
    p = (x + y).scale(Polynomial.scalar(6)) - y.scale(Polynomial.scalar(2))
    assert is_normal(p) and p.content == 2 and str(p) == "6*x + 4*y"
    q = (x * half + y * half).specialize({"y": Fraction(1, 3)})
    assert is_normal(q) and q.content == Fraction(1, 6) and str(q) == "1/2*x + 1/6"
    r = (x - y).lift(("y", "x"))
    assert is_normal(r) and r.content == -1 and str(r) == "-y + x"
    assert is_normal(x - x) and (x - x).content == 0


# ---------------------------------------------------------------------------
# fast paths against their former definitions
# ---------------------------------------------------------------------------


def old_is_constant(p):
    return all(d <= 0 for d in polynomials._qq_elem(p).degrees()[:-1])


def old_is_one(p):
    elem = polynomials._qq_elem(p)
    return p.shift == 0 and elem == elem.ring.one


def old_lead(elem):
    top = max(elem, key=lambda m: grlex_key(m[:-1]))[:-1]
    return top, {m[-1]: c for m, c in elem.items() if m[:-1] == top}


def old_qq(q):
    q = Fraction(q)
    return QQ(q.numerator, q.denominator)


def samples():
    """0, 1, TAU, TAU^-1, 1 + TAU, x, TAU*x and x*y - 1 where they exist."""
    out = []
    for variables in VARIABLE_SETS:
        def c(value, k=0):
            return Polynomial.constant(variables, Polynomial.scalar(value, k))

        out += [c(0), c(1), c(1, 1), c(1, -1), c(1) + c(1, 1)]
        if variables:
            x = Polynomial.variable(variables, "x")
            out += [x, c(1, 1) * x]
        if len(variables) == 2:
            out.append(x * Polynomial.variable(variables, "y") - c(1))
    return out


@pytest.mark.parametrize("p", samples(), ids=str)
def test_predicates_and_lead_match_their_former_definitions(p):
    assert p.is_constant() == old_is_constant(p)
    assert p.is_one() == old_is_one(p)
    if not p.is_zero():
        assert polynomials._lead(p.prim) == old_lead(p.prim)


@pytest.mark.parametrize("q", [0, 7, -3, True, False, Fraction(-5, 6), Fraction(4), "3/4"])
def test_qq_matches_its_former_definition(q):
    assert polynomials._qq(q) == old_qq(q)
    assert type(polynomials._qq(q)) is type(old_qq(q))


@pytest.mark.parametrize("variables", VARIABLE_SETS + (("x", "y", "z"),))
def test_one_is_shared(variables):
    assert polynomials._one(variables) is polynomials._one(variables)
    assert polynomials._one(variables) == Polynomial.constant(variables, 1)


@pytest.mark.parametrize("build", [
    point_variety,
    lambda: proj_line("t"),
    lambda: product_of_lines(["t", "z"]),
    lambda: proj_plane("x", "y"),
    lambda: plane_curve(Polynomial(("x", "y"), {(0, 2): -1, (3, 0): 1, (1, 0): 1, (0, 0): 1})),
])
def test_signature_is_the_recomputed_tuple(build):
    v = build()
    extra = tuple(sorted((cid, p) for cid, p in v.curve_polys.items()))
    assert v.signature() == (v.kind, tuple(c.coords for c in v.charts), extra)
