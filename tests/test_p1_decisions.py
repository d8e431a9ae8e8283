"""The P1 decisions of `residue.P1Form` against the general paths.

Each decision is exact or a sufficient test; its oracle is the path it
saves: the chart-by-chart pole checks, a component's valuation on its
first chart, the residue through `_contracted`, and normal-crossing
validation.  The refusals the decisions hand on keep their text.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarcalc import chains
from polarcalc.chains import (
    ChainError,
    PolarChain,
    _has_pole,
    boundary,
    make_triple,
)
from polarcalc.forms import DifferentialForm
from polarcalc.geometry import (
    INF,
    DivisorComponent,
    VarietyPoint,
    point_component,
    proj_line,
    validate_normal_crossing,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial
from polarcalc.polynomials import Polynomial, RationalFunction, ScalarError
from polarcalc.residue import P1Form, _contracted, p1_pole_points, p1_points, poincare_residue
from polarcalc.session import Session, run_statement
from test_pole_checks import check_poles_on_charts

SOURCE = proj_line("t")
MAIN, INFINITY = SOURCE.charts
T = Polynomial.variable(MAIN.coords, "t")
TAU = Polynomial.scalar(1, 1)
ROOTS = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
POINTS = (INF,) + ROOTS + (Fraction(3),)
UNITS = (-2, -1, 1, 2, TAU, -TAU, Polynomial.scalar(3, -1))  # TAU-monomials
EXTRA_FACTORS = ("t^2 + 1", "t^2 - 2", "t - TAU")


def point(value):
    return point_component(SOURCE, VarietyPoint.product_point([value]))


def component(text):
    """A component of P1(t) from the Python API: a polynomial in t, or one
    in t_ on the infinity chart after "inf:"."""
    if text.startswith("inf:"):
        return DivisorComponent.from_chart_poly(
            SOURCE, INFINITY.id, parse_polynomial(text[4:], INFINITY.coords))
    return DivisorComponent.from_chart_poly(SOURCE, MAIN.id, parse_polynomial(text, MAIN.coords))


def form_of(num, den):
    return DifferentialForm(MAIN.id, MAIN.coords, 1, {(0,): RationalFunction(num, den)})


@st.composite
def numerators(draw, top):
    """Integer and TAU coefficients, degree at most top."""
    coefficients = draw(st.lists(st.sampled_from(UNITS + (TAU + Polynomial.scalar(1), 0)),
                                 min_size=1, max_size=top + 1))
    return sum(((T**k).scale(c) for k, c in enumerate(coefficients)), Polynomial.zero(MAIN.coords))


@st.composite
def denominators(draw):
    """(den, its rational roots): a TAU-monomial times rational roots of
    multiplicity 1 or 2 and sometimes an irreducible or TAU-dependent
    factor, degree at most 4."""
    den = Polynomial.constant(MAIN.coords, draw(st.sampled_from(UNITS)))
    extra = draw(st.sampled_from((None, None, None) + EXTRA_FACTORS))
    if extra is not None:
        den = den * parse_polynomial(extra, MAIN.coords)
    roots = []
    for r, m in draw(st.lists(st.tuples(st.sampled_from(ROOTS), st.sampled_from((1, 1, 1, 2))),
                              min_size=1, max_size=4, unique_by=lambda rm: rm[0])):
        if den.degree_in("t") + m <= 4:
            den = den * (T - Polynomial.constant(MAIN.coords, r)) ** m
            roots.append(r)
    return den, roots


@st.composite
def declared_points(draw, roots):
    """Distinct points of P1, ∞ among them: mostly the roots of den, one
    sometimes left out, and others added."""
    points = draw(st.lists(st.sampled_from(POINTS), max_size=3, unique=True))
    if not draw(st.booleans()):
        left = draw(st.lists(st.sampled_from(roots), max_size=1)) if roots else []
        points = [r for r in roots if r not in left] + [v for v in points if v not in roots]
        if INF not in points and not draw(st.booleans()):
            points.append(INF)
    return points


def general_pole(form, comp):
    """pole_order < 0 on the component's first chart, and that chart's form."""
    chart = comp.first_visible_chart()
    local = SOURCE.transition_form(form, chart.id)
    return local.pole_order(comp.poly_on(chart.id)) < 0, local, chart


@st.composite
def p1_forms(draw):
    """(num, den, declared points) of a random form f dt on P1(t)."""
    den, roots = draw(denominators())
    top = den.degree_in("t") + draw(st.sampled_from((-1, -2, 1)))
    return draw(numerators(max(top, 0))), den, draw(declared_points(roots))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p1_forms())
@example((T, T * T - Polynomial.constant(MAIN.coords, 1), [Fraction(1), Fraction(-1), INF]))
@example((Polynomial.zero(MAIN.coords), Polynomial.constant(MAIN.coords, 1), [INF]))
def test_p1_decisions_agree_with_the_general_paths(case):
    num, den, declared = case
    form = form_of(num, den)
    p1 = P1Form.on(form, SOURCE)
    if p1.poles_simple_and_declared(declared):
        check_poles_on_charts(SOURCE, form, [point(v) for v in declared])
    for v in POINTS:
        comp = point(v)
        pole, local, chart = general_pole(form, comp)
        assert p1.has_pole(v) == pole == _has_pole(form, SOURCE, comp), v
        value = p1.residue(v)
        if value is None:
            continue
        if pole:
            p = comp.poly_on(chart.id)
            expected = _contracted(local, p, chart.coords, None).coefficient(()).evaluate(
                {chart.coords[0]: 0 if v == INF else v})
        else:  # also where den(v) is a TAU-sum, which no path divides by
            expected = Polynomial.zero(())
        assert value == expected, v
        assert poincare_residue(form, comp, SOURCE).value == expected, v
        # the general path, which a given direction takes
        assert poincare_residue(form, comp, SOURCE, chart.coords[0]).value == expected, v


POINT_TEXTS = ("t", "t - 1", "2*t - 1", "3*t + 6", "inf", "inf:t_")
OTHER_TEXTS = ("inf:t_^2", "t^2 - 2", "t^2 + 1", "t - TAU", "TAU*t - 1")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.lists(st.sampled_from(POINT_TEXTS), max_size=4, unique=True),
                 st.lists(st.sampled_from(POINT_TEXTS + OTHER_TEXTS), max_size=4)))
def test_distinct_points_are_normal_crossing(texts):
    comps = [point(INF) if x == "inf" else component(x) for x in texts]
    points = p1_points(comps)
    if points is None:
        return
    assert validate_normal_crossing(comps, SOURCE).ok
    assert [point(v) for v in points] == comps


# the refusals the P1 decisions hand to the general path, with their text
@pytest.mark.parametrize("form, poles, text", [
    ("d(t)/t^2", ["t"], "pole of order 2 along t on chart t (only simple poles allowed)"),
    ("dlog(t - 1)", ["inf"], "undeclared pole components t - 1 on chart t"),
    ("d(t)", ["inf"], "pole of order 2 along t_ on chart t_ (only simple poles allowed)"),
    ("d(t)/t", ["t"], "undeclared pole components t_ on chart t_"),
    ("d(t)/(t - TAU)", ["t", "inf"], "undeclared pole components t - 1*TAU on chart t"),
    ("dlog(t)", ["t", "t", "inf"], "declared poles violate normal crossing: normal crossing: "
     "rejected\n  components share a factor on chart t: {t}, {t} (witness t)"),
    ("dlog(t)", ["t", "inf:t_^2"], "declared poles violate normal crossing: normal crossing: "
     "rejected\n  component not squarefree on chart t_: {t_^2} (witness t_^2)"),
])
def test_p1_refusals_keep_their_text(form, poles, text):
    omega = parse_form(form, MAIN.coords, MAIN.id)
    comps = [point(INF) if p == "inf" else component(p) for p in poles]
    with pytest.raises(ChainError) as err:
        make_triple(SOURCE, VarietyMap.identity(SOURCE), omega, comps)
    assert str(err.value) == text


def test_a_declared_tau_root_is_refused_at_its_residue():
    omega = parse_form("d(t)/(t - TAU)", MAIN.coords, MAIN.id)
    t = make_triple(SOURCE, VarietyMap.identity(SOURCE), omega,
                    [component("t - TAU"), point(INF)])
    with pytest.raises(ScalarError) as err:
        boundary(PolarChain(SOURCE, [t]))
    assert str(err.value) == "scalar has nonzero TAU grade: -1*TAU"


def test_a_residue_off_the_poles_is_zero_at_a_tau_sum_denominator():
    """t = 1 is no pole of d(t)/(t - TAU): the residue there is 0, although
    den(1) = 1 - TAU is no TAU-monomial, which Q[TAU, TAU^-1] cannot divide
    by.  Both the P1 decision and the general path, which a given
    direction takes, answer 0."""
    session = Session()
    for stmt in ("let A = P1(t)",
                 "let c = chain(A, id, d(t)/(t - TAU), poles[t - TAU, inf])"):
        run_statement(session, stmt)
    report = run_statement(session, "residue c, t - 1")
    assert (report["status"], report["result"]) == ("ok", "0")
    omega = parse_form("d(t)/(t - TAU)", MAIN.coords, MAIN.id)
    assert poincare_residue(omega, point(1), SOURCE, "t").value.is_zero()


def test_p1_terms_need_no_validation_and_no_infinity_chart(monkeypatch):
    """A P1 term with distinct rational poles is made, pruned, and has its
    boundary taken without a normal-crossing check or a transition of its
    form to the infinity chart."""
    checks = []
    monkeypatch.setattr(chains, "validate_normal_crossing",
                        lambda *args: checks.append(args) or validate_normal_crossing(*args))
    omega = parse_form("dlog(t/(t-1)) + 2*dlog(t + 1)", MAIN.coords, MAIN.id)
    t = make_triple(SOURCE, VarietyMap.identity(SOURCE), omega,
                    [point(v) for v in (0, 1, -1, INF, 3)])
    assert [c.label for c in chains.prune_declared(t.form, SOURCE, t.declared_poles)] == [
        "{t}", "{t - 1}", "{t + 1}", "{t_}"]
    assert [str(p) for p in p1_pole_points(t.form, SOURCE)] == ["(-1)", "(0)", "(1)", "(inf)"]
    assert boundary(PolarChain(SOURCE, [t])).chain.render() == (
        "(Point, t = -1, 2*TAU) + (Point, t = 0, TAU) + (Point, t = 1, -1*TAU)"
        " + (Point, t_ = 0, -2*TAU)")
    assert checks == []
    assert not any(key[0] == "transition" for key in t.form._memo)
