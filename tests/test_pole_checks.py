"""`chains._check_poles` against the chart walk it replaced.

The walk below is the general pole check as it was before the divisors at
infinity were taken by degrees: it transitions the form to every chart
that shows a new component or a new divisor {u = 0}, and checks each
declared component's pole order and the undeclared poles there.  It is
kept here, unchanged, as the oracle of the degree counts.
"""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarcalc.chains import ChainError, _check_poles, _has_pole, make_triple
from polarcalc.forms import DifferentialForm, polar_profile
from polarcalc.geometry import (
    DivisorComponent,
    catalog_build,
    infinity_component,
    validate_normal_crossing,
)
from polarcalc.maps import VarietyMap
from polarcalc.parsing import parse_form, parse_polynomial
from polarcalc.polynomials import Polynomial, PolynomialError, RationalFunction
from polarcalc.residue import order_at_infinity


def check_poles_on_charts(source, form, declared_poles):
    """The general pole checks, chart by chart: each declared component's
    pole order on its first visible chart, then the undeclared poles that
    the chart shows first.  The first failing chart is reported."""
    for chart in source.charts:
        firsts = [c for c in declared_poles if c.first_visible_chart().id == chart.id]
        locus = source.new_locus(chart.id)
        if not firsts and len(locus) > 1:
            continue  # no new component and no new divisor
        local = source.transition_form(form, chart.id)
        for comp in firsts:
            p = comp.poly_on(chart.id)
            o = local.pole_order(p)
            if o < -1:
                raise ChainError(
                    "pole of order %d along %s on chart %s (only simple poles allowed)"
                    % (-o, p, chart.id)
                )
        undeclared = _undeclared_poles(local, chart, locus, declared_poles)
        if undeclared is not None:
            raise ChainError(
                "undeclared pole components %s on chart %s" % (undeclared, chart.id)
            )


def _undeclared_poles(local, chart, locus, declared):
    """The undeclared pole components of `local` that `chart` shows first.

    On the main chart, the whole residual denominator.  On a later chart,
    a pole off its new locus lies on an earlier chart, so only the new
    divisor {u = 0} is left, when the new locus is one.  None if there
    are none.
    """
    if len(locus) > 1:
        return None
    polys = [c.poly_on(chart.id) for c in declared if c.visible_on(chart.id)]
    if not locus:
        residual = polar_profile(local, polys)
        return None if residual.is_unit() else residual
    u = Polynomial.variable(chart.coords, locus[0])
    order = local.pole_order(u)
    if order >= 0 or u in polys:
        return None
    return u ** -order


# per source: lines with integer, rational and TAU coefficients, and the
# components at infinity ("inf", "inf(factor)")
SOURCES = {
    "P1(t)": (("t", "t - 1", "2*t + 1", "t - TAU", "t + 2*TAU"), ("inf",)),
    "P1(z1) x P1(z2)": (
        ("z1", "z1 - 1", "z2 - 1/2", "z2 + 2", "z1 + z2 - 3", "z1 - TAU", "z2 + TAU*z1"),
        ("inf(z1)", "inf(z2)"),
    ),
    "P2(x,y)": (("x", "y - 1", "x + y - 2", "x - TAU", "y - TAU*x", "x*y - 1"), ("inf",)),
}
COEFFICIENTS = ("1", "-2", "1/2", "TAU", "1 + TAU", "-3/TAU")
UNITS = ("1", "2", "-1/3", "TAU", "-1/TAU")


def component(source, text):
    if text == "inf":
        return infinity_component(source)
    if text.startswith("inf("):
        return infinity_component(source, text[4:-1])
    main = source.main_chart
    return DivisorComponent.from_chart_poly(source, main.id, parse_polynomial(text, main.coords))


def top_form(source, num, den):
    main = source.main_chart
    index = tuple(range(source.dimension))
    return DifferentialForm(main.id, main.coords, source.dimension,
                            {index: RationalFunction(num, den)})


@st.composite
def checked_forms(draw):
    """(source, form, declared components): declared poles drawn from the
    source's lines and components at infinity; a denominator of the lines,
    mostly declared ones, to the power 1 or 2 times a TAU-monomial; a
    numerator of random terms, 0 among them."""
    name = draw(st.sampled_from(sorted(SOURCES)))
    source = catalog_build(name)
    coords = source.main_chart.coords
    lines, infinities = SOURCES[name]
    declared = draw(st.lists(st.sampled_from(lines), max_size=3, unique=True))
    declared += draw(st.lists(st.sampled_from(infinities), max_size=2, unique=True))
    den = parse_polynomial(draw(st.sampled_from(UNITS)), coords)
    for text in draw(st.lists(st.sampled_from(lines), max_size=3, unique=True)):
        if text in declared or draw(st.integers(0, 3)) == 0:
            den = den * parse_polynomial(text, coords) ** draw(st.sampled_from((1, 1, 2)))
    num = Polynomial.zero(coords)
    for _ in range(draw(st.integers(0, 3))):
        term = parse_polynomial(draw(st.sampled_from(COEFFICIENTS)), coords)
        for v in coords:
            term = term * Polynomial.variable(coords, v) ** draw(st.integers(0, 3))
        num = num + term
    return source, top_form(source, num, den), [component(source, x) for x in declared]


def verdict(check, source, form, declared):
    """None, or the type and text of the refusal; each check gets a fresh
    copy of the form, so that neither sees the other's memo."""
    fresh = DifferentialForm(form.chart, form.coords, form.degree, form.components)
    try:
        check(source, fresh, declared)
    except (ChainError, PolynomialError) as e:
        return type(e).__name__, str(e)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(checked_forms())
def test_degree_checker_agrees_with_the_chart_walk(case):
    source, form, declared = case
    try:
        assume(validate_normal_crossing(declared, source).ok)
    except PolynomialError:  # a TAU-dependent locus: no rational witness search
        assume(False)
    expected = verdict(check_poles_on_charts, source, form, declared)
    assert verdict(_check_poles, source, form, declared) == expected
    if form.is_zero():
        return
    main_refused = expected is not None and re.search(
        r"on chart (\S+)", expected[1]).group(1) == source.main_chart.id
    for chart in source.charts[1:]:
        locus = source.new_locus(chart.id)
        if len(locus) != 1:
            continue
        try:
            local = source.transition_form(form, chart.id)
        except PolynomialError as e:
            # a TAU-sum lead: only a form that the main chart refuses has one
            assert main_refused and "is a TAU-sum" in str(e)
            continue
        u = Polynomial.variable(chart.coords, locus[0])
        (f,) = form.components.values()
        assert order_at_infinity(source.kind, f, locus[0]) == local.pole_order(u), chart.id
        for comp in declared:
            if comp.first_visible_chart().id == chart.id:
                assert _has_pole(form, source, comp) == (local.pole_order(u) < 0)


CYLINDER = catalog_build("P1(t) x P1(z)")
PLANE = catalog_build("P2(x,y)")


# the refusals at infinity on 2-dimensional sources, with their text
@pytest.mark.parametrize("source, form, poles, text", [
    (CYLINDER, "d(t) wedge d(z)/t", ["t", "inf(z)"],
     "pole of order 2 along z_ on chart t|z_ (only simple poles allowed)"),
    (CYLINDER, "d(t) wedge d(z)/(t*z)", ["t", "z", "inf(z)"],
     "undeclared pole components t_ on chart t_|z"),
    (PLANE, "d(x) wedge d(y)/(x*y)", ["x", "y"],
     "undeclared pole components x1 on chart A1"),
])
def test_refusals_at_infinity_keep_their_text(source, form, poles, text):
    main = source.main_chart
    omega = parse_form(form, main.coords, main.id)
    comps = [component(source, p) for p in poles]
    with pytest.raises(ChainError) as err:
        make_triple(source, VarietyMap.identity(source), omega, comps)
    assert str(err.value) == text
    assert verdict(check_poles_on_charts, source, omega, comps) == ("ChainError", text)


def test_a_tau_sum_lead_at_infinity_stays_refused():
    """The transition of 1/(z - 1 - TAU) dt^dz to the chart of z = oo has a
    TAU-sum lead.  The form is refused on the main chart, before any
    transition, and its pole cannot be declared: the component's own
    polynomial on that chart has the same lead."""
    main = CYLINDER.main_chart
    omega = parse_form("d(t) wedge d(z)/(z - 1 - TAU)", main.coords, main.id)
    with pytest.raises(PolynomialError) as err:
        CYLINDER.transition_form(omega, "t|z_")
    assert str(err.value) == "cannot normalize: denominator leading coefficient -1 - 1*TAU is a TAU-sum"
    with pytest.raises(ChainError) as err:
        make_triple(CYLINDER, VarietyMap.identity(CYLINDER), omega, [component(CYLINDER, "inf(z)")])
    assert str(err.value) == "undeclared pole components z + (-1 - 1*TAU) on chart t|z"
    with pytest.raises(PolynomialError) as err:
        component(CYLINDER, "z - 1 - TAU")
    assert str(err.value) == "leading coefficient is not a TAU-monomial: (-1 - 1*TAU)*z_ + 1"
