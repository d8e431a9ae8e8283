import pytest

from polarcalc.forms import DifferentialForm, FormError, polar_profile
from polarcalc.geometry import DivisorComponent, product_of_lines, proj_plane
from polarcalc.parsing import parse_form
from polarcalc.polynomials import Polynomial, RationalFunction

COORDS = ("x", "y")


def dx():
    return DifferentialForm.d_coordinate("", COORDS, "x")


def dy():
    return DifferentialForm.d_coordinate("", COORDS, "y")


def rf(text):
    from polarcalc.parsing import parse_rational

    return parse_rational(text, COORDS)


def test_wedge_anticommutes():
    assert dx().wedge(dy()) == -(dy().wedge(dx()))
    assert dx().wedge(dx()).is_zero()


def test_exterior_derivative_squares_to_zero():
    f = DifferentialForm.function("", COORDS, rf("x^2*y + y/x"))
    df = f.exterior_derivative()
    assert df.exterior_derivative().is_zero()


def test_leibniz_on_products():
    f = rf("x*y")
    g = rf("x + 1")
    fg = DifferentialForm.function("", COORDS, f * g)
    lhs = fg.exterior_derivative()
    rhs = DifferentialForm.function("", COORDS, f).exterior_derivative().multiply(
        g
    ) + DifferentialForm.function("", COORDS, g).exterior_derivative().multiply(f)
    assert lhs == rhs


def test_contract_extracts_coefficient():
    omega = dx().wedge(dy()).multiply(rf("1/(x*y)"))
    iota = omega.contract("x", RationalFunction.constant(COORDS, 1))
    assert iota == dy().multiply(rf("1/(x*y)"))


def test_pullback_respects_chain_rule():
    omega = dx().multiply(rf("1/x"))
    t = ("t",)
    mapping = {
        "x": RationalFunction.variable(t, "t") ** 2,
        "y": RationalFunction.variable(t, "t"),
    }
    pulled = omega.pullback(mapping, "", t)
    expected = parse_form("2 * dlog(t)", t)
    assert pulled == expected


def test_degree_mismatch_rejected():
    with pytest.raises(FormError):
        dx() + dx().wedge(dy())


def test_polar_profile_orders():
    omega = dx().wedge(dy()).multiply(rf("1/(x*y^2)"))
    xp = Polynomial.variable(COORDS, "x")
    yp = Polynomial.variable(COORDS, "y")
    assert omega.pole_order(xp) == -1
    assert omega.pole_order(yp) == -2
    assert polar_profile(omega, [xp, yp]).is_one()


def test_polar_profile_undeclared_pole():
    omega = dx().multiply(rf("1/(x*(y-1))"))
    xp = Polynomial.variable(COORDS, "x")
    assert str(polar_profile(omega, [xp])) == "y - 1"


def _plane_and_product():
    return [proj_plane("x", "y"), product_of_lines(["x", "y"])]


def _dlog_form(variety):
    main = variety.main_chart
    return parse_form("dlog(x) wedge dlog(y - 1)", main.coords, main.id)


def _pole_polys(variety, chart):
    """The polynomials of {x = 0} and {y = 1} visible on a chart."""
    main = variety.main_chart
    comps = [
        DivisorComponent.from_chart_poly(variety, main.id, rf(text).num)
        for text in ("x", "y - 1")
    ]
    return [c.poly_on(chart.id) for c in comps if c.visible_on(chart.id)]


@pytest.mark.parametrize("variety", _plane_and_product(), ids=["P2", "P1xP1"])
def test_transition_form_is_computed_once(variety):
    omega = _dlog_form(variety)
    main = variety.main_chart
    for chart in variety.charts[1:]:
        local = variety.transition_form(omega, chart.id)
        mapping = variety.coord_map(main.id, chart.id)
        assert local == omega.pullback(mapping, chart.id, chart.coords)
        assert variety.transition_form(omega, chart.id) is local
    assert variety.transition_form(omega, main.id) is omega


@pytest.mark.parametrize("variety", _plane_and_product(), ids=["P2", "P1xP1"])
@pytest.mark.parametrize("lam", [Polynomial.scalar(-1), Polynomial.scalar(1) + Polynomial.scalar(1, 1)],
                         ids=["-1", "1+TAU"])
def test_scale_carries_transitions_and_pole_orders(variety, lam, monkeypatch):
    omega = _dlog_form(variety)
    assert omega.scale(Polynomial.scalar(1)) is omega

    def profile(form):
        """{chart id: (local form, pole orders along the visible polys)}"""
        out = {}
        for chart in variety.charts:
            local = variety.transition_form(form, chart.id)
            out[chart.id] = (local, [local.pole_order(p) for p in _pole_polys(variety, chart)])
        return out

    profile(omega)  # fills omega's memo
    fresh = DifferentialForm(
        omega.chart, omega.coords, omega.degree,
        {i: c.scale(lam) for i, c in omega.components.items()},
    )
    expected = profile(fresh)
    scaled = omega.scale(lam)
    assert scaled == fresh

    def refuse(*args):
        raise AssertionError("a scaled form recomputed what its memo held")

    monkeypatch.setattr(DifferentialForm, "pullback", refuse)
    monkeypatch.setattr(RationalFunction, "ord_along", refuse)
    assert profile(scaled) == expected
