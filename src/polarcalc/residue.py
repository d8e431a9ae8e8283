"""Poincare residues of simple-pole forms onto divisor components.

The extraction formula is: pick a coordinate direction j along which the
defining polynomial p has a nonzero partial, contract p*omega with
(1/d_j p) d_j, and restrict to {p = 0}.  Where p divides the denominator
of a coefficient c (the pole along p is simple), p*c is c.num over the
exact quotient c.den / p: that fraction is coprime as it stands, and only
the lead of its denominator, a TAU-monomial, is divided out to make it
canonical; elsewhere c has no pole along p and the product cross-cancels
(`RationalFunction.times_poly`).  Restriction is realized by
parametrization substitution for rational loci, by curve-ring reduction
for smooth plane curves, and by evaluation for points.

`classify_component` is the one place that says what a residue target
looks like: a point, a projective line embedded as the graph of one
chart coordinate over the other, or a plane curve.  R2 in `chains`
traces coincident terms onto that same line embedding.
"""

from fractions import Fraction

from .forms import DifferentialForm
from .geometry import (
    INF,
    CatalogVariety,
    DivisorComponent,
    GeometryError,
    VarietyPoint,
    curve_reduce,
    plane_curve,
    point_component,
    point_from_chart,
    point_variety,
    proj_line,
)
from .maps import VarietyMap
from .polynomials import (
    Polynomial,
    RationalFunction,
    from_univariate,
    rational_roots,
)


class ResidueError(ValueError):
    pass


class ResidueResult:
    """A residue together with where it lives.

    kind is "scalar" (point target), "line" (parametrized rational
    locus, target a projective line), or "curve" (plane-curve target).
    `embed` maps the target into the ambient variety.
    """

    __slots__ = ("kind", "target", "embed", "form")

    def __init__(self, kind, target, embed, form):
        self.kind = kind
        self.target = target
        self.embed = embed
        self.form = form

    @property
    def value(self) -> Polynomial:
        """The scalar carried by a point residue."""
        if self.kind != "scalar":
            raise ResidueError("residue is not a point residue")
        return self.form.coefficient(()).constant_value()

    def __repr__(self):
        return "ResidueResult(%s, %s)" % (self.kind, self.form)


# ---------------------------------------------------------------------------
# component classification
# ---------------------------------------------------------------------------


def _linear_root(p: Polynomial, coord) -> Fraction:
    """Root -b/a of a polynomial a*coord + b in its single variable."""
    at0 = {coord: 0}
    b = p.specialize(at0)
    a = p.differentiate(coord).specialize(at0)
    return -b.rational_value() / a.rational_value()


def classify_component(comp: DivisorComponent, variety: CatalogVariety):
    """How a component can be restricted to.

    Returns ("point", chart, root) on 1-dimensional varieties;
    ("graph", chart, param, embed) for loci linear in one chart
    coordinate, where `embed` carries proj_line(base) onto the locus, its
    coordinate base standing for param (base is param without a trailing
    "_"); or ("curve", chart A0) for plane curves.
    """
    if variety.dimension == 1:
        if variety.kind != "P1":
            raise ResidueError(
                "unsupported divisor component on %s" % variety.name
            )
        for ch in variety.charts:
            p = comp.poly_on(ch.id)
            if p.is_constant():
                continue
            coord = ch.coords[0]
            if p.degree_in(coord) == 1:
                return ("point", ch, _linear_root(p, coord))
        raise ResidueError(
            "component %s has no rational point representation" % comp.label
        )
    if variety.dimension == 2:
        for ch in variety.charts:
            p = comp.poly_on(ch.id)
            if p.is_constant():
                continue
            solve = None
            for coord in reversed(ch.coords):
                if p.degree_in(coord) == 1:
                    solve = coord
                    break
            if solve is None:
                continue
            param = next(c for c in ch.coords if c != solve)
            # p = a*solve + b with a, b free of solve
            a = p.differentiate(solve)
            b = p.specialize({solve: 0}).lift(ch.coords)
            base = param.rstrip("_") or param
            t = RationalFunction.variable((base,), base)
            value = RationalFunction(-b, a).substitute({param: t}, (base,))
            embed = VarietyMap(proj_line(base), variety, ch.id, {param: t, solve: value})
            return ("graph", ch, param, embed)
        if variety.kind == "P2":
            if not comp.visible_on("A0"):
                raise ResidueError(
                    "component %s invisible on the affine chart" % comp.label
                )
            return ("curve", variety.chart("A0"))
        raise ResidueError(
            "unsupported divisor component %s on %s" % (comp.label, variety.name)
        )
    raise ResidueError("residues only implemented up to dimension 2")


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _choose_direction(p: Polynomial, coords, direction=None):
    """(x_j, d_j p) with d_j p nonzero, and so of lower degree in x_j than p."""
    if direction is not None:
        dp = p.differentiate(direction)
        if dp.is_zero():
            raise ResidueError("direction %s is not admissible" % direction)
        return direction, dp
    for coord in coords:
        dp = p.differentiate(coord)
        if not dp.is_zero():
            return coord, dp
    raise ResidueError("no admissible direction for %s" % p)


def _contracted(form: DifferentialForm, p: Polynomial, coords, direction):
    """The pre-restriction form: contraction of p*omega with (1/d_j p) d_j."""
    j, dp = _choose_direction(p, coords, direction)
    times_p = DifferentialForm(
        form.chart, form.coords, form.degree,
        {i: c.times_poly(p) for i, c in form.components.items()},
    )
    one = RationalFunction.constant(p.variables, 1)
    return times_p.contract(j, one / RationalFunction.from_poly(dp))


def poincare_residue(
    omega: DifferentialForm,
    comp: DivisorComponent,
    variety: CatalogVariety,
    direction=None,
) -> ResidueResult:
    """Residue of a simple-pole form along one divisor component."""
    shape = classify_component(comp, variety)
    chart = shape[1]
    form = variety.transition_form(omega, chart.id)
    p = comp.poly_on(chart.id)
    _require_simple(form, p, comp)
    if shape[0] == "curve":
        try:
            curve = plane_curve(p)
        except GeometryError as e:
            raise ResidueError("residue onto a singular component: %s" % e)
    rho = _contracted(form, p, chart.coords, direction)

    if shape[0] == "point":
        root = shape[2]
        coord = chart.coords[0]
        try:
            value = rho.coefficient(()).evaluate({coord: root})
        except ZeroDivisionError:
            raise ResidueError(
                "residual denominator vanishes at the pole of %s" % comp.label
            )
        target = point_variety()
        pt = point_from_chart(variety, chart.id, {coord: root})
        embed = VarietyMap.constant(target, variety, pt)
        rf = RationalFunction.constant((), value)
        return ResidueResult("scalar", target, embed, DifferentialForm.function("pt", (), rf))

    if shape[0] == "graph":
        embed = shape[3]
        line = embed.source.main_chart
        try:
            restricted = rho.pullback(embed.formulas, line.id, line.coords)
        except ZeroDivisionError:
            raise ResidueError(
                "residual denominator vanishes along %s" % comp.label
            )
        return ResidueResult("line", embed.source, embed, restricted)

    # plane-curve target
    x, y = chart.coords
    px = RationalFunction.from_poly(p.differentiate(x))
    py = RationalFunction.from_poly(p.differentiate(y))
    coeff = rho.coefficient((0,)) - rho.coefficient((1,)) * px / py
    try:
        reduced = curve_reduce(coeff, curve)
    except ZeroDivisionError:
        raise ResidueError("residual denominator vanishes along %s" % comp.label)
    cform = DifferentialForm(
        curve.main_chart.id, chart.coords, 1,
        {(0,): from_univariate(reduced, curve.main_chart.coords)},
    )
    embed = VarietyMap(curve, variety, chart.id, {
        x: RationalFunction.variable(chart.coords, x),
        y: RationalFunction.variable(chart.coords, y),
    })
    return ResidueResult("curve", curve, embed, cform)


def _require_simple(form: DifferentialForm, p: Polynomial, comp):
    worst = form.pole_order(p)
    if worst < -1:
        raise ResidueError(
            "pole of order %d along %s; only simple poles supported"
            % (-worst, comp.label)
        )


# ---------------------------------------------------------------------------
# iterated residues and the P1 residue theorem
# ---------------------------------------------------------------------------


def induced_component(comp: DivisorComponent, inner: ResidueResult) -> DivisorComponent:
    """The trace of an ambient component on an inner residue target."""
    if inner.kind != "line":
        raise ResidueError("iterated residues need a rational first target")
    chart_id = inner.embed.target_chart
    poly = comp.poly_on(chart_id)
    if poly.is_constant():
        raise ResidueError(
            "component %s invisible on the restriction chart" % comp.label
        )
    coords = inner.target.main_chart.coords
    rf = poly.substitute(inner.embed.formulas, coords)
    num = rf.num
    if num.is_constant():
        raise ResidueError(
            "components %s and the restriction locus do not meet in the chart"
            % comp.label
        )
    return DivisorComponent.from_chart_poly(
        inner.target, inner.target.main_chart.id, num, comp.label
    )


def iterated_residue(
    omega: DifferentialForm,
    p: DivisorComponent,
    q: DivisorComponent,
    variety: CatalogVariety,
) -> ResidueResult:
    """res_q(res_p(omega)), re-profiling the inner result along p meets q."""
    inner = poincare_residue(omega, p, variety)
    if inner.kind == "scalar":
        raise ResidueError("iterated residue needs a positive-dimensional target")
    if inner.kind == "curve":
        raise ResidueError("iterated residues onto curve targets not supported")
    comp2 = induced_component(q, inner)
    outer = poincare_residue(inner.form, comp2, inner.target)
    embed = inner.embed.compose(outer.embed)
    return ResidueResult(outer.kind, outer.target, embed, outer.form)


def p1_pole_points(omega: DifferentialForm, variety: CatalogVariety):
    """Rational pole locations of a 1-form on P1, both charts inspected."""
    if variety.kind != "P1":
        raise ResidueError("expected a projective line")
    points = []
    main = variety.main_chart
    form = variety.transition_form(omega, main.id)
    den = form.coefficient((0,)).den
    if not den.is_constant():
        roots, split = rational_roots(den)
        if not split:
            raise ResidueError("irrational pole location in %s" % den)
        for r, _mult in roots:
            points.append(VarietyPoint.product_point([r]))
    inf_chart = variety.charts[1]
    inf_form = variety.transition_form(omega, inf_chart.id)
    if inf_form.coefficient((0,)).ord_along(
        Polynomial.variable(inf_chart.coords, inf_chart.coords[0])
    ) < 0:
        points.append(VarietyPoint.product_point([INF]))
    return points


def total_residue_p1(omega: DifferentialForm, variety: CatalogVariety):
    """Sum of the residues of a simple-pole 1-form on P1 (always zero)."""
    total = Polynomial.scalar(0)
    breakdown = []
    for pt in p1_pole_points(omega, variety):
        comp = point_component(variety, pt)
        res = poincare_residue(omega, comp, variety)
        breakdown.append((pt, res.value))
        total = total + res.value
    return total, breakdown
