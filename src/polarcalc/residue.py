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
    line_root,
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
    r = line_root(p)
    if r is not None:
        return r
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

    The graph embedding carries comp as its `image`.  Its image is all of
    comp whenever p = a*solve + b is irreducible, which holds for every
    component that passes normal crossing: a factor g(param) of a and b
    would be a union of lines {param = r}, and each meets the rest of p
    (on P2 any two curves meet; on P1 x P1 the rest, of degree 1 in
    solve, is a section over param), in a singular point of p.
    """
    if variety.dimension == 1:
        if variety.kind != "P1":
            raise ResidueError(
                "unsupported divisor component on %s" % variety.name
            )
        # `make_triple` admits only rational points: linear on this chart
        ch = comp.first_visible_chart()
        return ("point", ch, _linear_root(comp.poly_on(ch.id), ch.coords[0]))
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
            embed.image = comp
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
# P1 decisions in the source coordinate
# ---------------------------------------------------------------------------


class P1Form:
    """A 1-form f dt = (num/den) dt on the main chart of P1(t), with num
    and den coprime (a `RationalFunction`), and the exact pole decisions
    it allows in t alone.  Write dn = deg num and dd = deg den.

    - A finite rational point r is a pole iff den(r) = 0: num and den
      are coprime, so num(r) != 0 there.
    - On the infinity chart s = 1/t, dt = -ds/s^2 and
      f(1/s) = s^(dd - dn) num*(s)/den*(s), where the reversed
      polynomials num*, den* take the leading coefficients, nonzero, at
      s = 0.  So ord_oo(f dt) = dd - dn - 2 for f != 0, and oo is a pole
      iff dn >= dd - 1.
    - If den vanishes at dd distinct declared finite points, it is a
      constant times their product: these are its only roots, each
      simple.  dn <= dd - 1 makes the pole at oo at most simple, and
      dn <= dd - 2 makes oo no pole; so with
      dn <= dd - 1 - [oo not declared], every pole is simple and
      declared (`poles_simple_and_declared`).  The zero form has no
      poles, and passes.
    - The residue at a finite r is the value at r of (t - r) f.  It is 0
      when den(r) != 0, whatever den(r) is.  Otherwise den = (t - r) q,
      and it is num(r)/q(r), with q(r) = den'(r) by the product rule;
      den'(r) != 0 is the pole being simple.  The general path divides by
      q(r) up to a TAU-monomial, and Q[TAU, TAU^-1] divides only by
      TAU-monomials; so at a pole `residue` answers only where q(r) is a
      nonzero rational, and the two agree.  At oo it is 0 when oo is
      no pole, and for a simple pole, dn = dd - 1, the value at s = 0 of
      s * (-s^-1 num*(s)/den*(s)): -lc(num)/lc(den), the leading
      coefficients in t.
    - Pairwise distinct points of P1 are normal crossing when each is
      reduced: t - r on the main chart, or the coordinate itself on the
      infinity chart (`p1_points`).  Two distinct points share no factor,
      and a curve has no transversality or triple-point condition.

    The pole test and the points are exact.  The certificate
    `poles_simple_and_declared`, the points and `residue` are sufficient
    tests: where one answers None or False, the caller takes its general
    path, so that every refusal keeps its text.
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, coefficient: RationalFunction, var):
        self.var = var
        self.num = coefficient.num
        self.den = coefficient.den

    @staticmethod
    def on(form: DifferentialForm, variety: CatalogVariety):
        """The decisions for a 1-form on the main chart of a P1; else None."""
        if variety.kind != "P1" or form.chart != variety.main_chart.id:
            return None
        return P1Form(form.coefficient((0,)), variety.main_chart.coords[0])

    def _order_at_inf(self):
        """ord_oo(f dt) = dd - dn - 2 for f != 0."""
        return self.den.degree_in(self.var) - self.num.degree_in(self.var) - 2

    def has_pole(self, point) -> bool:
        """Is the rational point (a Fraction, or INF) a pole?"""
        if self.num.is_zero():
            return False
        if point == INF:
            return self._order_at_inf() < 0
        return self.den.evaluate({self.var: point}).is_zero()

    def poles_simple_and_declared(self, points) -> bool:
        """Certificate: every pole is simple and among the distinct points."""
        if self.num.is_zero():
            return True
        dd = self.den.degree_in(self.var)
        roots = sum(self.den.evaluate({self.var: r}).is_zero() for r in points if r != INF)
        return roots == dd and self.num.degree_in(self.var) <= dd - 1 - (INF not in points)

    def residue(self, point):
        """The residue at a rational point (a Fraction, or INF); None at a
        pole that is not simple, and at a finite point where den, or at a
        pole den', takes a value that is not a nonzero rational."""
        if point == INF:
            if not self.has_pole(INF):
                return Polynomial.zero(())
            if self._order_at_inf() < -1:
                return None
            return -(self.num.leading()[1] / self.den.leading()[1])
        at = {self.var: point}
        if not self.den.evaluate(at).is_zero():
            return Polynomial.zero(())
        # den = (t - point) q, and q(point) = den'(point)
        den = self.den.differentiate(self.var).evaluate(at)
        if den.is_zero() or not den.is_rational():
            return None
        return self.num.evaluate(at) / den


def p1_points(components):
    """The points of P1 that the components cut out, as Fractions and INF,
    when they are pairwise distinct and each is a rational multiple of
    t - r (r rational) on the main chart, or the coordinate itself on the
    infinity chart; else None."""
    points = []
    for comp in components:
        if comp.point is not None:  # made by `point_component`
            points.append(comp.point)
            continue
        main, inf = comp.variety.charts
        p = comp.poly_on(main.id)
        if p.is_constant():
            if comp.poly_on(inf.id) != Polynomial.variable(inf.coords, inf.coords[0]):
                return None
            points.append(INF)
            continue
        r = line_root(p)
        if r is None:
            return None
        points.append(r)
    return points if len(set(points)) == len(points) else None


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
    if shape[0] == "point" and direction is None:
        p1 = P1Form.on(omega, variety)
        points = p1_points([comp]) if p1 is not None else None
        value = p1.residue(points[0]) if points is not None else None
        if value is not None:
            return _point_residue(variety, chart, shape[2], value)
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
        at = {chart.coords[0]: root}
        if not form.coefficient((0,)).den.evaluate(at).is_zero():
            # no pole at root: p f vanishes there, whatever den(root) is
            return _point_residue(variety, chart, root, Polynomial.zero(()))
        try:
            value = rho.coefficient(()).evaluate(at)
        except ZeroDivisionError:
            raise ResidueError(
                "residual denominator vanishes at the pole of %s" % comp.label
            )
        return _point_residue(variety, chart, root, value)

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


def _point_residue(variety, chart, root, value: Polynomial) -> ResidueResult:
    """The residue `value` carried to the point {coordinate = root} of the chart."""
    target = point_variety()
    pt = point_from_chart(variety, chart.id, {chart.coords[0]: root})
    embed = VarietyMap.constant(target, variety, pt)
    rf = RationalFunction.constant((), value)
    return ResidueResult("scalar", target, embed, DifferentialForm.function("pt", (), rf))


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
    """Rational pole locations of a 1-form on P1: the roots of the main
    chart's denominator, then oo when `P1Form.has_pole` says so."""
    if variety.kind != "P1":
        raise ResidueError("expected a projective line")
    points = []
    form = P1Form.on(variety.transition_form(omega, variety.main_chart.id), variety)
    if not form.den.is_constant():
        roots, split = rational_roots(form.den)
        if not split:
            raise ResidueError("irrational pole location in %s" % form.den)
        for r, _mult in roots:
            points.append(VarietyPoint.product_point([r]))
    if form.has_pole(INF):
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
