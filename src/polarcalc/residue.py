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

A graph takes one restriction formula instead (`_restricted`).  On a chart
(u0, u1) let p = a*s + b, with a and b free of the coordinate s solved
for, and let param be the other coordinate.  Then dp ^ du1 = a du0 ^ du1
when s = u0, and du0 ^ dp = a du0 ^ du1 when s = u1, so

    f du0 ^ du1 = e (p f / a) (dp / p) ^ d(param),  e = +1 (s = u0), -1 (s = u1),

and the residue is e * (p f / a) at s = -b/a, times d(param).

A carried line at infinity (`DivisorComponent.line`) takes a closed form
from the form f = N/D on the main chart, with no chart transition
(`_residue_at_infinity`); o is its order there (`order_at_infinity`), the
residue 0 when o >= 0, and a refusal when o < -1.  For o = -1:
- {z1 = oo} on P1(z1) x P1(z2): z1 = 1/u turns f dz1 ^ dz2 into
  -u^-1 (N*/D*) du ^ dz2, N* and D* the reversed polynomials in z1, which
  take the leading coefficients in z1 at u = 0; s = u is u0, so e = +1 and
  the residue is -lc_z1(N)/lc_z1(D) dz2.
- {z2 = oo}: z2 = 1/u turns it into -u^-1 (N*/D*) dz1 ^ du; s = u is u1,
  so e = -1 and the residue is +lc_z2(N)/lc_z2(D) dz1.
- The line at infinity of P2, {x1 = 0} on the chart (x1, y1) with
  x = 1/x1, y = y1/x1: dx ^ dy = -dx1 ^ dy1 / x1^3, and a polynomial of
  total degree k is x1^-k times one whose value at x1 = 0 is its top part
  at (1, y1); s = x1 is u0, so e = +1 and the residue is
  -N_top(1, y1)/D_top(1, y1) dy1.

`classify_component` is the one place that says what a residue target
looks like: a point, a projective line embedded as the graph of one
chart coordinate over the other, or a plane curve.  R2 in `chains`
traces coincident terms onto that same line embedding.
"""

from fractions import Fraction

from .forms import DifferentialForm
from .geometry import (
    INF,
    P2_SLOTS,
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
    PolynomialError,
    RationalFunction,
    ScalarError,
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
    `embed` maps the target into the ambient variety.  A point residue
    holds its `point` of the ambient and builds that constant map on the
    first read of `embed` only: the boundary carries the point on by
    itself (`chains._residue_term`).
    """

    __slots__ = ("kind", "target", "form", "point", "_embed", "_ambient")

    def __init__(self, kind, target, embed, form, point=None, ambient=None):
        self.kind = kind
        self.target = target
        self.form = form
        self.point = point
        self._embed = embed
        self._ambient = ambient

    @property
    def embed(self) -> VarietyMap:
        if self._embed is None:
            self._embed = VarietyMap.constant(self.target, self._ambient, self.point)
        return self._embed

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
    solve, is a section over param), in a singular point of p.  A carried
    line takes its graph from its integers (`_line_graph`).
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
        if comp.line is not None:
            return _line_graph(comp, variety)
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


def _line_graph(comp: DivisorComponent, variety: CatalogVariety):
    """`classify_component`'s graph of a carried line, with no ring
    arithmetic.  On its first visible chart (u0, u1) the line is
    const + c0*u0 + c1*u1: on P2 the line's vector in the chart's slots
    (`P2_SLOTS`), on a product {u_i = v} with c_i = 1 and const = -v, v = 0
    on the chart that inverts u_i for r = INF.  The general path solves
    for u1 when c1 != 0 and for u0 otherwise, and finds
    solve = -(c_param * param + const)/c_solve."""
    ch = comp.first_visible_chart()
    if variety.kind == "P2":
        const, *cs = (comp.line[k] for k in P2_SLOTS[ch.id])
    else:
        i, r = comp.line
        cs = [0, 0]
        cs[i], const = 1, 0 if r == INF else -r
    k = 1 if cs[1] else 0
    solve, param = ch.coords[k], ch.coords[1 - k]
    base = param.rstrip("_") or param
    value = Polynomial((base,), {
        (1,): Fraction(-cs[1 - k], cs[k]), (0,): Fraction(-const, cs[k])})
    embed = VarietyMap(proj_line(base), variety, ch.id, {
        param: RationalFunction.variable((base,), base),
        solve: RationalFunction.from_poly(value),
    })
    embed.image = comp
    return ("graph", ch, param, embed)


# ---------------------------------------------------------------------------
# P1 decisions in the source coordinate
# ---------------------------------------------------------------------------


def order_at_infinity(kind, f: RationalFunction, u) -> int:
    """The order of a nonzero top-degree form f dx, f on the main chart of
    a P1, a product of two lines or P2 (the variety's `kind`), along the
    divisor {u = 0} of a later chart, by degrees on the main chart.

    - A factor t of P1 or P1 x P1, u = t_: t = 1/u, dt = -du/u^2, and
      f(..., 1/u, ...) is u^(deg_t den - deg_t num) times a fraction whose
      parts, the reversed polynomials in t, take their leading coefficients
      in t, not 0, at u = 0.  So the order is deg_t den - deg_t num - 2.
    - The line at infinity of P2, u = x1: x = 1/x1, y = y1/x1,
      dx^dy = -dx1^dy1/x1^3, and a polynomial of total degree k is x1^-k
      times one whose value at x1 = 0, its top part at (1, y1), is not 0.
      So the order is deg den - deg num - 3.

    The transition that this replaces cannot refuse a form that passed
    the main chart: its den is a TAU-monomial times powers of declared
    components, made canonical on every chart, and a monomial
    substitution multiplies leads, so the substituted den has a
    TAU-monomial lead.
    """
    if kind == "P2":
        return f.den.total_degree() - f.num.total_degree() - 3
    t = u[:-1]
    return f.den.degree_in(t) - f.num.degree_in(t) - 2


class P1Form:
    """A 1-form f dt = (num/den) dt on the main chart of P1(t), with num
    and den coprime (a `RationalFunction`), and the exact pole decisions
    it allows in t alone.  Write dn = deg num and dd = deg den.

    - A finite rational point r is a pole iff den(r) = 0: num and den
      are coprime, so num(r) != 0 there.
    - On the infinity chart s = 1/t, ord_oo(f dt) = dd - dn - 2 for
      f != 0 (`order_at_infinity`, where f(1/s) = s^(dd - dn)
      num*(s)/den*(s) with the reversed polynomials num*, den*), and oo is
      a pole iff dn >= dd - 1.
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

    __slots__ = ("var", "f", "num", "den")

    def __init__(self, coefficient: RationalFunction, var):
        self.var = var
        self.f = coefficient
        self.num = coefficient.num
        self.den = coefficient.den

    @staticmethod
    def on(form: DifferentialForm, variety: CatalogVariety):
        """The decisions for a 1-form on the main chart of a P1; else None."""
        if variety.kind != "P1" or form.chart != variety.main_chart.id:
            return None
        return P1Form(form.coefficient((0,)), variety.main_chart.coords[0])

    def _order_at_inf(self):
        return order_at_infinity("P1", self.f, self.var + "_")

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
        if comp.point is not None:  # carried by the component
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
    """Residue of a simple-pole form along one divisor component.

    With no direction given, a point of P1 takes `P1Form`, a carried line
    at infinity its closed form (`_residue_at_infinity`), and a graph the
    restriction formula (`_restricted`); whatever these cannot take, and
    every residue with a direction, takes the contraction.
    """
    shape = classify_component(comp, variety)
    chart = shape[1]
    if direction is None:
        if shape[0] == "point":
            p1 = P1Form.on(omega, variety)
            points = p1_points([comp]) if p1 is not None else None
            value = p1.residue(points[0]) if points is not None else None
            if value is not None:
                return _point_residue(variety, VarietyPoint.product_point(points), value)
        elif comp.line is not None and chart.id != omega.chart == variety.main_chart.id:
            res = _residue_at_infinity(omega, comp, variety, shape)
            if res is not None:
                return res
    form = variety.transition_form(omega, chart.id)
    p = comp.poly_on(chart.id)
    _require_simple(form.pole_order(p), comp)

    if shape[0] == "point":
        root = shape[2]
        at = {chart.coords[0]: root}
        pt = point_from_chart(variety, chart.id, at)
        if not form.coefficient((0,)).den.evaluate(at).is_zero():
            # no pole at root: p f vanishes there, whatever den(root) is
            return _point_residue(variety, pt, Polynomial.zero(()))
        rho = _contracted(form, p, chart.coords, direction)
        try:
            value = rho.coefficient(()).evaluate(at)
        except ZeroDivisionError:
            raise ResidueError(
                "residual denominator vanishes at the pole of %s" % comp.label
            )
        return _point_residue(variety, pt, value)

    if shape[0] == "graph":
        embed = shape[3]
        line = embed.source.main_chart
        restricted = None
        if direction is None:
            restricted = _restricted(form, p, chart, shape[2], embed, comp.line is not None)
        if restricted is None:
            rho = _contracted(form, p, chart.coords, direction)
            try:
                restricted = rho.pullback(embed.formulas, line.id, line.coords)
            except ZeroDivisionError:
                raise ResidueError(
                    "residual denominator vanishes along %s" % comp.label
                )
        return ResidueResult("line", embed.source, embed, restricted)

    # plane-curve target
    try:
        curve = plane_curve(p)
    except GeometryError as e:
        raise ResidueError("residue onto a singular component: %s" % e)
    rho = _contracted(form, p, chart.coords, direction)
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


def _restricted(form, p, chart, param, embed, line):
    """The residue along a graph by the restriction formula (see the module
    docstring): e * (p f / a) at solve = -b/a, one `times_poly`, one
    division by a and one substitution of the graph, a specialization
    for a constant graph.  None where that meets a zero denominator or a
    TAU-sum lead, and for a component that is not a `line` unless p is
    TAU-free and irreducible (a and b coprime, so that the graph's
    denominator keeps the degree of a): under these conditions the
    contraction it replaces refuses exactly where it does, so the caller
    takes the contraction for every refusal."""
    k = 0 if param == chart.coords[1] else 1
    solve, target = chart.coords[k], embed.source.main_chart
    a = p.differentiate(solve)
    value = embed.formulas[solve]
    if not line and (p.shift or p.prim.degree(len(p.variables)) > 0
                     or value.den.total_degree() != a.total_degree()):
        return None
    e = Polynomial.scalar(1 - 2 * k)
    try:
        rf = form.coefficient((0, 1)).times_poly(p)
        if a.is_constant():
            rf = rf.scale(e / a.constant_value())
        else:
            rf = (rf / RationalFunction.from_poly(a)).scale(e)
        if value.is_constant():
            at = {solve: value.constant_value().rational_value()}
            rf = RationalFunction(rf.num.specialize(at), rf.den.specialize(at))
            if rf.variables != target.coords:
                rf = rf.rename(target.coords)
        else:
            rf = rf.substitute(embed.formulas)
    except (ZeroDivisionError, PolynomialError, ScalarError):
        return None
    return DifferentialForm(target.id, target.coords, 1, {(0,): rf})


def _residue_at_infinity(omega, comp, variety, shape):
    """The residue of a top-degree form on the main chart along a carried
    line at infinity, in closed form from the form's N/D there (see the
    module docstring); None where normalizing it meets a TAU-sum lead."""
    _, chart, _, embed = shape
    line = embed.source.main_chart
    (u,) = variety.new_locus(chart.id)
    rf = RationalFunction.constant(line.coords, 0)
    if not omega.is_zero():
        (f,) = omega.components.values()
        o = order_at_infinity(variety.kind, f, u)
        _require_simple(o, comp)
        if o < 0:
            if variety.kind == "P2":
                weights, keep, sign = (1, 1), 1, -1
            else:
                i = variety.main_chart.coords.index(u[:-1])
                weights, keep, sign = (1 - i, i), 1 - i, 1 if i else -1
            (name,) = line.coords
            num = f.num.top_part(weights, keep, name)
            try:
                rf = RationalFunction(num if sign > 0 else -num,
                                      f.den.top_part(weights, keep, name))
            except PolynomialError:
                return None
    form = DifferentialForm(line.id, line.coords, 1, {(0,): rf})
    return ResidueResult("line", embed.source, embed, form)


def _point_residue(variety, point: VarietyPoint, value: Polynomial) -> ResidueResult:
    """The residue `value` carried to a point of the variety."""
    rf = RationalFunction.constant((), value)
    return ResidueResult("scalar", point_variety(), None,
                         DifferentialForm.function("pt", (), rf), point, variety)


def _require_simple(worst, comp):
    """Refuse a pole of order 2 or more: worst is the form's order along comp."""
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
