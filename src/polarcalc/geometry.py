"""Catalog of desk-scale varieties and their divisor components.

Supported kinds: a point, the projective line, finite products of
projective lines, the projective plane, and smooth plane curves (taken
with their projective closure).  Each variety carries explicit affine
charts with exact rational transition maps; a divisor component is a
chart-wise family of defining polynomials compatible under transitions.
On two-dimensional charts, tangency, triple points and singular points
are common rational zeros, all found by `_new_zeros_2d` (resultants, then
the rational roots of gcds); a rejection names one as its witness.
Normal crossing is checked only there: chains have sources of dimension
<= 2, while maps may target a product of any number of lines, P1^k.

Every check is local, so each object is certified once, on the first
chart that contains it: a pair of components on the first chart where
both are visible, a point on the first chart that contains it, and a
component's squarefreeness and pole order (`chains.make_triple`) on its
first visible chart.
The points of chart j outside charts 0..j-1 form its new locus
(`CatalogVariety.new_locus`); transition denominators are coordinate
monomials, so it is a coordinate subspace {z = 0 for z in Z}, and chart
j > 0 is checked on it alone.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .forms import DifferentialForm
from .polynomials import (
    Polynomial,
    RationalFunction,
    _canonical_assoc,
    inverse_mod,
    is_squarefree,
    line_with_root,
    poly_gcd,
    poly_resultant,
    rational_roots,
    to_univariate,
)

INF = "inf"  # point-at-infinity marker in a P1 factor


class GeometryError(ValueError):
    pass


class Chart:
    __slots__ = ("id", "coords")

    def __init__(self, id, coords):
        self.id = id
        self.coords = tuple(coords)

    @property
    def dimension(self):
        return len(self.coords)

    def __repr__(self):
        return "Chart(%s)" % self.id


class CatalogVariety:
    """Immutable catalog variety with charts and transitions.

    coord_maps[(A, B)] maps every coordinate of chart A to its
    expression as a RationalFunction in chart B's coordinates.
    """

    def __init__(self, kind, name, charts, coord_maps, dimension, factors=(), curve_polys=None):
        self.kind = kind  # "point" | "P1" | "product" | "P2" | "curve"
        self.name = name
        self.charts = list(charts)
        self.coord_maps = dict(coord_maps)
        self.dimension = dimension
        self.factors = tuple(factors)  # main coordinate per P1 factor
        self.curve_polys = dict(curve_polys or {})
        self._new_loci = _new_loci(self.charts, self.coord_maps)
        extra = tuple(sorted((cid, p) for cid, p in self.curve_polys.items()))
        self._signature = (kind, tuple(c.coords for c in self.charts), extra)

    @property
    def main_chart(self) -> Chart:
        return self.charts[0]

    def chart(self, chart_id) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise GeometryError("unknown chart %r on %s" % (chart_id, self.name))

    def new_locus(self, chart_id):
        """The coordinates Z such that {z = 0 for z in Z} are the points of
        the chart outside every earlier chart; () for the main chart."""
        return self._new_loci[chart_id]

    def coord_map(self, from_id, to_id):
        if from_id == to_id:
            ch = self.chart(from_id)
            return {v: RationalFunction.variable(ch.coords, v) for v in ch.coords}
        key = (from_id, to_id)
        if key not in self.coord_maps:
            raise GeometryError("no transition %s -> %s on %s" % (from_id, to_id, self.name))
        return self.coord_maps[key]

    def transition_form(self, form: DifferentialForm, to_id) -> DifferentialForm:
        """Express a form given on one chart in another (itself on its own chart).

        Computed once per (form, variety, chart): the result is kept in the
        form's memo."""
        if form.chart == to_id:
            return form

        def pullback():
            to_chart = self.chart(to_id)
            mapping = self.coord_map(form.chart, to_id)
            return form.pullback(mapping, to_id, to_chart.coords)

        return form.memoized(("transition", self.signature(), to_id), pullback)

    def __eq__(self, other):
        return isinstance(other, CatalogVariety) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def signature(self):
        return self._signature

    def __repr__(self):
        return "CatalogVariety(%s)" % self.name


def _new_loci(charts, coord_maps):
    """Chart id -> the coordinates cutting out its new locus.

    A point of chart j lies in chart i when every denominator of chart i's
    coordinates, written in chart j's, is nonzero there.  The denominators
    are coordinate monomials, so chart j minus chart i is the union of
    {z = 0} over the coordinates z they contain, and the new locus is the
    intersection of these unions over i < j, expanded into coordinate
    subspaces.
    """
    loci = {}
    for j, chart in enumerate(charts):
        pieces = {frozenset()}
        for earlier in charts[:j]:
            cuts = set()
            for rf in coord_maps[(earlier.id, chart.id)].values():
                if len(rf.den.prim) != 1:
                    raise GeometryError("transition denominator %s is not a monomial" % rf.den)
                ((exp, _),) = rf.den.prim.items()
                cuts.update(v for v, k in zip(rf.den.variables, exp) if k)
            pieces = {piece | {z} for piece in pieces for z in cuts}
            pieces = {p for p in pieces if not any(q < p for q in pieces)}
        if len(pieces) != 1:
            raise GeometryError("chart %s has no coordinate-subspace new locus" % chart.id)
        (piece,) = pieces
        loci[chart.id] = tuple(v for v in chart.coords if v in piece)
    return loci


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


# A catalog variety is immutable, so each is built once and shared.


@functools.cache
def point_variety() -> CatalogVariety:
    return CatalogVariety("point", "Point", [Chart("pt", ())], {}, 0)


def proj_line(coord="z") -> CatalogVariety:
    return _product_core((coord,), "P1", "P1(%s)" % coord)


def product_of_lines(coords) -> CatalogVariety:
    coords = tuple(coords)
    if len(coords) == 1:
        return proj_line(coords[0])
    name = " x ".join("P1(%s)" % c for c in coords)
    return _product_core(coords, "product", name)


def _inv_name(coord):
    return coord + "_"


@functools.cache
def _product_core(coords: tuple, kind, name):
    if len(set(coords)) != len(coords):
        raise GeometryError("duplicate coordinate names %s" % list(coords))
    for c in coords:
        if c.endswith("_"):
            raise GeometryError("coordinate name %r reserved for the infinity chart" % c)
    k = len(coords)
    charts = []
    masks = list(itertools.product((False, True), repeat=k))
    for mask in masks:
        names = tuple(_inv_name(c) if inv else c for c, inv in zip(coords, mask))
        charts.append(Chart("|".join(names), names))
    coord_maps = {}
    for ma in masks:
        for mb in masks:
            if ma == mb:
                continue
            ca = charts[masks.index(ma)]
            cb = charts[masks.index(mb)]
            mapping = {}
            for i in range(k):
                va, vb = ca.coords[i], cb.coords[i]
                target = RationalFunction.variable(cb.coords, vb)
                if ma[i] != mb[i]:
                    one = RationalFunction.constant(cb.coords, 1)
                    target = one / target
                mapping[va] = target
            coord_maps[(ca.id, cb.id)] = mapping
    return CatalogVariety(kind, name, charts, coord_maps, k, factors=tuple(coords))


def _p2_charts(x, y):
    """Charts of P2 in homogeneous coords [X0:X1:X2], (x,y)=(X1/X0,X2/X0)."""
    a0 = Chart("A0", (x, y))
    a1 = Chart("A1", (x + "1", y + "1"))  # (X0/X1, X2/X1)
    a2 = Chart("A2", (x + "2", y + "2"))  # (X1/X2, X0/X2)
    return a0, a1, a2


def _p2_coord_maps(a0, a1, a2):
    x, y = a0.coords
    x1, y1 = a1.coords
    x2, y2 = a2.coords

    def v(ch, n):
        return RationalFunction.variable(ch.coords, n)

    def inv(rf):
        one = RationalFunction.constant(rf.variables, 1)
        return one / rf

    maps = {}
    maps[("A0", "A1")] = {x: inv(v(a1, x1)), y: v(a1, y1) / v(a1, x1)}
    maps[("A1", "A0")] = {x1: inv(v(a0, x)), y1: v(a0, y) / v(a0, x)}
    maps[("A0", "A2")] = {x: v(a2, x2) / v(a2, y2), y: inv(v(a2, y2))}
    maps[("A2", "A0")] = {x2: v(a0, x) / v(a0, y), y2: inv(v(a0, y))}
    maps[("A1", "A2")] = {x1: v(a2, y2) / v(a2, x2), y1: inv(v(a2, x2))}
    maps[("A2", "A1")] = {x2: inv(v(a1, y1)), y2: v(a1, x1) / v(a1, y1)}
    return maps


def proj_plane(x="x", y="y") -> CatalogVariety:
    a0, a1, a2 = _p2_charts(x, y)
    names = {x, y, *a1.coords, *a2.coords}
    if len(names) != 6:
        raise GeometryError("coordinate names collide with chart suffixes")
    maps = _p2_coord_maps(a0, a1, a2)
    return CatalogVariety("P2", "P2(%s,%s)" % (x, y), [a0, a1, a2], maps, 2)


def plane_curve(p: Polynomial) -> CatalogVariety:
    """Smooth plane curve in P2, defined by p on the affine chart.

    Smoothness is certified once per point: on A0, then on the new locus
    of A1 and of A2."""
    if len(p.variables) != 2:
        raise GeometryError("plane curve needs a polynomial in two variables")
    x, y = p.variables
    if not p.depends_on(y):
        raise GeometryError("defining polynomial must depend on %s" % y)
    if not is_squarefree(p):
        raise GeometryError("defining polynomial is not squarefree")
    a0, a1, a2 = _p2_charts(x, y)
    maps = _p2_coord_maps(a0, a1, a2)
    curve_polys = {"A0": p}
    for cid in ("A1", "A2"):
        rf = p.substitute(maps[("A0", cid)])
        curve_polys[cid] = _canonical_assoc(rf.num)
    curve = CatalogVariety(
        "curve", "Curve(%s)" % p, [a0, a1, a2], maps, 1, curve_polys=curve_polys
    )
    for cid, q in curve_polys.items():
        pts, complete = _new_zeros_2d(_singular_system(q), q.variables, curve.new_locus(cid))
        if pts:
            raise GeometryError(
                "curve is singular (chart %s, witness %s)" % (cid, _point_text(pts[0]))
            )
        if not complete:
            raise GeometryError(
                "cannot certify smoothness of %s: irrational candidate locus" % q
            )
    return curve


def catalog_build(spec: str) -> CatalogVariety:
    """Variety mini-syntax: P1(z), P1(z1) x P1(z2), P2(x,y), Curve(p(x,y))."""
    from .parsing import parse_polynomial

    s = spec.strip()
    if s.startswith("Curve(") and s.endswith(")"):
        return plane_curve(parse_polynomial(s[6:-1]))
    parts = [part.strip() for part in s.split(" x ")]
    if len(parts) > 1:
        coords = []
        for part in parts:
            if not (part.startswith("P1(") and part.endswith(")")):
                raise GeometryError("products may only combine P1 factors: %r" % part)
            coords.append(part[3:-1].strip())
        return product_of_lines(coords)
    if s.startswith("P1(") and s.endswith(")"):
        return proj_line(s[3:-1].strip())
    if s.startswith("P2(") and s.endswith(")"):
        names = [t.strip() for t in s[3:-1].split(",")]
        if len(names) != 2:
            raise GeometryError("P2 takes two coordinate names")
        return proj_plane(*names)
    if s == "Point":
        return point_variety()
    raise GeometryError("unsupported variety spec %r" % spec)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class VarietyPoint:
    """Canonical rational point of a catalog variety.

    Products store a tuple with Fraction or INF per factor; P2 and
    curves store a normalized homogeneous triple [X0:X1:X2].
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = tuple(data)

    @staticmethod
    def product_point(values) -> "VarietyPoint":
        return VarietyPoint("product", tuple(
            v if v == INF else Fraction(v) for v in values
        ))

    @staticmethod
    def plane_point(triple) -> "VarietyPoint":
        triple = [Fraction(t) for t in triple]
        if all(t == 0 for t in triple):
            raise GeometryError("invalid homogeneous triple")
        for t in triple:
            if t != 0:
                triple = [u / t for u in triple]
                break
        return VarietyPoint("plane", tuple(triple))

    def finite_chart(self, variety: CatalogVariety):
        """(chart, {coord: Fraction}) for the first chart containing the point."""
        if variety.kind == "point":
            return variety.main_chart, {}
        if variety.kind in ("P1", "product"):
            # the first chart inverts exactly the factors at infinity
            names, values = [], {}
            for c, v in zip(variety.factors, self.data):
                names.append(_inv_name(c) if v == INF else c)
                values[names[-1]] = Fraction(0) if v == INF else Fraction(v)
            return variety.chart("|".join(names)), values
        # plane kinds
        X0, X1, X2 = self.data
        if X0 != 0:
            ch = variety.chart("A0")
            return ch, {ch.coords[0]: X1 / X0, ch.coords[1]: X2 / X0}
        if X1 != 0:
            ch = variety.chart("A1")
            return ch, {ch.coords[0]: X0 / X1, ch.coords[1]: X2 / X1}
        ch = variety.chart("A2")
        return ch, {ch.coords[0]: X1 / X2, ch.coords[1]: X0 / X2}

    def sort_key(self):
        def k(v):
            return (1,) if v == INF else (0, v)

        return (self.kind, tuple(k(v) for v in self.data))

    def __eq__(self, other):
        return (
            isinstance(other, VarietyPoint)
            and self.kind == other.kind
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.kind, self.data))

    def __repr__(self):
        return "VarietyPoint(%s)" % (self,)

    def __str__(self):
        if self.kind == "plane":
            return "[%s]" % ":".join(str(t) for t in self.data)
        return "(%s)" % ", ".join("inf" if v == INF else str(v) for v in self.data)


def point_from_chart(variety: CatalogVariety, chart_id, values: dict) -> VarietyPoint:
    """Canonical point from exact chart coordinates."""
    chart = variety.chart(chart_id)
    if variety.kind == "point":
        return VarietyPoint("product", ())
    if variety.kind in ("P1", "product"):
        out = []
        for coord in chart.coords:
            v = Fraction(values[coord])
            if coord.endswith("_"):
                out.append(INF if v == 0 else 1 / v)
            else:
                out.append(v)
        return VarietyPoint.product_point(out)
    a, b = (Fraction(values[c]) for c in chart.coords)
    if chart_id == "A0":
        return VarietyPoint.plane_point((1, a, b))
    if chart_id == "A1":
        return VarietyPoint.plane_point((a, 1, b))
    return VarietyPoint.plane_point((b, a, 1))


# ---------------------------------------------------------------------------
# divisor components
# ---------------------------------------------------------------------------


class DivisorComponent:
    """Chart-wise defining polynomials of one divisor component; `point`
    is the point of P1 (a Fraction, or INF) that a component made by
    `point_component` cuts out, None for any other."""

    __slots__ = ("variety", "polys", "label", "point")

    def __init__(self, variety, polys, label, point=None):
        self.variety = variety
        self.polys = dict(polys)
        self.label = label
        self.point = point

    @staticmethod
    def from_chart_poly(variety: CatalogVariety, chart_id, poly: Polynomial, label=None):
        chart = variety.chart(chart_id)
        if poly.variables != chart.coords:
            poly = poly.lift(chart.coords)
        if poly.is_constant():
            raise GeometryError("defining polynomial must be nonconstant")
        poly = _canonical_assoc(poly)
        polys = {chart_id: poly}
        for other in variety.charts:
            if other.id == chart_id:
                continue
            mapping = variety.coord_map(chart_id, other.id)
            rf = poly.substitute(mapping)
            q = _canonical_assoc(rf.num)
            if q.is_constant():
                q = Polynomial.constant(other.coords, 1)
            polys[other.id] = q
        if label is None:
            label = "{%s}" % poly
        return DivisorComponent(variety, polys, label)

    def poly_on(self, chart_id) -> Polynomial:
        return self.polys[chart_id]

    def visible_on(self, chart_id) -> bool:
        return not self.polys[chart_id].is_constant()

    def first_visible_chart(self):
        for c in self.variety.charts:
            if self.visible_on(c.id):
                return c
        raise GeometryError("component %s visible on no chart" % self.label)

    def key(self):
        return tuple(sorted((cid, p) for cid, p in self.polys.items()))

    def __eq__(self, other):
        return isinstance(other, DivisorComponent) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "DivisorComponent(%s)" % self.label


def point_component(variety: CatalogVariety, pt: VarietyPoint, label=None) -> DivisorComponent:
    """Divisor component cutting one rational point on a 1-dim variety: on
    each chart, its coordinate minus the point's value there
    (`line_with_root`), 1 off it; labelled by its text on the point's
    first chart."""
    if variety.dimension != 1:
        raise GeometryError("point components only on 1-dimensional varieties")
    if variety.kind != "P1":
        raise GeometryError("point components only supported on P1 sources")
    (r,) = pt.data
    main, inf = variety.charts
    values = ((main, r), (inf, Fraction(0) if r == INF else INF if r == 0 else 1 / r))
    polys = {ch.id: Polynomial.constant(ch.coords, 1) if v == INF else line_with_root(ch.coords, v)
             for ch, v in values}
    if label is None:
        x, v = (inf.coords[0], 0) if r == INF else (main.coords[0], r)
        label = "{%s}" % (x if v == 0 else "%s - %s" % (x, v) if v > 0 else "%s + %s" % (x, -v))
    return DivisorComponent(variety, polys, label, r)


def infinity_component(variety: CatalogVariety, factor=None) -> DivisorComponent:
    """The point inf of P1, {factor = inf} on a product of lines, or the
    line at infinity of P2."""
    if variety.kind == "P1":
        return point_component(variety, VarietyPoint.product_point([INF]))
    if variety.kind == "P2":
        chart = variety.chart("A1")
        p = Polynomial.variable(chart.coords, chart.coords[0])
        return DivisorComponent.from_chart_poly(variety, "A1", p, "{line at infinity}")
    if variety.kind != "product" or factor not in variety.factors:
        raise GeometryError("no component at infinity %s on %s" % (factor, variety.name))
    inv = _inv_name(factor)
    chart = next(ch for ch in variety.charts if inv in ch.coords)
    p = Polynomial.variable(chart.coords, inv)
    return DivisorComponent.from_chart_poly(variety, chart.id, p, "{%s = inf}" % factor)


# ---------------------------------------------------------------------------
# exact 2D elimination
# ---------------------------------------------------------------------------


def _resultant_eliminate(polys, var):
    """Resultants of the first poly depending on var against the rest."""
    pivot = None
    others = []
    for p in polys:
        if pivot is None and p.depends_on(var):
            pivot = p
        else:
            others.append(p)
    if pivot is None:
        return [p.specialize({var: 0}) for p in polys]
    out = []
    for p in others:
        if p.depends_on(var):
            out.append(poly_resultant(pivot, p, var))
        else:
            out.append(p.specialize({var: 0}))
    if not out:
        out.append(Polynomial.constant(tuple(v for v in pivot.variables if v != var), 1))
    return out


def _gcd_roots(polys):
    """(roots, complete) of the gcd of nonzero univariate polynomials:
    ([], True) when it is a unit, else its `rational_roots`."""
    g = polys[0]
    for q in polys[1:]:
        if g.is_unit():
            break
        g = poly_gcd(g, q)
    if g.is_unit():
        return [], True
    return rational_roots(g)


def common_zeros_2d(polys, coords):
    """Common rational zeros of a 2-variable system.

    Returns (points, complete): `points` is a list of (Fraction, Fraction);
    `complete` is False when elimination left an irrational factor whose
    zeros could not be enumerated.  The second coordinate is eliminated
    first.
    """
    x, y = coords
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return [], False
    elim = [p for p in _resultant_eliminate(polys, y) if not p.is_zero()]
    if not elim:
        return [], False
    roots, complete = _gcd_roots(elim)
    pts = []
    for x0, _ in roots:
        fiber = [q for q in (p.specialize({x: x0}) for p in polys) if not q.is_zero()]
        if not fiber:
            return [], False
        yroots, ysplit = _gcd_roots(fiber)
        complete = complete and ysplit
        pts.extend((x0, y0) for y0, _ in yroots)
    return pts, complete


def _new_zeros_2d(polys, coords, locus):
    """Common rational zeros of a 2-variable system on a chart's new locus.

    Returns (points, complete) as `common_zeros_2d` does on the main chart
    (locus ()), in the other elimination order too if the first is
    incomplete.  On a line {z = 0} the system restricts to one variable and
    its zeros are the rational roots of a gcd; on (0, 0) it is evaluation.
    """
    if not locus:
        pts, complete = common_zeros_2d(polys, coords)
        if pts or complete:
            return pts, complete
        pts, complete = common_zeros_2d(polys, coords[::-1])
        return [pt[::-1] for pt in pts], complete
    zero = dict.fromkeys(locus, Fraction(0))
    nonzero = [q for q in (p.specialize(zero) for p in polys) if not q.is_zero()]
    if len(locus) == len(coords):
        return ([] if nonzero else [tuple(zero[v] for v in coords)]), True
    if not nonzero:
        return [], False
    roots, split = _gcd_roots(nonzero)
    return [tuple(zero.get(v, r) for v in coords) for r, _ in roots], split


def _point_text(point) -> str:
    """A chart point as (1, 1/2)."""
    return "(%s)" % ", ".join(str(v) for v in point)


def _singular_system(p: Polynomial):
    """p and its two partials, whose common zeros are the singular points."""
    x, y = p.variables
    return [p, p.differentiate(x), p.differentiate(y)]


# ---------------------------------------------------------------------------
# normal crossing validation
# ---------------------------------------------------------------------------


class NCReport:
    def __init__(self):
        self.ok = True
        self.failures = []  # list of dicts {reason, chart, members, witness}

    def fail(self, reason, chart, members, witness=None):
        self.ok = False
        self.failures.append(
            {
                "reason": reason,
                "chart": chart,
                "members": [m.label for m in members],
                "witness": str(witness) if witness is not None else None,
            }
        )

    def message(self):
        if self.ok:
            return "normal crossing: accepted"
        lines = ["normal crossing: rejected"]
        for f in self.failures:
            lines.append(
                "  %s on chart %s: %s (witness %s)"
                % (f["reason"], f["chart"], ", ".join(f["members"]), f["witness"])
            )
        return "\n".join(lines)


def validate_normal_crossing(components, variety: CatalogVariety) -> NCReport:
    """Normal crossing of the components, each object certified once.

    A pair is tested for a shared factor on the first chart where both are
    visible, and again on a later chart only when both contain its new
    locus {z = 0}: the one factor no earlier chart shows.  Transversality
    and triple points are checked on each chart's new locus only: every
    other point of chart j lies in an earlier chart, where it was checked.
    Squarefreeness is tested once per component, on its first visible
    chart; smoothness, for a component of degree >= 2 there (a line is
    smooth), on each 2-dimensional chart's new locus.
    """
    if variety.dimension > 2:
        raise GeometryError(
            "normal crossing is checked up to dimension 2, not on %s" % variety.name
        )
    report = NCReport()
    components = list(components)
    for comp in components:
        if comp.variety is not variety and comp.variety != variety:
            raise GeometryError("component %s lives on a different variety" % comp.label)
    tested = set()  # pairs (i, j) already tested for a shared factor
    shared = set()  # pairs sharing a factor: no transversality or triple-point check
    curved = {}  # i -> component i is squarefree of degree >= 2 on its first chart
    for chart in variety.charts:
        locus = variety.new_locus(chart.id)
        vis = [i for i, c in enumerate(components) if c.visible_on(chart.id)]
        polys = {i: components[i].poly_on(chart.id) for i in vis}
        for i in vis:
            if i not in curved:  # its first visible chart
                squarefree = is_squarefree(polys[i])
                if not squarefree:
                    report.fail("component not squarefree", chart.id, [components[i]], polys[i])
                curved[i] = squarefree and polys[i].total_degree() > 1
        along = set()  # components containing the new locus {z = 0}
        if len(locus) == 1:
            zero = dict.fromkeys(locus, 0)
            along = {i for i in vis if polys[i].specialize(zero).is_zero()}
        pairs = list(itertools.combinations(vis, 2))
        for pair in pairs:
            if pair not in tested or set(pair) <= along:
                g = poly_gcd(polys[pair[0]], polys[pair[1]])
                if not g.is_unit():
                    report.fail(
                        "components share a factor", chart.id,
                        [components[i] for i in pair], g,
                    )
                    shared.add(pair)
            tested.add(pair)
        if chart.dimension == 2:
            _check_zeros_2d(
                [([components[i]], _singular_system(polys[i])) for i in vis if curved[i]],
                chart, locus, report,
                "component singular",
                "cannot certify smoothness (irrational locus)",
            )
            transversal = []
            for i, j in pairs:
                if (i, j) not in shared:
                    J = _jacobian_minor(polys[i], polys[j], chart.coords)
                    transversal.append(
                        ([components[i], components[j]], [polys[i], polys[j], J])
                    )
            _check_zeros_2d(
                transversal, chart, locus, report,
                "tangential intersection",
                "cannot certify transversality (irrational locus)",
            )
            _check_zeros_2d(
                [([components[i] for i in trio], [polys[i] for i in trio])
                 for trio in itertools.combinations(vis, 3)
                 if not any(pair in shared for pair in itertools.combinations(trio, 2))],
                chart, locus, report,
                "three components through one point in dimension 2",
                "cannot certify triple-point freeness (irrational locus)",
            )
    return report


def _jacobian_minor(p, q, coords):
    x, y = coords
    return p.differentiate(x) * q.differentiate(y) - p.differentiate(y) * q.differentiate(x)


def _check_zeros_2d(groups, chart, locus, report, met, unsure):
    """Fail each group (components, polys) whose polys have a common zero
    on the new locus with reason `met` and that zero as witness, or with
    reason `unsure` when the zeros could not be enumerated."""
    for comps, ps in groups:
        pts, complete = _new_zeros_2d(ps, chart.coords, locus)
        if pts:
            report.fail(met, chart.id, comps, _point_text(pts[0]))
        elif not complete:
            report.fail(unsure, chart.id, comps, "resultant does not split over Q")


# ---------------------------------------------------------------------------
# curve quotient-ring arithmetic
# ---------------------------------------------------------------------------


def curve_reduce(rf: RationalFunction, curve: CatalogVariety):
    """Canonical representative of rf in the curve's function ring Q(x)[y]/(p).

    Returned as the remainder modulo p, of y-degree below p's, in
    PolyRing([y], QQ(x, TAU)).
    """
    x, y = curve.main_chart.coords
    if rf.variables != (x, y):
        rf = rf.lift((x, y))

    def in_y(p):
        return to_univariate(RationalFunction.from_poly(p), y)

    m = in_y(curve.curve_polys["A0"])
    num, den = in_y(rf.num).rem(m), in_y(rf.den).rem(m)
    if not den:
        raise ZeroDivisionError("denominator is a zero-divisor on the curve")
    return (num * inverse_mod(den, m)).rem(m)
