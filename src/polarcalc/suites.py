"""Named verification suites.

Each suite is a callable `suite(seed=0) -> SuiteResult` shared by
`polarcalc verify --suite <name>` and the acceptance tests.  The seed
drives only the suite's own sampling; the engine draws no random numbers.
Every check is exact: rational arithmetic throughout, zero tolerance.

A suite is written as `body(rng) -> (summary, details)` and registered
with `@_suite(name, *provenance)`; it passes when `details["failures"]`
is empty.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from .chains import (
    ChainError,
    PolarChain,
    boundary,
    boundary_witness_p1,
    check_d_squared,
    make_triple,
    normalize_chain,
    point_term,
    term_weight,
)
from .forms import DifferentialForm
from .geometry import (
    DivisorComponent,
    VarietyPoint,
    infinity_component,
    point_component,
    product_of_lines,
    proj_line,
    proj_plane,
)
from .homotopy import cylinder_homotopy, verify_homotopy_identity
from .maps import VarietyMap
from .parsing import TokenStream, parse_form, tokenize
from .polynomials import Polynomial, RationalFunction
from .residue import iterated_residue, poincare_residue, total_residue_p1


class SuiteResult:
    def __init__(self, name, passed, summary, details=None, provenance=()):
        self.name = name
        self.passed = passed
        self.summary = summary
        self.details = details or {}
        self.provenance = list(provenance)


_SUITES = {}


def _suite(name, *provenance):
    """Register `body(rng) -> (summary, details)` as the suite `name`."""

    def register(body):
        def suite(seed=0):
            summary, details = body(random.Random(seed))
            return SuiteResult(name, not details["failures"], summary,
                               details, provenance)

        _SUITES[name] = suite
        return suite

    return register


# ---------------------------------------------------------------------------
# randomized building blocks
# ---------------------------------------------------------------------------


def _rand_fraction(rng, lo=-6, hi=6, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _distinct_fractions(rng, count, lo=-6, hi=6, den=4):
    seen = set()
    out = []
    while len(out) < count:
        v = _rand_fraction(rng, lo, hi, den)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _dlog_split_poly(coords, var, roots):
    """d log of a split polynomial prod (var - root): exact rational data."""
    v = Polynomial.variable(coords, var)
    return _product([v - Polynomial.constant(coords, r) for r in roots], coords)


def _dlog_form(chart, coords, p):
    rf = RationalFunction.from_poly(p)
    f = DifferentialForm.function(chart, coords, rf)
    return f.exterior_derivative().multiply(
        RationalFunction.constant(coords, 1) / rf
    )


def _coordinate_line(amb, var, value):
    """The component {var = value} on the main chart of `amb`."""
    coords = amb.main_chart.coords
    return DivisorComponent.from_chart_poly(
        amb, amb.main_chart.id,
        Polynomial.variable(coords, var) - Polynomial.constant(coords, value),
    )


def _p1_dlog(rng, line, *bounds):
    """(form, declared poles) of d log prod (z - r) over 1-2 random roots."""
    coords = line.main_chart.coords
    roots = _distinct_fractions(rng, rng.randint(1, 2), *bounds)
    p = _dlog_split_poly(coords, "z", roots)
    form = _dlog_form(line.main_chart.id, coords, p)
    decl = [
        point_component(line, VarietyPoint.product_point([r])) for r in roots
    ] + [infinity_component(line)]
    return form, decl


def _random_p1_chain(rng):
    line = proj_line("z")
    form, decl = _p1_dlog(rng, line)
    t = make_triple(line, VarietyMap.identity(line), form, decl)
    return PolarChain(line, [t])


def _random_product_chain(rng):
    amb = product_of_lines(["z1", "z2"])
    coords = amb.main_chart.coords
    chart = amb.main_chart.id
    decl = []
    form = None
    for var in ("z1", "z2"):
        roots = _distinct_fractions(rng, rng.randint(1, 2))
        p = _dlog_split_poly(coords, var, roots)
        f = _dlog_form(chart, coords, p)
        form = f if form is None else form.wedge(f)
        decl.extend(_coordinate_line(amb, var, r) for r in roots)
        decl.append(infinity_component(amb, var))
    t = make_triple(amb, VarietyMap.identity(amb), form, decl)
    return PolarChain(amb, [t])


def _random_p2_chain(rng):
    """Wedge of d log of two split polynomials in affine lines, NC-checked."""
    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    chart = plane.main_chart.id
    for _ in range(60):
        lines = []
        count = rng.randint(2, 3)
        while len(lines) < count:
            a = rng.choice([0, 0, 1, 1, -1, 2])
            b = rng.choice([0, 1, 1, -1, 3]) if a else rng.choice([1, -1, 2])
            c = _rand_fraction(rng, -4, 4, 2)
            x = Polynomial.variable(coords, "x")
            y = Polynomial.variable(coords, "y")
            q = (x * Polynomial.constant(coords, a) + y * Polynomial.constant(coords, b)
                 + Polynomial.constant(coords, c))
            if not any(_proportional(q, other, coords) for other in lines):
                lines.append(q)
        split = rng.randint(1, count - 1)
        p1 = _product(lines[:split], coords)
        p2 = _product(lines[split:], coords)
        form = _dlog_form(chart, coords, p1).wedge(_dlog_form(chart, coords, p2))
        if form.is_zero():
            continue
        decl = [
            DivisorComponent.from_chart_poly(plane, chart, q) for q in lines
        ] + [infinity_component(plane)]
        try:  # make_triple's normal-crossing check filters the sample
            t = make_triple(plane, VarietyMap.identity(plane), form, decl)
        except ChainError:
            continue
        return PolarChain(plane, [t])
    raise ChainError("could not sample an admissible plane chain")


def _product(polys, coords):
    out = Polynomial.constant(coords, 1)
    for p in polys:
        out = out * p
    return out


def _proportional(p, q, coords):
    lp = Polynomial.constant(coords, p.leading()[1])
    lq = Polynomial.constant(coords, q.leading()[1])
    return (p * lq - q * lp).is_zero()


def _random_poly(rng, coords, max_deg):
    """A random constant plus each monomial of total degree 1..max_deg,
    drawn with probability 0.7 and a random coefficient."""
    p = Polynomial.constant(coords, _rand_fraction(rng))
    for deg in range(1, max_deg + 1):
        for mono in combinations_with_replacement(coords, deg):
            if rng.random() < 0.7:
                term = [Polynomial.variable(coords, v) for v in mono]
                p = p + _product(term, coords) * Polynomial.constant(
                    coords, _rand_fraction(rng))
    if p.is_zero():
        p = Polynomial.constant(coords, 1)
    return p


# ---------------------------------------------------------------------------
# suite 1: boundary squared vanishes
# ---------------------------------------------------------------------------


@_suite("dsq-random", "boundary squared vanishes",
        "pairwise residue cancellation")
def suite_dsq_random(rng):
    kinds = ["P1"] * 80 + ["P1xP1"] * 70 + ["P2"] * 50
    sample = {"P1": _random_p1_chain, "P1xP1": _random_product_chain,
              "P2": _random_p2_chain}
    failures = []
    for i, kind in enumerate(kinds):
        chain = sample[kind](rng)
        rep = check_d_squared(chain)
        if not rep["zero"]:
            failures.append({"case": i, "kind": kind,
                             "chain": chain.render(),
                             "second": rep["second"].render()})
    return ("boundary applied twice is exactly zero on %d/%d random chains"
            % (len(kinds) - len(failures), len(kinds)),
            {"failures": failures})


# ---------------------------------------------------------------------------
# suite 2: iterated residue anticommutativity
# ---------------------------------------------------------------------------


@_suite("residue-anticommute", "pairwise residue cancellation")
def suite_residue_anticommute(rng):
    failures = []
    for i in range(50):
        if rng.random() < 0.5:
            amb = product_of_lines(["z1", "z2"])
            c1 = _coordinate_line(amb, "z1", _rand_fraction(rng))
            c2 = _coordinate_line(amb, "z2", _rand_fraction(rng))
        else:
            amb = proj_plane("x", "y")
            c1 = _coordinate_line(amb, "x", _rand_fraction(rng))
            c2 = _coordinate_line(amb, "y", 0)
        coords = amb.main_chart.coords
        chart = amb.main_chart.id
        num = _random_poly(rng, coords, 2)
        den = c1.poly_on(chart) * c2.poly_on(chart)
        omega = DifferentialForm(
            chart, coords, 2, {(0, 1): RationalFunction(num, den)}
        )
        fwd = iterated_residue(omega, c1, c2, amb)
        bwd = iterated_residue(omega, c2, c1, amb)
        if not (fwd.value + bwd.value).is_zero():
            failures.append({"case": i, "forward": str(fwd.value),
                             "backward": str(bwd.value)})
    return ("iterated residues anticommute on %d/50 randomized pairs"
            % (50 - len(failures)),
            {"failures": failures})


# ---------------------------------------------------------------------------
# the five-example homotopy corpus (suites 3 and 4)
# ---------------------------------------------------------------------------


def homotopy_corpus():
    """Five (label, chain, basepoint) cases; the third requires repair."""
    line = proj_line("z")
    cases = [
        ("weighted point 5.[2]",
         PolarChain(line, [point_term(
             line, VarietyPoint.product_point([2]), Polynomial.scalar(5))]),
         Fraction(0)),
        ("weighted point -7/2.[-1/2]",
         PolarChain(line, [point_term(
             line, VarietyPoint.product_point([Fraction(-1, 2)]),
             Polynomial.scalar(Fraction(-7, 2)))]),
         Fraction(1)),
    ]
    amb = product_of_lines(["t", "z"])
    src = proj_line("t")
    tc = src.main_chart.coords

    def section_chain(g_rf, form, decl_roots, inf_pole=False):
        decl = [
            point_component(src, VarietyPoint.product_point([r]))
            for r in decl_roots
        ]
        if inf_pole:
            decl.append(infinity_component(src))
        m = VarietyMap(src, amb, amb.main_chart.id, {
            "t": RationalFunction.variable(tc, "t"),
            "z": g_rf,
        })
        t = make_triple(src, m, form, decl)
        return PolarChain(amb, [t])

    t_rf = RationalFunction.variable(tc, "t")
    one = Polynomial.constant(tc, 1)
    tp = Polynomial.variable(tc, "t")
    ch = src.main_chart.id
    # diagonal section, poles at 0 and 1: basepoint 0 forces the repair
    cases.append((
        "diagonal section, dlog(t/(t-1)) (repair case)",
        section_chain(
            t_rf,
            _dlog_form(ch, tc, tp) - _dlog_form(ch, tc, tp - one),
            [Fraction(0), Fraction(1)],
        ),
        Fraction(0),
    ))
    # diagonal-free crossings: poles away from the graph/section overlaps
    two = Polynomial.constant(tc, 2)
    three = Polynomial.constant(tc, 3)
    cases.append((
        "diagonal section, dlog((t-2)/(t-3))",
        section_chain(
            t_rf,
            _dlog_form(ch, tc, tp - two) - _dlog_form(ch, tc, tp - three),
            [Fraction(2), Fraction(3)],
        ),
        Fraction(0),
    ))
    # affine section z = 2t + 1 with dlog(t)
    g = t_rf * RationalFunction.constant(tc, 2) + (
        RationalFunction.constant(tc, 1)
    )
    cases.append((
        "section z = 2t+1, dlog(t)",
        section_chain(g, _dlog_form(ch, tc, tp), [Fraction(0)], inf_pole=True),
        Fraction(0),
    ))
    return cases


def _residue_sums(chain, tag_of, part):
    """{tag: sum of the residues' `part` ("value" or "form")} over the
    declared poles of each term that `tag_of(component)` tags (not None)."""
    sums = {}
    for lam, t in chain.terms:
        for comp in t.declared_poles:
            tag = tag_of(comp)
            if tag is None:
                continue
            res = getattr(poincare_residue(t.form.scale(lam), comp, t.source), part)
            sums[tag] = sums[tag] + res if tag in sums else res
    return sums


@_suite("homotopy-table", "cylinder residue table", "basepoint repair")
def suite_homotopy_table(rng):
    failures = []
    details = []
    for label, chain, basepoint in homotopy_corpus():
        cyl = cylinder_homotopy(chain, basepoint)
        repaired = any(r.get("repaired") for r in cyl.records)
        errs = _check_residue_table(chain, cyl, basepoint)
        details.append({"case": label, "repaired": repaired, "errors": errs})
        if errs:
            failures.append({"case": label, "errors": errs})
    repaired_seen = any(d["repaired"] for d in details)
    if not repaired_seen:
        failures.append({"case": "corpus", "errors": ["no repair case present"]})
    return ("cylinder residue table holds on all %d corpus cases "
            "(repair exercised: %s)" % (len(details), repaired_seen),
            {"cases": details, "failures": failures})


def _check_residue_table(chain, cyl, basepoint):
    """TAU.res_graph = alpha, TAU.res_section = -alpha, vertical rows."""
    errs = []
    lam0, t0 = chain.terms[0]
    tau = Polynomial.scalar(1, 1)
    if t0.degree == 0:
        w = lam0 * term_weight(t0)
        v = t0.map.image_point().data[0]
        if v == Fraction(basepoint):
            if not cyl.chain.is_zero():
                errs.append("basepoint term should have zero image")
            return errs
        line = cyl.chain.ambient
        rows = {
            point_component(line, VarietyPoint.product_point([v])): "graph",
            point_component(
                line, VarietyPoint.product_point([Fraction(basepoint)])
            ): "section",
        }
        got = _residue_sums(cyl.chain, rows.get, "value")
        if "graph" not in got or tau * got["graph"] != w:
            errs.append("graph row: TAU.res != weight")
        if "section" not in got or tau * got["section"] != -w:
            errs.append("section row: TAU.res != -weight")
        return errs

    # line-source case: compare pulled-back residues with alpha itself
    alpha = t0.form.scale(lam0)
    amb = cyl.chain.ambient
    zc = amb.factors[-1]

    def classify(comp):
        ch = comp.first_visible_chart()
        p = comp.poly_on(ch.id)
        if p.degree_in(zc if zc in ch.coords else zc + "_") == 0:
            return None  # vertical: checked row by row below
        if _is_section_at(p, ch, zc, Fraction(basepoint)):
            return "section"
        if _is_section_at(p, ch, zc, None):
            return "shift"  # repaired basepoint section
        return "graph"

    acc = _residue_sums(cyl.chain, classify, "form")
    graph = acc.get("graph")
    sect = acc.get("section")
    if graph is None or not _forms_match(graph.scale(tau), alpha):
        errs.append("graph row: TAU.res_graph != alpha")
    if sect is None or not _forms_match(sect.scale(tau), alpha.scale(Polynomial.scalar(-1))):
        errs.append("section row: TAU.res_section != -alpha")
    shift = acc.get("shift")
    if shift is not None and not shift.is_zero():
        errs.append("repaired-section residues do not cancel")
    # vertical row: residue along a lifted pole equals the transported kernel
    errs.extend(_check_vertical_rows(chain, cyl, basepoint))
    return errs


def _is_section_at(p, ch, zc, value):
    """Does p cut a coordinate line {zc = const}, optionally at `value`?

    Horizontal sections take the cylinder coordinate z, vertical lines t."""
    name = zc if zc in ch.coords else zc + "_"
    if name not in ch.coords or p.degree_in(name) != 1:
        return False
    if any(p.degree_in(c) != 0 for c in ch.coords if c != name):
        return False
    if value is None:
        return True
    if name.endswith("_"):
        if value == 0:
            return False
        value = 1 / Fraction(value)
    point = {c: Fraction(0) for c in ch.coords}
    point[name] = Fraction(value)
    return p.evaluate(point).is_zero()


def _forms_match(got, alpha):
    """Compare a residue form on P1(t) with alpha on the source line."""
    if got.degree != alpha.degree:
        return False
    g = got.sorted_components()
    a = alpha.sorted_components()
    if len(g) != len(a):
        return False
    for (gi, grf), (ai, arf) in zip(g, a):
        if gi != ai:
            return False
        if grf.rename(alpha.coords) != arf:
            return False
    return True


def _check_vertical_rows(chain, cyl, basepoint):
    """res along a lifted vertical pole equals kernel(z)*res_pole(alpha)."""
    errs = []
    lam0, t0 = chain.terms[0]
    amb = cyl.chain.ambient
    zc = amb.factors[-1]
    src = t0.source
    # rational finite poles of alpha on the source line
    for comp in t0.declared_poles:
        ch = comp.first_visible_chart()
        if ch.id != src.main_chart.id:
            continue  # skip the pole at infinity: handled by criterion 4
        p = comp.poly_on(ch.id)
        name = ch.coords[0]
        if p.degree_in(name) != 1:
            continue
        a = _linear_root_of(p, name)
        res_a = poincare_residue(t0.form.scale(lam0), comp, src).value
        g_at_a = _section_value(t0, amb, zc, a)
        if g_at_a is None:
            continue
        got = _vertical_residue(cyl.chain, amb.factors[0], a)
        if got is None:
            errs.append("vertical row: no residue found at t = %s" % a)
            continue
        # beta = (1/TAU) dz.kernel ^ alpha: contracting along t flips the sign
        expected = _kernel_form(
            got.coords, got.chart, zc, g_at_a, Fraction(basepoint)
        ).scale(-(res_a * Polynomial.scalar(1, -1)))
        if got != expected:
            errs.append("vertical row mismatch at t = %s" % a)
    return errs


def _linear_root_of(p, name):
    at0 = p.evaluate({name: Fraction(0)}).rational_value()
    at1 = p.evaluate({name: Fraction(1)}).rational_value()
    return -at0 / (at1 - at0)


def _section_value(t0, amb, zc, a):
    fs = t0.map.formulas_on(amb.main_chart.id)
    g = fs[zc]
    try:
        return g.evaluate(
            {t0.source.main_chart.coords[0]: Fraction(a)}
        ).rational_value()
    except ZeroDivisionError:
        return None


def _vertical_residue(cyl_chain, tc, a):
    """Summed residue form along the vertical lines {t = a}."""

    def at_a(comp):
        ch = comp.first_visible_chart()
        return "vertical" if _is_section_at(comp.poly_on(ch.id), ch, tc, a) else None

    return _residue_sums(cyl_chain, at_a, "form").get("vertical")


def _kernel_form(coords, chart, zc, g_value, c):
    """(1/(z - g) - 1/(z - c)) dz on the z-line."""
    z = Polynomial.variable(coords, zc)
    one = Polynomial.constant(coords, 1)
    k1 = RationalFunction(one, z - Polynomial.constant(coords, g_value))
    k2 = RationalFunction(one, z - Polynomial.constant(coords, c))
    idx = (coords.index(zc),)
    return DifferentialForm(chart, coords, 1, {idx: k1 - k2})


@_suite("homotopy-identity", "cylinder homotopy identity")
def suite_homotopy_identity(rng):
    failures = []
    cases = []
    for label, chain, basepoint in homotopy_corpus():
        rep = verify_homotopy_identity(chain, basepoint)
        cases.append({"case": label, "zero": rep["zero"]})
        if not rep["zero"]:
            failures.append({"case": label,
                             "residual": rep["residual"].render()})
    return ("dh + hd = id - s*pi* holds exactly on all %d corpus cases"
            % len(cases),
            {"cases": cases, "failures": failures})


# ---------------------------------------------------------------------------
# suite 5: boundary witnesses on the line
# ---------------------------------------------------------------------------


@_suite("witness-p1", "degree-zero witness on the line")
def suite_witness_p1(rng):
    line = proj_line("z")
    failures = []
    for i in range(100):
        k = rng.randint(2, 6)
        points = _distinct_fractions(rng, k, -9, 9, 5)
        weights = [_rand_fraction(rng, -5, 5, 3) for _ in range(k - 1)]
        weights.append(-sum(weights))
        cycle = [(v, Polynomial.scalar(w)) for v, w in zip(points, weights)]
        try:  # the witness certifies its own boundary
            boundary_witness_p1(cycle, line)
        except ChainError as exc:
            failures.append({"case": i, "error": str(exc)})
    reproduced = 100 - len(failures)
    try:
        boundary_witness_p1(
            [(Fraction(0), Polynomial.scalar(1)), (Fraction(1), Polynomial.scalar(1))], line
        )
    except ChainError:
        pass
    else:
        failures.append({"case": "refusal",
                         "error": "nonzero total weight was not refused"})
    return ("boundary witnesses reproduce %d/100 zero-sum cycles; "
            "nonzero totals refused" % reproduced,
            {"failures": failures})


# ---------------------------------------------------------------------------
# suite 6: global residue theorem on the line
# ---------------------------------------------------------------------------


@_suite("global-residue-p1", "global residue theorem on the line")
def suite_global_residue(rng):
    line = proj_line("z")
    coords = line.main_chart.coords
    chart = line.main_chart.id
    failures = []
    for i in range(100):
        k = rng.randint(1, 5)
        roots = _distinct_fractions(rng, k, -8, 8, 5)
        den = _dlog_split_poly(coords, "z", roots)
        num = _random_poly(rng, coords, k - 1)
        form = DifferentialForm(
            chart, coords, 1, {(0,): RationalFunction(num, den)}
        )
        total, breakdown = total_residue_p1(form, line)
        if not total.is_zero():
            failures.append({
                "case": i,
                "total": str(total),
                "breakdown": [(str(p), str(v)) for p, v in breakdown],
            })
    return ("total residue vanished on %d/100 random admissible forms"
            % (100 - len(failures)),
            {"failures": failures})


# ---------------------------------------------------------------------------
# suite 7: adjunction residue on elliptic curves
# ---------------------------------------------------------------------------


@_suite("adjunction", "adjunction residue", "independent decomposition oracle")
def suite_adjunction(rng):
    plane = proj_plane("x", "y")
    coords = plane.main_chart.coords
    chart = plane.main_chart.id
    failures = []
    count = 0
    while count < 10:
        a = _rand_fraction(rng, -4, 4, 2)
        b = _rand_fraction(rng, -4, 4, 2)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            continue
        x = Polynomial.variable(coords, "x")
        y = Polynomial.variable(coords, "y")
        g = x * x * x + x * Polynomial.constant(coords, a) + Polynomial.constant(coords, b)
        p = y * y - g
        comp = DivisorComponent.from_chart_poly(plane, chart, p)
        omega = DifferentialForm(
            chart, coords, 2,
            {(0, 1): RationalFunction(Polynomial.constant(coords, 1), p)},
        )
        res = poincare_residue(omega, comp, plane)
        got = res.form.components.get((0,))
        expected = _adjunction_oracle(coords, g)
        if got is None or got != expected:
            failures.append({
                "case": count, "a": str(a), "b": str(b),
                "got": str(got), "expected": str(expected),
            })
        count += 1
    return ("curve residue matched the linear-algebra oracle on %d/10 "
            "elliptic curves" % (10 - len(failures)),
            {"failures": failures})


def _adjunction_oracle(coords, g):
    """Solve p_x.v - p_y.u = 1 in Q(x)[y]/(y^2 - g) by linear algebra.

    With v = 0 and u = u0 + u1.y the congruence -2y.(u0 + u1.y) = 1 reads,
    after reducing y^2 to g, the 2x2 triangular system
        -2.g.u1 = 1,   -2.u0 = 0,
    giving rho = -(y / (2g)) dx.  Built here directly from that system,
    independently of the engine's curve-ring division.
    """
    y = Polynomial.variable(coords, "y")
    u1_num = y * Polynomial.constant(coords, Fraction(-1, 2))
    return RationalFunction(u1_num, g)


# ---------------------------------------------------------------------------
# suite 8: relations R2/R3 and boundary/normalization compatibility
# ---------------------------------------------------------------------------


@_suite("relations", "R1/R2/R3", "residue-boundary")
def suite_relations(rng):
    line = proj_line("z")
    coords = line.main_chart.coords
    chart = line.main_chart.id
    failures = []

    # (P1, z -> z^2, dz/z) - (P1, id, dz/z) normalizes to zero (R2)
    dz_over_z = _dlog_form(chart, coords, Polynomial.variable(coords, "z"))
    decl = [
        point_component(line, VarietyPoint.product_point([0])),
        infinity_component(line),
    ]
    t_sq = make_triple(line, _squaring(line), dz_over_z, decl)
    t_id = make_triple(line, VarietyMap.identity(line), dz_over_z, decl)
    pair = PolarChain(line, [(Polynomial.scalar(1), t_sq), (Polynomial.scalar(-1), t_id)])
    if not normalize_chain(pair).is_zero():
        failures.append({"check": "R2 squaring pair", "error": "nonzero"})

    # constant-map 1-dimensional terms prune under R3
    const_map = VarietyMap.constant(
        line, line, VarietyPoint.product_point([3])
    )
    t_const = make_triple(line, const_map, dz_over_z, decl)
    dropped = normalize_chain(PolarChain(line, [t_const]))
    if not dropped.is_zero():
        failures.append({"check": "R3 constant prune", "error": "kept"})

    # boundary commutes with normalization: 20 randomized two-term chains
    commuted = 20
    for i in range(20):
        chain = _random_relation_chain(rng, line)
        direct = boundary(chain).chain
        after = boundary(normalize_chain(chain)).chain
        if direct.key() != after.key():
            commuted -= 1
            failures.append({
                "case": i, "check": "boundary/normalize",
                "direct": direct.render(), "normalized-first": after.render(),
            })
    return ("R2 pair collapses, R3 prunes constants, boundary commutes with "
            "normalization on %d/20 random chains" % commuted,
            {"failures": failures})


def _squaring(line):
    coords = line.main_chart.coords
    return VarietyMap(line, line, line.main_chart.id, {
        "z": RationalFunction.variable(coords, "z") ** 2
    })


def _random_relation_chain(rng, line):
    terms = []
    for _ in range(rng.randint(1, 2)):
        form, decl = _p1_dlog(rng, line, -4, 4, 2)
        m = _squaring(line) if rng.random() < 0.4 else VarietyMap.identity(line)
        lam = Polynomial.scalar(_rand_fraction(rng, -3, 3, 2))
        if lam.is_zero():
            lam = Polynomial.scalar(1)
        terms.append((lam, make_triple(line, m, form, decl)))
    return PolarChain(line, terms)


# ---------------------------------------------------------------------------
# suite 9: CLI round-trips, replay determinism, exit codes
# ---------------------------------------------------------------------------

_REPLAY_SESSION = """
let A = P1(z);
let a = chain(A, id, dlog(z/(z-1)), poles[z, z-1]);
boundary a;
dsq a;
support a;
witness-p1 [(0, 1), (2, -3), (1/2, 2)];
let B = P1(z1) x P1(z2);
let b = chain(B, id, dlog(z1) wedge dlog(z2), poles[z1, z2, inf(z1), inf(z2)]);
dsq b;
"""

# label: (session text, documented exit code of `polarcalc run`)
_EXIT_SESSIONS = {
    "ok": ("let A = P1(z);\n"
           "let a = chain(A, id, dlog(z), poles[z, inf]);\n"
           "dsq a;\n", 0),
    "parse-error": ("let A = P1(z);\nboundary ;\n", 2),
    "compute-error": ("let A = P1(z);\n"
                      "let a = chain(A, id, d(z)/z^2, poles[z]);\n", 1),
}


@_suite("cli", "session grammar", "deterministic reports")
def suite_cli(rng):
    import json as _json

    from .session import (
        Session,
        parse_chain_expr,
        render_chain,
        render_form,
        run_text,
    )

    failures = []

    # 100 random form/chain round-trips through the renderer and parser
    line = proj_line("z")
    front = Session()
    front.bindings["A"] = line
    for i in range(100):
        if i % 2 == 0:
            coords = ("x", "y")
            form = _random_roundtrip_form(rng, coords)
            text = render_form(form)
            back = parse_form(text, coords, form.chart)
            if back != form:
                failures.append({"case": i, "kind": "form", "text": text})
        else:
            chain = _random_relation_chain(rng, line)
            chain = normalize_chain(chain)
            text = render_chain(chain, front)
            if chain.is_zero():
                continue
            back = parse_chain_expr(TokenStream(tokenize(text)), front)
            if back.key() != chain.key():
                failures.append({"case": i, "kind": "chain", "text": text})

    # replay determinism: identical bytes across two fresh sessions
    blobs = []
    for _ in range(2):
        s = Session()
        reports = run_text(s, _REPLAY_SESSION)
        blobs.append(_json.dumps(reports, sort_keys=True).encode("utf-8"))
    if blobs[0] != blobs[1]:
        failures.append({"kind": "replay", "error": "reports differ"})

    # documented exit codes
    codes = _observe_exit_codes()
    for label, (got, want) in codes.items():
        if got != want:
            failures.append({"kind": "exit-code", "scenario": label,
                             "got": got, "expected": want})
    return ("renderer round-trips, byte-identical replay, exit codes %s"
            % sorted(set(w for _, w in codes.values())),
            {"failures": failures,
             "exit_codes": {k: v[0] for k, v in codes.items()}})


def _random_roundtrip_form(rng, coords):
    deg = rng.choice([0, 1, 1, 2])
    components = {}
    indices = {
        0: [()],
        1: [(0,), (1,)],
        2: [(0, 1)],
    }[deg]
    for idx in indices:
        if rng.random() < 0.3 and deg == 1:
            continue
        num = _random_poly(rng, coords, 2)
        den = _random_poly(rng, coords, 1)
        components[idx] = RationalFunction(num, den)
    if not components:
        components[indices[0]] = RationalFunction.constant(coords, 1)
    return DifferentialForm("", coords, deg, components)


def _observe_exit_codes():
    """{label: (observed, documented exit code)} per scenario."""
    import contextlib
    import io
    import os
    import tempfile

    from .cli import main as cli_main

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv)

    scenarios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, (text, want) in _EXIT_SESSIONS.items():
            path = os.path.join(tmp, label + ".pc")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            scenarios[label] = (run(["run", path]), want)
    for verdict, want in (("fail", 3), ("pass", 0)):
        scenarios["verify-" + verdict] = (
            run(["verify", "--suite", "fixture-" + verdict]), want)
    return scenarios


# ---------------------------------------------------------------------------
# fixtures: exit-code plumbing checks, hidden from `suite_names`
# ---------------------------------------------------------------------------

_SUITES["fixture-fail"] = lambda seed=0: SuiteResult(
    "fixture-fail", False,
    "fixture suite that always fails (exit-code plumbing check)", {}, ["fixture"])
_SUITES["fixture-pass"] = lambda seed=0: SuiteResult(
    "fixture-pass", True,
    "fixture suite that always passes (exit-code plumbing check)", {}, ["fixture"])


def suite_names():
    return [n for n in _SUITES if not n.startswith("fixture-")]


def get_suite(name):
    return _SUITES[name]
