"""Named verification suites.

Each suite is a callable `suite(seed=0) -> SuiteResult` shared by
`polarcalc verify --suite <name>` and the acceptance tests.  The seed
drives only the suite's own sampling; the engine draws no random numbers.
Every check is exact: rational arithmetic throughout, zero tolerance.
"""

import random
from fractions import Fraction

from .chains import (
    ChainError,
    PolarChain,
    boundary,
    boundary_witness_p1,
    check_d_squared,
    make_triple,
    normalize_chain,
    point_term,
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
    p = Polynomial.constant(coords, 1)
    v = Polynomial.variable(coords, var)
    for r in roots:
        p = p * (v - Polynomial.constant(coords, r))
    return p


def _dlog_form(chart, coords, p):
    rf = RationalFunction.from_poly(p)
    f = DifferentialForm.function(chart, coords, rf)
    return f.exterior_derivative().multiply(
        RationalFunction.constant(coords, 1) / rf
    )


def _random_p1_chain(rng):
    line = proj_line("z")
    coords = line.main_chart.coords
    roots = _distinct_fractions(rng, rng.randint(1, 2))
    p = _dlog_split_poly(coords, "z", roots)
    form = _dlog_form(line.main_chart.id, coords, p)
    decl = [
        point_component(line, VarietyPoint.product_point([r])) for r in roots
    ] + [infinity_component(line)]
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
        for r in roots:
            q = Polynomial.variable(coords, var) - Polynomial.constant(coords, r)
            decl.append(DivisorComponent.from_chart_poly(amb, chart, q))
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


# ---------------------------------------------------------------------------
# suite 1: boundary squared vanishes
# ---------------------------------------------------------------------------


def suite_dsq_random(seed=0):
    rng = random.Random(seed)
    kinds = ["P1"] * 80 + ["P1xP1"] * 70 + ["P2"] * 50
    failures = []
    for i, kind in enumerate(kinds):
        if kind == "P1":
            chain = _random_p1_chain(rng)
        elif kind == "P1xP1":
            chain = _random_product_chain(rng)
        else:
            chain = _random_p2_chain(rng)
        rep = check_d_squared(chain)
        if not rep["zero"]:
            failures.append({"case": i, "kind": kind,
                             "chain": chain.render(),
                             "second": rep["second"].render()})
    return SuiteResult(
        "dsq-random", not failures,
        "boundary applied twice is exactly zero on %d/%d random chains"
        % (len(kinds) - len(failures), len(kinds)),
        {"failures": failures},
        ["boundary squared vanishes", "pairwise residue cancellation"],
    )


# ---------------------------------------------------------------------------
# suite 2: iterated residue anticommutativity
# ---------------------------------------------------------------------------


def suite_residue_anticommute(seed=0):
    rng = random.Random(seed)
    failures = []
    for i in range(50):
        if rng.random() < 0.5:
            amb = product_of_lines(["z1", "z2"])
            coords = amb.main_chart.coords
            chart = amb.main_chart.id
            a, b = _rand_fraction(rng), _rand_fraction(rng)
            c1 = DivisorComponent.from_chart_poly(
                amb, chart,
                Polynomial.variable(coords, "z1")
                - Polynomial.constant(coords, a),
            )
            c2 = DivisorComponent.from_chart_poly(
                amb, chart,
                Polynomial.variable(coords, "z2")
                - Polynomial.constant(coords, b),
            )
        else:
            amb = proj_plane("x", "y")
            coords = amb.main_chart.coords
            chart = amb.main_chart.id
            a = _rand_fraction(rng)
            c1 = DivisorComponent.from_chart_poly(
                amb, chart,
                Polynomial.variable(coords, "x")
                - Polynomial.constant(coords, a),
            )
            c2 = DivisorComponent.from_chart_poly(
                amb, chart, Polynomial.variable(coords, "y")
            )
        num = _random_poly(rng, coords, 2)
        den = c1.poly_on(chart) * c2.poly_on(chart)
        rf = RationalFunction(num, den)
        omega = DifferentialForm(
            chart, coords, 2, {(0, 1): rf}
        )
        fwd = iterated_residue(omega, c1, c2, amb)
        bwd = iterated_residue(omega, c2, c1, amb)
        if not (fwd.value + bwd.value).is_zero():
            failures.append({"case": i, "forward": str(fwd.value),
                             "backward": str(bwd.value)})
    return SuiteResult(
        "residue-anticommute", not failures,
        "iterated residues anticommute on %d/50 randomized pairs"
        % (50 - len(failures)),
        {"failures": failures},
        ["pairwise residue cancellation"],
    )


def _random_poly(rng, coords, max_deg):
    p = Polynomial.constant(coords, _rand_fraction(rng))
    for v in coords:
        if rng.random() < 0.7:
            term = Polynomial.variable(coords, v) * Polynomial.constant(
                coords, _rand_fraction(rng)
            )
            p = p + term
    if p.is_zero():
        p = Polynomial.constant(coords, 1)
    return p


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


def _aggregate_residue(cyl_chain, matcher):
    """Sum of per-term residues along components selected by `matcher`.

    Returns (total_form_by_key, sample) where forms are compared through
    (target signature, embedded description, form) tuples accumulated by sum.
    """
    acc = {}
    for lam, t in cyl_chain.terms:
        for comp in t.declared_poles:
            tag = matcher(comp, t)
            if tag is None:
                continue
            res = poincare_residue(t.form.scale(lam), comp, t.source)
            key = (tag, res.target.signature())
            if key in acc:
                acc[key] = acc[key] + res.form
            else:
                acc[key] = res.form
    return acc


def suite_homotopy_table(seed=0):
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
    return SuiteResult(
        "homotopy-table", not failures,
        "cylinder residue table holds on all %d corpus cases "
        "(repair exercised: %s)" % (len(details), repaired_seen),
        {"cases": details, "failures": failures},
        ["cylinder residue table", "basepoint repair"],
    )


def _check_residue_table(chain, cyl, basepoint):
    """TAU.res_graph = alpha, TAU.res_section = -alpha, vertical rows."""
    errs = []
    lam0, t0 = chain.terms[0]
    tau = Polynomial.scalar(1, 1)
    if t0.degree == 0:
        w = lam0 * _point_weight(t0)
        v = t0.map.image_point().data[0]
        if v == Fraction(basepoint):
            if not cyl.chain.is_zero():
                errs.append("basepoint term should have zero image")
            return errs
        line = cyl.chain.ambient
        got_graph = _scalar_residue_at(cyl.chain, line, v)
        got_sect = _scalar_residue_at(cyl.chain, line, Fraction(basepoint))
        if got_graph is None or tau * got_graph != w:
            errs.append("graph row: TAU.res != weight")
        if got_sect is None or tau * got_sect != -w:
            errs.append("section row: TAU.res != -weight")
        return errs

    # line-source case: compare pulled-back residues with alpha itself
    alpha = t0.form.scale(lam0)
    amb = cyl.chain.ambient
    zc = amb.factors[-1]

    def classify(comp, term):
        ch = comp.first_visible_chart()
        p = comp.poly_on(ch.id)
        if p.degree_in(zc if zc in ch.coords else zc + "_") == 0:
            return "vertical:%s" % comp.label
        if _is_section_at(p, ch, zc, Fraction(basepoint)):
            return "section"
        if _is_section_at(p, ch, zc, None):
            return "shift"  # repaired basepoint section
        return "graph"

    acc = _aggregate_residue(cyl.chain, classify)
    graph = _sum_tagged(acc, "graph")
    sect = _sum_tagged(acc, "section")
    if graph is None or not _forms_match(graph.scale(tau), alpha, t0):
        errs.append("graph row: TAU.res_graph != alpha")
    if sect is None or not _forms_match(sect.scale(tau), alpha.scale(Polynomial.scalar(-1)), t0):
        errs.append("section row: TAU.res_section != -alpha")
    shift = _sum_tagged(acc, "shift")
    if shift is not None and not shift.is_zero():
        errs.append("repaired-section residues do not cancel")
    # vertical row: residue along a lifted pole equals the transported kernel
    errs.extend(_check_vertical_rows(chain, cyl, basepoint))
    return errs


def _point_weight(t):
    from .chains import term_weight

    return term_weight(t)


def _scalar_residue_at(cyl_chain, line, value):
    comp = point_component(line, VarietyPoint.product_point([value]))
    total = None
    for lam, t in cyl_chain.terms:
        if comp not in t.declared_poles:
            continue
        res = poincare_residue(t.form.scale(lam), comp, t.source)
        total = res.value if total is None else total + res.value
    return total


def _is_section_at(p, ch, zc, value):
    """Does p cut a horizontal section {z = const}, optionally at `value`?"""
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


def _sum_tagged(acc, tag):
    total = None
    for (t, _sig), form in acc.items():
        if t != tag:
            continue
        total = form if total is None else total + form
    return total


def _forms_match(got, alpha, t0):
    """Compare a residue form on P1(t) with alpha on the source line."""
    if got is None or got.degree != alpha.degree:
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
        got = _vertical_residue(cyl.chain, zc, a)
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


def _vertical_residue(cyl_chain, zc, a):
    total = None
    for lam, t in cyl_chain.terms:
        for comp in t.declared_poles:
            ch = comp.first_visible_chart()
            p = comp.poly_on(ch.id)
            names = [c for c in ch.coords if not c.startswith(zc)]
            if not names:
                continue
            name = names[0]
            if p.degree_in(name) != 1:
                continue
            if any(p.degree_in(c) != 0 for c in ch.coords if c != name):
                continue
            if name.endswith("_"):
                continue
            point = {c: Fraction(0) for c in ch.coords}
            point[name] = Fraction(a)
            if not p.evaluate(point).is_zero():
                continue
            res = poincare_residue(t.form.scale(lam), comp, t.source)
            total = res.form if total is None else total + res.form
    return total


def _kernel_form(coords, chart, zc, g_value, c):
    """(1/(z - g) - 1/(z - c)) dz on the z-line."""
    z = Polynomial.variable(coords, zc)
    one = Polynomial.constant(coords, 1)
    k1 = RationalFunction(one, z - Polynomial.constant(coords, g_value))
    k2 = RationalFunction(one, z - Polynomial.constant(coords, c))
    idx = (coords.index(zc),)
    return DifferentialForm(chart, coords, 1, {idx: k1 - k2})


def suite_homotopy_identity(seed=0):
    failures = []
    cases = []
    for label, chain, basepoint in homotopy_corpus():
        rep = verify_homotopy_identity(chain, basepoint)
        cases.append({"case": label, "zero": rep["zero"]})
        if not rep["zero"]:
            failures.append({"case": label,
                             "residual": rep["residual"].render()})
    return SuiteResult(
        "homotopy-identity", not failures,
        "dh + hd = id - s*pi* holds exactly on all %d corpus cases"
        % len(cases),
        {"cases": cases, "failures": failures},
        ["cylinder homotopy identity"],
    )


# ---------------------------------------------------------------------------
# suite 5: boundary witnesses on the line
# ---------------------------------------------------------------------------


def suite_witness_p1(seed=0):
    rng = random.Random(seed)
    line = proj_line("z")
    failures = []
    for i in range(100):
        k = rng.randint(2, 6)
        points = _distinct_fractions(rng, k, -9, 9, 5)
        weights = [_rand_fraction(rng, -5, 5, 3) for _ in range(k - 1)]
        weights.append(-sum(weights))
        cycle = [(v, Polynomial.scalar(w)) for v, w in zip(points, weights)]
        b = boundary_witness_p1(cycle, line)
        got = boundary(b).chain
        expected = normalize_chain(PolarChain(line, [
            point_term(line, VarietyPoint.product_point([v]), Polynomial.scalar(w))
            for v, w in zip(points, weights) if w != 0
        ]))
        if got.key() != expected.key():
            failures.append({"case": i, "got": got.render(),
                             "expected": expected.render()})
    refused = False
    try:
        boundary_witness_p1(
            [(Fraction(0), Polynomial.scalar(1)), (Fraction(1), Polynomial.scalar(1))], line
        )
    except ChainError:
        refused = True
    if not refused:
        failures.append({"case": "refusal",
                         "error": "nonzero total weight was not refused"})
    return SuiteResult(
        "witness-p1", not failures,
        "boundary witnesses reproduce 100/100 zero-sum cycles; "
        "nonzero totals refused",
        {"failures": failures},
        ["degree-zero witness on the line"],
    )


# ---------------------------------------------------------------------------
# suite 6: global residue theorem on the line
# ---------------------------------------------------------------------------


def suite_global_residue(seed=0):
    rng = random.Random(seed)
    line = proj_line("z")
    coords = line.main_chart.coords
    chart = line.main_chart.id
    failures = []
    for i in range(100):
        k = rng.randint(1, 5)
        roots = _distinct_fractions(rng, k, -8, 8, 5)
        den = _dlog_split_poly(coords, "z", roots)
        num = _random_univar(rng, coords, max(0, k - 1))
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
    return SuiteResult(
        "global-residue-p1", not failures,
        "total residue vanished on %d/100 random admissible forms"
        % (100 - len(failures)),
        {"failures": failures},
        ["global residue theorem on the line"],
    )


def _random_univar(rng, coords, max_deg):
    z = Polynomial.variable(coords, "z")
    p = Polynomial.constant(coords, _rand_fraction(rng, -5, 5, 3))
    power = Polynomial.constant(coords, 1)
    for _ in range(max_deg):
        power = power * z
        if rng.random() < 0.6:
            p = p + power * Polynomial.constant(
                coords, _rand_fraction(rng, -5, 5, 3)
            )
    if p.is_zero():
        p = Polynomial.constant(coords, 1)
    return p


# ---------------------------------------------------------------------------
# suite 7: adjunction residue on elliptic curves
# ---------------------------------------------------------------------------


def suite_adjunction(seed=0):
    rng = random.Random(seed)
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
    return SuiteResult(
        "adjunction", not failures,
        "curve residue matched the linear-algebra oracle on %d/10 "
        "elliptic curves" % (10 - len(failures)),
        {"failures": failures},
        ["adjunction residue", "independent decomposition oracle"],
    )


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


def suite_relations(seed=0):
    rng = random.Random(seed)
    line = proj_line("z")
    coords = line.main_chart.coords
    chart = line.main_chart.id
    failures = []

    # (P1, z -> z^2, dz/z) - (P1, id, dz/z) normalizes to zero (R2)
    z = Polynomial.variable(coords, "z")
    dz_over_z = DifferentialForm(
        chart, coords, 1,
        {(0,): RationalFunction(Polynomial.constant(coords, 1), z)},
    )
    decl = [
        point_component(line, VarietyPoint.product_point([0])),
        infinity_component(line),
    ]
    sq = VarietyMap(line, line, chart, {
        "z": RationalFunction.variable(coords, "z") ** 2
    })
    t_sq = make_triple(line, sq, dz_over_z, decl)
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
    for i in range(20):
        chain = _random_relation_chain(rng, line)
        direct = boundary(chain).chain
        after = boundary(normalize_chain(chain)).chain
        if direct.key() != after.key():
            failures.append({
                "case": i, "check": "boundary/normalize",
                "direct": direct.render(), "normalized-first": after.render(),
            })
    return SuiteResult(
        "relations", not failures,
        "R2 pair collapses, R3 prunes constants, boundary commutes with "
        "normalization on 20/20 random chains",
        {"failures": failures},
        ["R1/R2/R3", "residue-boundary"],
    )


def _random_relation_chain(rng, line):
    coords = line.main_chart.coords
    chart = line.main_chart.id
    terms = []
    for _ in range(rng.randint(1, 2)):
        roots = _distinct_fractions(rng, rng.randint(1, 2), -4, 4, 2)
        p = _dlog_split_poly(coords, "z", roots)
        form = _dlog_form(chart, coords, p)
        decl = [
            point_component(line, VarietyPoint.product_point([r]))
            for r in roots
        ] + [infinity_component(line)]
        if rng.random() < 0.4:
            m = VarietyMap(line, line, chart, {
                "z": RationalFunction.variable(coords, "z") ** 2
            })
        else:
            m = VarietyMap.identity(line)
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


def suite_cli(seed=0):
    import json as _json

    from .session import (
        Session,
        parse_chain_expr,
        render_chain,
        render_form,
        run_text,
    )

    rng = random.Random(seed)
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
    codes = _observe_exit_codes(seed)
    for label, (got, want) in codes.items():
        if got != want:
            failures.append({"kind": "exit-code", "scenario": label,
                             "got": got, "expected": want})
    return SuiteResult(
        "cli", not failures,
        "renderer round-trips, byte-identical replay, exit codes %s"
        % sorted(set(w for _, w in codes.values())),
        {"failures": failures,
         "exit_codes": {k: v[0] for k, v in codes.items()}},
        ["session grammar", "deterministic reports"],
    )


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
        if den.is_zero():
            den = Polynomial.constant(coords, 1)
        components[idx] = RationalFunction(num, den)
    if not components:
        components[indices[0]] = RationalFunction.constant(coords, 1)
    return DifferentialForm("", coords, deg, components)


def _observe_exit_codes(seed):
    import os
    import tempfile

    from .cli import main as cli_main

    scenarios = {}
    with tempfile.TemporaryDirectory() as tmp:
        ok = os.path.join(tmp, "ok.pc")
        with open(ok, "w", encoding="utf-8") as fh:
            fh.write("let A = P1(z);\n"
                     "let a = chain(A, id, dlog(z), poles[z, inf]);\n"
                     "dsq a;\n")
        bad_parse = os.path.join(tmp, "parse.pc")
        with open(bad_parse, "w", encoding="utf-8") as fh:
            fh.write("let A = P1(z);\nboundary ;\n")
        bad_compute = os.path.join(tmp, "compute.pc")
        with open(bad_compute, "w", encoding="utf-8") as fh:
            fh.write("let A = P1(z);\n"
                     "let a = chain(A, id, d(z)/z^2, poles[z]);\n")
        import contextlib
        import io

        def run(argv):
            buf_out, buf_err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf_out), \
                    contextlib.redirect_stderr(buf_err):
                return cli_main(argv)

        scenarios["ok"] = (run(["--seed", str(seed), "run", ok]), 0)
        scenarios["parse-error"] = (run(["run", bad_parse]), 2)
        scenarios["compute-error"] = (run(["run", bad_compute]), 1)
        scenarios["verify-fail"] = (
            run(["verify", "--suite", "fixture-fail"]), 3)
        scenarios["verify-pass"] = (
            run(["verify", "--suite", "fixture-pass"]), 0)
    return scenarios


def suite_fixture_fail(seed=0):
    """Deliberately failing fixture used to observe exit code 3."""
    return SuiteResult(
        "fixture-fail", False,
        "fixture suite that always fails (exit-code plumbing check)",
        {}, ["fixture"],
    )


def suite_fixture_pass(seed=0):
    return SuiteResult(
        "fixture-pass", True,
        "fixture suite that always passes (exit-code plumbing check)",
        {}, ["fixture"],
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SUITES = {
    "dsq-random": suite_dsq_random,
    "residue-anticommute": suite_residue_anticommute,
    "homotopy-table": suite_homotopy_table,
    "homotopy-identity": suite_homotopy_identity,
    "witness-p1": suite_witness_p1,
    "global-residue-p1": suite_global_residue,
    "adjunction": suite_adjunction,
    "relations": suite_relations,
    "cli": suite_cli,
    "fixture-fail": suite_fixture_fail,
    "fixture-pass": suite_fixture_pass,
}


def suite_names():
    return [n for n in _SUITES if not n.startswith("fixture-")]


def get_suite(name):
    return _SUITES[name]
