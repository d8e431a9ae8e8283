"""Session statements: bindings, commands, reports.

Grammar (statements end with `;`, comments start with `#`):

    let A = P1(z);                       # varieties: P1, products, P2, Curve
    let a = chain(A, id, dlog(z/(z-1)), poles[z, z-1]);
    let b = chain(A, map(z = z^2), d(z)/z, poles[z, inf])
          - chain(A, id, d(z)/z, poles[z, inf]);
    let p = chain(A, const(0), 5);       # weighted point
    boundary a;   normalize b;   support a;   iscycle a;   dsq a;
    residue a, z;                        # one component of a one-term chain
    homotopy-verify a;                   # optional: homotopy-verify a, 2;
    witness-p1 [(0, 1), (1, -1)];

Every command produces a JSON-able report:
    {"schema": 1, "command", "status", "result", "details", "provenance"}
"""

from fractions import Fraction

from .chains import (
    ChainError,
    PolarChain,
    boundary,
    boundary_witness_p1,
    check_d_squared,
    is_cycle,
    make_triple,
    normalize_chain,
    point_term,
    support,
    term_weight,
)
from .forms import DifferentialForm, FormError
from .geometry import (
    INF,
    CatalogVariety,
    DivisorComponent,
    GeometryError,
    VarietyPoint,
    catalog_build,
    infinity_component,
)
from .homotopy import HomotopyError, verify_homotopy_identity
from .maps import MapError, VarietyMap
from .parsing import (
    ExprContext,
    ParseError,
    TokenStream,
    parse_expression,
    tokenize,
)
from .polynomials import Polynomial, PolynomialError, ScalarError
from .residue import ResidueError, poincare_residue

COMPUTE_ERRORS = (
    ChainError,
    FormError,
    GeometryError,
    HomotopyError,
    MapError,
    PolynomialError,
    ResidueError,
    ScalarError,
    ZeroDivisionError,
)

_PROVENANCE = {
    "let": ["triple admissibility: first-order pole, normal crossing"],
    "boundary": ["residue-boundary", "first-order pole", "R1/R2/R3"],
    "normalize": ["R1/R2/R3"],
    "support": ["support after R1/R2/R3"],
    "iscycle": ["residue-boundary"],
    "dsq": ["boundary squared vanishes", "pairwise residue cancellation"],
    "residue": ["Poincare residue", "first-order pole"],
    "homotopy-verify": ["cylinder homotopy identity", "residue table"],
    "witness-p1": ["degree-zero witness on the line"],
}


class SessionError(ValueError):
    pass


class Session:
    """Named bindings of varieties and chains."""

    def __init__(self, seed=0):
        """`seed` is accepted and ignored: statements draw no random
        numbers, and the parameter stays only for callers that still pass
        one."""
        self.bindings = {}

    def bind(self, name, value):
        if name in self.bindings:
            raise SessionError("name %r is already bound" % name)
        self.bindings[name] = value

    def get(self, name, kinds=None):
        if name not in self.bindings:
            raise SessionError("unknown binding %r" % name)
        v = self.bindings[name]
        if kinds is not None and not isinstance(v, kinds):
            raise SessionError("binding %r has the wrong kind" % name)
        return v

    def variety_name(self, variety):
        for name, v in self.bindings.items():
            if isinstance(v, CatalogVariety) and v.signature() == variety.signature():
                return name
        return variety.name


# ---------------------------------------------------------------------------
# statement splitting
# ---------------------------------------------------------------------------


def split_statements(text: str):
    """(statement, origin) pairs, comments stripped.

    A statement is the code of its lines joined by spaces.  Its origin
    holds (offset, line, col) for the piece of each line: the statement's
    text from offset on came from that line of `text`, from column col on
    (`file_position`).
    """
    out = []
    pieces = []  # (code, line, col) of the statement not yet ended
    for line, raw in enumerate(text.split("\n"), 1):
        code = raw.split("#", 1)[0]
        col = 1
        while ";" in code:
            head, code = code.split(";", 1)
            pieces.append((head, line, col))
            col += len(head) + 1
            stmt = " ".join(p[0] for p in pieces)
            if stmt.strip():
                out.append((stmt.strip(), _origin(stmt, pieces)))
            pieces = []
        if code.strip():
            pieces.append((code, line, col))
    if pieces:
        stmt = " ".join(p[0] for p in pieces)
        raise ParseError("statement missing final ';'", *file_position(_origin(stmt, pieces), 1))
    return out


def _origin(joined, pieces):
    """The origin of the statement joined.strip() from the pieces."""
    origin = []
    offset = len(joined.lstrip()) - len(joined)  # leading blanks are stripped
    for code, line, col in pieces:
        origin.append((offset, line, col))
        offset += len(code) + 1
    return tuple(origin)


def file_position(origin, col):
    """(line, col) in the text of column col of a statement with this origin."""
    offset = col - 1
    start, line, first = next(o for o in reversed(origin) if o[0] <= offset)
    return line, first + offset - start


# ---------------------------------------------------------------------------
# chain expression parsing
# ---------------------------------------------------------------------------


def _parse_value(ts: TokenStream):
    """A signed rational literal or `inf`."""
    if ts.at_name("inf"):
        ts.next()
        return INF
    ctx = ExprContext(())
    v = parse_expression(ts, ctx)
    if isinstance(v, DifferentialForm) or not v.is_constant():
        t = ts.peek()
        raise ParseError("expected a rational constant", t.line, t.col)
    return v.constant_value().rational_value()


def _parse_map(ts: TokenStream, ambient: CatalogVariety):
    t = ts.peek()
    if ts.at_name("id"):
        ts.next()
        return ("id",)
    if ts.at_name("const"):
        ts.next()
        ts.expect("(")
        values = [_parse_value(ts)]
        while ts.accept(","):
            values.append(_parse_value(ts))
        ts.expect(")")
        arity = (len(ambient.factors),) if ambient.factors else (2, 3)  # P2: affine or [X0:X1:X2]
        if ambient.kind != "point" and len(values) not in arity:
            raise ParseError("wrong number of values for a point of %s: expected %s, got %d" % (
                ambient.name, " or ".join(map(str, arity)), len(values)), t.line, t.col)
        if ambient.kind == "point":
            pt = VarietyPoint("product", ())
        elif ambient.kind in ("P1", "product"):
            pt = VarietyPoint.product_point(values)
        else:
            if any(v == INF for v in values):
                raise ParseError(
                    "plane points use homogeneous triples, not inf", t.line, t.col
                )
            if len(values) == 2:
                values = [Fraction(1)] + list(values)
            pt = VarietyPoint.plane_point(values)
        return ("const", pt)
    if ts.at_name("map"):
        ts.next()
        ts.expect("(")
        coords = ambient.main_chart.coords
        formulas = {}
        while True:
            name = ts.expect_name("a coordinate name")
            ts.expect("=")
            ctx = ExprContext(coords)
            rf = parse_expression(ts, ctx)
            if isinstance(rf, DifferentialForm):
                raise ParseError("map formulas must be functions", name.line, name.col)
            formulas[name.text] = rf
            if not ts.accept(","):
                break
        ts.expect(")")
        return ("map", formulas)
    raise ParseError("expected id, const(...) or map(...)", t.line, t.col)


def _parse_pole_entry(ts: TokenStream, ambient: CatalogVariety):
    t = ts.peek()
    if ts.at_name("inf"):
        ts.next()
        if ts.accept("("):
            name = ts.expect_name("a coordinate name")
            ts.expect(")")
            return _infinity_component(ambient, name.text, t)
        return _infinity_component(ambient, None, t)
    coords = ambient.main_chart.coords
    ctx = ExprContext(coords)
    v = parse_expression(ts, ctx)
    if isinstance(v, DifferentialForm) or not v.is_polynomial():
        raise ParseError("pole entries must be polynomials", t.line, t.col)
    return DivisorComponent.from_chart_poly(
        ambient, ambient.main_chart.id, v.num
    )


def _infinity_component(ambient: CatalogVariety, factor, tok):
    if ambient.kind == "product":
        if factor is None:
            raise ParseError(
                "inf on a product needs a factor: inf(%s)" % ambient.factors[0],
                tok.line, tok.col,
            )
        if factor not in ambient.factors:
            raise ParseError("unknown factor %r" % factor, tok.line, tok.col)
    elif ambient.kind not in ("P1", "P2"):
        raise ParseError("inf poles unsupported on %s" % ambient.name, tok.line, tok.col)
    return infinity_component(ambient, factor)


def _parse_chain_term(ts: TokenStream, session: Session):
    tok = ts.peek()
    if not ts.at_name("chain"):
        raise ParseError("expected chain(...)", tok.line, tok.col)
    ts.next()
    ts.expect("(")
    name = ts.expect_name("a variety name")
    ambient = session.get(name.text, CatalogVariety)
    ts.expect(",")
    mapspec = _parse_map(ts, ambient)
    ts.expect(",")
    if mapspec[0] == "const":
        ctx = ExprContext(())
        v = parse_expression(ts, ctx)
        if isinstance(v, DifferentialForm) or not v.is_constant():
            raise ParseError("point terms take a constant weight", tok.line, tok.col)
        ts.expect(")")
        return PolarChain(
            ambient, [point_term(ambient, mapspec[1], v.constant_value())]
        )
    coords = ambient.main_chart.coords
    ctx = ExprContext(coords, ambient.main_chart.id)
    v = parse_expression(ts, ctx)
    if not isinstance(v, DifferentialForm):
        v = DifferentialForm.function(ambient.main_chart.id, coords, v)
    poles = []
    if ts.accept(","):
        p = ts.peek()
        if not ts.at_name("poles"):
            raise ParseError("expected poles[...]", p.line, p.col)
        ts.next()
        ts.expect("[")
        if ts.peek().text != "]":
            poles.append(_parse_pole_entry(ts, ambient))
            while ts.accept(","):
                poles.append(_parse_pole_entry(ts, ambient))
        ts.expect("]")
    ts.expect(")")
    if mapspec[0] == "id":
        m = VarietyMap.identity(ambient)
        source = ambient
    else:
        source = ambient
        m = VarietyMap(
            ambient, ambient, ambient.main_chart.id, mapspec[1]
        )
    t = make_triple(source, m, v, poles)
    return PolarChain(ambient, [t])


def parse_chain_expr(ts: TokenStream, session: Session) -> PolarChain:
    negate = bool(ts.accept("-"))
    chain = _parse_chain_term(ts, session)
    if negate:
        chain = -chain
    while True:
        if ts.accept("+"):
            chain = chain + _parse_chain_term(ts, session)
        elif ts.accept("-"):
            chain = chain - _parse_chain_term(ts, session)
        else:
            return chain


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_form(form: DifferentialForm) -> str:
    """Grammar-compatible canonical rendering of a form."""
    if form.is_zero():
        return "0"
    parts = []
    for idx, rf in form.sorted_components():
        wedge = " wedge ".join("d(%s)" % form.coords[i] for i in idx)
        if not idx:
            parts.append("(%s)" % rf)
        else:
            parts.append("(%s) * %s" % (rf, wedge))
    return " + ".join(parts)


def _render_value(v) -> str:
    return "inf" if v == INF else str(Fraction(v))


def render_pole(comp: DivisorComponent, ambient: CatalogVariety) -> str:
    if comp.visible_on(ambient.main_chart.id):
        return str(comp.poly_on(ambient.main_chart.id))
    if ambient.kind in ("P1", "P2"):
        return "inf"
    for factor in ambient.factors:
        if infinity_component(ambient, factor) == comp:
            return "inf(%s)" % factor
    raise SessionError("component %s has no grammar rendering" % comp.label)


def render_chain(chain: PolarChain, session: Session) -> str:
    """Grammar-compatible rendering when every term allows it."""
    name = session.variety_name(chain.ambient)
    if chain.is_zero():
        return "0"
    parts = []
    for lam, t in chain.terms:
        if t.degree == 0:
            w = lam * term_weight(t)
            pt = t.map.image_point()
            vals = ", ".join(_render_value(v) for v in pt.data)
            parts.append("chain(%s, const(%s), %s)" % (name, vals, w))
            continue
        form = t.form.scale(lam)
        if t.map.is_identity():
            mtext = "id"
        else:
            fs = t.map.formulas_on(t.map.target.main_chart.id)
            mtext = "map(%s)" % ", ".join(
                "%s = %s" % (c, fs[c]) for c in t.map.target.main_chart.coords
            )
        poles = ", ".join(render_pole(c, chain.ambient) for c in t.declared_poles)
        if poles:
            parts.append(
                "chain(%s, %s, %s, poles[%s])" % (name, mtext, render_form(form), poles)
            )
        else:
            parts.append("chain(%s, %s, %s)" % (name, mtext, render_form(form)))
    return " + ".join(parts)


def describe_chain(chain: PolarChain) -> str:
    return chain.render()


# ---------------------------------------------------------------------------
# statement execution
# ---------------------------------------------------------------------------


def _report(command, status, result, details, tags):
    return {
        "schema": 1,
        "command": command,
        "status": status,
        "result": result,
        "details": details,
        "provenance": list(tags),
    }


def run_statement(session: Session, stmt: str):
    """Execute one statement and return its report (or None for `let`)."""
    ts = TokenStream(tokenize(stmt))
    head = ts.peek()
    if head.kind != "name":
        raise ParseError("expected a statement", head.line, head.col)
    if head.text == "let":
        _run_let(session, ts, stmt)
        return _report(stmt, "ok", "bound", {}, _PROVENANCE["let"])
    return _run_command(session, ts, stmt)


def _run_let(session: Session, ts: TokenStream, stmt: str):
    ts.next()
    name = ts.expect_name("a binding name")
    ts.expect("=")
    rest = ts.peek()
    if rest.kind == "name" and rest.text in ("P1", "P2", "Curve", "Point"):
        spec = stmt.split("=", 1)[1].strip()
        session.bind(name.text, catalog_build(spec))
        return
    chain = parse_chain_expr(ts, session)
    _expect_end(ts)
    session.bind(name.text, chain)


def _expect_end(ts: TokenStream):
    t = ts.peek()
    if t.kind != "end":
        raise ParseError("trailing input %r" % t.text, t.line, t.col)


def _run_command(session: Session, ts: TokenStream, stmt: str):
    head = ts.next()
    cmd = head.text
    if cmd in ("homotopy", "witness"):
        ts.expect("-")
        tail = ts.next()
        cmd = "%s-%s" % (cmd, tail.text)
    if cmd not in _PROVENANCE or cmd == "let":
        raise ParseError("unknown command %r" % cmd, head.line, head.col)
    tags = _PROVENANCE[cmd]

    if cmd == "witness-p1":
        pairs = _parse_witness_pairs(ts)
        _expect_end(ts)
        chain = boundary_witness_p1([(v, Polynomial.scalar(w)) for v, w in pairs])
        line = chain.ambient
        front = Session()
        front.bind("W", line)
        return _report(
            stmt, "ok", render_chain(chain, front),
            {"verified": True, "ambient": line.name}, tags,
        )

    name = ts.expect_name("a chain binding")
    chain = session.get(name.text, PolarChain)

    if cmd == "boundary":
        _expect_end(ts)
        b = boundary(chain)
        return _report(
            stmt, "ok", describe_chain(b.chain),
            {"provenance_records": b.provenance,
             "warnings": list(b.chain.warnings)}, tags,
        )
    if cmd == "normalize":
        _expect_end(ts)
        n = normalize_chain(chain)
        return _report(
            stmt, "ok", describe_chain(n), {"warnings": list(n.warnings)}, tags
        )
    if cmd == "support":
        _expect_end(ts)
        items = support(chain)
        return _report(stmt, "ok", "; ".join(items) or "empty", {"items": items}, tags)
    if cmd == "iscycle":
        _expect_end(ts)
        flag, residual = is_cycle(chain)
        return _report(
            stmt, "ok", "true" if flag else "false",
            {"residual": describe_chain(residual)}, tags,
        )
    if cmd == "dsq":
        _expect_end(ts)
        rep = check_d_squared(chain)
        status = "ok" if rep["zero"] else "fail"
        return _report(
            stmt, status,
            "boundary squared is zero" if rep["zero"] else "boundary squared is NONZERO",
            {"cancellations": rep["cancellations"],
             "first_boundary": describe_chain(rep["boundary"]),
             "second_boundary": describe_chain(rep["second"])},
            tags,
        )
    if cmd == "residue":
        ts.expect(",")
        comp = _parse_pole_entry(ts, chain.ambient)
        _expect_end(ts)
        if len(chain.terms) != 1:
            raise SessionError("residue expects a one-term chain")
        lam, t = chain.terms[0]
        res = poincare_residue(t.form.scale(lam), comp, t.source)
        return _report(
            stmt, "ok", render_form(res.form),
            {"kind": res.kind, "target": res.target.name,
             "embedding": res.embed.describe()}, tags,
        )
    if cmd == "homotopy-verify":
        basepoint = Fraction(0)
        if ts.accept(","):
            basepoint = _parse_value(ts)
            if basepoint == INF:
                raise ParseError("basepoint must be finite", name.line, name.col)
        _expect_end(ts)
        rep = verify_homotopy_identity(chain, basepoint)
        status = "ok" if rep["zero"] else "fail"
        return _report(
            stmt, status,
            "dh + hd = id - s*pi*: %s" % ("PASS" if rep["zero"] else "FAIL"),
            {"basepoint": rep["basepoint"],
             "records": rep["records"],
             "residual": describe_chain(rep["residual"])},
            tags,
        )
    raise ParseError("unknown command %r" % cmd, head.line, head.col)


def _parse_witness_pairs(ts: TokenStream):
    ts.expect("[")
    pairs = []
    while ts.peek().text != "]":
        ts.expect("(")
        v = _parse_value(ts)
        ts.expect(",")
        w = _parse_value(ts)
        ts.expect(")")
        if v == INF or w == INF:
            t = ts.peek()
            raise ParseError("witness points and weights must be finite", t.line, t.col)
        pairs.append((v, w))
        if not ts.accept(","):
            break
    ts.expect("]")
    return pairs


def run_text(session: Session, text: str):
    """All statements of a session file; returns the report list."""
    reports = []
    for stmt, _ in split_statements(text):
        reports.append(run_statement(session, stmt))
    return reports
