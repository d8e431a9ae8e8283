import contextlib
import io
import json
import os

import pytest

from polarcalc.cli import main as cli_main
from polarcalc.forms import DifferentialForm
from polarcalc.parsing import ParseError, TokenStream, tokenize
from polarcalc.polynomials import Polynomial, RationalFunction
from polarcalc.session import (
    Session,
    SessionError,
    parse_chain_expr,
    render_chain,
    render_form,
    run_statement,
    run_text,
    split_statements,
)

SAMPLE = """
# a small session
let A = P1(z);
let a = chain(A, id, dlog(z/(z-1)), poles[z, z-1]);
boundary a;
dsq a;
"""


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_split_statements_strips_comments():
    stmts = split_statements(SAMPLE)
    assert [s for s, _ in stmts][:2] == [
        "let A = P1(z)",
        "let a = chain(A, id, dlog(z/(z-1)), poles[z, z-1])",
    ]


def test_unterminated_statement_rejected():
    with pytest.raises(ParseError):
        split_statements("let A = P1(z)")


def test_report_schema():
    s = Session()
    reports = run_text(s, SAMPLE)
    for rep in reports:
        assert rep["schema"] == 1
        assert set(rep) == {
            "schema", "command", "status", "result", "details", "provenance"
        }
    assert reports[2]["status"] == "ok"
    assert "TAU" in reports[2]["result"]


def test_redefinition_rejected():
    s = Session()
    run_statement(s, "let A = P1(z)")
    with pytest.raises(SessionError):
        run_statement(s, "let A = P1(w)")


def test_unknown_binding_rejected():
    s = Session()
    with pytest.raises(SessionError):
        run_statement(s, "boundary nope")


def test_power_caret_is_not_wedge():
    s = Session()
    run_statement(s, "let A = P1(z1) x P1(z2)")
    with pytest.raises(ParseError):
        run_statement(
            s, "let a = chain(A, id, d(z1)^d(z2), poles[z1])"
        )


def test_witness_command_round_trips():
    s = Session()
    run_statement(s, "let W = P1(z)")
    rep = run_statement(s, "witness-p1 [(0, 1), (1, -1)]")
    assert rep["status"] == "ok"
    chain = parse_chain_expr(TokenStream(tokenize(rep["result"])), s)
    assert render_chain(chain, s) == rep["result"]


def test_witness_refusal_surfaces_as_error():
    s = Session()
    from polarcalc.chains import ChainError

    with pytest.raises(ChainError):
        run_statement(s, "witness-p1 [(0, 1), (1, 1)]")


def test_homotopy_verify_command():
    s = Session()
    run_statement(s, "let A = P1(z)")
    run_statement(s, "let p = chain(A, const(3), 5)")
    rep = run_statement(s, "homotopy-verify p")
    assert rep["status"] == "ok"
    assert "PASS" in rep["result"]


def test_cli_run_ok(tmp_path):
    f = tmp_path / "ok.pc"
    f.write_text(SAMPLE)
    code, out, err = run_cli(["run", str(f)])
    assert code == 0
    assert "[ok]" in out


def test_cli_exit_code_parse_error(tmp_path):
    f = tmp_path / "bad.pc"
    f.write_text("let A = P1(z);\nboundary ;\n")
    code, out, err = run_cli(["run", str(f)])
    assert code == 2


def test_cli_exit_code_compute_error(tmp_path):
    f = tmp_path / "bad.pc"
    f.write_text("let A = P1(z);\n"
                 "let a = chain(A, id, d(z)/z^2, poles[z]);\n")
    code, out, err = run_cli(["run", str(f)])
    assert code == 1


def test_cli_pole_with_tau_inverse_coefficient_reports(tmp_path):
    # the normal-crossing check takes resultants of TAU^-1 coefficients
    f = tmp_path / "tau.pc"
    f.write_text(
        "let A = P2(x,y);\n"
        "let a = chain(A, id, d(x) wedge d(y)/((x - 1/TAU)*(y - 2)*(x + y - 1)),"
        " poles[x - 1/TAU, y - 2, x + y - 1]);\n"
    )
    j = tmp_path / "report.json"
    code, out, err = run_cli(["--json", str(j), "run", str(f)])
    assert 0 <= code <= 3
    assert "Traceback" not in out + err
    reports = json.loads(j.read_text())
    assert [r["schema"] for r in reports] == [1, 1]


# Points and pole components whose coordinates involve TAU stay explicit
# refusals: the text of each is pinned, with the exit code of a compute error.
TAU_REFUSALS = {
    "tau-sum-lead-component": (
        "let P = P2(x,y);\n"
        "let a = chain(P, id, d(x) wedge d(y) / ((x + (1+TAU)*y)*(y^2 - x^3 - x - 1)),"
        " poles[x + (1+TAU)*y, y^2 - x^3 - x - 1]);\n",
        "leading coefficient is not a TAU-monomial: (1 + TAU)*y1 + 1",
    ),
    "tau-valued-image-point": (
        "let A = P1(z);\n"
        "let c = chain(A, map(z = z^2 + TAU*z), dlog(z - 1), poles[z - 1, inf]);\n"
        "boundary c;\n",
        "scalar has nonzero TAU grade: 1 + TAU",
    ),
    "tau-dependent-eliminant": (
        "let P = P2(x,y);\n"
        "let c = chain(P, id, d(x) wedge d(y) / ((x - 1/TAU)*(y - 2)*(x + y - 1)),"
        " poles[x - 1/TAU, y - 2, x + y - 1]);\n"
        "boundary c;\n",
        "rational_roots needs TAU-free coefficients",
    ),
}


@pytest.mark.parametrize("name", sorted(TAU_REFUSALS))
def test_tau_refusals_keep_their_text(tmp_path, name):
    text, message = TAU_REFUSALS[name]
    f = tmp_path / "tau.pc"
    f.write_text(text)
    code, out, err = run_cli(["run", str(f)])
    assert code == 1
    assert err.splitlines() == ["[error] " + message]
    assert "Traceback" not in out


# Chains on sources of dimension 3 are refused at `let`, before any command
# that would need their residues.
DIMENSION_REFUSALS = {
    "three-lines-source": (
        "let C = P1(a) x P1(b) x P1(c);\n"
        "let x = chain(C, id, dlog(a) wedge dlog(b) wedge dlog(c - 1),"
        " poles[a, b, c - 1, inf(a), inf(b), inf(c)]);\n"
        "dsq x;\n",
        "polar chains are implemented up to dimension 2, not on P1(a) x P1(b) x P1(c)",
    ),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_REFUSALS))
def test_dimension_refusals_keep_their_text(tmp_path, name):
    text, message = DIMENSION_REFUSALS[name]
    f = tmp_path / "cube.pc"
    f.write_text(text)
    code, out, err = run_cli(["run", str(f)])
    assert code == 1
    assert err.splitlines() == ["[error] " + message]
    assert "Traceback" not in out


# Each declared component is certified squarefree and smooth, and a pole of
# P1 must be a rational point: these chains are refused at `let`, before
# `boundary` would need their residues.
LET_REFUSALS = {
    "cusp": (
        "let P = P2(x,y);\n"
        "let a = chain(P, id, d(x) wedge d(y)/(y^2 - x^3), poles[y^2 - x^3]);\n"
        "boundary a;\n",
        ["declared poles violate normal crossing: normal crossing: rejected",
         "  component singular on chart A0: {x^3 - y^2} (witness (0, 0))"],
    ),
    "node": (
        "let B = P1(u) x P1(v);\n"
        "let a = chain(B, id, dlog(u) wedge dlog(v), poles[u*v, inf(u), inf(v)]);\n"
        "boundary a;\n",
        ["declared poles violate normal crossing: normal crossing: rejected",
         "  component singular on chart u|v: {u*v} (witness (0, 0))"],
    ),
    "irrational-point": (
        "let A = P1(t);\n"
        "let a = chain(A, id, dlog(t^2 - 2), poles[t^2 - 2, inf]);\n"
        "boundary a;\n",
        ["component {t^2 - 2} has no rational point representation"],
    ),
}


@pytest.mark.parametrize("name", sorted(LET_REFUSALS))
def test_let_refusals_keep_their_text(tmp_path, name):
    text, lines = LET_REFUSALS[name]
    f = tmp_path / "let.pc"
    f.write_text(text)
    code, out, err = run_cli(["run", str(f)])
    assert code == 1
    assert out.splitlines() == ["[ok] bound"]
    assert err.splitlines() == ["[error] " + lines[0]] + lines[1:]


# const(...) takes one value per factor of P1 and of a product of lines, and
# 2 (affine) or 3 (homogeneous) values on P2; any other count is a parse error.
@pytest.mark.parametrize("variety, point, message", [
    ("P2(x,y)", "const(1)", "P2(x,y): expected 2 or 3, got 1"),
    ("P1(z)", "const(1, 2)", "P1(z): expected 1, got 2"),
    ("P1(a) x P1(b)", "const(1)", "P1(a) x P1(b): expected 2, got 1"),
])
def test_const_takes_one_value_per_coordinate(tmp_path, variety, point, message):
    f = tmp_path / "const.pc"
    f.write_text("let P = %s;\nlet c = chain(P, %s, 5);\nnormalize c;\n" % (variety, point))
    code, out, err = run_cli(["run", str(f)])
    assert code == 2
    assert out.splitlines() == ["[ok] bound"]
    assert err.splitlines() == [
        "[parse-error] line 2, col 18: wrong number of values for a point of " + message
    ]


# a parse error names its line and column in the file, also inside a
# statement that starts after another on its line or runs over lines
@pytest.mark.parametrize("text, position, message", [
    ("let A = P1(z);\n# a comment\nlet a = chain(A, id, dlog(z), poles[z, inf]);\n"
     "let c = chain(A, foo, 5);\n", "line 4, col 18", "expected id, const(...) or map(...)"),
    ("let A = P1(z); let a = chain(A,\n  id, dlog(z), poles[z, inf]); let c = chain(A,\n"
     "      foo, 5);\n", "line 3, col 7", "expected id, const(...) or map(...)"),
    ("let A = P1(z); let x = chain(A, id, dlog(z), pols[z]);\n", "line 1, col 46",
     "expected poles[...]"),
    ("let A = P1(z);\n  let B = P1(w)\n", "line 2, col 3", "statement missing final ';'"),
])
def test_parse_errors_give_file_positions(tmp_path, text, position, message):
    f = tmp_path / "positions.pc"
    f.write_text(text)
    code, out, err = run_cli(["run", str(f)])
    assert code == 2
    assert err.splitlines() == ["[parse-error] %s: %s" % (position, message)]


def test_cli_zero_to_the_zero_is_one(tmp_path):
    f = tmp_path / "pow.pc"
    f.write_text("let A = P1(z);\nlet w = chain(A, const(2), 0^0);\nnormalize w;\n")
    code, out, err = run_cli(["run", str(f)])
    assert code == 0
    assert out.splitlines()[-1] == "[ok] (Point, z = 2, 1)"


def test_curve_spec_containing_spaced_x():
    s = Session()
    run_statement(s, "let C = Curve(y^2 - x^3 - x - 1)")
    run_statement(s, "let h = chain(C, id, d(x)/y)")
    rep = run_statement(s, "normalize h")
    assert rep["result"] == "(Curve(-x^3 + y^2 - x - 1), x = x, y = y, 1/y dx)"


def test_cli_exit_code_verify_failure():
    code, out, err = run_cli(["verify", "--suite", "fixture-fail"])
    assert code == 3


def test_cli_json_report(tmp_path):
    f = tmp_path / "ok.pc"
    f.write_text(SAMPLE)
    j = tmp_path / "report.json"
    code, out, err = run_cli(["--json", str(j), "run", str(f)])
    assert code == 0
    reports = json.loads(j.read_text())
    assert all(r["schema"] == 1 for r in reports)


def test_cli_replay_is_byte_deterministic(tmp_path):
    f = tmp_path / "ok.pc"
    f.write_text(SAMPLE)
    blobs = []
    for name in ("a.json", "b.json"):
        j = tmp_path / name
        code, _, _ = run_cli(["--json", str(j), "--seed", "7", "run", str(f)])
        assert code == 0
        blobs.append(j.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_verify_unknown_suite():
    code, out, err = run_cli(["verify", "--suite", "no-such-suite"])
    assert code == 1


def test_cli_verify_list():
    code, out, err = run_cli(["verify", "--suite", "list"])
    assert code == 0
    assert "dsq-random" in out


def test_render_form_round_trip():
    from polarcalc.parsing import parse_form

    coords = ("x", "y")
    form = parse_form("(x + 1) * d(x) wedge d(y) / (x*y - 2)", coords)
    text = render_form(form)
    assert parse_form(text, coords, form.chart) == form


def test_r3_keeps_maps_with_tau_coefficients():
    # the trace of dz/z under z(z + TAU) is dw/w, so the pair cancels; R3
    # keeps both terms, as a non-constant map of a line has rank 1
    s = Session()
    run_statement(s, "let A = P1(z)")
    run_statement(
        s,
        "let b = chain(A, map(z = z^2 + TAU*z), d(z)/z, poles[z, inf])"
        " - chain(A, id, d(z)/z, poles[z, inf])",
    )
    assert run_statement(s, "normalize b")["result"] == "0"
    run_statement(s, "let c = chain(A, map(z = TAU*z^2), d(z)/z, poles[z, inf])")
    rep = run_statement(s, "normalize c")
    assert rep["result"] == "(P1(z), z = TAU*z^2, 1/z dz)"
    assert rep["details"]["warnings"] == []


def test_r2_on_a_surface_warns_with_the_ambient_name():
    # two dominant terms on P1 x P1: R2 has no merge there, and the warning
    # names the ambient that `support` reports for both images
    s = Session()
    run_statement(s, "let B = P1(z1) x P1(z2)")
    run_statement(
        s,
        "let a = chain(B, id, dlog(z1) wedge dlog(z2), poles[z1, z2, inf(z1), inf(z2)])"
        " + chain(B, map(z1 = z2, z2 = z1), dlog(z1) wedge dlog(z2 - 1),"
        " poles[z1, z2 - 1, inf(z1), inf(z2)])",
    )
    rep = run_statement(s, "normalize a")
    assert rep["details"]["warnings"] == [
        "unmergeable coincident-image terms on P1(z1) x P1(z2)"
    ]
    assert rep["result"] == (
        "(P1(z1) x P1(z2), z1 = z1, z2 = z2, 1/(z1*z2) dz1^dz2)"
        " + (P1(z1) x P1(z2), z1 = z2, z2 = z1, 1/(z1*z2 - z1) dz1^dz2)"
    )
    assert run_statement(s, "support a")["details"]["items"] == [
        "P1(z1) x P1(z2)", "P1(z1) x P1(z2)"
    ]


def test_unary_minus_binds_looser_than_power():
    # -z^2 is -(z^2), as the renderer writes a coefficient -1
    s = Session()
    run_statement(s, "let A = P1(z)")
    run_statement(s, "let c = chain(A, map(z = -z^2), d(z)/z, poles[z, inf])")
    assert run_statement(s, "normalize c")["result"] == "(P1(z), z = -z^2, 1/z dz)"


def test_unary_minus_of_a_power():
    from polarcalc.parsing import parse_polynomial

    assert parse_polynomial("-2^2") == Polynomial.scalar(-4)
    assert str(parse_polynomial("-z^2", ("z",))) == "-z^2"
    assert str(parse_polynomial("2*-z^2", ("z",))) == "-2*z^2"


def test_render_form_round_trip_negative_square():
    from polarcalc.parsing import parse_form

    coords = ("x", "y")
    x = Polynomial.variable(coords, "x")
    y = Polynomial.variable(coords, "y")
    num = y - x * x
    den = x + Polynomial.constant(coords, 1)
    form = DifferentialForm("", coords, 1, {(0,): RationalFunction(num, den)})
    text = render_form(form)
    assert text.startswith("((-x^2")
    assert parse_form(text, coords, form.chart) == form


def test_cli_repl_keeps_going_after_each_error(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "let A = P1(z); boundary ; dsq b; "
        "let a = chain(A, id, dlog(z), poles[z, inf]); dsq a;\n"
    ))
    j = tmp_path / "repl.json"
    code, out, err = run_cli(["--json", str(j), "repl"])
    assert code == 2
    assert [(r["status"], r["details"].get("error")) for r in json.loads(j.read_text())] == [
        ("ok", None), ("parse-error", "ParseError"), ("error", "SessionError"),
        ("ok", None), ("ok", None),
    ]
    assert err.splitlines() == [
        "[parse-error] line 1, col 24: expected a chain binding",
        "[error] unknown binding 'b'",
    ]


def test_cli_run_missing_file(tmp_path):
    missing = tmp_path / "missing.pc"
    code, out, err = run_cli(["run", str(missing)])
    assert code == 1
    assert err == "[error] [Errno 2] No such file or directory: %r\n" % str(missing)


def test_cli_verify_unknown_suite_names_the_suites():
    code, out, err = run_cli(["verify", "--suite", "nope"])
    assert code == 1
    assert err.startswith("[error] unknown suite 'nope'; available: dsq-random, ")
