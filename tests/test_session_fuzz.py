"""Token-level fuzzing of the session language.

Example sessions are mutated by inserting, deleting and substituting
tokens drawn from the grammar's atoms (a substitution keeps the token's
class: number, operator or name).  Whatever the input, `polarcalc run`
must end in a report with exit code 0-3, never a traceback.
"""

import contextlib
import io
import itertools
import random
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polarcalc.cli import main as cli_main

EXAMPLES = (
    """
let A = P1(z);
let a = chain(A, id, dlog(z/(z-1)), poles[z, z-1]);
let b = chain(A, map(z = z^2), d(z)/z, poles[z, inf])
      - chain(A, id, d(z)/z, poles[z, inf]);
let p = chain(A, const(2), 5);
residue a, z;
boundary a;
normalize b;
support a;
iscycle a;
dsq a;
witness-p1 [(0, 1), (1, -1)];
""",
    """
let A = P1(z);
let w = chain(A, const(1/2), 3^0 - 2^2) + chain(A, const(0), 3);
normalize w;
homotopy-verify w;
""",
    """
let B = P1(z1) x P1(z2);
let c = chain(B, id, dlog(z1) wedge dlog(z2 - 1), poles[z1, inf(z1), z2 - 1, inf(z2)]);
boundary c;
normalize c;
""",
    """
let P = P2(x,y);
let e = chain(P, id, d(x) wedge d(y) / (y^2 - x^3 - x - 1), poles[y^2 - x^3 - x - 1]);
residue e, y^2 - x^3 - x - 1;
let C = Curve(y^2 - x^3 - x - 1);
let h = chain(C, id, TAU * d(x)/y);
normalize h;
""",
)
NUMBERS = ("0", "1", "2")
OPERATORS = ("^", "(", ")", ",", ";", "=", "+", "-", "*", "/", "[", "]")
NAMES = (
    "x", "y", "z", "z1", "TAU", "d", "dlog", "wedge", "inf", "id", "map",
    "const", "chain", "poles", "let", "P1", "P2", "Curve", "Point",
    "residue", "boundary", "normalize", "support", "iscycle", "dsq",
)
CLASSES = (NUMBERS, OPERATORS, NAMES)
_FILE_NUMBERS = itertools.count()
_TOKEN = re.compile(r"(\s*)(\d+|[A-Za-z][A-Za-z0-9_]*|\S)")


def _class_of(token):
    return NUMBERS if token.isdigit() else NAMES if token[0].isalpha() else OPERATORS


@st.composite
def mutated_sessions(draw):
    tokens = _TOKEN.findall(draw(st.sampled_from(EXAMPLES)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("insert", "delete", "substitute"))
        if kind == "insert":
            atom = rng.choice(rng.choice(CLASSES))
            tokens.insert(rng.randrange(len(tokens) + 1), (" ", atom))
        elif kind == "delete":
            del tokens[rng.randrange(len(tokens))]
        else:
            atoms = rng.choice(CLASSES)
            spots = [i for i, (_, token) in enumerate(tokens) if _class_of(token) is atoms]
            if spots:
                i = rng.choice(spots)
                tokens[i] = (tokens[i][0], rng.choice(atoms))
    return "".join(space + token for space, token in tokens)


@settings(
    max_examples=2000,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_sessions())
def test_mutated_sessions_end_in_a_report(tmp_path, text):
    # a fresh file each time: rewriting one file is far slower on some file systems
    path = tmp_path / ("session%d.pc" % next(_FILE_NUMBERS))
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["run", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
