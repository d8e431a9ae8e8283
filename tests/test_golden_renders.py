"""Pinned `polarcalc --json <file> run` reports.

Each session's JSON report is hashed with SHA-256 and compared with a
digest recorded before the kernel's substitution path was rewritten, so
a change that alters any rendered result, detail or exit code fails here.
A change that alters a render on purpose must re-record the digest and
say why.
"""

import contextlib
import hashlib
import io

import pytest

from polarcalc.cli import main as cli_main
from test_session_fuzz import EXAMPLES

R2_MERGE = """
let A = P1(z);
let b = chain(A, map(z = z^2), TAU*d(z)/(z - 1), poles[z - 1, inf])
      + chain(A, id, d(z)/(z - 4), poles[z - 4, inf]);
normalize b;
boundary b;
dsq b;
"""

HOMOTOPY = """
let A = P1(z);
let w = chain(A, id, 3*dlog((z - 1)/(z + 2)), poles[z - 1, z + 2]);
homotopy-verify w;
homotopy-verify w, 1;
let p = chain(A, const(1/2), 2) - chain(A, const(-1), 5)
      + chain(A, map(z = z^2 + 2*z), dlog(z - 1), poles[z - 1, inf]);
homotopy-verify p, 3;
"""

SESSIONS = {
    "example-p1": EXAMPLES[0],
    "example-points": EXAMPLES[1],
    "example-p1xp1": EXAMPLES[2],
    "example-curve": EXAMPLES[3],
    "r2-trace-merge": R2_MERGE,
    "homotopy-verify": HOMOTOPY,
}

DIGESTS = {
    "example-p1": "b36e7a93cf7304c771b95b7e80fa30bd7229791f8a53666bdbb94f4beec8a0fe",
    "example-points": "a3665bacdd64075d36237f6a70e52d7f787ba1c85cc6e035f1870508099f8892",
    "example-p1xp1": "9346016be4fb9b641717cd55de5ee8ccb3ec6f05a6600a4429794f6b8f32b565",
    "example-curve": "80ba8021c993f0cf79fa3a5d8c868fa888db76e7d500013da73eee0469c8d89f",
    "r2-trace-merge": "b2758cad83da279fe28b3eec5a3a531be52637cd93342ebba87a93f50cfddde9",
    "homotopy-verify": "8a9c18199f75c413beebeffbf5cd709668f02147674e0747f48666c3c7cdbc0d",
}


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_report_is_pinned(tmp_path, name):
    session, report = tmp_path / "session.pc", tmp_path / "report.json"
    session.write_text(SESSIONS[name])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["--json", str(report), "run", str(session)])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == DIGESTS[name]
