"""Acceptance criteria, one test (and one pass/fail line) per criterion.

Every criterion runs its verification suite once through the command line,
`polarcalc --json <path> verify --suite <name>`, so
`pytest tests/test_acceptance.py -v` and `polarcalc verify --suite <name>`
exercise identical code paths.  Each report must also be byte-identical to
the one recorded in `tests/suite_reports.sha256` (seed 0, sympy 1.14.0).
All checks are exact: rational arithmetic, zero tolerance.
"""

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from polarcalc import suites
from polarcalc.cli import main as cli_main

REPORT_HASHES = Path(__file__).with_name("suite_reports.sha256")


def _recorded_hashes():
    """{suite name: SHA-256 of its seed-0 `verify --json` report}."""
    out = {}
    for line in REPORT_HASHES.read_text(encoding="utf-8").splitlines():
        digest, filename = line.split()
        out[filename[:-len(".json")]] = digest
    return out


def _run(name, label, max_seconds=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name + ".json")
        start = time.time()
        cli_main(["--json", path, "verify", "--suite", name])
        elapsed = time.time() - start
        with open(path, "rb") as fh:
            blob = fh.read()
    report = json.loads(blob)[0]
    passed = report["status"] == "ok"
    print("criterion %s: %s (%.1fs) -- %s" % (
        label, "PASS" if passed else "FAIL", elapsed, report["result"]))
    if not passed:
        pytest.fail("criterion %s failed: %s" % (label, report["details"]))
    if max_seconds is not None and elapsed > max_seconds:
        pytest.fail("criterion %s exceeded its %ss budget (%.1fs)"
                    % (label, max_seconds, elapsed))
    assert hashlib.sha256(blob).hexdigest() == _recorded_hashes()[name], (
        "the %s report differs from its hash in %s" % (name, REPORT_HASHES.name))
    return report


def test_every_suite_has_a_recorded_report_hash():
    assert list(_recorded_hashes()) == suites.suite_names()


def test_criterion_1_boundary_squared_vanishes():
    """200 randomized admissible chains on P1, P1xP1, P2; under 2 minutes."""
    _run("dsq-random", "1 (boundary squared vanishes)", max_seconds=120)


def test_criterion_2_residue_anticommutativity():
    """Iterated residues flip sign on 50 randomized NC pairs."""
    _run("residue-anticommute", "2 (residue anticommutativity)")


def test_criterion_3_cylinder_residue_table():
    """Graph, section, and vertical residue rows on the 5-example corpus,
    including one case that needs the shifted-basepoint repair."""
    report = _run("homotopy-table", "3 (cylinder residue table)")
    assert any(c["repaired"] for c in report["details"]["cases"])


def test_criterion_4_homotopy_identity():
    """dh + hd = id - s*pi* with exactly zero residual on the corpus."""
    _run("homotopy-identity", "4 (homotopy identity)")


def test_criterion_5_boundary_witness():
    """100 random zero-sum 0-cycles get boundary witnesses; nonzero totals
    are refused."""
    _run("witness-p1", "5 (boundary witness on the line)")


def test_criterion_6_global_residue_theorem():
    """Total residue of 100 random admissible 1-forms on P1 is zero."""
    _run("global-residue-p1", "6 (global residue theorem)")


def test_criterion_7_adjunction_residue():
    """Residue along y^2 = x^3 + ax + b equals -dx/(2y), cross-checked
    against the independent decomposition oracle, 10 random curves."""
    _run("adjunction", "7 (adjunction residue)")


def test_criterion_8_relations():
    """R2 squaring pair collapses, R3 prunes constants, and boundary
    commutes with normalization on 20 randomized chains."""
    _run("relations", "8 (relations R2/R3)")


def test_criterion_9_cli():
    """Renderer round-trips, byte-deterministic replay, documented exit
    codes observed."""
    _run("cli", "9 (command line interface)")
