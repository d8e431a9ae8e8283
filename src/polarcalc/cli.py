"""Command line interface.

    polarcalc run <file>        execute a session file
    polarcalc repl              interactive session
    polarcalc verify --suite X  run a named verification suite

Common flags: --seed <n> (seeds the verification suites' sampling;
sessions draw no random numbers), --json <path>.
Exit codes: 0 ok, 1 computation error, 2 parse error, 3 verification failure.
"""

import argparse
import json
import sys

from .parsing import ParseError
from .session import (
    COMPUTE_ERRORS,
    Session,
    SessionError,
    _report,
    file_position,
    run_statement,
    split_statements,
)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


def _error_report(command, exc):
    if isinstance(exc, ParseError):
        status, code = "parse-error", EXIT_PARSE
    else:
        status, code = "error", EXIT_COMPUTE
    return _report(command, status, str(exc), {"error": type(exc).__name__}, []), code


def _emit(report, json_sink):
    status = report["status"]
    line = "[%s] %s" % (status, report["result"])
    if status in ("error", "parse-error", "fail"):
        print(line, file=sys.stderr)
    else:
        print(line)
    if json_sink is not None:
        json_sink.append(report)


def _run_statements(session, statements, json_sink, stop_on_error=True):
    worst = EXIT_OK
    for stmt, origin in statements:
        try:
            report = run_statement(session, stmt)
        except (ParseError, SessionError, *COMPUTE_ERRORS) as exc:
            if isinstance(exc, ParseError) and exc.line is not None:
                # a statement is one line of text; report where it was in the file
                exc = ParseError(exc.reason, *file_position(origin, exc.col))
            report, code = _error_report(stmt, exc)
            _emit(report, json_sink)
            worst = max(worst, code)
            if stop_on_error:
                return worst
            continue
        _emit(report, json_sink)
        if report["status"] == "fail":
            worst = max(worst, EXIT_VERIFY)
    return worst


def cmd_run(args, json_sink):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        report, code = _error_report("run %s" % args.file, exc)
        _emit(report, json_sink)
        return code
    session = Session()
    try:
        statements = split_statements(text)
    except ParseError as exc:
        report, code = _error_report("run %s" % args.file, exc)
        _emit(report, json_sink)
        return code
    return _run_statements(session, statements, json_sink)


def cmd_repl(args, json_sink):
    session = Session()
    worst = EXIT_OK
    buf = ""
    print("polarcalc repl; statements end with ';' (Ctrl-D to leave)")
    while True:
        try:
            prompt = "... " if buf else ">>> "
            line = input(prompt)
        except EOFError:
            print()
            break
        except KeyboardInterrupt:
            print()
            buf = ""
            continue
        buf += line + "\n"
        if ";" not in line.split("#", 1)[0]:
            continue
        try:
            statements = split_statements(buf)
        except ParseError:
            continue  # still waiting for the final ';'
        buf = ""
        code = _run_statements(session, statements, json_sink, stop_on_error=False)
        worst = max(worst, code)
    return worst


def cmd_verify(args, json_sink):
    from . import suites

    try:
        suite = suites.get_suite(args.suite)
    except KeyError:
        names = ", ".join(suites.suite_names())
        report, code = _error_report(
            "verify --suite %s" % args.suite,
            ValueError("unknown suite %r; available: %s" % (args.suite, names)),
        )
        _emit(report, json_sink)
        return code
    try:
        result = suite(seed=args.seed)
    except (ParseError, *COMPUTE_ERRORS) as exc:
        report, code = _error_report("verify --suite %s" % args.suite, exc)
        _emit(report, json_sink)
        return code
    report = _report(
        "verify --suite %s" % args.suite, "ok" if result.passed else "fail",
        result.summary, result.details, result.provenance,
    )
    _emit(report, json_sink)
    return EXIT_OK if result.passed else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polarcalc",
        description="Exact calculus of polar chains: residues, boundaries, homotopy.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the verification suites' sampling; "
                             "sessions draw no random numbers (default 0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write all reports as a JSON array to PATH")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a session file")
    p_run.add_argument("file")
    sub.add_parser("repl", help="interactive session")
    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True,
                       help="suite name; use 'list' to see all")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    json_sink = [] if args.json else None
    if args.command == "run":
        code = cmd_run(args, json_sink)
    elif args.command == "repl":
        code = cmd_repl(args, json_sink)
    else:
        if args.suite == "list":
            from . import suites

            for name in suites.suite_names():
                print(name)
            return EXIT_OK
        code = cmd_verify(args, json_sink)
    if json_sink is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(json_sink, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
