"""Closed-loop benchmark of the polarcalc engine.

    python3 perfbench/run.py --workload dsq-mix --seed 1 --seconds 50 --trace 0

One caller sends one case at a time and sends the next only after the
previous one has returned and been verified: the usage pattern of a batch
verifier or a REPL user.  Run from anywhere; the engine is imported from
`src/` next to this directory.

`--trace 0` measures the end-to-end metrics for `--seconds`.  `--trace 1`
runs each digested case twice, with spans around every function listed in
`tracer.LAYERS` and without, in alternating order; it reports per-layer
metrics and `trace.overhead`, and fails if the two runs' outputs differ.
Both modes fail on an inexact verdict, and on a digest that differs from
the one recorded in `expected.json` for this seed.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from inputs import CYCLE, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cases whose reports are digested, and which --trace 1 runs.  Every run
# completes at least this many, so the digest is defined at any speed.
FIXED_CASES = {"dsq-mix": 20, "cylinder": 24}

# `case_ms.tail` is the mean time of this share of a run's slowest cases.
# Case costs fall in overlapping clusters by kind and size, and any single
# high percentile moved between or within them from seed to seed: over the
# same cases on eight seeds, p90 spread up to twice as much as this mean.
TAIL_SHARE = 0.1

# Set-up probes a run makes, at even steps over its first three quarters.
# The machine's speed moves between plateaus lasting 20-60 s; probes made one
# after another at the start of a run all saw the same plateau, and the
# median set-up time of two ten-run sets differed by a quarter.
SETUP_PROBES = 7
SPAN_DIR = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Put the checkout's `src/` first and check polarcalc comes from it."""
    if not (SRC / "polarcalc" / "__init__.py").is_file():
        sys.exit("perfbench: no engine source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import polarcalc

    if Path(polarcalc.__file__).resolve().parent != SRC / "polarcalc":
        sys.exit("perfbench: polarcalc imported from %s" % polarcalc.__file__)


def setup_probe(workload, seed):
    """Seconds from starting a fresh interpreter to its first case ready."""
    probe = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit("perfbench: set-up probe failed")
    return ready - start


class Result:
    """Outcome of running a sequence of cases."""

    def __init__(self, fixed):
        self.fixed = fixed
        self.durations = []
        self.failures = []
        self.digest = hashlib.sha256()
        self.fixed_digest = None
        self.elapsed = 0.0
        self.setup = []

    def add(self, index, kind, ok, report, seconds):
        self.durations.append(seconds)
        if not ok:
            self.failures.append((index, kind, report))
        self.digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
        if len(self.durations) == self.fixed:
            self.fixed_digest = self.digest.hexdigest()


def run_case(runner, case, res, tracer=None):
    """Run, verify and time one case; spans are recorded only with `tracer`."""
    index, kind, payload = case
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            with tracer.case(index) if tracer is not None else nullcontext():
                ok, report = runner(index, kind, payload)
        except Exception as e:  # a refusal or crash is a failed case
            ok, report = False, {"error": "%s: %s" % (type(e).__name__, e)}
        seconds = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    res.add(index, kind, ok, report, seconds)


def run_cases(workload, seed, seconds):
    """Closed loop over the seed's inputs, one case at a time.

    Stops at the end of a whole turn of the workload's kind pattern, so
    every run measures the same mix: the first turn end, after at least the
    digested cases, from which one more turn would end more than half a turn
    past `seconds`.  Between cases, makes the set-up probes at even steps of
    measured time; the probes' own time is left out of `res.elapsed`.
    """
    from cases import RUNNERS

    runner = RUNNERS[workload](seed)
    res = Result(FIXED_CASES[workload])
    step = seconds / (SETUP_PROBES + 1)
    start = time.perf_counter()
    paused = 0.0
    for case in generate(workload, seed):
        due = len(res.setup) * step
        if len(res.setup) < SETUP_PROBES and res.elapsed >= due:
            t0 = time.perf_counter()
            res.setup.append(setup_probe(workload, seed))
            paused += time.perf_counter() - t0
        run_case(runner, case, res)
        res.elapsed = time.perf_counter() - start - paused
        turns, rest = divmod(len(res.durations), CYCLE[workload])
        if (len(res.durations) >= res.fixed and not rest
                and res.elapsed * (1 + 0.5 / turns) >= seconds):
            break
    while len(res.setup) < SETUP_PROBES:
        res.setup.append(setup_probe(workload, seed))
    return res


def slowest(values, share):
    """The slowest `share` of `values`, at least one."""
    return sorted(values)[-max(1, round(share * len(values))):]


def expected_digest(workload, seed):
    table = json.loads((HERE / "expected.json").read_text())
    return table[workload].get(str(seed))


def end_to_end(args):
    res = run_cases(args.workload, args.seed, args.seconds)
    n = len(res.durations)
    ms = [d * 1000 for d in res.durations]
    tail = slowest(ms, TAIL_SHARE)
    metrics = {
        "setup_s": (statistics.median(res.setup), "s"),
        "cases_per_s": ((n - len(res.failures)) / res.elapsed, "1/s"),
        "case_ms.p50": (statistics.median(ms), "ms"),
        "case_ms.tail": (statistics.fmean(tail), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("%d cases in %.2f s; case_ms.tail is the mean of the slowest %d"
          % (n, res.elapsed, len(tail)))
    print("fail_ratio %.4f ratio" % (len(res.failures) / n))
    return res, metrics


def traced(args):
    """The digested cases, each run once with spans and once without."""
    from cases import RUNNERS
    from tracer import Tracer

    fixed = FIXED_CASES[args.workload]
    tracer = Tracer()
    runners = [RUNNERS[args.workload](args.seed) for _ in range(2)]
    res, plain = Result(fixed), Result(fixed)
    for case in itertools.islice(generate(args.workload, args.seed), fixed):
        sides = [(runners[0], res, tracer), (runners[1], plain, None)]
        if case[0] % 2:  # the second run of a case finds sympy's caches warm
            sides.reverse()
        for runner, result, spans in sides:
            run_case(runner, case, result, spans)
    path = SPAN_DIR / ("spans-%s-%d.csv.gz" % (args.workload, args.seed))
    tracer.write(path)
    print("%d spans over %d cases written to %s"
          % (len(tracer.spans), fixed, path.relative_to(ROOT)))
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (sum(res.durations) / sum(plain.durations), "ratio")
    mismatch = res.fixed_digest != plain.fixed_digest
    if mismatch:
        print("traced and untraced outputs differ")
    return res, metrics, mismatch


def main(argv=None):
    args = parse_args(argv)
    import_engine()
    if args.trace:
        res, metrics, mismatch = traced(args)
    else:
        res, metrics = end_to_end(args)
        mismatch = False
    for index, kind, report in res.failures[:5]:
        print("case %d (%s) failed: %s" % (index, kind, json.dumps(report)[:300]))
    want = expected_digest(args.workload, args.seed)
    print("digest of the first %d cases: %s (%s)" % (
        FIXED_CASES[args.workload], res.fixed_digest,
        "no recorded digest for this seed" if want is None
        else "matches" if want == res.fixed_digest else "EXPECTED " + want))
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, value, unit))
    correct = (not res.failures and not mismatch
               and want in (None, res.fixed_digest))
    print(json.dumps({
        "correct": correct,
        "attempted": len(res.durations),
        "failed": len(res.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
