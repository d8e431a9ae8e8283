"""Time two checkouts of polarcalc on the same benchmark cases, in lockstep.

    python3 tools/lockstep.py PARENT CHANGE --workload cylinder --seed 1 \\
        --cases 96 --reps 5 [--kind repair]

Each checkout gets one worker process, which imports the engine from the
checkout's `src/` and the case runners and inputs from its `perfbench/`
(`cases.py`, `inputs.py`; read only).  The workers run the first `--cases`
cases of the seed, or with `--kind` the first `--cases` of that kind, one
case at a time: case i on one side, then on the other, the side that goes
first alternating from case to case and from repetition to repetition, so
that drift in the machine's speed hits both sides alike.  One untimed pass warms sympy's caches on both sides first.

Prints, for every repetition, each side's summed case time and the
speed-up PARENT / CHANGE, then their median; the last line of standard
output is one JSON object, which names failed and differing cases by their
index in the seed's case stream.  Exits 1 when a case fails on either side
or the two sides' reports differ (a speed-up counts only for identical
outputs).
"""

import argparse
import hashlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


# the case kinds `inputs.generate` yields for each workload
KINDS = {"dsq-mix": ("P1", "P1xP1", "P2"), "cylinder": ("repair", "plain", "points")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout timed as the baseline")
    p.add_argument("change", type=Path, help="checkout timed against it")
    p.add_argument("--workload", required=True, choices=tuple(KINDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--kind", help="time only the cases of this kind: %s" % "; ".join(
        "%s for %s" % (", ".join(ks), w) for w, ks in KINDS.items()))
    args = p.parse_args(argv)
    if args.kind is not None and args.kind not in KINDS[args.workload]:
        p.error("--kind %s: %s has kinds %s" % (
            args.kind, args.workload, ", ".join(KINDS[args.workload])))
    return args


def worker(checkout, workload, seed, count, only):
    """Serve `<position>` lines on stdin with `<seconds> <ok> <digest>
    <case index>` lines."""
    checkout = Path(checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import polarcalc
    from cases import RUNNERS
    from inputs import generate

    if Path(polarcalc.__file__).resolve().parent != checkout / "src" / "polarcalc":
        sys.exit("lockstep: polarcalc imported from %s" % polarcalc.__file__)
    runner = RUNNERS[workload](seed)
    stream = generate(workload, seed)
    if only != "-":  # "-": every kind
        stream = (case for case in stream if case[1] == only)
    cases = list(itertools.islice(stream, count))
    print("ready", flush=True)
    for line in sys.stdin:
        index, kind, payload = cases[int(line)]
        t0 = time.perf_counter()
        try:
            ok, report = runner(index, kind, payload)
        except Exception as e:  # a refusal or crash is a failed case
            ok, report = False, {"error": "%s: %s" % (type(e).__name__, e)}
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        print(seconds, int(ok), digest, index, flush=True)


class Side:
    """One worker process serving one checkout."""

    def __init__(self, checkout, args):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(checkout), args.workload,
             str(args.seed), str(args.cases), args.kind or "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            sys.exit("lockstep: the worker for %s did not start" % checkout)

    def run(self, position):
        self.proc.stdin.write("%d\n" % position)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            sys.exit("lockstep: a worker exited")
        seconds, ok, digest, index = line.split()
        return float(seconds), ok == "1", digest, int(index)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None):
    if argv is None and sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6])
        return 0
    args = parse_args(argv)
    sides = [Side(args.parent, args), Side(args.change, args)]
    failed, differ, speedups, totals = set(), set(), [], []
    try:
        for rep in range(args.reps + 1):  # repetition 0 is the warm-up
            total = [0.0, 0.0]
            for position in range(args.cases):
                order = (0, 1) if (rep + position) % 2 == 0 else (1, 0)
                out = {}
                for s in order:
                    out[s] = sides[s].run(position)
                    total[s] += out[s][0]
                index = out[0][3]
                if not (out[0][1] and out[1][1]):
                    failed.add(index)
                if out[0][2] != out[1][2]:
                    differ.add(index)
            if rep:
                speedups.append(total[0] / total[1])
                totals.append(total)
                print("rep %d: parent %.3f s, change %.3f s, speed-up %.3fx"
                      % (rep, total[0], total[1], speedups[-1]))
    finally:
        for side in sides:
            side.close()
    median = statistics.median(speedups)
    print("median speed-up %.3fx over %d repetitions of %d %s%s cases (seed %d)"
          % (median, args.reps, args.cases, args.workload,
             "" if args.kind is None else " " + args.kind, args.seed))
    if failed:
        print("failed cases: %s" % sorted(failed))
    if differ:
        print("cases whose reports differ: %s" % sorted(differ))
    print(json.dumps({
        "workload": args.workload, "kind": args.kind, "seed": args.seed,
        "cases": args.cases,
        "speedups": speedups, "median": median, "totals_s": totals,
        "failed": sorted(failed), "differ": sorted(differ),
    }))
    return 1 if failed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
