"""Seeded inputs for the benchmark workloads.

Every input is built as text from the generator's own `Fraction` arithmetic:
session statements for `dsq-mix`, and `parse_rational` / `parse_form` text
plus catalog constructors for `cylinder`.  No engine helper, `Scalar` or
`Polynomial` constructor takes part in generation, so a refactor of the
engine's number types cannot change which inputs a seed yields.
Admissibility is decided here too (for example, P2 lines in general
position); the generator never resamples on an engine verdict.  This module
imports nothing from the engine.
"""

import random
from fractions import Fraction

WORKLOADS = ("dsq-mix", "cylinder")

# criterion 1 samples P1 : P1xP1 : P2 as 80 : 70 : 50
DSQ_MIX = (("P1", 8), ("P1xP1", 7), ("P2", 5))

# The homotopy basepoint; sections through it above a pole force a repair.
BASEPOINT = Fraction(0)


def _generator_rng(workload, seed):
    return random.Random("inputs:%s:%d" % (workload, seed))


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------


def q(v):
    """A rational number as session-language text."""
    return "(%s)" % Fraction(v)


def linear(var, root):
    return "(%s - %s)" % (var, q(root))


def _rand_fraction(rng, lo=-6, hi=6, den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _distinct_fractions(rng, count, lo=-6, hi=6, den=4):
    out = []
    while len(out) < count:
        v = _rand_fraction(rng, lo, hi, den)
        if v not in out:
            out.append(v)
    return out


def _nonzero_fraction(rng, lo=-3, hi=3, den=2):
    while True:
        v = _rand_fraction(rng, lo, hi, den)
        if v:
            return v


def _mix_schedule(weights):
    """One block of kinds in the given proportions, spread evenly through it."""
    total = sum(w for _, w in weights)
    credit = {k: 0 for k, _ in weights}
    out = []
    for _ in range(total):
        for k, w in weights:
            credit[k] += w
        pick = max(weights, key=lambda kw: credit[kw[0]])[0]
        credit[pick] -= total
        out.append(pick)
    return tuple(out)


DSQ_SCHEDULE = _mix_schedule(DSQ_MIX)


# ---------------------------------------------------------------------------
# dsq-mix: one admissible chain per case, checked by `dsq`
# ---------------------------------------------------------------------------


def _p1_statements(rng, shape):
    factors = [linear("z", r) for r in _distinct_fractions(rng, shape)]
    return [
        "let A = P1(z)",
        "let c = chain(A, id, dlog(%s), poles[%s, inf])"
        % ("*".join(factors), ", ".join(factors)),
    ]


def _product_statements(rng, shape):
    forms, poles = [], []
    for var, count in zip(("z1", "z2"), shape):
        factors = [linear(var, r) for r in _distinct_fractions(rng, count)]
        forms.append("dlog(%s)" % "*".join(factors))
        poles.extend(factors + ["inf(%s)" % var])
    return [
        "let A = P1(z1) x P1(z2)",
        "let c = chain(A, id, %s, poles[%s])"
        % (" wedge ".join(forms), ", ".join(poles)),
    ]


def _det3(r0, r1, r2):
    (a, b, c), (d, e, f), (g, h, i) = r0, r1, r2
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _general_position(lines):
    """No two lines parallel (they would meet the line at infinity in a
    triple point) and no three concurrent."""
    for i, (a, b, _) in enumerate(lines):
        for a2, b2, _ in lines[i + 1:]:
            if a * b2 - a2 * b == 0:
                return False
    n = len(lines)
    return all(
        _det3(lines[i], lines[j], lines[k]) != 0
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    )


def _p2_statements(rng, shape):
    count, split = shape
    lines = []
    while len(lines) < count:
        a = rng.choice([0, 0, 1, 1, -1, 2])
        b = rng.choice([0, 1, 1, -1, 3]) if a else rng.choice([1, -1, 2])
        cand = (Fraction(a), Fraction(b), _rand_fraction(rng, -4, 4, 2))
        if _general_position(lines + [cand]):
            lines.append(cand)
    texts = ["(%s*x + %s*y + %s)" % tuple(q(v) for v in ln) for ln in lines]
    return [
        "let A = P2(x, y)",
        "let c = chain(A, id, dlog(%s) wedge dlog(%s), poles[%s, inf])"
        % ("*".join(texts[:split]), "*".join(texts[split:]), ", ".join(texts)),
    ]


# Shapes (root counts; P2 line count and wedge split) cycle per kind, from
# the start in every block, so that every block of every seed holds the same
# case sizes and only the coefficients differ.  Over a block the proportions
# are close to those criterion 1 draws at random: P1xP1 (2, 2) comes once in
# seven, not once in four, and P2 (2, 1) three times in five, not half.
_DSQ_KINDS = {
    "P1": (_p1_statements, (1, 2)),
    "P1xP1": (_product_statements, ((1, 1), (1, 2), (2, 1), (2, 2))),
    "P2": (_p2_statements, ((2, 1), (3, 1), (2, 1), (3, 2))),
}


def _dsq_cases(rng):
    while True:
        seen = {kind: 0 for kind in _DSQ_KINDS}
        for kind in DSQ_SCHEDULE:
            build, shapes = _DSQ_KINDS[kind]
            shape = shapes[seen[kind] % len(shapes)]
            seen[kind] += 1
            yield kind, build(rng, shape) + ["dsq c"]


# ---------------------------------------------------------------------------
# cylinder: homotopy identity on P1(t) x P1(z)
# ---------------------------------------------------------------------------


def _section(rng, repair):
    """Section z = a*t + b of P1(t) -> P1(t) x P1(z) carrying
    k*dlog((t - r1)/(t - r2)); with `repair` its graph meets the basepoint
    section above a pole, a triple point that forces a shifted basepoint."""
    a = _nonzero_fraction(rng)
    r1, r2 = _distinct_fractions(rng, 2, -4, 4, 3)
    if repair:
        b = BASEPOINT - a * rng.choice((r1, r2))
    else:
        b = _rand_fraction(rng, -4, 4, 3)
        while BASEPOINT in (a * r1 + b, a * r2 + b):
            b += 1
    return {
        "section": "%s*t + %s" % (q(a), q(b)),
        "form": "%s*dlog(%s/%s)" % (
            q(_nonzero_fraction(rng)), linear("t", r1), linear("t", r2)),
        "poles": [linear("t", r1), linear("t", r2)],
    }


def _weighted_points(rng):
    """Two weighted points (t, z, weight), off the basepoint section."""
    return {"points": [
        [str(_rand_fraction(rng, -4, 4, 3)),
         str(BASEPOINT + _nonzero_fraction(rng, -4, 4, 3)),
         str(_nonzero_fraction(rng, -5, 5, 3))]
        for _ in range(2)
    ]}


def _cylinder_cases(rng):
    # Sections cost 10-20 times a points case.  Four points cases a turn put
    # the median among them and leave the sections to cases_per_s and the tail.
    while True:
        yield "repair", _section(rng, True)
        yield "plain", _section(rng, False)
        for _ in range(4):
            yield "points", _weighted_points(rng)


_GENERATORS = {"dsq-mix": _dsq_cases, "cylinder": _cylinder_cases}

# Cases in one turn of each generator's kind pattern.  Measuring whole turns
# keeps the mix of case kinds and sizes the same in every run.
CYCLE = {"dsq-mix": len(DSQ_SCHEDULE), "cylinder": 6}


def generate(workload, seed):
    """Endless stream of (index, kind, payload) for one workload and seed."""
    rng = _generator_rng(workload, seed)
    for index, (kind, payload) in enumerate(_GENERATORS[workload](rng)):
        yield index, kind, payload
