"""The four seeded workloads: their inputs, the item each input makes, and
the exact check each item must pass.

An item is the library call that the matching CLI command makes, plus
serialising the result the way that command does (indent-2 JSON built
with the ``lctk.serialize`` helpers).  Inputs depend only on the seed and
are made at set-up, before any timing; the program receives only them.

No input repeats within a pool, so a result cache cannot pass for a
kernel gain; the only repeats are the ones the groebner item makes itself
(initial ideals shared by the orders of one sweep).

Every function takes the imported ``lctk`` package and reaches the library
through its module attributes at call time, so the tracer's wrappers see
each call.
"""

import json
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable

#: The seed whose first ``pass_size`` outputs are pinned in digests.json;
#: the seed of acceptance criterion 3's corpus.
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Workload:
    name: str
    #: inputs made at set-up; a run that uses them all ends early
    pool_size: int
    #: items of the traced pass, and of the digest pinned for DEFAULT_SEED
    pass_size: int
    generate: Callable    # (lctk, seed, count) -> list of inputs
    compute: Callable     # (lctk, input) -> result
    serialize: Callable   # (lctk, input, result) -> str
    check: Callable       # (lctk, input, result) -> bool


def _dump(payload):
    return json.dumps(payload, indent=2)


def distinct(draw, count, seen=None):
    """The first count values of draw() not in seen (by repr), in the order
    drawn; seen is updated.  Raises ValueError if the generator runs dry,
    rather than looping on.
    """
    seen = set() if seen is None else seen
    out = []
    for _ in range(100 * count):
        if len(out) == count:
            break
        value = draw()
        key = repr(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    if len(out) < count:
        raise ValueError(f"only {len(out)} distinct inputs of {count}")
    return out


def spread_strata(inputs, key, rng):
    """Reorder inputs so that every prefix holds each stratum's share of
    the whole list.

    Item cost depends mostly on a few input properties (for ideals: the
    dimension and the number of minimal generators).  A run takes a prefix
    of the pool, and independent draws put a different number of costly
    inputs into each prefix; spreading every stratum evenly over the pool
    removes most of that run-to-run spread.  The inputs themselves, and
    their order within a stratum, are unchanged.
    """
    strata = defaultdict(list)
    for inp in inputs:
        strata[key(inp)].append(inp)
    placed = []
    for members in strata.values():
        offset = rng.random()
        placed += [((j + offset) / len(members), inp)
                   for j, inp in enumerate(members)]
    placed.sort(key=lambda pair: pair[0])
    return [inp for _, inp in placed]


def ideal_shape(ideal):
    return ideal.n, len(ideal.generators)


# corpus: the report path of `verify-random` / `report` on the distinct
# n = 3 ideals of acceptance criterion 3's generator, spread by shape.
# That generator draws dim = randint(1, 3); dims 1 and 2 are left out.
# They have only 6 and about 505 distinct ideals, all cheap (under 25 ms,
# like the n = 3 pure-power ideals, against 80 ms and more for other n = 3
# ideals).  With them, the cheap items were about 47% of a run, so the
# median sat on the gap between the two cost clusters (one run: 18.5 ms at
# the 45th percentile, 59 ms at the 50th) and p50 ranged from 49 to 74 ms
# over five seeds.  Repeats (the 216 pure-power ideals recur often) are
# skipped while drawing.

def corpus_inputs(lctk, seed, count):
    rng = random.Random(seed)
    drawn = distinct(
        lambda: lctk.report.random_isolated_ideal(rng, 3, 6), count)
    return spread_strata(drawn, ideal_shape, rng)


def corpus_compute(lctk, ideal):
    return lctk.report.build_ideal_report(ideal)


def corpus_serialize(lctk, ideal, rep):
    s = lctk.serialize
    return _dump({
        "ideal": s.ideal_to_dict(ideal),
        "certificate": s.certificate_to_dict(rep.certificate),
        "howald": s.frac_str(rep.howald),
        "mults": s.mults_to_dict(rep.mults),
        "bounds": s.bounds_report_to_dict(rep.bounds),
        "checks": rep.checks,
        "sharp": rep.sharp,
        "slack": s.frac_str(rep.slack),
    })


def corpus_check(lctk, ideal, rep):
    return rep.all_ok


# diagonal: every sorted weight tuple with n <= 4 and weights <= 12 (1819
# tuples, criterion 2's 125 among them) in seeded order.  Criterion 2's own
# 125 items take under 2 s, so a run would have to repeat them.

DIAGONAL_MAX_WEIGHT = 12


def diagonal_inputs(lctk, seed, count):
    weights = [a for n in range(1, 5) for a in combinations_with_replacement(
        range(1, DIAGONAL_MAX_WEIGHT + 1), n)]
    random.Random(seed).shuffle(weights)
    return [(a, lctk.lattice.diagonal_ideal(a)) for a in weights[:count]]


def diagonal_compute(lctk, inp):
    _, ideal = inp
    return (lctk.thresholds.kiselman_lct(ideal),
            lctk.multiplicities.mixed_multiplicities(ideal))


def diagonal_serialize(lctk, inp, result):
    s = lctk.serialize
    cert, seq = result
    return _dump({
        "ideal": s.ideal_to_dict(inp[1]),
        "certificate": s.certificate_to_dict(cert),
        "mults": s.mults_to_dict(seq),
    })


def diagonal_check(lctk, inp, result):
    a, _ = inp
    cert, seq = result
    return (cert.c == lctk.thresholds.diagonal_lct(a)
            and seq.e == lctk.multiplicities.diagonal_mults(a).e)


# thresholds: the `lct` command on monomial ideals with n in 2..4 and n..4n
# random nonzero generators with exponents <= 9, isolated or not, spread by
# shape.

def threshold_inputs(lctk, seed, count):
    rng = random.Random(seed)

    def draw():
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(n, 4 * n)):
            v = (0,) * n
            while not any(v):
                v = tuple(rng.randint(0, 9) for _ in range(n))
            gens.append(v)
        return lctk.lattice.normalize_generators(gens, n)

    return spread_strata(distinct(draw, count), ideal_shape, rng)


def threshold_compute(lctk, ideal):
    return (lctk.thresholds.kiselman_lct(ideal),
            lctk.thresholds.howald_lct(ideal))


def threshold_serialize(lctk, ideal, result):
    s = lctk.serialize
    cert, dual = result
    return _dump({
        "ideal": s.ideal_to_dict(ideal),
        "certificate": s.certificate_to_dict(cert),
        "howald": s.frac_str(dual),
        "duality_ok": cert.c == dual,
    })


def threshold_check(lctk, ideal, result):
    cert, dual = result
    return (cert.c == dual
            and sum(cert.x0) == 1
            and cert.c * cert.nu == 1
            and lctk.thresholds.refined_lelong(ideal, cert.x0) == cert.nu)


# groebner: `groebner-bound --sweep` on n = 2 ideals.  Generator i is x_i^k
# plus 1-3 terms of higher total degree with exponents <= 3 and
# coefficients +-1..3.  Each block of 36 inputs holds every (k, term count)
# pair of both generators once, in seeded order: the same distribution as
# independent draws, with less run-to-run spread in item cost.  An input
# already in the pool is drawn again with the same shape.

GROEBNER_SHAPES = list(product((2, 3), (1, 2, 3), repeat=2))
GROEBNER_CAP = 100_000


def groebner_orders(lctk):
    g = lctk.groebner
    return [g.default_order(2), g.MonomialOrder("lex", precedence=(1, 2)),
            g.MonomialOrder("lex", precedence=(2, 1))]


def groebner_inputs(lctk, seed, count):
    rng = random.Random(seed)

    def draw(k1, t1, k2, t2):
        polys = []
        for axis, (k, terms) in enumerate(((k1, t1), (k2, t2))):
            lead = (k, 0) if axis == 0 else (0, k)
            higher = [(a, b) for a in range(4) for b in range(4)
                      if a + b > k]
            coeffs = {lead: Fraction(1)}
            for mono in rng.sample(higher, terms):
                coeffs[mono] = Fraction(
                    rng.choice((-1, 1)) * rng.randint(1, 3))
            # terms in sorted order, so equal inputs have equal reprs
            polys.append(lctk.groebner.Polynomial(2, dict(sorted(
                coeffs.items()))))
        return polys

    out, seen = [], set()
    while len(out) < count:
        shapes = list(GROEBNER_SHAPES)
        rng.shuffle(shapes)
        for shape in shapes:
            out += distinct(lambda: draw(*shape), 1, seen)
    return out[:count]


def groebner_compute(lctk, polys):
    return lctk.groebner.order_sweep(polys, groebner_orders(lctk),
                                     max_reductions=GROEBNER_CAP)


def groebner_serialize(lctk, polys, cert):
    return _dump(lctk.serialize.lower_bound_certificate_to_dict(cert))


def groebner_check(lctk, polys, cert):
    return cert.mult_bound is None or cert.mult_bound <= cert.c_initial


#: Pool sizes are about three times the most items one 50 s run used on a
#: 2-CPU x86-64 host (corpus 445, diagonal 800, thresholds 2100, groebner
#: 495; diagonal's pool is its whole sweep), so set-up makes few inputs
#: that never run.  A program about three times faster uses a pool up; its
#: run then ends early and says so (pool_used_up).
WORKLOADS = {w.name: w for w in (
    Workload("corpus", 1400, 100, corpus_inputs, corpus_compute,
             corpus_serialize, corpus_check),
    Workload("diagonal", 1819, 125, diagonal_inputs, diagonal_compute,
             diagonal_serialize, diagonal_check),
    Workload("thresholds", 6400, 500, threshold_inputs,
             threshold_compute, threshold_serialize, threshold_check),
    Workload("groebner", 1500, 100, groebner_inputs, groebner_compute,
             groebner_serialize, groebner_check),
)}
