"""Per-ideal verification reports and seeded random sweeps.

A report runs every exact cross-check the package knows about on one
isolated-zero monomial ideal: primal/dual threshold agreement (joined,
when P(J) has one compact facet, by c = sum 1/p_i of the pure powers;
the ideal keeps ``MonomialIdeal._pure_powers`` and ``_pure_facet``, so a
report scans and tests once), certificate identities, sequence
inequalities, the bound chain, the covolume oracle, and the
diagonal-minorant chain.  A single failing check would indict the
implementation, not the mathematics, so the CLI turns any failure into a
dedicated exit code.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul

from . import bounds as bounds_mod
from .bounds import EQ, GT, build_bounds_report, f_value, validate_sequence
from .errors import ResourceCapError
from .lattice import natural, normalize_generators
from .multiplicities import (
    covolume_times_factorial,
    first_multiplicity,
    mixed_multiplicities,
)
from .thresholds import (
    diagonal_lct,
    howald_lct,
    kiselman_lct,
    minorant_from_certificate,
    refined_lelong,
)


@dataclass(frozen=True)
class IdealReport:
    ideal: object
    certificate: object
    howald: Fraction
    mults: object                # MultiplicitySequence or None
    bounds: object               # BoundsReport or None
    checks: dict
    sharp: object                # bool or None
    slack: object                # Fraction (c - main bound) or None

    @property
    def all_ok(self):
        return all(self.checks.values())


def build_ideal_report(ideal):
    """Full verification report; requires an isolated zero (the fit raises
    ``NonIsolatedError`` without one)."""
    cert = kiselman_lct(ideal)
    dual = howald_lct(ideal)
    checks = {}
    checks["duality"] = cert.c == dual
    p = ideal._pure_facet
    if p is not None:
        # one compact facet: c is also sum 1/p_i of the pure powers,
        # compared on their common denominator
        top = prod(p)
        checks["duality"] &= cert.c * top == sum(top // q for q in p)
    checks["certificate_identities"] = (
        sum(cert.x0) == 1
        and cert.c * cert.nu == 1
        and refined_lelong(ideal, cert.x0) == cert.nu)
    n = ideal.n
    uniform = (Fraction(1, n),) * n
    min_degree = first_multiplicity(ideal)
    checks["lelong_degree_identity"] = (
        n * refined_lelong(ideal, uniform) == min_degree)

    seq = mixed_multiplicities(ideal)
    e = seq.e
    checks["e1_is_min_degree"] = e[1] == min_degree
    checks["sequence_inequalities"] = validate_sequence(seq).all_ok
    brep = build_bounds_report(seq, cert.c)
    checks["in_cone"] = brep.in_cone
    checks["main_bound_le_c"] = brep.main <= cert.c
    checks["skoda_interval"] = brep.skoda_low <= cert.c <= brep.skoda_high
    checks["geometric_bound_le_c"] = brep.geometric_cmp in (GT, EQ)
    if n >= 2:
        checks["mixed_bound_le_c"] = brep.mixed_cmp in (GT, EQ)
    checks["chain"] = brep.chain.ok
    checks["covolume_matches_top"] = covolume_times_factorial(ideal) == e[n]
    if all(v > 0 for v in cert.x0):
        psi = minorant_from_certificate(cert)
        f_psi = f_value(accumulate(psi, mul))
        # the minorant has the same threshold, and the bound functional
        # is monotone between the two sequences
        checks["minorant_chain"] = (
            diagonal_lct(psi) == cert.c == f_psi and brep.main <= f_psi)
    slack = cert.c - brep.main
    return IdealReport(
        ideal=ideal, certificate=cert, howald=dual, mults=seq,
        bounds=brep, checks=checks, sharp=brep.main == cert.c, slack=slack)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a seeded random verification sweep; dim, max_degree
    and count are read by ``lattice.natural`` and must be >= 1."""

    seed: int = 0
    dim: int = 2
    max_degree: int = 5
    count: int = 100

    def __post_init__(self):
        for name in ("dim", "max_degree", "count"):
            value = natural(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)


def random_isolated_ideal(rng, dim, max_degree):
    """Pure powers on every axis plus up to 2*dim random extra generators."""
    gens = []
    for axis in range(dim):
        k = rng.randint(1, max_degree)
        gens.append(tuple(k if i == axis else 0 for i in range(dim)))
    for _ in range(rng.randint(0, 2 * dim)):
        v = tuple(rng.randint(0, max_degree) for _ in range(dim))
        if any(v):
            gens.append(v)
    return normalize_generators(gens, dim)


@dataclass
class SweepSummary:
    config: RunConfig
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    min_slack: object = None
    min_slack_index: int = -1
    f_trials: int = 0
    f_passed: int = 0
    failures: list = field(default_factory=list)
    items: list = field(default_factory=list)

    @property
    def all_ok(self):
        return self.failed == 0 and self.f_passed == self.f_trials


def run_random_sweep(config, *, keep_items=False):
    """Seeded bulk verification; reproducible item by item from the seed.

    The ideals draw first, then the monotonicity pairs.  An ideal that hits
    a resource cap (``ResourceCapError``: a degree cap, or a fit that does
    not stabilize by ``BASE_CAP``) counts as skipped.
    """
    rng = random.Random(config.seed)
    summary = SweepSummary(config=config)
    for index in range(config.count):
        ideal = random_isolated_ideal(rng, config.dim, config.max_degree)
        try:
            rep = build_ideal_report(ideal)
        except ResourceCapError:
            summary.skipped += 1
            continue
        if rep.all_ok:
            summary.passed += 1
        else:
            summary.failed += 1
            bad = [name for name, ok in rep.checks.items() if not ok]
            summary.failures.append((index, ideal, bad))
        if summary.min_slack is None or rep.slack < summary.min_slack:
            summary.min_slack = rep.slack
            summary.min_slack_index = index
        if keep_items:
            summary.items.append((index, ideal, rep))
    # monotonicity trials for the bound functional on dominating pairs
    for _ in range(config.count):
        a, b = bounds_mod.random_dominating_pair(rng, config.dim)
        summary.f_trials += 1
        if f_value(a) <= f_value(b):
            summary.f_passed += 1
    return summary
