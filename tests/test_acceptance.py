"""Acceptance suite: every criterion is exact except the quadrature probe
calibration, which carries its stated 18/20 heuristic tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
import sys
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

import lctk
from lctk import (
    buchberger,
    build_ideal_report,
    covolume_times_factorial,
    diagonal_ideal,
    diagonal_lct,
    diagonal_mults,
    fit_multiplicities,
    howald_lct,
    kiselman_lct,
    normalize_generators,
    numeric_integrability_probe,
    parse_polynomial,
    random_isolated_ideal,
)
from lctk.bounds import (
    d_membership,
    derivative_certificates,
    f_value,
    random_dominating_pair,
    random_interior_dvector,
)
from lctk.groebner import (
    MonomialOrder,
    certified_lct_lower_bound,
    normal_form,
    s_polynomial,
)

RANDOM_SEED = 20260810
RANDOM_COUNT = 500

def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cusp_report():
    start = time.monotonic()
    J = normalize_generators([(2, 0), (0, 3)], 2)
    rep = build_ideal_report(J)
    dual = howald_lct(J)
    return rep, dual, time.monotonic() - start


@pytest.fixture(scope="module")
def diagonal_sweep():
    """All sorted weight tuples with n <= 4 and entries <= 5."""
    start = time.monotonic()
    results = []
    for n in range(1, 5):
        for a in combinations_with_replacement(range(1, 6), n):
            J = diagonal_ideal(a)
            cert = kiselman_lct(J)
            fitted = fit_multiplicities(J)
            results.append((a, J, cert, fitted))
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def random_corpus():
    """500 seeded isolated ideals with n <= 3 and degrees <= 6, with their
    full verification reports."""
    start = time.monotonic()
    rng = random.Random(RANDOM_SEED)
    items = []
    for _ in range(RANDOM_COUNT):
        dim = rng.randint(1, 3)
        J = random_isolated_ideal(rng, dim, 6)
        items.append((J, build_ideal_report(J)))
    return items, time.monotonic() - start


def test_criterion_1_cusp_sharpness(cusp_report):
    rep, dual, elapsed = cusp_report
    ok = (rep.certificate.c == F(5, 6)
          and dual == F(5, 6)
          and rep.mults.e == (1, 2, 6)
          and rep.bounds.main == F(5, 6)
          and rep.sharp is True
          and elapsed < 1.0)
    announce(1, ok, f"cusp ideal: c = {rep.certificate.c} = dual, "
                    f"e = {rep.mults.e}, main bound sharp, "
                    f"{elapsed:.3f}s")


def test_criterion_2_diagonal_family(diagonal_sweep):
    results, elapsed = diagonal_sweep
    bad = []
    for a, J, cert, fitted in results:
        want_e = diagonal_mults(a)
        want_c = diagonal_lct(a)
        if fitted.mults.e != want_e.e or cert.c != want_c:
            bad.append(a)
    ok = not bad and elapsed < 300.0
    announce(2, ok, f"{len(results)} diagonal ideals (n <= 4, weights <= 5) "
                    f"fit exactly, {elapsed:.1f}s"
                    + (f"; failures: {bad}" if bad else ""))


def test_diagonal_fits_accept_at_b(diagonal_sweep):
    # every diagonal fit accepts at b = (a_1 - 1) + ... + (a_{n-1} - 1)
    # for its sorted weights a, never climbing past it
    results, _ = diagonal_sweep
    assert [fitted.table.base for _, _, _, fitted in results] == [
        sum(a[:-1]) - (len(a) - 1) for a, _, _, _ in results]


def test_criterion_3_random_verification(random_corpus):
    items, elapsed = random_corpus
    failures = []
    for J, rep in items:
        wanted = ["main_bound_le_c", "sequence_inequalities", "in_cone",
                  "skoda_interval", "chain", "geometric_bound_le_c"]
        if J.n >= 2:
            wanted.append("mixed_bound_le_c")
        if not all(rep.checks[name] for name in wanted):
            failures.append(J)
    ok = not failures and len(items) == RANDOM_COUNT \
        and elapsed < 600.0
    announce(3, ok, f"{len(items)} seeded random ideals, zero violations, "
                    f"{elapsed:.1f}s"
                    + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_4_lp_duality(cusp_report, diagonal_sweep, random_corpus):
    bad = 0
    rep, dual, _ = cusp_report
    if rep.certificate.c != dual:
        bad += 1
    for a, J, cert, _ in diagonal_sweep[0]:
        if cert.c != howald_lct(J):
            bad += 1
    for J, rep in random_corpus[0]:
        if not rep.checks["duality"]:
            bad += 1
    total = 1 + len(diagonal_sweep[0]) + len(random_corpus[0])
    announce(4, bad == 0,
             f"primal = dual threshold on all {total} ideals")


def test_criterion_5_f_monotonicity():
    rng = random.Random(RANDOM_SEED + 1)
    pair_fail = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        a, b = random_dominating_pair(rng, n)
        assert d_membership(a, strict=True) and d_membership(b, strict=True)
        if f_value(a) > f_value(b):
            pair_fail += 1
    deriv_fail = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        t = random_interior_dvector(rng, n)
        if not all(derivative_certificates(t)):
            deriv_fail += 1
    ok = pair_fail == 0 and deriv_fail == 0
    announce(5, ok, "200 dominating pairs monotone, 200 derivative "
                    "certificates nonpositive (n <= 6, exact)")


def test_criterion_6_minorant_chain(random_corpus):
    covered = 0
    bad = 0
    for J, rep in random_corpus[0]:
        if "minorant_chain" not in rep.checks:
            continue  # boundary maximizer: minorant undefined
        covered += 1
        if not rep.checks["minorant_chain"]:
            bad += 1
        psi = lctk.worst_diagonal_minorant(J)
        if not (rep.bounds.main <= diagonal_lct(psi) == rep.certificate.c):
            bad += 1
    ok = bad == 0 and covered > 0
    announce(6, ok, f"bound functional chain through the diagonal minorant "
                    f"exact on {covered} interior-maximizer ideals")


def test_criterion_7_groebner_pipeline():
    lex = MonomialOrder("lex", precedence=(1, 2))
    cert = certified_lct_lower_bound(
        [parse_polynomial("x1^2 + x2^3", 2)], lex)
    exact = diagonal_lct((2, 3))
    ok = cert.c_initial == F(1, 2) and cert.c_initial <= exact == F(5, 6)

    gb = buchberger([parse_polynomial("x1^2 - x2", 2),
                     parse_polynomial("x2^2 - x1", 2)], lex)
    bases = {frozenset(g.terms.items()) for g in gb}
    want = {
        frozenset({(1, 0): F(1), (0, 2): F(-1)}.items()),
        frozenset({(0, 4): F(1), (0, 1): F(-1)}.items()),
    }
    ok = ok and bases == want
    residues_zero = all(
        (s := s_polynomial(gb[i], gb[j], lex)) is None
        or normal_form(s, gb, lex) is None
        for i in range(len(gb)) for j in range(i + 1, len(gb)))
    ok = ok and residues_zero
    announce(7, ok, "initial-ideal certificate 1/2 <= 5/6 exact threshold; "
                    "hand-checked reduced basis; all residues zero")


def test_criterion_8_probe_calibration():
    rng = random.Random(RANDOM_SEED + 2)
    cases = []
    seen = set()
    while len(cases) < 20:
        n = rng.randint(1, 3)
        a = tuple(sorted(rng.randint(1, 5) for _ in range(n)))
        if a in seen:
            continue
        seen.add(a)
        cases.append(a)
    good = 0
    slowest = 0.0
    for a in cases:
        J = diagonal_ideal(a)
        c = diagonal_lct(a)
        start = time.monotonic()
        below = numeric_integrability_probe(J, c * F(9, 10))
        above = numeric_integrability_probe(J, c * F(11, 10))
        slowest = max(slowest, time.monotonic() - start)
        if below.verdict == "converges" and above.verdict == "diverges":
            good += 1
    ok = good >= 18 and slowest < 10.0
    announce(8, ok, f"probe classified {good}/20 diagonal ideals at +-10% "
                    f"margins (need 18), slowest pair {slowest:.2f}s")


def test_criterion_9_covolume_cross_check(cusp_report, diagonal_sweep,
                                          random_corpus):
    bad = 0
    checked = 0
    rep, _, _ = cusp_report
    checked += 1
    if covolume_times_factorial(rep.ideal) != rep.mults.e[-1]:
        bad += 1
    for a, J, _, fitted in diagonal_sweep[0]:
        checked += 1
        if covolume_times_factorial(J) != fitted.mults.e[-1]:
            bad += 1
    for J, rep in random_corpus[0]:
        checked += 1
        if covolume_times_factorial(J) != rep.mults.e[-1]:
            bad += 1
    announce(9, bad == 0,
             f"top multiplicity equals n! * covolume on {checked} ideals")
