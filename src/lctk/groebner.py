"""Polynomial ideals with rational coefficients: parsing, reduced Groebner
bases, initial ideals, and certified threshold lower bounds.

Degenerating a polynomial ideal to the monomial ideal of its leading terms
can only lower the log canonical threshold, so the exact threshold of the
initial ideal is a certified lower bound for the threshold of the input.

``buchberger`` records each basis member's leading monomial once, when the
member joins the basis, and queues its pairs on a heap.
"""

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import sub

from . import kernels
from .errors import (
    PolynomialParseError,
    ResourceCapError,
    UnitIdealError,
    UnstableFitError,
)
from .lattice import is_isolated_zero, normalize_generators

#: Default cap on division steps inside one Buchberger run.
MAX_REDUCTIONS = 100_000


@dataclass
class Polynomial:
    """Term map from exponent tuple to nonzero rational coefficient."""

    n: int
    terms: dict

    def __post_init__(self):
        if not self.terms:
            raise ValueError("the zero polynomial is not representable")
        for mono, coeff in self.terms.items():
            if len(mono) != self.n:
                raise ValueError(f"term {mono} has wrong arity")
            if coeff == 0:
                raise ValueError("zero coefficient stored")

    def constant_term(self):
        return self.terms.get((0,) * self.n, Fraction(0))

    def __str__(self):
        bits = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            var = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                           for i, e in enumerate(mono) if e)
            if var:
                lead = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                bits.append(f"{lead}{var}")
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on monomials.

    kind is one of lex, grevlex, weighted; precedence lists 1-based variable
    indices from most to least significant (None: x1 > x2 > ..., in any
    number of variables); weighted orders carry positive per-variable
    weights plus a tiebreak kind.  Construction checks that the precedence
    is a permutation of 1..len(precedence); ``key`` checks only that the
    monomial's length matches the precedence and the weights.
    """

    kind: str
    precedence: tuple = None
    weights: tuple = None
    tiebreak: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        p = self.precedence
        if p is not None and sorted(p) != list(range(1, len(p) + 1)):
            raise ValueError(
                f"precedence {p} is not a permutation of 1..{len(p)}")
        if self.kind == "weighted":
            if not self.weights or not all(
                    0 < w < inf for w in self.weights):
                raise ValueError(
                    "weighted orders need positive finite weights")
            if self.tiebreak not in ("lex", "grevlex"):
                raise ValueError(f"unknown tiebreak {self.tiebreak!r}")

    def key(self, mono):
        """Sort key: larger key means larger monomial."""
        n = len(mono)
        p = self.precedence
        if p is None:
            v = tuple(mono)
        elif len(p) == n:
            v = tuple(mono[i - 1] for i in p)
        else:
            raise ValueError(
                f"precedence {p} is not a permutation of 1..{n}")
        tiebreak = self.tiebreak if self.kind == "weighted" else self.kind
        tie = v if tiebreak == "lex" else (
            sum(mono), tuple(-e for e in reversed(v)))
        if self.kind != "weighted":
            return tie
        if len(self.weights) != n:
            raise ValueError(
                f"weights {self.weights} have length {len(self.weights)}, "
                f"expected {n}")
        return (sum(w * m for w, m in zip(self.weights, mono)), tie)


def default_order(n):
    """grevlex with x1 > x2 > ... > xn."""
    return MonomialOrder("grevlex", precedence=tuple(range(1, n + 1)))


_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^/])|(\S))")


def parse_polynomial(text, n):
    """Parse the grammar: signed terms of '*'-joined factors, where a factor
    is an integer (optionally /integer) or a variable with optional ^power.

    Like terms combine; a zero result is an error, as is any variable index
    outside 1..n.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise PolynomialParseError(
                f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("var", int(m.group(2)[1:]), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None,
                                                      len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_factor():
        kind, val, at = take()
        if kind == "int":
            coeff = Fraction(val)
            if peek()[:2] == ("op", "/"):
                take()
                k2, v2, at2 = take()
                if k2 != "int":
                    raise PolynomialParseError(
                        "expected integer denominator", at2)
                if v2 == 0:
                    raise PolynomialParseError("zero denominator", at2)
                coeff /= v2
            return coeff, (0,) * n
        if kind == "var":
            if not 1 <= val <= n:
                raise PolynomialParseError(
                    f"variable x{val} out of range 1..{n}", at)
            power = 1
            if peek()[:2] == ("op", "^"):
                take()
                k2, v2, at2 = take()
                if k2 != "int":
                    raise PolynomialParseError("expected integer power", at2)
                power = v2
            mono = tuple(power if i == val - 1 else 0 for i in range(n))
            return Fraction(1), mono
        raise PolynomialParseError("expected a factor", at)

    def parse_term():
        coeff, mono = parse_factor()
        while peek()[:2] == ("op", "*"):
            take()
            c2, m2 = parse_factor()
            coeff *= c2
            mono = tuple(a + b for a, b in zip(mono, m2))
        return coeff, mono

    terms = {}
    sign = 1
    kind, val, at = peek()
    if kind == "op" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    elif kind == "end":
        raise PolynomialParseError("empty polynomial", at)
    while True:
        coeff, mono = parse_term()
        coeff *= sign
        acc = terms.get(mono, Fraction(0)) + coeff
        if acc == 0:
            terms.pop(mono, None)
        else:
            terms[mono] = acc
        kind, val, at = peek()
        if kind == "end":
            break
        if kind == "op" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        else:
            raise PolynomialParseError(f"expected + or -, got {val!r}", at)
    if not terms:
        raise PolynomialParseError("polynomial simplifies to zero", 0)
    return Polynomial(n, terms)


def leading_monomial(poly, order):
    return max(poly.terms, key=order.key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class _StepCounter:
    __slots__ = ("left",)

    def __init__(self, cap):
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceCapError("reduction step cap exceeded")


def _subtract_shifted(work, g, lm, to, factor):
    """In place, work -= factor * x^(to - lm) * g, where lm is the leading
    monomial of g; the caller accounts for the lead term, at to."""
    shift = tuple(map(sub, to, lm))
    for gm, gc in g.terms.items():
        if gm == lm:
            continue
        target = tuple(a + b for a, b in zip(gm, shift))
        acc = work.get(target, Fraction(0)) - factor * gc
        if acc == 0:
            work.pop(target, None)
        else:
            work[target] = acc


def normal_form(poly, basis, order, counter=None):
    """Full multivariate division remainder of poly modulo the basis.

    Deterministic: always reduces the currently largest monomial by the
    first divisor in basis order.  Returns None for a zero remainder.
    """
    work = dict(poly.terms)
    remainder = {}
    lms = [(leading_monomial(g, order), g) for g in basis]
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for lm, g in lms:
            if _divides(lm, mono):
                if counter is not None:
                    counter.spend()
                _subtract_shifted(work, g, lm, mono, coeff / g.terms[lm])
                break
        else:
            remainder[mono] = coeff
    if not remainder:
        return None
    return Polynomial(poly.n, remainder)


def _s_polynomial(f, lf, g, lg):
    lcm = tuple(map(max, lf, lg))
    terms = {}
    _subtract_shifted(terms, f, lf, lcm, -1 / f.terms[lf])
    _subtract_shifted(terms, g, lg, lcm, 1 / g.terms[lg])
    return Polynomial(f.n, terms) if terms else None


def s_polynomial(f, g, order):
    """x^a f / lc(f) - x^b g / lc(g), the shifts taking both leading
    monomials to their lcm; None when it cancels to zero."""
    return _s_polynomial(f, leading_monomial(f, order),
                         g, leading_monomial(g, order))


def buchberger(polys, order, *, max_reductions=MAX_REDUCTIONS):
    """Reduced Groebner basis: monic, pairwise fully reduced, deterministic.

    Inputs and nonzero remainders join the basis monic.  Pair selection is
    the normal strategy: a heap of (lcm total degree, i, j) pops the
    smallest lcm degree, then insertion order; pairs with coprime leading
    monomials reduce to zero and are never queued.  The first member for
    each minimal leading monomial is kept, its tail reduced by the others;
    the result lists them by decreasing leading monomial.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise ValueError("polynomials live in different rings")
    counter = _StepCounter(max_reductions)
    basis, lms, pairs = [], [], []

    def add(poly):
        lm = leading_monomial(poly, order)
        lc = poly.terms[lm]
        if lc != 1:
            poly = Polynomial(n, {m: c / lc for m, c in poly.terms.items()})
        for i, other in enumerate(lms):
            if any(map(min, other, lm)):
                heapq.heappush(pairs,
                               (sum(map(max, other, lm)), i, len(basis)))
        basis.append(poly)
        lms.append(lm)

    for p in polys:
        add(p)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        s = _s_polynomial(basis[i], lms[i], basis[j], lms[j])
        if s is not None:
            rem = normal_form(s, basis, order, counter)
            if rem is not None:
                add(rem)
    minimal = set(kernels.minimalize(lms, n))
    kept = {}
    for lm, g in zip(lms, basis):
        if lm in minimal:
            kept.setdefault(lm, g)
    out = {}
    for lm, g in kept.items():
        others = [h for h in kept.values() if h is not g]
        # the monic lead survives (leading monomials form an antichain),
        # so this only rewrites the tail
        out[lm] = normal_form(g, others, order, counter) if others else g
    return [out[lm] for lm in sorted(out, key=order.key, reverse=True)]


def initial_ideal(gb, order):
    """Monomial ideal of the leading exponents of a Groebner basis."""
    if not gb:
        raise ValueError("empty basis")
    n = gb[0].n
    return normalize_generators([leading_monomial(g, order) for g in gb], n)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Certified statement: the input ideal's threshold is >= c_initial.

    mult_bound is the main lower bound evaluated on the initial ideal's
    multiplicity sequence (present only when the initial ideal has an
    isolated zero); it never exceeds c_initial.
    """

    order: MonomialOrder
    initial: object              # MonomialIdeal
    c_initial: Fraction
    mult_bound: object = None    # Fraction or None
    mults: object = None         # MultiplicitySequence or None


def certified_lct_lower_bound(polys, order, *,
                              max_reductions=MAX_REDUCTIONS):
    """Degenerate to the initial ideal and compute its exact threshold.

    Requires every generator to vanish at the origin (a unit in the local
    ring would trivialize the problem).
    """
    from .bounds import main_bound
    from .multiplicities import mixed_multiplicities
    from .thresholds import kiselman_lct

    for p in polys:
        if p.constant_term() != 0:
            raise ValueError(
                "generators must have zero constant term (local ring at 0)")
    gb = buchberger(polys, order, max_reductions=max_reductions)
    j0 = initial_ideal(gb, order)
    if j0.is_unit:
        raise UnitIdealError("the ideal is the unit ideal")
    cert = kiselman_lct(j0)
    mult_bound = None
    mults = None
    if is_isolated_zero(j0):
        mults = mixed_multiplicities(j0)
        mult_bound = main_bound(mults)
    return LowerBoundCertificate(order=order, initial=j0, c_initial=cert.c,
                                 mult_bound=mult_bound, mults=mults)


def order_sweep(polys, orders, *, max_reductions=MAX_REDUCTIONS):
    """Best certificate across several monomial orders.

    Returns the certificate with maximal c_initial (ties to the first order
    in the list); succeeds if any order succeeds.  Only resource errors
    (ResourceCapError, UnstableFitError) of one order are tolerated; any
    other error propagates, and the first resource error is raised when
    every order fails.
    """
    if not orders:
        raise ValueError("need at least one order")
    best = first_error = None
    for order in orders:
        try:
            cert = certified_lct_lower_bound(
                polys, order, max_reductions=max_reductions)
        except (ResourceCapError, UnstableFitError) as exc:
            first_error = first_error or exc
            continue
        if best is None or cert.c_initial > best.c_initial:
            best = cert
    if best is None:
        raise first_error
    return best
