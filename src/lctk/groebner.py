"""Polynomial ideals with rational coefficients: parsing, reduced Groebner
bases, initial ideals, and certified threshold lower bounds.

Degenerating a polynomial ideal to the monomial ideal of its leading terms
can only lower the log canonical threshold, so the exact threshold of the
initial ideal is a certified lower bound for the threshold of the input.

One private pair loop, ``_pair_loop``, stores each basis member once, when
it joins the basis, as a primitive integer polynomial with its leading
monomial, and queues its pairs on a heap.  It reduces only the S-pairs that
two criteria cannot settle: Buchberger's first criterion never queues a
pair with coprime leading monomials, and his second (chain) criterion drops
a pair (i, j) at pop time when a third member's leading monomial divides
lcm(lm_i, lm_j) and its pairs with i and with j are no longer queued
(Buchberger 1979; Gebauer and Moeller 1988).  The dropped S-polynomial is a
combination of the S-pairs (i, k) and (k, j), already handled, so the
reduced basis is the same.

The leading monomials of the loop's members generate the initial ideal
(Cox, Little and O'Shea, ch. 2 §5).  The loop returns them, decoded once,
and ``order_sweep`` reads in(I) from them with one ``normalize_generators``;
only ``buchberger`` goes on to the reduced basis, made monic, with
rational coefficients, at its end.

Every monomial order's initial ideal has the same colength, dim_Q Q[x]/I
(Macaulay; Cox, Little and O'Shea, ch. 5 §3).  A sweep reads that number
off its first completed order, checks it against every later order, and
hands it to each later pair loop, which stops once its leading monomials
have that colength: they generate an ideal L inside in(I), and two
monomial ideals, one inside the other, with the same finite colength are
equal, so every pair still queued reduces to zero (Traverso, "Hilbert
functions and the Buchberger algorithm", J. Symbolic Comput. 1996).

One private reducer, ``_reduce``, makes every division step of the pair
loop, ``buchberger`` and ``normal_form``: it keeps the work terms on a heap
ordered by the monomial order, and instead of dividing by a leading
coefficient it scales the work by an integer (fraction-free), so no
rational number is made inside its loop; coefficients enter through
``lattice._integers``.  ``s_polynomial`` shares the loop's integer
S-polynomial.

Inside the engine each monomial is one int, K(e) = kappa(e) * 2^(nW) +
p(e) (``_Packing``; Bachmann and Schoenemann, ISSAC 1998).  p packs the
exponents into W-bit fields with a guard bit on top of each, and kappa
is ``MonomialOrder.key`` read as one number in a mixed radix, so the
order is still defined in ``key`` alone.  Every key is linear in the
exponents, so K is additive: comparing two monomials is comparing two
ints, a shifted term is one add, and a divisibility test is one subtract
and one mask.  A run's fields hold exponents up to 2^(n * bitlen(top) +
16) - 1, top its largest input exponent; a monomial formed past that
sets a guard bit and raises ``ResourceCapError``, so no run returns a
wrong answer.  Monomials are tuples again at the boundary: the members
of ``Polynomial`` results and the leading monomials a sweep reads.
Coefficients are bounded the same way: a member coefficient, or one of
``_reduce``'s work when it takes the content, past ``_COEFFICIENT_BITS``
bits raises ``ResourceCapError``, since the step cap bounds steps and not
the cost of each.
"""

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from numbers import Real
from operator import mul

from . import bounds, kernels, multiplicities, thresholds
from .errors import (
    InvariantError,
    PolynomialParseError,
    ResourceCapError,
)
from .lattice import (
    _integers,
    is_isolated_zero,
    natural,
    normalize_generators,
    rational,
)

#: Default cap on division steps inside one Buchberger run.
MAX_REDUCTIONS = 100_000

#: ``_reduce`` divides out the content of its coefficients once the
#: multipliers since the last division exceed this many bits.
_CONTENT_BITS = 64

#: Bit length allowed for a member coefficient and for the coefficients of
#: ``_reduce``'s work: a run past it stops with ``ResourceCapError``.
_COEFFICIENT_BITS = 4096

#: A run's exponent fields hold this many bits beyond n times the bit
#: length of its largest input exponent (see ``_Packing``).
_HEADROOM_BITS = 16

#: Budget on n * W, the bits of a run's packed exponents, W = bits + 1 the
#: field width; the order key on top of them takes about as many again.  A
#: packing past it raises ``ResourceCapError`` before any key is built,
#: since building the n unit keys costs about n^4 (x1 alone, in n = 250
#: variables, needs 66750 bits).
_PACKED_BITS = 1 << 16


@dataclass
class Polynomial:
    """Term map from exponent tuple to nonzero rational coefficient.

    Construction reads n and each exponent with ``lattice.natural`` and
    each coefficient with ``lattice.rational``, and stores ints and
    Fractions."""

    n: int
    terms: dict

    def __post_init__(self):
        if not self.terms:
            raise ValueError("the zero polynomial is not representable")
        n = natural(self.n, "the number of variables")
        terms = {}
        for mono, coeff in self.terms.items():
            if len(mono) != n:
                raise ValueError(f"term {mono} has wrong arity")
            coeff = rational(coeff, "each coefficient")
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            terms[tuple(natural(e, "each exponent") for e in mono)] = coeff
        self.n, self.terms = n, terms

    def constant_term(self):
        return self.terms.get((0,) * self.n, Fraction(0))


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative order on monomials.

    kind is one of lex, grevlex, weighted; precedence lists 1-based variable
    indices from most to least significant (None: x1 > x2 > ..., in any
    number of variables); weighted orders carry positive per-variable
    weights plus a tiebreak kind, lex or grevlex (None reads as grevlex),
    and only they take weights or a tiebreak.  Construction checks that
    the precedence is a permutation of 1..len(precedence), in ints, and
    reads each weight as an exact rational (a float as the decimal it
    prints as; a bool, a string or anything else that is not a real
    number not at all), scaled once to integers, so weighted keys are
    exact; ``weights`` keeps the values as given.  ``key`` checks
    only that the monomial's length matches the precedence and the weights.
    """

    kind: str
    precedence: tuple = None
    weights: tuple = None
    tiebreak: str = None

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        p = self.precedence
        if p is not None and (
                not all(type(i) is int for i in p)
                or sorted(p) != list(range(1, len(p) + 1))):
            raise ValueError(
                f"precedence {p} is not a permutation of 1..{len(p)}")
        int_weights, tie = None, self.kind
        if self.kind == "weighted":
            if not self.weights or not all(
                    isinstance(w, Real) and not isinstance(w, bool)
                    and 0 < w < inf for w in self.weights):
                raise ValueError(
                    "weighted orders need positive finite weights")
            int_weights = tuple(_integers([
                Fraction(str(w)) if isinstance(w, float) else w
                for w in self.weights])[0])
            tie = "grevlex" if self.tiebreak is None else self.tiebreak
            if tie not in ("lex", "grevlex"):
                raise ValueError(f"unknown tiebreak {tie!r}")
            object.__setattr__(self, "tiebreak", tie)
        elif self.weights is not None or self.tiebreak is not None:
            raise ValueError("weights and a tiebreak belong to weighted "
                             f"orders only, not {self.kind}")
        object.__setattr__(self, "_int_weights", int_weights)
        object.__setattr__(self, "_grevlex", tie == "grevlex")

    def key(self, mono):
        """Sort key, one flat tuple of integers: larger key means larger
        monomial.  It lists the integer weight (weighted orders), then
        the tie: the exponents in precedence order (lex), or the degree
        and the negated exponents in reverse precedence order (grevlex).
        Every entry is linear in the exponents; ``_Packing`` relies on
        it."""
        n = len(mono)
        p = self.precedence
        if p is None:
            v = tuple(mono)
        elif len(p) == n:
            v = tuple(mono[i - 1] for i in p)
        else:
            raise ValueError(
                f"precedence {p} is not a permutation of 1..{n}")
        if self._grevlex:
            v = (sum(mono), *(-e for e in reversed(v)))
        w = self._int_weights
        if w is None:
            return v
        if len(w) != n:
            raise ValueError(
                f"weights {self.weights} have length {len(w)}, "
                f"expected {n}")
        return (sum(map(mul, w, mono)), *v)


def default_order(n):
    """grevlex with x1 > x2 > ... > xn."""
    return MonomialOrder("grevlex", precedence=tuple(range(1, n + 1)))


_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^/])|(\S))")


def parse_polynomial(text, n):
    """Parse the grammar: signed terms of '*'-joined factors, where a factor
    is an integer (optionally /integer) or a variable with optional ^power.

    Like terms combine; a zero result is an error, as is any variable index
    outside 1..n.  n is read by ``lattice.natural``.  Each error is a
    ``PolynomialParseError`` carrying the index into text of the token at
    fault (len(text) at the end of the text).
    """
    n = natural(n, "the number of variables")
    tokens = []  # (token text, its index in text), then the end sentinel
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise PolynomialParseError(
                f"unexpected character {m.group(4)!r}", m.start(4))
        tokens.append((m.group(m.lastindex), m.start(m.lastindex)))
    tokens.append(("", len(text)))
    if len(tokens) == 1:
        raise PolynomialParseError("empty polynomial", len(text))
    terms = {}
    i = 0
    while tokens[i][0]:
        word, at = tokens[i]
        if word in ("+", "-"):
            i += 1
        elif i:
            raise PolynomialParseError(f"expected + or -, got {word!r}", at)
        coeff, mono = Fraction(-1 if word == "-" else 1), [0] * n
        while True:  # the '*'-joined factors of one term
            word, at = tokens[i]
            i += 1
            if word.isdigit():
                coeff *= int(word)
                if tokens[i][0] == "/":
                    word, at = tokens[i + 1]
                    i += 2
                    if not word.isdigit():
                        raise PolynomialParseError(
                            "expected integer denominator", at)
                    if not int(word):
                        raise PolynomialParseError("zero denominator", at)
                    coeff /= int(word)
            elif word.startswith("x"):
                var = int(word[1:])
                if not 1 <= var <= n:
                    raise PolynomialParseError(
                        f"variable x{var} out of range 1..{n}", at)
                if tokens[i][0] == "^":
                    word, at = tokens[i + 1]
                    i += 2
                    if not word.isdigit():
                        raise PolynomialParseError(
                            "expected integer power", at)
                    mono[var - 1] += int(word)
                else:
                    mono[var - 1] += 1
            else:
                raise PolynomialParseError("expected a factor", at)
            if tokens[i][0] != "*":
                break
            i += 1
        mono = tuple(mono)
        acc = terms.get(mono, 0) + coeff
        if acc:
            terms[mono] = acc
        else:
            terms.pop(mono, None)
    if not terms:
        raise PolynomialParseError("polynomial simplifies to zero", 0)
    return Polynomial(n, terms)


class _StepCounter:
    __slots__ = ("left",)

    def __init__(self, cap):
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceCapError("reduction step cap exceeded")


class _Packing:
    """One run's monomial encoding: each exponent vector e as the int
    K(e) = kappa(e) * 2^(nW) + p(e).

    p(e) puts e_i into the low bits of the i-th W-bit field, W = bits + 1,
    whose top bit is a guard, so a field holds exponents up to ``bound`` =
    2^bits - 1.  kappa(e) is ``order.key(e)`` read as one number in a
    mixed radix, first entry most significant, each radix larger than the
    spread of its entry over exponents up to bound; so comparing K is
    comparing keys.  Every key is linear in e, so K(e) = sum(e_i *
    K(unit_i)), and a shift by x^s adds K(s).

    Valid ints keep every guard bit clear, and L divides K exactly when
    ((K | guard) - L) & guard == guard: no field borrows from the next,
    and a field keeps its guard bit unless it goes below zero.  A sum of
    two valid monomials sets the guard bit of each field past bound; the
    engine tests each monomial it forms before storing it, and raises
    ``ResourceCapError`` at the first one past bound.  A packing whose n
    fields take more than ``_PACKED_BITS`` bits raises it at once.
    """

    __slots__ = ("n", "bound", "shifts", "units", "guard", "ones")

    def __init__(self, order, n, bits):
        width = bits + 1
        if n * width > _PACKED_BITS:
            raise ResourceCapError(
                f"{n} exponent fields of {width} bits pass the packing "
                f"budget of {_PACKED_BITS} bits")
        self.n, self.bound = n, (1 << bits) - 1
        self.shifts = tuple(range(0, n * width, width))
        self.guard = sum(1 << (s + bits) for s in self.shifts)
        self.ones = sum(1 << s for s in self.shifts)
        keys = [order.key(tuple(int(i == k) for i in range(n)))
                for k in range(n)]
        units = [1 << s for s in self.shifts]
        radix = 1 << (n * width)
        # entry j of every unit's key, from the last entry up to the first
        for column in reversed(list(zip(*keys))):
            for k, c in enumerate(column):
                units[k] += c * radix
            radix *= sum(map(abs, column)) * self.bound + 1
        self.units = units

    def encode(self, mono):
        return sum(map(mul, mono, self.units))

    def decode(self, key):
        bound = self.bound
        return tuple(key >> s & bound for s in self.shifts)

    def overflow(self):
        return ResourceCapError(
            f"an exponent passed {self.bound}, the field width of this run")


def _integer_terms(poly, pack):
    """(terms, scale): poly times scale, the least positive integer that
    makes its coefficients integers, as (packed monomial, int) pairs."""
    ints, scale = _integers(poly.terms.values())
    return list(zip(map(pack.encode, poly.terms), ints)), scale


def _check_size(top):
    """Raise ``ResourceCapError`` when top, the largest absolute value of
    some coefficients, has more than ``_COEFFICIENT_BITS`` bits."""
    if top.bit_length() > _COEFFICIENT_BITS:
        raise ResourceCapError(
            f"a coefficient passed {_COEFFICIENT_BITS} bits")


def _primitive(terms, lm):
    """The member (lm, lc, tail) of sum(c * x^m for m, c in terms), with
    integer c and leading monomial lm: its multiple with coprime
    coefficients and lc > 0, the other terms in tail as (mono, coeff)
    pairs."""
    tail = dict(terms)
    top = max(map(abs, tail.values()))
    lc = tail.pop(lm)
    content = gcd(lc, *tail.values())
    _check_size(top // content)
    if lc < 0:
        content = -content
    return (lm, lc // content,
            tuple((m, c // content) for m, c in tail.items()))


def _member(poly, pack):
    terms = _integer_terms(poly, pack)[0]
    return _primitive(terms, max(m for m, _ in terms))


def _polynomial(pack, terms, factor):
    """The Polynomial sum(c * factor * x^m), or None for no terms."""
    if not terms:
        return None
    return Polynomial(pack.n, {pack.decode(m): c * factor
                               for m, c in terms})


def _packing(order, polys):
    """The ``_Packing`` of a run over polys, which share one ring: its
    fields hold n * bitlen(top) + ``_HEADROOM_BITS`` bits, where top is
    the largest input exponent."""
    n = polys[0].n
    if any(p.n != n for p in polys):
        raise ValueError("polynomials live in different rings")
    top = max((e for p in polys for m in p.terms for e in m), default=0)
    return _Packing(order, n, n * top.bit_length() + _HEADROOM_BITS)


def _reduce(work, members, pack, counter):
    """Full division of the integer polynomial ``work`` (a dict, consumed)
    by the (lm, lc, tail) members, fraction-free.

    Each step takes the largest monomial of work, from a heap with lazy
    deletion, and reduces it by the first member whose leading monomial
    divides it, as the division with rational coefficients does; but it
    first multiplies work and the remainder by lc / gcd(c, lc), so the
    coefficients stay integers, and then divides out their common content.
    Every state is a positive multiple of the rational one, so each step
    makes the same choices.  Returns (remainder, num, den): remainder lists
    (mono, coeff) by decreasing monomial, and times num / den it is the
    rational remainder.
    """
    guard = pack.guard
    heap = [-m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    rem = {}
    num = den = grown = 1
    while heap:
        mono = -pop(heap)
        c = work.pop(mono, 0)
        if not c:
            continue
        q = mono | guard
        for lm, lc, tail in members:
            if (q - lm) & guard == guard:
                break
        else:
            rem[mono] = c
            continue
        if counter is not None:
            counter.spend()
        d = gcd(c, lc)
        if d != lc:
            a = lc // d
            den *= a
            grown *= a
            for m in work:
                work[m] *= a
            for m in rem:
                rem[m] *= a
        b = c // d
        shift = mono - lm
        for m, gc in tail:
            m += shift
            v = work.get(m)
            if v is None:
                if m & guard:
                    raise pack.overflow()
                work[m] = -b * gc
                push(heap, -m)
            else:
                v -= b * gc
                if v:
                    work[m] = v
                else:
                    del work[m]
        if grown >> _CONTENT_BITS:
            grown = 1
            content = gcd(*work.values(), *rem.values())
            if content > 1:
                num *= content
                for m in work:
                    work[m] //= content
                for m in rem:
                    rem[m] //= content
            _check_size(max(map(abs, (*work.values(), *rem.values())),
                            default=0))
    return list(rem.items()), num, den


def _s_work(f, g, top, pack):
    """(work, den): the S-polynomial of two members, whose leading
    monomials have the lcm top, is work / den."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    d = gcd(cf, cg)
    work = {}
    for lm, tail, factor in ((lf, tf, cg // d), (lg, tg, -(cf // d))):
        shift = top - lm
        for m, c in tail:
            m += shift
            if m & pack.guard:
                raise pack.overflow()
            v = work.get(m, 0) + factor * c
            if v:
                work[m] = v
            else:
                work.pop(m, None)
    return work, cf // d * cg


def normal_form(poly, basis, order):
    """Full multivariate division remainder of poly modulo the basis.

    Deterministic: always reduces the currently largest monomial by the
    first divisor in basis order.  Returns None for a zero remainder.
    """
    pack = _packing(order, [poly, *basis])
    work, scale = _integer_terms(poly, pack)
    rem, num, den = _reduce(dict(work), [_member(g, pack) for g in basis],
                            pack, None)
    return _polynomial(pack, rem, Fraction(num, scale * den))


def s_polynomial(f, g, order):
    """x^a f / lc(f) - x^b g / lc(g), the shifts taking both leading
    monomials to their lcm; None when it cancels to zero."""
    pack = _packing(order, [f, g])
    top = pack.encode(map(max, *(max(p.terms, key=order.key)
                                 for p in (f, g))))
    work, den = _s_work(_member(f, pack), _member(g, pack), top, pack)
    return _polynomial(pack, list(work.items()), Fraction(1, den))


def _colength(gens, n):
    """Number of monomials outside the monomial ideal generated by gens,
    which needs a pure power on every axis: the cut-family count of
    ``kernels.table_column`` at r = 0, which takes gens minimal or not."""
    return kernels.table_column(kernels.prepare_power(gens), [0], n)[0]


def _pair_loop(polys, order, max_reductions, colength=None):
    """Buchberger's pair loop: a Groebner basis of the ideal of polys, not
    a reduced one.

    Each input and each nonzero remainder joins the basis once, as a
    primitive integer member (lm, lc, tail) on the run's ``_Packing``;
    S-polynomials are reduced fraction-free by ``_reduce`` over all
    members in insertion order.  Pair selection is the normal strategy: a
    heap of (lcm total degree, i, j) pops the smallest lcm degree, then
    insertion order; pairs with coprime leading monomials reduce to zero
    and are never queued (first criterion), and a popped pair (i, j) is
    skipped when some other member k has a leading monomial dividing
    lcm(lm_i, lm_j) and neither (i, k) nor (j, k) is still queued (chain
    criterion).  Each heap entry carries its encoded lcm.  Every division
    step counts against max_reductions; a negative cap is an error.

    colength, when given, is dim_Q Q[x]/I (None: no stop).  Once every
    axis has a pure-power leading monomial, the loop counts the colength
    of the leading monomials each time a member joins, and returns when it
    equals colength: those monomials generate an ideal inside in(I) with
    the colength of in(I) (Macaulay), so they generate in(I) and every
    queued pair reduces to zero (Traverso 1996).  The members are then a
    Groebner basis too.

    Returns (members, exps, counter, pack): the members in insertion
    order, their decoded leading monomials, the step counter and the
    packing.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    if max_reductions < 0:
        raise ValueError(
            f"max_reductions must be nonnegative, got {max_reductions}")
    pack = _packing(order, polys)
    guard, ones = pack.guard, pack.ones
    counter = _StepCounter(max_reductions)
    basis, lms, exps, supports, pairs, queued = [], [], [], [], [], set()
    pure = 0  # the guard bits of the axes with a pure-power leading monomial

    def add(member):
        nonlocal pure
        lm, j = member[0], len(basis)
        e = pack.decode(lm)
        # the guard bits of the fields where lm has a nonzero exponent
        support = ((lm | guard) - ones) & guard
        for i, other in enumerate(exps):
            if support & supports[i]:
                top = tuple(map(max, other, e))
                heapq.heappush(pairs, (sum(top), i, j, pack.encode(top)))
                queued.add((i, j))
        basis.append(member)
        lms.append(lm)
        exps.append(e)
        supports.append(support)
        if not support & (support - 1):
            pure |= support

    def complete():
        return (colength is not None and pure == guard
                and _colength(exps, pack.n) == colength)

    def chained(i, j, top):
        q = top | guard
        for k, lm in enumerate(lms):
            if ((q - lm) & guard == guard and k != i and k != j
                    and (min(i, k), max(i, k)) not in queued
                    and (min(j, k), max(j, k)) not in queued):
                return True
        return False

    for p in polys:
        add(_member(p, pack))
    done = complete()
    while pairs and not done:
        _, i, j, top = heapq.heappop(pairs)
        queued.discard((i, j))
        if chained(i, j, top):
            continue
        rem = _reduce(_s_work(basis[i], basis[j], top, pack)[0], basis,
                      pack, counter)[0]
        if rem:
            add(_primitive(rem, rem[0][0]))
            done = complete()
    return basis, exps, counter, pack


def buchberger(polys, order, *, max_reductions=MAX_REDUCTIONS):
    """Reduced Groebner basis: monic, pairwise fully reduced, deterministic.

    ``_pair_loop`` builds a Groebner basis; of its members, the first for
    each minimal leading monomial is kept, its tail reduced by the others
    (these division steps count against max_reductions too), and made
    monic with rational coefficients.  The result lists them by
    decreasing leading monomial.
    """
    basis, exps, counter, pack = _pair_loop(polys, order, max_reductions)
    minimal = set(normalize_generators(exps, pack.n).generators)
    kept = {}
    for e, g in zip(exps, basis):
        if e in minimal:
            kept.setdefault(g[0], g)
    out = {}
    for lm, (_, lc, tail) in kept.items():
        others = [h for h in kept.values() if h[0] != lm]
        terms = [(lm, lc), *tail]
        if others:
            # the lead survives (leading monomials form an antichain), so
            # this only rewrites the tail
            terms = _reduce(dict(terms), others, pack, counter)[0]
        out[lm] = _polynomial(pack, terms, Fraction(1, terms[0][1]))
    return [out[lm] for lm in sorted(out, reverse=True)]


def initial_ideal(gb, order):
    """Monomial ideal of the leading exponents of a Groebner basis."""
    if not gb:
        raise ValueError("empty basis")
    return normalize_generators(
        [max(g.terms, key=order.key) for g in gb], gb[0].n)


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
    """The certificate of one order: ``order_sweep`` over [order]."""
    return order_sweep(polys, [order], max_reductions=max_reductions)


def order_sweep(polys, orders, *, max_reductions=MAX_REDUCTIONS):
    """Best certificate across several monomial orders.

    Every generator must vanish at the origin (a unit in the local ring
    would trivialize the problem).  Each order gets a Groebner basis from
    ``_pair_loop``, and its initial ideal is generated by the basis's
    leading monomials, so no reduced basis is built; max_reductions caps
    the pair loop's division steps of each order.

    Every order's initial ideal has the colength D = dim_Q Q[x]/I
    (Macaulay; Cox, Little and O'Shea, ch. 5 §3), infinite when I is not
    zero-dimensional.  The first order whose pair loop completes gives D;
    every later order's initial ideal must have it too, or the sweep
    raises ``InvariantError``.  Each later pair loop gets D and stops once
    its leading monomials have colength D (Traverso, J. Symbolic Comput.
    1996), which leaves its initial ideal unchanged; with D infinite it
    never stops.

    Each distinct initial ideal gets its exact threshold c_initial once,
    from the Howald LP (``thresholds.howald_lct``, equal to Kiselman's by
    LP duality); the orders are ranked by c_initial, largest first, ties to
    the earlier order in the list.  Only the best-ranked order is fitted
    (multiplicity sequence and main bound, when its initial ideal has an
    isolated zero), and the next one when that fit fails.  Only a
    ResourceCapError of one order is tolerated, from the pair loop or from
    the fit (an unstable fit is one); any other error propagates, and when
    every order fails the error of the first order in the list is raised.
    """
    if not orders:
        raise ValueError("need at least one order")
    if any(p.constant_term() != 0 for p in polys):
        raise ValueError(
            "generators must have zero constant term (local ring at 0)")
    errors = {}
    ranked = []
    lcts = {}
    length = None  # D, once an order's pair loop has completed
    for i, order in enumerate(orders):
        try:
            _, exps, _, pack = _pair_loop(polys, order, max_reductions,
                                          length)
        except ResourceCapError as exc:
            errors[i] = exc
            continue
        j0 = normalize_generators(exps, pack.n)
        here = (_colength(j0.generators, j0.n) if is_isolated_zero(j0)
                else inf)
        if length is None:
            length = here
        elif here != length:
            raise InvariantError(
                f"the initial ideal of order {i} has colength {here}, "
                f"not {length}")
        c = lcts.get(j0.generators)
        if c is None:
            c = lcts[j0.generators] = thresholds.howald_lct(j0)
        ranked.append((c, i, j0))
    ranked.sort(key=lambda r: -r[0])  # stable: ties keep the list order
    for c, i, j0 in ranked:
        mults = None
        if is_isolated_zero(j0):
            try:
                mults = multiplicities.mixed_multiplicities(j0)
            except ResourceCapError as exc:
                errors[i] = exc
                continue
        return LowerBoundCertificate(
            order=orders[i], initial=j0, c_initial=c, mults=mults,
            mult_bound=None if mults is None else bounds.main_bound(mults))
    raise errors[min(errors)]
