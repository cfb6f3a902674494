"""The inequality engine: every inequality on a multiplicity sequence is
decided here.  It holds the bound functional on log-convex sequences, the
main lower bound, the classical interval, the bound chain and the
sequence inequalities.

Every verdict is exact.  Comparisons against n-th roots happen in the power
domain with integers; the one genuinely two-root comparison in the chain is
settled by a rational equality criterion plus certified dyadic bracketing.
The bound functional sums in integers on one common denominator and makes
one Fraction at the end, cone membership compares int entries as ints,
and a bounds report computes its main bound once, for the chain too.
A sequence is (1, e_1, ..., e_n) with n >= 1 and positive integer entries,
validated as a MultiplicitySequence, so e_1 >= 1 and every bound is a
finite rational.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .lattice import _integers, rational
from .multiplicities import MultiplicitySequence

_ONE = Fraction(1)

LT, EQ, GT = "LT", "EQ", "GT"


def _sequence(seq):
    """seq as a MultiplicitySequence; a raw tuple is validated here."""
    if isinstance(seq, MultiplicitySequence):
        return seq
    return MultiplicitySequence(seq)


def _entries(t):
    """t as a tuple: int entries as they are, every other entry read by
    ``lattice.rational``."""
    return tuple(v if type(v) is int else rational(v, "each entry")
                 for v in t)


def d_membership(t, *, strict=False):
    """Exact membership of a positive vector in the log-convex cone."""
    t = _entries(t)
    if any(v <= 0 for v in t):
        raise ValueError("entries must be positive")
    ext = (1,) + t  # t_0 = 1 folds the first inequality into the rest
    for j in range(1, len(t)):
        lhs, rhs = ext[j] ** 2, ext[j - 1] * ext[j + 1]
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def f_value(t):
    """1/t_1 + t_1/t_2 + ... + t_{n-1}/t_n, exactly."""
    t = _entries(t)
    if any(v == 0 for v in t):
        raise ValueError("entries must be nonzero")
    return _f(t)


def _f(t):
    """f_value of nonzero rationals, summed in integers: with t = T / s on
    one common denominator, 1/t_1 = s/T_1 and t_j/t_{j+1} = T_j/T_{j+1},
    so one Fraction is made, at the end."""
    ints, scale = _integers(t)
    num, den = scale, ints[0]
    for a, b in zip(ints, ints[1:]):
        num, den = num * b + a * den, den * b
    return Fraction(num, den)


def main_bound(seq):
    """Sum of e_j / e_{j+1} for j < n: the bound functional at e_1..e_n."""
    return _f(_sequence(seq).e[1:])


def skoda_interval(e1, n):
    """The classical two-sided enclosure (1/e_1, n/e_1)."""
    if e1 < 1:
        raise ValueError(f"e_1 must be a positive integer, got {e1}")
    return (Fraction(1, e1), Fraction(n, e1))


def _cmp(a, b):
    if a < b:
        return LT
    if a > b:
        return GT
    return EQ


def compare_geometric_bound(c, e_n, n):
    """Ordering of c against n / e_n^{1/n} via c^n e_n vs n^n (no roots).

    Returns the ordering plus the integer witnesses compared.
    """
    c = rational(c, "c")
    if c <= 0:
        raise ValueError("c must be positive")
    lhs = c.numerator ** n * e_n
    rhs = n ** n * c.denominator ** n
    return _cmp(lhs, rhs), (lhs, rhs)


def compare_mixed_bound(c, e1, e_n, n):
    """Ordering of c against 1/e_1 + (n-1)(e_1/e_n)^{1/(n-1)}.

    With u = c - 1/e_1: for u <= 0 the bound immediately exceeds c;
    otherwise compare u^{n-1} e_n against (n-1)^{n-1} e_1 in integers.
    """
    if n < 2:
        raise ValueError("defined for n >= 2 only")
    c = rational(c, "c")
    u = c - Fraction(1, e1)
    if u <= 0:
        return LT, (u,)
    k = n - 1
    lhs = u.numerator ** k * e_n
    rhs = k ** k * e1 * u.denominator ** k
    return _cmp(lhs, rhs), (lhs, rhs)


def _iroot_floor(x, k):
    """floor(x ** (1/k)) for nonnegative integers, exact (integer Newton)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def root_bracket(x, k, bits):
    """Certified dyadic bracket lo <= x^{1/k} <= hi with denominator 2^bits."""
    x = rational(x, "the radicand")
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    t = (x.numerator * scale ** k) // x.denominator
    lo = _iroot_floor(t, k)
    hi = _iroot_floor(t + 1, k) + 1
    return Fraction(lo, scale), Fraction(hi, scale)


def _compare_mixed_vs_geometric(e1, e_n, n):
    """Ordering of 1/e_1 + (n-1)(e_1/e_n)^{1/(n-1)} against n/e_n^{1/n}.

    Equality happens exactly when e_n = e_1^n (both sides are then the
    rational n/e_1); otherwise the sides differ by strict AM-GM, so dyadic
    brackets of both roots, refined until they separate, always do; the
    separating bounds are the witness.
    """
    if e_n == e1 ** n:
        return EQ, (Fraction(n, e1), Fraction(n, e1))
    base = Fraction(1, e1)
    bits = 16
    while True:
        lo1, hi1 = root_bracket(Fraction(e1, e_n), n - 1, bits)
        lo2, hi2 = root_bracket(Fraction(1, e_n), n, bits)
        lhs_lo = base + (n - 1) * lo1
        lhs_hi = base + (n - 1) * hi1
        rhs_lo = n * lo2
        rhs_hi = n * hi2
        if lhs_lo > rhs_hi:
            return GT, (lhs_lo, rhs_hi)
        if lhs_hi < rhs_lo:
            return LT, (lhs_hi, rhs_lo)
        bits *= 2


@dataclass(frozen=True)
class ChainReport:
    """Verdicts for: main bound >= mixed bound >= geometric-mean bound."""

    main_vs_mixed: str
    mixed_vs_geometric: str
    witnesses: tuple

    @property
    def ok(self):
        return (self.main_vs_mixed in (GT, EQ)
                and self.mixed_vs_geometric in (GT, EQ))


def chain_check(seq):
    """Exact verification that the main bound dominates the mixed bound,
    which dominates the geometric-mean bound."""
    seq = _sequence(seq)
    return _chain(seq, main_bound(seq))


def _chain(seq, mb):
    """chain_check of a MultiplicitySequence whose main bound is mb."""
    e, n = seq.e, seq.n
    if n == 1:
        # both reference bounds collapse to 1/e_1
        wit = (mb, Fraction(1, e[1]))
        return ChainReport(_cmp(mb, Fraction(1, e[1])), EQ, (wit,))
    main_vs_mixed, wit1 = compare_mixed_bound(mb, e[1], e[n], n)
    mixed_vs_geometric, wit2 = _compare_mixed_vs_geometric(e[1], e[n], n)
    return ChainReport(main_vs_mixed, mixed_vs_geometric, (wit1, wit2))


def derivative_certificates(t):
    """Exact signs of the partial derivatives of the bound functional.

    At an interior log-convex point, -t_{j-1}/t_j^2 + 1/t_{j+1} <= 0 for
    every j (with t_0 = 1 and the last term dropped at j = n).
    """
    t = tuple(rational(v, "each entry") for v in t)
    ext = (_ONE,) + t
    out = []
    for j in range(1, len(t) + 1):
        val = -ext[j - 1] / ext[j] ** 2
        if j + 1 <= len(t):
            val += _ONE / ext[j + 1]
        out.append(val <= 0)
    return out


def _ascending_products(rng, n, offset):
    """Cumulative products of n ascending random ratios: the first is
    offset + p/q, each next one the last times 1 + p/q, with p and q
    uniform in 1..9."""
    def draw():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    ratios = [offset + draw()]
    for _ in range(n - 1):
        ratios.append(ratios[-1] * (1 + draw()))
    return tuple(accumulate(ratios, mul))


def random_interior_dvector(rng, n):
    """Interior point of the log-convex cone from ascending random ratios."""
    return _ascending_products(rng, n, 0)


def random_dominating_pair(rng, n):
    """Pair a >= b, both interior: multiply b by an interior vector >= 1."""
    b = random_interior_dvector(rng, n)
    u = _ascending_products(rng, n, 1)
    return tuple(x * y for x, y in zip(b, u)), b


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated exact comparisons for one multiplicity sequence."""

    main: Fraction
    skoda_low: Fraction
    skoda_high: Fraction
    geometric_cmp: object        # ordering of c vs the geometric-mean bound,
    mixed_cmp: object            # and vs the mixed bound; None without c
    chain: ChainReport
    in_cone: bool
    details: tuple


def build_bounds_report(seq, c=None):
    """Assemble the full exact report; comparisons against c need c."""
    seq = _sequence(seq)
    e, n = seq.e, seq.n
    lo, hi = skoda_interval(e[1], n)
    geometric_cmp = mixed_cmp = None
    details = []
    main = main_bound(seq)
    if c is not None:
        c = rational(c, "c")
        geometric_cmp, gw = compare_geometric_bound(c, e[n], n)
        details.append(("geometric", gw))
        if n >= 2:
            mixed_cmp, mw = compare_mixed_bound(c, e[1], e[n], n)
        else:
            mixed_cmp, mw = _cmp(c, Fraction(1, e[1])), ()
        details.append(("mixed", mw))
    return BoundsReport(
        main=main, skoda_low=lo, skoda_high=hi,
        geometric_cmp=geometric_cmp, mixed_cmp=mixed_cmp,
        chain=_chain(seq, main), in_cone=d_membership(e[1:]),
        details=tuple(details))


@dataclass(frozen=True)
class SequenceReport:
    log_convex: bool
    power_lower: bool
    interpolation: bool
    failures: tuple

    @property
    def all_ok(self):
        return self.log_convex and self.power_lower and self.interpolation


def validate_sequence(seq):
    """Exact check of the three inequality families a genuine sequence obeys.

    Log-convexity e_j^2 <= e_{j-1} e_{j+1} (membership of e_1..e_n in the
    log-convex cone); the power bounds e_j >= e_1^j; and interpolation
    e_k^{l-j} <= e_j^{l-k} e_l^{k-j} for j < k < l.
    """
    seq = _sequence(seq)
    e, n = seq.e, seq.n
    failures = []
    log_convex = d_membership(e[1:])
    if not log_convex:
        failures.append(f"log-convexity: some e_j^2 > e_(j-1) e_(j+1) "
                        f"in {list(e)}")
    power_lower = True
    for j in range(n + 1):
        if e[j] < e[1] ** j:
            power_lower = False
            failures.append(f"power bound: e_{j} = {e[j]} < e_1^{j}")
    interpolation = True
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            for l in range(k + 1, n + 1):
                if e[k] ** (l - j) > e[j] ** (l - k) * e[l] ** (k - j):
                    interpolation = False
                    failures.append(
                        f"interpolation failed at (j,k,l)=({j},{k},{l})")
    return SequenceReport(log_convex, power_lower, interpolation,
                          tuple(failures))
