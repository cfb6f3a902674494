"""Exact log canonical thresholds of monomial ideals.

The primal route maximizes the refined Lelong number over the standard
simplex by exact LP; the dual route asks for the largest scaling of the
Newton polyhedron containing the all-ones point.  Both are rational and
must agree exactly, which the test suite enforces on every ideal it sees.
A numeric quadrature probe gives a heuristic integrability check; it is
never a certificate.
"""

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import inf, isfinite

from .errors import DegenerateMinorantError, InvariantError, UnitIdealError
from .lattice import is_isolated_zero
from .simplex import OPTIMAL, solve_min

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LctCertificate:
    """Threshold c, the maximizing simplex point, and its Lelong value.

    Invariants: sum(x0) == 1, c * nu == 1, and nu equals
    refined_lelong(ideal, x0).  `isolated` records whether the ideal has an
    isolated zero; non-isolated ideals still get a valid threshold.
    """

    c: Fraction
    x0: tuple
    nu: Fraction
    isolated: bool = True


@dataclass(frozen=True)
class DiagonalWeights:
    """Ascending positive weights a_1 <= ... <= a_n of a diagonal ideal.

    `axis_order[k]` is the original axis whose weight landed in slot k
    after sorting (None when the order never mattered).
    """

    a: tuple
    axis_order: tuple = field(default=None)

    def __post_init__(self):
        if not self.a:
            raise ValueError("need at least one weight")
        if any(w <= 0 for w in self.a):
            raise ValueError("weights must be positive")
        if any(x > y for x, y in zip(self.a, self.a[1:])):
            raise ValueError("weights must be sorted ascending")


class UnitIdealWarning(UserWarning):
    """The weight of the unit ideal is bounded; its Lelong data is zero."""


def refined_lelong(ideal, x):
    """min over generators of <alpha, x>: the directional slope at x.

    Positively homogeneous of degree 1 and concave on the positive orthant.
    Returns 0 with a warning for the unit ideal.
    """
    x = tuple(Fraction(v) for v in x)
    if len(x) != ideal.n:
        raise ValueError(f"point has length {len(x)}, expected {ideal.n}")
    if any(v < 0 for v in x):
        raise ValueError("x must be componentwise nonnegative")
    if ideal.is_unit:
        warnings.warn("refined Lelong number of the unit ideal is 0",
                      UnitIdealWarning, stacklevel=2)
        return _ZERO
    return min(sum(a * v for a, v in zip(g, x)) for g in ideal.generators)


def _solve_optimal(what, rows, rhs, *costs):
    """solve_min for an LP that is feasible and bounded by construction."""
    res = solve_min(rows, rhs, *costs)
    if res.status != OPTIMAL:
        raise InvariantError(f"{what} ended {res.status}")
    return res


def kiselman_lct(ideal):
    """Exact threshold certificate via max over the simplex of the refined
    Lelong number.

    Solves max s subject to <alpha, x> >= s for every generator, x in the
    standard simplex, as an exact LP; then c = 1/s.  The same solve then
    minimizes x_1, ..., x_n in turn as tiebreaks, so x0 is the
    lexicographically smallest point of the optimal face, which is unique
    and makes every certificate deterministic.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no threshold")
    gens = ideal.generators
    n = ideal.n
    k = len(gens)
    # variables: x_1..x_n, s, u_1..u_k
    rows = []
    rhs = []
    for idx, g in enumerate(gens):
        slack = [0] * k
        slack[idx] = -1
        rows.append(list(g) + [-1] + slack)
        rhs.append(0)
    rows.append([1] * n + [0] * (k + 1))
    rhs.append(1)
    cost = [0] * n + [-1] + [0] * k
    unit = [[int(j == axis) for j in range(n + k + 1)] for axis in range(n)]
    res = _solve_optimal("Kiselman LP", rows, rhs, cost, *unit)
    s_star = res.x[n]
    if s_star == 0:
        # unreachable for non-unit ideals: every generator has positive
        # pairing with the barycenter
        raise InvariantError("Kiselman LP optimum has zero slope")
    return LctCertificate(c=_ONE / s_star, x0=tuple(res.x[:n]), nu=s_star,
                          isolated=is_isolated_zero(ideal))


def howald_lct(ideal):
    """Dual route: 1 / min over convex generator combinations of the max
    coordinate.

    The all-ones point enters c * P(J) exactly when the scaled polyhedron
    reaches it, and LP duality makes this agree with kiselman_lct.
    """
    if ideal.is_unit:
        raise UnitIdealError("the unit ideal has no threshold")
    gens = ideal.generators
    n = ideal.n
    k = len(gens)
    # variables: lambda_1..lambda_k, y, slack_1..slack_n
    rows = []
    rhs = []
    for i in range(n):
        slack = [0] * n
        slack[i] = 1
        rows.append([g[i] for g in gens] + [-1] + slack)
        rhs.append(0)
    rows.append([1] * k + [0] * (n + 1))
    rhs.append(1)
    cost = [0] * k + [1] + [0] * n
    res = _solve_optimal("Howald LP", rows, rhs, cost)
    y_star = res.objective
    if y_star == 0:
        # unreachable for non-unit ideals: a convex combination of nonzero
        # natural vectors has a positive coordinate
        raise InvariantError("Howald LP optimum is zero")
    return _ONE / y_star


def diagonal_lct(weights):
    """Threshold of a diagonal ideal: the sum of inverse weights."""
    a = weights.a if isinstance(weights, DiagonalWeights) else tuple(
        Fraction(w) for w in weights)
    if any(w <= 0 for w in a):
        raise ValueError("weights must be positive")
    return sum((_ONE / Fraction(w) for w in a), _ZERO)


def worst_diagonal_minorant(ideal):
    """Diagonal weights nu/x0_j of the threshold-preserving comparison ideal.

    The associated diagonal weight dominates the ideal's weight function and
    has the same threshold, because sum(x0_j) / nu = 1 / nu.  Fails when the
    maximizing point touches the simplex boundary.
    """
    return minorant_from_certificate(kiselman_lct(ideal))


def minorant_from_certificate(cert):
    """worst_diagonal_minorant read off an existing Kiselman certificate."""
    if any(v == 0 for v in cert.x0):
        raise DegenerateMinorantError(
            f"maximizing point {cert.x0} has a zero coordinate")
    paired = sorted(
        ((cert.nu / v, axis) for axis, v in enumerate(cert.x0)),
        key=lambda p: (p[0], p[1]))
    return DiagonalWeights(a=tuple(p[0] for p in paired),
                           axis_order=tuple(p[1] for p in paired))


#: Doubling box sizes R of the integrability probe.
PROBE_SCHEDULE = (4, 8, 16, 32)

#: Resource cap on the probe's grid size, grid ** n.
PROBE_MAX_POINTS = 1 << 24


@dataclass(frozen=True)
class ProbeConfig:
    grid: int = 128               # quadrature points per axis
    theta: float = 0.05           # ratio tolerance

    def __post_init__(self):
        if self.grid < 2:
            raise ValueError(f"probe grid must be >= 2, got {self.grid}")
        if not 0 <= self.theta < inf:
            raise ValueError(
                f"probe tolerance must be finite and >= 0, got {self.theta}")


@dataclass(frozen=True)
class ProbeResult:
    verdict: str                  # converges | diverges | inconclusive
    trail: tuple                  # (R, integral, ratio-or-None) triples
    note: str = ""


def numeric_integrability_probe(ideal, c, config=ProbeConfig()):
    """Heuristic quadrature check of e^{-2c phi} integrability.

    Evaluates I(c, R) = int_{[0,R]^n} exp(2c nu_min(x) - 2 sum x_j) dx by
    trapezoid quadrature for growing R.  Ratios of successive integrals
    near 1 indicate convergence; ratios bounded away from 1 indicate
    divergence.  Never a certificate: near the exact threshold the verdict
    is unreliable.  The trail stops, inconclusive, at the first box whose
    integral or ratio is not a finite float.  numpy is imported here, and
    nowhere else in lctk.
    """
    import numpy as np

    if ideal.is_unit:
        raise UnitIdealError("probe undefined for the unit ideal")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    n = ideal.n
    if config.grid ** n > PROBE_MAX_POINTS:
        return ProbeResult(
            "inconclusive", (),
            note=f"grid ** n = {config.grid} ** {n} points exceed "
                 f"PROBE_MAX_POINTS = {PROBE_MAX_POINTS}; a smaller "
                 f"--probe-grid lowers the grid")
    try:
        cf = float(c)
    except OverflowError:
        raise ValueError("c is too large for the float probe") from None
    gens = [tuple(float(e) for e in g) for g in ideal.generators]
    w = np.ones(config.grid)
    w[0] = w[-1] = 0.5
    weights = np.meshgrid(*[w] * n, indexing="ij", sparse=True)
    trail = []
    prev = None
    for R in PROBE_SCHEDULE:
        axes = np.meshgrid(*[np.linspace(0.0, float(R), config.grid)] * n,
                           indexing="ij", sparse=True)
        tot = reduce(np.add, axes)
        nu = reduce(np.minimum, [
            reduce(np.add, [e * ax for e, ax in zip(g, axes)])
            for g in gens])
        h = float(R) / (config.grid - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = reduce(np.multiply, weights,
                               np.exp(2.0 * cf * nu - 2.0 * tot))
            val = float(np.sum(integrand)) * h ** n
        ratio = None if prev is None else val / prev
        if not isfinite(val if ratio is None else ratio):
            return ProbeResult(
                "inconclusive", tuple(trail),
                note=f"the integral at R = {R} or its ratio is not a "
                     f"finite float; the trail stops before it")
        trail.append((R, val, ratio))
        prev = val
    last_ratio = trail[-1][2]
    if last_ratio <= 1.0 + config.theta:
        verdict = "converges"
    elif last_ratio >= 1.0 + 2.0 * config.theta:
        verdict = "diverges"
    else:
        verdict = "inconclusive"
    return ProbeResult(verdict, tuple(trail))
