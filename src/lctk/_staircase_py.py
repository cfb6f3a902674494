"""Pure-Python staircase kernels.

This is the fallback lane for the compiled extension ``lctk._staircase``;
both expose the same functions with identical semantics and this module is
the reference for the parity tests.  Only ``power_minimal`` (square and
multiply) lives here alone; the dispatcher drives it with its own steps.

Counting works on *cut families*: a pair ``(mu, m)`` denotes the upward
closed set ``{beta : beta >= mu componentwise and |beta|_1 >= m}``, and all
colength-style quantities are lattice counts of the complement of a finite
union of such sets.  An ordinary monomial ideal is the family with
``m = |mu|`` (the cut is then vacuous), and the ideal ``m^r * J^t`` is the
family ``{(g, |g| + r) : g minimal generator of J^t}``, which avoids ever
materializing the product ideal.
"""

import heapq
from bisect import bisect_right
from itertools import accumulate
from operator import sub

from .errors import DegreeCapError, NonIsolatedError

_INF = float("inf")


def _dominates(g, v):
    return all(a <= b for a, b in zip(g, v))


def minimalize(vecs, n):
    """Inclusion-minimal antichain of ``vecs`` under componentwise <=.

    Output is lexicographically sorted.  Dimensions 2 and 3 use sorted
    sweeps; other dimensions fall back to quadratic filtering.
    """
    vs = set(tuple(v) for v in vecs)
    if not vs:
        return []
    if n == 1:
        return [min(vs)]
    if n == 2:
        return _minimalize_2d(vs)
    if n == 3:
        return _minimalize_3d(vs)
    out = []
    for v in sorted(vs, key=lambda w: (sum(w), w)):
        if not any(_dominates(g, v) for g in out):
            out.append(v)
    out.sort()
    return out


def _minimalize_2d(vs):
    best = _INF
    out = []
    for x, y in sorted(vs):
        if y < best:
            out.append((x, y))
            best = y
    return out


def _minimalize_3d(vs):
    # Process by ascending z; keep a 2D staircase frontier of accepted
    # (x, y) projections: x ascending, y strictly descending.
    xs = []  # frontier x values
    ys = []  # frontier y values, ys[i] pairs with xs[i]
    out = []
    items = sorted(vs, key=lambda v: (v[2], v[0], v[1]))
    i = 0
    while i < len(items):
        j = i
        z = items[i][2]
        while j < len(items) and items[j][2] == z:
            j += 1
        # Same-z group: dominance within the group is 2D dominance, so
        # minimalize the group before consulting the frontier.
        group = _minimalize_2d({(v[0], v[1]) for v in items[i:j]})
        for x, y in group:
            k = bisect_right(xs, x) - 1
            if k >= 0 and ys[k] <= y:
                continue  # dominated by an accepted vector with z' <= z
            out.append((x, y, z))
            # Insert into the frontier, dropping dominated entries.
            pos = bisect_right(xs, x)
            if pos > 0 and xs[pos - 1] == x:
                if ys[pos - 1] <= y:
                    continue
                pos -= 1
                del xs[pos], ys[pos]
            end = pos
            while end < len(xs) and ys[end] >= y:
                end += 1
            del xs[pos:end], ys[pos:end]
            xs.insert(pos, x)
            ys.insert(pos, y)
        i = j
    out.sort()
    return out


def product_minimal(gens_a, gens_b, n, degree_cap):
    """Minimal generators of the product of two monomial ideals."""
    sums = set()
    for a in gens_a:
        for b in gens_b:
            v = tuple(x + y for x, y in zip(a, b))
            if sum(v) > degree_cap:
                raise DegreeCapError(
                    f"monomial of total degree {sum(v)} exceeds cap {degree_cap}"
                )
            sums.add(v)
    return minimalize(sums, n)


def power_minimal(gens, t, n, degree_cap, *, minimalize=minimalize,
                  product_minimal=product_minimal):
    """Minimal generators of J^t by square-and-multiply.

    The minimalize and product steps default to this lane's; the kernel
    dispatcher passes its own, so each step picks its lane.
    """
    if t == 0:
        return [(0,) * n]
    result = None
    square = minimalize(gens, n)
    while True:
        if t & 1:
            result = square if result is None else product_minimal(
                result, square, n, degree_cap)
        t >>= 1
        if t == 0:
            return result
        square = product_minimal(square, square, n, degree_cap)


def _minimalize_terms(terms, n):
    """Antichain of cut terms; (mu, m) is dominated by (nu, k) iff nu <= mu
    and k <= max(m, |mu|)."""
    ext = minimalize([mu + (max(m, sum(mu)),) for mu, m in terms], n + 1)
    return [(v[:-1], v[-1]) for v in ext]


def _count_dim1(terms):
    return min(max(mu[0], m) for mu, m in terms)


def _count_dim2(terms):
    """Count the complement of a 2D cut family.

    Columns x = 0, 1, ... are scanned left to right; the number of lattice
    points outside the family in column x is
    ``f(x) = min over active terms of max(b, m - x)`` where a term (a, b, m)
    is active once x >= a.  Each term contributes a slope -1 segment
    (while x < m - b) and then the constant b; a lazy min-heap on m tracks
    the sloped regime and constants fold into a running minimum.
    """
    cover = _INF
    for (a, b), m in terms:
        if b == 0:
            cover = min(cover, max(a, m))
    if cover is _INF:
        raise NonIsolatedError("no pure power on the first axis")
    order = sorted(range(len(terms)), key=lambda i: terms[i][0][0])
    best_flat = _INF
    heap = []
    total = 0
    k = 0
    for x in range(cover):
        while k < len(order):
            (a, b), m = terms[order[k]]
            if a > x:
                break
            k += 1
            if m - x <= b:
                if b < best_flat:
                    best_flat = b
            else:
                heapq.heappush(heap, (m, b))
        while heap and heap[0][0] - heap[0][1] <= x:
            _, b = heapq.heappop(heap)
            if b < best_flat:
                best_flat = b
        f = best_flat
        if heap and heap[0][0] - x < f:
            f = heap[0][0] - x
        if f == 0:
            break
        if f is _INF:
            raise NonIsolatedError("column never enters the ideal")
        total += f
    return total


def count_cut_complement(terms, n):
    """Number of lattice points of N^n outside the union of the cut family.

    Raises NonIsolatedError when the complement is infinite.  Dimensions 1
    and 2 are closed sweeps; higher dimensions slice along the last axis
    (the cut of a term drops by one per slice once the term is active).
    """
    terms = [(tuple(mu), m) for mu, m in terms]
    if not terms:
        raise NonIsolatedError("empty family has infinite complement")
    if n == 1:
        return _count_dim1(terms)
    if n == 2:
        return _count_dim2(terms)
    cover = _INF
    for mu, m in terms:
        if all(c == 0 for c in mu[:-1]):
            cover = min(cover, max(mu[-1], m))
    if cover is _INF:
        raise NonIsolatedError("no pure power on the last axis")
    total = 0
    for v in range(cover):
        sliced = [(mu[:-1], m - v) for mu, m in terms if mu[-1] <= v]
        if n - 1 > 2:
            sliced = _minimalize_terms(sliced, n - 1)
        total += count_cut_complement(sliced, n - 1)
    return total


def diagonal_cell(a, r, t):
    """Colength of m^r * J^t for the diagonal ideal J = (z_i^{a_i}).

    ``a`` must be sorted ascending.  Write beta = a*q + s with 0 <= s_i < a_i.
    Membership of beta only depends on q and |s|: the cheapest t-fold
    generator sum under beta fills capacities q_i in ascending weight order,
    at cost C(q), and beta lies in the ideal iff |a*q| + |s| >= r + C(q).
    Cells over the first n-1 axes are enumerated directly; the last (most
    expensive) axis is aggregated in closed form through prefix sums of the
    box-bounded simplex counts h(M) = #{s : |s| < M}.
    """
    n = len(a)
    an = a[-1]
    full_box = 1
    for ai in a:
        full_box *= ai
    # h[M] = #{s in prod [0, a_i) : |s| < M} for M = 0 .. S+1
    s_cap = sum(ai - 1 for ai in a)
    by_sum = [1]
    for ai in a:
        # entry x of the next count is the window sum by_sum[x - ai + 1..x],
        # a difference of two prefix sums: O(S) per weight, not O(S * a_i)
        acc = [0, *accumulate(by_sum)]
        by_sum = list(map(sub, acc[1:] + [acc[-1]] * (ai - 1),
                          [0] * (ai - 1) + acc[:-1]))
    h = [0] * (s_cap + 2)
    acc = 0
    for m_val in range(s_cap + 2):
        h[m_val] = acc
        if m_val <= s_cap:
            acc += by_sum[m_val]
    # strided prefix sums: sp[x] = h(x) + h(x - an) + ... for 1 <= x <= S+1
    sp = [0] * (s_cap + 2)
    for x in range(1, s_cap + 2):
        sp[x] = h[x] + (sp[x - an] if x - an >= 1 else 0)

    def h_tail(m0, count):
        # sum of h(m0 - k*an) for k = 0 .. count-1, where h(M) = full_box
        # for M > s_cap and 0 for M <= 0
        if count <= 0 or m0 <= 0:
            return 0
        k_full = 0
        if m0 > s_cap:
            k_full = min(count, -((s_cap - m0) // an))  # ceil((m0-s_cap)/an)
        out = k_full * full_box
        m1 = m0 - k_full * an
        if k_full < count and m1 >= 1:
            k_rest = count - k_full
            low = m1 - k_rest * an
            out += sp[m1] - (sp[low] if low >= 1 else 0)
        return out

    qbar = [-((-r - t * ai) // ai) for ai in a]  # ceil((r + t*a_i)/a_i)
    total = 0
    prefix = [0] * (n - 1)
    while True:
        trem = t
        cost = 0
        w = 0
        for i in range(n - 1):
            take = prefix[i] if prefix[i] < trem else trem
            cost += take * a[i]
            trem -= take
            w += a[i] * prefix[i]
        tau = trem
        total += tau * full_box  # q_n < tau: no t-fold sum fits at all
        total += h_tail(r + cost - w, qbar[-1] - tau)
        i = n - 2
        while i >= 0:
            prefix[i] += 1
            if prefix[i] < qbar[i]:
                break
            prefix[i] = 0
            i -= 1
        if i < 0:
            break
    return total
