"""Kernel speed-ups of the compiled lane over the pure-Python lane.

The cases are the hot paths of the package: minimal generators of an ideal
power, one colength-table cell through the cut family, minimalization of
random vectors, and the aggregated diagonal counter.  Each case times both
lanes (best of three) and requires equal results; a mismatch is reported
as a failure, not asserted, so it also holds under ``python -O``.
"""

import random
from time import perf_counter

GENS3 = [(6, 0, 0), (0, 5, 0), (0, 0, 6), (2, 1, 3), (1, 4, 1),
         (3, 2, 0), (0, 2, 4)]


def cases(lctk):
    """(name, pure-lane call, compiled-lane call) triples."""
    pure = lctk._staircase_py
    comp = lctk._staircase
    power20 = pure.power_minimal(GENS3, 20, 3, 512)
    terms = [(g, sum(g) + 20) for g in power20]
    rng = random.Random(1)
    vecs = [tuple(rng.randint(0, 40) for _ in range(3)) for _ in range(4000)]
    return [
        ("power_j20_n3",
         lambda: pure.power_minimal(GENS3, 20, 3, 512),
         lambda: lctk.kernels.power_minimal(GENS3, 20, 3, 512)),
        ("table_cell_m20_j20_n3",
         lambda: pure.count_cut_complement(terms, 3),
         lambda: comp.count_cut_complement(terms, 3)),
        ("minimalize_4000_n3",
         lambda: pure.minimalize(vecs, 3),
         lambda: comp.minimalize(vecs, 3)),
        ("diagonal_cell_1115_r26",
         lambda: pure.diagonal_cell((1, 1, 1, 5), 26, 26),
         lambda: comp.diagonal_cell((1, 1, 1, 5), 26, 26)),
        ("diagonal_cell_5555_r26",
         lambda: pure.diagonal_cell((5, 5, 5, 5), 26, 26),
         lambda: comp.diagonal_cell((5, 5, 5, 5), 26, 26)),
    ]


def _best(fn, repeat=3):
    best = None
    for _ in range(repeat):
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, result


def speedups(lctk):
    """Returns ({"kernels.speedup.<case>": ratio}, [mismatched case names])."""
    metrics = {}
    mismatches = []
    for name, pure_fn, comp_fn in cases(lctk):
        t_pure, r_pure = _best(pure_fn)
        t_comp, r_comp = _best(comp_fn)
        if r_pure != r_comp:
            mismatches.append(name)
        metrics[f"kernels.speedup.{name}"] = t_pure / t_comp
    return metrics, mismatches
