"""Tests of the benchmark itself.

Run with ``python3 perfbench/selftest.py`` (builds the compiled lane on
first use).  They check that traced counts repeat exactly for one seed,
that tracing leaves no wrapper behind and changes no output, that the
seeded inputs are deterministic, and that the pinned digests match.
"""

import math
import unittest

import lane
import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

#: The counts that must repeat exactly between two traced passes.
EXACT = [name for name in tracing.layer_metrics(tracing.Tracer())
         if name.endswith((".calls", "table_cells", "repeat_initial_share",
                           "compiled_calls", "python_calls"))]
SMALL_PASS = 12

LCTK = lane.load_lctk(lane.build_extension())


def small_inputs(name, seed=7):
    return WORKLOADS[name].generate(LCTK, seed, SMALL_PASS)


class TracingTests(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                inputs = small_inputs(name)
                first = tracing.layer_metrics(
                    run.traced_pass(LCTK, WORKLOADS[name], inputs)[2])
                second = tracing.layer_metrics(
                    run.traced_pass(LCTK, WORKLOADS[name], inputs)[2])
                for metric in EXACT:
                    self.assertEqual(first[metric], second[metric], metric)

    def test_wrappers_removed_and_outputs_unchanged(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                plain, traced, tracer = run.traced_pass(
                    LCTK, WORKLOADS[name], small_inputs(name))
                self.assertEqual(tracing.leftover_wrappers(LCTK), [])
                self.assertIs(LCTK.kernels._compiled, LCTK._staircase)
                self.assertIs(LCTK.kernels._py, LCTK._staircase_py)
                self.assertEqual(plain.run_digest, traced.run_digest)
                self.assertEqual((plain.failed, traced.failed), (0, 0))
                self.assertGreater(len(tracer.spans), SMALL_PASS)

    def test_install_is_seen_by_leftover_check(self):
        tracer = tracing.Tracer()
        tracer.install(LCTK)
        try:
            self.assertIn("lctk.kernels.count_cut_complement",
                          tracing.leftover_wrappers(LCTK))
            with self.assertRaises(RuntimeError):
                run.require_untraced(LCTK)
        finally:
            tracer.remove()
        run.require_untraced(LCTK)

    def test_self_time_excludes_children(self):
        spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
                 ["a", 5.0, 6.0, 0, 0]]
        idx = tracing.SpanIndex(spans)
        self.assertEqual(idx.calls["a"], 2)
        self.assertEqual(idx.busy["a"], 10.0)
        self.assertEqual(idx.self_time["a"], 6.0 + 1.0)
        self.assertEqual(idx.busy["b"], 3.0)


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(repr(small_inputs(name, 3)),
                                 repr(small_inputs(name, 3)))
                self.assertNotEqual(repr(small_inputs(name, 3)),
                                    repr(small_inputs(name, 4)))

    def test_pools_hold_no_repeats(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                pool = workload.generate(LCTK, 3, workload.pool_size)
                self.assertEqual(len({repr(inp) for inp in pool}),
                                 workload.pool_size)

    def test_pool_covers_pass(self):
        for workload in WORKLOADS.values():
            self.assertLessEqual(workload.pass_size, workload.pool_size)

    def test_percentile_has_samples_beyond(self):
        values = [float(i) for i in range(1, 201)]
        self.assertEqual(run.percentile(values, 90), (180.0, 20))
        self.assertEqual(run.percentile(values, 50), (100.0, 100))


class PinnedDigestTests(unittest.TestCase):
    def test_default_seed_digests(self):
        """The outputs of the default seed are byte-identical to the pin."""
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                inputs = workload.generate(
                    LCTK, DEFAULT_SEED, workload.pool_size)[
                        :workload.pass_size]
                outcome = run.run_pass(LCTK, workload, inputs, math.inf)
                self.assertEqual(
                    run.digest_verdict(workload, DEFAULT_SEED, outcome),
                    "match")


if __name__ == "__main__":
    unittest.main()
