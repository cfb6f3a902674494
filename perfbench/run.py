"""Pipeline benchmark of lctk on the compiled kernel lane.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): corpus, diagonal, thresholds, groebner.
BENCHMARK.json lists corpus and groebner; diagonal and thresholds run by
name, for the traced per-layer figures of the layers they isolate.

The first run in a checkout compiles ``src/lctk/_staircase.c`` with gcc
into ``.bench_build/``; a run on any lane other than ``compiled`` is
refused with exit code 2 and no result.

``--trace 0`` runs items from the seeded input pool in a closed loop, one
at a time, until S seconds of item time are measured (or the pool is used
up), and reports the end-to-end metrics:

- items_per_s: items completed per second of item time;
- item_p50_ms and item_tail_ms: median and p90 item latency; the context
  line states the percentile and how many samples lie beyond it;
- setup_s: median over five fresh interpreters of importing lctk plus
  making the inputs;
- rss_mb: median resident memory of this process, sampled after each
  item once glibc's ``malloc_trim`` has returned the heap's free pages:
  the memory held between items (inputs, library state, anything cached).
  Without the trim, free pages a large item leaves in the heap stay
  resident and set the figure: after one 1.2 s corpus item 8 MB more
  stayed resident, and the run read 50 MB, against 38 MB with the trim.
  The peak (ru_maxrss) is not used: it is set by the single largest item
  a seed happens to draw.

``--trace 1`` runs each of the workload's first ``pass_size`` inputs twice,
untraced and with spans around the library's public functions (see
tracing.py), and reports per-layer figures for that fixed pass, the
tracing overhead, and the kernel speed-ups of kernel_cases.py.  Spans are
written to ``.bench_build/spans/``.

Every item runs its exact check outside the timed region.  The outputs of
the first ``pass_size`` items are hashed; for the default seed the hash
must equal the one pinned in ``perfbench/digests.json``.  A line of run
context (lane, Python, CPUs, git SHA, a calibration loop's time before and
after the measurement, the tail percentile, the fail rate, digests)
precedes the last line, the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import kernel_cases
import lane
import tracing
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = lane.ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
try:
    MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError):   # not glibc
    MALLOC_TRIM = None
#: The tail latency percentile.  It is fixed, so a faster program is
#: measured at the same percentile; p90 leaves over 20 samples beyond it in
#: a run of every workload, and higher percentiles fall into gaps between
#: the cost clusters of corpus items, where they jump from seed to seed.
TAIL_PERCENTILE = 90


def calibration_s():
    """Best of three timings of a fixed pure-Python loop.  Context for host
    drift only; no metric is divided by it."""
    best = None
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        elapsed = perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def measure_setup(workload, seed, build_dir):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(build_dir)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def resident_mb():
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Outcome:
    """Latencies, failures and output digests of one pass over inputs."""

    def __init__(self, pass_size):
        self.pass_size = pass_size
        self.latencies = []
        self.resident_mb = []
        self.measured_s = 0.0
        self.attempted = 0
        self.failed = 0
        self._run_hash = hashlib.sha256()
        self._pass_hash = hashlib.sha256()

    def record(self, elapsed, text, ok):
        self.attempted += 1
        self.measured_s += elapsed
        if ok:
            self.latencies.append(elapsed)
        else:
            self.failed += 1
        line = (text if ok else "<failed>").encode() + b"\n"
        self._run_hash.update(line)
        if self.attempted <= self.pass_size:
            self._pass_hash.update(line)

    @property
    def pass_digest(self):
        """Digest of the first pass_size outputs, once that many ran."""
        if self.attempted < self.pass_size:
            return None
        return self._pass_hash.hexdigest()

    @property
    def run_digest(self):
        return self._run_hash.hexdigest()


def plain_item(lctk, workload):
    def item(inp):
        result = workload.compute(lctk, inp)
        return result, workload.serialize(lctk, inp, result)
    return item


def run_item(lctk, workload, outcome, inp, item_fn):
    """Time item_fn(inp) -> (result, text), then check the result outside
    the timed region.  An item that raises or fails its check counts as
    failed."""
    start = perf_counter()
    try:
        result, text = item_fn(inp)
    except Exception:
        outcome.record(perf_counter() - start, None, False)
        if outcome.failed == 1:
            traceback.print_exc()
        return
    elapsed = perf_counter() - start
    try:
        ok = bool(workload.check(lctk, inp, result))
    except Exception:
        if outcome.failed == 0:
            traceback.print_exc()
        ok = False
    outcome.record(elapsed, text, ok)


def run_pass(lctk, workload, inputs, budget_s):
    """Run inputs in order until budget_s of item time is measured,
    sampling resident memory after each item."""
    outcome = Outcome(workload.pass_size)
    item = plain_item(lctk, workload)
    for inp in inputs:
        if outcome.measured_s >= budget_s:
            break
        run_item(lctk, workload, outcome, inp, item)
        outcome.resident_mb.append(resident_mb())
    return outcome


def repeat_share(inputs):
    """Share of inputs equal to an earlier one."""
    return 1 - len({repr(inp) for inp in inputs}) / max(len(inputs), 1)


def pinned_digest(workload):
    if not DIGESTS.is_file():
        return None
    pins = json.loads(DIGESTS.read_text())
    return pins.get(workload.name)


def digest_verdict(workload, seed, outcome):
    """"match", "mismatch", or why the pin was not compared."""
    if seed != DEFAULT_SEED:
        return "not the default seed"
    pin = pinned_digest(workload)
    if pin is None:
        return "no pin"
    if outcome.pass_digest is None:
        return f"fewer than {workload.pass_size} items ran"
    return "match" if outcome.pass_digest == pin else "mismatch"


def require_untraced(lctk):
    leftovers = tracing.leftover_wrappers(lctk)
    if leftovers:
        raise RuntimeError(f"tracer wrappers left in place: {leftovers}")


def traced_pass(lctk, workload, inputs):
    """Run every input once untraced and once traced.

    The two runs of an item are adjacent, and which goes first alternates,
    so a drift of the host's speed during the pass hits both sides alike.
    Returns (untraced outcome, traced outcome, tracer).
    """
    tracer = tracing.Tracer()
    plain, traced = Outcome(len(inputs)), Outcome(len(inputs))
    untraced_item = plain_item(lctk, workload)

    def traced_item(inp):
        result = workload.compute(lctk, inp)
        return result, tracer.span("serialize", workload.serialize, lctk,
                                   inp, result)

    def run_traced(inp):
        tracer.install(lctk)
        try:
            run_item(lctk, workload, traced, inp,
                     lambda i: tracer.span("item", traced_item, i))
        finally:
            tracer.remove()

    def run_untraced(inp):
        require_untraced(lctk)
        run_item(lctk, workload, plain, inp, untraced_item)

    for index, inp in enumerate(inputs):
        tracer.item = index
        first, second = (run_untraced, run_traced) if index % 2 == 0 \
            else (run_traced, run_untraced)
        first(inp)
        second(inp)
    return plain, traced, tracer


def end_to_end(lctk, workload, args, inputs, build_dir):
    setup_s = measure_setup(workload.name, args.seed, build_dir)
    require_untraced(lctk)
    outcome = run_pass(lctk, workload, inputs, args.seconds)
    lat = sorted(outcome.latencies)
    tail, beyond = percentile(lat, TAIL_PERCENTILE) if lat else (math.nan, 0)
    metrics = {
        "items_per_s": len(lat) / outcome.measured_s,
        "item_p50_ms": statistics.median(lat) * 1e3 if lat else math.nan,
        "item_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "rss_mb": statistics.median(outcome.resident_mb),
    }
    context = {
        "measured_s": outcome.measured_s,
        "pool_used_up": outcome.attempted == len(inputs),
        "tail": {"percentile": TAIL_PERCENTILE,
                 "samples": len(lat), "beyond": beyond},
    }
    return outcome, metrics, context, []


def per_layer(lctk, workload, args, inputs, build_dir):
    plain, traced, tracer = traced_pass(
        lctk, workload, inputs[:workload.pass_size])
    problems = []
    if plain.failed:
        problems.append(f"{plain.failed} untraced items failed")
    if traced.run_digest != plain.run_digest:
        problems.append("traced outputs differ from untraced outputs")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.items_per_s"] = traced.attempted / traced.measured_s
    metrics["trace.untraced_items_per_s"] = plain.attempted / plain.measured_s
    metrics["trace.overhead_share"] = traced.measured_s / plain.measured_s - 1
    speedups, mismatches = kernel_cases.speedups(lctk)
    metrics.update(speedups)
    problems += [f"lane mismatch in kernel case {name}"
                 for name in mismatches]
    spans_dir = lane.BUILD_ROOT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{workload.name}-{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "item"],
         "spans": tracer.spans}))
    context = {
        "pass_items": traced.attempted,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(lane.ROOT)),
    }
    return traced, metrics, context, problems


def declared_metrics(trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        units = declared_metrics(args.trace)
        build_dir = lane.build_extension()
        lctk = lane.load_lctk(build_dir)
    except (lane.LaneError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = lane.run_record(lctk)
    calibration = {"before": calibration_s()}
    inputs = workload.generate(lctk, args.seed, workload.pool_size)
    measure = per_layer if args.trace else end_to_end
    outcome, metrics, context, problems = measure(
        lctk, workload, args, inputs, build_dir)
    calibration["after"] = calibration_s()
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 2
    verdict = digest_verdict(workload, args.seed, outcome)
    if verdict == "mismatch":
        problems.append("output digest differs from the pinned digest")
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        **record, "calibration_s": calibration, **context,
        "fail_rate": outcome.failed / max(outcome.attempted, 1),
        "input_repeat_share": repeat_share(inputs[:outcome.attempted]),
        "digest": {"first_items": outcome.pass_digest,
                   "items": workload.pass_size, "pinned": verdict,
                   "run": outcome.run_digest},
        "problems": problems,
    }))
    print(json.dumps({
        "correct": outcome.failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
