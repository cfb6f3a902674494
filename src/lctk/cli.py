"""Command-line surface.

JSON goes to stdout, human-readable summaries to stderr.  Exit codes:
0 ok, 2 parse or input-contract error, 3 unit ideal, 4 invariant violation
(a failing exact check), 5 resource cap.  Random sweeps are reproducible:
the seeded generator is Python's Mersenne Twister (random.Random), and the
draw order is fixed, so identical configs give byte-identical JSON.
"""

import argparse
import csv
import json
import sys
from fractions import Fraction
from itertools import permutations

from . import __version__, kernels
from .bounds import build_bounds_report
from .errors import (
    LctkError,
    NonIsolatedError,
    PolynomialParseError,
    ResourceCapError,
    UnitIdealError,
    UnstableFitError,
)
from .groebner import MAX_REDUCTIONS, MonomialOrder, default_order, order_sweep
from .multiplicities import fit_multiplicities
from .report import RunConfig, build_ideal_report, run_random_sweep
from .serialize import (
    SchemaError,
    bounds_report_to_dict,
    certificate_to_dict,
    frac_approx,
    frac_str,
    ideal_from_dict,
    ideal_to_dict,
    load_ideal,
    load_polynomial_ideal,
    lower_bound_certificate_to_dict,
    mults_to_dict,
    parse_frac,
    sequence_from_dict,
)
from .thresholds import ProbeConfig, howald_lct, kiselman_lct
from .thresholds import numeric_integrability_probe

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNIT = 3
EXIT_VIOLATION = 4
EXIT_RESOURCE = 5


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _say(message):
    print(message, file=sys.stderr)


def _checked(call, **fields):
    """call(**fields); a value it rejects with ValueError is an input
    error."""
    try:
        return call(**fields)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def cmd_lct(args):
    ideal = load_ideal(args.input)
    cert = kiselman_lct(ideal)
    dual = howald_lct(ideal)
    payload = {
        "ideal": ideal_to_dict(ideal),
        "certificate": certificate_to_dict(cert),
        "howald": frac_str(dual),
        "duality_ok": cert.c == dual,
    }
    _emit(payload)
    _say(f"lct = {frac_str(cert.c)} (dual route {frac_str(dual)}, "
         f"{'agree' if payload['duality_ok'] else 'DISAGREE'})")
    return EXIT_OK if payload["duality_ok"] else EXIT_VIOLATION


def cmd_report(args):
    ideal = load_ideal(args.input)
    rep = build_ideal_report(ideal)
    payload = {
        "ideal": ideal_to_dict(ideal),
        "certificate": certificate_to_dict(rep.certificate),
        "howald": frac_str(rep.howald),
        "mults": mults_to_dict(rep.mults),
        "bounds": bounds_report_to_dict(rep.bounds),
        "checks": rep.checks,
        "sharp": rep.sharp,
        "slack": frac_str(rep.slack),
    }
    _emit(payload)
    status = "all checks pass" if rep.all_ok else "CHECK FAILURES"
    sharp = ", bound sharp" if rep.sharp else ""
    _say(f"c = {frac_str(rep.certificate.c)}, "
         f"e = {list(rep.mults.e)}, "
         f"main bound = {frac_str(rep.bounds.main)}{sharp}; {status}")
    return EXIT_OK if rep.all_ok else EXIT_VIOLATION


def cmd_mults(args):
    ideal = load_ideal(args.input)
    fit = fit_multiplicities(ideal)
    payload = mults_to_dict(fit.mults)
    payload["base"] = fit.table.base
    _emit(payload)
    if args.dump_table:
        with open(args.dump_table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "t", "L"])
            for r, t, v in fit.table.rows():
                writer.writerow([r, t, v])
        _say(f"table (base {fit.table.base}, window {fit.table.window}) "
             f"written to {args.dump_table}")
    _say(f"e = {list(fit.mults.e)}")
    return EXIT_OK


def cmd_bounds(args):
    with open(args.input) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "generators" in data:
        rep = build_ideal_report(ideal_from_dict(data))
        seq, c, brep = rep.mults, rep.certificate.c, rep.bounds
    elif isinstance(data, dict) and "e" in data:
        seq, c = sequence_from_dict(data)
        brep = build_bounds_report(seq, c)
    else:
        raise SchemaError('expected an ideal or {"e": [...]} sequence')
    payload = {"e": list(seq.e), "bounds": bounds_report_to_dict(brep)}
    if c is not None:
        payload["c"] = frac_str(c)
    _emit(payload)
    _say(f"main bound = {frac_str(brep.main)}, chain ok = {brep.chain.ok}")
    return EXIT_OK


def cmd_verify_random(args):
    config = _checked(RunConfig, seed=args.seed, dim=args.dim,
                      max_degree=args.max_degree, count=args.count)
    summary = run_random_sweep(config, keep_items=args.csv is not None)
    payload = {
        "config": {
            "seed": config.seed, "dim": config.dim,
            "max_degree": config.max_degree, "count": config.count,
        },
        "passed": summary.passed,
        "failed": summary.failed,
        "skipped": summary.skipped,
        "min_slack": frac_str(summary.min_slack)
        if summary.min_slack is not None else None,
        "min_slack_index": summary.min_slack_index,
        "f_monotonicity": {"trials": summary.f_trials,
                           "passed": summary.f_passed},
        "failures": [
            {"index": i, "ideal": ideal_to_dict(ideal), "checks": bad}
            for i, ideal, bad in summary.failures
        ],
    }
    _emit(payload)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "n", "generators", "c", "e",
                             "main_bound", "slack", "ok"])
            for i, ideal, rep in summary.items:
                writer.writerow([
                    i, ideal.n, json.dumps([list(g) for g in
                                            ideal.generators]),
                    frac_str(rep.certificate.c),
                    json.dumps(list(rep.mults.e)),
                    frac_str(rep.bounds.main), frac_str(rep.slack),
                    rep.all_ok,
                ])
        _say(f"per-ideal rows written to {args.csv}")
    _say(f"{summary.passed}/{config.count} ideals pass, "
         f"{summary.failed} fail, {summary.skipped} skipped; "
         f"f-monotonicity {summary.f_passed}/{summary.f_trials}; "
         f"min slack {frac_str(summary.min_slack) if summary.min_slack is not None else 'n/a'}")
    return EXIT_OK if summary.all_ok else EXIT_VIOLATION


def cmd_groebner_bound(args):
    if args.max_steps < 0:
        raise SchemaError(
            f"--max-steps must be nonnegative, got {args.max_steps}")
    polys, order, orders = load_polynomial_ideal(args.input)
    n = polys[0].n
    if not args.sweep:
        if orders is not None:
            raise SchemaError('"orders" needs --sweep; one order is "order"')
        orders = [order or default_order(n)]
    elif order is not None:
        raise SchemaError('--sweep reads "orders", not "order"')
    elif orders is None:
        if n > 5:
            raise ResourceCapError(
                "default sweep enumerates lex orders; too many for n > 5")
        orders = [default_order(n)] + [
            MonomialOrder("lex", precedence=perm)
            for perm in permutations(range(1, n + 1))
        ]
    cert = order_sweep(polys, orders, max_reductions=args.max_steps)
    payload = lower_bound_certificate_to_dict(cert)
    _emit(payload)
    _say(payload["guarantee"])
    return EXIT_OK


def cmd_probe(args):
    ideal = load_ideal(args.input)
    c = parse_frac(args.c)
    config = _checked(ProbeConfig, grid=args.probe_grid,
                      theta=args.probe_tolerance)
    result = _checked(numeric_integrability_probe, ideal=ideal, c=c,
                      config=config)
    cert = kiselman_lct(ideal)
    payload = {
        "ideal": ideal_to_dict(ideal),
        "c": frac_str(c),
        "verdict": result.verdict,
        "trail": [{"R": R, "integral": val, "ratio": ratio}
                  for R, val, ratio in result.trail],
        "exact_threshold": frac_str(cert.c),
        "note": result.note,
    }
    near = abs(c - cert.c) / cert.c <= Fraction(1, 50)
    if near:
        payload["warning"] = ("c is within 2% of the exact threshold; "
                              "the probe is unreliable this close")
    _emit(payload)
    _say(f"verdict: {result.verdict} (exact threshold "
         f"{frac_str(cert.c)} ~ {frac_approx(cert.c):.6g})"
         + (" [near-threshold warning]" if near else ""))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lctk",
        description="Exact log canonical thresholds, multiplicity "
                    "sequences, and bound verification for monomial "
                    "ideals.")
    parser.add_argument("--version", action="version",
                        version=f"lctk {__version__} ({kernels.BACKEND} "
                                f"kernels)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random sweeps")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write per-item CSV rows (sweeps)")
    parser.add_argument("--max-steps", type=int, default=MAX_REDUCTIONS,
                        help="Buchberger reduction-step cap")
    parser.add_argument("--probe-grid", type=int, default=ProbeConfig.grid,
                        help="quadrature points per axis")
    parser.add_argument("--probe-tolerance", type=float,
                        default=ProbeConfig.theta,
                        help="probe ratio tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lct", help="exact threshold of a monomial ideal")
    p.add_argument("input")
    p.set_defaults(func=cmd_lct)

    p = sub.add_parser("report", help="full verification report")
    p.add_argument("input")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("mults", help="multiplicity sequence")
    p.add_argument("input")
    p.add_argument("--dump-table", metavar="PATH", default=None,
                   help="write the counted cells of the fitted colength "
                   "table (the staircase the fit reads) as CSV")
    p.set_defaults(func=cmd_mults)

    p = sub.add_parser("bounds", help="bound report for an ideal or "
                                      "a raw sequence")
    p.add_argument("input")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify-random", help="seeded random verification")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=cmd_verify_random)

    p = sub.add_parser("groebner-bound",
                       help="certified lower bound via the initial ideal")
    p.add_argument("input")
    p.add_argument("--sweep", action="store_true",
                   help="take the best certificate over several orders")
    p.set_defaults(func=cmd_groebner_bound)

    p = sub.add_parser("probe", help="numeric integrability probe")
    p.add_argument("input")
    p.add_argument("c", help="candidate threshold (rational or decimal)")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, PolynomialParseError, NonIsolatedError,
            json.JSONDecodeError, FileNotFoundError) as exc:
        _say(f"input error: {exc}")
        return EXIT_PARSE
    except UnitIdealError as exc:
        _say(f"unit ideal: {exc}")
        return EXIT_UNIT
    except (ResourceCapError, UnstableFitError) as exc:
        _say(f"resource cap: {exc}")
        return EXIT_RESOURCE
    except LctkError as exc:
        _say(f"error: {exc}")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
