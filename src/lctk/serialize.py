"""JSON forms shared by the modules and the CLI.

Rationals serialize as exact "p/q" strings ("p" when integral); float
mirrors live under "approx" keys.  The readers check the JSON shape only:
keys, types and lists.  Each value is checked by the library call that
takes it, and a reader turns that call's ValueError into ``SchemaError``;
a sequence's c and an order's fit to n are checked where they are used,
by ``bounds.build_bounds_report`` and ``groebner.order_sweep``.
"""

import json
from fractions import Fraction

from .groebner import MonomialOrder, parse_polynomial
from .lattice import normalize_generators
from .multiplicities import MultiplicitySequence


class SchemaError(ValueError):
    """Input JSON does not match the documented shape."""


def frac_str(value):
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def frac_approx(value):
    return float(value)


def parse_frac(text):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational: {text!r}") from exc


def ideal_to_dict(ideal):
    return {"n": ideal.n, "generators": [list(g) for g in ideal.generators]}


def ideal_from_dict(data):
    if not isinstance(data, dict) or "n" not in data \
            or "generators" not in data:
        raise SchemaError('expected {"n": ..., "generators": [[...], ...]}')
    _only_keys(data, ("n", "generators"), "ideal")
    try:
        return normalize_generators(data["generators"], data["n"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


def sequence_from_dict(data):
    """(sequence, c or None) from {"e": [1, e_1, ..., e_n], "c": ...}.

    The "base" that ``lctk mults`` writes next to "e" is accepted, so its
    output is a sequence input."""
    _only_keys(data, ("e", "c", "base"), "sequence")
    try:
        seq = MultiplicitySequence(data["e"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    return seq, parse_frac(data["c"]) if "c" in data else None


def load_ideal(path):
    with open(path) as fh:
        return ideal_from_dict(json.load(fh))


def certificate_to_dict(cert):
    return {
        "c": frac_str(cert.c),
        "x0": [frac_str(v) for v in cert.x0],
        "nu": frac_str(cert.nu),
        "isolated": cert.isolated,
        "approx": {
            "c": frac_approx(cert.c),
            "x0": [frac_approx(v) for v in cert.x0],
            "nu": frac_approx(cert.nu),
        },
    }


def mults_to_dict(seq):
    return {"e": list(seq.e)}


def bounds_report_to_dict(rep):
    return {
        "main_bound": frac_str(rep.main),
        "skoda_low": frac_str(rep.skoda_low),
        "skoda_high": frac_str(rep.skoda_high),
        "geometric_bound_cmp": rep.geometric_cmp,
        "mixed_bound_cmp": rep.mixed_cmp,
        "chain": {
            "main_vs_mixed": rep.chain.main_vs_mixed,
            "mixed_vs_geometric": rep.chain.mixed_vs_geometric,
            "ok": rep.chain.ok,
            "witnesses": [[frac_str(w) for w in ws]
                          for ws in rep.chain.witnesses],
        },
        "in_cone": rep.in_cone,
        "details": [[name, [frac_str(w) for w in ws]]
                    for name, ws in rep.details],
        "approx": {"main_bound": frac_approx(rep.main)},
    }


def order_to_dict(order):
    out = {"kind": order.kind}
    if order.precedence is not None:
        out["precedence"] = list(order.precedence)
    if order.kind == "weighted":
        out["weights"] = list(order.weights)
        out["tiebreak"] = order.tiebreak
    return out


def _only_keys(data, known, what):
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise SchemaError(f"unknown {what} keys {unknown}; "
                          f"expected some of {list(known)}")


def order_from_dict(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise SchemaError('order must be {"kind": ..., ...}')
    _only_keys(data, ("kind", "precedence", "weights", "tiebreak"), "order")
    if not isinstance(data.get("tiebreak", ""), str):
        raise SchemaError('"tiebreak" must be a string')
    try:
        return MonomialOrder(
            kind=data["kind"],
            precedence=tuple(data["precedence"])
            if "precedence" in data else None,
            weights=tuple(data["weights"]) if "weights" in data else None,
            tiebreak=data.get("tiebreak"),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def polynomial_ideal_from_dict(data):
    """Returns (polynomials, order-or-None, orders-list-or-None)."""
    if not isinstance(data, dict) or "n" not in data \
            or "polynomials" not in data:
        raise SchemaError('expected {"n": ..., "polynomials": [...]}')
    _only_keys(data, ("n", "polynomials", "order", "orders"), "input")
    texts = data["polynomials"]
    if not (isinstance(texts, list) and texts
            and all(isinstance(t, str) for t in texts)):
        raise SchemaError('"polynomials" must be a nonempty list of strings')
    if "orders" in data and not (isinstance(data["orders"], list)
                                 and data["orders"]):
        raise SchemaError('"orders" must be a nonempty list of orders')
    try:
        polys = [parse_polynomial(text, data["n"]) for text in texts]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    order = order_from_dict(data["order"]) if "order" in data else None
    orders = [order_from_dict(o) for o in data["orders"]] \
        if "orders" in data else None
    return polys, order, orders


def load_polynomial_ideal(path):
    with open(path) as fh:
        return polynomial_ideal_from_dict(json.load(fh))


def lower_bound_certificate_to_dict(cert):
    out = {
        "order": order_to_dict(cert.order),
        "initial_ideal": ideal_to_dict(cert.initial),
        "c_initial": frac_str(cert.c_initial),
        "guarantee": f"lct of the input ideal >= {frac_str(cert.c_initial)}",
        "approx": {"c_initial": frac_approx(cert.c_initial)},
    }
    if cert.mult_bound is not None:
        out["mult_bound"] = frac_str(cert.mult_bound)
        out["mults"] = mults_to_dict(cert.mults)
    return out
