import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from conftest import colength, ref_buchberger, ref_reduce, ref_s_polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from lctk import (
    MonomialOrder,
    PolynomialParseError,
    ResourceCapError,
    buchberger,
    certified_lct_lower_bound,
    default_order,
    diagonal_lct,
    howald_lct,
    initial_ideal,
    kiselman_lct,
    normalize_generators,
    order_sweep,
    parse_polynomial,
)
from lctk import cli, groebner
from lctk.groebner import Polynomial, normal_form, s_polynomial
from lctk.serialize import order_to_dict
from lctk.report import random_isolated_ideal

LEX12 = MonomialOrder("lex", precedence=(1, 2))
LEX21 = MonomialOrder("lex", precedence=(2, 1))


class TestParser:
    def test_cusp(self):
        p = parse_polynomial("x1^2 + x2^3", 2)
        assert p.terms == {(2, 0): F(1), (0, 3): F(1)}

    def test_cancellation_to_zero(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("2/3*x1*x2 - x1*x2 + 1/3*x1*x2", 2)

    def test_constant_term(self):
        p = parse_polynomial("x1^2*x2 - 5", 2)
        assert p.terms == {(2, 1): F(1), (0, 0): F(-5)}
        assert p.constant_term() == -5

    def test_rational_coefficients(self):
        p = parse_polynomial("1/2*x1 - 3/4*x2", 2)
        assert p.terms == {(1, 0): F(1, 2), (0, 1): F(-3, 4)}

    def test_leading_minus(self):
        p = parse_polynomial("-x1 + x2", 2)
        assert p.terms == {(1, 0): F(-1), (0, 1): F(1)}

    def test_whitespace_insignificant(self):
        a = parse_polynomial("x1^2+2/3*x1*x2^3-x2^5", 2)
        b = parse_polynomial("  x1^2 + 2/3 * x1 * x2^3 - x2 ^ 5 ", 2)
        assert a.terms == b.terms

    def test_variable_out_of_range(self):
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial("x1 + x3", 2)
        assert err.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x1 + (x2)", 2)

    def test_dangling_operator(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x1 +", 2)

    def test_empty(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("   ", 2)

    @pytest.mark.parametrize("text, message, position", [
        ("", "empty polynomial", 0),
        ("  \t", "empty polynomial", 3),
        ("x1 + (x2)", "unexpected character '('", 5),
        ("x1 + x", "unexpected character 'x'", 5),
        ("x1 +", "expected a factor", 4),
        ("-", "expected a factor", 1),
        ("+-x1", "expected a factor", 1),
        ("x1 * * x2", "expected a factor", 5),
        ("1/x1", "expected integer denominator", 2),
        ("3/", "expected integer denominator", 2),
        ("3/0*x1", "zero denominator", 2),
        ("x1^x2", "expected integer power", 3),
        ("x1^-2", "expected integer power", 3),
        ("x1 + x3", "variable x3 out of range 1..2", 5),
        ("x010", "variable x10 out of range 1..2", 0),
        ("x0^x1", "variable x0 out of range 1..2", 0),
        ("x1 x2", "expected + or -, got 'x2'", 3),
        ("x1 10", "expected + or -, got '10'", 3),
        ("x1 007", "expected + or -, got '007'", 3),
        ("2^3", "expected + or -, got '^'", 1),
        ("x1/2", "expected + or -, got '/'", 2),
        ("x1^2^3", "expected + or -, got '^'", 4),
        ("x1 - x1", "polynomial simplifies to zero", 0),
        ("0*x2", "polynomial simplifies to zero", 0),
    ])
    def test_error_message_and_position(self, text, message, position):
        """Each error names its fault; its position indexes the text, and
        is len(text) at the end of it."""
        with pytest.raises(PolynomialParseError) as err:
            parse_polynomial(text, 2)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @pytest.mark.parametrize("terms, message", [
        ({}, "the zero polynomial is not representable"),
        ({(1,): 1}, "term (1,) has wrong arity"),
        ({(1, 0): 1, (0, 1): 0}, "zero coefficient stored"),
    ])
    def test_polynomial_value_errors(self, terms, message):
        with pytest.raises(ValueError) as err:
            Polynomial(2, terms)
        assert str(err.value) == message

    def test_round_trip(self):
        """Seeded random texts in the grammar (signs, p/q and integer
        coefficient factors, powers, repeated variables, random whitespace)
        parse to the terms they denote."""
        rng = random.Random(20261021)
        for _ in range(400):
            n = rng.randint(1, 3)
            tokens, terms = [], {}
            for k in range(rng.randint(1, 5)):
                sign = rng.choice(["+", "-"] if k else ["", "+", "-"])
                coeff, mono = F(-1 if sign == "-" else 1), [0] * n
                factors = []
                for _ in range(rng.randint(1, 4)):
                    if rng.random() < 0.3:
                        num, den = rng.randint(0, 12), rng.randint(1, 6)
                        coeff *= F(num, den)
                        factors.append([str(num), "/", str(den)]
                                       if den > 1 or rng.random() < 0.5
                                       else [str(num)])
                    else:
                        var, power = rng.randint(1, n), rng.randint(0, 4)
                        mono[var - 1] += power
                        factors.append([f"x{var}", "^", str(power)]
                                       if power != 1 or rng.random() < 0.5
                                       else [f"x{var}"])
                tokens += [sign] if sign else []
                for j, factor in enumerate(factors):
                    tokens += (["*"] if j else []) + factor
                mono = tuple(mono)
                terms[mono] = terms.get(mono, 0) + coeff
            terms = {m: c for m, c in terms.items() if c}
            text = "".join(rng.choice(["", "", " ", "  ", "\t"]) + t
                           for t in tokens)
            if terms:
                assert parse_polynomial(text, n).terms == terms, text
            else:
                with pytest.raises(PolynomialParseError,
                                   match="simplifies to zero"):
                    parse_polynomial(text, n)


class TestOrders:
    def test_lex_precedence(self):
        assert LEX12.key((2, 0)) > LEX12.key((0, 3))
        assert LEX21.key((0, 3)) > LEX21.key((2, 0))

    def test_grevlex_standard(self):
        g = default_order(3)
        # degree first
        assert g.key((0, 0, 2)) > g.key((1, 0, 0))
        # same degree: smaller exponent on the last variable wins
        assert g.key((1, 2, 0)) > g.key((2, 0, 1))

    def test_weighted(self):
        w = MonomialOrder("weighted", precedence=(1, 2), weights=(3, 1),
                          tiebreak="lex")
        assert w.key((1, 0)) > w.key((0, 2))
        assert w.key((0, 3)) == (3, 0, 3)

    def test_bad_precedence(self):
        with pytest.raises(ValueError, match="permutation of 1..2"):
            MonomialOrder("lex", precedence=(1, 3))
        with pytest.raises(ValueError, match="permutation of 1..3"):
            LEX12.key((0, 0, 0))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("degrevlex")

    def test_weighted_needs_weights(self):
        with pytest.raises(ValueError):
            MonomialOrder("weighted")

    @pytest.mark.parametrize("kind", ["lex", "grevlex"])
    def test_weights_belong_to_weighted_orders(self, kind):
        with pytest.raises(ValueError, match="weighted orders only"):
            MonomialOrder(kind, weights=(5, 1))

    @pytest.mark.parametrize("kind", ["lex", "grevlex"])
    @pytest.mark.parametrize("tiebreak", ["lex", "grevlex"])
    def test_tiebreak_belongs_to_weighted_orders(self, kind, tiebreak):
        with pytest.raises(ValueError, match="weighted orders only"):
            MonomialOrder(kind, tiebreak=tiebreak)

    def test_weighted_tiebreak_defaults_to_grevlex(self):
        plain = MonomialOrder("weighted", precedence=(2, 1), weights=(3, 1))
        explicit = MonomialOrder("weighted", precedence=(2, 1),
                                 weights=(3, 1), tiebreak="grevlex")
        assert plain == explicit and hash(plain) == hash(explicit)
        assert plain.tiebreak == "grevlex"
        assert plain != MonomialOrder("weighted", precedence=(2, 1),
                                      weights=(3, 1), tiebreak="lex")
        assert all(plain.key(m) == explicit.key(m)
                   for m in product(range(4), repeat=2))
        assert order_to_dict(plain) == order_to_dict(explicit)

    @pytest.mark.parametrize("fields", [
        {"precedence": (True, 2)},
        {"precedence": (1.0, 2)},
        {"kind": "weighted", "weights": (True, 1)},
        {"tiebreak": "nonsense"},
    ])
    def test_non_int_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            MonomialOrder(**{"kind": "lex", **fields})

    @pytest.mark.parametrize("weight", [0, float("nan"), float("inf")])
    def test_weights_positive_and_finite(self, weight):
        with pytest.raises(ValueError, match="positive finite weights"):
            MonomialOrder("weighted", weights=(weight, 1))

    def test_float_weights_are_exact_and_multiplicative(self):
        order = MonomialOrder("weighted", weights=(0.1, 0.2, 0.3))
        assert order.weights == (0.1, 0.2, 0.3)
        assert order_to_dict(order)["weights"] == [0.1, 0.2, 0.3]
        # 0.1 + 0.2 != 0.3 in floats; read exactly, x3 and x1*x2 weigh the
        # same and the grevlex tiebreak puts x1*x2 first, also after x2^3
        assert order.key((0, 0, 1)) < order.key((1, 1, 0))
        assert order.key((0, 3, 1)) < order.key((1, 4, 0))
        key = {m: order.key(m) for m in product(range(7), repeat=3)}
        grid = list(product(range(4), repeat=3))
        for a, b in combinations(grid, 2):
            if key[a] > key[b]:
                a, b = b, a
            for c in grid:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key[ac] < key[bc], (a, b, c)

    @pytest.mark.parametrize("weights", [(1,), (1, 5, 7)])
    def test_weighted_length_must_match(self, weights):
        order = MonomialOrder("weighted", weights=weights)
        with pytest.raises(ValueError, match="expected 2"):
            order.key((0, 0))
        with pytest.raises(ValueError, match="expected 2"):
            buchberger([parse_polynomial("x1^2 + x2^3", 2)], order)


class TestPolynomialValues:
    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="natural number"):
            Polynomial(2, {(1, -1): 1})

    @pytest.mark.parametrize("coeff", ["3", True, float("nan")])
    def test_non_rational_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="finite rational"):
            Polynomial(2, {(1, 0): coeff})

    def test_values_are_stored_exactly(self):
        p = Polynomial(2, {(2.0, F(1)): 0.5, (0, 3): 2})
        assert p.terms == {(2, 1): F(1, 2), (0, 3): F(2)}
        assert all(type(c) is F for c in p.terms.values())
        assert all(type(e) is int for m in p.terms for e in m)
        assert normal_form(p, [parse_polynomial("x2^3", 2)], LEX12) == \
            Polynomial(2, {(2, 1): F(1, 2)})


class TestRings:
    """Every engine entry point refuses polynomials of different rings."""

    def test_normal_form(self):
        poly = parse_polynomial("x1^2*x2 + x2", 2)
        with pytest.raises(ValueError, match="different rings"):
            normal_form(poly, [parse_polynomial("x1*x3^5", 3)],
                        MonomialOrder("lex"))

    def test_s_polynomial(self):
        with pytest.raises(ValueError, match="different rings"):
            s_polynomial(parse_polynomial("x1^2 + x2", 2),
                         parse_polynomial("x1*x3^5", 3),
                         MonomialOrder("lex"))


@st.composite
def orders(draw):
    """(n, order): any kind, every precedence with n <= 3 (or None), and
    for weighted orders both tiebreaks and int, float or Fraction
    weights."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["lex", "grevlex", "weighted"]))
    precedence = draw(st.none() | st.permutations(range(1, n + 1)).map(
        tuple))
    if kind != "weighted":
        return n, MonomialOrder(kind, precedence=precedence)
    weight = draw(st.sampled_from([
        st.integers(1, 50), st.floats(0.01, 100),
        st.fractions(F(1, 50), F(50), max_denominator=50)]))
    return n, MonomialOrder(
        "weighted", precedence=precedence,
        weights=tuple(draw(st.lists(weight, min_size=n, max_size=n))),
        tiebreak=draw(st.sampled_from(["lex", "grevlex"])))


#: The packings below hold exponents up to 2^PACK_BITS - 1, and the
#: monomials drawn for them reach that bound, where the radices are tight.
PACK_BITS = 6
BOUND = 2 ** PACK_BITS - 1


@st.composite
def packed_pairs(draw):
    """(order, packing, a, b): two monomials a and b whose sum fits."""
    n, order = draw(orders())
    exponent = st.sampled_from([0, 1, BOUND - 1, BOUND]) | st.integers(
        0, BOUND)
    a = draw(st.tuples(*[exponent] * n))
    b = tuple(min(y, BOUND - x)
              for x, y in zip(a, draw(st.tuples(*[exponent] * n))))
    return order, groebner._Packing(order, n, PACK_BITS), a, b


def plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TestPacking:
    """The engine's monomial ints against ``MonomialOrder.key``."""

    @given(packed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_sums(self, case):
        """key and encode are additive, decode inverts encode, and the
        one-mask test decides divisibility."""
        order, pack, a, b = case
        assert order.key(plus(a, b)) == plus(order.key(a), order.key(b))
        ka, kb, kab = (pack.encode(m) for m in (a, b, plus(a, b)))
        assert kab == ka + kb
        assert pack.decode(kab) == plus(a, b)
        assert not kab & pack.guard
        assert ((kab | pack.guard) - ka) & pack.guard == pack.guard
        divides = all(x <= y for x, y in zip(b, a))
        assert (((ka | pack.guard) - kb) & pack.guard == pack.guard) == \
            divides

    @given(packed_pairs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_ints_compare_as_keys(self, case, data):
        order, pack, a, _ = case
        # any two monomials in the field, not only a summable pair
        b = data.draw(st.tuples(*[st.sampled_from([0, BOUND])
                                  | st.integers(0, BOUND)] * len(a)))
        ka, kb = pack.encode(a), pack.encode(b)
        assert (pack.decode(ka), pack.decode(kb)) == (a, b)
        assert (ka < kb) == (order.key(a) < order.key(b))
        assert (ka == kb) == (a == b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_field_corners_compare_as_keys(self, n):
        """Every order kind, precedence, tiebreak and weight type, on all
        monomials with exponents 0, 1, BOUND - 1 and BOUND: the corners
        where a radix one too small would flip a comparison."""
        corners = list(product((0, 1, BOUND - 1, BOUND), repeat=n))
        weights = [(1, 2, 3), (0.1, 0.2, 0.3), (F(1, 3), F(5, 2), F(7))]
        for precedence in (None, *permutations(range(1, n + 1))):
            orders = [MonomialOrder(kind, precedence=precedence)
                      for kind in ("lex", "grevlex")]
            orders += [MonomialOrder("weighted", precedence=precedence,
                                     weights=w[:n], tiebreak=tiebreak)
                       for w in weights for tiebreak in ("lex", "grevlex")]
            for order in orders:
                pack = groebner._Packing(order, n, PACK_BITS)
                ranked = sorted(corners, key=order.key)
                assert sorted(corners, key=pack.encode) == ranked
                assert len({pack.encode(m) for m in corners}) == len(corners)


#: A lex run that forms x2^16 from inputs with exponents at most 3: past
#: 15 = 2^(n * bitlen(3)) - 1, the field with no headroom.
NEAR_WIDTH = ["x1^3 - 3*x1^2*x2^3", "x2^3 + x1^2*x2^2 + 3*x1^3*x2^3"]


class TestFieldGuard:
    """A monomial formed past its field raises ResourceCapError."""

    def test_reduce_and_s_work(self):
        pack = groebner._Packing(LEX12, 2, 3)  # exponents up to 7
        f = groebner._member(parse_polynomial("x1 - x2^3", 2), pack)
        with pytest.raises(ResourceCapError, match="passed 7"):
            groebner._reduce({pack.encode((3, 0)): 1}, [f], pack, None)
        g = groebner._member(parse_polynomial("x1^2*x2^5", 2), pack)
        with pytest.raises(ResourceCapError, match="passed 7"):
            groebner._s_work(f, g, pack.encode((2, 5)), pack)

    def test_cli_exits_5(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "n": 2, "polynomials": NEAR_WIDTH,
            "order": {"kind": "lex", "precedence": [1, 2]}}))
        assert cli.main(["groebner-bound", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(groebner, "_HEADROOM_BITS", 0)
        assert cli.main(["groebner-bound", str(path)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource cap: an exponent passed 15")
        assert "Traceback" not in err

    def test_packing_budget_exits_5(self, tmp_path, capsys):
        # x1 in 800 variables needs 800 fields of 817 bits: refused before
        # any key is built, where building them took about 20 s
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 800, "polynomials": ["x1"]}))
        start = time.monotonic()
        assert cli.main(["groebner-bound", str(path)]) == 5
        assert time.monotonic() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("resource cap: 800 exponent fields of 817 "
                              "bits pass the packing budget")


#: A lex (x3 > x2 > x1) run whose coefficients grow past 16384 bits within
#: about 2000 division steps.
COEFFICIENT_GROWTH = {
    "n": 3,
    "polynomials": ["-3*x1^2*x2*x3 + x1^2 - x1*x2*x3",
                    "-2*x1^2*x2^2*x3^2 + x2^2",
                    "2*x1^2*x2^2*x3 - 2*x1^2*x2^2 + x3^2"],
    "order": {"kind": "lex", "precedence": [3, 2, 1]}}


class TestCoefficientBudget:
    """A coefficient past _COEFFICIENT_BITS raises ResourceCapError."""

    def test_member_coefficients_after_the_content(self):
        pack = groebner._Packing(LEX12, 2, 3)
        a, b = pack.encode((1, 0)), pack.encode((0, 1))
        top = (1 << groebner._COEFFICIENT_BITS) - 1
        # 2 * top has one bit more, but the content 2 divides it out
        assert groebner._primitive([(a, 2 * top), (b, 2)], a) == \
            (a, top, ((b, 1),))
        with pytest.raises(ResourceCapError, match="4096 bits"):
            groebner._primitive([(a, 3), (b, 2 * (top + 1))], a)

    def test_reduce_checks_where_it_takes_the_content(self, monkeypatch):
        # each step scales the remainder 3 * x2^50 by 3, so the content
        # stays 1 while its bit length grows
        polys = [parse_polynomial("x1^50 + x2^50", 2),
                 parse_polynomial("3*x1 - x2", 2)]
        assert normal_form(*polys[:1], polys[1:], LEX12) == \
            Polynomial(2, {(0, 50): 1 + F(1, 3 ** 50)})
        monkeypatch.setattr(groebner, "_COEFFICIENT_BITS", 60)
        with pytest.raises(ResourceCapError, match="60 bits"):
            normal_form(*polys[:1], polys[1:], LEX12)

    @pytest.mark.parametrize("pure", ["0", "1"])
    def test_coefficient_growth_exits_5_promptly(self, tmp_path, pure):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "LCTK_PURE_PYTHON": pure}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(COEFFICIENT_GROWTH))
        done = subprocess.run(
            [sys.executable, "-m", "lctk.cli", "--max-steps", "3000",
             "groebner-bound", str(path)],
            env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 5
        assert done.stdout == ""
        assert done.stderr.startswith(
            "resource cap: a coefficient passed 4096 bits")


class TestBuchberger:
    def test_principal_ideal_fixed_point(self):
        p = parse_polynomial("x1^2 + x2^3", 2)
        gb = buchberger([p], LEX12)
        assert len(gb) == 1
        assert gb[0].terms == p.terms

    def test_already_a_basis(self):
        gb = buchberger([parse_polynomial("x1", 2),
                         parse_polynomial("x2", 2)], LEX12)
        assert sorted(next(iter(g.terms)) for g in gb) == [(0, 1), (1, 0)]

    def test_hand_run(self):
        gb = buchberger([parse_polynomial("x1^2 - x2", 2),
                         parse_polynomial("x2^2 - x1", 2)], LEX12)
        bases = {frozenset(g.terms.items()) for g in gb}
        want_a = frozenset({(1, 0): F(1), (0, 2): F(-1)}.items())
        want_b = frozenset({(0, 4): F(1), (0, 1): F(-1)}.items())
        assert bases == {want_a, want_b}

    def test_all_s_polynomials_reduce_to_zero(self):
        polys = [parse_polynomial("x1^2 - x2", 2),
                 parse_polynomial("x2^2 - x1", 2),
                 parse_polynomial("x1*x2 - 1/2*x2", 2)]
        for order in (LEX12, LEX21, default_order(2)):
            gb = buchberger(polys, order)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    s = s_polynomial(gb[i], gb[j], order)
                    assert s is None or normal_form(s, gb, order) is None

    def test_deterministic_under_permutation(self):
        polys = [parse_polynomial("x1^2 - x2", 2),
                 parse_polynomial("x2^2 - x1", 2)]
        a = buchberger(polys, LEX12)
        b = buchberger(list(reversed(polys)), LEX12)
        assert [g.terms for g in a] == [g.terms for g in b]

    def test_reduction_cap(self):
        polys = [parse_polynomial("x1^3 - x2", 2),
                 parse_polynomial("x2^3 - x1", 2)]
        with pytest.raises(ResourceCapError):
            buchberger(polys, LEX12, max_reductions=1)

    def test_negative_cap_rejected(self):
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        for call in (buchberger, certified_lct_lower_bound):
            with pytest.raises(ValueError, match="nonnegative"):
                call(polys, LEX12, max_reductions=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            order_sweep(polys, [LEX12, LEX21], max_reductions=-1)
        # zero is a legal cap: a principal ideal needs no reduction
        assert len(buchberger(polys, LEX12, max_reductions=0)) == 1


def seeded_ideal(seed, n):
    """x_i^2 plus one or two terms of higher total degree, exponents at
    most 5 - n, coefficients +-1..3, for i = 1..n."""
    rng = random.Random(seed)
    higher = [m for m in product(range(6 - n), repeat=n) if sum(m) > 2]
    polys = []
    for i in range(n):
        terms = {tuple(2 * (j == i) for j in range(n)): F(1)}
        for m in rng.sample(higher, rng.randint(1, 2)):
            terms[m] = F(rng.choice((-1, 1)) * rng.randint(1, 3))
        polys.append(Polynomial(n, terms))
    return polys


def pinned_orders(n):
    rev = tuple(range(n, 0, -1))
    return {
        "lex": MonomialOrder("lex", precedence=rev),
        "grevlex": default_order(n),
        "weighted-lex": MonomialOrder(
            "weighted", weights=tuple(range(1, n + 1)), tiebreak="lex"),
        "weighted-grevlex": MonomialOrder(
            "weighted", precedence=rev, weights=(2,) + (1,) * (n - 1)),
    }


#: (n, seed, order) -> (reduction steps, reduced basis in output order).
#: The step count depends on the pair order and on each division choice,
#: so it pins both; the basis is unique.
PINNED_BASES = {
    (2, 5, 'lex'): (21, [
        '-4*x1^4 + 6*x1^3 - 9/4*x1^2 + x2^2',
        '-2*x1^4 + 3/2*x1^3 + x1^2*x2',
        'x1^5 - 3/4*x1^4 - 1/4*x1^2',
    ]),
    (2, 5, 'grevlex'): (19, [
        '-16/43*x1^2 + x2^4 + 18/43*x2^3 + 177/172*x2^2',
        'x1^3 - 177/172*x1^2 - 8/43*x2^3 + 9/43*x2^2',
        'x1^2*x2 - 18/43*x1^2 - 12/43*x2^3 - 8/43*x2^2',
        '-16/43*x1^2 + x1*x2^2 + 18/43*x2^3 + 12/43*x2^2',
    ]),
    (2, 5, 'weighted-lex'): (21, [
        '-43/8*x1^3 + 177/32*x1^2 + x2^3 - 9/8*x2^2',
        '9/4*x1^3 - 43/16*x1^2 + x1*x2^2 + 3/4*x2^2',
        'x1^4 - 3/2*x1^3 + 9/16*x1^2 - 1/4*x2^2',
        '-3/2*x1^3 + x1^2*x2 + 9/8*x1^2 - 1/2*x2^2',
    ]),
    (2, 5, 'weighted-grevlex'): (19, [
        'x1^3 - 177/172*x1^2 - 8/43*x2^3 + 9/43*x2^2',
        'x1^2*x2 - 18/43*x1^2 - 12/43*x2^3 - 8/43*x2^2',
        '-16/43*x1^2 + x2^4 + 18/43*x2^3 + 177/172*x2^2',
        '-16/43*x1^2 + x1*x2^2 + 18/43*x2^3 + 12/43*x2^2',
    ]),
    (3, 1, 'lex'): (111, [
        '108*x1^14 - 72*x1^12 + 36*x1^10 + 3/4*x1^8 + 5/2*x1^6'
        ' + 11/4*x1^4 + x1^2 + x3^2',
        '72*x1^14 + 1/2*x1^8 + 2*x1^6 + 3*x1^4 + x1^2*x3 + 3/2*x1^2',
        '20*x1^14 - 16*x1^12 + 12*x1^10 - 283/36*x1^8 + 40/9*x1^6'
        ' + 17/36*x1^4 + 1/6*x1^2 + x2^2',
        '72*x1^14 - 24*x1^12 + 1/2*x1^8 + 11/6*x1^6 + 7/3*x1^4'
        ' + x1^2*x2 + x1^2',
        'x1^16 + 1/144*x1^10 + 1/36*x1^8 + 1/24*x1^6 + 1/36*x1^4 + 1/144*x1^2',
    ]),
    (3, 1, 'grevlex'): (54, [
        'x1^4 + 1/2*x2^2*x3 + 1/4*x2^2 + 1/18*x3^3 - 1/36*x3^2',
        'x1^2*x2^2 - 2/9*x3^3 + 1/9*x3^2',
        'x1^2*x2*x3 + 1/3*x3^2',
        '3/2*x1^2*x2 + x1^2*x3^2 - 1/2*x1^2*x3',
        '-9/4*x2^2 + x3^4 - x3^3 + 1/4*x3^2',
        '-2/3*x1^2 + x2^3 - 1/3*x2^2*x3',
        '3/2*x2^2 + x2*x3^2 + 1/3*x3^3 - 1/6*x3^2',
    ]),
    (3, 1, 'weighted-lex'): (53, [
        '18*x1^4 - 18*x1^2 + 27*x2^3 + 9/2*x2^2 + x3^3 - 1/2*x3^2',
        '3/2*x1^2*x2 + x1^2*x3^2 - 1/2*x1^2*x3',
        '-2/3*x1^2*x2 - 2/9*x1^2*x3 + 1/9*x1^2 + x2^4',
        '-6*x1^4 + 6*x1^2 - 9*x2^3 + x2*x3^2',
        'x1^4*x3 - 1/2*x1^4 - 1/2*x1^2',
        'x1^2*x2*x3 + 1/3*x3^2',
        '2*x1^2 - 3*x2^3 + x2^2*x3',
        'x1^6 - 2*x1^4 + 2*x1^2 - 3*x2^3 - 1/4*x2^2 + 1/36*x3^2',
        'x1^4*x2 + 1/3*x1^2*x3',
        '4*x1^4 + x1^2*x2^2 - 4*x1^2 + 6*x2^3 + x2^2',
    ]),
    (3, 1, 'weighted-grevlex'): (26, [
        'x2^4*x3 + 1/2*x2^4 - 1/6*x2^3*x3 + 2/9*x3^2',
        'x2^5 + 1/6*x2^4 - 1/18*x2^3*x3 + 2/3*x2^2 + 4/9*x2*x3^2 + 2/27*x3^2',
        '3/2*x2^3 + x2^2*x3^2 - 1/2*x2^2*x3',
        'x1^2 - 3/2*x2^3 + 1/2*x2^2*x3',
        '9/2*x2^2 + 3*x2*x3^2 + x3^3 - 1/2*x3^2',
    ]),
}


class TestPinnedBases:
    @pytest.mark.parametrize("n, seed, name", sorted(PINNED_BASES))
    def test_basis_and_step_count(self, n, seed, name):
        steps, want = PINNED_BASES[n, seed, name]
        polys = seeded_ideal(seed, n)
        order = pinned_orders(n)[name]
        gb = buchberger(polys, order, max_reductions=steps)
        assert [g.terms for g in gb] == \
            [parse_polynomial(text, n).terms for text in want]
        with pytest.raises(ResourceCapError):
            buchberger(polys, order, max_reductions=steps - 1)


def shaped_ideal(seed, n):
    """The groebner benchmark's input shape: x_i^k, k = 2 or 3, plus 1-3
    terms of higher total degree with exponents at most 5 - n and
    coefficients +-1..3, for i = 1..n."""
    rng = random.Random(seed)
    polys = []
    for i in range(n):
        k = rng.choice((2, 3))
        higher = [m for m in product(range(6 - n), repeat=n) if sum(m) > k]
        terms = {tuple(k * (j == i) for j in range(n)): F(1)}
        for m in rng.sample(higher, rng.randint(1, 3)):
            terms[m] = F(rng.choice((-1, 1)) * rng.randint(1, 3))
        polys.append(Polynomial(n, terms))
    return polys


def oracle_orders(n):
    rev = tuple(range(n, 0, -1))
    return {
        "lex": MonomialOrder("lex", precedence=rev),
        "grevlex": default_order(n),
        "weighted-lex": MonomialOrder(
            "weighted", weights=(0.1, 0.2, 0.3)[:n], tiebreak="lex"),
        "weighted-grevlex": MonomialOrder(
            "weighted", precedence=rev, weights=(2,) + (1,) * (n - 1)),
    }


def random_poly(rng, n, terms, big):
    """Random non-monic polynomial with exponents at most 3; big draws
    numerators and denominators of about 40 digits."""
    out = {}
    for m in rng.sample(list(product(range(4), repeat=n)), terms):
        if big:
            c = F(rng.randint(1, 10**40), rng.randint(1, 10**40))
        else:
            c = F(rng.randint(1, 9), rng.randint(1, 9))
        out[m] = c * rng.choice((-1, 1))
    return Polynomial(n, out)


def as_polynomial(n, terms):
    return Polynomial(n, terms) if terms else None


class TestAgainstReference:
    """buchberger, normal_form and s_polynomial against the rational
    textbook reference in conftest.py."""

    @pytest.mark.parametrize("n, seed, name", [
        (2, seed, name) for seed in range(6) for name in oracle_orders(2)
    ] + [(3, 7, name) for name in oracle_orders(3)])
    def test_basis_and_step_count(self, n, seed, name):
        polys = shaped_ideal(seed, n)
        order = oracle_orders(n)[name]
        want, steps = ref_buchberger(polys, order)
        gb = buchberger(polys, order, max_reductions=steps)
        assert [g.terms for g in gb] == want
        if steps:
            with pytest.raises(ResourceCapError):
                buchberger(polys, order, max_reductions=steps - 1)

    def test_chain_criterion_keeps_the_basis(self):
        """The chain criterion only skips pairs: every basis equals the
        criterion-free reference's, and it saves steps."""
        for n, seeds in ((2, range(6)), (3, (7,))):
            for seed in seeds:
                polys = shaped_ideal(seed, n)
                for order in oracle_orders(n).values():
                    want, _ = ref_buchberger(polys, order, chain=False)
                    assert [g.terms for g in buchberger(polys, order)] == \
                        want

        def saves_steps(n, seed, name):
            polys, order = seeded_ideal(seed, n), pinned_orders(n)[name]
            free = ref_buchberger(polys, order, chain=False)[1]
            try:
                buchberger(polys, order, max_reductions=free - 1)
            except ResourceCapError:
                return False
            return True

        assert any(saves_steps(*key) for key in PINNED_BASES)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("big", [False, True])
    def test_normal_form_is_exact(self, n, big):
        rng = random.Random(n + 10 * big)
        for order in oracle_orders(n).values():
            for _ in range(8):
                basis = [random_poly(rng, n, rng.randint(1, 3), big)
                         for _ in range(rng.randint(1, 3))]
                poly = random_poly(rng, n, rng.randint(1, 6), big)
                want, _ = ref_reduce(poly.terms, [g.terms for g in basis],
                                     order)
                assert normal_form(poly, basis, order) == \
                    as_polynomial(n, want)

    def test_large_coefficients(self):
        order = default_order(2)
        f = Polynomial(2, {(2, 0): F(10**40, 7), (0, 1): F(-3, 10**40)})
        g = Polynomial(2, {(1, 1): F(-7, 3), (0, 2): F(10**40 + 1, 7)})
        poly = Polynomial(2, {(3, 2): F(1, 7), (2, 1): F(10**40, 3),
                              (0, 1): F(5)})
        want, _ = ref_reduce(poly.terms, [f.terms, g.terms], order)
        assert normal_form(poly, [f, g], order) == Polynomial(2, want)
        assert s_polynomial(f, g, order) == \
            Polynomial(2, ref_s_polynomial(f.terms, g.terms, order))

    @pytest.mark.parametrize("n", [2, 3])
    def test_s_polynomial_is_exact(self, n):
        rng = random.Random(n)
        for order in oracle_orders(n).values():
            for _ in range(8):
                f, g = (random_poly(rng, n, rng.randint(1, 4), True)
                        for _ in range(2))
                assert s_polynomial(f, g, order) == as_polynomial(
                    n, ref_s_polynomial(f.terms, g.terms, order))

    def test_zero_remainders(self):
        order = LEX12
        polys = [parse_polynomial("7*x1^2 - 3*x2", 2),
                 parse_polynomial("5/3*x2^2 - x1", 2)]
        gb = buchberger(polys, order)
        f, g = polys
        big = F(10**40, 7)
        combo = {}
        for p, c, shift in ((f, big, (1, 2)), (g, F(-3, 11), (0, 1))):
            for m, v in p.terms.items():
                t = (m[0] + shift[0], m[1] + shift[1])
                combo[t] = combo.get(t, 0) + c * v
        poly = Polynomial(2, {m: v for m, v in combo.items() if v})
        assert ref_reduce(poly.terms, [h.terms for h in gb], order)[0] == {}
        assert normal_form(poly, gb, order) is None
        scaled = Polynomial(2, {m: big * v for m, v in f.terms.items()})
        assert s_polynomial(f, scaled, order) is None


class TestAgainstSympy:
    """buchberger against an independent implementation: sympy's reduced
    Groebner basis over QQ, which is monic as lctk's is (over ZZ sympy
    returns primitive integer bases instead).  sympy is in no dependency
    list, so the test skips where it is not installed."""

    def test_reduced_bases_agree(self):
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2")
        cases = [(LEX12, "lex", (x1, x2)), (LEX21, "lex", (x2, x1)),
                 (default_order(2), "grevlex", (x1, x2))]
        compared = 0
        for seed in range(40):
            polys = shaped_ideal(seed, 2)
            exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                         * x1 ** a * x2 ** b for (a, b), c in p.terms.items())
                     for p in polys]
            for order, name, gens in cases:
                want = {frozenset((m, F(str(c))) for m, c in
                                  sympy.Poly(g, x1, x2).terms())
                        for g in sympy.groebner(exprs, *gens, order=name,
                                                domain="QQ").exprs}
                got = {frozenset(g.terms.items())
                       for g in buchberger(polys, order)}
                assert got == want, (seed, order)
                compared += 1
        assert compared == 120


class TestTermIdealBound:
    """I lies in T(I), the monomial ideal of every monomial of every input
    generator, so lct_0(I) <= lct(T(I)); a certified lower bound above
    lct(T(I)) would be wrong."""

    def test_c_initial_at_most_term_ideal_threshold(self):
        orders = [default_order(2), LEX12, LEX21]
        for seed in range(200):
            polys = shaped_ideal(seed, 2)
            term_ideal = normalize_generators(
                [m for p in polys for m in p.terms], 2)
            cert = order_sweep(polys, orders)
            assert cert.c_initial <= howald_lct(term_ideal), seed


class TestInitialIdeal:
    def test_lex_leading_square(self):
        gb = buchberger([parse_polynomial("x1^2 + x2^3", 2)], LEX12)
        assert initial_ideal(gb, LEX12).generators == ((2, 0),)

    def test_other_lex(self):
        gb = buchberger([parse_polynomial("x1^2 + x2^3", 2)], LEX21)
        assert initial_ideal(gb, LEX21).generators == ((0, 3),)

    def test_maximal(self):
        gb = buchberger([parse_polynomial("x1", 2),
                         parse_polynomial("x2", 2)], LEX12)
        assert initial_ideal(gb, LEX12).generators == ((0, 1), (1, 0))


class TestCertifiedLowerBound:
    def test_cusp_lex(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2 + x2^3", 2)], LEX12)
        assert cert.c_initial == F(1, 2)
        assert cert.initial.generators == ((2, 0),)
        # the exact threshold of the cusp is 5/6, so the bound is valid
        assert cert.c_initial <= diagonal_lct((2, 3))

    def test_maximal_is_sharp(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1", 2), parse_polynomial("x2", 2)], LEX12)
        assert cert.c_initial == 2
        assert cert.mult_bound == 2

    def test_grevlex_pair(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2 - x2^3", 2),
             parse_polynomial("x2^4", 2)], default_order(2))
        assert cert.c_initial == F(2, 3)
        assert cert.initial.generators == ((0, 3), (2, 1), (4, 0))
        assert cert.mults.e == (1, 3, 10)
        assert cert.mult_bound == F(19, 30)
        assert cert.mult_bound <= cert.c_initial

    def test_pure_power_input_is_sharp(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^2", 2), parse_polynomial("x2^3", 2)],
            default_order(2))
        assert cert.c_initial == F(5, 6)
        assert cert.mult_bound == F(5, 6)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            certified_lct_lower_bound(
                [parse_polynomial("x1^2 - 5", 2)], LEX12)

    def test_monomial_inputs_match_kiselman(self):
        rng = random.Random(42)
        for _ in range(15):
            J = random_isolated_ideal(rng, 2, 4)
            polys = []
            for g in J.generators:
                text = "*".join(f"x{i+1}^{e}" for i, e in enumerate(g) if e)
                polys.append(parse_polynomial(text, 2))
            cert = certified_lct_lower_bound(polys, default_order(2))
            assert cert.c_initial == kiselman_lct(J).c

    def test_mult_bound_never_exceeds_threshold(self):
        cert = certified_lct_lower_bound(
            [parse_polynomial("x1^3 + x2^2*x1 + x2^5", 2)],
            default_order(2))
        if cert.mult_bound is not None:
            assert cert.mult_bound <= cert.c_initial


class TestOrderSweep:
    def test_best_of_two_lex(self):
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        cert = order_sweep(polys, [LEX12, LEX21])
        assert cert.c_initial == F(1, 2)

    def test_single_order_matches_direct(self):
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        assert order_sweep(polys, [LEX21]).c_initial == \
            certified_lct_lower_bound(polys, LEX21).c_initial

    def test_order_independent_input(self):
        polys = [parse_polynomial("x1", 2), parse_polynomial("x2", 2)]
        cert = order_sweep(polys, [LEX12, LEX21, default_order(2)])
        assert cert.c_initial == 2

    def test_empty_orders_rejected(self):
        with pytest.raises(ValueError):
            order_sweep([parse_polynomial("x1", 1)], [])

    def test_invariant_error_of_one_order_propagates(self, monkeypatch):
        from lctk import InvariantError, thresholds

        real = thresholds.howald_lct

        def broken_for_lex21(ideal):
            if ideal.generators == ((0, 3),):  # the initial ideal of LEX21
                raise InvariantError("injected")
            return real(ideal)

        monkeypatch.setattr(thresholds, "howald_lct", broken_for_lex21)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        with pytest.raises(InvariantError, match="injected"):
            order_sweep(polys, [LEX12, LEX21])

    def test_colength_mismatch_is_an_invariant_error(self, monkeypatch):
        """Every order's initial ideal has the colength of the first one
        (Macaulay); a later order whose pair loop lost a member it needs
        has a larger one, and the sweep raises."""
        from lctk import InvariantError

        real = groebner._pair_loop
        polys, lex = seeded_ideal(5, 2), pinned_orders(2)["lex"]

        def dropping_for_lex(polys, order, max_reductions, colength=None):
            basis, exps, counter, pack = real(polys, order, max_reductions)
            if order == lex:
                # in(I) = (x2^2, x1^2 * x2, x1^5), of colength 7, needs
                # x1^2 * x2; the members left have x1^3 * x2 in its place
                keep = [k for k, e in enumerate(exps) if e != (2, 1)]
                basis, exps = [basis[k] for k in keep], [exps[k] for k in keep]
            return basis, exps, counter, pack

        monkeypatch.setattr(groebner, "_pair_loop", dropping_for_lex)
        order_sweep(polys, [default_order(2), pinned_orders(2)["grevlex"]])
        with pytest.raises(InvariantError, match="colength 8, not 7"):
            order_sweep(polys, [default_order(2), lex])

    def test_resource_error_of_one_order_is_tolerated(self, monkeypatch):
        from lctk import DegreeCapError, groebner

        real = groebner._pair_loop

        def capped_for_lex12(polys, order, max_reductions, colength):
            if order == LEX12:
                raise DegreeCapError("injected")
            return real(polys, order, max_reductions, colength)

        monkeypatch.setattr(groebner, "_pair_loop", capped_for_lex12)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        cert = order_sweep(polys, [LEX12, LEX21])
        assert (cert.order, cert.c_initial) == (LEX21, F(1, 3))

    def test_one_threshold_lp_per_distinct_initial_ideal(self,
                                                         monkeypatch):
        from lctk import thresholds

        real = thresholds.howald_lct
        seen = []

        def counted(ideal):
            seen.append(ideal.generators)
            return real(ideal)

        monkeypatch.setattr(thresholds, "howald_lct", counted)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        cert = order_sweep(polys, [LEX21, default_order(2)])
        # both orders give (x2^3): one LP, and the tie goes to LEX21
        assert seen == [((0, 3),)]
        assert (cert.order, cert.c_initial) == (LEX21, F(1, 3))

    def test_no_reduced_basis_is_built(self, monkeypatch):
        from lctk import groebner

        def refused(*args, **kw):
            raise AssertionError("the sweep built a reduced basis")

        monkeypatch.setattr(groebner, "buchberger", refused)
        monkeypatch.setattr(groebner, "initial_ideal", refused)
        polys = [parse_polynomial("x1^2 + x2^3", 2)]
        cert = order_sweep(polys, [LEX12, LEX21])
        assert (cert.order, cert.c_initial) == (LEX12, F(1, 2))

    def test_step_cap_counts_the_pair_loop_only(self):
        """The sweep makes no tail-reduction steps, so it succeeds below
        the step count that buchberger needs."""
        polys, order = seeded_ideal(5, 2), pinned_orders(2)["grevlex"]
        certified_lct_lower_bound(polys, order, max_reductions=17)
        with pytest.raises(ResourceCapError):
            certified_lct_lower_bound(polys, order, max_reductions=16)
        assert PINNED_BASES[2, 5, "grevlex"][0] == 19
        with pytest.raises(ResourceCapError):
            buchberger(polys, order, max_reductions=18)

    @pytest.mark.parametrize("shape, n, seed", [
        ("seeded", 2, 5), ("seeded", 3, 1),
        *(("shaped", 2, seed) for seed in range(6)), ("shaped", 3, 7)])
    def test_initial_ideal_matches_the_reduced_basis(self, shape, n, seed):
        polys = {"seeded": seeded_ideal, "shaped": shaped_ideal}[shape](
            seed, n)
        for order in (*pinned_orders(n).values(),
                      *oracle_orders(n).values()):
            assert certified_lct_lower_bound(polys, order).initial == \
                initial_ideal(buchberger(polys, order), order)


@pytest.fixture
def sweep_steps(monkeypatch):
    """run(polys, orders) -> (certificate, the division steps of each
    order's pair loop in one sweep, in order), counted by wrapping
    _reduce."""
    real = groebner._reduce
    steps = {}

    def counted(work, members, pack, counter):
        left = counter.left
        try:
            return real(work, members, pack, counter)
        finally:
            steps[counter] = steps.get(counter, 0) + left - counter.left

    monkeypatch.setattr(groebner, "_reduce", counted)

    def run(polys, orders):
        steps.clear()
        cert = order_sweep(polys, orders)
        return cert, list(steps.values())

    return run


class TestColengthStop:
    """A pair loop handed the ideal's colength stops once its leading
    monomials reach it; the sweep hands it to every order after the
    first."""

    @pytest.mark.parametrize("shape, n, seed", [
        ("seeded", 2, 5), ("seeded", 3, 1),
        *(("shaped", 2, seed) for seed in range(6)), ("shaped", 3, 7)])
    def test_stopped_loop_yields_the_initial_ideal(self, shape, n, seed):
        polys = {"seeded": seeded_ideal, "shaped": shaped_ideal}[shape](
            seed, n)
        for order in (*pinned_orders(n).values(),
                      *oracle_orders(n).values()):
            want = initial_ideal(buchberger(polys, order), order)
            exps = groebner._pair_loop(polys, order, groebner.MAX_REDUCTIONS,
                                       colength(want))[1]
            assert groebner.normalize_generators(exps, n) == want

    def test_a_later_order_makes_fewer_steps(self, sweep_steps):
        polys, lex = seeded_ideal(5, 2), pinned_orders(2)["lex"]
        alone, (lex_alone,) = sweep_steps(polys, [lex])
        both, (_, lex_later) = sweep_steps(polys, [default_order(2), lex])
        assert lex_later < lex_alone
        # lex wins both sweeps, with the same initial ideal
        assert both == alone

    def test_not_zero_dimensional_never_stops(self, sweep_steps):
        # the common factor x1 leaves the x2-axis outside every in(I)
        polys = [parse_polynomial("x1^2 + x1*x2", 2),
                 parse_polynomial("x1*x2^2", 2)]
        orders = [default_order(2), LEX12, LEX21]
        cert, steps = sweep_steps(polys, orders)
        assert steps == [s for order in orders
                         for s in sweep_steps(polys, [order])[1]]
        assert (cert.order, cert.initial.generators, cert.c_initial) == \
            (LEX21, ((1, 1), (3, 0)), 1)
        assert cert.mults is None

    @pytest.mark.parametrize("n, seeds", [(2, range(6)), (3, (1, 7))])
    def test_howald_threshold_is_kiselmans(self, n, seeds):
        for seed in seeds:
            polys = seeded_ideal(seed, n)
            for order in pinned_orders(n).values():
                cert = certified_lct_lower_bound(polys, order)
                assert cert.c_initial == kiselman_lct(cert.initial).c


class TestOrderSweepFit:
    """Orders LEX21, grevlex, LEX12 on an input whose three initial ideals
    all have an isolated zero, with thresholds 2/3, 2/3 and 3/4."""

    POLYS = [parse_polynomial("x1^2 - x2^3", 2),
             parse_polynomial("x1*x2^2", 2)]
    ORDERS = [LEX21, default_order(2), LEX12]

    @pytest.fixture
    def fits(self, monkeypatch):
        """Initial ideals handed to the fit, in call order."""
        from lctk import multiplicities

        real = multiplicities.mixed_multiplicities
        seen = []

        def counted(ideal):
            seen.append(ideal.generators)
            return real(ideal)

        monkeypatch.setattr(multiplicities, "mixed_multiplicities", counted)
        return seen

    def test_only_the_winner_is_fitted(self, fits):
        cert = order_sweep(self.POLYS, self.ORDERS)
        assert (cert.order, cert.c_initial) == (LEX12, F(3, 4))
        assert cert.mults.e == (1, 2, 9)
        assert fits == [((0, 5), (1, 2), (2, 0))]

    def test_unstable_winner_falls_back_to_next_ranked(self, monkeypatch,
                                                       fits):
        from lctk import UnstableFitError, multiplicities

        counted = multiplicities.mixed_multiplicities

        def unstable_for_lex12(ideal):
            if ideal.generators == ((0, 5), (1, 2), (2, 0)):
                raise UnstableFitError("injected")
            return counted(ideal)

        monkeypatch.setattr(multiplicities, "mixed_multiplicities",
                            unstable_for_lex12)
        cert = order_sweep(self.POLYS, self.ORDERS)
        # the tie between LEX21 and grevlex goes to the earlier order
        assert fits == [((0, 3), (1, 2), (3, 0))]
        assert cert == certified_lct_lower_bound(self.POLYS, LEX21)

    def test_every_order_failing_raises_the_first_orders_error(
            self, monkeypatch):
        from lctk import UnstableFitError, groebner, multiplicities

        real = groebner._pair_loop

        def capped_for_lex12(polys, order, max_reductions, colength):
            if order == LEX12:
                raise ResourceCapError("basis of LEX12")
            return real(polys, order, max_reductions, colength)

        def unstable(ideal):
            raise UnstableFitError("fit of LEX21")

        monkeypatch.setattr(groebner, "_pair_loop", capped_for_lex12)
        monkeypatch.setattr(multiplicities, "mixed_multiplicities",
                            unstable)
        # LEX12 fails first in time, in the basis; LEX21 later, in the fit
        with pytest.raises(UnstableFitError, match="fit of LEX21"):
            order_sweep(self.POLYS, [LEX21, LEX12])
