import csv
import json
import os
import subprocess
import sys
from itertools import count
from pathlib import Path

import pytest

from lctk import cli

CUSP = {"n": 2, "generators": [[2, 0], [0, 3]]}
UNIT = {"n": 2, "generators": [[0, 0]]}
NON_ISOLATED = {"n": 2, "generators": [[1, 1]]}
POLY = {"n": 2, "polynomials": ["x1^2 + x2^3"],
        "order": {"kind": "lex", "precedence": [1, 2]}}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLct:
    def test_cusp(self, tmp_path, capsys):
        code, out, err = run(capsys, ["lct", write(tmp_path, "i.json", CUSP)])
        assert code == 0
        data = json.loads(out)
        assert data["certificate"]["c"] == "5/6"
        assert data["howald"] == "5/6"
        assert data["duality_ok"]

    def test_maximal_n4(self, tmp_path, capsys):
        ideal = {"n": 4, "generators": [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]]}
        code, out, _ = run(capsys, ["lct", write(tmp_path, "i.json", ideal)])
        assert code == 0
        assert json.loads(out)["certificate"]["c"] == "4"

    def test_unit_exit_3(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["lct", write(tmp_path, "i.json", UNIT)])
        assert code == 3

    def test_garbage_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        code, _, _ = run(capsys, ["lct", str(path)])
        assert code == 2

    def test_bad_schema_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["lct", write(tmp_path, "i.json",
                                               {"dim": 2})])
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, ["lct", "/nonexistent/x.json"])
        assert code == 2


class TestReport:
    def test_cusp_sharp(self, tmp_path, capsys):
        code, out, _ = run(capsys,
                           ["report", write(tmp_path, "i.json", CUSP)])
        assert code == 0
        data = json.loads(out)
        assert data["sharp"] is True
        assert data["slack"] == "0"
        assert all(data["checks"].values())

    def test_truncated_cusp_not_sharp(self, tmp_path, capsys):
        ideal = {"n": 2, "generators": [[3, 0], [1, 1], [0, 3]]}
        code, out, _ = run(capsys,
                           ["report", write(tmp_path, "i.json", ideal)])
        assert code == 0
        data = json.loads(out)
        assert data["certificate"]["c"] == "1"
        assert data["bounds"]["main_bound"] == "5/6"
        assert data["sharp"] is False

    def test_non_isolated_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["report",
                                  write(tmp_path, "i.json", NON_ISOLATED)])
        assert code == 2

    @pytest.mark.parametrize("pure", ["0", "1"])
    def test_huge_diagonal_exits_5_promptly(self, tmp_path, pure):
        # the fit gives up at BASE_CAP; its one table there runs the pure
        # diagonal cell on either lane, past the compiled coordinate guard
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src, "LCTK_PURE_PYTHON": pure}
        path = write(tmp_path, "i.json",
                     {"n": 2, "generators": [[20000, 0], [0, 20000]]})
        done = subprocess.run(
            [sys.executable, "-m", "lctk.cli", "report", path], env=env,
            capture_output=True, text=True, timeout=30)
        assert done.returncode == 5

    def test_failing_check_exit_4(self, tmp_path, capsys, monkeypatch):
        import lctk.cli as climod

        real = climod.build_ideal_report

        def sabotage(ideal):
            rep = real(ideal)
            rep.checks["duality"] = False
            return rep

        monkeypatch.setattr(climod, "build_ideal_report", sabotage)
        code, _, _ = run(capsys,
                         ["report", write(tmp_path, "i.json", CUSP)])
        assert code == 4


class TestInvariantFailure:
    def test_non_optimal_lp_is_exit_4(self, tmp_path, capsys, monkeypatch):
        from lctk import InvariantError, normalize_generators, thresholds
        from lctk.simplex import INFEASIBLE, LPResult

        monkeypatch.setattr(thresholds, "solve_min",
                            lambda rows, rhs, *costs: LPResult(INFEASIBLE))
        with pytest.raises(InvariantError):
            thresholds.kiselman_lct(normalize_generators([(2, 0), (0, 3)], 2))
        code, out, err = run(capsys,
                             ["lct", write(tmp_path, "i.json", CUSP)])
        assert code == 4
        assert out == ""
        assert "Kiselman LP ended infeasible" in err

    @pytest.mark.parametrize("route, message", [
        ("kiselman_lct", "Kiselman LP optimum is zero"),
        ("howald_lct", "Howald LP optimum is zero")])
    def test_zero_optimum_is_exit_4(self, tmp_path, capsys, monkeypatch,
                                    route, message):
        from fractions import Fraction

        from lctk import InvariantError, normalize_generators, thresholds
        from lctk.simplex import OPTIMAL, LPResult

        real = thresholds.solve_min

        def zero_optimum(rows, rhs, cost, *tiebreaks):
            # only the Kiselman LP has tiebreaks
            if bool(tiebreaks) == (route == "kiselman_lct"):
                return LPResult(OPTIMAL, [Fraction(0)] * len(cost),
                                Fraction(0))
            return real(rows, rhs, cost, *tiebreaks)

        monkeypatch.setattr(thresholds, "solve_min", zero_optimum)
        with pytest.raises(InvariantError, match=message):
            getattr(thresholds, route)(
                normalize_generators([(2, 0), (0, 3)], 2))
        code, out, err = run(capsys,
                             ["lct", write(tmp_path, "i.json", CUSP)])
        assert (code, out, err) == (4, "", f"error: {message}\n")


class TestMults:
    def test_cusp(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["mults", write(tmp_path, "i.json", CUSP)])
        assert code == 0
        assert json.loads(out)["e"] == [1, 2, 6]

    def test_dump_table(self, tmp_path, capsys):
        out_csv = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["mults", write(tmp_path, "i.json", CUSP),
                                    "--dump-table", str(out_csv)])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "t", "L"]
        base = json.loads(out)["base"]
        first = rows[1]
        assert first[0] == str(base) and first[1] == str(base)
        assert len(rows) == 1 + 16  # the staircase the fit reads at n = 2

    def test_unstable_fit_exit_5(self, tmp_path, capsys, monkeypatch):
        from lctk import multiplicities

        calls = count()
        monkeypatch.setattr(multiplicities, "_mixed_difference",
                            lambda *args: next(calls))
        code, out, err = run(capsys, ["mults",
                                      write(tmp_path, "i.json", CUSP)])
        assert code == 5
        assert out == ""
        assert "no stable fit up to base 64" in err


class TestBounds:
    def test_sequence_input(self, tmp_path, capsys):
        path = write(tmp_path, "seq.json", {"e": [1, 2, 6], "c": "5/6"})
        code, out, _ = run(capsys, ["bounds", path])
        assert code == 0
        data = json.loads(out)
        assert data["bounds"]["main_bound"] == "5/6"
        assert data["bounds"]["chain"]["ok"]

    def test_sequence_input_without_c(self, tmp_path, capsys):
        path = write(tmp_path, "seq.json", {"e": [1, 2, 6]})
        code, out, _ = run(capsys, ["bounds", path])
        assert code == 0
        data = json.loads(out)
        assert "c" not in data
        assert data["bounds"]["geometric_bound_cmp"] is None
        assert data["bounds"]["mixed_bound_cmp"] is None
        assert data["bounds"]["main_bound"] == "5/6"

    def test_ideal_input(self, tmp_path, capsys):
        code, out, _ = run(capsys,
                           ["bounds", write(tmp_path, "i.json", CUSP)])
        assert code == 0
        assert json.loads(out)["bounds"]["main_bound"] == "5/6"

    def test_ideal_input_solves_only_the_kiselman_lp(self, tmp_path, capsys,
                                                     monkeypatch):
        # c comes from the Kiselman certificate alone: no Howald LP and no
        # report checks, which the bounds output does not print
        from lctk import simplex, thresholds

        calls = []
        real = simplex.solve_min

        def counting_solve(rows, rhs, *costs):
            calls.append(len(costs))
            return real(rows, rhs, *costs)

        monkeypatch.setattr(thresholds, "solve_min", counting_solve)
        code, out, _ = run(capsys,
                           ["bounds", write(tmp_path, "i.json", CUSP)])
        assert code == 0
        assert calls == [1 + CUSP["n"]]
        data = json.loads(out)
        assert (data["e"], data["c"]) == ([1, 2, 6], "5/6")
        assert data["bounds"]["mixed_bound_cmp"] == "EQ"

    def test_mults_output_is_a_sequence_input(self, tmp_path, capsys):
        _, out, _ = run(capsys, ["mults", write(tmp_path, "i.json", CUSP)])
        path = tmp_path / "seq.json"
        path.write_text(out)
        code, out, _ = run(capsys, ["bounds", str(path)])
        assert code == 0
        assert json.loads(out)["bounds"]["main_bound"] == "5/6"


class TestInputContract:
    SWEEP_BAD_ORDER = {"n": 2, "polynomials": ["x1^2 + x2^3"],
                       "orders": [{"kind": "lex", "precedence": [1, 2]},
                                  {"kind": "lex", "precedence": [1, 1]}]}

    @pytest.mark.parametrize("command, payload, extra", [
        ("bounds", {"e": [2, 3]}, []),
        ("bounds", {"e": [1, 0]}, []),
        ("bounds", {"e": [1]}, []),
        ("bounds", {"e": [1, 2.5, 6]}, []),
        ("bounds", {"e": [1, 2, 6], "c": "0"}, []),
        ("bounds", NON_ISOLATED, []),
        ("mults", NON_ISOLATED, []),
        ("probe", CUSP, ["0"]),
        ("groebner-bound", {"n": 2, "polynomials": ["1 + x1^2", "x2^3"]},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "precedence": [1, 3]}},
         []),
        ("groebner-bound", SWEEP_BAD_ORDER, ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted", "weights": [1]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": [1, 5, 7]}},
         []),
        ("groebner-bound", {"n": "x", "polynomials": ["x1^2 + x2^3"]}, []),
        ("groebner-bound", {"n": 2, "polynomials": 7}, []),
        ("groebner-bound", {"n": 2, "polynomials": []}, []),
        ("groebner-bound", {"n": 2, "polynomials": []}, ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "orders": []}, ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "precedence": 5}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": [1, "a"]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": [float("nan"), 1]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": [float("inf"), 1]}},
         []),
        ("groebner-bound", {"n": float("inf"), "polynomials": ["x1"]}, []),
        ("lct", {"n": float("inf"), "generators": [[1]]}, []),
        ("lct", {"n": 2, "generators": [[1.5, 0], [0, 2]]}, []),
        ("lct", {"n": 2, "generators": [["3", 0], [0, 2]]}, []),
        ("lct", {"n": 2, "generators": [[True, 0], [0, 3]]}, []),
        ("lct", {"n": 2.9, "generators": [[2, 0], [0, 3]]}, []),
        ("lct", {"n": "2", "generators": [[2, 0], [0, 3]]}, []),
        ("lct", {"n": True, "generators": [[2]]}, []),
        ("bounds", {"e": [1, True, 1]}, []),
        ("groebner-bound", {"n": 2.5, "polynomials": ["x1^2 + x2^3"]}, []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "precedence": [True, 2]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": [True, 1]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "weights": [5, 1],
                                      "tiebreak": "nonsense"}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "weights": [5, 1]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "precdence": [2, 1]}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "oder": {"kind": "lex"}}, []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "orders": [{"kind": "lex"}]}, []),
        ("groebner-bound", POLY, ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "grevlex", "tiebreak": "lex"}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted",
                                      "weights": ["nan", 1]}},
         []),
        ("bounds", 5, []),
        ("bounds", None, []),
        ("bounds", True, []),
        ("lct", {"n": 2, "generators": [[1, 0], [0, 1]], "x": 1}, []),
        ("bounds", {"n": 2, "generators": [[2, 0], [0, 3]], "x": 1}, []),
        ("bounds", {"e": [1, 2, 6], "c": "5/6", "extra": 1}, []),
        ("groebner-bound", {"n": 2, "polynomials": ["1 + x1^2", "x2^3"]},
         ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "orders": [{"kind": "lex"},
                                       {"kind": "lex",
                                        "precedence": [1, 2, 3]}]},
         ["--sweep"]),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "lex", "tiebreak": None}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted", "weights": [1, 2],
                                      "tiebreak": None}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3"],
                            "order": {"kind": "weighted", "weights": [1, 2],
                                      "tiebreak": "nonsense"}},
         []),
        ("groebner-bound", {"n": 2, "polynomials": ["x1^2 + x2^3", "x1 x2"]},
         ["--sweep"]),
    ])
    def test_exit_2(self, tmp_path, capsys, command, payload, extra):
        code, out, err = run(capsys, [command, write(tmp_path, "in.json",
                                                     payload)] + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize("weight", ["nan", "a", None, [1]])
    def test_weights_that_are_not_numbers(self, tmp_path, capsys, weight):
        payload = {"n": 2, "polynomials": ["x1^2 + x2^3"],
                   "order": {"kind": "weighted", "weights": [weight, 1]}}
        code, _, err = run(capsys, ["groebner-bound",
                                    write(tmp_path, "in.json", payload)])
        assert code == 2
        assert err == ("input error: weighted orders need positive finite "
                       "weights\n")

    @pytest.mark.parametrize("argv", [
        ["--probe-grid", "1", "probe", "{path}", "1/2"],
        ["--probe-grid", "0", "probe", "{path}", "1/2"],
        ["--probe-grid", "-3", "probe", "{path}", "1/2"],
        ["--probe-tolerance", "-0.5", "probe", "{path}", "1/2"],
        ["--probe-tolerance", "nan", "probe", "{path}", "1/2"],
        ["verify-random", "--count", "0"],
        ["verify-random", "--dim", "0"],
        ["verify-random", "--max-degree", "0"],
        ["--probe-tolerance", "inf", "probe", "{path}", "5"],
        ["probe", "{path}", "1e400"],
    ])
    def test_config_exit_2(self, tmp_path, capsys, argv):
        path = write(tmp_path, "in.json", CUSP)
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("input error:")

    @pytest.mark.parametrize("polys", [["x1^2 + x2^3"],
                                       ["x1^2 - x2^3", "x1*x2 - x2^2"]])
    @pytest.mark.parametrize("extra", [[], ["--sweep"]])
    def test_negative_max_steps(self, tmp_path, capsys, polys, extra):
        path = write(tmp_path, "in.json", {"n": 2, "polynomials": polys})
        code, out, err = run(capsys, ["--max-steps=-3", "groebner-bound",
                                      path] + extra)
        assert (code, out) == (2, "")
        assert err.startswith("input error:")
        code, _, _ = run(capsys, ["--max-steps=0", "groebner-bound",
                                  path] + extra)
        assert code == (0 if len(polys) == 1 else 5)


class TestFileFailures:
    """A file the CLI cannot read or write is an input error: exit 2, with
    nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["lct", "{dir}"],
        ["report", "{dir}"],
        ["bounds", "{dir}"],
        ["groebner-bound", "{dir}"],
        ["lct", "{latin1}"],
        ["bounds", "{latin1}"],
        ["groebner-bound", "{latin1}"],
        ["mults", "{cusp}", "--dump-table", "{dir}"],
        ["--csv", "{dir}", "verify-random", "--count", "2"],
    ])
    def test_exit_2(self, tmp_path, capsys, argv):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"n": 1, "generators": [[1]], "\xe9": 1}'
                           .encode("latin-1"))
        paths = {"dir": str(tmp_path), "latin1": str(latin1),
                 "cusp": write(tmp_path, "i.json", CUSP)}
        code, out, err = run(capsys, [a.format(**paths) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("input error:")

    def test_csv_target_opens_before_the_sweep(self, tmp_path, capsys,
                                               monkeypatch):
        swept = []
        monkeypatch.setattr(cli, "run_random_sweep",
                            lambda *args, **kw: swept.append(args))
        code, out, _ = run(capsys, ["--csv", str(tmp_path),
                                    "verify-random", "--count", "2"])
        assert (code, out, swept) == (2, "", [])


class TestVerifyRandom:
    def test_small_sweep_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["--seed", "1", "verify-random",
                                    "--dim", "2", "--max-degree", "5",
                                    "--count", "12"])
        assert code == 0
        data = json.loads(out)
        assert data["passed"] == 12
        assert data["failed"] == 0
        assert data["f_monotonicity"]["passed"] == 12

    def test_byte_identical_reruns(self, capsys):
        argv = ["--seed", "7", "verify-random", "--dim", "2",
                "--count", "6"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_stream(self, capsys):
        _, out1, _ = run(capsys, ["--seed", "1", "verify-random",
                                  "--count", "6"])
        _, out2, _ = run(capsys, ["--seed", "2", "verify-random",
                                  "--count", "6"])
        assert out1 != out2

    def test_unstable_fit_is_skipped(self, capsys):
        # seed 1 draws (z2^70, z1^84), whose fit does not stabilize by
        # BASE_CAP: a resource cap, so the sweep skips it and goes on
        code, out, _ = run(capsys, ["--seed", "1", "verify-random",
                                    "--dim", "2", "--max-degree", "100",
                                    "--count", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["skipped"] >= 1
        assert data["passed"] + data["skipped"] == 6

    def test_failing_check_exit_4(self, capsys, monkeypatch):
        from lctk import report

        real = report.howald_lct
        monkeypatch.setattr(report, "howald_lct",
                            lambda ideal: real(ideal) + 1)
        code, out, _ = run(capsys, ["--seed", "0", "verify-random",
                                    "--dim", "2", "--count", "2"])
        assert code == 4
        data = json.loads(out)
        assert (data["passed"], data["failed"]) == (0, 2)
        assert [sorted(f) for f in data["failures"]] == \
            [["checks", "ideal", "index"]] * 2
        assert [f["index"] for f in data["failures"]] == [0, 1]
        assert all(f["checks"] == ["duality"] for f in data["failures"])

    def test_csv_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["--seed", "5", "--csv", str(out_csv),
                                  "verify-random", "--count", "5"])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6
        assert rows[0][0] == "index"


class TestGroebnerBound:
    def test_cusp_polynomial(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["groebner-bound",
                                    write(tmp_path, "p.json", POLY)])
        assert code == 0
        data = json.loads(out)
        assert data["c_initial"] == "1/2"
        assert "lct of the input ideal >= 1/2" in data["guarantee"]

    def test_sweep(self, tmp_path, capsys):
        payload = dict(POLY)
        payload["orders"] = [
            {"kind": "lex", "precedence": [1, 2]},
            {"kind": "lex", "precedence": [2, 1]},
        ]
        del payload["order"]
        code, out, _ = run(capsys, ["groebner-bound",
                                    write(tmp_path, "p.json", payload),
                                    "--sweep"])
        assert code == 0
        assert json.loads(out)["c_initial"] == "1/2"

    def test_maximal_exact(self, tmp_path, capsys):
        payload = {"n": 2, "polynomials": ["x1", "x2"]}
        code, out, _ = run(capsys, ["groebner-bound",
                                    write(tmp_path, "p.json", payload)])
        assert code == 0
        assert json.loads(out)["c_initial"] == "2"

    def test_bad_polynomial_exit_2(self, tmp_path, capsys):
        payload = {"n": 2, "polynomials": ["x1 + ("]}
        code, _, _ = run(capsys, ["groebner-bound",
                                  write(tmp_path, "p.json", payload)])
        assert code == 2

    def test_parse_error_names_the_token(self, tmp_path, capsys):
        payload = {"n": 2, "polynomials": ["x1 x2"]}
        code, out, err = run(capsys, ["groebner-bound",
                                      write(tmp_path, "p.json", payload)])
        assert (code, out) == (2, "")
        assert err == ("input error: expected + or -, got 'x2' "
                       "(at position 3)\n")

    def test_default_sweep_cap_exit_5(self, tmp_path, capsys):
        payload = {"n": 6, "polynomials": ["x1"]}
        code, out, err = run(capsys, ["groebner-bound",
                                      write(tmp_path, "p.json", payload),
                                      "--sweep"])
        assert (code, out) == (5, "")
        assert err == ("resource cap: default sweep enumerates lex orders; "
                       "too many for n > 5\n")

    def test_resource_cap_exit_5(self, tmp_path, capsys):
        payload = {"n": 2, "polynomials": ["x1^3 - x2", "x2^3 - x1"],
                   "order": {"kind": "lex", "precedence": [1, 2]}}
        code, _, _ = run(capsys, ["--max-steps", "1", "groebner-bound",
                                  write(tmp_path, "p.json", payload)])
        assert code == 5


class TestProbe:
    def test_below_threshold(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["probe",
                                    write(tmp_path, "i.json", CUSP), "0.75"])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "converges"
        assert data["exact_threshold"] == "5/6"
        assert "warning" not in data

    def test_above_threshold(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["probe",
                                    write(tmp_path, "i.json", CUSP), "0.90"])
        assert code == 0
        assert json.loads(out)["verdict"] == "diverges"

    def test_near_threshold_warns(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["probe",
                                    write(tmp_path, "i.json", CUSP),
                                    "419/500"])
        assert code == 0
        assert "warning" in json.loads(out)

    def test_univariate(self, tmp_path, capsys):
        ideal = {"n": 1, "generators": [[2]]}
        code, out, _ = run(capsys, ["probe",
                                    write(tmp_path, "i.json", ideal),
                                    "0.40"])
        assert code == 0
        assert json.loads(out)["verdict"] == "converges"

    def test_two_percent_margin_warns(self, tmp_path, capsys):
        # at a 2% margin the decay is too slow for the default schedule;
        # the verdict is unreliable and the near-threshold warning fires
        ideal = {"n": 1, "generators": [[2]]}
        code, out, _ = run(capsys, ["probe",
                                    write(tmp_path, "i.json", ideal),
                                    "0.49"])
        assert code == 0
        assert "warning" in json.loads(out)


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON does
    not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStdoutIsJson:
    """Every subcommand on the fixtures writes RFC 8259 JSON to stdout, or
    nothing when it exits with an error, and no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, payload", [
        ([command, "{path}"] + extra, ideal)
        for command, extra in [("lct", []), ("report", []), ("mults", []),
                               ("bounds", []), ("probe", ["3/4"]),
                               ("probe", ["1000"])]
        for ideal in (CUSP, UNIT, NON_ISOLATED)] + [
        (["bounds", "{path}"], {"e": [1, 2, 6], "c": "5/6"}),
        (["groebner-bound", "{path}"], POLY),
        (["groebner-bound", "{path}", "--sweep"],
         {"n": 2, "polynomials": ["x1^2 + x2^3"]}),
        (["--seed", "3", "verify-random", "--count", "4"], None),
    ])
    def test_stdout(self, tmp_path, capsys, argv, payload):
        path = write(tmp_path, "in.json", payload)
        code, out, _ = run(capsys, [a.format(path=path) for a in argv])
        if code == 0:
            strict_json(out)
        else:
            assert out == ""

    def test_probe_far_above_threshold(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["probe", write(tmp_path, "i.json", CUSP),
                                    "1000"])
        assert code == 0
        data = strict_json(out)
        assert data["verdict"] == "inconclusive"
        assert data["trail"] == []
        assert "not a finite float" in data["note"]
