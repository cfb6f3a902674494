"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import lctk
from lctk import _staircase_py
from lctk.errors import DegreeCapError, ResourceCapError, UnstableFitError

PACKAGE = Path(lctk.__file__).resolve().parent


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_package_has_no_assert():
    # an internal invariant failure raises InvariantError (exit 4); an
    # assert would vanish under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_resource_caps_are_one_type():
    # exit 5 and a skipped sweep item are decided by ResourceCapError alone
    assert issubclass(UnstableFitError, ResourceCapError)
    assert issubclass(DegreeCapError, ResourceCapError)
    subs = {cls.__name__ for cls in _subclasses(ResourceCapError)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and isinstance(
                    node.type, ast.Tuple):
                names = {getattr(e, "id", getattr(e, "attr", None))
                         for e in node.type.elts}
                if "ResourceCapError" in names and names & subs:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_kernels_reads_the_environment():
    # LCTK_PURE_PYTHON picks the kernel lane; nothing else in the package
    # is configured by an environment variable
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in names or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and names & {a.name for a in node.names}):
                found.append(path.name)
    assert set(found) == {"kernels.py"}


def test_only_lattice_imports_lcm():
    # lattice._integers is the one scaler of rationals to integers; the
    # simplex, the Groebner members and the weighted order keys use it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "lcm" or (
                    isinstance(node, ast.ImportFrom) and node.module == "math"
                    and "lcm" in {a.name for a in node.names}):
                found.append(path.name)
    assert set(found) == {"lattice.py"}


def test_only_thresholds_imports_simplex():
    # every LP the package poses is a threshold or Newton-scale LP, so the
    # simplex has one caller
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "simplex" or node.module is None
                    and "simplex" in {a.name for a in node.names}):
                found.append(path.name)
    assert set(found) == {"thresholds.py"}


def test_perfbench_tracer_names_resolve():
    # perfbench's tracer wraps functions by name; a renamed or removed one
    # would make `perfbench/run.py --trace 1` fail.  The tracer is read as
    # source, not imported.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    names = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if getattr(target, "id", None) in ("TRACED", "LANE_FUNCTIONS")}
    traced, lanes = names["TRACED"], names["LANE_FUNCTIONS"]
    assert traced and lanes
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(
                   f"lctk.{module}"), name, None))]
    missing += [f"_staircase_py.{name}" for name in lanes
                if not callable(getattr(_staircase_py, name, None))]
    assert missing == []
