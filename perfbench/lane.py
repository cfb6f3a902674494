"""The compiled kernel lane: build it from the shipped C source, import on it.

The extension is compiled with gcc from ``src/lctk/_staircase.c`` into
``.bench_build/staircase-<key>/``, where the key is the sha256 of the C
source and the interpreter's extension suffix, so a rebuilt source or
another Python gets its own build and nothing is ever written into
``src/``.  ``load_lctk`` imports ``lctk`` from ``src/`` with the build
directory first on the package path, so ``lctk.kernels`` finds
``lctk._staircase`` there and not in an extension an in-place build may
have left in ``src/lctk``.  Any lane other than ``compiled``, or an
extension from anywhere but the build directory, is refused.
"""

import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lctk"
C_SOURCE = PACKAGE / "_staircase.c"
BUILD_ROOT = ROOT / ".bench_build"


class LaneError(RuntimeError):
    """The compiled lane cannot be built or was not selected."""


def source_sha256():
    if not C_SOURCE.is_file():
        raise LaneError(f"missing kernel source {C_SOURCE.relative_to(ROOT)}")
    return hashlib.sha256(C_SOURCE.read_bytes()).hexdigest()


def build_extension():
    """Compile the extension unless a build for this source exists.

    Returns the build directory holding ``_staircase<EXT_SUFFIX>``.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(
        (source_sha256() + suffix).encode()).hexdigest()[:16]
    out_dir = BUILD_ROOT / f"staircase-{key}"
    target = out_dir / f"_staircase{suffix}"
    if target.is_file():
        return out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / f"_staircase.{os.getpid()}.partial"
    cmd = ["gcc", "-shared", "-fPIC", "-O3", "-fwrapv", "-DNDEBUG",
           "-I", sysconfig.get_paths()["include"],
           str(C_SOURCE), "-o", str(partial)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError as exc:
        raise LaneError("gcc not found") from exc
    if proc.returncode != 0:
        partial.unlink(missing_ok=True)
        raise LaneError(f"gcc failed:\n{proc.stderr[-2000:]}")
    os.replace(partial, target)
    return out_dir


def load_lctk(build_dir):
    """Import lctk from src/ on the compiled lane built in build_dir."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise LaneError(f"missing package {PACKAGE.relative_to(ROOT)}")
    spec = importlib.util.spec_from_file_location(
        "lctk", init,
        submodule_search_locations=[str(build_dir), str(PACKAGE)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["lctk"] = module
    spec.loader.exec_module(module)
    # the CLI's JSON helpers, which the package itself does not import
    importlib.import_module("lctk.serialize")
    if module.BACKEND != "compiled":
        raise LaneError(f"lane is {module.BACKEND!r}, not 'compiled'")
    loaded = Path(module._staircase.__file__).resolve()
    if loaded.parent != Path(build_dir).resolve():
        raise LaneError(f"extension loaded from {loaded}, not {build_dir}")
    return module


def git_sha():
    """HEAD of the checkout, or None when the checkout is no git work tree
    of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True)
    except FileNotFoundError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(lctk):
    """The facts every result carries: lane, interpreter, CPUs, revision."""
    return {
        "lane": lctk.BACKEND,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "kernel_source_sha256": source_sha256(),
    }
