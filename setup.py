import os

from setuptools import Extension, setup

# The compiled staircase kernel, built from the shipped src/lctk/_staircase.c
# (generated from _staircase.pyx; both files are pinned).  With
# LCTK_NO_EXT=1 the package installs pure-Python and selects the fallback
# lane at import time.
ext_modules = []
if os.environ.get("LCTK_NO_EXT") != "1":
    ext_modules = [Extension("lctk._staircase", ["src/lctk/_staircase.c"])]

setup(ext_modules=ext_modules)
