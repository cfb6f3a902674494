import os

from setuptools import Extension, setup

# The compiled staircase kernel: cythonized from the .pyx when Cython is
# present, otherwise compiled from the shipped, generated .c.  With
# LCTK_NO_EXT=1 the package installs pure-Python and selects the fallback
# lane at import time.
ext_modules = []
if os.environ.get("LCTK_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [Extension("lctk._staircase", ["src/lctk/_staircase.c"])]
    else:
        ext_modules = cythonize(
            [Extension("lctk._staircase", ["src/lctk/_staircase.pyx"])],
            language_level=3,
        )

setup(ext_modules=ext_modules)
