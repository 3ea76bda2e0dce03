"""The three double-precision LAPACK routines plmpc calls: trtrs, potrf, potrs.

They are loaded straight from scipy's compiled `scipy.linalg._flapack`, the
module behind `scipy.linalg.get_lapack_funcs`, so they are the same objects
that call returns for float64, without importing scipy.linalg itself, which
costs more than half of a cold start.
"""

import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["trtrs", "potrf", "potrs"]

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    if _NAME in sys.modules:  # scipy.linalg is already imported
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")  # locates scipy without running it
    if scipy is None:
        raise ImportError("plmpc needs scipy's LAPACK, and scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
            spec = importlib.util.spec_from_file_location(_NAME, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled LAPACK module _flapack not found in {directory}")


_flapack = _load_flapack()
trtrs, potrf, potrs = _flapack.dtrtrs, _flapack.dpotrf, _flapack.dpotrs
