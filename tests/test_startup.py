"""Start-up: what `import plmpc` loads, and the LAPACK routines it loads itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from plmpc import _lapack

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports plmpc in a fresh interpreter, runs three steps of eg6-FB5 through
# the config document, reports which of the heavy modules are loaded, then
# imports scipy.linalg and compares its float64 routines with plmpc's.
_CHILD = """
import json, sys
import plmpc
from plmpc import config, plant
doc = config.to_document(plant.preset("eg6-FB5"))
doc["sim"]["steps"] = 3
log = plant.run_closed_loop(config.from_document(doc))
loaded = [name for name in ("scipy.linalg", "yaml", "numpy.random") if name in sys.modules]
import numpy as np, scipy.linalg
funcs = scipy.linalg.get_lapack_funcs(("trtrs", "potrf", "potrs"), dtype=np.float64)
ours = (plmpc._lapack.trtrs, plmpc._lapack.potrf, plmpc._lapack.potrs)
print(json.dumps({"file": plmpc.__file__, "steps": log.steps, "loaded": loaded,
                  "same": [a is b for a, b in zip(ours, funcs)]}))
"""


def test_import_and_first_steps_skip_scipy_linalg_yaml_and_numpy_random():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    report = json.loads(out)
    assert report["file"].startswith(str(SRC))
    assert report["steps"] == 3
    assert report["loaded"] == []
    # loaded first by plmpc, the routines are still the ones scipy.linalg hands out
    assert report["same"] == [True, True, True]


def test_routines_are_scipy_float64_lapack():
    funcs = scipy.linalg.get_lapack_funcs(("trtrs", "potrf", "potrs"), dtype=np.float64)
    assert funcs[0] is _lapack.trtrs
    assert funcs[1] is _lapack.potrf
    assert funcs[2] is _lapack.potrs


def test_missing_flapack_names_the_directory_searched(monkeypatch, tmp_path):
    class FakeScipy:
        submodule_search_locations = [str(tmp_path)]

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(_lapack.importlib.util, "find_spec", lambda name: FakeScipy())
    with pytest.raises(ImportError, match="_flapack not found in " + str(tmp_path / "linalg")):
        _lapack._load_flapack()
