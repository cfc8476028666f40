"""Child Pythons for the tests that start one, and the BLAS they run on.

run_python starts the interpreter that runs the tests, with src/ on
PYTHONPATH, BLAS pinned to one thread (the thread count changes the
bits of a result) and a RuntimeWarning made an error, as pytest's
filterwarnings does in the test process but cannot do in a child.

openblas_cores names the OpenBLAS kernels that numpy and scipy picked
for this CPU.  Kernels round differently, so the golden files record
the cores they were recorded with.  Run as a script, this module
prints them.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(*args, cwd=None):
    """Run `python *args` in a child; the CompletedProcess, text mode."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _corename(libs, symbol):
    # the wheels' bundled OpenBLAS, found next to the package
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, libs, "*openblas*"))):
        get = getattr(ctypes.CDLL(path), symbol, None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_char_p
            return get().decode()
    return "unknown"


def openblas_cores():
    """{"numpy": core, "scipy": core}, each "unknown" when its wheel
    bundles no OpenBLAS that reports one."""
    return {"numpy": _corename("numpy.libs", "scipy_openblas_get_corename64_"),
            "scipy": _corename("scipy.libs", "scipy_openblas_get_corename")}


if __name__ == "__main__":
    print(json.dumps(openblas_cores()))
