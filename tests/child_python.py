"""Child Pythons for the tests that start one, and the BLAS they run on.

run_python starts the interpreter that runs the tests, with src/ on
PYTHONPATH, BLAS pinned to one thread and to OpenBLAS's Haswell kernels
(the thread count and the kernel each change the bits of a result), and
a RuntimeWarning made an error, as pytest's filterwarnings does in the
test process but cannot do in a child.  The pins override the caller's
environment.  Haswell's AVX2 kernels run on any x86-64 CPU with AVX2,
so the golden files, recorded through run_python, hold on the CPUs of
other machines too.

openblas_cores names the OpenBLAS kernels that numpy and scipy loaded.
The golden files record them, so a child whose OpenBLAS ignored the pin
fails their comparison.  Run as a script, this module prints them.
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
               MKL_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell",
               PYTHONWARNINGS="error::RuntimeWarning")
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
