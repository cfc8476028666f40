"""The child Pythons' pins override the caller's environment."""

import json
import os

from child_python import ROOT, run_python


def test_run_python_pins_the_haswell_kernels(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Sandybridge")
    out = run_python(os.path.join(ROOT, "tests", "child_python.py"))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"numpy": "Haswell", "scipy": "Haswell"}
