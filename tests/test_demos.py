"""Each script in demos/ runs to completion against the checkout."""

import pathlib

import pytest

from child_python import ROOT, run_python

DEMOS = sorted(pathlib.Path(ROOT, "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = run_python(str(script), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
