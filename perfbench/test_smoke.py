"""Smoke test for the benchmark: every workload at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run passes its correctness gate, reports every metric
named in BENCHMARK.json with its unit, gives the same work counts when
repeated with the same seed, compares stored work counts only with
runs of the same sources, traces calls through the defining module,
fails when a traced name is missing, and refuses to run without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import tracing  # noqa: E402
WORKLOADS = ("mpc_loop", "polytope_cold", "mpc_cold")
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run(root, workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        res = result(run(ROOT, workload, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for v in res["metrics"].values():
            assert isinstance(v["value"], float)


def test_same_seed_gives_same_work_counts():
    counts = []
    for _ in range(2):
        res = result(run(ROOT, "mpc_cold", 1))
        assert res["correct"] is True
        with open(os.path.join(HERE, "out",
                               f"mpc_cold-tiny-seed{SEED}-trace1.json")) as fh:
            counts.append(json.load(fh)["work_counts"])
    assert counts[0] == counts[1]
    assert counts[0]["pins"] > 0 and counts[0]["outer_iters"] > 0


def copy_checkout(name, with_sources):
    """BENCHMARK.json and perfbench/ (and src/) under perfbench/out/."""
    dst = os.path.join(HERE, "out", name)
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(dst)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=skip)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=skip)
    return dst


def test_stored_counts_are_compared_only_for_the_same_sources():
    root = copy_checkout("counts", with_sources=True)
    out = os.path.join(root, "perfbench", "out")
    os.makedirs(out)
    bogus = {"0": {"outer_iters": -1}}

    def store(digest):
        path = os.path.join(out, f"counts-mpc_cold-tiny-seed{SEED}-src"
                                 f"{digest}.json")
        with open(path, "w") as fh:
            json.dump(bogus, fh)

    store("0" * 16)         # other sources: their counts do not apply
    assert result(run(root, "mpc_cold", 0))["correct"] is True
    store(bench.source_digest())
    proc = run(root, "mpc_cold", 0)
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_calls_through_the_defining_module_are_traced():
    import numpy as np
    from dualqp import WorkingSet, kernel
    tracer = tracing.Tracer()
    with tracer.hooked():
        kernel.factorize(np.eye(3), WorkingSet(0, 3, [0]), 1.0)
    assert [tracer.span_name(sid) for sid in range(len(tracer))] == [
        "kernel.factorize"]
    assert kernel.factorize.__module__ == "dualqp.kernel"


def test_missing_hook_fails(monkeypatch):
    hooks = dict(tracing.HOOKS)
    hooks["dualqp.kernel"] = hooks["dualqp.kernel"] + [
        ("no_such_function", "kernel.no_such_function")]
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    with pytest.raises(tracing.HookError, match="no_such_function"):
        with tracing.Tracer().hooked():
            pass


def test_refuses_to_run_without_sources():
    bare = copy_checkout("bare", with_sources=False)
    proc = run(bare, "mpc_loop", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
