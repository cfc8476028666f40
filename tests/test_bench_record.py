"""scripts/bench_record.py on synthetic run records.

The script copies what perfbench/run.py records into a BENCH file, and
refuses records that failed, that come from other sources, or that are
of another run than the one asked for.
"""

import importlib.util
import json
import os

import pytest

from child_python import ROOT, openblas_cores


@pytest.fixture
def bench_record(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "_bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORDS", str(tmp_path))
    return module


def record(trace, workload="mpc_loop", seed=3, tiny=False, correct=True,
           digest="0123456789abcdef"):
    kind = "per_layer" if trace else "end_to_end"
    return {
        "args": {"workload": workload, "seed": seed, "tiny": tiny,
                 "trace": trace, "seconds": 2.0, "setup_probe": False},
        "environment": {"python": "3.11.7", "nproc": 2},
        "source_digest": digest,
        "setup_samples_s": [] if trace else [0.25, 0.5, 0.75],
        "work_counts": ({"outer_iters": 9, "pins": 4} if trace
                        else {"outer_iters": 9}),
        "qps": [[{"lat": [0.001], "counts": {}, "err": None}]],
        "result": {"correct": correct, "attempted": 10 + trace,
                   "failed": 0 if correct else 1,
                   "metrics": {f"{kind}.x": {"value": 1.5 + trace,
                                             "unit": "ms"}}},
    }


def write(tmp_path, tag, trace, rec):
    with open(tmp_path / f"{tag}-trace{trace}.json", "w") as fh:
        json.dump(rec, fh)


def test_copies_both_runs_into_the_bench_file(bench_record, tmp_path):
    for trace in (0, 1):
        write(tmp_path, "mpc_loop-seed3", trace, record(trace))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["mpc_loop", "--seed", "3",
                              "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc == {
        "workload": "mpc_loop", "seed": 3, "tiny": False,
        "source_digest": "0123456789abcdef",
        "environment": {"python": "3.11.7", "nproc": 2},
        "openblas_core": openblas_cores(),
        "runs": {"end_to_end": {"seconds": 2.0, "attempted": 10,
                                "failed": 0,
                                "setup_samples_s": [0.25, 0.5, 0.75]},
                 "per_layer": {"seconds": 2.0, "attempted": 11,
                               "failed": 0}},
        "end_to_end": {"end_to_end.x": {"value": 1.5, "unit": "ms"}},
        "per_layer": {"per_layer.x": {"value": 2.5, "unit": "ms"}},
        "work_counts": {"outer_iters": 9, "pins": 4},
    }


def test_tiny_records_have_their_own_names(bench_record, tmp_path):
    for trace in (0, 1):
        write(tmp_path, "mpc_loop-tiny-seed3", trace,
              record(trace, tiny=True))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["mpc_loop", "--seed", "3", "--tiny",
                              "--out", str(out)]) == 0
    assert bench_record.main(["mpc_loop", "--seed", "3",
                              "--out", str(tmp_path / "other.json")]) == 1


@pytest.mark.parametrize("bad, message", [
    ((0, {"correct": False}), "failed its correctness gate"),
    ((1, {"correct": False}), "failed its correctness gate"),
    ((1, {"digest": "fedcba9876543210"}), "different sources"),
    ((0, {"workload": "mpc_cold"}), "records workload mpc_cold"),
    ((1, {"seed": 4}), "seed 4"),
    ((0, {"tiny": True}), "tiny True"),
], ids=["failed-untraced", "failed-traced", "sources", "workload", "seed",
        "size"])
def test_refuses_and_writes_nothing(bench_record, tmp_path, capsys, bad,
                                    message):
    for trace in (0, 1):
        kw = bad[1] if trace == bad[0] else {}
        write(tmp_path, "mpc_loop-seed3", trace, record(trace, **kw))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["mpc_loop", "--seed", "3",
                              "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_missing_record_is_refused(bench_record, tmp_path, capsys):
    write(tmp_path, "mpc_loop-seed3", 0, record(0))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["mpc_loop", "--seed", "3",
                              "--out", str(out)]) == 1
    assert "cannot read" in capsys.readouterr().err
    assert not out.exists()
