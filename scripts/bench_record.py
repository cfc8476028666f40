#!/usr/bin/env python3
"""Write a committed BENCH file from the benchmark's own run records.

    python3 perfbench/run.py --workload mpc_loop --seed 1 --trace 0
    python3 perfbench/run.py --workload mpc_loop --seed 1 --trace 1
    python3 scripts/bench_record.py mpc_loop --seed 1

perfbench/run.py leaves one record per run in perfbench/out/, named
<workload>[-tiny]-seed<n>-trace<t>.json.  This script reads the
untraced record (trace 0: end-to-end metrics) and the traced one
(trace 1: per-layer metrics) of one workload, seed and size, and
writes BENCH_<workload>.json at the repository root, or at --out.
The file holds both sets of metrics, the work counts, the source
digest, the environment, and the OpenBLAS cores that numpy and scipy
run on here, which the records lack; so run it on the machine that
ran the benchmark.

It writes nothing and exits 1 when a record is missing, failed its
correctness gate, or is of another workload, seed or size, or when the
two records come from different sources.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = os.path.join(ROOT, "perfbench", "out")

sys.path.insert(0, os.path.join(ROOT, "tests"))
from child_python import openblas_cores  # noqa: E402


class RecordError(ValueError):
    """The run records cannot make a BENCH file."""


def load_record(workload, seed, tiny, trace):
    """The record of one run, checked to be the run asked for and to
    have passed its correctness gate."""
    tag = f"{workload}{'-tiny' if tiny else ''}-seed{seed}"
    path = os.path.join(RECORDS, f"{tag}-trace{trace}.json")
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (OSError, ValueError) as err:
        raise RecordError(f"cannot read {path}: {err}") from err
    args = rec["args"]
    got = (args["workload"], args["seed"], args["tiny"], args["trace"])
    if got != (workload, seed, tiny, trace):
        raise RecordError(
            f"{path} records workload {got[0]}, seed {got[1]}, tiny "
            f"{got[2]}, trace {got[3]}; asked for {workload}, {seed}, "
            f"{tiny}, {trace}")
    if rec["result"]["correct"] is not True:
        raise RecordError(f"{path}: the run failed its correctness gate")
    return rec


def bench_file(workload, seed, tiny):
    """The BENCH file's contents, from the two records of the run."""
    plain = load_record(workload, seed, tiny, 0)
    traced = load_record(workload, seed, tiny, 1)
    if plain["source_digest"] != traced["source_digest"]:
        raise RecordError(
            f"the records come from different sources: "
            f"{plain['source_digest']} untraced, "
            f"{traced['source_digest']} traced")

    def run(rec):
        return {"seconds": rec["args"]["seconds"],
                "attempted": rec["result"]["attempted"],
                "failed": rec["result"]["failed"]}

    return {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "source_digest": plain["source_digest"],
        "environment": plain["environment"],
        "openblas_core": openblas_cores(),
        "runs": {"end_to_end": dict(run(plain),
                                    setup_samples_s=plain["setup_samples_s"]),
                 "per_layer": run(traced)},
        "end_to_end": plain["result"]["metrics"],
        "per_layer": traced["result"]["metrics"],
        # the traced run's totals hold the span counts too
        "work_counts": traced["work_counts"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", help="default: BENCH_<workload>.json at the "
                                 "repository root")
    args = p.parse_args(argv)
    try:
        doc = bench_file(args.workload, args.seed, args.tiny)
    except RecordError as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 1
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench_record: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
