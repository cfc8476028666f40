"""Same work: each QP of perfbench's workloads does the recorded work.

Runs the first pass of each workload in perfbench/ at tiny size and
seed 1, feeding answers back as the benchmark's first pass does, and
compares each QP's work counts (FIELDS) with tests/work_counts.json.
factorizations counts the calls to dualqp.active_set.factorize, through
a wrapper put in place of that name for the pass.
perfbench/workloads.py is loaded from its file and left unchanged.  The
pass runs in a fresh process with BLAS pinned to one thread, because
the BLAS thread count changes the bits of the result and with them the
counts.

A change meant to alter the solver's work records a new golden with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_work_counts.py \\
        > tests/work_counts.json
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "work_counts.json")
SEED = 1
FIELDS = ("outer_iters", "descent_count", "shift_retries", "refine_calls",
          "refine_iters", "salvaged_steps", "factorizations")


def first_pass_counts():
    """{workload: [[count per FIELDS] per QP]} for the first pass."""
    from dualqp import (PrimalQP, SolveStatus, active_set, build_dual,
                        recover_primal, solve_dual)
    factorize = active_set.factorize
    calls = [0]

    def counted_factorize(*args, **kwargs):
        calls[0] += 1
        return factorize(*args, **kwargs)

    active_set.factorize = counted_factorize
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads",
        os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    counts = {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        wl = cls(SEED, tiny=True)
        rows = counts[name] = []
        for _ in range(wl.pass_size):
            data = wl.inputs(wl.next())
            calls[0] = 0
            primal = PrimalQP(**data)
            dual, pf = build_dual(primal)
            rep = solve_dual(dual, cfg=wl.cfg)
            x = recover_primal(primal, pf, rep.mu_star).x
            ok = (rep.status is SolveStatus.OPTIMAL
                  and workloads.kkt_violation(data, x, rep.mu_star) <= wl.tol)
            wl.feedback(x if ok else None)
            rows.append([rep.outer_iters, rep.descent_count,
                         rep.shift_retries, rep.refine_calls,
                         round(rep.refine_iters_mean * rep.refine_calls),
                         rep.salvaged_steps, calls[0]])
    return counts


def dumps(counts):
    # one line per QP, so a change in the golden diffs QP by QP
    blocks = [f'  "{name}": [\n    '
              + ",\n    ".join(json.dumps(row) for row in rows) + "\n  ]"
              for name, rows in counts.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_first_pass_work_matches_the_golden():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert set(got) == set(want)
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for i, (g, w) in enumerate(zip(got[name], want[name])):
            assert g == w, (f"{name} QP {i}: "
                            f"{dict(zip(FIELDS, g))} != {dict(zip(FIELDS, w))}")


if __name__ == "__main__":
    sys.stdout.write(dumps(first_pass_counts()))
