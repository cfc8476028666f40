"""Same work: each QP of perfbench's workloads does the recorded work.

Runs the first pass of each workload in perfbench/ at tiny size and
seed 1, feeding answers back as the benchmark's first pass does, and
compares each QP's work counts (FIELDS) with tests/work_counts.json.
It also pins the answers: under "digests", each workload's sha256
(first 16 hex digits) of its x bytes and of its mu_star bytes, each
concatenated in QP order, so a change that moves a result bit fails
here even when the work stays the same.
factorizations counts the calls to dualqp.active_set.factorize, through
a wrapper put in place of that name for the pass.
perfbench/workloads.py is loaded from its file and left unchanged.  The
pass runs in a child Python that child_python.run_python pins to one
BLAS thread and to OpenBLAS's Haswell kernels, because the thread count
and the kernel each change the bits of the result and with them the
counts.  The golden also names the OpenBLAS cores it was recorded on,
and the test compares them like the counts.

A change meant to alter the solver's work or its answers records a new
golden with

    OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell PYTHONPATH=src \\
        python tests/test_work_counts.py > tests/work_counts.json
"""

import hashlib
import importlib.util
import json
import os
import sys

from child_python import ROOT, openblas_cores, run_python

GOLDEN = os.path.join(ROOT, "tests", "work_counts.json")
SEED = 1
FIELDS = ("outer_iters", "descent_count", "shift_retries", "refine_calls",
          "refine_iters", "salvaged_steps", "factorizations")


def first_pass():
    """({workload: [[count per FIELDS] per QP]},
    {workload: {"x": digest, "mu_star": digest}}) for the first pass."""
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
    counts, digests = {}, {}
    for name, cls in sorted(workloads.WORKLOADS.items()):
        wl = cls(SEED, tiny=True)
        rows = counts[name] = []
        hx, hmu = hashlib.sha256(), hashlib.sha256()
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
            hx.update(x.tobytes())
            hmu.update(rep.mu_star.tobytes())
            rows.append([rep.outer_iters, rep.descent_count,
                         rep.shift_retries, rep.refine_calls,
                         round(rep.refine_iters_mean * rep.refine_calls),
                         rep.salvaged_steps, calls[0]])
        digests[name] = {"x": hx.hexdigest()[:16],
                         "mu_star": hmu.hexdigest()[:16]}
    return counts, digests


def dumps(counts, digests):
    # one line per QP, so a change in the golden diffs QP by QP
    blocks = [f'  "openblas_core": {json.dumps(openblas_cores())}',
              '  "digests": {\n    '
              + ",\n    ".join(f'"{name}": {json.dumps(d)}'
                              for name, d in digests.items()) + "\n  }"]
    blocks += [f'  "{name}": [\n    '
               + ",\n    ".join(json.dumps(row) for row in rows) + "\n  ]"
               for name, rows in counts.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def test_first_pass_work_matches_the_golden():
    out = run_python(os.path.abspath(__file__))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert got.pop("openblas_core") == want.pop("openblas_core")
    got_digests, want_digests = got.pop("digests"), want.pop("digests")
    assert set(got) == set(want)
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for i, (g, w) in enumerate(zip(got[name], want[name])):
            assert g == w, (f"{name} QP {i}: {dict(zip(FIELDS, g))} != "
                            f"{dict(zip(FIELDS, w))}")
    assert got_digests == want_digests


if __name__ == "__main__":
    sys.stdout.write(dumps(*first_pass()))
