"""Same outcomes: each correctness family ends as recorded.

Solves five seeded families from both starts and compares the count
of each outcome with tests/families.json:
- LR, seeds 0-299: wide_row_scales_qp, rows of norm 1 to 1e6;
- AT, seeds 0-399: all_rows_tight_qp, cond(P) = 1e9, all 7 rows tight
  at one point;
- AF, seeds 0-149: far-off AFTI-16 starts, horizon 2 + (s mod 7) and
  x0 = default_rng([s, 5]).normal(0, 3, 4); most have no feasible point;
- RQ, seeds 0-299: random_qp with up to 2 equality rows, every other
  seed with duplicated inequality rows;
- DC, seeds 0-199: cond(P) from 1e6 to 1e10, every third row of C and
  its gap a copy of the row before, about 30% of the rows tight.
LR and AT are the generators of tests/test_active_set.py.

An OPTIMAL solve is correct when its normalized row violation over
both blocks (row_violation) is at most 1e-6 (1 + ||x||), and violating
otherwise; every other solve counts under its status value.  salvaged
counts the solves with at least one salvaged step.  The golden records
the counts as they stand, violating answers included, and the OpenBLAS
cores they were recorded on, which the test compares like the counts.
The sweep runs in a child Python that child_python.run_python pins to
one BLAS thread and to OpenBLAS's Haswell kernels, because the thread
count and the kernel each change the bits of the result and, on a few
seeds, the outcome.

Run as a script, it writes the counts to stdout and, per family, the
largest ||mu*||_inf at OPTIMAL and each seed that ends violating or
numerical_failure to stderr, as 39c (cold start), 39w (warm) or 39w/c
(both); that stderr output is not pinned.  A change meant to move an
outcome records a new golden with

    OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell PYTHONPATH=src \\
        python tests/test_families.py > tests/families.json
"""

import json
import os
import sys

import numpy as np
import pytest

from child_python import ROOT, openblas_cores, run_python
from dualqp import (PrimalQP, SolverConfig, SolveStatus, afti16_spec,
                    build_dual, build_mpc, random_qp, recover_primal,
                    solve_dual)
from test_active_set import (all_rows_tight_qp, row_violation,
                             wide_row_scales_qp)

GOLDEN = os.path.join(ROOT, "tests", "families.json")


def af_qp(seed):
    x0 = np.random.default_rng([seed, 5]).normal(0.0, 3.0, 4)
    return build_mpc(afti16_spec(horizon=2 + seed % 7, x0=x0))


def rq_qp(seed):
    rng = np.random.default_rng([seed, 16])
    n, m_eq, m_in = (int(rng.integers(1, 9)), int(rng.integers(0, 3)),
                     int(rng.integers(2, 7)))
    return random_qp(int(rng.integers(1 << 30)), n, m_eq, m_in,
                     make_degenerate=seed % 2 == 1)


def dc_qp(seed):
    rng = np.random.default_rng([seed, 10])
    n = int(rng.integers(2, 7))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    P = Q @ np.diag(np.logspace(0, rng.uniform(6, 10), n)) @ Q.T
    m = int(rng.integers(n, 2 * n + 3))
    C = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    gaps = rng.uniform(0, 1, m)
    gaps[rng.random(m) < 0.3] = 0.0
    for k in range(1, m, 3):
        C[k], gaps[k] = C[k - 1], gaps[k - 1]
    return PrimalQP(P=0.5 * (P + P.T), q=rng.standard_normal(n), C=C,
                    d=C @ x + gaps)


# name: (problem of a seed, number of seeds)
FAMILIES = {"LR": (wide_row_scales_qp, 300), "AT": (all_rows_tight_qp, 400),
            "AF": (af_qp, 150), "RQ": (rq_qp, 300), "DC": (dc_qp, 200)}


def outcome_counts():
    """({family: {outcome: count}}, {family: largest ||mu*||_inf at
    OPTIMAL}, {family: {outcome: {seed: starts}}}) where the last names
    the starts, "w" and "c", of each seed that ends violating or
    numerical_failure."""
    counts, mu_max, failed = {}, {}, {}
    for name, (make, seeds) in FAMILIES.items():
        tally = counts[name] = {"salvaged": 0}
        mu_max[name] = 0.0
        failed[name] = {}
        for seed in range(seeds):
            primal = make(seed)
            dual, pf = build_dual(primal)
            for warm in (True, False):
                rep = solve_dual(dual, cfg=SolverConfig(smartstart=warm))
                outcome = rep.status.value
                if rep.status is SolveStatus.OPTIMAL:
                    x = recover_primal(primal, pf, rep.mu_star).x
                    outcome = ("correct" if row_violation(primal, x)
                               <= 1e-6 * (1 + np.linalg.norm(x))
                               else "violating")
                    mu_max[name] = max(mu_max[name],
                                       float(np.max(np.abs(rep.mu_star))))
                tally[outcome] = tally.get(outcome, 0) + 1
                tally["salvaged"] += rep.salvaged_steps > 0
                if outcome in ("violating", "numerical_failure"):
                    failed[name].setdefault(outcome, {}).setdefault(
                        seed, []).append("w" if warm else "c")
    return counts, mu_max, failed


def dumps(counts):
    # one line per family, outcomes in name order
    lines = [f'  "openblas_core": {json.dumps(openblas_cores())}']
    lines += [f'  "{name}": {json.dumps(tally, sort_keys=True)}'
              for name, tally in counts.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def swept():
    out = run_python(os.path.abspath(__file__))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("field", ["openblas_core", *FAMILIES])
def test_family_outcomes_match_the_golden(swept, field):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert swept[field] == want[field]


if __name__ == "__main__":
    counts, mu_max, failed = outcome_counts()
    sys.stdout.write(dumps(counts))
    for name, value in mu_max.items():
        line = f"{name}: largest ||mu*||_inf at OPTIMAL {value:.3g}"
        for outcome, seeds in sorted(failed[name].items()):
            line += f"; {outcome} " + " ".join(
                f"{seed}{'/'.join(starts)}" for seed, starts in seeds.items())
        print(line, file=sys.stderr)
