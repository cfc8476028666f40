"""Same outcomes: each correctness family ends as recorded.

Solves three seeded families from both starts and compares the count
of each outcome with tests/families.json:
- LR, seeds 0-299: wide_row_scales_qp, rows of norm 1 to 1e6;
- AT, seeds 0-399: all_rows_tight_qp, cond(P) = 1e9, all 7 rows tight
  at one point;
- AF, seeds 0-149: far-off AFTI-16 starts, horizon 2 + (s mod 7) and
  x0 = default_rng([s, 5]).normal(0, 3, 4); most have no feasible point.
LR and AT are the generators of tests/test_active_set.py.

An OPTIMAL solve is correct when its normalized row violation
(row_violation) is at most 1e-6 (1 + ||x||), and violating otherwise;
every other solve counts under its status value.  salvaged counts the
solves with at least one salvaged step.  The golden records the
counts as they stand, violating answers included.  The sweep runs in
a fresh process with BLAS pinned to one thread, because the BLAS
thread count changes the bits of the result and, on a few AT seeds,
the outcome.

Run as a script, it writes the counts to stdout and the largest
||mu*||_inf at OPTIMAL per family to stderr; that largest value is not
pinned.  A change meant to move an outcome records a new golden with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_families.py \\
        > tests/families.json
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dualqp import (SolverConfig, SolveStatus, afti16_spec, build_dual,
                    build_mpc, recover_primal, solve_dual)
from test_active_set import (all_rows_tight_qp, row_violation,
                             wide_row_scales_qp)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "families.json")


def af_qp(seed):
    x0 = np.random.default_rng([seed, 5]).normal(0.0, 3.0, 4)
    return build_mpc(afti16_spec(horizon=2 + seed % 7, x0=x0))


# name: (problem of a seed, number of seeds)
FAMILIES = {"LR": (wide_row_scales_qp, 300), "AT": (all_rows_tight_qp, 400),
            "AF": (af_qp, 150)}


def outcome_counts():
    """({family: {outcome: count}}, {family: largest ||mu*||_inf at
    OPTIMAL})."""
    counts, mu_max = {}, {}
    for name, (make, seeds) in FAMILIES.items():
        tally = counts[name] = {"salvaged": 0}
        mu_max[name] = 0.0
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
    return counts, mu_max


def dumps(counts):
    # one line per family, outcomes in name order
    return "{\n" + ",\n".join(
        f'  "{name}": {json.dumps(tally, sort_keys=True)}'
        for name, tally in counts.items()) + "\n}\n"


@pytest.fixture(scope="module")
def swept():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_outcomes_match_the_golden(swept, family):
    with open(GOLDEN) as fh:
        want = json.load(fh)
    assert swept[family] == want[family]


if __name__ == "__main__":
    counts, mu_max = outcome_counts()
    sys.stdout.write(dumps(counts))
    for name, value in mu_max.items():
        print(f"{name}: largest ||mu*||_inf at OPTIMAL {value:.3g}",
              file=sys.stderr)
