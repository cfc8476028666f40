"""Project a point onto a halfspace, the smallest useful QP.

Builds  min 0.5||x - (2, 0)||^2  s.t.  x1 <= 1  three ways: directly
through solve(), through the file format + CLI pipeline, and against
the enumeration oracle.  All three land on (1, 0).
"""

import json
import tempfile

import numpy as np

from dualqp import PrimalQP, enumerate_solve, solve
from dualqp.cli import main as cli_main
from dualqp.cli import save_problem


def run():
    target = np.array([2.0, 0.0])
    prob = PrimalQP(P=None, q=-target, identity_p=True,
                    C=np.array([[1.0, 0.0]]), d=np.array([1.0]))

    sol, rep = solve(prob)
    print(f"library:  x = {np.round(sol.x, 9)}, "
          f"multiplier = {sol.mu_in[0]:.6f}, "
          f"{rep.outer_iters} outer iterations")

    want = enumerate_solve(prob)
    print(f"oracle:   x = {np.round(want.x, 9)}, "
          f"active rows {list(want.active)}")

    with tempfile.NamedTemporaryFile("w", suffix=".json") as pf, \
            tempfile.NamedTemporaryFile("r", suffix=".json") as rf:
        save_problem(prob, pf.name)
        print("--- CLI on the serialized problem ---")
        code = cli_main(["solve", pf.name, "--report", rf.name])
        report = json.load(open(rf.name))
        print(f"--- exit code {code}, report x = {report['x']} ---")


if __name__ == "__main__":
    run()
