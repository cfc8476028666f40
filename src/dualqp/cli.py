"""Command-line front end.

``dualqp solve problem.json`` loads a serialized QP, solves it, prints
a short summary and optionally writes a structured report.  Measured
benchmark runs live in ``perfbench/``; the scripts in ``demos/`` walk
through the warm-vs-cold and scale comparisons.

Problem files are JSON: ``schema_version`` (currently "1"), the cost
``P`` (row-major nested arrays; may be omitted when ``identity_P`` is
true) and ``q``, optional equality pair ``A``/``b``, optional
inequality pair ``C``/``d``.  Reports are JSON with one set of keys
for every outcome: solver status, iterate statistics, wall-clock
timings, KKT residuals, and the Farkas certificate of an infeasible
primal.

Exit codes: 0 optimal, 2 parse or usage error (a bad problem file or
flag, or a report path that cannot be written, found before the
solve), 3 numerical failure or an infeasible primal, 4 iteration limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

import numpy as np

from .active_set import SolverConfig, SolveStatus, solve_dual
from .transform import InvalidProblemError, PrimalQP, build_dual, recover_primal

EXIT_OPTIMAL = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_ITERATIONS = 4

SCHEMA_VERSION = "1"

_STATUS_EXIT = {
    SolveStatus.OPTIMAL: EXIT_OPTIMAL,
    SolveStatus.ITERATION_LIMIT: EXIT_ITERATIONS,
    SolveStatus.NUMERICAL_FAILURE: EXIT_NUMERICAL,
    SolveStatus.PRIMAL_INFEASIBLE: EXIT_NUMERICAL,
}


class ProblemFormatError(ValueError):
    """Problem file rejected; `field` and `row` locate the offense."""

    def __init__(self, message, field=None, row=None):
        self.field = field
        self.row = row
        where = ""
        if field is not None:
            where = f"field '{field}'"
            if row is not None:
                where += f", row {row}"
            where += ": "
        super().__init__(where + message)


def _as_vector(obj, field, length=None, row=None):
    if not isinstance(obj, list):
        raise ProblemFormatError("expected an array of numbers", field, row)
    values = []
    for j, v in enumerate(obj):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProblemFormatError(f"entry {j} is not a number", field, row)
        try:
            values.append(float(v))
        except OverflowError:  # an integer literal beyond the float range
            raise ProblemFormatError(
                f"entry {j} is too large for a float", field, row)
    if length is not None and len(obj) != length:
        raise ProblemFormatError(
            f"expected {length} entries, got {len(obj)}", field, row)
    return np.array(values, dtype=float)


def _as_matrix(obj, field, cols):
    if not isinstance(obj, list):
        raise ProblemFormatError("expected a nested array", field)
    rows = [_as_vector(r, field, cols, row=i) for i, r in enumerate(obj)]
    return np.array(rows, dtype=float).reshape(len(rows), cols)


def load_problem(path):
    """Parse a problem file into a PrimalQP.

    Structural problems (bad JSON or bytes that are not UTF-8, wrong
    types, numbers beyond the float range, inconsistent dimensions)
    raise ProblemFormatError with the offending field and row where
    there is one; numerical validity (P positive definite) is checked
    later, during the solve.
    """
    try:
        with open(path, encoding="utf-8") as fp:  # as JSON requires
            doc = json.load(fp)
    except OSError as err:
        raise ProblemFormatError(str(err))
    # ValueError: JSONDecodeError, bytes not UTF-8, an integer of over
    # 4300 digits; RecursionError: arrays nested too deeply
    except (ValueError, RecursionError) as err:
        raise ProblemFormatError(f"invalid JSON: {err}")
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level must be an object")

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProblemFormatError(
            f"unrecognized value {version!r} (expected '{SCHEMA_VERSION}')",
            "schema_version")

    identity_p = doc.get("identity_P", False)
    if not isinstance(identity_p, bool):
        raise ProblemFormatError("expected true or false", "identity_P")

    if "q" not in doc:
        raise ProblemFormatError("required", "q")
    q = _as_vector(doc["q"], "q")
    n = q.size

    P = None
    if "P" in doc:
        P = _as_matrix(doc["P"], "P", cols=n)
        if P.shape != (n, n):
            raise ProblemFormatError(
                f"expected shape ({n}, {n}), got {P.shape}", "P")
    elif not identity_p:
        raise ProblemFormatError("required unless identity_P is true", "P")

    def pair(mat_field, vec_field):
        has_mat, has_vec = mat_field in doc, vec_field in doc
        if has_mat != has_vec:
            missing = vec_field if has_mat else mat_field
            raise ProblemFormatError(
                f"must appear together with '{mat_field if has_mat else vec_field}'",
                missing)
        if not has_mat:
            return None, None
        mat = _as_matrix(doc[mat_field], mat_field, cols=n)
        vec = _as_vector(doc[vec_field], vec_field, length=mat.shape[0])
        return mat, vec

    A, b = pair("A", "b")
    C, d = pair("C", "d")

    try:
        return PrimalQP(P=P, q=q, A=A, b=b, C=C, d=d, identity_p=identity_p)
    except ValueError as err:  # InvalidProblemError included
        raise ProblemFormatError(str(err))


def save_problem(primal, path):
    """Serialize a PrimalQP to the problem file format (round-trips)."""
    doc = {"schema_version": SCHEMA_VERSION}
    if primal.identity_p:
        doc["identity_P"] = True
    else:
        doc["P"] = primal.P.tolist()
    doc["q"] = primal.q.tolist()
    if primal.m_eq:
        doc["A"] = primal.A.tolist()
        doc["b"] = primal.b.tolist()
    if primal.m_in:
        doc["C"] = primal.C.tolist()
        doc["d"] = primal.d.tolist()
    with open(path, "w") as fp:
        _dump_json(fp, doc)


def _dump_json(fp, doc, indent=None):
    json.dump(doc, fp, indent=indent)
    fp.write("\n")


_REPORT_KEYS = ("status", "objective", "x", "mu_eq", "mu_in", "outer_iters",
                "refine_iter_stats", "descent_steps", "salvaged_steps",
                "shift_retries", "dual_objective", "timings",
                "kkt_residuals", "message", "ray")
_STAGES = ("build_dual", "solve_dual", "recover_primal")
_KKT_KEYS = ("stationarity", "primal_feasibility", "complementarity")


def _run_once(primal, cfg):
    """One timed pipeline pass: build, solve, recover.

    Returns (report dict, exit code).  The only code that maps
    SolveReport and PrimalSolution fields to report keys: every outcome
    gets the same keys, None where a stage did not run.  Only data that
    build_dual refuses stops the pass early: every solve, an infeasible
    one included, returns a report and is recovered, and its KKT
    residuals are the primal ones.  ray is the report's Farkas
    certificate, in row units, or None.
    """
    doc = dict.fromkeys(_REPORT_KEYS)
    timings = doc["timings"] = dict.fromkeys(_STAGES)
    doc["kkt_residuals"] = dict.fromkeys(_KKT_KEYS)

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[stage] = time.perf_counter() - t0
        return out

    try:
        dual, pf = timed("build_dual", build_dual, primal)
    except InvalidProblemError as err:  # P not PD, overflow
        doc.update(status="numerical_failure", message=str(err))
        return doc, EXIT_NUMERICAL

    rep = timed("solve_dual", solve_dual, dual, cfg=cfg)
    sol = timed("recover_primal", recover_primal, primal, pf, rep.mu_star)
    doc.update(
        status=rep.status.value,
        message=rep.message,
        objective=float(primal.objective(sol.x)),
        x=sol.x.tolist(),
        mu_eq=sol.mu_eq.tolist(),
        mu_in=sol.mu_in.tolist(),
        outer_iters=rep.outer_iters,
        refine_iter_stats={"min": rep.refine_iters_min,
                           "max": rep.refine_iters_max,
                           "mean": rep.refine_iters_mean},
        descent_steps=rep.descent_count,
        salvaged_steps=rep.salvaged_steps,
        shift_retries=rep.shift_retries,
        dual_objective=rep.objective,
        kkt_residuals=dict(zip(_KKT_KEYS, (
            sol.stationarity_residual,
            max(sol.eq_violation, sol.ineq_violation),
            sol.complementarity_residual))),
        ray=None if rep.ray is None else rep.ray.tolist())
    return doc, _STATUS_EXIT[rep.status]


def cmd_solve(args):
    primal = load_problem(args.problem)
    try:
        cfg = SolverConfig(max_outer_iters=args.max_iters,
                           smartstart=args.smartstart == "on")
    except ValueError as err:
        raise ProblemFormatError(str(err))
    try:
        # opened before the solve: a path that cannot be written is a
        # usage error, not a crash after the work is done
        report = open(args.report, "w") if args.report else nullcontext()
    except OSError as err:
        raise ProblemFormatError(f"cannot write the report: {err}")
    with report:
        doc, code = _run_once(primal, cfg)
        print(f"status         {doc['status']}")
        if doc["outer_iters"] is not None:
            print(f"objective      {doc['objective']:.12e}")
            st = doc["refine_iter_stats"]
            print(f"outer iters    {doc['outer_iters']}"
                  f"  (refine {st['min']}-{st['max']}, mean {st['mean']:.1f})")
            kkt = doc["kkt_residuals"]
            print(f"kkt residuals  stationarity {kkt['stationarity']:.2e}"
                  f"  feasibility {kkt['primal_feasibility']:.2e}"
                  f"  complementarity {kkt['complementarity']:.2e}")
            t = doc["timings"]
            parts = [f"{label} {1e3 * t[key]:.1f} ms" for label, key in
                     zip(("build", "solve", "recover"), _STAGES)]
            print(f"time           {'  '.join(parts)}")
        if doc["message"]:
            print(f"message        {doc['message']}")
        if args.report:
            _dump_json(report, doc, indent=2)
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualqp",
        description="Dense convex QP solver (dual active set with "
                    "iteratively refined subproblems).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    p_solve.add_argument("--smartstart", choices=("on", "off"), default="on",
                         help="seed the working set from the dual gradient "
                              "(default on)")
    p_solve.add_argument("--report", metavar="PATH",
                         help="write a JSON report here")
    p_solve.add_argument("--max-iters", type=int, metavar="N",
                         help="outer iteration cap")
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
