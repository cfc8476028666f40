"""Command-line front end.

Three commands:

* ``dualqp solve problem.json``: load a serialized QP, solve it, print
  a short summary, optionally write a structured report.
* ``dualqp bench mpc``: the receding-horizon flight-control benchmark,
  solved warm (smartstart) and cold.
* ``dualqp bench polytope``: projection onto random half-space
  constraints at configurable scale, with and without primal recovery.

Problem files are JSON: ``schema_version`` (currently "1"), the cost
``P`` (row-major nested arrays; may be omitted when ``identity_P`` is
true) and ``q``, optional equality pair ``A``/``b``, optional
inequality pair ``C``/``d``.  Reports are JSON with solver status,
iterate statistics, wall-clock timings, and KKT residuals.

Exit codes: 0 optimal, 2 parse error, 3 numerical failure or an
infeasible primal, 4 iteration limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .active_set import SolverConfig, SolveStatus, UnboundedDualError, solve_dual
from .generators import PolytopeSpec, afti16_spec, build_mpc, build_polytope
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


def _as_vector(obj, field, length=None):
    if not isinstance(obj, list):
        raise ProblemFormatError("expected an array of numbers", field)
    for j, v in enumerate(obj):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ProblemFormatError(f"entry {j} is not a number", field)
    if length is not None and len(obj) != length:
        raise ProblemFormatError(
            f"expected {length} entries, got {len(obj)}", field)
    return np.array([float(v) for v in obj], dtype=float)


def _as_matrix(obj, field, cols=None):
    if not isinstance(obj, list):
        raise ProblemFormatError("expected a nested array", field)
    data = []
    width = cols
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ProblemFormatError("expected an array of numbers",
                                     field, row=i)
        if width is None:
            width = len(row)
        if len(row) != width:
            raise ProblemFormatError(
                f"has {len(row)} entries, expected {width}", field, row=i)
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ProblemFormatError(f"entry {j} is not a number",
                                         field, row=i)
        data.append([float(v) for v in row])
    if width is None:
        width = 0
    return np.array(data, dtype=float).reshape(len(data), width)


def load_problem(path):
    """Parse a problem file into a PrimalQP.

    Structural problems (bad JSON, wrong types, inconsistent
    dimensions) raise ProblemFormatError with the offending field and
    row; numerical validity (P positive definite) is checked later,
    during the solve.
    """
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except OSError as err:
        raise ProblemFormatError(str(err))
    except json.JSONDecodeError as err:
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
    except (InvalidProblemError, ValueError) as err:
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
        json.dump(doc, fp)
        fp.write("\n")


def _refine_stats(rep):
    return {"min": rep.refine_iters_min, "max": rep.refine_iters_max,
            "mean": rep.refine_iters_mean}


def _write_report(path, doc):
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")


def _solver_config(args):
    cfg = SolverConfig(smartstart=args.smartstart == "on")
    if getattr(args, "epsilon", None) is not None:
        cfg.refine.epsilon = args.epsilon
    if getattr(args, "max_iters", None) is not None:
        cfg.max_outer_iters = args.max_iters
    try:
        cfg.validate()
    except ValueError as err:
        raise ProblemFormatError(str(err))
    return cfg


def _run_once(primal, cfg, dual_only):
    """One timed pipeline pass: build, solve, optionally recover.

    Returns (report dict, exit code).
    """
    t0 = time.perf_counter()
    try:
        dual, pf = build_dual(primal)
    except InvalidProblemError as err:
        return {"status": "numerical_failure", "message": str(err)}, \
            EXIT_NUMERICAL
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        rep = solve_dual(dual, cfg=cfg)
    except UnboundedDualError as err:
        doc = {"status": "primal_infeasible", "message": str(err),
               "timings": {"build_dual": t_build, "solve_dual": None,
                           "recover_primal": None}}
        return doc, EXIT_NUMERICAL
    t_solve = time.perf_counter() - t0

    doc = {
        "status": rep.status.value,
        "objective": None,
        "x": None,
        "mu_eq": rep.mu_star[:primal.m_eq].tolist(),
        "mu_in": rep.mu_star[primal.m_eq:].tolist(),
        "outer_iters": rep.outer_iters,
        "refine_iter_stats": _refine_stats(rep),
        "descent_steps": rep.descent_count,
        "shift_retries": rep.shift_retries,
        "dual_objective": rep.objective,
        "timings": {"build_dual": t_build, "solve_dual": t_solve,
                    "recover_primal": None},
        "kkt_residuals": {
            "stationarity": rep.stationarity_residual,
            "primal_feasibility": 0.0,
            "complementarity": rep.complementarity_residual,
        },
    }
    if rep.message:
        doc["message"] = rep.message

    if not dual_only:
        t0 = time.perf_counter()
        sol = recover_primal(primal, pf, rep.mu_star)
        doc["timings"]["recover_primal"] = time.perf_counter() - t0
        doc["objective"] = float(primal.objective(sol.x))
        doc["x"] = sol.x.tolist()
        doc["kkt_residuals"] = {
            "stationarity": sol.stationarity_residual,
            "primal_feasibility": max(sol.eq_violation, sol.ineq_violation),
            "complementarity": sol.complementarity_residual,
        }
    else:
        doc["objective"] = rep.objective

    return doc, _STATUS_EXIT[rep.status]


def cmd_solve(args):
    primal = load_problem(args.problem)
    cfg = _solver_config(args)
    doc, code = _run_once(primal, cfg, args.dual_only)

    print(f"status         {doc['status']}")
    if doc.get("objective") is not None:
        print(f"objective      {doc['objective']:.12e}")
    if "outer_iters" in doc:
        st = doc["refine_iter_stats"]
        print(f"outer iters    {doc['outer_iters']}"
              f"  (refine {st['min']}-{st['max']}, mean {st['mean']:.1f})")
        kkt = doc["kkt_residuals"]
        print(f"kkt residuals  stationarity {kkt['stationarity']:.2e}"
              f"  feasibility {kkt['primal_feasibility']:.2e}"
              f"  complementarity {kkt['complementarity']:.2e}")
        t = doc["timings"]
        parts = [f"build {1e3 * t['build_dual']:.1f} ms",
                 f"solve {1e3 * t['solve_dual']:.1f} ms"]
        if t["recover_primal"] is not None:
            parts.append(f"recover {1e3 * t['recover_primal']:.1f} ms")
        print(f"time           {'  '.join(parts)}")
    if "message" in doc:
        print(f"message        {doc['message']}")
    if args.report:
        _write_report(args.report, doc)
    return code


def _median_timings(docs):
    keys = ("build_dual", "solve_dual", "recover_primal")
    out = {}
    for key in keys:
        vals = [d["timings"][key] for d in docs
                if d.get("timings", {}).get(key) is not None]
        out[key] = statistics.median(vals) if vals else None
    return out


def _bench_rows(primal, configs, repeat, dual_only=False):
    """Run each named config `repeat` times; median the timings."""
    rows = []
    code = EXIT_OPTIMAL
    for name, cfg in configs:
        docs = []
        for _ in range(repeat):
            doc, c = _run_once(primal, cfg, dual_only)
            docs.append(doc)
            code = max(code, c)
        doc = docs[-1]
        doc["configuration"] = name
        doc["timings"] = _median_timings(docs)
        rows.append(doc)
    return rows, code


def _print_bench_table(rows):
    print(f"{'configuration':<18} {'status':<18} {'outer':>6} "
          f"{'refine':>9} {'descent':>8} {'build':>9} {'solve':>9} "
          f"{'recover':>9} {'kkt':>9}")
    for doc in rows:
        st = doc.get("refine_iter_stats", {})
        refine = (f"{st['min']}-{st['max']}" if st else "-")
        t = doc.get("timings", {})

        def ms(key):
            v = t.get(key)
            return f"{1e3 * v:.1f} ms" if v is not None else "-"

        kkt = doc.get("kkt_residuals")
        kcol = f"{max(kkt.values()):.1e}" if kkt else "-"
        print(f"{doc.get('configuration', '?'):<18} "
              f"{doc.get('status', '?'):<18} "
              f"{doc.get('outer_iters', '-'):>6} {refine:>9} "
              f"{doc.get('descent_steps', '-'):>8} {ms('build_dual'):>9} "
              f"{ms('solve_dual'):>9} {ms('recover_primal'):>9} "
              f"{kcol:>9}")


def cmd_bench_mpc(args):
    x0 = None
    if args.x0 is not None:
        try:
            x0 = [float(v) for v in args.x0.split(",")]
        except ValueError:
            raise ProblemFormatError("--x0 expects comma-separated numbers")
    try:
        spec = afti16_spec(horizon=args.horizon, x0=x0)
    except ValueError as err:
        raise ProblemFormatError(str(err))
    try:
        primal = build_mpc(spec)
    except InvalidProblemError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    configs = [("smartstart", SolverConfig(smartstart=True)),
               ("cold", SolverConfig(smartstart=False))]
    rows, code = _bench_rows(primal, configs, args.repeat)
    print(f"mpc benchmark: horizon {args.horizon}, "
          f"{primal.n} inputs, {primal.m_in} state bounds")
    _print_bench_table(rows)
    if args.report:
        _write_report(args.report, rows)
    return code


def cmd_bench_polytope(args):
    try:
        spec = PolytopeSpec(n=args.n, m=args.m, seed=args.seed)
    except ValueError as err:
        raise ProblemFormatError(str(err))
    primal = build_polytope(spec)
    configs = [("smartstart", SolverConfig(smartstart=True)),
               ("cold", SolverConfig(smartstart=False))]
    rows, code = _bench_rows(primal, configs, args.repeat)
    dual_rows, dual_code = _bench_rows(
        primal, [(f"{name} (dual)", cfg) for name, cfg in configs],
        args.repeat, dual_only=True)
    code = max(code, dual_code)
    rows += dual_rows
    print(f"polytope benchmark: n={args.n}, m={args.m}, seed={args.seed}")
    _print_bench_table(rows)
    if args.report:
        _write_report(args.report, rows)
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualqp",
        description="Dense convex QP solver (dual active set with "
                    "iteratively refined subproblems).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--smartstart", choices=("on", "off"), default="on",
                       help="seed the working set from the dual gradient "
                            "(default on)")
        p.add_argument("--report", metavar="PATH",
                       help="write a JSON report here")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    common(p_solve)
    p_solve.add_argument("--epsilon", type=float, metavar="EPS",
                         help="proximal shift for the refinement solves")
    p_solve.add_argument("--max-iters", type=int, metavar="N",
                         help="outer iteration cap")
    p_solve.add_argument("--dual-only", action="store_true",
                         help="skip primal recovery; objective and "
                              "residuals then refer to the dual")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark family")
    bench_sub = p_bench.add_subparsers(dest="benchmark", required=True)

    p_mpc = bench_sub.add_parser("mpc", help="receding-horizon benchmark")
    p_mpc.add_argument("--horizon", type=int, default=30)
    p_mpc.add_argument("--x0", metavar="V,V,V,V",
                       help="initial state (comma separated)")
    p_mpc.add_argument("--repeat", type=int, default=1,
                       help="timing repetitions (median reported)")
    common(p_mpc)
    p_mpc.set_defaults(func=cmd_bench_mpc)

    p_poly = bench_sub.add_parser("polytope", help="projection benchmark")
    p_poly.add_argument("--n", type=int, default=1000)
    p_poly.add_argument("--m", type=int, default=50)
    p_poly.add_argument("--seed", type=int, default=1)
    p_poly.add_argument("--repeat", type=int, default=1,
                        help="timing repetitions (median reported)")
    common(p_poly)
    p_poly.set_defaults(func=cmd_bench_polytope)

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
