#!/usr/bin/env python3
"""The dualqp benchmark: seeded QP workloads through the public pipeline.

    python3 perfbench/run.py --workload mpc_loop --seed 1 --seconds 20 --trace 0

Every QP goes through `PrimalQP(...)` -> `build_dual` -> `solve_dual` ->
`recover_primal`, one at a time from this single process (a closed loop
with one caller), and every answer is checked on the primal data before
it counts.  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it spends half the time untraced and half traced and prints
the per-layer split.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a table for people
precedes it.  Results, per-QP work counts and spans go to
`perfbench/out/`.  The exit code is non-zero when any QP fails, when
work counts differ from an earlier run of the same sources and seed,
when a traced name is missing from the program, or when the program's
sources are missing.

The program is imported from `src/` next to this directory, never from
an installed copy.  BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1
SETUP_PROBES = 3          # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 120
LAYERS = ("transform", "kernel", "refine", "active_set")
# The four timed calls: (span name, name in the dualqp package).
PIPELINE = (("transform.PrimalQP", "PrimalQP"),
            ("transform.build_dual", "build_dual"),
            ("active_set.solve_dual", "solve_dual"),
            ("transform.recover_primal", "recover_primal"))

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mpc_loop", "polytope_cold", "mpc_cold"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small problem sizes (smoke test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on sys.path and import dualqp."""
    if not os.path.isfile(os.path.join(SRC, "dualqp", "__init__.py")):
        print(f"benchmark: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import dualqp
    if not os.path.abspath(dualqp.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported dualqp from {dualqp.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def source_digest():
    """Hash of the program's sources, so work counts of different code
    are never compared."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def pipeline(tracer=None):
    """The four timed calls, wrapped in spans when tracing."""
    import dualqp
    calls = [(name, getattr(dualqp, attr)) for name, attr in PIPELINE]
    if tracer is None:
        return tuple(fn for _, fn in calls)
    return tuple(tracer.wrap(name, fn) for name, fn in calls)


def report_counts(rep):
    """Work counts the solver's report carries."""
    return {"outer_iters": rep.outer_iters,
            "descent_steps": rep.descent_count,
            "shift_retries": rep.shift_retries,
            "refine_outcomes": rep.refine_calls,
            "refine_outcome_iters": round(rep.refine_iters_mean
                                          * rep.refine_calls)}


def merge_counts(prev, new):
    """Fold `new` into `prev`; True when a count both hold differs."""
    differs = any(prev[k] != new[k] for k in new.keys() & prev.keys())
    prev.update(new)
    return differs


def solve_once(calls, data, wl):
    """One timed pass through the pipeline, then the correctness gate.

    Returns (seconds, report, solution, error message or None).
    """
    from dualqp import SolveStatus
    from workloads import kkt_violation
    make, build, solve, recover = calls
    rep = sol = None
    t0 = time.perf_counter()
    try:
        primal = make(**data)
        dual, pf = build(primal)
        rep = solve(dual, cfg=wl.cfg)
        sol = recover(primal, pf, rep.mu_star)
    except Exception as exc:  # a failed QP must not stop the run
        t = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return t, rep, sol, f"{type(exc).__name__}: {exc}"
    t = time.perf_counter() - t0
    if rep.status is not SolveStatus.OPTIMAL:
        return t, rep, sol, f"status {rep.status.value}: {rep.message}"
    v = kkt_violation(data, sol.x, rep.mu_star)
    if v > wl.tol:
        return t, rep, sol, f"KKT residual {v:.3e} over {wl.tol:.0e}"
    return t, rep, sol, None


def run_phase(wl, seconds, tracer=None):
    """Solve the workload's first `wl.pass_size` QPs in order, then the
    same QPs again, pass after pass, until `seconds` have elapsed.

    Repeated passes spread each QP's samples over the whole phase, so
    its median time is not at the mercy of a few seconds of contention
    on the machine.  Only the first pass feeds answers back to the
    workload (the closed loop); later passes replay its inputs.  Each
    QP's inputs are rebuilt from its key before every solve, outside
    the timed region, so the peak memory is the program's and not the
    benchmark's store of inputs.

    Returns (records, solves): one record per QP with its latencies in
    s, work counts and error, and the QP index of each solve in order.
    Always solves at least one QP.
    """
    calls = pipeline(tracer)
    clock = time.perf_counter
    wl.reset()
    keys, records, solves = [], [], []
    t_end = clock() + seconds
    while any(r["err"] is None for r in records) or not records:
        for i in range(wl.pass_size):
            if i == len(keys):
                keys.append(wl.next())
                records.append({"lat": [], "counts": {}, "err": None})
            rec = records[i]
            if rec["err"] is not None:
                continue
            data = wl.inputs(keys[i])
            if tracer is not None:
                tracer.solve_id = len(solves)
            solves.append(i)
            t, rep, sol, err = solve_once(calls, data, wl)
            del data
            rec["lat"].append(t)
            if rep is not None and merge_counts(rec["counts"],
                                                report_counts(rep)):
                err = err or "work counts differ between passes"
            if err is not None:
                rec["err"] = err
                print(f"benchmark: QP {i} failed: {err}", file=sys.stderr)
            if len(rec["lat"]) == 1:
                wl.feedback(None if err else sol.x)
            del rep, sol
            if clock() >= t_end:
                return records, solves
    return records, solves


def setup_workload(args):
    """Input generation, condensation and one warm-up solve of QP 0."""
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    run_phase(wl, 0.0)
    return wl


def measure_setup(args):
    """Seconds from process start to the first timed QP, in fresh
    processes that import, generate, condense and warm up."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return samples


def span_counts(tracer, n_solves):
    """Per-solve work counts read off the spans."""
    counts = [dict.fromkeys(("pins", "unpins", "factorize", "refine_calls",
                             "refine_iters", "unclassified",
                             "downdate_fallbacks"), 0)
              for _ in range(n_solves)]
    key = {"kernel.add_index": "pins", "kernel.remove_index": "unpins",
           "kernel.factorize": "factorize",
           "refine.refine_solve": "refine_calls"}
    for sid in range(len(tracer)):
        c = counts[tracer.solve[sid]]
        name = tracer.span_name(sid)
        if name in key:
            c[key[name]] += 1
        par = tracer.parent[sid]
        if (name == "kernel.solve_with_factor" and par >= 0
                and tracer.span_name(par) == "refine.refine_solve"):
            c["refine_iters"] += 1
        err = tracer.error[sid]
        if name == "refine.refine_solve" and err == "RefinementError":
            c["unclassified"] += 1
        if name == "kernel.remove_index" and err == "CholeskyDowndateError":
            c["downdate_fallbacks"] += 1
    return counts


def layer_metrics(tracer, records, solves, base_records):
    """Per-solve layer metrics from the traced phase.

    Span counts are folded into `records`; returns (metrics, QPs whose
    span counts differ between passes).
    """
    from tracing import HOOKS
    n = len(solves)
    dur = tracer.durations()
    own = tracer.self_times()
    incl, calls = {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for sid in range(len(tracer)):
        name = tracer.span_name(sid)
        incl[name] = incl.get(name, 0.0) + dur[sid]
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".")[0]] += own[sid]
    drift = set()
    for sid, c in enumerate(span_counts(tracer, n)):
        if merge_counts(records[solves[sid]]["counts"], c):
            drift.add(solves[sid])
    total = {}
    for i in solves:
        for k, c in records[i]["counts"].items():
            total[k] = total.get(k, 0) + c

    v = {}
    for name in [name for name, _ in PIPELINE] + [
            span for hooks in HOOKS.values() for _, span in hooks]:
        v[f"{name}.ms"] = 1e3 * incl.get(name, 0.0) / n
        v[f"{name}.calls"] = calls.get(name, 0) / n
    for layer, t in layer_self.items():
        v[f"{layer}.self_ms"] = 1e3 * t / n
    v["kernel.downdate_fallbacks"] = total.get("downdate_fallbacks", 0) / n
    v["refine.iters"] = total.get("refine_iters", 0) / n
    v["refine.unclassified"] = total.get("unclassified", 0) / n
    attempts = total.get("refine_calls", 0)
    v["refine.classified_ratio"] = (
        (attempts - total.get("unclassified", 0)) / attempts
        if attempts else 1.0)
    v["refine.shift_retries"] = total.get("shift_retries", 0) / n
    v["refine.descent_steps"] = total.get("descent_steps", 0) / n
    v["active_set.outer_iters"] = total.get("outer_iters", 0) / n
    # Overhead on the QPs both phases solved: ratio of median times.
    both = [(statistics.median(a["lat"]), statistics.median(b["lat"]))
            for a, b in zip(base_records, records)
            if a["lat"] and b["lat"] and a["err"] is None
            and b["err"] is None]
    v["trace.overhead_ratio"] = (sum(a for a, _ in both)
                                 / sum(b for _, b in both))
    v["trace.coverage"] = (sum(layer_self.values())
                           / sum(sum(r["lat"]) for r in records))
    v["trace.solves"] = float(n)
    return v, drift


def end_to_end(records, setup_samples):
    """End-to-end metrics; latencies take each QP's median over passes."""
    import numpy as np
    good = [r["lat"] for r in records if r["err"] is None]
    # With no passing QP the run is rejected anyway; fall back to all
    # QPs so that every value stays a finite number.
    typical = [float(np.median(lat))
               for lat in good or [r["lat"] for r in records]]
    return {
        "qp_per_s": (sum(len(lat) for lat in good)
                     / sum(sum(r["lat"]) for r in records)),
        "latency_ms_p50": 1e3 * float(np.median(typical)),
        "latency_ms_p90": 1e3 * float(np.percentile(typical, 90)),
        "setup_s": float(np.median(setup_samples)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_table(title, values):
    print(title)
    for name, val in values.items():
        print(f"  {name:<34} {val['value']:>14.6g} {val['unit']}")


def main(argv=None):
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_workload(args)
        print("ready", flush=True)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    setup_samples = [] if args.trace else measure_setup(args)
    wl = setup_workload(args)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    records, _ = run_phase(wl, args.seconds / (1 + args.trace))
    phases = [records]
    drift = set()
    if args.trace:
        from tracing import HookError, Tracer
        tracer = Tracer()
        try:
            with tracer.hooked():
                t_records, solves = run_phase(wl, args.seconds / 2, tracer)
        except HookError as err:
            print(f"benchmark: {err}", file=sys.stderr)
            return 2
        values, drift = layer_metrics(tracer, t_records, solves, records)
        phases.append(t_records)
        defs = spec["per_layer"]
    else:
        values = end_to_end(records, setup_samples)
        defs = spec["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in defs}

    # Work counts per QP index, checked against the other phase of this
    # run and against every earlier run of this workload and seed on the
    # same program sources.  Different sources get a store of their own,
    # since a change to the program may change its work legitimately.
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    digest = source_digest()
    os.makedirs(OUT, exist_ok=True)
    store_path = os.path.join(OUT, f"counts-{tag}-src{digest}.json")
    store = {}
    if os.path.exists(store_path):
        with open(store_path) as fh:
            store = json.load(fh)
    for recs in phases:
        for i, r in enumerate(recs):
            if merge_counts(store.setdefault(str(i), {}), r["counts"]):
                drift.add(i)
    with open(store_path, "w") as fh:
        json.dump(store, fh, sort_keys=True)
    for i in sorted(drift):
        print(f"benchmark: QP {i} work counts differ from another solve "
              f"with seed {args.seed}", file=sys.stderr)
    qp_set = [store[str(i)] for i in range(wl.pass_size) if str(i) in store]
    work = {k: sum(c.get(k, 0) for c in qp_set)
            for k in sorted({k for c in qp_set for k in c})}

    solves = sum(len(r["lat"]) for recs in phases for r in recs)
    failed = sum(r["err"] is not None for recs in phases for r in recs)
    print(f"work counts, QPs 0..{len(qp_set) - 1} of seed {args.seed}, "
          f"sources {digest}: " + json.dumps(work, sort_keys=True))
    print_table(f"{args.workload}, seed {args.seed}: {len(records)} QPs, "
                f"{solves} solves, {len(setup_samples)} setup samples",
                metrics)

    correct = not failed and not drift
    result = {"correct": correct, "attempted": solves, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump({"args": vars(args), "environment": env,
                   "source_digest": digest,
                   "setup_samples_s": setup_samples, "work_counts": work,
                   "qps": phases, "result": result}, fh, sort_keys=True)
    if args.trace:
        tracer.write_csv(os.path.join(OUT, f"{tag}-spans.csv"))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
