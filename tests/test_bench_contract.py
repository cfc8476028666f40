"""What the benchmark in perfbench/ needs from the program.

perfbench/ hooks solver functions by name, builds SolverConfig objects
by keyword and reads SolveReport fields; a rename in src/ breaks it
without failing any other test.  These checks read perfbench/ and
change nothing there.
"""

import dataclasses
import importlib.util
import os
import re

import numpy as np

from dualqp import (PrimalQP, SolverConfig, SolveReport, build_dual,
                    recover_primal, solve_dual)

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_exists():
    tracing = load("tracing")
    with tracing.Tracer().hooked():  # HookError when a name is missing
        pass


def test_every_workload_constructs():
    # each workload builds its SolverConfig in its constructor, so a
    # config keyword or value it passes that src/ no longer accepts fails
    # here, as SolverConfig checks itself when built;
    # generator calls run only when a QP's inputs are built, so one QP
    # of each workload is built too
    workloads = load("workloads").WORKLOADS
    assert set(workloads) == {"mpc_loop", "polytope_cold", "mpc_cold"}
    for name, cls in workloads.items():
        wl = cls(1, tiny=True)
        assert isinstance(wl.cfg, SolverConfig), name
        PrimalQP(**wl.inputs(wl.next()))


def test_report_has_every_field_the_runner_reads():
    with open(os.path.join(BENCH, "run.py")) as fh:
        read = set(re.findall(r"\brep\.(\w+)", fh.read()))
    assert {"outer_iters", "mu_star", "status"} <= read
    fields = {f.name for f in dataclasses.fields(SolveReport)}
    assert read <= fields, read - fields


def test_every_counted_error_class_exists():
    # run.py counts failed spans by the class name of the exception
    # (refine.unclassified, kernel.downdate_fallbacks); a renamed class,
    # or a raise turned into a return value, would make them read 0
    with open(os.path.join(BENCH, "run.py")) as fh:
        pairs = re.findall(r'name == "([\w.]+)" and err == "(\w+)"',
                           fh.read())
    assert len(pairs) >= 2, pairs
    module_of = {span: module
                 for module, entries in load("tracing").HOOKS.items()
                 for _, span in entries}
    for span, err in pairs:
        cls = getattr(importlib.import_module(module_of[span]), err, None)
        assert isinstance(cls, type) and issubclass(cls, Exception), (
            f"{span} is counted by {err}, which {module_of[span]} lacks")


def test_gate_reads_multipliers_in_row_units():
    # build_dual scales rows of norm near 1e5 down to G_ii = 1; the
    # gate checks rep.mu_star against the unscaled rows, so mu_star
    # must be in their units
    workloads = load("workloads")
    rng = np.random.default_rng(0)
    C = 1e5 * rng.standard_normal((5, 3))
    d = C @ rng.standard_normal(3) + 1e5 * rng.uniform(0.1, 1.0, 5)
    data = {"P": np.eye(3), "q": 10.0 * rng.standard_normal(3),
            "C": C, "d": d}
    primal = PrimalQP(**data)
    dual, pf = build_dual(primal)
    assert np.max(dual.s) < 1e-4
    rep = solve_dual(dual)
    assert np.count_nonzero(rep.mu_star) >= 1
    x = recover_primal(primal, pf, rep.mu_star).x
    tol = min(workloads.MPC_TOL, workloads.POLYTOPE_TOL)
    assert workloads.kkt_violation(data, x, rep.mu_star) <= tol


def test_every_build_constructs_its_dual(monkeypatch):
    # the tracer times transform.DualQP by rebinding that name; a
    # build_dual that reuses P's factor, s and G must still construct
    # the DualQP through it, so the span stays one per QP
    module = "dualqp.transform"
    (name, _), = load("tracing").HOOKS[module]
    original = getattr(importlib.import_module(module), name)
    made = []

    def counting(*args, **kwargs):
        made.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module + "." + name, counting)
    rng = np.random.default_rng(1)
    data = {"P": np.eye(3), "q": rng.standard_normal(3),
            "C": rng.standard_normal((4, 3)), "d": np.ones(4)}
    first = build_dual(PrimalQP(**data))[0]
    second = build_dual(PrimalQP(**data))[0]
    assert second.G is first.G  # the second build reused the first's G
    assert len(made) == 2


def test_p_solves_are_not_counted_as_refinement():
    # the tracer counts kernel.solve_with_factor spans under
    # refine_solve as refinement iterations, so build_dual and
    # recover_primal solve with P's factor through another name
    tracer = load("tracing").Tracer()
    rng = np.random.default_rng(2)
    U = rng.standard_normal((4, 4))
    primal = PrimalQP(P=U @ U.T + np.eye(4), q=rng.standard_normal(4),
                      C=rng.standard_normal((5, 4)), d=np.ones(5))
    with tracer.hooked():
        dual, pf = build_dual(primal)
        recover_primal(primal, pf, np.ones(5))
    names = [tracer.span_name(sid) for sid in range(len(tracer))]
    assert "transform.DualQP" in names  # the hooks were in place
    assert "kernel.solve_with_factor" not in names
