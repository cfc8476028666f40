import importlib
import inspect
import json
import pathlib
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dualqp.active_set as active_set
from child_python import run_python
from dualqp import PrimalQP, cli
from dualqp.cli import ProblemFormatError, load_problem, main, save_problem
from dualqp.kernel import CholeskyDowndateError
from dualqp.refine import RefinementError, refine_solve


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def projection_doc():
    return {"schema_version": "1", "identity_P": True, "q": [-2.0, 0.0],
            "C": [[1.0, 0.0]], "d": [1.0]}


def infeasible_doc():
    # x <= -1 and x >= 0
    return {"schema_version": "1", "identity_P": True, "q": [0.0],
            "C": [[1.0], [-1.0]], "d": [-1.0, 0.0]}


def not_pd_doc():
    # P is indefinite: build_dual refuses it
    return {"schema_version": "1", "P": [[1.0, 2.0], [2.0, 1.0]],
            "q": [0.0, 0.0]}


def report_shape(rep):
    return (frozenset(rep), frozenset(rep["timings"]),
            frozenset(rep["kkt_residuals"]))


def iteration_limit_doc():
    # needs more than one outer iteration from a cold start
    rng = np.random.default_rng(16)
    C = rng.standard_normal((6, 4))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    return {"schema_version": "1", "identity_P": True,
            "q": (-10 * np.ones(4)).tolist(),
            "C": C.tolist(), "d": np.full(6, 0.1).tolist()}


class TestProblemFiles:

    def test_load_projection(self, tmp_path):
        p = load_problem(write_json(tmp_path / "p.json", projection_doc()))
        assert p.identity_p and p.n == 2 and p.m_in == 1
        assert_allclose(p.q, [-2.0, 0.0], rtol=0, atol=0)

    def test_round_trip_is_bit_equal(self, tmp_path):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((3, 3))
        p1 = PrimalQP(P=M @ M.T + np.eye(3), q=rng.standard_normal(3),
                      A=rng.standard_normal((1, 3)), b=rng.standard_normal(1),
                      C=rng.standard_normal((2, 3)), d=rng.standard_normal(2))
        path = tmp_path / "rt.json"
        save_problem(p1, str(path))
        p2 = load_problem(str(path))
        assert np.array_equal(p1.P, p2.P) and np.array_equal(p1.q, p2.q)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.C, p2.C) and np.array_equal(p1.d, p2.d)

    def test_round_trip_identity(self, tmp_path):
        p1 = PrimalQP(P=None, q=np.array([1.0, 2.0]), identity_p=True)
        path = tmp_path / "id.json"
        save_problem(p1, str(path))
        p2 = load_problem(str(path))
        assert p2.identity_p and p2.P is None

    def test_error_names_field_and_row(self, tmp_path):
        doc = projection_doc()
        doc["C"] = [[1.0, 0.0], [1.0]]
        doc["d"] = [1.0, 1.0]
        with pytest.raises(ProblemFormatError) as info:
            load_problem(write_json(tmp_path / "bad.json", doc))
        assert info.value.field == "C"
        assert info.value.row == 1
        assert "C" in str(info.value)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.pop("q"), "q"),
        (lambda d: d.update(q="nope"), "q"),
        (lambda d: d.update(q=[1.0, "x"]), "q"),
        (lambda d: d.update(schema_version="9"), "schema_version"),
        (lambda d: d.update(identity_P="yes"), "identity_P"),
        (lambda d: d.pop("d"), "d"),
        (lambda d: d.update(d=[1.0, 2.0]), "d"),
        (lambda d: d.update(C=[[1.0, 0.0, 0.0]]), "C"),
        pytest.param(lambda d: d.update(C="nope"), "C", id="C_not_a_list"),
        pytest.param(lambda d: d.update(C=[1.0]), "C", id="row_not_a_list"),
        pytest.param(lambda d: d.update(C=[[1.0, "x"]]), "C",
                     id="entry_not_a_number"),
        pytest.param(lambda d: d.update(P=[[1.0, 0.0]]), "P",
                     id="P_rows"),
        # PrimalQP's own checks, reported with no field
        pytest.param(lambda d: d.update(identity_P=False,
                                        P=[[1.0, 0.5], [0.0, 1.0]]),
                     None, id="asymmetric_P"),
        pytest.param(lambda d: d.update(q=[float("nan"), 0.0]), None,
                     id="nan_q"),
    ])
    def test_structural_errors(self, tmp_path, mutate, field):
        doc = projection_doc()
        mutate(doc)
        with pytest.raises(ProblemFormatError) as info:
            load_problem(write_json(tmp_path / "bad.json", doc))
        assert info.value.field == field

    def test_missing_p_without_flag(self, tmp_path):
        doc = {"schema_version": "1", "q": [0.0]}
        with pytest.raises(ProblemFormatError) as info:
            load_problem(write_json(tmp_path / "bad.json", doc))
        assert info.value.field == "P"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError):
            load_problem(str(path))
        with pytest.raises(ProblemFormatError, match="top level"):
            load_problem(write_json(path, [projection_doc()]))

    # errors json.load and float() raise, each a parse error (exit 2)
    @pytest.mark.parametrize("text, field, row", [
        ('"q": [1' + "0" * 400 + ', 0.0]', "q", None),
        ('"q": [0.0, 0.0], "C": [[1.0, 0.0], [-1' + "0" * 400 + ', 0.0]], '
         '"d": [1.0, 1.0]', "C", 1),
        ('"q": [1' + "0" * 5000 + ', 0.0]', None, None),
        ('"q": ' + "[" * 100000 + "]" * 100000, None, None),
        ('"q": [0.0, 0.0], "note": "\xe9"', None, None),
    ], ids=["int-overflow", "int-overflow-row", "int-digits", "deep",
            "latin-1"])
    def test_malformed_files(self, tmp_path, capsys, text, field, row):
        path = tmp_path / "bad.json"
        path.write_bytes(('{"schema_version": "1", "identity_P": true, '
                          + text + "}").encode("latin-1"))
        with pytest.raises(ProblemFormatError) as info:
            load_problem(str(path))
        assert (info.value.field, info.value.row) == (field, row)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_missing_file(self):
        with pytest.raises(ProblemFormatError):
            load_problem("/nonexistent/problem.json")


class TestSolveCommand:

    def test_optimal_exit_and_report(self, tmp_path, capsys):
        prob = write_json(tmp_path / "p.json", projection_doc())
        report = tmp_path / "report.json"
        code = main(["solve", prob, "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        doc = json.loads(report.read_text())
        assert doc["status"] == "optimal"
        assert_allclose(doc["x"], [1.0, 0.0], rtol=0, atol=1e-9)
        assert doc["objective"] == pytest.approx(-1.5, abs=1e-9)
        assert doc["outer_iters"] >= 1
        assert doc["salvaged_steps"] == 0
        stats = doc["refine_iter_stats"]
        assert stats["min"] <= stats["mean"] <= stats["max"]
        for key in ("build_dual", "solve_dual", "recover_primal"):
            assert doc["timings"][key] >= 0
        kkt = doc["kkt_residuals"]
        assert kkt["stationarity"] <= 1e-8
        assert kkt["primal_feasibility"] <= 1e-8
        assert kkt["complementarity"] <= 1e-8

    def test_parse_error_exit(self, tmp_path, capsys):
        doc = projection_doc()
        doc["d"] = [1.0, 2.0]
        prob = write_json(tmp_path / "bad.json", doc)
        assert main(["solve", prob]) == 2
        assert "field 'd'" in capsys.readouterr().err
        # a file that PrimalQP rejects is a format error too
        doc = dict(projection_doc(), identity_P=False,
                   P=[[1.0, 0.5], [0.0, 1.0]])
        prob = write_json(tmp_path / "asym.json", doc)
        assert main(["solve", prob]) == 2
        assert "P must be symmetric" in capsys.readouterr().err

    def test_infeasible_exit(self, tmp_path, capsys):
        doc = infeasible_doc()
        prob = write_json(tmp_path / "p.json", doc)
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 3
        rep = json.loads(report.read_text())
        assert rep["status"] == "primal_infeasible"
        # the solve ran: its stages are timed and its work reported
        assert all(t >= 0 for t in rep["timings"].values())
        assert rep["outer_iters"] >= 1
        # the ray is a Farkas certificate on the file's rows
        C, d, y = np.array(doc["C"]), np.array(doc["d"]), np.array(rep["ray"])
        assert np.all(y >= 0.0) and d @ y < 0.0
        assert np.max(np.abs(C.T @ y)) <= (
            1e-10 * np.linalg.norm(C, np.inf) * np.max(np.abs(y)))

    def test_not_positive_definite_exit(self, tmp_path):
        prob = write_json(tmp_path / "p.json", not_pd_doc())
        assert main(["solve", prob]) == 3

    # n = 0: with no rows, or with rows of no columns that 0 <= d meets
    @pytest.mark.parametrize("doc", [
        {"schema_version": "1", "identity_P": True, "q": []},
        {"schema_version": "1", "P": [], "q": []},
        {"schema_version": "1", "identity_P": True, "q": [],
         "C": [[], []], "d": [1.0, 0.0]},
    ], ids=["identity", "P", "rows"])
    @pytest.mark.parametrize("start", ["on", "off"])
    def test_empty_problem_is_optimal(self, tmp_path, doc, start):
        prob = write_json(tmp_path / "p.json", doc)
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--smartstart", start,
                     "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["status"] == "optimal" and rep["x"] == []

    def test_empty_problem_with_a_violated_row_is_infeasible(self, tmp_path):
        doc = {"schema_version": "1", "identity_P": True, "q": [],
               "C": [[], []], "d": [1.0, -1.0]}
        prob = write_json(tmp_path / "p.json", doc)
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 3
        assert json.loads(report.read_text())["status"] == "primal_infeasible"

    # s_0 collapses to 0 when the row's norm squared overflows, and h
    # overflows with q: both end before the solve, as P not PD does
    @pytest.mark.parametrize("doc", [
        {"schema_version": "1", "P": [[1.0, 0.0], [0.0, 1.0]],
         "q": [0.0, 0.0], "C": [[1e160, 0.0]], "d": [-1e160]},
        {"schema_version": "1", "P": [[1.0, 0.0], [0.0, 1.0]],
         "q": [1.5e308, 1.5e308], "C": [[1.0, 1.0]], "d": [0.0]},
    ], ids=["row", "h"])
    def test_overflowing_data_exit(self, tmp_path, doc):
        prob = write_json(tmp_path / "p.json", doc)
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 3
        rep = json.loads(report.read_text())
        assert rep["status"] == "numerical_failure"
        assert "overflows" in rep["message"]

    def test_iteration_limit_exit(self, tmp_path):
        prob = write_json(tmp_path / "p.json", iteration_limit_doc())
        code = main(["solve", prob, "--max-iters", "1", "--smartstart", "off"])
        assert code == 4

    def test_every_outcome_has_one_report_shape(self, tmp_path):
        cases = [
            ("optimal", projection_doc(), [], 0),
            ("numerical_failure", not_pd_doc(), [], 3),
            ("primal_infeasible", infeasible_doc(), [], 3),
            ("iteration_limit", iteration_limit_doc(),
             ["--max-iters", "1", "--smartstart", "off"], 4),
        ]
        shapes = set()
        for i, (status, doc, flags, code) in enumerate(cases):
            prob = write_json(tmp_path / f"p{i}.json", doc)
            report = tmp_path / f"r{i}.json"
            assert main(["solve", prob, "--report", str(report)]
                        + flags) == code
            rep = json.loads(report.read_text())
            assert rep["status"] == status
            assert isinstance(rep["message"], str)
            assert (rep["message"] == "") == (status == "optimal")
            assert (rep["ray"] is None) == (status != "primal_infeasible")
            shapes.add(report_shape(rep))
        assert len(shapes) == 1

    def test_numerical_failure_exit(self, tmp_path, monkeypatch):
        # refinement fails at every shift and leaves nothing to salvage
        def fail(f, c_bar):
            raise RefinementError("forced", np.zeros_like(c_bar), 20)

        prob = write_json(tmp_path / "p.json", projection_doc())
        optimal = tmp_path / "optimal.json"
        assert main(["solve", prob, "--report", str(optimal)]) == 0
        monkeypatch.setattr(active_set, "refine_solve", fail)
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 3
        rep = json.loads(report.read_text())
        assert rep["status"] == "numerical_failure"
        assert rep["message"].startswith("refinement failed at iteration 1")
        assert rep["shift_retries"] == 3
        assert rep["salvaged_steps"] == 0
        assert report_shape(rep) == report_shape(
            json.loads(optimal.read_text()))

    def test_salvaged_steps_are_reported(self, tmp_path, monkeypatch):
        # refinement fails at every shift on the first subproblem and
        # its iterate is salvaged; the step it takes reaches the optimum
        calls = []

        def fail_once(f, c_bar):
            calls.append(f.epsilon)
            if len(calls) <= 4:  # 1e-7 down to the floor 1e-12
                raise RefinementError("forced", -c_bar, 20)
            return refine_solve(f, c_bar)

        monkeypatch.setattr(active_set, "refine_solve", fail_once)
        prob = write_json(tmp_path / "p.json", projection_doc())
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["status"] == "optimal"
        assert rep["salvaged_steps"] == 1
        assert rep["message"] == ("optimal, but 1 step(s) took salvaged, "
                                  "uncertified directions")
        assert_allclose(rep["x"], [1.0, 0.0], rtol=0, atol=1e-9)

    def test_unfactorable_shift_exit(self, tmp_path, monkeypatch):
        # the solve of this problem unpins from either start; every
        # downdate collapses, and every factorization after the first
        # one fails, as on a masked G that rounds to indefinite at the
        # shift, so the rebuild on the step after the collapse ends
        # the solve
        rng = np.random.default_rng(0)
        s = 10 ** 4.45
        C = s * rng.standard_normal((5, 3))
        d = C @ rng.standard_normal(3) + s * rng.uniform(0.1, 1.0, 5)
        q = s * rng.standard_normal(3)
        prob = str(tmp_path / "p.json")
        save_problem(PrimalQP(P=np.eye(3), q=q, C=C, d=d), prob)
        optimal = tmp_path / "optimal.json"
        assert main(["solve", write_json(tmp_path / "o.json",
                                         projection_doc()),
                     "--report", str(optimal)]) == 0

        calls = []
        factorize = active_set.factorize

        def collapse(f, i):
            raise CholeskyDowndateError("forced")

        def fail_after_start(G, W, epsilon):
            calls.append(epsilon)
            if len(calls) > 1:
                raise np.linalg.LinAlgError("forced")
            return factorize(G, W, epsilon)

        monkeypatch.setattr(active_set, "remove_index", collapse)
        monkeypatch.setattr(active_set, "factorize", fail_after_start)
        for start in ("on", "off"):
            calls.clear()
            report = tmp_path / f"r-{start}.json"
            assert main(["solve", prob, "--report", str(report),
                         "--smartstart", start]) == 3
            assert len(calls) == 2
            rep = json.loads(report.read_text())
            assert rep["status"] == "numerical_failure"
            assert rep["message"].startswith("factorization failed")
            assert report_shape(rep) == report_shape(
                json.loads(optimal.read_text()))

    def test_stages_not_reached_are_none(self, tmp_path):
        # only data that build_dual refuses stops the pass before the
        # solve, and then no stage finishes
        prob = write_json(tmp_path / "p.json", not_pd_doc())
        report = tmp_path / "r.json"
        assert main(["solve", prob, "--report", str(report)]) == 3
        rep = json.loads(report.read_text())
        assert rep["status"] == "numerical_failure"
        assert set(rep["timings"].values()) == {None}
        assert set(rep["kkt_residuals"].values()) == {None}
        for key in ("objective", "x", "mu_eq", "mu_in", "outer_iters",
                    "refine_iter_stats", "descent_steps", "salvaged_steps",
                    "shift_retries", "dual_objective", "ray"):
            assert rep[key] is None

    def test_full_report_on_scaled_rows(self, tmp_path):
        # rows of norm near 1e5, which build_dual scales down: solved to
        # optimality, and stopped after one iteration with rows violated
        rng = np.random.default_rng(0)
        C = 1e5 * rng.standard_normal((5, 3))
        d = C @ rng.standard_normal(3) + 1e5 * rng.uniform(0.1, 1.0, 5)
        prob = str(tmp_path / "p.json")
        save_problem(PrimalQP(P=np.eye(3), q=10.0 * rng.standard_normal(3),
                              C=C, d=d), prob)
        for flags, status in (([], "optimal"),
                              (["--max-iters", "1", "--smartstart", "off"],
                               "iteration_limit")):
            report = tmp_path / "r.json"
            main(["solve", prob, "--report", str(report)] + flags)
            rep = json.loads(report.read_text())
            assert rep["status"] == status
            assert any(rep["mu_in"]) == (status == "optimal")
        assert rep["kkt_residuals"]["primal_feasibility"] > 1.0

    def test_max_iters_flag(self, tmp_path):
        prob = write_json(tmp_path / "p.json", projection_doc())
        assert main(["solve", prob, "--max-iters", "5"]) == 0
        assert main(["solve", prob, "--max-iters", "0"]) == 2

    def test_unwritable_report_is_a_usage_error(self, tmp_path, capsys,
                                                monkeypatch):
        # found before the solve: nothing is solved or printed
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "solve_dual", no_solve)
        prob = write_json(tmp_path / "p.json", projection_doc())
        report = str(tmp_path / "missing" / "r.json")
        assert main(["solve", prob, "--report", report]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: cannot write the report: ")
        assert report in err


class TestModuleEntry:

    def test_importing_the_package_leaves_the_cli_out(self):
        proc = run_python("-c", "import sys, dualqp; "
                                "print('dualqp.cli' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_run_as_a_module_writes_no_warning(self, tmp_path):
        prob = write_json(tmp_path / "p.json", projection_doc())
        proc = run_python("-m", "dualqp.cli", "solve", prob)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("status         optimal\n")

    def test_console_script_is_the_cli_main(self):
        # the `dualqp` command that installing the package creates; the
        # tests run from the source tree, so nothing else resolves it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        root = pathlib.Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, _, name = scripts["dualqp"].partition(":")
        target = getattr(importlib.import_module(module), name)
        assert callable(target) and target is main


class TestCommands:

    def test_bench_is_a_parse_error(self, capsys):
        # measured runs live in perfbench/, not in the CLI
        with pytest.raises(SystemExit) as err:
            main(["bench", "mpc"])
        assert err.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_the_start_shift_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "p.json", "--epsilon", "1e-9"])
        assert err.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    def test_reads_no_dual_data(self):
        # the report's row violation comes from SolveReport: the CLI
        # does not apply the row scale itself
        source = inspect.getsource(cli)
        for attr in (".s", ".G", ".h"):
            assert not re.search(re.escape(attr) + r"\b", source), attr
