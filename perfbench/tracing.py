"""In-memory span recorder for the traced benchmark run.

The solver is traced from outside: `Tracer.hooked()` rebinds the names
in HOOKS to timing wrappers and restores the originals on exit.  A
function is rebound in every `dualqp` module that binds it, so a call
is traced whether it goes through the defining module or through a
name imported from it.  Nothing under `src/` knows about tracing, so
the untraced run measures the unmodified program.  A hooked name the
program no longer has raises HookError: its metrics would otherwise
read zero, which looks like a gain.

A span is (name, start, end, parent span, solve id, error); the spans
of one pipeline pass share the solve id.  Spans are
kept in flat lists while the run lasts and written out once at the end.
The span name's first dotted component is its layer; a layer's self
time is the duration of its spans minus the part covered by their
direct children.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from contextlib import contextmanager

# module -> [(attribute, span name)].  Functions are listed under the
# module that defines them.  DualQP is a class and is rebound only where
# it is called, because its defining module may use it as a type.  The
# pipeline entry points (PrimalQP, build_dual, solve_dual,
# recover_primal) are wrapped at the benchmark's own call site instead.
HOOKS = {
    "dualqp.transform": [("DualQP", "transform.DualQP")],
    "dualqp.kernel": [
        ("factorize", "kernel.factorize"),
        ("add_index", "kernel.add_index"),
        ("remove_index", "kernel.remove_index"),
        ("solve_with_factor", "kernel.solve_with_factor"),
        ("matvec_masked", "kernel.matvec_masked"),
        ("lambda_from_direction", "kernel.lambda_from_direction"),
    ],
    "dualqp.refine": [("refine_solve", "refine.refine_solve")],
    "dualqp.active_set": [("step_length", "active_set.step_length")],
}


class HookError(LookupError):
    """A name in HOOKS is missing from the program."""


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []          # span name table; spans hold an index
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.solve = []
        self.error = []
        self.solve_id = -1       # set by the caller before each solve
        self._stack = []

    def __len__(self):
        return len(self.name)

    def wrap(self, span_name, fn):
        """Return fn wrapped so each call records one span."""
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, solves, errors = self.parent, self.solve, self.error
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            solves.append(self.solve_id)
            errors.append(None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                errors[sid] = type(err).__name__
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    @contextmanager
    def hooked(self):
        """Rebind every name in HOOKS for the duration of the block."""
        mods = {name: importlib.import_module(name) for name in HOOKS}
        missing = [f"{name}.{attr}" for name, entries in HOOKS.items()
                   for attr, _ in entries if not hasattr(mods[name], attr)]
        if missing:
            raise HookError("not found, so not traced: " + ", ".join(missing))
        package = [mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "dualqp" or name.startswith("dualqp."))]
        saved = []
        try:
            for name, entries in HOOKS.items():
                for attr, span_name in entries:
                    orig = getattr(mods[name], attr)
                    traced = self.wrap(span_name, orig)
                    targets = ([mods[name]] if isinstance(orig, type) else
                               [mod for mod in package
                                if getattr(mod, attr, None) is orig])
                    for mod in targets:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def span_name(self, sid):
        return self.names[self.name[sid]]

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Per-span self time: duration minus direct children."""
        dur = self.durations()
        own = list(dur)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[sid]
        return own

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent",
                          "solve", "error"])
            for sid in range(len(self)):
                out.writerow([sid, self.span_name(sid),
                              repr(self.start[sid]), repr(self.end[sid]),
                              self.parent[sid], self.solve[sid],
                              self.error[sid] or ""])
