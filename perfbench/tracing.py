"""Spans and counts around the program's public functions, from outside.

``Tracer.patched()`` replaces each traced function in every ``fracsym``
module that bound it (``from .x import f`` copies the reference, so the
defining module alone is not enough) and restores the original objects on
exit.  Spans record name, start, end, parent and the id of the CLI call
they belong to; they stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# layers are modules; each spanned function reports .calls and .s
SPANNED = (
    "cli.main",
    "report.emit_report",
    "parser.parse_expression",
    "cases.load_printed_form",
    "symmetry.classify",
    "symmetry.determining_system",
    "symmetry.DeterminingSystem.solve",
    "symmetry.eta_alpha",
    "symmetry.invariance_residual",
    "reduction.characteristic_invariants",
    "reduction.similarity_substitute",
    "reduction.compare_reduced_forms",
    "reduction.kernel_solution",
    "reduction.reduced_residual_identity_check",
    "fracnum.pde_residual_on_grid",
    "fracnum.fode_residual_on_grid",
    "fracnum.gl_rl_derivative",
    "fracnum.Grid.sample",
    "fracnum.power_profile",
)
SPAN_MODULES = ("cli", "report", "parser", "cases", "symmetry", "reduction",
                "fracnum")

# counted only: a span per call would cost more than the work it wraps
COUNTED = (
    "expr.add", "expr.mul", "expr.pow_", "expr.substitute", "expr.simplify",
    "expr.eval_numeric", "expr.to_text", "calculus.diff", "calculus.split_by",
)


def _n_terms(e) -> int:
    return len(e.terms) if type(e).__name__ == "Sum" else 1


# counts read off a spanned function's arguments or result
RESULT_COUNTS = {
    "symmetry.determining_system":
        lambda res, args: {"symmetry.determining_equations":
                           len(res.equations)},
    "reduction.similarity_substitute":
        lambda res, args: {"reduction.reduced_ode_terms":
                           _n_terms(res.reduced_ode)},
    "reduction.compare_reduced_forms":
        lambda res, args: {"reduction.compare_entries": len(res.entries),
                           "reduction.compare_mismatches":
                           len(res.mismatches())},
    "fracnum.gl_rl_derivative":
        lambda res, args: {"fracnum.gl_points": args[0].steps},
    "report.emit_report":
        lambda res, args: {"report.bytes": len(res.encode("utf-8"))},
}
EXTRA_COUNTS = ("symmetry.determining_equations", "reduction.reduced_ode_terms",
                "reduction.compare_entries", "reduction.compare_mismatches",
                "fracnum.gl_points", "report.bytes")

# ROADMAP's layer split of one CLI call; invariance_residual counts as
# verification only when the CLI calls it directly (classify re-verifies)
STAGES = {
    "symmetry.determining_system": "determining",
    "symmetry.DeterminingSystem.solve": "solve_verify",
    "reduction.characteristic_invariants": "substitute",
    "reduction.similarity_substitute": "substitute",
    "cases.load_printed_form": "compare",
    "reduction.compare_reduced_forms": "compare",
    "reduction.reduced_residual_identity_check": "grid_oracle",
    "reduction.kernel_solution": "grid_oracle",
}
STAGE_NAMES = ("determining", "solve_verify", "substitute", "compare",
               "grid_oracle")


class Tracer:
    def __init__(self):
        self.spans = []          # (sid, name, start, end, parent, call_id)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.root_time = 0.0
        self.stage_time = defaultdict(float)   # (kind, stage) -> s
        self.counts = defaultdict(int)
        self.call_id = 0
        self.call_kind = ""
        self._stack = []          # [sid, name, child_time]
        self._active = defaultdict(int)
        self._next_sid = 0
        self.restored = []        # (owner, attr, original) after exit

    def begin_call(self, call_id: int, kind: str):
        self.call_id, self.call_kind = call_id, kind

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        module = name.split(".", 1)[0]
        post = RESULT_COUNTS.get(name)
        stage = STAGES.get(name)
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_sid
            self._next_sid += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                self._close(name, module, stage, frame, parent, start, end)
            if post is not None:
                for key, value in post(result, args).items():
                    self.counts[key] += value
            return result
        return wrapper

    def _close(self, name, module, stage, frame, parent, start, end):
        dur = end - start
        self.spans.append((frame[0], name, start, end,
                           parent[0] if parent else None, self.call_id))
        self.calls[name] += 1
        if not self._active[name]:        # outermost: no double counting
            self.inclusive[name] += dur
        self.self_time[module] += dur - frame[2]
        if parent is None:
            self.root_time += dur
        else:
            parent[2] += dur
        if stage is None and name == "symmetry.invariance_residual" \
                and parent is not None and parent[1] == "cli.main":
            stage = "solve_verify"
        if stage is not None:
            self.stage_time[(self.call_kind, stage)] += dur

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    @contextmanager
    def patched(self):
        undo = []
        try:
            for name in SPANNED:
                self._patch(name, self._span, undo)
            for name in COUNTED:
                self._patch(name, self._counter, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            self.restored = undo

    def _patch(self, name: str, make, undo: list):
        module_name, attr = name.split(".", 1)
        module = sys.modules[f"fracsym.{module_name}"]
        if "." in attr:                      # a method or classmethod
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                replacement = classmethod(make(name, raw.__func__))
            else:
                replacement = make(name, raw)
            undo.append((cls, meth, raw))
            setattr(cls, meth, replacement)
            return
        original = getattr(module, attr)
        replacement = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracsym"
                                   or mod_name.startswith("fracsym.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, call_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "call": call_id}) + "\n")
