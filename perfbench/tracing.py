"""Spans around coarsekit's public functions, recorded from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
coarsekit module that binds it, so calls between modules and within a
module (which go through module globals) are both seen.  A span is
(name, start, end, parent span, op id); spans are kept only while an op is
running, and the per-name call counts and self times (span time minus the
time of its direct child spans) are summed as spans close.  Functions in
``TOP_LEVEL_ONLY`` are recorded only when no other function of the same
module is already open, so recursion and helper calls inside a module
count toward the outer call.  Call counts are taken over the first
round's ops only (``fix_counts``), so they are the same in every run with
one seed however many rounds fit in it; self times cover every op.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: every traced function, as module.function
TRACED = (
    "cli.run",
    "balleans.parse_ballean",
    "balleans.is_cellular",
    "balleans.validate",
    "balleans.format_ballean",
    "classify.build_equivalence",
    "classify.uniformizing_regroup",
    "classify.interleave",
    "coordinates.coordinatize",
    "multimaps.check_equivalence",
    "multimaps.oscillation",
    "classify.format_certificate",
    "classify.parse_certificate",
    "classify.verify_certificate",
    "multimaps.search_equivalence",
    "classify.is_homogeneous",
    "classify.point_transitive_map",
    "ordinals.parse_ordinal",
    "ordinals.format_ordinal",
    "ordinals.ord_add",
    "ordinals.ord_mul",
    "ordinals.tail",
    "ordinals.cardinal_tail",
    "ordinals.cofinality_class",
    "ordinals.classify_cardinal_ballean",
)

#: functions that also report their calls per op
COUNTED = ("multimaps.oscillation", "multimaps.search_equivalence")

TOP_LEVEL_ONLY = ("ordinals",)

#: spans beyond this many are summed but not kept for the trace file
SPAN_KEEP_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.op = None         # id of the running op, None between ops
        self.stack = []        # open spans: [index, name, start, child time]
        self.spans = []        # kept spans: (name, start, end, parent, op)
        self.dropped = 0
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.ops = 0
        self.counted = None    # (calls, ops) when fix_counts was called

    def install(self, package_name: str = "coarsekit"):
        """Wrap every traced function wherever the package binds it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package_name or name.startswith(package_name + ".")
        }
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(modules[f"{package_name}.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, qual, fn):
        clock = time.perf_counter
        family = qual.split(".")[0]
        top_only = family in TOP_LEVEL_ONLY
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None or (top_only and stack and stack[-1][1].startswith(family + ".")):
                return fn(*args, **kwargs)
            index = -1
            if len(self.spans) < SPAN_KEEP_LIMIT:
                index = len(self.spans)
                self.spans.append(None)  # filled in when the span closes
            parent = stack[-1][0] if stack else -1
            frame = [index, qual, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[2]
                self.calls[qual] += 1
                self.self_s[qual] += took - frame[3]
                if stack:
                    stack[-1][3] += took
                if index >= 0:
                    self.spans[index] = (qual, frame[2], end, parent, self.op)
                else:
                    self.dropped += 1

        return traced

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = None
        self.ops += 1

    def fix_counts(self):
        """Report call counts over the ops run so far, and no later ones."""
        self.counted = (dict(self.calls), self.ops)

    def metrics(self, time_scale: float = 1.0) -> dict:
        """Per-op self time (ms, multiplied by ``time_scale``) of every
        traced function and per-op call counts of the counted ones."""
        ops = max(self.ops, 1)
        out = {}
        for name in TRACED:
            ms = 1000.0 * time_scale * self.self_s[name] / ops
            out[f"{name}.self_ms"] = {"value": ms, "unit": "ms"}
        calls, counted_ops = self.counted or (self.calls, self.ops)
        for name in COUNTED:
            out[f"{name}.calls"] = {"value": calls[name] / max(counted_ops, 1), "unit": "count"}
        return out

    def write(self, path):
        """Write the kept spans as JSON lines; the first line is a header."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"ops": self.ops, "spans": len(self.spans), "dropped": self.dropped,
                      "fields": ["name", "start_s", "end_s", "parent", "op"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
