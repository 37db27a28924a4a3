"""Spans recorded from the benchmark's side of each module boundary.

A span is (name, start, end, parent) plus the CPU time of the process
while it was open and any counts noted from the call.  Spans stay in
memory and are written out once, when the run ends.  The program itself
is not changed: the traced run replaces public names with wrappers and
puts the originals back afterwards.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        # time the wrappers spend on their own bookkeeping, measured inside
        self.bookkeeping_s = 0.0

    def wrap(self, fn, name, note=None):
        """``fn`` inside a span; ``note(args, kwargs, result)`` adds counts."""
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            rec = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(rec)
            cpu0 = cpu()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec["cpu"] = cpu() - cpu0
                rec["start"], rec["end"] = start, end
                stack.pop()
            if note is not None:
                rec.update(note(args, kwargs, result))
            self.bookkeeping_s += (start - entered) + (clock() - end)
            return result

        return traced

    def replace(self, owner, attr, value):
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, note))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path):
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")


def _sum(spans, name, key=None):
    return sum((s[key] if key else s["end"] - s["start"]) for s in spans if s["name"] == name)


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from the spans of one traced run."""
    spans = tracer.spans
    own = tracer.self_times()

    def module_self(prefix):
        return sum(t for s, t in zip(spans, own) if s["name"].startswith(prefix))

    rows = _sum(spans, "kernel.values", "rows")
    psi_calls = sum(1 for s in spans if s["name"] == "freeconv.psi_t")
    mc = [s for s in spans if s["name"] == "montecarlo.sample_spectra"]
    samples = sum(s["samples"] for s in mc)

    def sample_ms(n):
        sel = [s for s in mc if s["n"] == n]
        return _per(sum(s["end"] - s["start"] for s in sel), sum(s["samples"] for s in sel), 1e3)

    steps = _sum(spans, "montecarlo.dbm_paths", "steps")
    lagrange_names = ("kernel.KernelEvaluator", "kernel.correlation_function")
    lagrange = [s for s in spans if s["name"] in lagrange_names]
    return {
        "measures.quantiles_s": (_sum(spans, "measures.quantiles"), "s"),
        "freeconv.psi_calls": (psi_calls, "count"),
        "freeconv.psi_ms": (_per(_sum(spans, "freeconv.psi_t"), psi_calls, 1e3), "ms"),
        "kernel.frame_init_s": (_sum(spans, "kernel.frame_init"), "s"),
        "kernel.contour_rows": (rows, "count"),
        "kernel.contour_row_ms": (_per(_sum(spans, "kernel.values"), rows, 1e3), "ms"),
        "kernel.lagrange_s": (sum(s["end"] - s["start"] for s in lagrange), "s"),
        "kernel.lagrange_m": (max((s["quadrature_m"] for s in lagrange), default=0), "count"),
        "fredholm.m_final": (_sum(spans, "fredholm.gap_probability", "m_final"), "count"),
        "fredholm.kernel_rows": (_sum(spans, "fredholm.kernel", "rows"), "count"),
        "fredholm.self_s": (module_self("fredholm."), "s"),
        "montecarlo.samples": (samples, "count"),
        "montecarlo.gap_sample_ms": (sample_ms(100), "ms"),
        "montecarlo.bulk_sample_ms": (sample_ms(50), "ms"),
        "montecarlo.cpu_per_sample_ms": (_per(sum(s["cpu"] for s in mc), samples, 1e3), "ms"),
        "montecarlo.path_step_ms": (_per(_sum(spans, "montecarlo.dbm_paths"), steps, 1e3), "ms"),
        "cli.self_s": (module_self("cli."), "s"),
        "trace.overhead_s": (tracer.bookkeeping_s, "s"),
    }
