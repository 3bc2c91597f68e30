"""Span tracer for the traced benchmark run.

`instrument` rebinds module-level names of stringflow (and `numpy.roll`) to
wrappers defined here, so the program's own files stay untouched.  Every
wrapped call records a span: call count, total time, and self time (total
minus the time of the spans it encloses).  Calls are also counted per
(caller span, callee span) edge.  The wrappers pass arguments and results
through unchanged, so a traced run computes bit-identical results.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer name -> (module, attribute).  A dotted attribute is a method on a
# class; the layer prefix is the stringflow module the function lives in.
SPANS = {
    "config.build_objects": ("stringflow.config", "build_objects"),
    "grid.laplace_beltrami": ("stringflow.grid", "laplace_beltrami"),
    "grid.frame_derivatives": ("stringflow.grid", "frame_derivatives"),
    "grid.l2_inner": ("stringflow.grid", "l2_inner"),
    "grid.ball_sum_map": ("stringflow.grid", "ball_sum_map"),
    "grid.hessian_sq_density": ("stringflow.grid", "hessian_sq_density"),
    "targets.project": ("stringflow.targets", "SphereTarget.project"),
    "targets.sff": ("stringflow.targets", "SphereTarget.sff"),
    "targets.tangent_project": ("stringflow.targets", "tangent_project"),
    "fields.pullback_integral": ("stringflow.fields", "pullback_integral"),
    "fields.tangential_grad_V": ("stringflow.fields", "tangential_grad_V"),
    "fields.sup_norms": ("stringflow.fields", "sup_norms"),
    "action.run": ("stringflow.action", "run"),
    "action.step": ("stringflow.action", "step"),
    "action.flow_rhs": ("stringflow.action", "flow_rhs"),
    "action.bfield_force": ("stringflow.action", "_bfield_force"),
    "action.action_value": ("stringflow.action", "action_value"),
    "action.record": ("stringflow.action", "_record"),
    "action.snapshot": ("stringflow.action", "_snapshot"),
    "action.energies": ("stringflow.action", "energies"),
    "singular.parabolic_rescale": ("stringflow.singular", "parabolic_rescale"),
    "singular.concentration_scan": ("stringflow.singular",
                                    "concentration_scan"),
    "structure.assemble_A": ("stringflow.structure", "assemble_A"),
    "structure.rewrite_residual": ("stringflow.structure", "rewrite_residual"),
    "structure.gap_check": ("stringflow.structure", "gap_check"),
    "io.write_run_outputs": ("stringflow.io", "write_run_outputs"),
    "io.read_snapshot": ("stringflow.io", "read_snapshot"),
}

# counted, not timed: roll is the unit of stencil work and too frequent to
# time without inflating the traced run
COUNTERS = {"numpy.roll": ("numpy", "roll")}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)       # (parent, child) -> calls
        self.counts = defaultdict(int)
        self._stack = []                    # open spans: [name, child time]

    def span(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, total, self_time, edges = (self.calls, self.total,
                                          self.self_time, self.edges)

        def wrapper(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Copy of the totals, for differencing over a window of the run."""
        return {"calls": dict(self.calls), "self": dict(self.self_time),
                "total": dict(self.total), "edges": dict(self.edges),
                "counts": dict(self.counts)}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def instrument(tracer: Tracer):
    """Rebind every name bound to a traced function.

    A module-level function is rebound in every loaded stringflow module
    that imported it by name; a method is rebound on its class.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "stringflow" or name.startswith("stringflow.")]
    for table, make in ((SPANS, tracer.span), (COUNTERS, tracer.counter)):
        for name, (module_name, attr) in table.items():
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapped = make(name, original)
            setattr(owner, leaf, wrapped)
            if "." in attr:
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
