"""Per-layer spans recorded from outside the package.

A Tracer wraps public functions of tripletfem in place, records one span
per call (layer, function, start, end, parent span, op id) in memory,
and puts the originals back on restore(). Functions imported by name
into other modules are patched under every name that holds them, so a
call is traced whichever module it is looked up in. Methods are patched
on their class.

A layer's self time is the duration of its spans minus the part covered
by their child spans.
"""

import functools
import os
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    layer: str
    fn: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int


def _file_bytes(path):
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _points(args):
    shape = getattr(args[1], "shape", ())
    n = 1
    for d in shape[:-1]:
        n *= d
    return n


# (layer, module, class name or None, function name, counters), where
# each counter is (name, amount) and amount maps (args, result) to the
# number to add.
TARGETS = (
    ("mesh.generate", "tripletfem.mesh", None, "generate_structured", ()),
    ("mesh.construct", "tripletfem.mesh", "Mesh", "__init__",
     (("mesh.construct_calls", lambda a, r: 1),)),
    ("mesh.map", "tripletfem.mesh", None, "map_mesh", ()),
    ("mesh.export", "tripletfem.mesh", None, "write_vtk",
     (("mesh.export_bytes", lambda a, r: _file_bytes(a[1])),)),
    ("mesh.export", "tripletfem.mesh", None, "write_probe_csv",
     (("mesh.export_bytes", lambda a, r: _file_bytes(a[0])),)),
    ("triplet.coeff", "tripletfem.triplet", "Triplet", "effective_at",
     (("triplet.coeff_points", lambda a, r: _points(a)),)),
    ("fem.assemble", "tripletfem.fem", None, "assemble",
     (("fem.assemble_calls", lambda a, r: 1),)),
    ("fem.update", "tripletfem.fem", None, "update_elements",
     (("fem.changed_entries", lambda a, r: int(r)),)),
    ("fem.post", "tripletfem.fem", None, "solve_bvp", ()),
    ("fem.compare", "tripletfem.fem", None, "compare_matrices", ()),
    ("solver.precond_build", "tripletfem.solver", None,
     "build_preconditioner",
     (("solver.precond_builds", lambda a, r: 1),
      ("solver.precond_fallbacks", lambda a, r: int(r.fallback)))),
    ("solver.precond_apply", "tripletfem.solver", "Preconditioner", "apply",
     (("solver.precond_applies", lambda a, r: 1),)),
    ("solver.cg", "tripletfem.solver", None, "solve",
     (("solver.cg_iters", lambda a, r: r.iterations),)),
    ("applications.self", "tripletfem.applications", None, "motion_sweep",
     ()),
    ("applications.self", "tripletfem.applications", None,
     "open_boundary_bvp", ()),
    ("cli.self", "tripletfem.cli", None, "main", ()),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNTERS = tuple(dict.fromkeys(name for t in TARGETS for name, _ in t[4]))


class Tracer:
    """Spans and counters for the ops run between install() and restore()."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # op id -> {counter: total}
        self.op = -1
        self._stack = []
        self._patched = []  # (owner, name, original), in patch order

    # -- recording

    def _call(self, layer, fn, counters, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, fn.__qualname__, perf_counter(), 0.0, parent,
                    self.op)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        ops = self.counts.setdefault(self.op, {})
        for name, amount in counters:
            ops[name] = ops.get(name, 0) + amount(args, out)
        return out

    def _wrapper(self, layer, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, fn, counters, args, kwargs)
        return traced

    # -- patching

    def install(self):
        """Wrap every target under each name that refers to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "tripletfem" or name.startswith("tripletfem.")]
        for layer, module, owner, name, counters in TARGETS:
            if module not in sys.modules:
                continue  # e.g. the cli, when a workload never imports it
            mod = sys.modules[module]
            if owner is not None:
                cls = getattr(mod, owner)
                fn = cls.__dict__[name]
                self._patch(cls, name, fn, self._wrapper(layer, fn, counters))
                continue
            fn = getattr(mod, name)
            traced = self._wrapper(layer, fn, counters)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, traced)

    def _patch(self, owner, name, original, replacement):
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self):
        """Put every original back, last patched first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


# ------------------------------------------------------------ arithmetic


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_self_times(spans):
    """{op id: {layer: summed self time}}."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        per_op = out.setdefault(s.op, {})
        per_op[s.layer] = per_op.get(s.layer, 0.0) + t
    return out


def per_op_medians(spans, counts, walls):
    """Median over the ops in `walls` ({op id: wall seconds}) of every
    layer's self time (as '<layer>_s'), every counter, and the share of
    the op's wall time that spans cover ('trace.covered_frac'). Layers
    and counters an op never touched count as 0 for that op."""
    by_op = layer_self_times(spans)
    out = {}
    for layer in LAYERS:
        out[layer + "_s"] = statistics.median(
            by_op.get(op, {}).get(layer, 0.0) for op in walls)
    for counter in COUNTERS:
        out[counter] = statistics.median(
            counts.get(op, {}).get(counter, 0) for op in walls)
    out["trace.covered_frac"] = statistics.median(
        sum(by_op.get(op, {}).values()) / wall for op, wall in walls.items())
    return out
