"""In-memory spans around the benchmark's calls into disclab.

Spans are recorded only here, in the benchmark's own code, around each call
into a public disclab function; nothing inside the package is instrumented.
A span is ``[name, start, end, parent, op, error]`` where ``name`` is
``<module>.<function>`` (the module is the layer), ``parent`` is the index
of the enclosing op span and ``op`` the op id.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("series", "grids", "geometry", "ode", "norms", "conditions", "weights", "hardy", "cli")


class NullTracer:
    """Untraced runs: a call is just the call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self._op_span: int | None = None
        self._op_id: str | None = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), None, self._op_span, self._op_id, False]
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()

    def begin_op(self, op_id):
        self._op_id = op_id
        self._op_span = len(self.spans)
        self.spans.append([f"op.{op_id}", perf_counter(), None, None, op_id, False])

    def end_op(self):
        self.spans[self._op_span][2] = perf_counter()
        self._op_span = self._op_id = None


def summarize(spans: list[list], wall: float) -> dict:
    """Per-function and per-layer busy time, calls and errors over ``wall``
    seconds of traced passes.

    ``bench.self_s`` is op-span time not covered by a call span (input
    bookkeeping in the benchmark itself) and ``bench.gap_s`` is pass time
    outside every op span, so the layers' ``busy_s`` plus both add up to
    ``wall`` exactly.
    """
    funcs: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "errors": 0})
    op_total = 0.0
    child_total = 0.0
    for name, start, end, parent, _op, error in spans:
        if parent is None:
            op_total += end - start
            continue
        f = funcs[name]
        f["calls"] += 1
        f["busy_s"] += end - start
        f["errors"] += int(error)
        child_total += end - start
    layers = {
        layer: {"calls": 0, "busy_s": 0.0, "errors": 0} for layer in LAYERS
    }
    for name, f in funcs.items():
        entry = layers[name.split(".")[0]]
        for key in entry:
            entry[key] += f[key]
    for entry in list(funcs.values()) + list(layers.values()):
        entry["share"] = entry["busy_s"] / wall if wall > 0 else 0.0
    return {
        "wall_s": wall,
        "functions": dict(sorted(funcs.items())),
        "layers": layers,
        "bench.self_s": op_total - child_total,
        "bench.gap_s": wall - op_total,
    }
