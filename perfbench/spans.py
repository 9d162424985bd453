"""Outside-in span tracer for netsirs.

The program is not edited. Each public function a module calls is
replaced, in the namespace of the caller that looks the name up, by a
wrapper that records a span: layer name, parent span, task, thread, start
and end, plus counts taken from the arguments and result. Spans stay in
memory until the run ends.

A span opened on a thread with no open span of its own (a sweep worker)
takes the open run_sweep span as its parent. Self time is a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import hashlib
import os
import threading
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "parent", "task", "thread", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None", task: str | None):
        self.name = name
        self.parent = parent
        self.task = task
        self.thread = threading.get_ident()
        self.counts: dict = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task: str | None = None
        self._local = threading.local()
        self._fanout: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None, fanout: bool = False):
        """fn wrapped to record a span; count(result, *args, **kwargs)
        returns the span's counts. A fanout span parents the spans that
        worker threads open while it is open."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else self._fanout, self.task)
            stack.append(span)
            if fanout:
                outer, self._fanout = self._fanout, span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if fanout:
                    self._fanout = outer
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced

    def install(self, points) -> None:
        """points: (module, attribute, span name, count, fanout) tuples."""
        for module, attr, name, count, fanout in points:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count, fanout))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _digest(matrix: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(matrix).tobytes(), digest_size=16).hexdigest()


def trace_points() -> list[tuple]:
    """Where the wrappers go: every name a caller in netsirs looks up in its
    own module namespace, for the layers the benchmark reports."""
    import netsirs.cli
    import netsirs.equilibrium
    import netsirs.io
    import netsirs.model
    import netsirs.spectral
    import netsirs.stability
    import netsirs.sweep
    from netsirs.equilibrium import EndemicEquilibrium

    def file_bytes(index, key):
        return lambda result, *a, **k: {"bytes": os.path.getsize(_arg(a, k, index, key))}

    def steps(result, *a, **k):
        cfg = _arg(a, k, 3, "config")
        return {"steps": int(round(cfg.t_end / cfg.dt))}

    def spectral(result, *a, **k):
        return {"sweeps": result[1].iterations, "matrix": _arg(a, k, 0, "model").M}

    def support(result, *a, **k):
        return {"matrix": np.asarray(_arg(a, k, 0, "W")) > 0.0}

    def equilibrium(result, *a, **k):
        if isinstance(result, EndemicEquilibrium):
            return {"phi_iterations": result.iterations, "no_endemic": 0}
        return {"phi_iterations": 0, "no_endemic": 1}

    def eig(result, *a, **k):
        return {"flops_computed": 10 * np.shape(_arg(a, k, 0, "A"))[0] ** 3}

    def samples(result, *a, **k):
        return {"samples": len(_arg(a, k, 2, "lambda_samples"))}

    def sweep(result, *a, **k):
        return {"rows": len(result[0]), "failed_rows": result[1]}

    cli, sw = netsirs.cli, netsirs.sweep
    st = netsirs.stability
    return [
        (cli, "load_model", "io.load_model", file_bytes(0, "path"), False),
        (cli, "load_initial", "io.load_initial", file_bytes(0, "path"), False),
        (cli, "write_trajectory_csv", "io.write_csv", file_bytes(1, "path"), False),
        (cli, "write_sweep_csv", "io.write_csv", file_bytes(1, "path"), False),
        (cli, "reproduction_number", "spectral", spectral, False),
        (cli, "solve_endemic", "equilibrium", equilibrium, False),
        (cli, "simulate", "dynamics", steps, False),
        (cli, "jacobian_dfe", "stability.jacobian", None, False),
        (cli, "spectral_abscissa", "stability.eig", eig, False),
        (cli, "endemic_certificate", "stability.certificate", None, False),
        (cli, "run_sweep", "sweep", sweep, True),
        (sw, "validate_model", "model.validate", None, False),
        (sw, "reproduction_number", "spectral", spectral, False),
        (sw, "solve_endemic", "equilibrium", equilibrium, False),
        (sw, "jacobian_dfe", "stability.jacobian", None, False),
        (sw, "jacobian_endemic", "stability.jacobian", None, False),
        (sw, "spectral_abscissa", "stability.eig", eig, False),
        (netsirs.io, "validate_model", "model.validate", None, False),
        (netsirs.equilibrium, "reproduction_number", "spectral", spectral, False),
        (st, "jacobian_endemic", "stability.jacobian", None, False),
        (st, "spectral_abscissa", "stability.eig", eig, False),
        (st, "gershgorin_certificate", "stability.gershgorin", samples, False),
        (netsirs.spectral, "check_irreducible", "model.tarjan", support, False),
        (netsirs.model, "check_irreducible", "model.tarjan", support, False),
    ]


LAYERS = ("cli", "io.load_model", "io.load_initial", "io.write_csv", "model.validate",
          "model.tarjan", "spectral", "equilibrium", "dynamics", "stability.jacobian",
          "stability.eig", "stability.gershgorin", "stability.certificate", "sweep")
# the counts each layer's spans carry, summed over a pass
COUNTS = {"io.load_model": ("bytes",), "io.load_initial": ("bytes",), "io.write_csv": ("bytes",),
          "spectral": ("sweeps",), "equilibrium": ("phi_iterations", "no_endemic"),
          "dynamics": ("steps",), "stability.eig": ("flops_computed",),
          "stability.gershgorin": ("samples",), "sweep": ("rows", "failed_rows")}


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children."""
    total, reach = 0.0, start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass. Matrix arguments kept for the
    distinct-model counts are replaced by their digests."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
        for key in COUNTS.get(name, ()):
            out[f"{name}.{key}"] = 0
    distinct: dict[str, set] = {"spectral": set(), "model.tarjan": set()}
    busy = wall = 0.0
    for span in spans:
        kids = children.get(id(span), [])
        out[f"{span.name}.self_s"] += span.end - span.start - _covered(span.start, span.end, kids)
        out[f"{span.name}.calls"] += 1
        if "matrix" in span.counts:
            span.counts["matrix"] = _digest(span.counts["matrix"])
            distinct[span.name].add(span.counts["matrix"])
        for key, value in span.counts.items():
            if key != "matrix":
                out[f"{span.name}.{key}"] += value
        if span.name == "sweep":
            wall += span.end - span.start
            busy += sum(kid.end - kid.start for kid in kids)
    steps = out["dynamics.steps"]
    out["dynamics.rhs_evals"] = 4 * steps
    out["dynamics.us_per_step"] = 1e6 * out["dynamics.self_s"] / steps if steps else 0.0
    phi = [s.counts["phi_iterations"] for s in spans if s.name == "equilibrium"]
    out["equilibrium.phi_iterations_max"] = max(phi, default=0)
    for name in distinct:
        out[f"{name}.per_model"] = out[f"{name}.calls"] / len(distinct[name]) if distinct[name] else 0.0
    out["sweep.busy_over_wall"] = busy / wall if wall else 0.0
    return out


def to_records(spans: list[Span], pass_index: int) -> list[dict]:
    """JSON-ready spans; parents are referenced by index within the pass."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"pass": pass_index, "id": index[id(s)], "name": s.name,
             "parent": index.get(id(s.parent)), "task": s.task, "thread": s.thread,
             "start": s.start, "end": s.end, "counts": s.counts} for s in spans]
