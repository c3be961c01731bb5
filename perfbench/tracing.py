"""Outside-in span tracing of lotkacenter's public functions.

``Tracer.install`` wraps each traced function and rebinds every
``lotkacenter.*`` module attribute that refers to it, because
``from .focal import closed_form_focal`` binds the same function in
``classifier`` and ``dynamics`` too, and calls go through whichever
module-level name the caller sees.  The program itself is not changed.

A span is (name id, start ns, end ns, parent index, error flag); each
thread appends to its own list, and the parent index points into the
same list, so the sweep's worker threads need no lock.  Spans stay in
memory until ``write`` puts them in a file.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

_PERF_NS = time.perf_counter_ns


def _rel_tol_suffix(args, kwargs) -> str:
    tol = args[2] if len(args) > 2 else kwargs.get("rel_tol", 1e-9)
    return f".r{round(-math.log10(tol))}"


def _order_suffix(args, kwargs) -> str:
    order = args[1] if len(args) > 1 else kwargs["order"]
    return f".o{order}"


#: (module, attribute) of each traced function, with an optional
#: function of the call's arguments that refines the span name
TRACED = (
    ("lotkacenter.cli", "main", None),
    ("lotkacenter.classifier", "classify", None),
    ("lotkacenter.classifier", "match_table_cases", None),
    ("lotkacenter.model", "canonicalize", None),
    ("lotkacenter.model", "jacobian", None),
    ("lotkacenter.focal", "closed_form_focal", None),
    ("lotkacenter.focal", "taylor_expand", None),
    ("lotkacenter.focal", "lyapunov_numeric", _order_suffix),
    ("lotkacenter.dynamics", "poincare_return", _rel_tol_suffix),
    ("lotkacenter.dynamics", "integrate", None),
    ("lotkacenter.dynamics", "detect_limit_cycles", None),
    ("lotkacenter.dynamics", "bautin_scenario", None),
    ("lotkacenter.dynamics", "brentq", None),
    ("lotkacenter.conserved", "build_integral", None),
    ("lotkacenter.conserved", "invariance_residual", None),
    ("lotkacenter.symmetry", "r1_residual", None),
    ("lotkacenter.symmetry", "r2_residual", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self.buffers: list[tuple[int, list]] = []
        self.errors: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = self._ids[name] = len(self.names)
                    self.names.append(name)
        return nid

    def _state(self):
        loc = self._local
        buf = getattr(loc, "buf", None)
        if buf is None:
            buf = loc.buf = []
            loc.stack = []
            self.buffers.append((threading.get_ident(), buf))
        return buf, loc.stack

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one request."""
        nid = self._name_id(name)
        buf, stack = self._state()
        idx = len(buf)
        buf.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = _PERF_NS()
        err = 0
        try:
            yield
        except BaseException:
            err = 1
            raise
        finally:
            t1 = _PERF_NS()
            stack.pop()
            buf[idx] = (nid, t0, t1, parent, err)

    def _wrap(self, fn, name: str, suffix):
        tracer = self
        fixed_id = self._name_id(name) if suffix is None else None

        def traced(*args, **kwargs):
            nid = fixed_id if suffix is None else tracer._name_id(name + suffix(args, kwargs))
            buf, stack = tracer._state()
            idx = len(buf)
            buf.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = _PERF_NS()
            err = 0
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                err = 1
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = _PERF_NS()
                stack.pop()
                buf[idx] = (nid, t0, t1, parent, err)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name, attr, suffix in TRACED:
            fn = getattr(sys.modules[mod_name], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, attr, suffix))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lotkacenter" or mod_name.startswith("lotkacenter.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def spans(self):
        """Yield (thread, index, name, start, end, parent, error)."""
        for thread, buf in self.buffers:
            for idx, rec in enumerate(buf):
                if rec is not None:
                    nid, t0, t1, parent, err = rec
                    yield thread, idx, self.names[nid], t0, t1, parent, err

    def write(self, path) -> int:
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("thread\tindex\tname\tstart_ns\tend_ns\tparent\terror\n")
            for rec in self.spans():
                fh.write("\t".join(map(str, rec)) + "\n")
                n += 1
        return n

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name call counts, total and self time, and the ancestry
    questions the layer metrics ask."""

    def __init__(self, tracer: Tracer) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.errors = tracer.errors
        # per (ancestor name, descendant name): descendant spans counted
        self.under: Counter = Counter()
        # per (parent name, child name): direct children counted
        self.children: Counter = Counter()
        # classify spans inside a ``grid`` span, and those of them that
        # went on to the focal values
        self.grid_points = 0
        self.grid_elliptic = 0

        names = tracer.names
        for _thread, buf in tracer.buffers:
            child_ns = [0] * len(buf)
            child_names: list[set] = [set() for _ in buf]
            for rec in buf:
                if rec is not None and rec[3] >= 0:
                    nid, t0, t1, parent, _err = rec
                    child_ns[parent] += t1 - t0
                    child_names[parent].add(names[nid])
                    self.children[(names[buf[parent][0]], names[nid])] += 1
            for idx, rec in enumerate(buf):
                if rec is None:
                    continue
                nid, t0, t1, parent, _err = rec
                name = names[nid]
                self.calls[name] += 1
                self.total_ns[name] += t1 - t0
                self.self_ns[name] += t1 - t0 - child_ns[idx]
                ancestors = set()
                while parent >= 0:
                    ancestors.add(names[buf[parent][0]])
                    parent = buf[parent][3]
                for a in ancestors:
                    self.under[(a, name)] += 1
                if name == "classify" and "grid" in ancestors:
                    self.grid_points += 1
                    self.grid_elliptic += "closed_form_focal" in child_names[idx]

    def mean_ns(self, name: str) -> float | None:
        n = self.calls[name]
        return self.total_ns[name] / n if n else None

    def mean_self_ns(self, name: str) -> float | None:
        n = self.calls[name]
        return self.self_ns[name] / n if n else None


#: per-layer metrics in output order, with their units; ``setup.*`` come
#: from the parent process, the rest from spans and the workload's counts
LAYER_METRICS = (
    ("model.jacobian_us", "us"),
    ("model.canonicalize_us", "us"),
    ("focal.closed_form_us", "us"),
    ("classifier.classify_self_us", "us"),
    ("classifier.match_us", "us"),
    ("classifier.elliptic_share", "share"),
    ("classifier.inconsistent", "count"),
    ("cli.sweep_overhead_s", "s"),
    ("dynamics.return_ms.r8", "ms"),
    ("dynamics.return_ms.r9", "ms"),
    ("dynamics.return_ms.r10", "ms"),
    ("dynamics.return_ms.r11", "ms"),
    ("dynamics.step_us", "us"),
    ("dynamics.return_maps_per_bautin", "count"),
    ("dynamics.scans_per_bautin", "count"),
    ("dynamics.maps_per_cycle", "ratio"),
    ("dynamics.root_solver_ms", "ms"),
    ("dynamics.root_solver_evals", "count"),
    ("focal.taylor_expand_us", "us"),
    ("focal.lyapunov_ms.o1", "ms"),
    ("focal.lyapunov_ms.o2", "ms"),
    ("focal.lyapunov_ms.o4", "ms"),
    ("conserved.residual_us_per_point", "us"),
    ("symmetry.residual_us_per_point", "us"),
    ("setup.import_scipy_s", "s"),
    ("setup.import_numpy_s", "s"),
    ("setup.import_lotkacenter_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(s: SpanSummary, extra: dict, residual_points: int) -> dict[str, float | None]:
    """Span-derived layer metrics; None where the traced work made no
    call that defines the metric."""

    def mean(name: str, scale: float) -> float | None:
        m = s.mean_ns(name)
        return None if m is None else m / scale

    maps_in_bautin = sum(
        v for (a, n), v in s.under.items() if a == "bautin_scenario" and n.startswith("poincare_return")
    )
    solver_evals = sum(
        v for (p, n), v in s.children.items() if p == "brentq" and n.startswith("poincare_return")
    )
    bautins = s.calls["bautin_scenario"]
    residual_calls = s.calls["r1_residual"] + s.calls["r2_residual"]
    residual_ns = s.total_ns["r1_residual"] + s.total_ns["r2_residual"]
    steps = extra.get("integrate_steps", 0)
    out: dict[str, float | None] = {
        "model.jacobian_us": mean("jacobian", 1e3),
        "model.canonicalize_us": mean("canonicalize", 1e3),
        "focal.closed_form_us": mean("closed_form_focal", 1e3),
        "classifier.classify_self_us": (
            None if not s.calls["classify"] else s.mean_self_ns("classify") / 1e3
        ),
        "classifier.match_us": mean("match_table_cases", 1e3),
        "classifier.elliptic_share": _ratio(s.grid_elliptic, s.grid_points),
        "classifier.inconsistent": (
            s.errors[("classify", "InternalInconsistency")] if s.calls["classify"] else None
        ),
        "cli.sweep_overhead_s": extra.get("sweep_overhead_s"),
        "dynamics.step_us": (
            _ratio(s.total_ns["integrate"] / 1e3, steps) if s.calls["integrate"] else None
        ),
        "dynamics.return_maps_per_bautin": _ratio(maps_in_bautin, bautins),
        "dynamics.scans_per_bautin": _ratio(s.under[("bautin_scenario", "detect_limit_cycles")], bautins),
        "dynamics.maps_per_cycle": (
            _ratio(maps_in_bautin, extra.get("bautin_cycles", 0)) if bautins else None
        ),
        "dynamics.root_solver_ms": mean("brentq", 1e6),
        "dynamics.root_solver_evals": _ratio(solver_evals, s.calls["brentq"]),
        "focal.taylor_expand_us": mean("taylor_expand", 1e3),
        "conserved.residual_us_per_point": _ratio(
            s.total_ns["invariance_residual"] / 1e3, s.calls["invariance_residual"] * residual_points
        ),
        "symmetry.residual_us_per_point": _ratio(residual_ns / 1e3, residual_calls * residual_points),
    }
    for k in (8, 9, 10, 11):
        out[f"dynamics.return_ms.r{k}"] = mean(f"poincare_return.r{k}", 1e6)
    for k in (1, 2, 4):
        out[f"focal.lyapunov_ms.o{k}"] = mean(f"lyapunov_numeric.o{k}", 1e6)
    return out
