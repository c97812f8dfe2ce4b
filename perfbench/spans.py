"""In-memory span recorder and the wrappers that attach it to capflow's
public functions from outside the package.

A span records (name, start, end, parent, thread id) plus a small `info`
dict filled by the wrapper.  Parents follow a per-thread stack; a span opened
on a thread whose stack is empty (a worker of the radius fan-out) takes the
innermost open span of the thread that installed the tracer as its parent.
Self time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types

_CLOCK = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "info")

    def __init__(self, sid, name, start, parent, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.info = {}

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "thread": self.thread,
                "info": self.info}


class Tracer:
    """Collects spans; `wrap` turns a function into one that records a span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        try:
            parent = (stack or self._home_stack)[-1].sid
        except IndexError:      # the home thread may close its span meanwhile
            parent = None
        with self._lock:
            sid = next(self._ids)
        span = Span(sid, name, 0.0, parent, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.start = _CLOCK()
        return span

    def close(self, span: Span) -> None:
        span.end = _CLOCK()
        stack = self._stack()
        # pop through anything left open by an exception below this span
        while stack:
            if stack.pop() is span:
                break

    def wrap(self, name: str, fn, on_call=None):
        """Wrapped `fn` records a span; `on_call(span, args, kwargs, result)`
        runs after the call and may fill span.info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_call is not None:
                on_call(span, args, kwargs, result)
            return result

        return traced




class Patches:
    """Attribute replacements that can be undone in reverse order.

    Entry points that the package no longer has are skipped and listed in
    `missing`, so a renamed function shows as a note, not a crash.
    """

    def __init__(self):
        self._saved = []
        self.missing: list[str] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original)."""
        if attr not in owner.__dict__:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self.set(owner, attr, make(owner.__dict__[attr]))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- where capflow's layers are entered --------------------------------------

def _n_free(span, args, kwargs, result):
    fixed = args[2] if len(args) > 2 else kwargs["fixed"]
    span.info["unknowns"] = int(fixed.size - int(fixed.sum()))


def _condenser_info(span, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    span.info["full_cube"] = bool(problem.obstacle.values.all())
    span.info["iters"] = len(result[1]) - 1


def _datum_info(span, args, kwargs, result):
    span.info["points"] = len(args[1] if len(args) > 1 else kwargs["points"])


_DIRECT_SOLVERS = ("spsolve", "splu", "factorized")


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer entry points of the imported capflow package.

    Functions are replaced where their callers look them up: module
    attributes for module-level functions (including names a module imported
    from a sibling), class attributes for methods.
    """
    from capflow import capacity, cli, geometry, lattice, pde, probes, wiener

    def on(owner, attr, name, on_call=None):
        patches.wrap(owner, attr, lambda f: tracer.wrap(name, f, on_call))

    system = lattice.LatticeSystem
    on(system, "solve_dirichlet", "lattice.solve_dirichlet", _n_free)
    on(system, "laplacian", "lattice.laplacian")
    on(system, "energy", "lattice.energy")
    on(system, "weights", "lattice.weights")

    # the direct solver is reached through capflow.lattice's own module alias
    spla = lattice.__dict__.get("spla")
    if spla is None:
        patches.missing.append("capflow.lattice.spla")
    else:
        proxy = types.ModuleType(spla.__name__)
        proxy.__dict__.update(spla.__dict__)
        for attr in _DIRECT_SOLVERS:
            if hasattr(spla, attr):
                setattr(proxy, attr, tracer.wrap("lattice.linsolve", getattr(spla, attr)))
        patches.set(lattice, "spla", proxy)

    on(capacity, "minimize_condenser", "capacity.condenser", _condenser_info)
    on(capacity, "delta", "capacity.delta")
    on(capacity, "delta_detailed", "capacity.delta_detailed")
    on(geometry, "rasterize_obstacle", "geometry.rasterize")
    on(capacity, "rasterize_obstacle", "geometry.rasterize")

    on(wiener, "realize_R_o_epsilon", "wiener.realize")
    on(wiener, "build_profile", "wiener.profile")

    on(pde, "solve", "pde.solve")
    on(pde.BoundaryDatum, "__call__", "pde.datum", _datum_info)
    for attr in ("oscillation_over", "oscillation", "osc_g_on_lateral"):
        on(pde, attr, "pde.measure")
    on(pde, "save_snapshot", "pde.snapshot")

    on(probes, "envelope_regression", "probes.regression")

    on(cli, "load_config", "cli.parse")
    on(cli, "parse_experiment", "cli.parse")
    for attr in ("write_csv", "write_plot_data", "write_report"):
        on(cli, attr, "cli.write")


# -- per-layer metrics from one traced call ----------------------------------

def _dur(span: Span) -> float:
    return span.end - span.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer times and counters of one traced call.

    Times sum over spans (busy time; parallel workers can exceed the wall
    time).  A name that nests in itself (oscillation calling
    oscillation_over) counts only its outermost spans.
    """
    by_id = {s.sid: s for s in spans}
    kids: dict[int | None, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    named: dict[str, list[Span]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            named.setdefault(s.name, []).append(s)

    def total(name):
        return sum(_dur(s) for s in named.get(name, ()))

    def count(name):
        return len(named.get(name, ()))

    def self_time(span):
        inside = [(c.start, c.end) for c in kids.get(span.sid, ())]
        return _dur(span) - _covered(inside)

    def child_count(span, name):
        return sum(1 for c in kids.get(span.sid, ()) if c.name == name)

    m: dict[str, float] = {}
    solves = named.get("lattice.solve_dirichlet", [])
    m["lattice.slice_s"] = sum(self_time(s) for s in solves)
    m["lattice.assemble_s"] = total("lattice.laplacian")
    m["lattice.assemble_calls"] = count("lattice.laplacian")
    m["lattice.linsolve_s"] = total("lattice.linsolve")
    m["lattice.solve_calls"] = len(solves)
    m["lattice.unknowns_mean"] = (sum(s.info["unknowns"] for s in solves) / len(solves)
                                  if solves else 0.0)
    m["lattice.energy_s"] = total("lattice.energy")
    m["lattice.energy_calls"] = count("lattice.energy")
    m["lattice.weights_s"] = total("lattice.weights")

    conds = named.get("capacity.condenser", [])
    iters = [s.info["iters"] for s in conds]
    m["capacity.condenser_s"] = total("capacity.condenser")
    m["capacity.condenser_calls"] = len(conds)
    m["capacity.full_cube_s"] = sum(_dur(s) for s in conds if s.info["full_cube"])
    m["capacity.iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    m["capacity.iters_max"] = max(iters, default=0)
    # a condenser makes one energy evaluation per solve, plus one per halving
    m["capacity.backtracks"] = sum(
        child_count(s, "lattice.energy") - child_count(s, "lattice.solve_dirichlet")
        for s in conds)
    m["capacity.delta_calls"] = count("capacity.delta_detailed")

    m["geometry.rasterize_s"] = total("geometry.rasterize")
    m["geometry.rasterize_calls"] = count("geometry.rasterize")

    m["wiener.realize_s"] = total("wiener.realize")
    profiles = named.get("wiener.profile", [])
    m["wiener.profile_s"] = total("wiener.profile")
    per_radius = sum(_dur(c) for s in profiles for c in kids.get(s.sid, ())
                     if c.name == "capacity.delta")
    m["wiener.fanout_eff"] = (per_radius / (workers * m["wiener.profile_s"])
                              if profiles else 0.0)

    steps = []          # (duration, solves, backtracks) per time step
    for run in named.get("pde.solve", []):
        children = sorted(kids.get(run.sid, ()), key=lambda c: c.start)
        datums = [c for c in children if c.name == "pde.datum"]
        if not datums:
            continue
        # the first datum call fills every node at t = 0; each later one, on
        # the fixed nodes only, opens a time step
        opening = [c for c in datums[1:] if c.info["points"] != datums[0].info["points"]]
        bounds = [c.start for c in opening] + [run.end]
        for k, opener in enumerate(opening):
            lo, hi = bounds[k], bounds[k + 1]
            inside = [c for c in children if lo <= c.start < hi]
            n_solve = sum(1 for c in inside if c.name == "lattice.solve_dirichlet")
            n_energy = sum(1 for c in inside if c.name == "lattice.energy")
            # one objective evaluation to start, then one per solve and per halving
            back = n_energy - 1 - n_solve if n_solve else 0
            steps.append((hi - lo, n_solve, back))
    m["pde.solve_s"] = total("pde.solve")
    m["pde.steps"] = len(steps)
    m["pde.solves_per_step_mean"] = (sum(s[1] for s in steps) / len(steps)
                                     if steps else 0.0)
    m["pde.solves_per_step_max"] = max((s[1] for s in steps), default=0)
    m["pde.backtracks"] = sum(s[2] for s in steps)
    m["pde.step_s_max"] = max((s[0] for s in steps), default=0.0)
    m["pde.datum_s"] = total("pde.datum")
    m["pde.measure_s"] = total("pde.measure")
    m["pde.snapshot_s"] = total("pde.snapshot")

    m["probes.regression_s"] = total("probes.regression")
    m["cli.parse_s"] = total("cli.parse")
    m["cli.write_s"] = total("cli.write")
    return m


COUNTERS = (
    "lattice.solve_calls", "lattice.assemble_calls", "lattice.energy_calls",
    "lattice.unknowns_mean", "capacity.condenser_calls", "capacity.iters_mean",
    "capacity.iters_max", "capacity.backtracks", "capacity.delta_calls",
    "geometry.rasterize_calls", "pde.steps", "pde.solves_per_step_mean",
    "pde.solves_per_step_max", "pde.backtracks",
)
