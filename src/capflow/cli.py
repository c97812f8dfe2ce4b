"""Experiment orchestration: declarative JSON configs in, CSV/JSON reports and
gnuplot-friendly plot data out.

Subcommands: capacity | delta-profile | cascade | solve | verify; `_COMMANDS`
declares each one's config keys.  The whole config is checked before any
computation, then the subcommand runs as named stages ending with `write`.
Exit codes: 0 success, 2 config error, 3 numeric failure (named by its stage,
with a partial report.json).  Reports embed the config, the library versions
and per-stage wall-clock timings, the only nondeterministic part for a fixed
config and seed.  Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time
from typing import Callable, NamedTuple, get_type_hints

import numpy as np
import scipy

from . import capacity, pde, probes, wiener
from .errors import ConfigError, PipelineError
from .fileio import atomic_write
from .geometry import DISTANCE_KINDS, Cube, DomainSpec, sup_distance_to_obstacle
from .params import OVERRIDABLE_CONSTANTS, StructureParams, make_params

_MISSING = object()


# -- the declared schema ------------------------------------------------------

def _path(parent: str, key: str) -> str:
    return f"{parent}.{key}" if parent else key


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


# kind -> (accepts, what a rejected value must be, conversion)
_KINDS = {
    "number": (_is_number, "a number", float),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer", int),
    "string": (lambda v: isinstance(v, str), "a string", str),
    "object": (lambda v: isinstance(v, dict), "an object", dict),
    "array": (lambda v: isinstance(v, list), "an array", list),
    "length": (lambda v: _is_number(v) or v == "inf", 'a number or "inf"', float),
}


def _get(obj: dict, key: str, kind, parent: str = "", default=_MISSING):
    """obj[key] checked and converted by `kind`, or `default` when it is absent.

    `kind` names an entry of `_KINDS`, or is "numbers" (a nonempty array of
    numbers), or is the dimension N of a point (an array of N numbers).
    """
    path = _path(parent, key)
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"missing required key '{path}'")
        return default
    val = obj[key]
    accepts, what, convert = _KINDS.get(kind, _KINDS["array"])
    if not accepts(val):
        raise ConfigError(f"key '{path}' must be {what}, got {type(val).__name__}")
    if kind in _KINDS:
        return convert(val)
    if kind == "numbers" and (not val or not all(map(_is_number, val))):
        raise ConfigError(f"key '{path}' must be a nonempty array of numbers")
    if kind != "numbers" and (len(val) != kind or not all(map(_is_number, val))):
        raise ConfigError(f"key '{path}' must be an array of {kind} numbers, "
                          f"got {val!r}")
    return tuple(float(v) for v in val)


class Key(NamedTuple):
    """A declared config key: its kind (see `_get`; "point" is a point in
    R^N), its default, and a (test, "must ...") bound on a given value."""

    kind: str
    default: object = _MISSING
    bound: tuple | None = None


_POSITIVE = (lambda v: v > 0, "be positive")
_FRACTION = (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_OPEN_FRACTION = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_POSITIVE_NUMBER = Key("number", bound=_POSITIVE)


def _field(obj: dict, key: str, spec, parent: str, ndim: int):
    """obj[key] read by `spec`, a Key or a bare kind."""
    spec = spec if isinstance(spec, Key) else Key(spec)
    val = _get(obj, key, ndim if spec.kind == "point" else spec.kind, parent,
               spec.default)
    if key in obj and spec.bound and not spec.bound[0](val):
        raise ConfigError(f"{_path(parent, key)} must {spec.bound[1]}, got {val}")
    return val


def _no_unknown(obj: dict, allowed, parent: str = "") -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{_path(parent, key)}'")


def _build(obj: dict, path: str, keys: dict, build: Callable, ndim: int = 0,
           tag: str | None = None):
    """build(**values of the declared `keys` of obj), after rejecting any other
    key but `tag`; a ValueError from `build` becomes a ConfigError."""
    _no_unknown(obj, set(keys) | {tag}, path)
    values = {key: _field(obj, key, spec, path, ndim) for key, spec in keys.items()}
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _union(raw: dict, name: str, tag: str, variants: dict, ndim: int):
    """The tagged object raw[name]; `variants` maps each value of its `tag`
    key to the (keys, build) pair that `_build` reads it with."""
    obj = _get(raw, name, "object")
    value = _get(obj, tag, "string", name)
    if value not in variants:
        raise ConfigError(f"unknown {name} {tag} {value!r}")
    return _build(obj, name, *variants[value], ndim, tag)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _get(raw, "schema_version", "integer")
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}; this build reads 1")
    return raw


_COMMON_KEYS = {"schema_version", "p", "N", "constants", "solver", "scheme"}


def parse_params(raw: dict) -> StructureParams:
    p, n = _get(raw, "p", "number"), _get(raw, "N", "integer")
    cobj = _get(raw, "constants", "object", default={})
    _no_unknown(cobj, OVERRIDABLE_CONSTANTS, "constants")
    try:
        return make_params(p, n, **{k: _get(cobj, k, "number", "constants") for k in cobj})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_section(raw: dict, name: str, cls):
    """Read the optional object `name` into the config dataclass `cls`; each
    key's type and default come from the dataclass fields."""
    kinds, types = {int: "integer", float: "number"}, get_type_hints(cls)
    keys = {f.name: Key(kinds[types[f.name]], f.default) for f in dataclasses.fields(cls)}
    return _build(_get(raw, name, "object", default={}), name, keys, cls)


def _parse_domain(raw: dict, cfg) -> DomainSpec:
    def programmatic():
        raise ConfigError("domain kind 'custom_mask' is programmatic only; "
                          "configs must use a named kind")

    ndim = cfg.params.N
    return _union(raw, "domain", "kind", {
        "full_space": ({}, lambda: DomainSpec.full_space(ndim)),
        "half_space": ({"anchor": "point"}, DomainSpec.half_space),
        "exterior_cube": ({"anchor": "point", "half_edge": "number"},
                          DomainSpec.exterior_cube),
        "slit": ({"anchor": "point", "length": Key("length", math.inf)}, DomainSpec.slit),
        "power_cusp": ({"anchor": "point", "exponent": "number"}, DomainSpec.power_cusp),
        "cantor_obstacle": ({"anchor": "point", "level": "integer", "ratio": "number"},
                            DomainSpec.cantor_obstacle),
        "custom_mask": ({}, programmatic),
    }, ndim)


def _parse_times(raw: dict, cfg) -> np.ndarray:
    grid_h, p = cfg.values["grid_h"], cfg.params.p
    return _union(raw, "time", "mode", {
        "uniform": ({"T": "number", "steps": "integer"}, pde.uniform_times),
        "intrinsic": ({"T": "number", "omega": Key("number", 1.0)},
                      lambda T, omega: pde.intrinsic_times(T, grid_h, p, omega)),
    }, cfg.params.N)


def _parse_datum(raw: dict, cfg) -> pde.BoundaryDatum:
    params, domain, box = cfg.params, cfg.values["domain"], cfg.values["box"]

    def ramped_distance(scale, floor, ramp_time):
        if domain.kind not in DISTANCE_KINDS:
            raise ConfigError(f"datum kind 'ramped_distance' does not support domain "
                              f"kind {domain.kind!r}")

        def ramped(pts, t):
            dist = sup_distance_to_obstacle(domain, pts, box)
            profile = np.clip(dist / scale, 0.0, 1.0)
            return profile * (floor + (1.0 - floor) * min(t / ramp_time, 1.0))

        return pde.BoundaryDatum("ramped_distance", ramped, modulus="lipschitz in x and t")

    def barenblatt(t_offset, mass_scale):
        if params.N != 1:
            raise ConfigError("datum kind 'barenblatt' needs N=1")
        return pde.BoundaryDatum(
            "barenblatt", lambda pts, t: pde.barenblatt(pts, t + t_offset, params.p,
                                                        mass_scale),
            modulus="self-similar source profile")

    axis = (lambda v: 0 <= v < params.N, f"lie in [0, {params.N - 1}]")
    return _union(raw, "datum", "kind", {
        "constant": ({"value": "number"}, lambda value: pde.BoundaryDatum(
            "constant", lambda pts, t: np.full(len(pts), value), modulus="constant")),
        "linear": ({"axis": Key("integer", 0, axis), "slope": Key("number", 1.0),
                    "offset": Key("number", 0.0)},
                   lambda axis, slope, offset: pde.BoundaryDatum(
                       "linear", lambda pts, t: offset + slope * pts[:, axis],
                       modulus="lipschitz in x, constant in t")),
        "time_linear": ({"rate": Key("number", 1.0), "offset": Key("number", 0.0)},
                        lambda rate, offset: pde.BoundaryDatum(
                            "time_linear",
                            lambda pts, t: np.full(len(pts), offset + rate * t),
                            modulus="constant in x, lipschitz in t")),
        "ramped_distance": ({"scale": _POSITIVE_NUMBER, "ramp_time": _POSITIVE_NUMBER,
                             "floor": Key("number", 0.0, _FRACTION)}, ramped_distance),
        "barenblatt": ({"t_offset": Key("number", 1.0, _POSITIVE),
                        "mass_scale": Key("number", 1.0, _POSITIVE)}, barenblatt),
    }, params.N)


def _parse_snapshot_steps(raw: dict, cfg) -> list[int]:
    n_steps, stride = len(cfg.values["time"]) - 1, cfg.scheme.store_stride
    kept = pde.kept_steps(n_steps, stride)
    steps = _get(raw, "snapshot_steps", "array", default=[n_steps])
    for step in steps:
        if isinstance(step, bool) or not isinstance(step, int):
            raise ConfigError("snapshot_steps must be an array of integers")
        if step not in kept:
            raise ConfigError(f"snapshot_steps: step {step} is not stored; a run stores "
                              f"0, {n_steps} and the multiples of {stride}")
    return steps


def _parse_c_bar(raw: dict, cfg) -> tuple[int | None, float]:
    """(lambda, c_bar): the grid ratio given, or the smallest admissible one."""
    c_bar = _field(raw, "c_bar", Key("number", None, _OPEN_FRACTION), "", 0)
    if c_bar is None:
        return wiener.choose_c_bar(cfg.params)
    return wiener.grid_lambda(c_bar), c_bar


def _parse_profile(raw: dict, cfg) -> wiener.CapacityProfile:
    def of_deltas(R_o, deltas):
        return wiener.CapacityProfile(R_o, cfg.values["c_bar"][1], cfg.params.p, deltas)

    def seeded(R_o, depth, low, high, seed):
        if not 0.0 < low <= high <= 1.0:
            raise ConfigError(f"profile bounds need 0 < low <= high <= 1, "
                              f"got [{low}, {high}]")
        return of_deltas(R_o, np.random.default_rng(seed).uniform(low, high, depth))

    depth = Key("integer", bound=_POSITIVE)
    return _union(raw, "profile", "mode", {
        "constant": ({"R_o": "number", "depth": depth,
                      "value": Key("number", bound=_FRACTION)},
                     lambda R_o, depth, value: of_deltas(R_o, [value] * depth)),
        "list": ({"R_o": "number", "deltas": "numbers"}, of_deltas),
        "seeded": ({"R_o": "number", "depth": depth, "low": "number", "high": "number",
                    "seed": Key("integer", cfg.seed)}, seeded),
    }, cfg.params.N)


def _parse_t_o(raw: dict, cfg) -> float:
    final = float(cfg.values["time"][-1])
    within = (lambda v: 0.0 < v <= final * (1.0 + 1e-12), f"lie in (0, {final}]")
    return _field(raw, "t_o", Key("number", bound=within), "", 0)


def _parse_realize(raw: dict, cfg) -> dict | None:
    """The keyword arguments of the R_o search, or None for a given R_o."""
    if ("R_o" in raw) == ("realize" in raw):
        raise ConfigError("give exactly one of 'R_o' and 'realize'")
    if "realize" not in raw:
        return None
    return _build(_get(raw, "realize", "object"), "realize",
                  {"r_max": Key("number", 1.0), "max_halvings": Key("integer", 20)}, dict)


def _probe_radii(given, r_o: float, c_bar: float, depth: int) -> list[float]:
    """The given probe radii, or R_o/2 ... R_o/16, each checked to lie in the
    profile's range [c_bar**(depth-1) R_o, R_o)."""
    radii = given or [r_o * 0.5 ** (j + 1) for j in range(4)]
    deepest = c_bar ** (depth - 1) * r_o
    for rho in radii:
        if not deepest * (1.0 - 1e-12) <= rho < r_o:
            raise ConfigError(f"probe radius {rho} outside the profile range "
                              f"[{deepest}, {r_o}); adjust depth or probe_radii")
    return radii


def _parse_probe_radii(raw: dict, cfg):
    """The given probe radii or None, checked here when R_o is given and by
    the `realize` stage when it is searched."""
    given = _get(raw, "probe_radii", "numbers", default=None)
    if cfg.values["R_o"] is not None:
        _probe_radii(given, cfg.values["R_o"], cfg.values["c_bar"][1], cfg.values["depth"])
    return given


def _parse_synthetic_delta(raw: dict, cfg):
    """radii -> deltas in place of the capacity computation, or None."""
    if "synthetic_delta" not in raw:
        return None
    return _union(raw, "synthetic_delta", "mode", {
        "constant": ({"value": Key("number", bound=_FRACTION)},
                     lambda value: lambda radii: [value] * len(radii)),
        "power": ({"coeff": _POSITIVE_NUMBER, "exponent": _POSITIVE_NUMBER},
                  lambda coeff, exponent: lambda radii: [min(1.0, coeff * rho ** exponent)
                                                         for rho in radii]),
    }, cfg.params.N)


# probe request -> (function, its arguments after the field as declared keys)
_PROBES = {
    "harnack": (probes.weak_harnack_probe, {"y": "point", "s": "number",
                                            "rho": "number", "c": Key("number", 1.0)}),
    "spreading": (probes.spreading_probe, {"y": "point", "rho": "number",
                                           "t_bar": "number", "k": "number"}),
}


def _parse_probes(raw: dict, cfg) -> dict:
    """probe name -> its arguments after the field, for each requested probe."""
    obj = _get(raw, "probes", "object", default={})
    _no_unknown(obj, _PROBES, "probes")
    return {name: _build(_get(obj, name, "object", "probes"), f"probes.{name}", keys,
                         lambda **kw: tuple(kw.values()), cfg.params.N)
            for name, (_, keys) in _PROBES.items() if name in obj}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config, ready for the handlers: the common sections, the
    command-line settings, and `values`, the command's own keys by name."""

    raw: dict
    params: StructureParams
    solver: capacity.SolverConfig
    scheme: pde.SchemeConfig
    out_dir: str
    workers: int
    seed: int
    values: dict


def parse_experiment(raw: dict, command: str, out_dir: str, workers: int,
                     seed: int) -> ExperimentConfig:
    """Read and check the whole config of `command`; runs no computation."""
    keys = _COMMANDS[command].keys
    _no_unknown(raw, _COMMON_KEYS | set(keys))
    params = parse_params(raw)
    if workers < 1:
        raise ConfigError(f"--workers must be positive, got {workers}")
    solver = parse_section(raw, "solver", capacity.SolverConfig)
    scheme = parse_section(raw, "scheme", pde.SchemeConfig)
    cfg = ExperimentConfig(raw, params, solver, scheme, out_dir, workers, seed, {})
    for key, spec in keys.items():
        cfg.values[key] = spec(raw, cfg) if callable(spec) else \
            _field(raw, key, spec, "", params.N)
    return cfg


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    return obj


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(int(value)) if isinstance(value, np.integer) else str(value)


def _write_rows(path: str, raw: dict, header_line: str, sep: str, rows) -> None:
    echo = "# config: " + json.dumps(_jsonable(raw), sort_keys=True, separators=(",", ":"))
    lines = [echo, header_line] + [sep.join(_fmt(v) for v in row) for row in rows]
    atomic_write(path, lines)


def write_csv(path: str, raw: dict, header: list[str], rows) -> None:
    _write_rows(path, raw, ",".join(header), ",", rows)


def write_plot_data(path: str, raw: dict, header: list[str], rows) -> None:
    """Whitespace-separated columns with '#' comments; gnuplot reads it as is."""
    _write_rows(path, raw, "# " + " ".join(header), " ", rows)


def write_report(path: str, report: dict) -> None:
    """The run record: echoed config, versions, wall-clock timings (the only
    nondeterministic part) and the result sections."""
    atomic_write(path, [json.dumps(_jsonable(report), sort_keys=True, indent=2)])


# -- the stage runner and the subcommand handlers -----------------------------

def run_stages(handler: Callable, cfg: ExperimentConfig) -> dict:
    """Run `handler(cfg, stage, report)`, then the `write` stage.

    `stage(name, fn)` times fn() and turns its exceptions into a PipelineError
    naming the stage; the report is then written with the sections finished so
    far and `error`.  The handler returns its tables, each (name, header,
    rows, plot) for name.csv and, with plot, name.dat, and the solved field
    whose `snapshot_steps` the stage saves, or None.
    """
    import capflow
    report = {"config": cfg.raw, "timings": {}, "versions": {
        "package": capflow.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__}}
    path = os.path.join(cfg.out_dir, "report.json")

    def stage(name: str, fn: Callable):
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        finally:
            report["timings"][name] = time.perf_counter() - t0

    def write(tables: list, field_obj: pde.SpaceTimeField | None) -> None:
        for name, header, rows, plot in tables:
            out = os.path.join(cfg.out_dir, name)
            write_csv(out + ".csv", cfg.raw, header, rows)
            if plot:
                write_plot_data(out + ".dat", cfg.raw, header, rows)
        for step in cfg.values["snapshot_steps"] if field_obj else ():
            pde.save_snapshot(field_obj, step,
                              os.path.join(cfg.out_dir, f"field_step{step}.csv"))
        write_report(path, report)

    try:
        outputs = handler(cfg, stage, report)
        stage("write", lambda: write(*outputs))
    except PipelineError as exc:
        report["error"] = {"stage": exc.stage, "message": str(exc.cause)}
        for attr in ("step_index", "last_energy"):
            if getattr(exc.cause, attr, None) is not None:
                report["error"][attr] = getattr(exc.cause, attr)
        write_report(path, report)
        raise
    return report


_PROFILE_HEADER = ["index", "rho", "delta", "A", "wiener_partial"]


def _profile_rows(profile: wiener.CapacityProfile) -> list[tuple]:
    return [(i, rho, d, a, wiener.wiener_sum(profile, 0, i))
            for i, (rho, d, a) in enumerate(zip(profile.radii, profile.deltas, profile.A))]


def cmd_capacity(cfg: ExperimentConfig, stage: Callable, report: dict):
    """Condenser capacities of K_rho(x_o) \\ E and the full cube, per radius."""
    radii = cfg.values["radii"]
    table = stage("capacity", lambda: capacity.DeltaMemo(
        cfg.values["domain"], cfg.values["x_o"], cfg.params, cfg.solver,
        cfg.workers).rows(radii))
    rows = [(rho, cap_obs.value, cap_full.value, val,
             cap_obs.iterations + cap_full.iterations)
            for rho, (val, cap_obs, cap_full) in zip(radii, table)]
    header = ["rho", "cap_obstacle", "cap_full", "delta", "iters"]
    report["capacity_table"] = [dict(zip(header, row)) for row in rows]
    return [("capacity", header, rows, True)], None


def cmd_delta_profile(cfg: ExperimentConfig, stage: Callable, report: dict):
    """Relative capacity profile down the geometric radius grid, plus the
    finite-sample divergence diagnostic."""
    values = cfg.values
    lam, c_bar = values["c_bar"]
    domain, x_o = values["domain"], values["x_o"]
    profile = stage("profile", lambda: wiener.build_profile(
        domain, x_o, values["R_o"], c_bar, values["depth"], cfg.params,
        capacity.DeltaMemo(domain, x_o, cfg.params, cfg.solver, cfg.workers)))
    rows = _profile_rows(profile)
    diag = wiener.is_wiener_point(profile) if values["depth"] >= 4 else None
    report["profile"] = {
        "R_o": values["R_o"], "c_bar": c_bar, "lambda": lam,
        "entries": [dict(zip(_PROFILE_HEADER, row)) for row in rows],
        "wiener_diagnostic": diag and dataclasses.asdict(diag),
    }
    return [("profile", _PROFILE_HEADER, rows, True)], None


def cmd_cascade(cfg: ExperimentConfig, stage: Callable, report: dict):
    """Symbolic oscillation cascade over a synthetic capacity profile."""
    profile = cfg.values["profile"]
    casc = stage("cascade", lambda: wiener.oscillation_cascade(
        cfg.values["mu_o"], profile, cfg.params, cfg.values["epsilon"]))
    rows = [(rho, wiener.wiener_integral(profile, rho), bound, casc.branch,
             casc.truncated) for rho, bound in casc.envelope_at]
    report["cascade"] = casc.to_dict()
    report["profile"] = {"R_o": profile.R_o, "c_bar": profile.c_bar,
                         "deltas": profile.deltas}
    header = ["rho", "wiener_sum", "envelope", "branch", "truncated"]
    return [("envelope", header, rows, True)], None


def cmd_solve(cfg: ExperimentConfig, stage: Callable, report: dict):
    """One forward run of the degenerate diffusion, with energy table and
    snapshot output."""
    values = cfg.values
    grid = stage("grid", lambda: pde.make_grid(values["domain"], values["box"],
                                               values["grid_h"], values["time"]))
    field_obj = stage("solve", lambda: pde.solve(grid, values["datum"], cfg.params.p,
                                                 cfg.scheme))
    rows = [(step, float(grid.times[step]), float(en))
            for step, en in zip(field_obj.stored_steps, pde.spatial_energy(field_obj))]
    header = ["step", "time", "energy"]
    report["solve"] = {
        "shape": list(grid.shape), "h": grid.h, "n_steps": grid.n_steps,
        "datum": {"name": values["datum"].name, "modulus": values["datum"].modulus},
        "inside_nodes": int(grid.inside.sum()),
        "energy_table": [dict(zip(header, row)) for row in rows],
        "snapshots": [f"field_step{step}.csv" for step in values["snapshot_steps"]],
    }
    return [("energy", header, rows, True)], field_obj


def cmd_verify(cfg: ExperimentConfig, stage: Callable, report: dict):
    """End-to-end pipeline: capacity profile, PDE solve, oscillation
    measurements, cascade, and envelope regression at one boundary point."""
    values, params, p = cfg.values, cfg.params, cfg.params.p
    domain, x_o, t_o, epsilon = values["domain"], values["x_o"], values["t_o"], values["epsilon"]
    lam, c_bar = values["c_bar"]
    delta_fn = values["synthetic_delta"] or capacity.DeltaMemo(domain, x_o, params,
                                                               cfg.solver, cfg.workers)
    report["constants"] = stage("constants", lambda: {
        "lambda": lam, "c_bar": c_bar,
        "values": {k: getattr(params.constants, k) for k in OVERRIDABLE_CONSTANTS}})

    def realize():
        r_o = values["R_o"]
        if values["realize"] is not None:
            r_o = wiener.realize_R_o_epsilon(t_o, params, epsilon, delta_fn,
                                             **values["realize"])
        return r_o, _probe_radii(values["probe_radii"], r_o, c_bar, values["depth"])

    r_o, radii = stage("realize", realize)
    report["realize"] = {"R_o": r_o, "epsilon": epsilon,
                         "mode": "explicit" if values["realize"] is None else "searched"}
    profile = stage("profile", lambda: wiener.build_profile(
        domain, x_o, r_o, c_bar, values["depth"], params, delta_fn))
    prof_rows = _profile_rows(profile)
    report["profile"] = {"R_o": r_o, "c_bar": c_bar, "entries": [
        dict(zip(_PROFILE_HEADER, row)) for row in prof_rows]}

    def solve():
        grid = pde.make_grid(domain, values["box"], values["grid_h"], values["time"])
        return grid, pde.solve(grid, values["datum"], p, cfg.scheme)

    grid, field_obj = stage("solve", solve)

    def measure():
        delta_ro = float(profile.deltas[0])
        window_depth = wiener.window_depth(params, delta_ro, r_o, epsilon)
        region, t_lo = Cube(x_o, 2.0 * r_o), t_o - window_depth
        omega_o = pde.oscillation_over(field_obj, region, t_lo, t_o)
        if omega_o <= 0.0:
            raise ValueError("solution has zero oscillation on the reference "
                             "cylinder; the envelope comparison is vacuous")
        osc_g = pde.osc_g_on_lateral(grid, values["datum"], region, t_lo, t_o)
        return {"delta_Ro": delta_ro, "window_depth": window_depth,
                "depth_feasible_at_t_o": window_depth <= t_o, "omega_o": omega_o,
                "osc_g": osc_g, "measured": [
                    {"rho": rho, "osc": pde.oscillation(field_obj, x_o, t_o, rho, omega_o)}
                    for rho in radii]}

    report["measure"] = stage("measure", measure)
    omega_o, osc_g = report["measure"]["omega_o"], report["measure"]["osc_g"]
    measured = [(m["rho"], m["osc"]) for m in report["measure"]["measured"]]
    casc = stage("cascade", lambda: wiener.oscillation_cascade(
        omega_o, profile, params, epsilon))
    report["cascade"] = casc.to_dict()

    def regression():
        env = wiener.EnvelopeParams(omega_o, osc_g, epsilon, r_o, params)
        fit = probes.envelope_regression(measured, profile, env)
        return fit, [(rho, wiener.wiener_integral(profile, rho), osc,
                      wiener.decay_envelope(env, profile, rho)) for rho, osc in measured]

    fit, env_rows = stage("regression", regression)
    report["regression"] = dataclasses.asdict(fit)
    if values["probes"]:
        report["probes"] = stage("probes", lambda: {
            name: dataclasses.asdict(_PROBES[name][0](field_obj, *args))
            for name, args in values["probes"].items()})
    env_header = ["rho", "wiener_sum", "osc", "envelope"]
    return [("profile", _PROFILE_HEADER, prof_rows, False),
            ("envelope", env_header, env_rows, True)], field_obj


class Command(NamedTuple):
    help: str
    keys: dict      # config key -> Key, or a reader(raw, cfg) of the keys read so far
    handler: Callable


_SOLVE_KEYS = {
    "domain": _parse_domain,
    "box": lambda raw, cfg: _build(_get(raw, "box", "object"), "box", {
        "center": "point", "half_edge": "number"}, Cube, cfg.params.N),
    "grid_h": _POSITIVE_NUMBER,
    "time": _parse_times, "datum": _parse_datum, "snapshot_steps": _parse_snapshot_steps,
}

_COMMANDS = {
    "capacity": Command(
        "condenser capacities and relative capacity over radii",
        {"domain": _parse_domain, "x_o": "point",
         "radii": Key("numbers", bound=(lambda v: min(v) > 0.0, "be positive"))},
        cmd_capacity),
    "delta-profile": Command(
        "capacity profile down a geometric radius grid",
        {"domain": _parse_domain, "x_o": "point", "R_o": _POSITIVE_NUMBER,
         "depth": Key("integer", bound=_POSITIVE), "c_bar": _parse_c_bar},
        cmd_delta_profile),
    "cascade": Command("oscillation cascade over a synthetic profile", {
        "mu_o": _POSITIVE_NUMBER, "epsilon": Key("number", bound=_OPEN_FRACTION),
        "c_bar": _parse_c_bar, "profile": _parse_profile}, cmd_cascade),
    "solve": Command("one forward run of the degenerate diffusion", _SOLVE_KEYS,
                     cmd_solve),
    "verify": Command(
        "end-to-end envelope verification at a boundary point",
        {**_SOLVE_KEYS, "x_o": "point", "t_o": _parse_t_o,
         "epsilon": Key("number", bound=_OPEN_FRACTION),
         "depth": Key("integer", bound=(lambda v: v >= 2, "be at least 2")),
         "c_bar": _parse_c_bar, "R_o": Key("number", None, _POSITIVE),
         "realize": _parse_realize, "probe_radii": _parse_probe_radii,
         "synthetic_delta": _parse_synthetic_delta, "probes": _parse_probes},
        cmd_verify),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capflow",
        description="Capacity profiles, decay envelopes, and degenerate "
                    "diffusion experiments on rough domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--workers", type=int, default=1,
                         help="worker threads for radius fan-out")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for synthetic profile generation")
    args = parser.parse_args(argv)

    try:
        raw = load_config(args.config)
        cfg = parse_experiment(raw, args.command, args.out, args.workers, args.seed)
        run_stages(_COMMANDS[args.command].handler, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
