"""Experiment orchestration: declarative JSON configs in, CSV/JSON reports and
gnuplot-friendly plot data out.

Subcommands: capacity | delta-profile | cascade | solve | verify.
Exit codes: 0 success, 2 config error, 3 numeric failure.  All reports embed
the config they were produced from, the library versions, and wall-clock
timings per stage; everything except the timings is deterministic for a fixed
config and seed.  Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import math
import os
import platform
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np
import scipy

from . import capacity, pde, probes, wiener
from .errors import CapflowError, ConfigError, PipelineError
from .geometry import DISTANCE_KINDS, Cube, DomainSpec, sup_distance_to_obstacle
from .params import OVERRIDABLE_CONSTANTS, StructureParams, make_params

_MISSING = object()


# -- config access with dotted-path error messages --------------------------

def _path(parent: str, key: str) -> str:
    return f"{parent}.{key}" if parent else key


def _fetch(obj: dict, key: str, default, parent: str):
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"missing required key '{_path(parent, key)}'")
        return default
    return obj[key]


def _num(obj: dict, key: str, parent: str = "", default=_MISSING) -> float:
    val = _fetch(obj, key, default, parent)
    if val is default and key not in obj:
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"key '{_path(parent, key)}' must be a number, "
                          f"got {type(val).__name__}")
    return float(val)


def _int(obj: dict, key: str, parent: str = "", default=_MISSING) -> int:
    val = _fetch(obj, key, default, parent)
    if val is default and key not in obj:
        return val
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"key '{_path(parent, key)}' must be an integer, "
                          f"got {type(val).__name__}")
    return val


def _str(obj: dict, key: str, parent: str = "", default=_MISSING) -> str:
    val = _fetch(obj, key, default, parent)
    if val is default and key not in obj:
        return val
    if not isinstance(val, str):
        raise ConfigError(f"key '{_path(parent, key)}' must be a string, "
                          f"got {type(val).__name__}")
    return val


def _dict(obj: dict, key: str, parent: str = "", default=_MISSING) -> dict:
    val = _fetch(obj, key, default, parent)
    if val is default and key not in obj:
        return val
    if not isinstance(val, dict):
        raise ConfigError(f"key '{_path(parent, key)}' must be an object, "
                          f"got {type(val).__name__}")
    return val


def _list(obj: dict, key: str, parent: str = "", default=_MISSING) -> list:
    val = _fetch(obj, key, default, parent)
    if val is default and key not in obj:
        return val
    if not isinstance(val, list):
        raise ConfigError(f"key '{_path(parent, key)}' must be an array, "
                          f"got {type(val).__name__}")
    return val


def _point(obj: dict, key: str, ndim: int, parent: str = "") -> tuple[float, ...]:
    val = _list(obj, key, parent)
    if len(val) != ndim or any(isinstance(v, bool) or not isinstance(v, (int, float))
                               for v in val):
        raise ConfigError(f"key '{_path(parent, key)}' must be an array of "
                          f"{ndim} numbers, got {val!r}")
    return tuple(float(v) for v in val)


def _num_list(obj: dict, key: str, parent: str = "") -> list[float]:
    val = _list(obj, key, parent)
    if not val or any(isinstance(v, bool) or not isinstance(v, (int, float))
                      for v in val):
        raise ConfigError(f"key '{_path(parent, key)}' must be a nonempty "
                          "array of numbers")
    return [float(v) for v in val]


def _no_unknown(obj: dict, allowed, parent: str = "") -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{_path(parent, key)}'")


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
    version = _int(raw, "schema_version")
    if version != 1:
        raise ConfigError(f"unsupported schema_version {version}; this build reads 1")
    return raw


# -- shared sections ---------------------------------------------------------

_COMMON_KEYS = {"schema_version", "p", "N", "constants", "solver", "scheme", "domain"}

_CMD_KEYS = {
    "capacity": {"x_o", "radii"},
    "delta-profile": {"x_o", "R_o", "depth", "c_bar"},
    "cascade": {"mu_o", "epsilon", "profile", "c_bar"},
    "solve": {"box", "grid_h", "time", "datum", "snapshot_steps"},
    "verify": {"x_o", "t_o", "epsilon", "R_o", "realize", "depth", "probe_radii",
               "synthetic_delta", "box", "grid_h", "time", "datum",
               "snapshot_steps", "probes", "c_bar"},
}

_DOMAIN_FREE = {"cascade"}


def parse_params(raw: dict) -> StructureParams:
    p = _num(raw, "p")
    n = _int(raw, "N")
    overrides = {}
    cobj = _dict(raw, "constants", default={})
    _no_unknown(cobj, OVERRIDABLE_CONSTANTS, "constants")
    for key in cobj:
        overrides[key] = _num(cobj, key, "constants")
    try:
        return make_params(p, n, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_domain(raw: dict, ndim: int) -> DomainSpec:
    obj = _dict(raw, "domain")
    kind = _str(obj, "kind", "domain")
    try:
        if kind == "full_space":
            _no_unknown(obj, {"kind"}, "domain")
            return DomainSpec.full_space(ndim)
        if kind == "half_space":
            _no_unknown(obj, {"kind", "anchor"}, "domain")
            return DomainSpec.half_space(_point(obj, "anchor", ndim, "domain"))
        if kind == "exterior_cube":
            _no_unknown(obj, {"kind", "anchor", "half_edge"}, "domain")
            return DomainSpec.exterior_cube(_point(obj, "anchor", ndim, "domain"),
                                            _num(obj, "half_edge", "domain"))
        if kind == "slit":
            _no_unknown(obj, {"kind", "anchor", "length"}, "domain")
            length = obj.get("length", math.inf)
            if isinstance(length, str):
                if length != "inf":
                    raise ConfigError(f"key 'domain.length' must be a number or "
                                      f"\"inf\", got {length!r}")
                length = math.inf
            return DomainSpec.slit(_point(obj, "anchor", ndim, "domain"), float(length))
        if kind == "power_cusp":
            _no_unknown(obj, {"kind", "anchor", "exponent"}, "domain")
            return DomainSpec.power_cusp(_point(obj, "anchor", ndim, "domain"),
                                         _num(obj, "exponent", "domain"))
        if kind == "cantor_obstacle":
            _no_unknown(obj, {"kind", "anchor", "level", "ratio"}, "domain")
            return DomainSpec.cantor_obstacle(_point(obj, "anchor", ndim, "domain"),
                                              _int(obj, "level", "domain"),
                                              _num(obj, "ratio", "domain"))
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc
    if kind == "custom_mask":
        raise ConfigError("domain kind 'custom_mask' is programmatic only; "
                          "configs must use a named kind")
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_section(raw: dict, name: str, cls):
    """Read the optional object `name` into the config dataclass `cls`; each
    key's type and default come from the dataclass fields."""
    obj = _dict(raw, name, default={})
    keys = fields(cls)
    _no_unknown(obj, {f.name for f in keys}, name)
    types = get_type_hints(cls)
    read = {int: _int, float: _num}
    try:
        return cls(**{f.name: read[types[f.name]](obj, f.name, name, f.default)
                      for f in keys})
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed common sections of a config file, ready for the handlers."""

    raw: dict
    params: StructureParams
    solver: capacity.SolverConfig
    scheme: pde.SchemeConfig
    domain: DomainSpec | None
    out_dir: str
    workers: int
    seed: int


def parse_experiment(raw: dict, command: str, out_dir: str, workers: int,
                     seed: int) -> ExperimentConfig:
    _no_unknown(raw, _COMMON_KEYS | _CMD_KEYS[command])
    params = parse_params(raw)
    domain = None
    if command not in _DOMAIN_FREE:
        domain = parse_domain(raw, params.N)
    if workers < 1:
        raise ConfigError(f"--workers must be positive, got {workers}")
    return ExperimentConfig(
        raw=raw, params=params, solver=parse_section(raw, "solver", capacity.SolverConfig),
        scheme=parse_section(raw, "scheme", pde.SchemeConfig), domain=domain,
        out_dir=out_dir, workers=workers, seed=seed)


# -- report assembly and atomic output ---------------------------------------

@dataclass
class RunReport:
    """Self-contained run record: echoed config, versions, result sections,
    and wall-clock timings (the only nondeterministic part)."""

    config: dict
    versions: dict
    sections: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    error: dict | None = None

    def to_dict(self) -> dict:
        out = {"config": self.config, "versions": self.versions,
               "timings": self.timings}
        out.update(self.sections)
        if self.error is not None:
            out["error"] = self.error
        return out


def _versions() -> dict:
    import capflow
    return {"package": capflow.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _config_echo_line(raw: dict) -> str:
    return "# config: " + json.dumps(_jsonable(raw), sort_keys=True,
                                     separators=(",", ":"))


def write_csv(path: str, raw: dict, header: list[str], rows) -> None:
    lines = [_config_echo_line(raw), ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_plot_data(path: str, raw: dict, header: list[str], rows) -> None:
    """Whitespace-separated columns with '#' comments; gnuplot reads it as is."""
    lines = [_config_echo_line(raw), "# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_report(path: str, report: RunReport) -> None:
    _atomic_write(path, json.dumps(_jsonable(report.to_dict()), sort_keys=True,
                                   indent=2) + "\n")


# -- boundary datum builders --------------------------------------------------

def build_datum(raw: dict, cfg: ExperimentConfig, box: Cube) -> pde.BoundaryDatum:
    obj = _dict(raw, "datum")
    kind = _str(obj, "kind", "datum")
    if kind == "constant":
        _no_unknown(obj, {"kind", "value"}, "datum")
        value = _num(obj, "value", "datum")
        return pde.BoundaryDatum("constant", lambda pts, t: np.full(len(pts), value),
                                 modulus="constant")
    if kind == "linear":
        _no_unknown(obj, {"kind", "axis", "slope", "offset"}, "datum")
        axis = _int(obj, "axis", "datum", 0)
        if not 0 <= axis < cfg.params.N:
            raise ConfigError(f"datum.axis must lie in [0, {cfg.params.N - 1}], "
                              f"got {axis}")
        slope = _num(obj, "slope", "datum", 1.0)
        offset = _num(obj, "offset", "datum", 0.0)
        return pde.BoundaryDatum(
            "linear", lambda pts, t: offset + slope * pts[:, axis],
            modulus="lipschitz in x, constant in t")
    if kind == "time_linear":
        _no_unknown(obj, {"kind", "rate", "offset"}, "datum")
        rate = _num(obj, "rate", "datum", 1.0)
        offset = _num(obj, "offset", "datum", 0.0)
        return pde.BoundaryDatum(
            "time_linear", lambda pts, t: np.full(len(pts), offset + rate * t),
            modulus="constant in x, lipschitz in t")
    if kind == "ramped_distance":
        _no_unknown(obj, {"kind", "scale", "floor", "ramp_time"}, "datum")
        scale = _num(obj, "scale", "datum")
        floor = _num(obj, "floor", "datum", 0.0)
        ramp_time = _num(obj, "ramp_time", "datum")
        if not scale > 0.0 or not ramp_time > 0.0:
            raise ConfigError("datum.scale and datum.ramp_time must be positive")
        if not 0.0 <= floor <= 1.0:
            raise ConfigError(f"datum.floor must lie in [0, 1], got {floor}")
        domain = cfg.domain
        if domain.kind not in DISTANCE_KINDS:
            raise ConfigError(f"datum kind 'ramped_distance' does not support domain "
                              f"kind {domain.kind!r}")

        def ramped(pts, t):
            dist = sup_distance_to_obstacle(domain, pts, box)
            profile = np.clip(dist / scale, 0.0, 1.0)
            return profile * (floor + (1.0 - floor) * min(t / ramp_time, 1.0))

        return pde.BoundaryDatum("ramped_distance", ramped,
                                 modulus="lipschitz in x and t")
    if kind == "barenblatt":
        _no_unknown(obj, {"kind", "t_offset", "mass_scale"}, "datum")
        if cfg.params.N != 1:
            raise ConfigError("datum kind 'barenblatt' needs N=1")
        t_offset = _num(obj, "t_offset", "datum", 1.0)
        mass_scale = _num(obj, "mass_scale", "datum", 1.0)
        if not t_offset > 0.0 or not mass_scale > 0.0:
            raise ConfigError("datum.t_offset and datum.mass_scale must be positive")
        p = cfg.params.p
        return pde.BoundaryDatum(
            "barenblatt",
            lambda pts, t: pde.barenblatt(pts, t + t_offset, p, mass_scale),
            modulus="self-similar source profile")
    raise ConfigError(f"unknown datum kind {kind!r}")


def parse_box(raw: dict, ndim: int) -> Cube:
    obj = _dict(raw, "box")
    _no_unknown(obj, {"center", "half_edge"}, "box")
    try:
        return Cube(_point(obj, "center", ndim, "box"), _num(obj, "half_edge", "box"))
    except ValueError as exc:
        raise ConfigError(f"box: {exc}") from exc


def parse_times(raw: dict, grid_h: float, p: float) -> np.ndarray:
    obj = _dict(raw, "time")
    mode = _str(obj, "mode", "time")
    if mode == "uniform":
        _no_unknown(obj, {"mode", "T", "steps"}, "time")
        try:
            return pde.uniform_times(_num(obj, "T", "time"), _int(obj, "steps", "time"))
        except ValueError as exc:
            raise ConfigError(f"time: {exc}") from exc
    if mode == "intrinsic":
        _no_unknown(obj, {"mode", "T", "omega"}, "time")
        try:
            return pde.intrinsic_times(_num(obj, "T", "time"), grid_h, p,
                                       _num(obj, "omega", "time", 1.0))
        except ValueError as exc:
            raise ConfigError(f"time: {exc}") from exc
    raise ConfigError(f"unknown time mode {mode!r}")


def _resolve_c_bar(raw: dict, params: StructureParams) -> tuple[int | None, float]:
    by_hand = _num(raw, "c_bar", default=None)
    if by_hand is None:
        return wiener.choose_c_bar(params)
    if not 0.0 < by_hand < 1.0:
        raise ConfigError(f"c_bar must lie in (0, 1), got {by_hand}")
    lam = -math.log2(by_hand)
    return (round(lam) if abs(lam - round(lam)) < 1e-12 else None), by_hand


# -- subcommand handlers ------------------------------------------------------

def cmd_capacity(cfg: ExperimentConfig) -> RunReport:
    """Condenser capacities of K_rho(x_o) \\ E and the full cube, per radius."""
    raw = cfg.raw
    x_o = _point(raw, "x_o", cfg.params.N)
    radii = _num_list(raw, "radii")
    if any(r <= 0.0 for r in radii):
        raise ConfigError("radii must be positive")
    report = RunReport(raw, _versions())
    t0 = time.perf_counter()
    denominator = capacity.unit_denominator(cfg.params.N, cfg.params.p, cfg.solver)

    def one(rho: float):
        return capacity.delta_detailed(cfg.domain, x_o, rho, cfg.params, cfg.solver,
                                       denominator)

    if cfg.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(one, radii))
    else:
        results = [one(r) for r in radii]
    rows = []
    for rho, (val, cap_obs, cap_full) in zip(radii, results):
        rows.append((rho, cap_obs.value, cap_full.value, val,
                     cap_obs.iterations + cap_full.iterations))
    report.timings["capacity"] = time.perf_counter() - t0
    header = ["rho", "cap_obstacle", "cap_full", "delta", "iters"]
    write_csv(os.path.join(cfg.out_dir, "capacity.csv"), raw, header, rows)
    write_plot_data(os.path.join(cfg.out_dir, "capacity.dat"), raw, header, rows)
    report.sections["capacity_table"] = [dict(zip(header, row)) for row in rows]
    write_report(os.path.join(cfg.out_dir, "report.json"), report)
    return report


def cmd_delta_profile(cfg: ExperimentConfig) -> RunReport:
    """Relative capacity profile down the geometric radius grid, plus the
    finite-sample divergence diagnostic."""
    raw = cfg.raw
    x_o = _point(raw, "x_o", cfg.params.N)
    r_o = _num(raw, "R_o")
    depth = _int(raw, "depth")
    if not r_o > 0.0:
        raise ConfigError(f"R_o must be positive, got {r_o}")
    if depth < 1:
        raise ConfigError(f"depth must be positive, got {depth}")
    lam, c_bar = _resolve_c_bar(raw, cfg.params)
    report = RunReport(raw, _versions())
    t0 = time.perf_counter()
    profile = wiener.build_profile(cfg.domain, x_o, r_o, c_bar, depth, cfg.params,
                                   cfg.solver, cfg.workers)
    report.timings["profile"] = time.perf_counter() - t0
    rows = []
    for e in profile.entries:
        rows.append((e.index, e.rho, e.delta, e.A, wiener.wiener_sum(profile, 0, e.index)))
    header = ["index", "rho", "delta", "A", "wiener_partial"]
    write_csv(os.path.join(cfg.out_dir, "profile.csv"), raw, header, rows)
    write_plot_data(os.path.join(cfg.out_dir, "profile.dat"), raw, header, rows)
    diag = None
    if depth >= 4:
        d = wiener.is_wiener_point(profile)
        diag = {"verdict": d.verdict, "tail_slope": d.tail_slope,
                "window": list(d.window), "note": d.note}
    report.sections["profile"] = {
        "R_o": r_o, "c_bar": c_bar, "lambda": lam,
        "entries": [dict(zip(header, row)) for row in rows],
        "wiener_diagnostic": diag,
    }
    write_report(os.path.join(cfg.out_dir, "report.json"), report)
    return report


def _parse_synthetic_profile(raw: dict, params: StructureParams,
                             seed: int) -> wiener.CapacityProfile:
    obj = _dict(raw, "profile")
    mode = _str(obj, "mode", "profile")
    r_o = _num(obj, "R_o", "profile")
    if not r_o > 0.0:
        raise ConfigError(f"profile.R_o must be positive, got {r_o}")
    _, c_bar = _resolve_c_bar(raw, params)
    if mode == "constant":
        _no_unknown(obj, {"mode", "R_o", "depth", "value"}, "profile")
        depth = _int(obj, "depth", "profile")
        if depth < 1:
            raise ConfigError(f"profile.depth must be positive, got {depth}")
        value = _num(obj, "value", "profile")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"profile.value must lie in [0, 1], got {value}")
        deltas = [value] * depth
    elif mode == "list":
        _no_unknown(obj, {"mode", "R_o", "deltas"}, "profile")
        deltas = _num_list(obj, "deltas", "profile")
        if any(not 0.0 <= d <= 1.0 for d in deltas):
            raise ConfigError("profile.deltas entries must lie in [0, 1]")
    elif mode == "seeded":
        _no_unknown(obj, {"mode", "R_o", "depth", "low", "high", "seed"}, "profile")
        depth = _int(obj, "depth", "profile")
        if depth < 1:
            raise ConfigError(f"profile.depth must be positive, got {depth}")
        low = _num(obj, "low", "profile")
        high = _num(obj, "high", "profile")
        if not 0.0 < low <= high <= 1.0:
            raise ConfigError(f"profile bounds need 0 < low <= high <= 1, "
                              f"got [{low}, {high}]")
        rng = np.random.default_rng(_int(obj, "seed", "profile", seed))
        deltas = rng.uniform(low, high, depth).tolist()
    else:
        raise ConfigError(f"unknown profile mode {mode!r}")
    try:
        return wiener.CapacityProfile.from_deltas(r_o, c_bar, params.p, deltas)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from exc


def cmd_cascade(cfg: ExperimentConfig) -> RunReport:
    """Symbolic oscillation cascade over a synthetic capacity profile."""
    raw = cfg.raw
    mu_o = _num(raw, "mu_o")
    epsilon = _num(raw, "epsilon")
    profile = _parse_synthetic_profile(raw, cfg.params, cfg.seed)
    report = RunReport(raw, _versions())
    t0 = time.perf_counter()
    casc = wiener.oscillation_cascade(mu_o, profile, cfg.params, epsilon)
    report.timings["cascade"] = time.perf_counter() - t0
    rows = []
    for rho, bound in casc.envelope_at:
        rows.append((rho, wiener.wiener_integral(profile, rho), bound,
                     casc.branch, casc.truncated))
    header = ["rho", "wiener_sum", "envelope", "branch", "truncated"]
    write_csv(os.path.join(cfg.out_dir, "envelope.csv"), raw, header, rows)
    write_plot_data(os.path.join(cfg.out_dir, "envelope.dat"), raw, header, rows)
    report.sections["cascade"] = casc.to_dict()
    report.sections["profile"] = {
        "R_o": profile.R_o, "c_bar": profile.c_bar,
        "deltas": [e.delta for e in profile.entries],
    }
    write_report(os.path.join(cfg.out_dir, "report.json"), report)
    return report


def _build_grid_and_datum(cfg: ExperimentConfig):
    raw = cfg.raw
    box = parse_box(raw, cfg.params.N)
    grid_h = _num(raw, "grid_h")
    if not grid_h > 0.0:
        raise ConfigError(f"grid_h must be positive, got {grid_h}")
    times = parse_times(raw, grid_h, cfg.params.p)
    datum = build_datum(raw, cfg, box)
    grid = pde.make_grid(cfg.domain, box, grid_h, times)
    return grid, datum


def _snapshot_steps(raw: dict, field_obj: pde.SpaceTimeField) -> list[int]:
    steps = _list(raw, "snapshot_steps", default=None)
    if steps is None:
        return [field_obj.stored_steps[-1]]
    out = []
    for v in steps:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("snapshot_steps must be an array of integers")
        out.append(v)
    return out


def cmd_solve(cfg: ExperimentConfig) -> RunReport:
    """One forward run of the degenerate diffusion, with energy table and
    snapshot output."""
    raw = cfg.raw
    report = RunReport(raw, _versions())
    t0 = time.perf_counter()
    grid, datum = _build_grid_and_datum(cfg)
    report.timings["grid"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    field_obj = pde.solve(grid, datum, cfg.params.p, cfg.scheme)
    report.timings["solve"] = time.perf_counter() - t0
    energies = pde.spatial_energy(field_obj)
    rows = [(step, float(grid.times[step]), float(en))
            for step, en in zip(field_obj.stored_steps, energies)]
    header = ["step", "time", "energy"]
    write_csv(os.path.join(cfg.out_dir, "energy.csv"), raw, header, rows)
    write_plot_data(os.path.join(cfg.out_dir, "energy.dat"), raw, header, rows)
    snaps = []
    for step in _snapshot_steps(raw, field_obj):
        path = os.path.join(cfg.out_dir, f"field_step{step}.csv")
        pde.save_snapshot(field_obj, step, path)
        snaps.append(path)
    report.sections["solve"] = {
        "shape": list(grid.shape), "h": grid.h, "n_steps": grid.n_steps,
        "datum": {"name": datum.name, "modulus": datum.modulus},
        "inside_nodes": int(grid.inside.sum()),
        "energy_table": [dict(zip(header, row)) for row in rows],
        "snapshots": [os.path.basename(s) for s in snaps],
    }
    write_report(os.path.join(cfg.out_dir, "report.json"), report)
    return report


def _parse_synthetic_delta(raw: dict):
    obj = _dict(raw, "synthetic_delta", default=None)
    if obj is None:
        return None
    mode = _str(obj, "mode", "synthetic_delta")
    if mode == "constant":
        _no_unknown(obj, {"mode", "value"}, "synthetic_delta")
        value = _num(obj, "value", "synthetic_delta")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"synthetic_delta.value must lie in [0, 1], got {value}")
        return lambda rho: value
    if mode == "power":
        _no_unknown(obj, {"mode", "coeff", "exponent"}, "synthetic_delta")
        coeff = _num(obj, "coeff", "synthetic_delta")
        exponent = _num(obj, "exponent", "synthetic_delta")
        if not coeff > 0.0 or not exponent > 0.0:
            raise ConfigError("synthetic_delta coeff and exponent must be positive")
        return lambda rho: min(1.0, coeff * rho ** exponent)
    raise ConfigError(f"unknown synthetic_delta mode {mode!r}")


def _parse_probe_requests(raw: dict) -> dict:
    obj = _dict(raw, "probes", default={})
    _no_unknown(obj, {"harnack", "spreading"}, "probes")
    return obj


def _delta_memo(cfg: ExperimentConfig, x_o):
    """rho -> delta(rho) at x_o for one run: each radius is solved once, over
    one full-cube denominator solved on first use.  Safe to call from the
    profile's worker threads."""
    lock = threading.Lock()

    @functools.cache
    def denominator():
        return capacity.unit_denominator(cfg.params.N, cfg.params.p, cfg.solver)

    @functools.cache
    def delta_at(rho: float) -> float:
        with lock:
            den = denominator()
        return capacity.delta(cfg.domain, x_o, rho, cfg.params, cfg.solver, den)

    return delta_at


def cmd_verify(cfg: ExperimentConfig) -> RunReport:
    """End-to-end pipeline: capacity profile, PDE solve, oscillation
    measurements, cascade, and envelope regression at one boundary point.

    Any stage failure aborts with the stage name; sections finished before
    the failure are preserved in the partial report.
    """
    raw = cfg.raw
    params = cfg.params
    p = params.p
    x_o = _point(raw, "x_o", params.N)
    t_o = _num(raw, "t_o")
    epsilon = _num(raw, "epsilon")
    depth = _int(raw, "depth")
    if not t_o > 0.0:
        raise ConfigError(f"t_o must be positive, got {t_o}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if depth < 2:
        raise ConfigError(f"depth must be at least 2, got {depth}")
    if ("R_o" in raw) == ("realize" in raw):
        raise ConfigError("give exactly one of 'R_o' and 'realize'")
    probe_requests = _parse_probe_requests(raw)
    synthetic_fn = _parse_synthetic_delta(raw)
    delta_fn = synthetic_fn or _delta_memo(cfg, x_o)
    report = RunReport(raw, _versions())

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        finally:
            report.timings[name] = time.perf_counter() - t0

    try:
        lam, c_bar = stage("constants", lambda: _resolve_c_bar(raw, params))
        report.sections["constants"] = {
            "lambda": lam, "c_bar": c_bar,
            "values": {k: getattr(params.constants, k) for k in OVERRIDABLE_CONSTANTS},
        }

        def do_realize():
            if "realize" in raw:
                robj = _dict(raw, "realize")
                _no_unknown(robj, {"r_max", "max_halvings"}, "realize")
                r_max = _num(robj, "r_max", "realize", 1.0)
                halvings = _int(robj, "max_halvings", "realize", 20)
                r_o, eps = wiener.realize_R_o_epsilon(
                    t_o, cfg.domain, x_o, params, epsilon, cfg.solver,
                    r_max=r_max, max_halvings=halvings, delta_fn=delta_fn)
                return r_o, eps, "searched"
            r_o = _num(raw, "R_o")
            if not r_o > 0.0:
                raise ConfigError(f"R_o must be positive, got {r_o}")
            return r_o, epsilon, "explicit"

        r_o, epsilon, realize_mode = stage("realize", do_realize)
        report.sections["realize"] = {"R_o": r_o, "epsilon": epsilon,
                                      "mode": realize_mode}

        def do_profile():
            if synthetic_fn is not None:
                deltas = [synthetic_fn(c_bar ** i * r_o) for i in range(depth)]
                return wiener.CapacityProfile.from_deltas(r_o, c_bar, p, deltas)
            return wiener.build_profile(cfg.domain, x_o, r_o, c_bar, depth,
                                        params, cfg.solver, cfg.workers, delta_fn)

        profile = stage("profile", do_profile)
        prof_rows = [(e.index, e.rho, e.delta, e.A,
                      wiener.wiener_sum(profile, 0, e.index))
                     for e in profile.entries]
        prof_header = ["index", "rho", "delta", "A", "wiener_partial"]
        report.sections["profile"] = {
            "R_o": r_o, "c_bar": c_bar,
            "entries": [dict(zip(prof_header, row)) for row in prof_rows],
        }

        def do_solve():
            grid, datum = _build_grid_and_datum(cfg)
            if t_o > float(grid.times[-1]) * (1.0 + 1e-12):
                raise ValueError(f"t_o={t_o} exceeds the final grid time "
                                 f"{float(grid.times[-1])}")
            return grid, datum, pde.solve(grid, datum, p, cfg.scheme)

        grid, datum, field_obj = stage("solve", do_solve)

        def do_measure():
            delta_ro = float(profile.deltas[0])
            if delta_ro > 0.0:
                window_depth = (3.0 * params.constants.gamma_star
                                * delta_ro ** ((2.0 - p) / (p - 1.0))
                                * r_o ** (p - epsilon))
            else:
                window_depth = math.inf
            feasible = window_depth <= t_o
            omega_o = pde.oscillation_over(
                field_obj, Cube(x_o, 2.0 * r_o),
                t_o - window_depth if math.isfinite(window_depth) else 0.0, t_o)
            if omega_o <= 0.0:
                raise ValueError("solution has zero oscillation on the reference "
                                 "cylinder; the envelope comparison is vacuous")
            osc_g = pde.osc_g_on_lateral(grid, datum, x_o, t_o, r_o, params,
                                         epsilon, delta_ro)
            radii = _num_list(raw, "probe_radii") if "probe_radii" in raw else \
                [r_o * 0.5 ** (j + 1) for j in range(4)]
            deepest = profile.radii[-1]
            for rho in radii:
                if not deepest * (1.0 - 1e-12) <= rho < r_o:
                    raise ValueError(f"probe radius {rho} outside the profile "
                                     f"range [{deepest}, {r_o}); adjust depth "
                                     "or probe_radii")
            measured = [(rho, pde.oscillation(field_obj, x_o, t_o, rho, omega_o))
                        for rho in radii]
            return delta_ro, window_depth, feasible, omega_o, osc_g, measured

        delta_ro, window_depth, feasible, omega_o, osc_g, measured = \
            stage("measure", do_measure)
        report.sections["measure"] = {
            "delta_Ro": delta_ro, "window_depth": window_depth,
            "depth_feasible_at_t_o": feasible, "omega_o": omega_o, "osc_g": osc_g,
            "measured": [{"rho": r, "osc": o} for r, o in measured],
        }

        casc = stage("cascade", lambda: wiener.oscillation_cascade(
            omega_o, profile, params, epsilon))
        report.sections["cascade"] = casc.to_dict()

        def do_regression():
            env = wiener.EnvelopeParams(omega_o, osc_g, epsilon, r_o, params)
            fit = probes.envelope_regression(measured, profile, env)
            rows = []
            for rho, osc in measured:
                w = wiener.wiener_integral(profile, rho)
                bound = wiener.decay_envelope(env, profile, rho)
                rows.append((rho, w, osc, bound))
            return fit, rows

        fit, env_rows = stage("regression", do_regression)
        report.sections["regression"] = fit.to_dict()

        def do_probes():
            out = {}
            if "harnack" in probe_requests:
                hobj = _dict(probe_requests, "harnack", "probes")
                _no_unknown(hobj, {"y", "s", "rho", "c"}, "probes.harnack")
                res = probes.weak_harnack_probe(
                    field_obj, _point(hobj, "y", params.N, "probes.harnack"),
                    _num(hobj, "s", "probes.harnack"),
                    _num(hobj, "rho", "probes.harnack"),
                    _num(hobj, "c", "probes.harnack", 1.0))
                out["harnack"] = res.to_dict()
            if "spreading" in probe_requests:
                sobj = _dict(probe_requests, "spreading", "probes")
                _no_unknown(sobj, {"y", "rho", "t_bar", "k"}, "probes.spreading")
                res = probes.spreading_probe(
                    field_obj, _point(sobj, "y", params.N, "probes.spreading"),
                    _num(sobj, "rho", "probes.spreading"),
                    _num(sobj, "t_bar", "probes.spreading"),
                    _num(sobj, "k", "probes.spreading"))
                out["spreading"] = res.to_dict()
            return out

        if probe_requests:
            report.sections["probes"] = stage("probes", do_probes)

        def do_write():
            write_csv(os.path.join(cfg.out_dir, "profile.csv"), raw, prof_header,
                      prof_rows)
            env_header = ["rho", "wiener_sum", "osc", "envelope"]
            write_csv(os.path.join(cfg.out_dir, "envelope.csv"), raw, env_header,
                      env_rows)
            write_plot_data(os.path.join(cfg.out_dir, "envelope.dat"), raw,
                            env_header, env_rows)
            for step in _snapshot_steps(raw, field_obj):
                pde.save_snapshot(field_obj, step,
                                  os.path.join(cfg.out_dir, f"field_step{step}.csv"))
            write_report(os.path.join(cfg.out_dir, "report.json"), report)

        stage("write", do_write)
    except PipelineError as exc:
        report.error = {"stage": exc.stage, "message": str(exc.cause)}
        for attr in ("step_index", "last_energy"):
            value = getattr(exc.cause, attr, None)
            if value is not None:
                report.error[attr] = value
        write_report(os.path.join(cfg.out_dir, "report.json"), report)
        raise
    return report


_HANDLERS = {
    "capacity": cmd_capacity,
    "delta-profile": cmd_delta_profile,
    "cascade": cmd_cascade,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capflow",
        description="Capacity profiles, decay envelopes, and degenerate "
                    "diffusion experiments on rough domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "capacity": "condenser capacities and relative capacity over radii",
        "delta-profile": "capacity profile down a geometric radius grid",
        "cascade": "oscillation cascade over a synthetic profile",
        "solve": "one forward run of the degenerate diffusion",
        "verify": "end-to-end envelope verification at a boundary point",
    }
    for name, desc in descriptions.items():
        cmd = sub.add_parser(name, help=desc)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapflowError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
