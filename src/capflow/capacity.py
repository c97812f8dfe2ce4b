"""Elliptic condenser p-capacities on lattices, relative capacity, and the
parabolic (sliced) capacity.

The condenser value is the minimum of the discrete functional
sum_cells h**N |grad psi|^p over node fields with psi = 1 on the obstacle and
psi = 0 on and outside the boundary of the outer cube.  It starts from the
p = 2 minimizer and runs `lattice.minimize` with no mass term, so the recorded
energy history never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .geometry import (Cube, DomainSpec, IndicatorField, box_faces, lattice_nodes_per_axis,
                       rasterize_obstacle)
from .lattice import LatticeSystem, MinimizeConfig, minimize
from .params import StructureParams


@dataclass(frozen=True)
class SolverConfig(MinimizeConfig):
    """Condenser minimization settings and the delta() lattice size."""

    nodes_across: int = 33   # lattice nodes spanning the inner cube in delta()


@dataclass(frozen=True)
class CondenserProblem:
    """Obstacle marked on an inner lattice, grounded at the outer cube boundary."""

    obstacle: IndicatorField
    outer: Cube
    p: float
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.p < 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.obstacle.cube.ndim != self.outer.ndim:
            raise ValueError("obstacle and outer cube dimensions differ")


@dataclass(frozen=True)
class CapacityValue:
    """Condenser capacity with its solve diagnostics; value has units length**(N-p)."""

    value: float
    energy_history: tuple[float, ...]
    grid_h: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"capacity must be nonnegative, got {self.value}")
        hist = tuple(float(e) for e in self.energy_history)
        object.__setattr__(self, "energy_history", hist)
        if any(b > a for a, b in zip(hist, hist[1:])):
            raise ValueError("energy history must be nonincreasing")

    @property
    def iterations(self) -> int:
        return len(self.energy_history) - 1


def _embed_obstacle(problem: CondenserProblem) -> tuple[LatticeSystem, np.ndarray, np.ndarray]:
    """Place the obstacle lattice inside the outer lattice; return (system, fixed, values)."""
    obs = problem.obstacle
    h = obs.h
    ndim = obs.cube.ndim
    n = lattice_nodes_per_axis(problem.outer.half_edge, h)
    big_m = (n - 1) // 2
    small_m = (obs.nodes_per_axis - 1) // 2
    offsets = []
    for k in range(ndim):
        shift = (obs.cube.center[k] - problem.outer.center[k]) / h
        o = round(shift)
        if abs(o - shift) > 1e-9 * max(1.0, abs(shift)):
            raise ValueError("obstacle lattice is not aligned with the outer lattice")
        offsets.append(big_m - small_m + o)
    lo = min(offsets)
    hi = max(o + 2 * small_m for o in offsets)
    if lo < 0 or hi > 2 * big_m:
        raise ValueError("obstacle grid is not contained in the outer cube")

    fixed = box_faces((n,) * ndim)      # the outer boundary is grounded
    values = np.zeros((n,) * ndim, dtype=float)
    # plate at 1 on the obstacle nodes
    sub = tuple(slice(o, o + 2 * small_m + 1) for o in offsets)
    plate = np.zeros((n,) * ndim, dtype=bool)
    plate[sub] = obs.values
    on_rim = plate & fixed
    if on_rim.any():
        raise ValueError("obstacle touches the outer boundary; condenser plates "
                         "must be disjoint")
    fixed |= plate
    values[plate] = 1.0
    return LatticeSystem((n,) * ndim, h), fixed, values


def minimize_condenser(problem: CondenserProblem) -> tuple[np.ndarray, list[float]]:
    """Minimize from the p = 2 solution; return (minimizer, energy history)."""
    system, fixed, bvals = _embed_obstacle(problem)
    cfg = problem.solver
    psi = system.solve_dirichlet(np.ones(system.n_cells), fixed, bvals)   # p = 2 start
    try:
        psi, history = minimize(system, fixed, psi, problem.p, cfg)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"condenser minimization did not converge in {cfg.max_iter} iterations",
            last_energy=exc.last_energy) from None
    return psi.reshape(system.shape), history


def solve_condenser(problem: CondenserProblem) -> CapacityValue:
    """Discrete condenser p-capacity of the marked obstacle in the outer cube."""
    if not problem.obstacle.values.any():
        return CapacityValue(0.0, (0.0,), problem.obstacle.h)
    _, history = minimize_condenser(problem)
    return CapacityValue(history[-1], tuple(history), problem.obstacle.h)


def _check_nodes_across(na: int) -> None:
    if na < 17 or (na - 1) % 4 != 0:
        raise ValueError(f"nodes_across must be >= 17 and congruent to 1 mod 4, got {na}")


def unit_denominator(ndim: int, p: float, cfg: SolverConfig = SolverConfig()) -> CapacityValue:
    """cap(K_1(0), K_{3/2}(0)) on delta()'s lattice, h = 2 / (nodes_across - 1).

    At fixed nodes_across the full-cube condenser of delta() at any radius rho
    and centre is this lattice problem with lengths scaled by rho: the same
    iterates, and every energy scaled by rho**(N-p).
    """
    _check_nodes_across(cfg.nodes_across)
    h = 2.0 / (cfg.nodes_across - 1)
    center = (0.0,) * ndim
    return solve_condenser(CondenserProblem(IndicatorField.all_true(Cube(center, 1.0), h),
                                            Cube(center, 1.5), p, cfg))


def delta(domain: DomainSpec, x_o, rho: float, params: StructureParams,
          cfg: SolverConfig = SolverConfig(), denominator: CapacityValue | None = None
          ) -> float:
    """Relative capacity of K_rho(x_o) \\ E against the full cube K_rho(x_o).

    Both condensers are grounded at the boundary of K_{3 rho / 2}(x_o) on a
    shared lattice, so the ratio lies in [0, 1] up to solver noise.
    `denominator`, the `unit_denominator` of the same dimension, p and cfg,
    replaces the full-cube solve by a rescaling; see `delta_detailed`.
    """
    return delta_detailed(domain, x_o, rho, params, cfg, denominator)[0]


def delta_detailed(domain: DomainSpec, x_o, rho: float, params: StructureParams,
                   cfg: SolverConfig = SolverConfig(),
                   denominator: CapacityValue | None = None
                   ) -> tuple[float, CapacityValue, CapacityValue]:
    """delta() together with the numerator and denominator capacities.

    Without `denominator` the full-cube condenser is solved at this radius.
    With it, the returned denominator is its value and energy history times
    rho**(N-p), on this radius's grid spacing: bitwise the direct solve's at
    dyadic rho and integer p, and within a few units of round-off otherwise.
    Callers that need many radii solve `unit_denominator` once and pass it.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    na = cfg.nodes_across
    _check_nodes_across(na)
    h = 2.0 * rho / (na - 1)
    inner = Cube(tuple(x_o), rho)
    outer = Cube(tuple(x_o), 1.5 * rho)
    obstacle = rasterize_obstacle(domain, inner, h)
    if denominator is None:
        cap_full = solve_condenser(CondenserProblem(IndicatorField.all_true(inner, h),
                                                    outer, params.p, cfg))
    else:
        if denominator.grid_h != 2.0 / (na - 1):
            raise ValueError(f"denominator grid spacing {denominator.grid_h} does not "
                             f"match nodes_across {na}")
        scale = rho ** (inner.ndim - params.p)
        cap_full = CapacityValue(denominator.value * scale,
                                 tuple(e * scale for e in denominator.energy_history), h)
    if not obstacle.values.any():
        return 0.0, CapacityValue(0.0, (0.0,), h), cap_full
    cap_obs = solve_condenser(CondenserProblem(obstacle, outer, params.p, cfg))
    if cap_full.value <= 0.0:
        raise ValueError("degenerate denominator capacity")
    val = cap_obs.value / cap_full.value
    if val > 1.0:
        if val > 1.0 + 1e-8:
            raise ValueError(f"relative capacity {val} exceeds 1 beyond discretization noise")
        val = 1.0
    return val, cap_obs, cap_full


def parabolic_capacity(time_slices, outer: Cube, p: float,
                       cfg: SolverConfig = SolverConfig()) -> float:
    """Sliced parabolic capacity: trapezoid in time of per-slice condenser values.

    `time_slices` is a sequence of (tau, IndicatorField) with uniformly spaced,
    strictly increasing tau.  Equal slices are solved once.
    """
    slices = list(time_slices)
    if not slices:
        raise ValueError("empty slice list")
    taus = np.array([float(t) for t, _ in slices])
    if len(taus) == 1:
        return 0.0
    dts = np.diff(taus)
    if np.any(dts <= 0.0):
        raise ValueError("slice times must be strictly increasing")
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("slice times must be uniformly spaced")
    by_slice = {}
    caps = []
    for _, fld in slices:
        key = (fld.cube, fld.h, fld.values.tobytes())
        if key not in by_slice:
            by_slice[key] = solve_condenser(CondenserProblem(fld, outer, p, cfg)).value
        caps.append(by_slice[key])
    caps = np.array(caps)
    dt = float(dts[0])
    return float(dt * (0.5 * caps[0] + caps[1:-1].sum() + 0.5 * caps[-1]))
