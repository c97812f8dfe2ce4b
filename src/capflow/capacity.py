"""Elliptic condenser p-capacities on lattices, relative capacity, and the
parabolic (sliced) capacity.

The condenser value is the minimum of the discrete functional
sum_cells h**N |grad psi|^p over node fields with psi = 1 on the obstacle and
psi = 0 on and outside the boundary of the outer cube.  It starts from the
p = 2 minimizer and runs `lattice.minimize` with no mass term, so the recorded
energy history never increases.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .geometry import (Cube, DomainSpec, IndicatorField, box_faces, lattice_nodes_per_axis,
                       rasterize_obstacle)
from .lattice import LatticeSystem, MinimizeConfig, minimize
from .params import StructureParams


@dataclass(frozen=True)
class SolverConfig(MinimizeConfig):
    """Condenser minimization settings and the `DeltaMemo` lattice size."""

    nodes_across: int = 33   # lattice nodes spanning the inner cube of a delta

    def __post_init__(self):
        super().__post_init__()
        na = self.nodes_across
        if na < 17 or (na - 1) % 4 != 0:
            raise ValueError(f"nodes_across must be >= 17 and congruent to 1 mod 4, got {na}")


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


class DeltaMemo:
    """radii -> delta at x_o for one run: each radius is rasterized once and
    each distinct condenser mask solved once.

    delta(rho) is the relative capacity of K_rho(x_o) \\ E against the full
    cube K_rho(x_o), both condensers grounded at the boundary of
    K_{3 rho / 2}(x_o), so it lies in [0, 1] up to solver noise.  This memo is
    the library's one way to compute it.

    At fixed nodes_across the condenser of delta at any radius rho and
    centre depends only on its obstacle mask: it is the lattice problem with
    inner half-edge 1 at the origin, outer half-edge 1.5 and
    h = 2 / (nodes_across - 1), with lengths scaled by rho, so it has the same
    iterates and every energy scaled by rho**(N-p).  The memo solves each
    distinct mask once on that unit lattice; the all-true mask is the
    full-cube denominator.  The first caller of a mask solves it and
    concurrent callers wait for its value, or its exception.  Only the
    rasterized obstacles and the CapacityValues are kept; make one per run.
    """

    def __init__(self, domain: DomainSpec, x_o, params: StructureParams,
                 cfg: SolverConfig = SolverConfig(), workers: int = 1):
        self.domain, self.x_o, self.params, self.cfg = domain, tuple(x_o), params, cfg
        self.workers = workers
        self.h = 2.0 / (cfg.nodes_across - 1)
        self.full = np.ones((cfg.nodes_across,) * params.N, dtype=bool)
        self._lock = threading.Lock()
        self._obstacles: dict[float, IndicatorField] = {}
        self._capacities: dict[bytes, concurrent.futures.Future] = {}

    def __call__(self, radii) -> list[float]:
        """delta at each radius, in order."""
        return [row[0] for row in self.rows(radii)]

    def rows(self, radii) -> list[tuple[float, CapacityValue, CapacityValue]]:
        """(delta, obstacle capacity, full-cube capacity) at each radius, in order.

        Each new K_rho(x_o) \\ E is rasterized, nodes_across nodes per axis;
        then each distinct mask, the all-true one included, is solved once
        over a pool of `workers` threads, so no thread waits on another's
        solve.  Rows are assembled by index, so they do not depend on the
        number of workers.
        """
        radii = list(radii)
        for rho in radii:
            if not rho > 0.0:
                raise ValueError(f"rho must be positive, got {rho}")
        with self._lock:
            for rho in radii:
                if rho not in self._obstacles:
                    self._obstacles[rho] = rasterize_obstacle(
                        self.domain, Cube(self.x_o, rho),
                        2.0 * rho / (self.cfg.nodes_across - 1))
            obstacles = [self._obstacles[rho] for rho in radii]
        distinct = list({m.tobytes(): m for m in (self.full, *(o.values for o in obstacles))
                         }.values())
        if self.workers > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=self.workers) as pool:
                list(pool.map(self._capacity, distinct))
        else:
            for mask in distinct:
                self._capacity(mask)
        return [self._relative(o) for o in obstacles]

    def _capacity(self, mask: np.ndarray) -> CapacityValue:
        """Unit-lattice capacity of the obstacle `mask`, solved on first request."""
        key = mask.tobytes()
        with self._lock:
            entry = self._capacities.get(key)
            first = entry is None
            if first:
                entry = self._capacities[key] = concurrent.futures.Future()
        if first:
            center = (0.0,) * mask.ndim
            try:
                entry.set_result(solve_condenser(CondenserProblem(
                    IndicatorField(Cube(center, 1.0), self.h, mask), Cube(center, 1.5),
                    self.params.p, self.cfg)))
            except BaseException as exc:
                entry.set_exception(exc)    # for every waiting caller
                raise
        return entry.result()

    def _relative(self, obstacle: IndicatorField
                  ) -> tuple[float, CapacityValue, CapacityValue]:
        """delta of a rasterized obstacle, with both capacities.

        delta is the ratio of the unit-lattice values, so radii that share a
        mask give the same delta; the capacities are the unit ones with value
        and energy history times rho**(N-p), on the obstacle's grid spacing.
        """
        cap_obs, cap_full = self._capacity(obstacle.values), self._capacity(self.full)
        if cap_full.value <= 0.0:
            raise ValueError("degenerate denominator capacity")
        val = cap_obs.value / cap_full.value
        if val > 1.0:
            if val > 1.0 + 1e-8:
                raise ValueError(f"relative capacity {val} exceeds 1 beyond "
                                 "discretization noise")
            val = 1.0
        scale = obstacle.cube.half_edge ** (self.params.N - self.params.p)

        def rescaled(cap: CapacityValue) -> CapacityValue:
            return CapacityValue(cap.value * scale,
                                 tuple(e * scale for e in cap.energy_history), obstacle.h)

        return val, rescaled(cap_obs), rescaled(cap_full)


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
