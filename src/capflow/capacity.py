"""Elliptic condenser p-capacities on lattices, relative capacity, and the
parabolic (sliced) capacity.

The condenser value is the minimum of the discrete functional
sum_cells h**N |grad psi|^p over node fields with psi = 1 on the obstacle and
psi = 0 on and outside the boundary of the outer cube.  `lattice.minimize`
finds it with no mass term, and runs every linear solve of a condenser, the
p = 2 start's included; a capacity is that minimum and the number of
iterations it took on the problem's own lattice.

When p > 2 the minimization starts by nested iteration, the first stage of
full multigrid (Brandt, Math. Comp. 1977; Bornemann & Deuflhard, Numer.
Math. 1996): the same condenser at spacing 2h, with the obstacle's
every-other-node mask, is minimized first and its minimizer interpolated
linearly to the problem's lattice.  That half-resolution problem starts the
same way in turn.  The p = 2 minimizer starts it instead when p = 2, and
when the half-resolution obstacle lattice would not fit the outer lattice at
spacing 2h, would have fewer than `_MIN_NODES_ACROSS` nodes across, or would
mark no node.  On the benchmark's Cantor profile the p = 2 start left each
fine lattice factored twice, once for that start and once more when its
factor failed to precondition the first p > 2 solve; the nested start
factors it once (at seed 3 on one worker, its 145^2 lattices went from 8
to 4 factorizations and from 211 to 77 triangular solves).  The
energy-drop stop depends on the start: from the nested start, at 1e-8 it
stopped at 3.5-4.2 times the first-order residual it left from the p = 2
start there, so condensers stop at a relative energy drop of 1e-10,
`_TOL_REL_ENERGY`, where time steps stop at 1e-8.  `DeltaMemo` computes the
relative capacity delta for one run, from one thread, on lattices of
`nodes_across` nodes across its inner cube, a plain int that
`check_nodes_across` validates.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .geometry import (Cube, DomainSpec, IndicatorField, box_faces, lattice_nodes_per_axis,
                       rasterize_obstacle)
from .lattice import LatticeSystem, minimize
from .params import StructureParams

# the energy-drop stop of every condenser minimization: see the module docstring
_TOL_REL_ENERGY = 1e-10
# the fewest nodes across a delta lattice and a nested start's obstacle
_MIN_NODES_ACROSS = 17


def check_nodes_across(nodes_across: int) -> int:
    """`nodes_across`, the lattice nodes spanning the inner cube of a delta,
    once checked to be at least `_MIN_NODES_ACROSS` and 1 mod 4."""
    if nodes_across < _MIN_NODES_ACROSS or (nodes_across - 1) % 4 != 0:
        raise ValueError(f"nodes_across must be >= {_MIN_NODES_ACROSS} and "
                         f"congruent to 1 mod 4, got {nodes_across}")
    return nodes_across


@dataclass(frozen=True)
class CondenserProblem:
    """Obstacle marked on an inner lattice, grounded at the outer cube boundary."""

    obstacle: IndicatorField
    outer: Cube
    p: float

    def __post_init__(self):
        if not self.p >= 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.obstacle.cube.ndim != self.outer.ndim:
            raise ValueError("obstacle and outer cube dimensions differ")


@dataclass(frozen=True)
class CapacityValue:
    """Condenser capacity, in units length**(N-p), and the minimizer's iterations."""

    value: float
    iterations: int

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"capacity must be nonnegative, got {self.value}")


def _plate_slices(problem: CondenserProblem) -> tuple[int, tuple[slice, ...]]:
    """Nodes per axis of the outer lattice, and the obstacle lattice's place in it.

    Raises ValueError when the spacing does not divide the outer half-edge,
    or when the obstacle lattice is not aligned with the outer lattice or not
    contained in the outer cube.
    """
    obs = problem.obstacle
    h = obs.h
    n = lattice_nodes_per_axis(problem.outer.half_edge, h)
    big_m = (n - 1) // 2
    small_m = (obs.nodes_per_axis - 1) // 2
    offsets = []
    for k in range(obs.cube.ndim):
        shift = (obs.cube.center[k] - problem.outer.center[k]) / h
        o = round(shift)
        if abs(o - shift) > 1e-9 * max(1.0, abs(shift)):
            raise ValueError("obstacle lattice is not aligned with the outer lattice")
        offsets.append(big_m - small_m + o)
    lo = min(offsets)
    hi = max(o + 2 * small_m for o in offsets)
    if lo < 0 or hi > 2 * big_m:
        raise ValueError("obstacle grid is not contained in the outer cube")
    return n, tuple(slice(o, o + 2 * small_m + 1) for o in offsets)


def _embed_obstacle(problem: CondenserProblem) -> tuple[LatticeSystem, np.ndarray, np.ndarray]:
    """Place the obstacle lattice inside the outer lattice; return (system, fixed, values)."""
    n, sub = _plate_slices(problem)
    shape = (n,) * problem.outer.ndim
    fixed = box_faces(shape)      # the outer boundary is grounded
    values = np.zeros(shape, dtype=float)
    # plate at 1 on the obstacle nodes
    plate = np.zeros(shape, dtype=bool)
    plate[sub] = problem.obstacle.values
    on_rim = plate & fixed
    if on_rim.any():
        raise ValueError("obstacle touches the outer boundary; condenser plates "
                         "must be disjoint")
    fixed |= plate
    values[plate] = 1.0
    return LatticeSystem(shape, problem.obstacle.h), fixed, values


def _coarse_problem(problem: CondenserProblem) -> CondenserProblem | None:
    """The condenser at spacing 2h that starts `problem`, or None when the
    p = 2 minimizer starts it (see the module docstring)."""
    if problem.p == 2.0:
        return None
    obs = problem.obstacle
    every_other = obs.values[(slice(None, None, 2),) * obs.cube.ndim]
    try:
        coarse = replace(problem, obstacle=IndicatorField(obs.cube, 2.0 * obs.h, every_other))
        _plate_slices(coarse)
    except ValueError:
        return None
    if coarse.obstacle.nodes_per_axis < _MIN_NODES_ACROSS or not every_other.any():
        return None
    return coarse


def _prolong(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation of a 1D or 2D node field to the lattice of half
    its spacing: node 2k takes node k's value, node 2k + 1 along an axis the
    mean of its two neighbours, and in 2D a cell's centre the mean of its
    four corners, summed diagonal by diagonal.  Every one of these sums is
    unchanged by swapping the axes, so a field equal to its transpose
    prolongs to one that is too, bitwise."""
    fine = np.empty(tuple(2 * n - 1 for n in coarse.shape))
    even = (slice(None, None, 2),) * coarse.ndim
    fine[even] = coarse
    if coarse.ndim == 1:
        fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
        return fine
    fine[1::2, ::2] = 0.5 * (coarse[:-1] + coarse[1:])
    fine[::2, 1::2] = 0.5 * (coarse[:, :-1] + coarse[:, 1:])
    fine[1::2, 1::2] = 0.25 * ((coarse[:-1, :-1] + coarse[1:, 1:])
                               + (coarse[:-1, 1:] + coarse[1:, :-1]))
    return fine


def minimize_condenser(problem: CondenserProblem) -> tuple[np.ndarray, list[float]]:
    """Minimize from the nested start or the p = 2 solution; return
    (minimizer, energy history on the problem's lattice).

    When p > 2 and the obstacle's every-other-node mask makes a condenser at
    spacing 2h in the same outer cube, with at least `_MIN_NODES_ACROSS`
    nodes across and a marked node, that condenser is minimized first, by
    this function; its minimizer, interpolated linearly and given this
    problem's plate and ground values, is the start.  Otherwise the p = 2
    minimizer is, from `minimize` at p = 2: there the weights are exactly 1,
    so its first solve is the unit-weight Dirichlet solve, and its second
    finds that solution stationary.  When the problem's p is 2, that call's
    minimizer and history are the result.
    """
    system, fixed, bvals = _embed_obstacle(problem)
    coarse = _coarse_problem(problem)
    if coarse is not None:
        psi = np.where(fixed, bvals, _prolong(minimize_condenser(coarse)[0])).ravel()
    try:
        if coarse is None:
            psi, history = minimize(system, fixed, bvals, 2.0, _TOL_REL_ENERGY)  # p = 2 start
        if problem.p != 2.0:
            psi, history = minimize(system, fixed, psi, problem.p, _TOL_REL_ENERGY)
    except ConvergenceError as exc:
        raise ConvergenceError(f"condenser minimization {exc}",
                               last_energy=exc.last_energy) from None
    return psi.reshape(system.shape), history


def solve_condenser(problem: CondenserProblem) -> CapacityValue:
    """Discrete condenser p-capacity of the marked obstacle in the outer cube."""
    if not problem.obstacle.values.any():
        return CapacityValue(0.0, 0)
    _, history = minimize_condenser(problem)
    return CapacityValue(history[-1], len(history) - 1)


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
    full-cube denominator.  At dyadic radii and integer p the scaled values
    are bitwise those of the direct solve.  Only the rasterized obstacles and
    the CapacityValues are kept.  Like a `LatticeSystem`, a memo serves one run
    from one thread; make one per run.
    """

    def __init__(self, domain: DomainSpec, x_o, params: StructureParams, nodes_across: int,
                 workers: int = 1):
        self.domain, self.x_o, self.params = domain, tuple(x_o), params
        self.nodes_across, self.workers = check_nodes_across(nodes_across), workers
        self.h = 2.0 / (nodes_across - 1)
        self.full = np.ones((nodes_across,) * params.N, dtype=bool)
        self._obstacles: dict[float, IndicatorField] = {}
        self._capacities: dict[bytes, CapacityValue] = {}

    def __call__(self, radii) -> list[float]:
        """delta at each radius, in order."""
        return [row[0] for row in self.rows(radii)]

    def rows(self, radii) -> list[tuple[float, CapacityValue, CapacityValue]]:
        """(delta, obstacle capacity, full-cube capacity) at each radius, in order.

        Each new K_rho(x_o) \\ E is rasterized, nodes_across nodes per axis;
        then each distinct mask not solved yet, the all-true one included, is
        solved over a pool of `workers` threads.  Rows are assembled by
        index, so they do not depend on the number of workers.
        """
        radii = list(radii)
        for rho in radii:
            if not rho > 0.0:
                raise ValueError(f"rho must be positive, got {rho}")
        for rho in radii:
            if rho not in self._obstacles:
                self._obstacles[rho] = rasterize_obstacle(
                    self.domain, Cube(self.x_o, rho), 2.0 * rho / (self.nodes_across - 1))
        obstacles = [self._obstacles[rho] for rho in radii]
        masks = {m.tobytes(): m for m in (self.full, *(o.values for o in obstacles))}
        new = {key: m for key, m in masks.items() if key not in self._capacities}
        if self.workers > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=self.workers) as pool:
                solved = list(pool.map(self._solve, new.values()))
        else:
            # not a one-thread pool: that raised corner_verify's peak RSS from
            # 100.8 to 111.1 MB (+10.3%, in 6 of 6 alternating pairs)
            solved = [self._solve(mask) for mask in new.values()]
        self._capacities.update(zip(new, solved))
        return [self._relative(o) for o in obstacles]

    def _solve(self, mask: np.ndarray) -> CapacityValue:
        """Unit-lattice capacity of the obstacle `mask`."""
        center = (0.0,) * mask.ndim
        return solve_condenser(CondenserProblem(
            IndicatorField(Cube(center, 1.0), self.h, mask), Cube(center, 1.5),
            self.params.p))

    def _relative(self, obstacle: IndicatorField
                  ) -> tuple[float, CapacityValue, CapacityValue]:
        """delta of a rasterized obstacle, with both capacities.

        delta is the ratio of the unit-lattice values, so radii that share a
        mask give the same delta; the capacities are the unit ones with their
        values times rho**(N-p).
        """
        cap_obs = self._capacities[obstacle.values.tobytes()]
        cap_full = self._capacities[self.full.tobytes()]
        if cap_full.value <= 0.0:
            raise ValueError("degenerate denominator capacity")
        val = cap_obs.value / cap_full.value
        if val > 1.0:
            if val > 1.0 + 1e-8:
                raise ValueError(f"relative capacity {val} exceeds 1 beyond "
                                 "discretization noise")
            val = 1.0
        scale = obstacle.cube.half_edge ** (self.params.N - self.params.p)
        return (val, replace(cap_obs, value=cap_obs.value * scale),
                replace(cap_full, value=cap_full.value * scale))


def parabolic_capacity(time_slices, outer: Cube, p: float) -> float:
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
    if not np.all(dts > 0.0):
        raise ValueError("slice times must be strictly increasing")
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("slice times must be uniformly spaced")
    by_slice = {}
    caps = []
    for _, fld in slices:
        key = (fld.cube, fld.h, fld.values.tobytes())
        if key not in by_slice:
            by_slice[key] = solve_condenser(CondenserProblem(fld, outer, p)).value
        caps.append(by_slice[key])
    caps = np.array(caps)
    dt = float(dts[0])
    return float(dt * (0.5 * caps[0] + caps[1:-1].sum() + 0.5 * caps[-1]))
