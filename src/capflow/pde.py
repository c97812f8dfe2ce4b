"""Backward-Euler solver for u_t = div(|Du|^{p-2} Du) on a box with a removed
obstacle, plus the oscillation measurements used to compare solutions against
capacity-based decay envelopes.  `solve` stores every time step, so row k of
the field it returns is step k, and it reads each step's history from those
rows.  Every measurement, here and in `probes`,
picks its times with `in_window` and its nodes with
`SpaceTimeGrid.inside_nodes_in`, and a window of several steps is read with
`SpaceTimeField.window`, which copies no whole stored row.

Each time step solves the proximal problem

    min_u  (1/p) sum_cells h^N |grad u|^p  +  (h^N / 2 tau) sum_free (u - v)^2

with Dirichlet values imposed on every node outside the domain (obstacle
nodes and box faces).  `lattice.minimize` solves it as p times this
functional, so the per-step energy never increases across iterates.  A step
whose start has objective 0, such as a spatially constant state with
unchanged boundary values, returns its start bitwise without a solve: no
objective is lower.

From the second step on, each step also offers the minimizer a guess: the
linear extrapolation u_{k-1} + (tau_k / tau_{k-1}) (u_{k-1} - u_{k-2}) on free
nodes, clipped to the range of the new boundary values and u_{k-1}.  Clipping
acts node by node and is 1-Lipschitz, so it raises no cell gradient and no
mass term, and it keeps every iterate inside the maximum-principle range.
The minimizer starts from the guess only when its objective is strictly
lower than that of the previous field with the new boundary values; this
rejects the guess where the data bend, such as the end of a boundary ramp,
where the energy-drop stop would otherwise fire early.  A step that returns
its start counts as history too: the step after it would extrapolate zero
motion, a guess equal to its start, so it is offered none.

A step whose previous field u equals the field before it on every node, and
whose new boundary values equal those of u, returns u without calling the
minimizer.  The step before it then started from its own previous field and
returned it, and this step has the same start, previous field and data.
Only tau differs, and it enters the objective only through the proximal
term, whose gradient vanishes at a start equal to the previous field: the
first-order condition at that start does not involve tau.  Such repeated
stationary steps follow a step that froze (README, "Known limitation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .fileio import atomic_write
from .geometry import (Cube, DomainSpec, box_faces, domain_inside_mask, lattice_nodes_per_axis,
                       lattice_points)
from .lattice import LatticeSystem, minimize

# the energy-drop stop of every time step; condensers stop tighter (see
# capflow.capacity)
_TOL_REL_ENERGY = 1e-8
# the rows of a snapshot formatted per call: the file is written block by
# block, never held whole as text
_SNAPSHOT_ROWS = 1024


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Spatial lattice on a box with an inside mask, plus the time axis."""

    box: Cube
    h: float
    inside: np.ndarray          # bool, flat; True on free interior nodes
    times: np.ndarray           # strictly increasing, times[0] == 0
    shape: tuple[int, ...]

    def node_points(self) -> np.ndarray:
        return lattice_points(self.box, self.h)

    def nodes_in(self, cube: Cube) -> np.ndarray:
        """Flat mask of the nodes in `cube`, up to a 1e-9 h tolerance."""
        return cube.contains_points(self.node_points(), tol=1e-9 * self.h)

    def inside_nodes_in(self, cube: Cube) -> np.ndarray:
        """Flat mask of the interior nodes in `cube`; ValueError when it has none."""
        mask = self.inside & self.nodes_in(cube)
        if not np.any(mask):
            raise ValueError(f"no interior nodes in the cube of half-edge {cube.half_edge} "
                             f"at {cube.center}")
        return mask

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def uniform_times(T: float, steps: int) -> np.ndarray:
    if not T > 0.0:
        raise ValueError(f"final time must be positive, got {T}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    return np.linspace(0.0, T, steps + 1)


def intrinsic_times(T: float, h: float, p: float, omega: float = 1.0) -> np.ndarray:
    """Uniform steps with dt close to omega**(2-p) * h**p, the intrinsic time
    scale at which the degenerate diffusion of data with oscillation omega
    stays resolved."""
    if not T > 0.0:
        raise ValueError(f"final time must be positive, got {T}")
    if not h > 0.0 or not omega > 0.0:
        raise ValueError("h and omega must be positive")
    dt = omega ** (2.0 - p) * h ** p
    steps = max(1, math.ceil(T / dt))
    return np.linspace(0.0, T, steps + 1)


def _near(m: np.ndarray) -> np.ndarray:
    """Nodes with at least one axis neighbor in the mask `m`."""
    near = np.zeros_like(m)
    for k in range(m.ndim):
        lo = (slice(None),) * k + (slice(None, -1),)
        hi = (slice(None),) * k + (slice(1, None),)
        near[lo] |= m[hi]
        near[hi] |= m[lo]
    return near


def make_grid(domain: DomainSpec, box: Cube, grid_h: float, times) -> SpaceTimeGrid:
    """Lattice on `box` with domain nodes marked inside; box faces are Dirichlet.

    Rejects isolated interior nodes: a free node with no free axis neighbor
    cannot exchange mass with the rest of the domain and the discrete problem
    degenerates there.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("times must be a 1-d array with at least two entries")
    if times[0] != 0.0:
        raise ValueError(f"times must start at 0, got {times[0]}")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("times must be strictly increasing")

    n = lattice_nodes_per_axis(box.half_edge, grid_h)
    shape = (n,) * domain.ndim
    grid_idx = domain_inside_mask(domain, box, grid_h).reshape(shape) & ~box_faces(shape)
    inside = grid_idx.ravel()

    if np.any(inside):
        isolated = grid_idx & ~_near(grid_idx)
        if np.any(isolated):
            pt = lattice_points(box, grid_h)[int(np.argmax(isolated.ravel()))]
            raise ValueError(f"isolated interior node at {tuple(float(c) for c in pt)}; "
                             "refine the grid or adjust the obstacle")

    return SpaceTimeGrid(box, grid_h, inside, times, shape)


@dataclass(frozen=True)
class BoundaryDatum:
    """Time-dependent Dirichlet datum g(x, t), evaluated on point batches.

    `modulus` is a free-text descriptor of the datum's modulus of continuity;
    it is echoed into reports and never used in computation.
    """

    name: str
    fn: Callable[[np.ndarray, float], np.ndarray]
    modulus: str = ""

    def __call__(self, points: np.ndarray, t: float) -> np.ndarray:
        out = np.asarray(self.fn(points, t), dtype=float)
        if out.shape != (len(points),):
            raise ValueError(f"datum '{self.name}' returned shape {out.shape} "
                             f"for {len(points)} points")
        return out


@dataclass(frozen=True)
class SpaceTimeField:
    """Time slices of a discrete solution: row k of `values` is step k, at
    time grid.times[k]."""

    grid: SpaceTimeGrid
    p: float
    values: np.ndarray          # (n_steps + 1, n_nodes)

    @property
    def stored_steps(self) -> tuple[int, ...]:
        """The step of each row: 0 to n_steps."""
        return tuple(range(len(self.values)))

    def slice_at_step(self, step: int) -> np.ndarray:
        if not 0 <= step <= self.grid.n_steps:
            raise ValueError(f"step {step} was not stored; a solve stores steps 0 to "
                             f"{self.grid.n_steps}")
        return self.values[step]

    def window(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The values at the masks `rows` of steps and `nodes` of nodes, picked
        in one step: whole stored rows are never copied first."""
        return self.values[np.ix_(rows, nodes)]


def solve(grid: SpaceTimeGrid, datum: BoundaryDatum, p: float) -> SpaceTimeField:
    """March the implicit scheme over grid.times, starting from g(., 0), and
    store every step: row k of the field's values is step k.  The stored rows
    are the loop's only history: step k reads its previous field, and the
    field and step length before that, from rows k-1 and k-2 and grid.times.

    Each step is one `lattice.minimize` that stops at a relative energy drop
    of `_TOL_REL_ENERGY`; the minimizer runs the step's every linear solve
    and decides once whether they fold onto mirror classes.  A repeated
    stationary step (see the module docstring) returns its previous field
    without a minimization.  When a minimization does not converge within
    its iteration limit, this raises ConvergenceError with the offending
    step index, its message the minimizer's, which states that limit,
    after "time step k".
    """
    if not p >= 2.0:
        raise ValueError(f"p must be at least 2, got {p}")
    system = LatticeSystem(grid.shape, grid.h)
    pts = grid.node_points()
    free = grid.inside
    fixed = ~free
    fixed_pts = pts[fixed]

    n_steps = grid.n_steps
    # one preallocated array, which is also the loop's history: the field is
    # never held twice
    stored = np.empty((n_steps + 1, grid.n_nodes))
    stored[0] = datum(pts, 0.0)

    for k in range(1, n_steps + 1):
        u = stored[k - 1]
        tau = float(grid.times[k] - grid.times[k - 1])
        bvals = datum(fixed_pts, float(grid.times[k]))
        start = u.copy()
        start[fixed] = bvals

        guess = None
        motion = None if k == 1 else (u - stored[k - 2])[free]
        # after a step that returned its start the guess would be that
        # start, which the minimizer would evaluate only to reject it
        if motion is not None and motion.any():
            # the clipped extrapolation of the module docstring
            tau_old = float(grid.times[k - 1] - grid.times[k - 2])
            guess = start.copy()
            guess[free] += (tau / tau_old) * motion
            guess.clip(min(bvals.min(), u.min()), max(bvals.max(), u.max()), out=guess)
        elif (motion is not None and np.array_equal(bvals, u[fixed])
              and np.array_equal(bvals, stored[k - 2][fixed])):
            # a repeated stationary step (see the module docstring)
            stored[k] = start
            continue
        try:
            stored[k], _ = minimize(system, fixed, start, p, _TOL_REL_ENERGY,
                                    mass=grid.h ** len(grid.shape) / tau, previous=u, guess=guess)
        except ConvergenceError as exc:
            raise ConvergenceError(f"time step {k} {exc}", last_energy=exc.last_energy / p,
                                   step_index=k) from None

    return SpaceTimeField(grid, float(p), stored)


def in_window(times: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Mask of `times` in [t_lo, t_hi], widened by 1e-12 * max(|t_hi|, 1)."""
    span = max(abs(t_hi), 1.0)
    return (times >= t_lo - 1e-12 * span) & (times <= t_hi + 1e-12 * span)


def oscillation_over(field: SpaceTimeField, region: Cube, t_lo: float,
                     t_hi: float) -> float:
    """sup - inf of the stored solution over interior nodes of `region` and
    stored times in [max(t_lo, 0), t_hi]."""
    t_lo = max(t_lo, 0.0)
    rows = in_window(field.grid.times, t_lo, t_hi)
    if not np.any(rows):
        raise ValueError(f"no stored time slices in [{t_lo}, {t_hi}]; "
                         "shorten the time step or widen the window")
    sub = field.window(rows, field.grid.inside_nodes_in(region))
    return float(sub.max() - sub.min())


def oscillation(field: SpaceTimeField, x_o, t_o: float, rho: float, omega_o: float) -> float:
    """Oscillation over the backward intrinsic cylinder
    K_{2 rho}(x_o) x [t_o - omega_o**(2-p) rho**p, t_o], window clipped at 0,
    with p the exponent the field was solved with."""
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not omega_o > 0.0:
        raise ValueError(f"omega_o must be positive, got {omega_o}")
    p = field.p
    t_lo = t_o - omega_o ** (2.0 - p) * rho ** p
    return oscillation_over(field, Cube(x_o, 2.0 * rho), t_lo, t_o)


def lateral_mask(grid: SpaceTimeGrid, region: Cube) -> np.ndarray:
    """Obstacle-boundary nodes inside `region`: non-interior nodes off the box
    faces with at least one interior axis neighbor."""
    m = grid.inside.reshape(grid.shape)
    lateral = _near(m) & ~m & ~box_faces(grid.shape)
    return lateral.ravel() & grid.nodes_in(region)


def osc_g_on_lateral(grid: SpaceTimeGrid, datum: BoundaryDatum, region: Cube,
                     t_lo: float, t_hi: float) -> float:
    """Oscillation of the boundary datum over the obstacle nodes in `region`
    and the time window [t_lo, t_hi], clipped at [0, T].

    Samples the grid times inside the window plus its clipped endpoints, so a
    datum linear in time oscillates by exactly the window length.
    """
    t_lo, t_hi = max(t_lo, 0.0), min(t_hi, float(grid.times[-1]))
    if not t_lo <= t_hi:
        raise ValueError(f"window [{t_lo}, {t_hi}] lies outside the grid times")
    mask = lateral_mask(grid, region)
    if not np.any(mask):
        raise ValueError("region contains no lateral boundary nodes")
    sel = {*grid.times[in_window(grid.times, t_lo, t_hi)].tolist(), t_lo, t_hi}
    pts = grid.node_points()[mask]
    vals = np.concatenate([datum(pts, t) for t in sorted(sel)])
    return float(vals.max()) - float(vals.min())


def spatial_energy(field: SpaceTimeField) -> np.ndarray:
    """sum_cells h^N |grad u|^p for each stored slice, in storage order."""
    system = LatticeSystem(field.grid.shape, field.grid.h)
    return np.array([system.energy(row, field.p) for row in field.values])


def barenblatt(x, t: float, p: float, mass_scale: float = 1.0) -> np.ndarray:
    """Source-type self-similar solution in N dimensions, at points with N
    columns (a 1-d array holds points on the line).

    B(x, t) = t**-k * (C - q * (|x| t**(-k/N))**(p/(p-1)))_+**((p-1)/(p-2))
    with k = 1/(p - 2 + p/N) and q = (p-2)/p * (k/N)**(1/(p-1)).  The support
    edge moves as (C/q)**((p-1)/p) * t**(k/N).
    """
    if not p > 2.0:
        raise ValueError(f"p must exceed 2, got {p}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[1]
    # p - 2 + p/N written so that at N = 1 it is 2 (p - 1) operation for
    # operation: 1D values stay bitwise those of the line's closed form
    k = 1.0 / ((p - 1.0) * (1.0 + 1.0 / n) - (1.0 - 1.0 / n))
    q = (p - 2.0) / p * (k / n) ** (1.0 / (p - 1.0))
    xi = np.linalg.norm(x, axis=1) * t ** (-k / n)
    core = mass_scale - q * xi ** (p / (p - 1.0))
    return t ** -k * np.clip(core, 0.0, None) ** ((p - 1.0) / (p - 2.0))


def save_snapshot(field: SpaceTimeField, step: int, path: str) -> None:
    """Write one stored slice as CSV: '#'-prefixed metadata lines, a column
    header, then one row per node with coordinates, inside flag, and value
    at full float64 precision."""
    row = field.slice_at_step(step)
    grid = field.grid
    pts = grid.node_points()
    ndim = len(grid.shape)
    cols = [f"x{i}" for i in range(ndim)] + ["inside", "value"]
    center = ",".join("%.17g" % c for c in grid.box.center)
    row_format = ",".join(["%.17g"] * ndim + ["%d", "%.17g"])

    def lines():
        yield "# capflow field snapshot"
        yield (f"# h={grid.h:.17g} p={field.p:.17g} step={step} "
               f"time={float(grid.times[step]):.17g}")
        yield f"# box_center={center} box_half_edge={grid.box.half_edge:.17g}"
        yield ",".join(cols)
        # one format call per block of rows, over its columns interleaved
        table = np.column_stack([pts, grid.inside, np.asarray(row, dtype=float)])
        for lo in range(0, len(table), _SNAPSHOT_ROWS):
            block = table[lo:lo + _SNAPSHOT_ROWS]
            yield "\n".join([row_format] * len(block)) % tuple(block.ravel().tolist())

    atomic_write(path, lines())


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by save_snapshot.

    Returns {"points", "inside", "values", "meta"}; meta holds the floats
    parsed from the '#' lines (h, p, step, time, box geometry).
    """
    meta: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if not line.startswith("#"):
            continue
        for token in line[1:].split():
            if "=" not in token:
                continue
            key, _, raw = token.partition("=")
            if key == "box_center":
                meta[key] = tuple(float(v) for v in raw.split(","))
            elif key == "step":
                meta[key] = int(raw)
            else:
                meta[key] = float(raw)
    # the column header, then one row per node
    table = [line for line in lines if line and not line.startswith("#")]
    if len(table) < 2:
        raise ValueError(f"{path} holds no snapshot data")
    arr = np.loadtxt(table[1:], delimiter=",", ndmin=2)
    ndim = len(table[0].split(",")) - 2
    return {
        "points": arr[:, :ndim],
        "inside": arr[:, ndim].astype(bool),
        "values": arr[:, ndim + 1],
        "meta": meta,
    }
