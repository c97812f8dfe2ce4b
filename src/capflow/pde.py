"""Backward-Euler solver for u_t = div(|Du|^{p-2} Du) on a box with a removed
obstacle, plus the oscillation measurements used to compare solutions against
capacity-based decay envelopes.  Every measurement, here and in `probes`, picks
its times with `in_window` and its nodes with `SpaceTimeGrid.nodes_in`.

Each time step solves the proximal problem

    min_u  (1/p) sum_cells h^N |grad u|^p  +  (h^N / 2 tau) sum_free (u - v)^2

with Dirichlet values imposed on every node outside the domain (obstacle
nodes and box faces).  `lattice.minimize` solves it as p times this
functional, so the per-step energy never increases across iterates.  A
spatially constant state with unchanged boundary values is returned bitwise,
without entering the iteration.

From the second step on, each step also offers the minimizer a guess: the
linear extrapolation u_{k-1} + (tau_k / tau_{k-1}) (u_{k-1} - u_{k-2}) on free
nodes, clipped to the range of the new boundary values and u_{k-1}.  Clipping
acts node by node and is 1-Lipschitz, so it raises no cell gradient and no
mass term, and it keeps every iterate inside the maximum-principle range.
The minimizer starts from the guess only when its objective is strictly
lower than that of the previous field with the new boundary values; this
rejects the guess where the data bend, such as the end of a boundary ramp,
where the energy-drop stop would otherwise fire early.  A step taken by the
constant-state shortcut counts as history too, so the step after it
extrapolates zero motion.
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
from .lattice import LatticeSystem, MinimizeConfig, minimize


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
class SchemeConfig(MinimizeConfig):
    """Time-step minimization settings and the stride of stored time slices."""

    store_stride: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.store_stride < 1:
            raise ValueError(f"store_stride must be positive, got {self.store_stride}")


@dataclass(frozen=True)
class SpaceTimeField:
    """Stored time slices of a discrete solution."""

    grid: SpaceTimeGrid
    p: float
    stored_steps: tuple[int, ...]
    values: np.ndarray          # (n_stored, n_nodes)

    @property
    def stored_times(self) -> np.ndarray:
        return self.grid.times[list(self.stored_steps)]

    def slice_at_step(self, step: int) -> np.ndarray:
        try:
            row = self.stored_steps.index(step)
        except ValueError:
            raise ValueError(f"step {step} was not stored (stride dropped it)") from None
        return self.values[row]


def kept_steps(n_steps: int, stride: int) -> list[int]:
    """The steps `solve` stores: 0, n_steps and every multiple of stride."""
    return sorted({0, n_steps, *range(stride, n_steps, stride)})


def solve(grid: SpaceTimeGrid, datum: BoundaryDatum, p: float,
          scheme: SchemeConfig = SchemeConfig()) -> SpaceTimeField:
    """March the implicit scheme over grid.times, starting from g(., 0).

    Raises ConvergenceError with the offending step index when an inner
    iteration fails to settle within scheme.max_iter.
    """
    if p < 2.0:
        raise ValueError(f"p must be at least 2, got {p}")
    system = LatticeSystem(grid.shape, grid.h)
    pts = grid.node_points()
    free = grid.inside
    fixed = ~free

    u = datum(pts, 0.0)
    u_old, tau_old = None, None     # the step before u, once there is one
    n_steps = grid.n_steps
    keep = kept_steps(n_steps, scheme.store_stride)
    row = {step: i for i, step in enumerate(keep)}
    # one preallocated array: the field is never held twice
    stored = np.empty((len(keep), u.size))
    stored[0] = u

    for k in range(1, n_steps + 1):
        tau = float(grid.times[k] - grid.times[k - 1])
        bvals = datum(pts[fixed], float(grid.times[k]))
        start = u.copy()
        start[fixed] = bvals

        # a constant-in-space state with unchanged boundary is already the
        # exact minimizer: keep it bitwise
        u_new = u
        if not np.array_equal(start, u) or np.any(system.cell_gradient_sq(u) > 0.0):
            guess = None
            if u_old is not None:
                # the clipped extrapolation of the module docstring
                guess = start.copy()
                guess[free] += (tau / tau_old) * (u - u_old)[free]
                np.clip(guess, min(bvals.min(), u.min()), max(bvals.max(), u.max()),
                        out=guess)
            try:
                u_new, _ = minimize(system, fixed, start, p, scheme,
                                    mass=grid.h ** len(grid.shape) / tau, previous=u,
                                    guess=guess)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"time step {k} did not converge within {scheme.max_iter} "
                    "reweighting iterations", last_energy=exc.last_energy / p,
                    step_index=k) from None
        u_old, u, tau_old = u, u_new, tau

        if k in row:
            stored[row[k]] = u

    return SpaceTimeField(grid, float(p), tuple(keep), stored)


def in_window(times: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Mask of `times` in [t_lo, t_hi], widened by 1e-12 * max(|t_hi|, 1)."""
    span = max(abs(t_hi), 1.0)
    return (times >= t_lo - 1e-12 * span) & (times <= t_hi + 1e-12 * span)


def oscillation_over(field: SpaceTimeField, region: Cube, t_lo: float,
                     t_hi: float) -> float:
    """sup - inf of the stored solution over interior nodes of `region` and
    stored times in [max(t_lo, 0), t_hi]."""
    t_lo = max(t_lo, 0.0)
    rows = in_window(field.stored_times, t_lo, t_hi)
    if not np.any(rows):
        raise ValueError(f"no stored time slices in [{t_lo}, {t_hi}]; "
                         "lower the store stride or widen the window")
    mask = field.grid.inside & field.grid.nodes_in(region)
    if not np.any(mask):
        raise ValueError("region contains no interior nodes")
    sub = field.values[rows][:, mask]
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
    if t_hi < t_lo:
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
    """Source-type self-similar solution on the line.

    B(x, t) = t**-a * (C - kappa * (|x| t**-a)**(p/(p-1)))_+**((p-1)/(p-2))
    with a = 1/(2(p-1)) and kappa = (p-2)/p * a**(1/(p-1)).  The support edge
    moves as (C/kappa)**((p-1)/p) * t**a.
    """
    if p <= 2.0:
        raise ValueError(f"p must exceed 2, got {p}")
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        if x.shape[1] != 1:
            raise ValueError("closed form is one-dimensional; got points with "
                             f"{x.shape[1]} coordinates")
        x = x[:, 0]
    a = 1.0 / (2.0 * (p - 1.0))
    kappa = (p - 2.0) / p * a ** (1.0 / (p - 1.0))
    xi = np.abs(x) * t ** -a
    core = mass_scale - kappa * xi ** (p / (p - 1.0))
    return t ** -a * np.clip(core, 0.0, None) ** ((p - 1.0) / (p - 2.0))


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

    def lines():
        yield "# capflow field snapshot"
        yield (f"# h={grid.h:.17g} p={field.p:.17g} step={step} "
               f"time={float(grid.times[step]):.17g}")
        yield f"# box_center={center} box_half_edge={grid.box.half_edge:.17g}"
        yield ",".join(cols)
        for i in range(len(pts)):
            coords = ",".join("%.17g" % c for c in pts[i])
            yield f"{coords},{int(grid.inside[i])},{row[i]:.17g}"

    atomic_write(path, lines())


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by save_snapshot.

    Returns {"points", "inside", "values", "meta"}; meta holds the floats
    parsed from the '#' lines (h, p, step, time, box geometry).
    """
    meta: dict[str, float] = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, _, raw = token.partition("=")
                        if key == "box_center":
                            meta[key] = tuple(float(v) for v in raw.split(","))
                        elif key == "step":
                            meta[key] = int(raw)
                        else:
                            meta[key] = float(raw)
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    if header is None or not rows:
        raise ValueError(f"{path} holds no snapshot data")
    arr = np.array(rows)
    ndim = len(header) - 2
    return {
        "points": arr[:, :ndim],
        "inside": arr[:, ndim].astype(bool),
        "values": arr[:, ndim + 1],
        "meta": meta,
    }
