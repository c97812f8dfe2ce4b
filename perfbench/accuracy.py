"""Accuracy certificates computed from the fields a run returned.

Everything here is plain NumPy written against the discrete problems'
definitions, independent of capflow's own energy code, so a change to the
program cannot move the yardstick.  The energy is
E(u) = sum_cells h**N |grad u|**p with forward differences anchored at each
cell's low corner, as in capflow.lattice.
"""

from __future__ import annotations

import numpy as np


def _grad_1d(u: np.ndarray, h: float, p: float) -> np.ndarray:
    g = np.diff(u, axis=-1) / h
    flux = np.abs(g) ** (p - 2.0) * g
    out = np.zeros_like(u, dtype=float)
    out[..., 1:] += flux
    out[..., :-1] -= flux
    return out


def _grad_2d(u: np.ndarray, h: float, p: float) -> np.ndarray:
    base = u[..., :-1, :-1]
    gx = (u[..., 1:, :-1] - base) / h
    gy = (u[..., :-1, 1:] - base) / h
    c = h * (gx * gx + gy * gy) ** ((p - 2.0) / 2.0)
    fx = c * gx
    fy = c * gy
    out = np.zeros_like(u, dtype=float)
    out[..., 1:, :-1] += fx
    out[..., :-1, 1:] += fy
    out[..., :-1, :-1] -= fx + fy
    return out


def p_energy_gradient(u: np.ndarray, h: float, p: float, ndim: int) -> np.ndarray:
    """Gradient of (1/p) E for fields of dimension `ndim`, stacked along any
    leading axes.  Each cell contributes h**(N-1) |g|**(p-2) g_i to the
    gradient, with the sign of its forward difference along axis i."""
    if ndim == 1:
        return _grad_1d(u, h, p)
    if ndim == 2:
        return _grad_2d(u, h, p)
    raise ValueError(f"dimension must be 1 or 2, got {ndim}")


def step_errors(values: np.ndarray, times: np.ndarray, free: np.ndarray,
                shape: tuple[int, ...], h: float, p: float) -> np.ndarray:
    """Certified distance of every returned time step to its exact minimizer.

    Step k minimizes F_k(u) = (1/p) E(u) + (m_k/2) |u - u_{k-1}|^2 over the
    free nodes, with m_k = h**N / tau_k.  F_k is m_k-strongly convex there,
    so |u_k - u_k*|_2 <= |grad F_k(u_k)|_2 / m_k.  `values` holds every step,
    row k = u_k.  Steps are taken one at a time so the check adds little to
    the run's peak memory.
    """
    ndim = len(shape)
    out = np.empty(len(values) - 1)
    for k in range(1, len(values)):
        mass = h ** ndim / (times[k] - times[k - 1])
        grad = p_energy_gradient(values[k].reshape(shape), h, p, ndim).ravel()
        grad += mass * (values[k] - values[k - 1])
        out[k - 1] = np.linalg.norm(grad[free]) / mass
    return out


def condenser_residual(psi: np.ndarray, plate: np.ndarray, h: float, p: float) -> float:
    """|grad E(psi)| over free nodes relative to its size on the plate.

    Free nodes are neither on the plate nor on the grounded outer rim.  At
    the exact minimizer the free part vanishes, while the plate part is the
    flux that carries the capacity, so the ratio is a scale-free first-order
    residual.
    """
    grad = p_energy_gradient(psi, h, p, psi.ndim)
    free = ~plate
    rim = np.zeros_like(plate)
    for k in range(psi.ndim):
        lo = [slice(None)] * psi.ndim
        hi = [slice(None)] * psi.ndim
        lo[k] = 0
        hi[k] = -1
        rim[tuple(lo)] = True
        rim[tuple(hi)] = True
    free &= ~rim
    return float(np.linalg.norm(grad[free]) / np.linalg.norm(grad[plate]))


def condenser_plate(problem, shape: tuple[int, ...]) -> np.ndarray:
    """Plate mask of a condenser problem on its outer lattice: the obstacle's
    marked nodes, placed by the cell offset of its cube inside the outer one."""
    obs = problem.obstacle
    h = obs.h
    big_m = round(problem.outer.half_edge / h)
    small_m = (obs.nodes_per_axis - 1) // 2
    if shape != (2 * big_m + 1,) * obs.cube.ndim:
        raise ValueError(f"minimizer shape {shape} does not match the outer lattice")
    sub = tuple(slice(big_m - small_m + round((c - o) / h),
                      big_m + small_m + 1 + round((c - o) / h))
                for c, o in zip(obs.cube.center, problem.outer.center))
    plate = np.zeros(shape, dtype=bool)
    plate[sub] = obs.values
    return plate


def barenblatt(x: np.ndarray, t: float, p: float, mass_scale: float) -> np.ndarray:
    """Source-type solution of u_t = (|u_x|^{p-2} u_x)_x on the line."""
    a = 1.0 / (2.0 * (p - 1.0))
    kappa = (p - 2.0) / p * a ** (1.0 / (p - 1.0))
    core = mass_scale - kappa * (np.abs(x) * t ** -a) ** (p / (p - 1.0))
    return t ** -a * np.clip(core, 0.0, None) ** ((p - 1.0) / (p - 2.0))
