"""Shared construction helpers and brute-force oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

import capflow as cf
from capflow import capacity


def count_condensers(monkeypatch) -> list:
    """Record the problem of every condenser solve from here on."""
    solved = []
    minimize = capacity.minimize_condenser

    def counted(problem):
        solved.append(problem)
        return minimize(problem)

    monkeypatch.setattr(capacity, "minimize_condenser", counted)
    return solved


def synthetic_field(values: np.ndarray, times, *, half_edge: float = 0.5,
                    h: float = 0.125, p: float = 3.0,
                    domain: cf.DomainSpec | None = None) -> cf.SpaceTimeField:
    """Wrap raw per-node values into a SpaceTimeField on a full-space box grid.

    `values` has shape (len(times), n_nodes); every time step counts as stored.
    """
    times = np.asarray(times, dtype=float)
    ndim = 2 if values.shape[1] != int(2 * half_edge / h) + 1 else 1
    if domain is None:
        domain = cf.DomainSpec.full_space(ndim)
    center = (0.0,) * domain.ndim
    grid = cf.make_grid(domain, cf.Cube(center, half_edge), h, times)
    assert values.shape == (len(times), grid.n_nodes)
    return cf.SpaceTimeField(grid, p, tuple(range(len(times))), np.asarray(values, dtype=float))


def brute_oscillation(field: cf.SpaceTimeField, region: cf.Cube, t_lo: float,
                      t_hi: float) -> float:
    """Reference sup - inf over interior nodes of region and stored times in
    [max(t_lo, 0), t_hi], written as plain loops."""
    t_lo = max(t_lo, 0.0)
    span = max(abs(t_hi), 1.0)
    pts = field.grid.node_points()
    lo, hi = np.inf, -np.inf
    hit = False
    for row, t in enumerate(field.stored_times):
        if t < t_lo - 1e-12 * span or t > t_hi + 1e-12 * span:
            continue
        for i in range(field.grid.n_nodes):
            if not field.grid.inside[i]:
                continue
            if not bool(region.contains_points(pts[i:i + 1], tol=1e-9 * field.grid.h)[0]):
                continue
            hit = True
            v = float(field.values[row, i])
            lo = min(lo, v)
            hi = max(hi, v)
    assert hit, "brute-force scan found no nodes; bad test setup"
    return hi - lo


def brute_harnack(field, y, s, rho, c=1.0):
    """Reference recomputation of the weak Harnack probe by exhaustive scan."""
    p = field.p
    times = field.stored_times
    row = int(np.argmin(np.abs(times - s)))
    s_used = float(times[row])
    pts = field.grid.node_points()
    small = cf.Cube(y, rho)
    vals = [float(field.values[row, i]) for i in range(field.grid.n_nodes)
            if field.grid.inside[i]
            and bool(small.contains_points(pts[i:i + 1], tol=1e-9 * field.grid.h)[0])]
    avg = math.fsum(vals) / len(vals)
    horizon = c ** (2.0 - p) * (float(field.grid.times[-1]) - s_used) / rho ** p
    intrinsic = avg ** (2.0 - p)
    theta, branch = (intrinsic, "intrinsic") if intrinsic <= horizon \
        else (horizon, "horizon")
    t_lo = s_used + 0.5 * theta * rho ** p
    t_hi = s_used + theta * rho ** p
    span = max(abs(t_hi), 1.0)
    wide = cf.Cube(y, 4.0 * rho)
    inf_later = math.inf
    for r, t in enumerate(times):
        if t < t_lo - 1e-12 * span or t > t_hi + 1e-12 * span:
            continue
        for i in range(field.grid.n_nodes):
            if field.grid.inside[i] and bool(
                    wide.contains_points(pts[i:i + 1], tol=1e-9 * field.grid.h)[0]):
                inf_later = min(inf_later, float(field.values[r, i]))
    ratio = math.inf if inf_later == 0.0 else avg / inf_later
    return s_used, avg, theta, branch, (t_lo, t_hi), inf_later, ratio
