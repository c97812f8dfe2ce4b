"""Shared construction helpers and brute-force oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

import capflow as cf
from capflow import capacity
from capflow.geometry import Cube, IndicatorField, lattice_nodes_per_axis
from capflow.lattice import LatticeSystem


def count_calls(monkeypatch, owner, name: str, calls: list | None = None) -> list:
    """Record the first argument (`self` for a method) of every call of
    owner.name from here on, in `calls` (a new list when None)."""
    calls = [] if calls is None else calls
    fn = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def all_true(cube: Cube, h: float) -> IndicatorField:
    """The indicator field that marks every node of the lattice of spacing h
    spanning `cube`."""
    n = lattice_nodes_per_axis(cube.half_edge, h)
    return IndicatorField(cube, h, np.ones((n,) * cube.ndim, dtype=bool))


class CondenserLog(list):
    """The CondenserProblem of every condenser solve, in call order."""

    @property
    def masks(self) -> list[tuple]:
        """(shape, bytes) of each solved obstacle mask."""
        return [(p.obstacle.values.shape, p.obstacle.values.tobytes()) for p in self]

    def distinct_masks(self, start: int = 0) -> int:
        return len(set(self.masks[start:]))


def count_condensers(monkeypatch) -> CondenserLog:
    """Record the problem, and so the mask, of every condenser solve from here on."""
    return count_calls(monkeypatch, capacity, "minimize_condenser", CondenserLog())


def count_solves(monkeypatch) -> list:
    """Record the LatticeSystem of every linear Dirichlet solve from here on."""
    return count_calls(monkeypatch, LatticeSystem, "solve_dirichlet")


def reference_block_slots(system: LatticeSystem, fixed: np.ndarray, folded: bool) -> dict:
    """The slots of the Dirichlet block of `fixed`, built apart from
    `lattice._Block` by np.unique over the entries' CSC keys, and its
    assembly rows by a stable sort of the entries' slots.

    "keys" holds the CSC key col * n + row of each slot and "diag_slot" the
    slot of each unknown's diagonal.  "entry_slot", "entry_cell" and
    "entry_coef" give each matrix entry's slot, cell and coefficient, in
    entry order: the (a, a), (b, b), (b, a) and (a, b) entries of each edge
    between free nodes, then the diagonal entry of each edge's one free
    end.  "cells", "coefs" and "indptr" are the assembly's rows: each
    slot's entries, in entry order.
    """
    free = np.flatnonzero(~fixed)
    own = np.arange(free.size)
    pos = np.full(system.n_nodes, -1, dtype=np.int64)
    pos[free] = own
    mirror = own
    if folded:
        i, j = np.divmod(free, system.shape[1])
        mirror = pos[j * system.shape[1] + i]
    lower = np.minimum(own, mirror)
    is_rep = lower == own
    unknown = (np.cumsum(is_rep) - 1)[lower]
    pa, pb = pos[system.edges_a], pos[system.edges_b]
    both = (pa >= 0) & (pb >= 0)
    a_only = (pa >= 0) & (pb < 0)
    b_only = (pa < 0) & (pb >= 0)
    n_both = int(both.sum())
    scale = system.h ** (system.ndim - 2)
    cell = system.edge_cell
    rows = np.concatenate([pa[both], pb[both], pa[both], pb[both], pa[a_only], pb[b_only]])
    cols = np.concatenate([pa[both], pb[both], pb[both], pa[both], pa[a_only], pb[b_only]])
    entry_cell = np.concatenate([cell[both]] * 4 + [cell[a_only], cell[b_only]])
    entry_coef = np.concatenate([np.full(2 * n_both, scale), np.full(2 * n_both, -scale),
                                 np.full(int(a_only.sum() + b_only.sum()), scale)])
    n = int(is_rep.sum())
    diag = np.arange(n)
    keys, slot = np.unique(np.concatenate([diag, unknown[cols]]) * n
                           + np.concatenate([diag, unknown[rows]]), return_inverse=True)
    entry_slot = slot[n:]
    order = np.argsort(entry_slot, kind="stable")
    return {"keys": keys, "diag_slot": slot[:n], "entry_slot": entry_slot,
            "entry_cell": entry_cell, "entry_coef": entry_coef,
            "cells": entry_cell[order], "coefs": entry_coef[order],
            "indptr": np.concatenate([[0], np.cumsum(np.bincount(entry_slot,
                                                                 minlength=keys.size))])}


def step_error_bounds(field: cf.SpaceTimeField) -> np.ndarray:
    """Certified l2 distance of every stored step to the exact minimizer of
    its time step, from the stored step before it.

    Step k minimizes F_k(u) = (1/p) E(u) + (m_k / 2) |u - u_{k-1}|^2 over the
    free nodes, with m_k = h**N / tau_k; F_k is m_k-strongly convex there, so
    |u_k - u_k*| <= |grad F_k(u_k)| / m_k.  Each cell adds
    h**(N-1) |g|**(p-2) g_i to its far node along axis i and subtracts it at
    its low corner, g the cell's forward differences over h.
    """
    grid, p = field.grid, field.p
    ndim, h = len(grid.shape), grid.h
    assert field.stored_steps == tuple(range(grid.n_steps + 1))
    bounds = []
    for k in range(1, grid.n_steps + 1):
        u = field.values[k].reshape(grid.shape)
        low = u[(slice(0, -1),) * ndim]
        diffs = []
        for axis in range(ndim):
            far = [slice(0, -1)] * ndim
            far[axis] = slice(1, None)
            diffs.append((u[tuple(far)] - low) / h)
        scale = h ** (ndim - 1) * sum(d * d for d in diffs) ** ((p - 2.0) / 2.0)
        grad = np.zeros(grid.shape)
        for axis, d in enumerate(diffs):
            far = [slice(0, -1)] * ndim
            far[axis] = slice(1, None)
            grad[tuple(far)] += scale * d
            grad[(slice(0, -1),) * ndim] -= scale * d
        mass = h ** ndim / float(grid.times[k] - grid.times[k - 1])
        resid = grad.ravel() + mass * (field.values[k] - field.values[k - 1])
        bounds.append(float(np.linalg.norm(resid[grid.inside])) / mass)
    return np.array(bounds)


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
    return cf.SpaceTimeField(grid, p, np.asarray(values, dtype=float))


def brute_oscillation(field: cf.SpaceTimeField, region: cf.Cube, t_lo: float,
                      t_hi: float) -> float:
    """Reference sup - inf over interior nodes of region and stored times in
    [max(t_lo, 0), t_hi], written as plain loops."""
    t_lo = max(t_lo, 0.0)
    span = max(abs(t_hi), 1.0)
    pts = field.grid.node_points()
    lo, hi = np.inf, -np.inf
    hit = False
    for row, t in enumerate(field.grid.times):
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
    times = field.grid.times
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
