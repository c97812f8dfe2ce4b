from __future__ import annotations

import math
import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import capflow as cf
from capflow import lattice, pde
from capflow.geometry import Cube, DomainSpec, sup_distance_to_obstacle
from capflow.lattice import LatticeSystem, minimize
from helpers import (brute_oscillation, count_calls, count_solves, step_error_bounds,
                     synthetic_field)


P3N2 = cf.make_params(3.0, 2)


def _grid_1d(h=0.125, T=0.5, steps=5, half_edge=0.5):
    return cf.make_grid(DomainSpec.full_space(1), Cube((0.0,), half_edge), h,
                        cf.uniform_times(T, steps))


def _grid_2d(h=0.125, T=0.5, steps=5, half_edge=0.5, domain=None):
    if domain is None:
        domain = DomainSpec.full_space(2)
    return cf.make_grid(domain, Cube((0.0, 0.0), half_edge), h,
                        cf.uniform_times(T, steps))


# -- grids -------------------------------------------------------------------

def test_uniform_times():
    ts = cf.uniform_times(1.0, 4)
    assert np.allclose(ts, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        cf.uniform_times(0.0, 4)
    with pytest.raises(ValueError):
        cf.uniform_times(1.0, 0)


def test_intrinsic_times_land_on_T():
    ts = cf.intrinsic_times(0.5, 0.125, 3.0, omega=1.0)
    assert float(ts[0]) == 0.0
    assert float(ts[-1]) == 0.5
    dt = 1.0 ** -1.0 * 0.125 ** 3
    assert np.all(np.diff(ts) <= dt * (1.0 + 1e-12))


def test_make_grid_marks_faces_dirichlet():
    grid = _grid_2d()
    inside = grid.inside.reshape(grid.shape)
    assert not inside[0, :].any() and not inside[-1, :].any()
    assert not inside[:, 0].any() and not inside[:, -1].any()
    assert inside[1:-1, 1:-1].all()
    assert grid.n_nodes == 81
    assert grid.n_steps == 5


def test_make_grid_excludes_obstacle_nodes():
    dom = DomainSpec.exterior_cube((0.0, 0.0), 1.0)
    grid = _grid_2d(domain=dom)
    pts = grid.node_points()
    in_e = cf.contains_many(dom, pts)
    faces = ~Cube((0.0, 0.0), 0.5 - 0.125 / 2).contains_points(pts)
    assert np.array_equal(grid.inside, in_e & ~faces)


def test_make_grid_nodes_are_the_rasterized_nodes_on_a_non_dyadic_lattice():
    # make_grid classifies the nodes rasterize_obstacle places; the datum, the
    # measurements and the snapshots must see those same points, bit for bit
    dom = DomainSpec.exterior_cube((0.15, 0.15), 1.0)
    box = Cube((0.1, 0.1), 0.3)
    grid = cf.make_grid(dom, box, 0.1, cf.uniform_times(0.1, 2))
    assert np.array_equal(grid.node_points(),
                          cf.rasterize_obstacle(dom, box, 0.1).node_points())


def test_make_grid_time_validation():
    with pytest.raises(ValueError, match="start at 0"):
        cf.make_grid(DomainSpec.full_space(1), Cube((0.0,), 0.5), 0.125,
                     np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="strictly increasing"):
        cf.make_grid(DomainSpec.full_space(1), Cube((0.0,), 0.5), 0.125,
                     np.array([0.0, 0.2, 0.2]))


def test_make_grid_rejects_isolated_interior_node():
    # E is open only around one lattice node, which then has no interior
    # neighbor to couple to
    dom = DomainSpec.custom_mask(
        (0.065, 0.125), lambda x: math.hypot(x[0] - 0.125, x[1] - 0.125) < 0.06)
    with pytest.raises(ValueError, match="isolated"):
        cf.make_grid(dom, Cube((0.0, 0.0), 0.5), 0.125, cf.uniform_times(0.1, 2))


def test_boundary_datum_shape_check():
    datum = cf.BoundaryDatum("bad", lambda pts, t: np.zeros(3))
    grid = _grid_1d()
    with pytest.raises(ValueError):
        datum(grid.node_points(), 0.0)


# -- solver ------------------------------------------------------------------

def test_solve_preserves_constants_bitwise():
    grid = _grid_2d()
    datum = cf.BoundaryDatum("c", lambda pts, t: np.full(len(pts), 0.7))
    field = cf.solve(grid, datum, 3.0)
    assert np.all(field.values == 0.7)


def test_solve_keeps_linear_profile_stationary():
    grid = _grid_1d(h=1.0 / 16, steps=10)
    datum = cf.BoundaryDatum("lin", lambda pts, t: pts[:, 0].copy())
    field = cf.solve(grid, datum, 3.0)
    target = grid.node_points()[:, 0]
    assert np.abs(field.values - target[None, :]).max() <= 1e-12


def test_solve_validation():
    grid = _grid_1d()
    datum = cf.BoundaryDatum("c", lambda pts, t: np.zeros(len(pts)))
    for p in (1.5, math.nan):
        with pytest.raises(ValueError, match="p must be at least 2"):
            cf.solve(grid, datum, p)


def test_solve_max_principle_seeded():
    # solution stays within the range of its parabolic boundary data
    rng = np.random.default_rng(5)
    for trial in range(4):
        a, b, w = rng.uniform(1.0, 9.0, size=3)
        p = float(rng.choice([3.0, 4.0]))

        def g(pts, t, a=a, b=b, w=w):
            return np.sin(a * pts[:, 0]) * np.cos(b * pts[:, -1]) + 0.3 * np.sin(w * t)

        grid = _grid_2d(h=0.125, T=0.2, steps=6) if trial % 2 else \
            _grid_1d(h=1.0 / 16, T=0.2, steps=6)
        datum = cf.BoundaryDatum("osc", g)
        field = cf.solve(grid, datum, p)
        pts = grid.node_points()
        bvals = [g(pts[~grid.inside], float(t)) for t in grid.times]
        lo = min(field.values[0].min(), min(v.min() for v in bvals))
        hi = max(field.values[0].max(), max(v.max() for v in bvals))
        assert field.values.min() >= lo - 1e-9
        assert field.values.max() <= hi + 1e-9


def test_solve_comparison_ordered_data():
    # g2 >= g1 pointwise (nonconstant gap) implies u2 >= u1 up to solver noise
    grid = _grid_2d(h=0.125, T=0.2, steps=6)

    def g1(pts, t):
        return np.sin(5.0 * pts[:, 0]) * np.cos(3.0 * pts[:, 1]) + 0.2 * t

    def g2(pts, t):
        return g1(pts, t) + 0.1 * (1.2 + np.sin(4.0 * pts[:, 0] + t))

    u1 = cf.solve(grid, cf.BoundaryDatum("lo", g1), 3.0)
    u2 = cf.solve(grid, cf.BoundaryDatum("hi", g2), 3.0)
    assert float((u2.values - u1.values).min()) >= -1e-9


def test_solve_convergence_error_carries_step(monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    grid = _grid_2d(h=0.125, T=0.1, steps=3)
    datum = cf.BoundaryDatum(
        "rough", lambda pts, t: np.sin(9 * pts[:, 0]) * np.cos(7 * pts[:, 1]) + t)
    with pytest.raises(cf.ConvergenceError) as err:
        cf.solve(grid, datum, 4.0)
    assert err.value.step_index == 1
    assert err.value.last_energy is not None


# -- the warm start -------------------------------------------------------------

def reference_step_errors(field, datum, p):
    """Max-norm distance of every returned step to a tight minimization of
    that step from the returned previous step."""
    grid = field.grid
    system = LatticeSystem(grid.shape, grid.h)
    fixed = ~grid.inside
    pts = grid.node_points()
    errors = []
    for k in range(1, grid.n_steps + 1):
        previous = field.slice_at_step(k - 1)
        start = previous.copy()
        start[fixed] = datum(pts[fixed], float(grid.times[k]))
        tau = float(grid.times[k] - grid.times[k - 1])
        ref, _ = minimize(system, fixed, start, p, 1e-14,
                          mass=grid.h ** len(grid.shape) / tau, previous=previous)
        errors.append(float(np.max(np.abs(field.slice_at_step(k) - ref))))
    return np.array(errors)


def corner_ramp_problem(half_edge, h, steps, ramp_steps, scale):
    """A grid at the corner of the exterior of K_{0.5}, T = 0.02, and the
    ramped-distance datum of `verify`: the distance to the obstacle over
    `scale`, capped at 1, times min(t / ramp_time, 1), the ramp ending at
    step `ramp_steps`."""
    domain = DomainSpec.exterior_cube((0.0, 0.0), 0.5)
    box = Cube((0.0, 0.0), half_edge)
    grid = cf.make_grid(domain, box, h, cf.uniform_times(0.02, steps))
    ramp_time = float(grid.times[ramp_steps])

    def ramped(pts, t):
        profile = np.clip(sup_distance_to_obstacle(domain, pts, box) / scale, 0.0, 1.0)
        return profile * min(t / ramp_time, 1.0)

    return grid, cf.BoundaryDatum("ramped", ramped)


def test_warm_started_steps_match_tight_solves_across_the_ramp_end():
    # the boundary ramp stops at step 5, where the extrapolated guess
    # overshoots; every step must stay close to a tight solve of that step
    grid, datum = corner_ramp_problem(0.25, 1.0 / 64, 12, 5, 0.1)
    field = cf.solve(grid, datum, 3.0)
    assert reference_step_errors(field, datum, 3.0).max() <= 5e-5


def test_corner_solve_keeps_every_slice_symmetric():
    # the corner box, its datum and mask equal their transposes, so every
    # time-step solve folds onto the mirror classes of the free nodes
    grid, datum = corner_ramp_problem(0.125, 1.0 / 128, 12, 5, 0.05)
    field = cf.solve(grid, datum, 3.0)
    for row in field.values:
        v = row.reshape(grid.shape)
        assert np.array_equal(v, v.T)


@pytest.fixture(scope="module")
def corner_ramp():
    """corner_verify's datum on a 65 x 65 lattice with the ramp ending at step
    20 of 100; returns the field and its numbers of linear solves, of
    objective evaluations and of cell-gradient passes."""
    grid, datum = corner_ramp_problem(0.125, 1.0 / 256, 100, 20, 0.05)
    with pytest.MonkeyPatch.context() as mp:
        solves = count_solves(mp)
        energies = count_calls(mp, LatticeSystem, "energy_from_gsq")
        passes = count_calls(mp, LatticeSystem, "cell_gradient_sq")
        field = cf.solve(grid, datum, 3.0)
    return field, len(solves), len(energies), len(passes)


def test_warm_start_keeps_the_certified_step_error_across_the_ramp_end(corner_ramp):
    # an extrapolation taken at the ramp end unchecked ends step 21 with a
    # certified error near 1e-2, against 4e-3 for a start from the previous
    # step and 1e-3 with the check
    field, *_ = corner_ramp
    assert step_error_bounds(field).max() <= 5e-3


def test_level_steps_end_after_the_full_step_and_its_half(corner_ramp):
    # after the ramp the field barely moves: a step whose full and half
    # steps leave the objective level up to round-off stops there, instead of
    # halving about 16 more times toward a decrease below round-off
    _, solves, energies, _ = corner_ramp
    assert energies <= 4.5 * solves


def test_each_iterate_has_one_cell_gradient_pass(corner_ramp):
    # the weights and floors at an iterate reuse the squared cell gradients
    # of its objective evaluation
    _, solves, energies, passes = corner_ramp
    assert solves > 0
    assert passes <= energies


def test_smooth_source_solution_takes_under_two_solves_per_step(monkeypatch):
    # the time step of the source_1d benchmark, for a quarter of its run
    grid = cf.make_grid(DomainSpec.full_space(1), Cube((0.0,), 2.5), 0.01953125,
                        cf.uniform_times(0.25, 256))
    datum = cf.BoundaryDatum("source", lambda pts, t: cf.barenblatt(pts, t + 1.0, 3.0))
    solves = count_solves(monkeypatch)
    cf.solve(grid, datum, 3.0)
    assert len(solves) < 2 * grid.n_steps


def test_constant_steps_stay_bitwise_before_the_datum_moves():
    # the shortcut steps count as history: the first moving step extrapolates
    # zero motion
    grid = _grid_2d(h=1.0 / 16, T=0.05, steps=8)
    t_move = float(grid.times[3])

    def g(pts, t):
        return 0.4 + max(t - t_move, 0.0) * 20.0 * np.sin(3.0 * pts[:, 0] + pts[:, 1])

    datum = cf.BoundaryDatum("late", g)
    field = cf.solve(grid, datum, 3.0)
    assert np.all(field.values[:4] == 0.4)
    assert np.any(field.values[-1] != 0.4)
    assert reference_step_errors(field, datum, 3.0)[3:].max() <= 5e-5


def test_a_step_after_one_that_returned_its_start_offers_no_guess(monkeypatch):
    # the extrapolation from a step that kept its start is the next step's
    # start, which the minimizer would evaluate only to reject: steps 1-3
    # keep the constant state, 2 and 3 without a minimization, and step 4
    # is the first to move
    grid = _grid_2d(h=1.0 / 16, T=0.05, steps=8)
    t_move = float(grid.times[3])

    def g(pts, t):
        return 0.4 + max(t - t_move, 0.0) * 20.0 * np.sin(3.0 * pts[:, 0] + pts[:, 1])

    offered = []

    def recording(*args, guess=None, **kwargs):
        offered.append(guess is not None)
        return minimize(*args, guess=guess, **kwargs)

    monkeypatch.setattr(pde, "minimize", recording)
    cf.solve(grid, cf.BoundaryDatum("late", g), 3.0)
    assert offered == [False] * 2 + [True] * 4


def test_the_guess_extrapolates_by_the_ratio_of_non_uniform_steps(monkeypatch):
    # steps of 0.1, 0.2, 0.05 and 0.25: each step from the second on is
    # offered the clipped extrapolation of the module docstring, with the
    # ratio of its own step to the one before, computed from the stored rows
    times = np.array([0.0, 0.1, 0.3, 0.35, 0.6])
    grid = cf.make_grid(DomainSpec.full_space(1), Cube((0.0,), 0.5), 0.125, times)
    datum = cf.BoundaryDatum("wave", lambda pts, t: np.sin(3.0 * pts[:, 0] + 8.0 * t))
    guesses = []

    def recording(*args, guess=None, **kwargs):
        guesses.append(None if guess is None else guess.copy())
        return minimize(*args, guess=guess, **kwargs)

    monkeypatch.setattr(pde, "minimize", recording)
    u = cf.solve(grid, datum, 3.0).values
    free, fixed = grid.inside, ~grid.inside
    assert len(guesses) == grid.n_steps and guesses[0] is None
    for k in range(2, grid.n_steps + 1):
        bvals = datum(grid.node_points()[fixed], float(times[k]))
        start = u[k - 1].copy()
        start[fixed] = bvals
        ratio = float(times[k] - times[k - 1]) / float(times[k - 1] - times[k - 2])
        want = start.copy()
        want[free] += ratio * (u[k - 1] - u[k - 2])[free]
        want.clip(min(bvals.min(), u[k - 1].min()), max(bvals.max(), u[k - 1].max()), out=want)
        assert np.any(want != start)
        assert np.array_equal(guesses[k - 1], want)


# -- repeated stationary steps ----------------------------------------------------

def steps_minimized(monkeypatch, grid, g, p=3.0):
    """Solve with the datum g; return the field and the steps that called
    `minimize`, each known by the last time at which it evaluated the datum."""
    seen, steps = [], []

    def recorded(pts, t):
        seen.append(t)
        return g(pts, t)

    def recording(*args, **kwargs):
        steps.append(int(np.searchsorted(grid.times, seen[-1])))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(pde, "minimize", recording)
    return cf.solve(grid, cf.BoundaryDatum("recorded", recorded), p), steps


def _steady(pts, t):
    return np.sin(3.0 * pts[:, 0] + 2.0 * pts[:, 1])


def _steady_grid():
    """A 9 x 9 lattice and steps of tau = 100 / 12: under `_steady` the field
    reaches its steady state, and step 8 is the first to return its start."""
    return _grid_2d(T=100.0, steps=12)


def _corner(pts):
    """The box corner (-1/2, -1/2), which shares a cell with no free node."""
    return np.all(pts == -0.5, axis=1)


def test_a_repeated_stationary_step_does_not_call_minimize(monkeypatch):
    grid = _steady_grid()
    field, steps = steps_minimized(monkeypatch, grid, _steady)
    assert steps == list(range(1, 9))
    assert np.array_equal(field.values[8], field.values[7])
    # each later row is what `minimize` returns for that step
    system = LatticeSystem(grid.shape, grid.h)
    for k in range(9, 13):
        previous = field.values[k - 1]
        tau = float(grid.times[k] - grid.times[k - 1])
        u, _ = minimize(system, ~grid.inside, previous, 3.0, pde._TOL_REL_ENERGY,
                        mass=grid.h ** 2 / tau, previous=previous)
        assert np.array_equal(field.values[k], u)


def test_a_step_whose_boundary_values_change_after_a_stationary_step_is_solved(monkeypatch):
    # the box corner moves at step 10 and back at step 11: both steps, and
    # step 12, whose previous field differs from the one before it at the
    # corner, are solved, though each returns its start
    grid = _steady_grid()
    t_move = float(grid.times[10])

    def g(pts, t):
        return _steady(pts, t) + (t == t_move) * 0.1 * _corner(pts)

    field, steps = steps_minimized(monkeypatch, grid, g)
    assert steps == [*range(1, 9), 10, 11, 12]
    assert np.array_equal(field.values[11], field.values[9])


def test_a_step_whose_previous_field_differed_from_its_start_is_solved(monkeypatch):
    # step 10 moves only the box corner: it returns its start, which
    # differs from its previous field at that corner, so step 11 is solved,
    # and step 12 repeats it
    grid = _steady_grid()
    t_move = float(grid.times[10])

    def g(pts, t):
        return _steady(pts, t) + (t >= t_move) * 0.1 * _corner(pts)

    field, steps = steps_minimized(monkeypatch, grid, g)
    assert steps == [*range(1, 9), 10, 11]
    assert np.flatnonzero(field.values[10] != field.values[9]).tolist() == [0]
    assert np.array_equal(field.values[11], field.values[10])


@st.composite
def wave_data(draw):
    """A small 1D or 2D grid, p in [2, 4], and the coefficients of a datum
    c + sum_j a_j sin(k_j . x + w_j t + phi_j) with up to three waves."""
    ndim = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([9, 17] if ndim == 1 else [5, 9]))
    steps = draw(st.integers(2, 6))
    T = draw(st.floats(0.01, 0.5))
    grid = cf.make_grid(DomainSpec.full_space(ndim), Cube((0.0,) * ndim, 0.5),
                        1.0 / (n - 1), cf.uniform_times(T, steps))
    p = draw(st.floats(2.0, 4.0))
    coef = st.floats(-1.0, 1.0)
    waves = draw(st.lists(st.tuples(coef, st.lists(st.floats(-8.0, 8.0), min_size=ndim,
                                                   max_size=ndim),
                                    st.floats(-20.0, 20.0), st.floats(0.0, 6.3)),
                          min_size=1, max_size=3))
    return grid, p, draw(coef), waves


def wave(c, waves):
    def g(pts, t):
        out = np.full(len(pts), c)
        for a, k, w, phi in waves:
            out += a * np.sin(pts @ np.asarray(k) + w * t + phi)
        return out
    return g


@settings(max_examples=30, deadline=None)
@given(wave_data())
def test_solve_keeps_the_maximum_principle(data):
    # the warm start extrapolates past the data unless it is clipped; the
    # guesses it hands to the minimizer are checked as well as the steps
    grid, p, c, waves = data
    g = wave(c, waves)
    guesses = []
    minimize_step = pde.minimize

    def spy(*args, guess=None, **kwargs):
        if guess is not None:
            guesses.append(guess)
        return minimize_step(*args, guess=guess, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "minimize", spy)
        field = cf.solve(grid, cf.BoundaryDatum("waves", g), p)
    pts = grid.node_points()
    data_values = np.concatenate([g(pts, 0.0)] + [g(pts[~grid.inside], float(t))
                                                  for t in grid.times[1:]])
    for values in [field.values, *guesses]:
        assert values.min() >= data_values.min() - 1e-9
        assert values.max() <= data_values.max() + 1e-9


@settings(max_examples=30, deadline=None)
@given(wave_data(), st.floats(0.0, 0.5), st.floats(-8.0, 8.0), st.floats(-20.0, 20.0))
def test_solve_keeps_the_order_of_ordered_data(data, b, k, w):
    # g2 - g1 = b (1 + sin(k x_0 + w t)) >= 0.  Each returned step lies
    # within its certified error of the exact step, and the exact step is
    # order preserving and shifts by no more than its previous field does, so
    # the order can be lost only by the errors summed over the steps.
    grid, p, c, waves = data
    g1 = wave(c, waves)

    def g2(pts, t):
        return g1(pts, t) + b * (1.0 + np.sin(k * pts[:, 0] + w * t))

    u1 = cf.solve(grid, cf.BoundaryDatum("low", g1), p)
    u2 = cf.solve(grid, cf.BoundaryDatum("high", g2), p)
    slack = np.cumsum(step_error_bounds(u1) + step_error_bounds(u2))
    gap = (u2.values - u1.values).min(axis=1)
    assert gap[0] >= 0.0
    assert np.all(gap[1:] >= -(slack + 1e-9))


def test_solve_stores_every_step(monkeypatch):
    # row k is the field that step k's minimization returned, k = 0 the datum
    grid = _grid_1d(steps=7)
    datum = cf.BoundaryDatum("wave", lambda pts, t: np.sin(3.0 * pts[:, 0] + 8.0 * t))
    fields = [datum(grid.node_points(), 0.0)]

    def recorded(*args, **kwargs):
        u, history = minimize(*args, **kwargs)
        fields.append(u.copy())
        return u, history

    monkeypatch.setattr(pde, "minimize", recorded)
    field = cf.solve(grid, datum, 3.0)
    assert field.stored_steps == tuple(range(grid.n_steps + 1))
    assert len(fields) == grid.n_steps + 1
    for k, u in enumerate(fields):
        assert np.array_equal(field.slice_at_step(k), u)
    assert not np.array_equal(fields[1], fields[-1])
    for step in (-1, grid.n_steps + 1):
        with pytest.raises(ValueError, match="not stored"):
            field.slice_at_step(step)


# -- measurements ------------------------------------------------------------

def test_oscillation_over_matches_brute_force():
    rng = np.random.default_rng(9)
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    values = rng.normal(size=(5, 81))
    field = synthetic_field(values, times)
    for _ in range(10):
        c = rng.uniform(-0.3, 0.3, size=2)
        half = float(rng.uniform(0.15, 0.45))
        t_lo = float(rng.uniform(-0.2, 0.3))
        t_hi = float(rng.uniform(t_lo + 0.05, 0.5))
        region = Cube(tuple(c), half)
        try:
            got = cf.oscillation_over(field, region, t_lo, t_hi)
        except ValueError:
            continue        # window or region missed every node; fine here
        assert got == brute_oscillation(field, region, t_lo, t_hi)


def test_oscillation_over_errors():
    field = synthetic_field(np.zeros((2, 81)), [0.0, 1.0])
    with pytest.raises(ValueError, match="no stored time slices"):
        cf.oscillation_over(field, Cube((0.0, 0.0), 0.4), 0.4, 0.6)
    with pytest.raises(ValueError, match=r"no interior nodes in the cube of half-edge 0\.1 "
                                         r"at \(5\.0, 5\.0\)"):
        cf.oscillation_over(field, Cube((5.0, 5.0), 0.1), 0.0, 1.0)


def test_oscillation_window_clips_at_zero():
    field = synthetic_field(np.arange(162, dtype=float).reshape(2, 81), [0.0, 1.0])
    region = Cube((0.0, 0.0), 0.4)
    assert cf.oscillation_over(field, region, -5.0, 1.0) == \
        cf.oscillation_over(field, region, 0.0, 1.0)


def test_oscillation_monotone_in_radius_at_fixed_omega():
    # cylinders are nested for fixed omega_o, so oscillation cannot increase
    # as rho shrinks
    rng = np.random.default_rng(21)
    times = np.linspace(0.0, 1.0, 9)
    for _ in range(10):
        field = synthetic_field(rng.normal(size=(9, 81)), times)
        omega = float(rng.uniform(0.5, 2.0))
        radii = [0.24, 0.12, 0.06]
        oscs = [cf.oscillation(field, (0.0, 0.0), 1.0, r, omega) for r in radii]
        assert oscs[0] >= oscs[1] >= oscs[2]


def test_oscillation_validation():
    field = synthetic_field(np.zeros((2, 81)), [0.0, 1.0])
    with pytest.raises(ValueError, match="rho must be positive"):
        cf.oscillation(field, (0.0, 0.0), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="omega_o must be positive"):
        cf.oscillation(field, (0.0, 0.0), 1.0, 0.1, 0.0)


def test_lateral_mask_matches_brute_force():
    dom = DomainSpec.exterior_cube((0.0, 0.0), 1.0)
    grid = _grid_2d(domain=dom)
    region = Cube((0.0, 0.0), 0.4)
    mask = pde.lateral_mask(grid, region)
    inside = grid.inside.reshape(grid.shape)
    pts = grid.node_points()
    n0, n1 = grid.shape
    expect = np.zeros(grid.n_nodes, dtype=bool)
    for i in range(n0):
        for j in range(n1):
            if inside[i, j]:
                continue
            if i in (0, n0 - 1) or j in (0, n1 - 1):
                continue
            neigh = False
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < n0 and 0 <= b < n1 and inside[a, b]:
                    neigh = True
            flat = i * n1 + j
            in_region = bool(region.contains_points(pts[flat:flat + 1],
                                                    tol=1e-9 * grid.h)[0])
            expect[flat] = neigh and in_region
    assert np.array_equal(mask, expect)
    assert mask.any()


def test_osc_g_time_linear_datum_gives_window_length():
    # g(x, t) = t: the lateral oscillation is exactly the (clipped) window
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.5)
    grid = cf.make_grid(dom, Cube((0.0, 0.0), 0.25), 0.03125,
                        cf.uniform_times(0.05, 50))
    datum = cf.BoundaryDatum("t", lambda pts, t: np.full(len(pts), t))
    R_o, eps, d_ro, t_o = 0.1, 0.5, 0.36, 0.04
    depth = 3.0 * P3N2.constants.gamma_star * d_ro ** -0.5 * R_o ** 2.5
    assert depth < t_o    # no clipping in this configuration
    assert cf.window_depth(P3N2, d_ro, R_o, eps) == depth
    region = Cube((0.0, 0.0), 2.0 * R_o)
    got = cf.osc_g_on_lateral(grid, datum, region, t_o - depth, t_o)
    assert got == pytest.approx(depth, abs=1e-15)
    # delta = 0 reads as unbounded depth: the window is [0, t_o]
    depth0 = cf.window_depth(P3N2, 0.0, R_o, eps)
    assert depth0 == math.inf
    got0 = cf.osc_g_on_lateral(grid, datum, region, t_o - depth0, t_o)
    assert got0 == t_o


def test_osc_g_validation():
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.5)
    grid = cf.make_grid(dom, Cube((0.0, 0.0), 0.25), 0.0625,
                        cf.uniform_times(0.05, 5))
    datum = cf.BoundaryDatum("z", lambda pts, t: np.zeros(len(pts)))
    with pytest.raises(ValueError, match=r"delta\(R_o\) must lie in"):
        cf.window_depth(P3N2, 1.5, 0.1, 0.5)
    with pytest.raises(ValueError, match=r"epsilon must lie in"):
        cf.window_depth(P3N2, 0.5, 0.1, 1.0)
    for t_lo, t_hi in ((0.06, 0.08), (math.nan, 0.04), (0.0, math.nan)):
        with pytest.raises(ValueError, match="outside the grid times"):
            cf.osc_g_on_lateral(grid, datum, Cube((0.0, 0.0), 0.2), t_lo, t_hi)
    plain = cf.make_grid(DomainSpec.full_space(2), Cube((0.0, 0.0), 0.25),
                         0.0625, cf.uniform_times(0.05, 5))
    with pytest.raises(ValueError, match="no lateral boundary nodes"):
        cf.osc_g_on_lateral(plain, datum, Cube((0.0, 0.0), 0.2), 0.0, 0.04)


def test_spatial_energy_of_linear_slice():
    # box spans unit length with 8 cells: energy h * sum |slope|^p = slope^p
    grid = _grid_1d(h=0.125, steps=2)
    slope = 1.7
    vals = np.tile(slope * grid.node_points()[:, 0], (3, 1))
    field = cf.SpaceTimeField(grid, 3.0, vals)
    e = cf.spatial_energy(field)
    assert np.allclose(e, slope ** 3, rtol=1e-13)


# -- closed-form solution and snapshots ---------------------------------------

def test_barenblatt_profile_p3():
    # a = 1/4, kappa = 1/6; value at the origin is t**-a * C**2
    t = 2.0
    b0 = float(cf.barenblatt(np.array([0.0]), t, 3.0)[0])
    assert b0 == pytest.approx(t ** -0.25, abs=1e-15)
    edge = 6.0 ** (2.0 / 3.0) * t ** 0.25
    assert float(cf.barenblatt(np.array([edge + 1e-9]), t, 3.0)[0]) == 0.0
    assert float(cf.barenblatt(np.array([edge - 1e-3]), t, 3.0)[0]) > 0.0


def test_barenblatt_conserves_mass():
    x = np.linspace(-6.0, 6.0, 120001)
    m1 = np.trapezoid(cf.barenblatt(x, 1.0, 3.0), x)
    m2 = np.trapezoid(cf.barenblatt(x, 2.0, 3.0), x)
    assert abs(m2 - m1) <= 1e-9


def test_barenblatt_validation():
    for p in (2.0, math.nan):
        with pytest.raises(ValueError, match="p must exceed 2"):
            cf.barenblatt(np.array([0.0]), 1.0, p)
    with pytest.raises(ValueError, match="t must be positive"):
        cf.barenblatt(np.array([0.0]), 0.0, 3.0)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, math.pi])
def test_barenblatt_on_the_line_is_its_1d_closed_form_bitwise(p):
    # a = 1/(2(p-1)), kappa = (p-2)/p a**(1/(p-1)), as the N = 1 reference
    # was written before the formula took N columns
    x = np.concatenate([np.linspace(-5.0, 5.0, 2001), [1e-300, -0.0]])
    t, c = 1.7, 0.8
    a = 1.0 / (2.0 * (p - 1.0))
    kappa = (p - 2.0) / p * a ** (1.0 / (p - 1.0))
    core = c - kappa * (np.abs(x) * t ** -a) ** (p / (p - 1.0))
    ref = t ** -a * np.clip(core, 0.0, None) ** ((p - 1.0) / (p - 2.0))
    assert np.array_equal(cf.barenblatt(x, t, p, c), ref)
    assert np.array_equal(cf.barenblatt(x[:, None], t, p, c), ref)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_barenblatt_in_2d_is_radial_and_conserves_mass(p):
    # k = 1/(p - 2 + p/2); the value at the origin is t**-k C**((p-1)/(p-2)),
    # and the support edge sits at (C/q)**((p-1)/p) t**(k/2)
    c = 0.3
    k = 1.0 / (p - 2.0 + p / 2.0)
    q = (p - 2.0) / p * (k / 2.0) ** (1.0 / (p - 1.0))
    t = 2.0
    assert float(cf.barenblatt(np.zeros((1, 2)), t, p, c)[0]) == pytest.approx(
        t ** -k * c ** ((p - 1.0) / (p - 2.0)), rel=1e-14)
    edge = (c / q) ** ((p - 1.0) / p) * t ** (k / 2.0)
    angle = np.linspace(0.0, 2.0 * np.pi, 7)
    ring = np.column_stack([np.cos(angle), np.sin(angle)])
    inner = cf.barenblatt((edge - 1e-3) * ring, t, p, c)
    assert np.all(inner > 0.0) and np.allclose(inner, inner[0], rtol=1e-12)
    assert np.all(cf.barenblatt((edge + 1e-9) * ring, t, p, c) == 0.0)
    h = 0.01
    axis = np.arange(-3.0, 3.0 + h / 2, h)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    masses = [h * h * float(cf.barenblatt(pts, s, p, c).sum()) for s in (1.0, 2.0)]
    assert masses[1] == pytest.approx(masses[0], rel=1e-6)


def test_snapshot_roundtrip(tmp_path):
    # every value comes back bitwise, in 1D and in 2D: the smallest subnormal,
    # -0.0, both float extremes and 1/3 among them
    path = tmp_path / "snap.csv"
    extremes = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]
    for grid in (_grid_1d(steps=3), _grid_2d(steps=3)):
        values = np.random.default_rng(4).normal(size=(4, grid.n_nodes))
        values[2, :len(extremes)] = extremes
        cf.save_snapshot(cf.SpaceTimeField(grid, 3.0, values), 2, str(path))
        loaded = cf.load_snapshot(str(path))
        assert loaded["values"].tobytes() == values[2].tobytes()
        assert loaded["points"].tobytes() == grid.node_points().tobytes()
        assert np.array_equal(loaded["inside"], grid.inside)
        assert loaded["meta"] == {"h": grid.h, "p": 3.0, "step": 2,
                                  "time": float(grid.times[2]), "box_center": grid.box.center,
                                  "box_half_edge": grid.box.half_edge}
    # the metadata with the column header, or the metadata alone, hold no data
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for kept in (lines[:4], lines[:3]):
        path.write_text("".join(kept), encoding="utf-8")
        with pytest.raises(ValueError, match="holds no snapshot data"):
            cf.load_snapshot(str(path))


@pytest.mark.parametrize("grid", [_grid_1d(steps=3), _grid_2d(steps=3)], ids=["1d", "2d"])
def test_snapshot_bytes_match_a_per_row_formatter(tmp_path, grid):
    values = np.random.default_rng(4).normal(size=(4, grid.n_nodes))
    values[1, :3] = [0.0, -0.0, 1e-300]
    field = cf.SpaceTimeField(grid, 3.0, values)
    path = tmp_path / "snap.csv"
    cf.save_snapshot(field, 1, str(path))
    pts = grid.node_points()
    rows = [",".join("%.17g" % c for c in pts[i]) + f",{int(grid.inside[i])},{values[1, i]:.17g}"
            for i in range(len(pts))]
    body = path.read_bytes().split(b"\n")[4:]
    assert body == ("\n".join(rows) + "\n").encode().split(b"\n")


def test_snapshot_blocks_match_one_format_call(tmp_path):
    # 33 x 33 = 1089 nodes: one full block of rows and a partial one
    grid = _grid_2d(h=1.0 / 32, steps=2)
    assert grid.n_nodes > pde._SNAPSHOT_ROWS and grid.n_nodes % pde._SNAPSHOT_ROWS
    values = np.random.default_rng(5).normal(size=(3, grid.n_nodes))
    path = tmp_path / "snap.csv"
    cf.save_snapshot(cf.SpaceTimeField(grid, 3.0, values), 1, str(path))
    table = np.column_stack([grid.node_points(), grid.inside, values[1]])
    one_call = "\n".join(["%.17g,%.17g,%d,%.17g"] * grid.n_nodes) % tuple(table.ravel().tolist())
    head, _, body = path.read_text(encoding="utf-8").partition("x0,x1,inside,value\n")
    assert head.count("\n") == 3 and body == one_call + "\n"
    loaded = cf.load_snapshot(str(path))
    assert loaded["values"].tobytes() == values[1].tobytes()
    assert loaded["points"].tobytes() == grid.node_points().tobytes()
    assert np.array_equal(loaded["inside"], grid.inside)


@pytest.mark.parametrize("failure", ["format", "rename"])
def test_snapshot_write_failure_leaves_no_file(tmp_path, monkeypatch, failure):
    # a row that cannot be formatted mid-table, or a failed final rename:
    # neither a partial snapshot nor the temp file may remain
    grid = _grid_1d(steps=3)
    field = cf.solve(grid, cf.BoundaryDatum("lin", lambda pts, t: pts[:, 0] + 0.1 * t), 3.0)
    values = field.values
    if failure == "format":
        values = values.astype(object)
        values[2, grid.n_nodes // 2] = "not a number"
    else:
        def replace(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(os, "replace", replace)
    field = cf.SpaceTimeField(grid, field.p, values)
    with pytest.raises((ValueError, OSError)):
        cf.save_snapshot(field, 2, str(tmp_path / "field_step2.csv"))
    assert os.listdir(tmp_path) == []
