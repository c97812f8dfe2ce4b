from __future__ import annotations

import math
import os

import numpy as np
import pytest

import capflow as cf
from capflow import pde
from capflow.geometry import Cube, DomainSpec
from helpers import brute_oscillation, synthetic_field


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
    with pytest.raises(ValueError, match="p must be at least 2"):
        cf.solve(grid, datum, 1.5)


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


def test_solve_convergence_error_carries_step():
    grid = _grid_2d(h=0.125, T=0.1, steps=3)
    datum = cf.BoundaryDatum(
        "rough", lambda pts, t: np.sin(9 * pts[:, 0]) * np.cos(7 * pts[:, 1]) + t)
    with pytest.raises(cf.ConvergenceError) as err:
        cf.solve(grid, datum, 4.0, cf.SchemeConfig(max_iter=1))
    assert err.value.step_index == 1
    assert err.value.last_energy is not None


def test_store_stride_keeps_ends():
    grid = _grid_1d(steps=7)
    datum = cf.BoundaryDatum("c", lambda pts, t: np.full(len(pts), 1.0))
    field = cf.solve(grid, datum, 3.0, cf.SchemeConfig(store_stride=3))
    assert field.stored_steps == (0, 3, 6, 7)
    assert field.slice_at_step(7).shape == (grid.n_nodes,)
    with pytest.raises(ValueError, match="not stored"):
        field.slice_at_step(1)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        cf.SchemeConfig(max_iter=0)
    with pytest.raises(ValueError):
        cf.SchemeConfig(tol_rel_energy=0.0)
    with pytest.raises(ValueError, match=r"tol_rel_energy must lie in \(0, 1\)"):
        cf.SchemeConfig(tol_rel_energy=1.0)
    with pytest.raises(ValueError):
        cf.SchemeConfig(store_stride=0)


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
    with pytest.raises(ValueError, match="no interior nodes"):
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
    with pytest.raises(ValueError, match="outside the grid times"):
        cf.osc_g_on_lateral(grid, datum, Cube((0.0, 0.0), 0.2), 0.06, 0.08)
    plain = cf.make_grid(DomainSpec.full_space(2), Cube((0.0, 0.0), 0.25),
                         0.0625, cf.uniform_times(0.05, 5))
    with pytest.raises(ValueError, match="no lateral boundary nodes"):
        cf.osc_g_on_lateral(plain, datum, Cube((0.0, 0.0), 0.2), 0.0, 0.04)


def test_spatial_energy_of_linear_slice():
    # box spans unit length with 8 cells: energy h * sum |slope|^p = slope^p
    grid = _grid_1d(h=0.125, steps=2)
    slope = 1.7
    vals = np.tile(slope * grid.node_points()[:, 0], (3, 1))
    field = cf.SpaceTimeField(grid, 3.0, (0, 1, 2), vals)
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
    with pytest.raises(ValueError, match="p must exceed 2"):
        cf.barenblatt(np.array([0.0]), 1.0, 2.0)
    with pytest.raises(ValueError, match="t must be positive"):
        cf.barenblatt(np.array([0.0]), 0.0, 3.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        cf.barenblatt(np.zeros((4, 2)), 1.0, 3.0)


def test_snapshot_roundtrip(tmp_path):
    grid = _grid_1d(steps=3)
    datum = cf.BoundaryDatum("lin", lambda pts, t: pts[:, 0] + 0.1 * t)
    field = cf.solve(grid, datum, 3.0)
    path = tmp_path / "snap.csv"
    cf.save_snapshot(field, 2, str(path))
    loaded = cf.load_snapshot(str(path))
    assert np.array_equal(loaded["values"], field.slice_at_step(2))
    assert np.array_equal(loaded["points"][:, 0], grid.node_points()[:, 0])
    assert np.array_equal(loaded["inside"], grid.inside)
    assert loaded["meta"]["h"] == grid.h
    assert loaded["meta"]["p"] == 3.0
    assert loaded["meta"]["step"] == 2
    assert loaded["meta"]["time"] == float(grid.times[2])


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
    field = cf.SpaceTimeField(grid, field.p, field.stored_steps, values)
    with pytest.raises((ValueError, OSError)):
        cf.save_snapshot(field, 2, str(tmp_path / "field_step2.csv"))
    assert os.listdir(tmp_path) == []
