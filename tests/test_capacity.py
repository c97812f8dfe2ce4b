from __future__ import annotations

import concurrent.futures
import weakref

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import capflow as cf
from capflow import capacity
from capflow.geometry import Cube, DomainSpec, IndicatorField, rasterize_obstacle
from helpers import count_condensers


P3N1 = cf.make_params(3.0, 1)
P3N2 = cf.make_params(3.0, 2)
FAST = capacity.SolverConfig(nodes_across=17)


def _cube_condenser(ndim: int, rho: float, outer_factor: float, p: float,
                    nodes_across: int) -> capacity.CapacityValue:
    h = 2.0 * rho / (nodes_across - 1)
    center = (0.0,) * ndim
    obstacle = IndicatorField.all_true(Cube(center, rho), h)
    problem = capacity.CondenserProblem(
        obstacle, Cube(center, outer_factor * rho), p,
        capacity.SolverConfig(nodes_across=nodes_across))
    return capacity.solve_condenser(problem)


def test_condenser_1d_linear_ramp_exact():
    # two ramps over gaps of length (outer_factor - 1) * rho; the continuum
    # minimizer is piecewise linear and lattice-representable, so the discrete
    # value is exact: 2 * ((outer_factor - 1) * rho)**(1 - p)
    for p in (2.5, 3.0, 4.0):
        for factor in (1.5, 2.0):
            cap = _cube_condenser(1, 0.5, factor, p, 33).value
            exact = 2.0 * ((factor - 1.0) * 0.5) ** (1.0 - p)
            assert abs(cap - exact) <= 1e-12 * exact


def test_condenser_2d_scaling_is_exact():
    # p = N + 1 = 3: capacity scales as rho**-1, and halving rho at matched
    # resolution rescales the minimizer itself, so values double bitwise
    caps = [_cube_condenser(2, rho, 2.0, 3.0, 33).value for rho in (1.0, 0.5, 0.25)]
    assert caps[1] == 2.0 * caps[0]
    assert caps[2] == 2.0 * caps[1]


def _direct_condenser(obstacle: IndicatorField, p: float) -> capacity.CapacityValue:
    """One of delta's condensers solved at its own radius and centre."""
    cube = obstacle.cube
    return capacity.solve_condenser(capacity.CondenserProblem(
        obstacle, Cube(cube.center, 1.5 * cube.half_edge), p, FAST))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_unit_denominator_rescales_to_the_direct_solve(ndim, p, monkeypatch):
    # delta's condensers at any radius and centre are the memo's unit-lattice
    # ones with lengths scaled by rho: the same iterates, energies times
    # rho**(N-p).  At dyadic rho and integer p every operation scales by a
    # power of two, so the rescaled values are bitwise the direct ones.
    params = cf.make_params(p, ndim)
    x_o = (0.3125, -0.75)[:ndim]
    dom = DomainSpec.half_space(x_o)       # the same mask at every radius
    radii = (0.5, 0.3, 0.1, 0.0625)
    memo = capacity.DeltaMemo(dom, x_o, params, FAST)
    solved = count_condensers(monkeypatch)
    rows = [memo.rows([rho])[0] for rho in radii]
    # the half-space mask and the full cube, once each for all four radii
    assert len(solved) == solved.distinct_masks() == 2
    # radii that share a mask share delta bitwise
    assert len({val for val, _, _ in rows}) == 1
    for rho, (_, cap_obs, cap_full) in zip(radii, rows):
        h = 2.0 * rho / (FAST.nodes_across - 1)
        inner = Cube(x_o, rho)
        for cap, obstacle in ((cap_obs, rasterize_obstacle(dom, inner, h)),
                              (cap_full, IndicatorField.all_true(inner, h))):
            direct = _direct_condenser(obstacle, p)
            assert cap.iterations == direct.iterations
            assert cap.grid_h == direct.grid_h
            if p == round(p) and rho in (0.5, 0.0625):
                assert cap.energy_history == direct.energy_history
            else:
                assert np.allclose(cap.energy_history, direct.energy_history,
                                   rtol=1e-14, atol=0.0)


def test_a_mask_that_changes_with_the_radius_is_solved_per_radius(monkeypatch):
    # a small removed cube at the corner x_o covers a growing share of
    # K_rho(x_o) as rho shrinks: a new mask at every radius, plus the full cube
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.05)
    solved = count_condensers(monkeypatch)
    prof = cf.build_profile(dom, (0.0, 0.0), 0.5, 0.5, 3, P3N2,
                            capacity.DeltaMemo(dom, (0.0, 0.0), P3N2, FAST, workers=2))
    assert len(solved) == solved.distinct_masks() == 1 + prof.depth
    assert len(set(prof.deltas.tolist())) == prof.depth
    rows = capacity.DeltaMemo(dom, (0.0, 0.0), P3N2, FAST).rows(prof.radii)
    assert [val for val, _, _ in rows] == prof.deltas.tolist()
    for rho, (_, cap_obs, _) in zip(prof.radii, rows):
        obstacle = rasterize_obstacle(dom, Cube((0.0, 0.0), rho), cap_obs.grid_h)
        # p = 3, N = 2 and dyadic radii: bitwise the direct solve
        assert cap_obs.value == _direct_condenser(obstacle, 3.0).value


def test_memo_failure_reaches_every_waiting_thread(monkeypatch):
    # the first thread's ConvergenceError on the full cube, the first mask
    # solved, is every waiter's, without a hang and without a second solve
    memo = capacity.DeltaMemo(DomainSpec.half_space((0.0, 0.0)), (0.0, 0.0), P3N2,
                              capacity.SolverConfig(nodes_across=17, max_iter=1))
    solved = count_condensers(monkeypatch, delay=0.05)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(memo, [0.5]) for _ in range(8)]
        for fut in futures:
            with pytest.raises(cf.ConvergenceError, match="did not converge") as err:
                fut.result(timeout=60)
            assert np.isfinite(err.value.last_energy)
    assert len(solved) == 1


def test_memo_keeps_no_condenser_field_or_lattice_system(monkeypatch):
    # every field and LatticeSystem of a memo solve dies with the solve; the
    # memo keeps only its rasterized obstacles and CapacityValues
    refs = []
    minimize, system = capacity.minimize_condenser, capacity.LatticeSystem

    def kept_minimize(problem):
        psi, history = minimize(problem)
        refs.append(weakref.ref(psi))
        return psi, history

    def kept_system(*args):
        out = system(*args)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(capacity, "minimize_condenser", kept_minimize)
    monkeypatch.setattr(capacity, "LatticeSystem", kept_system)
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.05)
    capacity.DeltaMemo(dom, (0.0, 0.0), P3N2, FAST, workers=2).rows([0.5, 0.25, 0.25])
    assert len(refs) == 2 * 3         # three distinct masks, the full cube included
    assert all(ref() is None for ref in refs)


def test_condenser_history_nonincreasing():
    cv = _cube_condenser(2, 1.0, 1.5, 3.0, 17)
    hist = np.array(cv.energy_history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])
    assert cv.iterations >= 1
    assert cv.value == hist[-1]


def test_condenser_convergence_error_carries_energy():
    h = 2.0 / 16
    obstacle = IndicatorField.all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0,
                                        capacity.SolverConfig(nodes_across=17, max_iter=1))
    with pytest.raises(cf.ConvergenceError,
                       match="condenser minimization did not converge in 1 iterations"
                       ) as err:
        capacity.minimize_condenser(problem)
    assert np.isfinite(err.value.last_energy)
    assert err.value.step_index is None


def test_condenser_of_scattered_points_converges_to_its_minimum():
    # isolated plate nodes at p = 3: the full reweighted step overshoots by
    # about a factor p - 1 = 2, and accepting it zigzagged for 700 iterations
    # to a stop 1e-4 above the minimum
    points = [(0, 2), (0, 4), (0, 6), (0, 8), (2, 3), (3, 11), (6, 14), (10, 16),
              (12, 10), (14, 12), (15, 16), (16, 14)]
    mask = np.zeros((17, 17), dtype=bool)
    mask[tuple(np.transpose(points))] = True
    obstacle = IndicatorField(Cube((0.0, 0.0), 1.0), 2.0 / 16, mask)

    def solve(cfg):
        return capacity.solve_condenser(
            capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0, cfg))

    cv = solve(FAST)
    tight = solve(capacity.SolverConfig(nodes_across=17, tol_rel_energy=1e-14))
    assert cv.iterations <= 20
    assert abs(cv.value - tight.value) <= 1e-8 * tight.value


def test_condenser_potential_in_unit_range():
    h = 2.0 / 16
    obstacle = IndicatorField.all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 2.0), 3.0,
                                        capacity.SolverConfig(nodes_across=17))
    u, history = capacity.minimize_condenser(problem)
    assert float(u.min()) >= -1e-12 and float(u.max()) <= 1.0 + 1e-12
    assert len(history) >= 1


def test_delta_empty_obstacle_is_exact_zero():
    val, cap_obs, cap_full = capacity.DeltaMemo(
        DomainSpec.full_space(2), (0.0, 0.0), P3N2, FAST).rows([0.5])[0]
    assert val == 0.0
    assert cap_obs.value == 0.0
    assert cap_full.value > 0.0


def test_delta_full_obstacle_is_one():
    # the probe cube sits deep inside the removed cube, so the obstacle marks
    # every node and both condensers are the same problem
    dom = DomainSpec.exterior_cube((-10.0, -10.0), 10.0)
    val = capacity.DeltaMemo(dom, (0.0, 0.0), P3N2, FAST)([0.5])[0]
    assert abs(val - 1.0) <= 1e-10


def test_delta_half_space_1d_closed_form():
    # obstacle [0, rho], ground at +-1.5 rho: ramps of length 1.5 rho and
    # 0.5 rho against a full-cube value of 2 (0.5 rho)**(1-p); for p = 3 the
    # ratio collapses to (3**-2 + 1) / 2 = 5/9 independent of rho
    for rho in (0.5, 0.25):
        val = capacity.DeltaMemo(DomainSpec.half_space((0.0,)), (0.0,), P3N1,
                                 capacity.SolverConfig(nodes_across=33))([rho])[0]
        assert abs(val - 5.0 / 9.0) <= 1e-13


def test_delta_lies_in_unit_interval():
    doms = [DomainSpec.half_space((0.0, 0.0)),
            DomainSpec.exterior_cube((0.0, 0.0), 1.0),
            DomainSpec.slit((0.0, 0.0), 10.0)]
    rng = np.random.default_rng(11)
    for k in range(10):
        dom = doms[k % len(doms)]
        rho = float(rng.uniform(0.1, 1.0))
        val = capacity.DeltaMemo(dom, (0.0, 0.0), P3N2, FAST)([rho])[0]
        assert 0.0 <= val <= 1.0, (dom.kind, rho, val)


def test_delta_validation():
    with pytest.raises(ValueError, match="rho must be positive"):
        capacity.DeltaMemo(DomainSpec.half_space((0.0,)), (0.0,), P3N1, FAST)([0.0])
    with pytest.raises(ValueError, match="nodes_across"):
        capacity.DeltaMemo(DomainSpec.half_space((0.0,)), (0.0,), P3N1,
                           capacity.SolverConfig(nodes_across=18))([0.5])


def test_parabolic_capacity_time_constant_slab():
    # constant-in-time obstacle: sliced value is the time span times the
    # elliptic capacity, and the trapezoid rule is exact for a constant
    h = 2.0 * 0.5 / 16
    obstacle = IndicatorField.all_true(Cube((0.0,), 0.5), h)
    outer = Cube((0.0,), 1.0)
    elliptic = capacity.solve_condenser(
        capacity.CondenserProblem(obstacle, outer, 3.0, FAST)).value
    a, b, m = 0.25, 1.75, 13
    taus = np.linspace(a, b, m)
    val = capacity.parabolic_capacity([(t, obstacle) for t in taus], outer, 3.0, FAST)
    exact = (b - a) * elliptic
    assert abs(val - exact) <= 1e-12 * exact


def test_parabolic_capacity_solves_each_distinct_slice_once(monkeypatch):
    h = 2.0 * 0.5 / 16
    cube = Cube((0.0,), 0.5)
    full = IndicatorField.all_true(cube, h)
    half = IndicatorField(cube, h, np.arange(17) >= 8)
    outer = Cube((0.0,), 1.0)
    c_full, c_half = (capacity.solve_condenser(
        capacity.CondenserProblem(f, outer, 3.0, FAST)).value for f in (full, half))
    solved = count_condensers(monkeypatch)
    taus = np.linspace(0.0, 1.2, 13)
    assert capacity.parabolic_capacity([(t, full) for t in taus], outer, 3.0, FAST) \
        == 1.2 * c_full
    assert len(solved) == 1
    # equal slices are matched by content, not by identity
    fields = [full, half, IndicatorField(cube, h, half.values.copy()), full]
    val = capacity.parabolic_capacity(list(zip([0.0, 0.5, 1.0, 1.5], fields)),
                                      outer, 3.0, FAST)
    assert len(solved) == 3
    assert val == 0.5 * (0.5 * c_full + (c_half + c_half) + 0.5 * c_full)


def test_parabolic_capacity_validation():
    h = 2.0 * 0.5 / 16
    obstacle = IndicatorField.all_true(Cube((0.0,), 0.5), h)
    outer = Cube((0.0,), 1.0)
    with pytest.raises(ValueError, match="empty slice list"):
        capacity.parabolic_capacity([], outer, 3.0, FAST)
    assert capacity.parabolic_capacity([(0.0, obstacle)], outer, 3.0, FAST) == 0.0
    with pytest.raises(ValueError, match="strictly increasing"):
        capacity.parabolic_capacity([(0.0, obstacle), (0.0, obstacle)], outer,
                                    3.0, FAST)
    with pytest.raises(ValueError, match="uniformly spaced"):
        capacity.parabolic_capacity(
            [(0.0, obstacle), (0.1, obstacle), (0.3, obstacle)], outer, 3.0, FAST)


# -- properties on random obstacles ---------------------------------------------

MASK_NODES = 17     # FAST's lattice: h = 2 rho / 16


def _mask_domain(mask: np.ndarray, x_o, rho: float) -> DomainSpec:
    """A domain whose obstacle in K_rho(x_o) is `mask` on FAST's lattice.

    Outside the cube E is a half space, so the anchor, which must lie on the
    boundary of E, is there, clear of the cube.
    """
    h = 2.0 * rho / (MASK_NODES - 1)
    anchor = (x_o[0] + 4.0 * rho, *x_o[1:])

    def in_e(pt):
        idx = tuple(round((c - o + rho) / h) for c, o in zip(pt, x_o))
        if all(0 <= i < MASK_NODES for i in idx):
            return not mask[idx]
        return pt[0] < anchor[0]

    return DomainSpec.custom_mask(anchor, in_e)


@st.composite
def random_masks(draw):
    ndim = draw(st.sampled_from([1, 2]))
    return draw(hnp.arrays(bool, (MASK_NODES,) * ndim))


@settings(max_examples=100, deadline=None)
@given(random_masks(), st.sampled_from([2.5, 3.0, 4.0]), st.sampled_from([1.0, 0.25]))
def test_delta_of_random_obstacles_lies_in_unit_interval(mask, p, rho):
    ndim = mask.ndim
    params = cf.make_params(p, ndim)
    x_o = (0.5,) * ndim
    val, cap_obs, cap_full = capacity.DeltaMemo(
        _mask_domain(mask, x_o, rho), x_o, params, FAST).rows([rho])[0]
    assert 0.0 <= val <= 1.0
    assert (val == 0.0) == (not mask.any())
    assert cap_obs.value <= cap_full.value * (1.0 + 1e-8)


@settings(max_examples=100, deadline=None)
@given(random_masks(), st.data(), st.sampled_from([2.5, 3.0, 4.0]))
def test_capacity_is_monotone_under_obstacle_inclusion(small, data, p):
    ndim = small.ndim
    large = small | data.draw(hnp.arrays(bool, small.shape))
    cube = Cube((0.0,) * ndim, 1.0)
    outer = Cube((0.0,) * ndim, 1.5)
    h = 2.0 / (MASK_NODES - 1)
    cap_small, cap_large = (
        capacity.solve_condenser(capacity.CondenserProblem(
            IndicatorField(cube, h, m), outer, p, FAST)).value
        for m in (small, large))
    assert cap_small <= cap_large * (1.0 + 1e-8)
