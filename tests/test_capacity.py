from __future__ import annotations

import numpy as np
import pytest

import capflow as cf
from capflow import capacity
from capflow.geometry import Cube, DomainSpec, IndicatorField


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


def test_condenser_potential_in_unit_range():
    h = 2.0 / 16
    obstacle = IndicatorField.all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 2.0), 3.0,
                                        capacity.SolverConfig(nodes_across=17))
    u, history = capacity.minimize_condenser(problem)
    assert float(u.min()) >= -1e-12 and float(u.max()) <= 1.0 + 1e-12
    assert len(history) >= 1


def test_delta_empty_obstacle_is_exact_zero():
    val, cap_obs, cap_full = capacity.delta_detailed(
        DomainSpec.full_space(2), (0.0, 0.0), 0.5, P3N2, FAST)
    assert val == 0.0
    assert cap_obs.value == 0.0
    assert cap_full.value > 0.0


def test_delta_full_obstacle_is_one():
    # the probe cube sits deep inside the removed cube, so the obstacle marks
    # every node and both condensers are the same problem
    dom = DomainSpec.exterior_cube((-10.0, -10.0), 10.0)
    val = capacity.delta(dom, (0.0, 0.0), 0.5, P3N2, FAST)
    assert abs(val - 1.0) <= 1e-10


def test_delta_half_space_1d_closed_form():
    # obstacle [0, rho], ground at +-1.5 rho: ramps of length 1.5 rho and
    # 0.5 rho against a full-cube value of 2 (0.5 rho)**(1-p); for p = 3 the
    # ratio collapses to (3**-2 + 1) / 2 = 5/9 independent of rho
    for rho in (0.5, 0.25):
        val = capacity.delta(DomainSpec.half_space((0.0,)), (0.0,), rho, P3N1,
                             capacity.SolverConfig(nodes_across=33))
        assert abs(val - 5.0 / 9.0) <= 1e-13


def test_delta_lies_in_unit_interval():
    doms = [DomainSpec.half_space((0.0, 0.0)),
            DomainSpec.exterior_cube((0.0, 0.0), 1.0),
            DomainSpec.slit((0.0, 0.0), 10.0)]
    rng = np.random.default_rng(11)
    for k in range(10):
        dom = doms[k % len(doms)]
        rho = float(rng.uniform(0.1, 1.0))
        val = capacity.delta(dom, (0.0, 0.0), rho, P3N2, FAST)
        assert 0.0 <= val <= 1.0, (dom.kind, rho, val)


def test_delta_validation():
    with pytest.raises(ValueError, match="rho must be positive"):
        capacity.delta(DomainSpec.half_space((0.0,)), (0.0,), 0.0, P3N1, FAST)
    with pytest.raises(ValueError, match="nodes_across"):
        capacity.delta(DomainSpec.half_space((0.0,)), (0.0,), 0.5, P3N1,
                       capacity.SolverConfig(nodes_across=18))


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
