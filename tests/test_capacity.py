from __future__ import annotations

import weakref

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import capflow as cf
from capflow import capacity, lattice
from capflow.geometry import Cube, DomainSpec, IndicatorField, rasterize_obstacle
from helpers import all_true, count_calls, count_condensers, count_solves


P3N1 = cf.make_params(3.0, 1)
P3N2 = cf.make_params(3.0, 2)
FAST = 17


def _cube_condenser(ndim: int, rho: float, outer_factor: float, p: float,
                    nodes_across: int) -> capacity.CapacityValue:
    h = 2.0 * rho / (nodes_across - 1)
    center = (0.0,) * ndim
    obstacle = all_true(Cube(center, rho), h)
    problem = capacity.CondenserProblem(obstacle, Cube(center, outer_factor * rho), p)
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
        obstacle, Cube(cube.center, 1.5 * cube.half_edge), p))


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
        h = 2.0 * rho / (FAST - 1)
        inner = Cube(x_o, rho)
        for cap, obstacle in ((cap_obs, rasterize_obstacle(dom, inner, h)),
                              (cap_full, all_true(inner, h))):
            direct = _direct_condenser(obstacle, p)
            assert cap.iterations == direct.iterations
            if p == round(p) and rho in (0.5, 0.0625):
                assert cap.value == direct.value
            else:
                assert cap.value == pytest.approx(direct.value, rel=1e-14, abs=0.0)


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
        h = 2.0 * rho / (FAST - 1)
        obstacle = rasterize_obstacle(dom, Cube((0.0, 0.0), rho), h)
        # p = 3, N = 2 and dyadic radii: bitwise the direct solve
        assert cap_obs.value == _direct_condenser(obstacle, 3.0).value


def test_memo_failure_in_the_pool_reaches_the_caller(monkeypatch):
    # a ConvergenceError in a worker thread surfaces from rows, energy intact
    monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    memo = capacity.DeltaMemo(DomainSpec.half_space((0.0, 0.0)), (0.0, 0.0), P3N2, FAST,
                              workers=2)
    with pytest.raises(cf.ConvergenceError, match="did not converge") as err:
        memo.rows([0.5, 0.25])
    assert np.isfinite(err.value.last_energy)


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
    h = 2.0 / 16
    obstacle = all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0)
    _, history = capacity.minimize_condenser(problem)
    hist = np.array(history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])
    cv = capacity.solve_condenser(problem)
    assert cv.iterations == len(history) - 1 >= 1
    assert cv.value == history[-1]


def test_condenser_convergence_error_carries_energy(monkeypatch):
    monkeypatch.setattr(lattice, "_MAX_ITER", 1)
    h = 2.0 / 16
    obstacle = all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0)
    with pytest.raises(cf.ConvergenceError,
                       match="condenser minimization did not converge within 1 "
                             "reweighting iterations") as err:
        capacity.minimize_condenser(problem)
    assert np.isfinite(err.value.last_energy)
    assert err.value.step_index is None


def test_condenser_of_scattered_points_converges_to_its_minimum(monkeypatch):
    # isolated plate nodes at p = 3: the full reweighted step overshoots by
    # about a factor p - 1 = 2, and accepting it zigzagged for 700 iterations
    # to a stop 1e-4 above the minimum
    points = [(0, 2), (0, 4), (0, 6), (0, 8), (2, 3), (3, 11), (6, 14), (10, 16),
              (12, 10), (14, 12), (15, 16), (16, 14)]
    mask = np.zeros((17, 17), dtype=bool)
    mask[tuple(np.transpose(points))] = True
    obstacle = IndicatorField(Cube((0.0, 0.0), 1.0), 2.0 / 16, mask)

    def solve():
        return capacity.solve_condenser(
            capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0))

    cv = solve()
    monkeypatch.setattr(capacity, "_TOL_REL_ENERGY", 1e-14)
    tight = solve()
    assert cv.iterations <= 20
    assert abs(cv.value - tight.value) <= 1e-8 * tight.value


def test_condenser_potential_in_unit_range():
    h = 2.0 / 16
    obstacle = all_true(Cube((0.0, 0.0), 1.0), h)
    problem = capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 2.0), 3.0)
    u, history = capacity.minimize_condenser(problem)
    assert float(u.min()) >= -1e-12 and float(u.max()) <= 1.0 + 1e-12
    assert len(history) >= 1


@pytest.mark.parametrize("p", [1.5, float("nan")])
def test_condenser_problem_rejects_p_below_2_or_nan(p):
    # a NaN p fails every comparison; it is refused before any solve
    obstacle = all_true(Cube((0.0, 0.0), 1.0), 2.0 / 16)
    with pytest.raises(ValueError, match="p must be >= 2"):
        capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), p)


@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_capacity_value_rejects_negative_or_nan(value):
    with pytest.raises(ValueError, match="capacity must be nonnegative"):
        capacity.CapacityValue(value, 3)


def _corner_condenser(nodes_across: int, p: float) -> capacity.CondenserProblem:
    """The unit-lattice condenser of the three quadrants x <= 0 or y <= 0."""
    h = 2.0 / (nodes_across - 1)
    c = np.arange(nodes_across) - (nodes_across - 1) // 2
    mask = (c[:, None] <= 0) | (c[None, :] <= 0)
    return capacity.CondenserProblem(
        IndicatorField(Cube((0.0, 0.0), 1.0), h, mask), Cube((0.0, 0.0), 1.5), p)


@pytest.mark.parametrize("nodes_across", [33, 65])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_nested_start_reaches_the_tight_minimum(nodes_across, p, monkeypatch):
    # 33 nodes nest once, 65 twice; the fine lattice is factored once, for
    # its first p > 2 solve, where a p = 2 start factored it twice
    problem = _corner_condenser(nodes_across, p)
    system, fixed, _ = capacity._embed_obstacle(problem)
    # the corner condenser equals its transpose, so its solves run on one
    # unknown per mirror class of free nodes
    free = ~fixed.reshape(system.shape)
    n_fine = int(free.sum() + np.trace(free)) // 2
    factored = count_calls(monkeypatch, lattice.spla, "splu")
    solved = count_condensers(monkeypatch)
    psi, history = capacity.minimize_condenser(problem)
    assert len(solved) == {33: 2, 65: 3}[nodes_across]
    assert [a.shape[0] for a in factored].count(n_fine) == 1
    assert float(psi.min()) >= 0.0 and float(psi.max()) <= 1.0
    monkeypatch.setattr(capacity, "_TOL_REL_ENERGY", 1e-14)
    tight = capacity.solve_condenser(_corner_condenser(nodes_across, p))
    assert abs(history[-1] - tight.value) <= 1e-9 * tight.value


def test_prolong_keeps_a_symmetric_field_symmetric():
    # a cell centre summed axis by axis, (a + c) + (b + d) over its corners
    # a = (i, j), b = (i, j + 1), c = (i + 1, j), d = (i + 1, j + 1), rounds
    # differently from its mirror's (a + b) + (c + d)
    coarse = np.random.default_rng(2).random((9, 9))
    coarse = np.triu(coarse) + np.triu(coarse, 1).T
    fine = capacity._prolong(coarse)
    assert np.array_equal(fine, fine.T)
    assert np.array_equal(fine[::2, ::2], coarse)
    assert np.allclose(fine[1::2, 1::2], 0.25 * (coarse[:-1, :-1] + coarse[:-1, 1:]
                                                  + coarse[1:, :-1] + coarse[1:, 1:]),
                       rtol=0.0, atol=1e-15)


def test_full_cube_minimizer_is_symmetric():
    # the denominator condenser equals its transpose, so every solve of its
    # nested levels folds onto the mirror classes and keeps the iterates
    # symmetric bitwise
    obstacle = all_true(Cube((0.0, 0.0), 1.0), 2.0 / 32)
    psi, _ = capacity.minimize_condenser(
        capacity.CondenserProblem(obstacle, Cube((0.0, 0.0), 1.5), 3.0))
    assert np.array_equal(psi, psi.T)


def _odd_nodes_only() -> capacity.CondenserProblem:
    mask = np.zeros((33, 33), dtype=bool)
    mask[15:18:2, 15:18:2] = True         # every-other-node subsample is empty
    return capacity.CondenserProblem(IndicatorField(Cube((0.0, 0.0), 1.0), 2.0 / 32, mask),
                                     Cube((0.0, 0.0), 1.5), 3.0)


@pytest.mark.parametrize("problem", [
    _corner_condenser(33, 2.0),
    _corner_condenser(17, 3.0),
    _odd_nodes_only(),
    # aligned with the outer lattice at spacing h but not at 2h
    capacity.CondenserProblem(all_true(Cube((2.0 / 32, 0.0), 1.0), 2.0 / 32),
                              Cube((0.0, 0.0), 1.5), 3.0),
], ids=["p2", "17_nodes", "empty_subsample", "unaligned_at_2h"])
def test_condensers_without_a_coarse_problem_start_from_p2(problem, monkeypatch):
    # the start is `minimize` at p = 2: bitwise the direct unit-weight
    # solve, folded as `minimize` folds a symmetric condenser.  At p = 2 it
    # is the minimizer, and no second call confirms it
    system, fixed, bvals = capacity._embed_obstacle(problem)
    folded = all(lattice._transpose_symmetric(v, system.shape) for v in (fixed, bvals))
    start = system.solve_dirichlet(np.ones(system.n_cells), fixed.ravel(), bvals.ravel(),
                                   folded=folded)
    solves = count_solves(monkeypatch)
    starts = []
    minimize = capacity.minimize

    def recording(system, fixed, start, p, *args):
        starts.append((p, start))
        return minimize(system, fixed, start, p, *args)

    monkeypatch.setattr(capacity, "minimize", recording)
    psi, history = capacity.minimize_condenser(problem)
    assert {s.shape for s in solves} == {system.shape}      # no coarse lattice
    if problem.p == 2.0:
        assert [p for p, _ in starts] == [2.0]
        assert psi.tobytes() == start.tobytes()
        # the unit-weight solve is one iteration, which the value counts
        assert len(history) == 2
        assert history[-1] == system.energy(start, 2.0)
    else:
        assert [p for p, _ in starts] == [2.0, problem.p]
        assert starts[1][1].tobytes() == start.tobytes()
        assert history[0] == system.energy(start, problem.p)


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
        val = capacity.DeltaMemo(DomainSpec.half_space((0.0,)), (0.0,), P3N1, 33)([rho])[0]
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
    for nodes_across in (18, 13):
        with pytest.raises(ValueError, match="nodes_across"):
            capacity.DeltaMemo(DomainSpec.half_space((0.0,)), (0.0,), P3N1,
                               nodes_across)([0.5])


def test_parabolic_capacity_time_constant_slab():
    # constant-in-time obstacle: sliced value is the time span times the
    # elliptic capacity, and the trapezoid rule is exact for a constant
    h = 2.0 * 0.5 / 16
    obstacle = all_true(Cube((0.0,), 0.5), h)
    outer = Cube((0.0,), 1.0)
    elliptic = capacity.solve_condenser(
        capacity.CondenserProblem(obstacle, outer, 3.0)).value
    a, b, m = 0.25, 1.75, 13
    taus = np.linspace(a, b, m)
    val = capacity.parabolic_capacity([(t, obstacle) for t in taus], outer, 3.0)
    exact = (b - a) * elliptic
    assert abs(val - exact) <= 1e-12 * exact


def test_parabolic_capacity_solves_each_distinct_slice_once(monkeypatch):
    h = 2.0 * 0.5 / 16
    cube = Cube((0.0,), 0.5)
    full = all_true(cube, h)
    half = IndicatorField(cube, h, np.arange(17) >= 8)
    outer = Cube((0.0,), 1.0)
    c_full, c_half = (capacity.solve_condenser(
        capacity.CondenserProblem(f, outer, 3.0)).value for f in (full, half))
    solved = count_condensers(monkeypatch)
    taus = np.linspace(0.0, 1.2, 13)
    assert capacity.parabolic_capacity([(t, full) for t in taus], outer, 3.0) \
        == 1.2 * c_full
    assert len(solved) == 1
    # equal slices are matched by content, not by identity
    fields = [full, half, IndicatorField(cube, h, half.values.copy()), full]
    val = capacity.parabolic_capacity(list(zip([0.0, 0.5, 1.0, 1.5], fields)),
                                      outer, 3.0)
    assert len(solved) == 3
    assert val == 0.5 * (0.5 * c_full + (c_half + c_half) + 0.5 * c_full)


def test_parabolic_capacity_validation():
    h = 2.0 * 0.5 / 16
    obstacle = all_true(Cube((0.0,), 0.5), h)
    outer = Cube((0.0,), 1.0)
    with pytest.raises(ValueError, match="empty slice list"):
        capacity.parabolic_capacity([], outer, 3.0)
    assert capacity.parabolic_capacity([(0.0, obstacle)], outer, 3.0) == 0.0
    for t in (0.0, float("nan")):
        with pytest.raises(ValueError, match="strictly increasing"):
            capacity.parabolic_capacity([(0.0, obstacle), (t, obstacle)], outer, 3.0)
    with pytest.raises(ValueError, match="uniformly spaced"):
        capacity.parabolic_capacity(
            [(0.0, obstacle), (0.1, obstacle), (0.3, obstacle)], outer, 3.0)


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
            IndicatorField(cube, h, m), outer, p)).value
        for m in (small, large))
    assert cap_small <= cap_large * (1.0 + 1e-8)
