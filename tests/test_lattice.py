"""The shared Dirichlet solve against a dense solve of the full weighted
Laplacian, including the block cache per mask, the 1D tridiagonal solve,
the lagged factor, the fold of transpose-symmetric solves and singular
systems, and property tests of the shared reweighted minimizer and its
floor continuation."""

from __future__ import annotations

import re

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import capflow as cf
from capflow import lattice, pde
from capflow.geometry import Cube, DomainSpec
from capflow.lattice import LatticeSystem, minimize
from helpers import count_calls, count_solves, reference_block_slots, step_error_bounds

# the energy-drop stop the minimizer tests pass: a time step's
TOL = pde._TOL_REL_ENERGY


def dense_laplacian(shape, h, cell_weights):
    """Matrix of sum_cells h**N w_c |grad u|^2, one forward difference per
    axis, anchored at each cell's low corner."""
    nodes = np.arange(int(np.prod(shape))).reshape(shape)
    lap = np.zeros((nodes.size, nodes.size))
    corners = nodes[tuple(slice(0, n - 1) for n in shape)].ravel()
    scale = h ** (len(shape) - 2)
    for c, a in enumerate(corners):
        idx = np.unravel_index(a, shape)
        for k in range(len(shape)):
            nb = list(idx)
            nb[k] += 1
            b = nodes[tuple(nb)]
            w = cell_weights[c] * scale
            lap[a, a] += w
            lap[b, b] += w
            lap[a, b] -= w
            lap[b, a] -= w
    return lap


def dense_block(shape, h, cell_weights, fixed, g, mass=0.0, previous=None):
    """The free-by-free matrix and right-hand side of the Dirichlet solve."""
    lap = dense_laplacian(shape, h, cell_weights)
    free = ~fixed
    a_mat = lap[np.ix_(free, free)] + mass * np.eye(int(free.sum()))
    rhs = -lap[np.ix_(free, fixed)] @ g[fixed]
    if mass > 0.0:
        rhs += mass * previous[free]
    return a_mat, rhs


def dense_dirichlet(shape, h, cell_weights, fixed, g, mass=0.0, previous=None):
    a_mat, rhs = dense_block(shape, h, cell_weights, fixed, g, mass, previous)
    out = g.copy()
    out[~fixed] = np.linalg.solve(a_mat, rhs)
    return out


def boundary_mask(shape, rng, extra=0.15):
    """Box faces plus a random sprinkle of interior nodes."""
    fixed = np.ones(shape, dtype=bool)
    fixed[tuple(slice(1, n - 1) for n in shape)] = False
    fixed |= rng.random(shape) < extra
    return fixed.ravel()


def random_problem(shape, h, seed):
    rng = np.random.default_rng(seed)
    system = LatticeSystem(shape, h)
    weights = 0.1 + rng.random(system.n_cells)
    g = rng.normal(size=system.n_nodes)
    previous = rng.normal(size=system.n_nodes)
    return system, rng, weights, g, previous


@pytest.mark.parametrize("shape, h", [((11,), 0.1), ((7, 6), 0.25)])
@pytest.mark.parametrize("mass", [0.0, 2.5])
def test_matches_dense_solve(shape, h, mass):
    system, rng, weights, g, previous = random_problem(shape, h, seed=len(shape))
    fixed = boundary_mask(shape, rng)
    u = system.solve_dirichlet(weights, fixed, g, mass=mass, previous=previous)
    ref = dense_dirichlet(shape, h, weights, fixed, g, mass, previous)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert np.array_equal(u[fixed], g[fixed])     # fixed values imposed exactly


def test_alternating_masks_use_their_own_block():
    shape, h = (8, 9), 0.125
    system, rng, weights, g, previous = random_problem(shape, h, seed=7)
    first = boundary_mask(shape, rng)
    second = boundary_mask(shape, rng, extra=0.4)
    assert not np.array_equal(first, second)
    for fixed in (first, second, first, second):
        for mass in (0.0, 1.5):
            u = system.solve_dirichlet(weights, fixed, g, mass=mass, previous=previous)
            ref = dense_dirichlet(shape, h, weights, fixed, g, mass, previous)
            assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
            assert np.array_equal(u[fixed], g[fixed])


def test_all_fixed_returns_the_boundary_values():
    system = LatticeSystem((5, 5), 0.25)
    g = np.arange(25.0)
    u = system.solve_dirichlet(np.ones(system.n_cells), np.ones(25, dtype=bool), g)
    assert np.array_equal(u, g)


def test_mass_term_requires_previous():
    system = LatticeSystem((9,), 0.125)
    fixed = np.zeros(9, dtype=bool)
    fixed[[0, -1]] = True
    with pytest.raises(ValueError, match="previous field"):
        system.solve_dirichlet(np.ones(system.n_cells), fixed, np.zeros(9), mass=1.0)


@pytest.mark.parametrize("shape", [(9,), (5, 6)])
def test_no_fixed_node_without_mass_is_singular(shape):
    system = LatticeSystem(shape, 0.25)
    n = system.n_nodes
    with pytest.raises(ValueError, match=re.escape(f"{shape!r} lattice with {n} free nodes")):
        system.solve_dirichlet(np.ones(system.n_cells), np.zeros(n, dtype=bool), np.zeros(n))
    # a mass term makes the same system definite
    previous = np.full(n, 0.75)
    u = system.solve_dirichlet(np.ones(system.n_cells), np.zeros(n, dtype=bool),
                               np.zeros(n), mass=2.0, previous=previous)
    assert np.allclose(u, previous, rtol=0.0, atol=1e-14)


def test_free_group_cut_off_from_fixed_nodes_is_singular():
    # the high corner belongs to no cell, so with only the low faces fixed it
    # floats on its own
    shape = (5, 5)
    system = LatticeSystem(shape, 0.25)
    fixed = np.zeros(shape, dtype=bool)
    fixed[0, :] = True
    fixed[:, 0] = True
    with pytest.raises(ValueError, match=r"16 free nodes: 1 of them touch no fixed node"):
        system.solve_dirichlet(np.ones(system.n_cells), fixed.ravel(), np.zeros(25))


def test_zero_weights_are_singular():
    system = LatticeSystem((9,), 0.125)
    fixed = np.zeros(9, dtype=bool)
    fixed[[0, -1]] = True
    with pytest.raises(ValueError, match=re.escape("(9,) lattice with 7 free nodes")):
        system.solve_dirichlet(np.zeros(system.n_cells), fixed, np.ones(9))


# -- the 1D tridiagonal solve --------------------------------------------------

@pytest.mark.parametrize("fixed", [
    [1, 0, 1],                                  # one free node
    [1, 1, 1, 0, 1, 1, 1],                      # one free node inside the chain
    [0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0],    # chains split by fixed nodes
    [0, 0, 0, 0, 1, 0, 0, 0],                   # free ends, one fixed node
])
@pytest.mark.parametrize("mass", [0.0, 2.5])
def test_1d_solve_matches_dense_solve_on_chosen_masks(fixed, mass):
    fixed = np.array(fixed, dtype=bool)
    system, _, weights, g, previous = random_problem(fixed.shape, 0.125, seed=fixed.size)
    u = system.solve_dirichlet(weights, fixed, g, mass=mass, previous=previous)
    ref = dense_dirichlet(fixed.shape, 0.125, weights, fixed, g, mass, previous)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert np.array_equal(u[fixed], g[fixed])
    # dptsv solves directly: an iterate changes nothing
    again = system.solve_dirichlet(weights, fixed, g, mass=mass, previous=previous,
                                   iterate=previous)
    assert np.array_equal(again, u)


@st.composite
def one_d_problems(draw):
    """A random 1D mask with at least one fixed node, cell weights over four
    decades, data, and a mass that may be 0."""
    n = draw(st.integers(3, 40))
    fixed = draw(hnp.arrays(bool, n))
    fixed[draw(st.integers(0, n - 1))] = True
    weights = draw(hnp.arrays(float, n - 1, elements=st.floats(1e-2, 1e2)))
    unit = st.floats(-1.0, 1.0)
    g = draw(hnp.arrays(float, n, elements=unit))
    previous = draw(hnp.arrays(float, n, elements=unit))
    mass = draw(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)))
    h = draw(st.sampled_from([0.0625, 0.25, 1.0]))
    return fixed, weights, g, mass, previous, h


# Only node 0 is fixed, at 1, so the answer is all ones, but the block's
# condition number is 2.0e5: dptsv is 8.4e-13 off it and np.linalg.solve
# 3.95e-13, and the two differ by 1.2e-12.  A forward bound of 1e-12 is not
# attainable on every mask the strategy draws; the backward error is.
_ILL_CONDITIONED_CHAIN = (np.arange(29) == 0, np.array([0.01171875] + [21.0] * 27),
                          np.ones(29), 0.0, np.zeros(29), 0.0625)
# The same chain shape on subnormal data: the answer is 1e-310 everywhere,
# its residual 32 subnormal steps, over 16 eps |A||u| but not 16 (|A| + 1)
# subnormal steps.
_SUBNORMAL_CHAIN = (np.arange(5) == 0, np.ones(4), np.full(5, 1e-310), 0.0,
                    np.zeros(5), 0.0625)


@example(problem=_ILL_CONDITIONED_CHAIN)
@example(problem=_SUBNORMAL_CHAIN)
@settings(max_examples=80, deadline=None)
@given(one_d_problems())
def test_1d_solve_matches_dense_solve_on_random_masks(problem):
    # the residual of the dense system's free rows, (L(w) + mass) u =
    # mass * previous with the fixed entries of u included: an LDL^T solve of
    # a positive definite tridiagonal block has |L||D||L^T| = |A|, so its
    # residual is a small multiple of eps (|A||u| + |b|); 16 eps covers it,
    # the right-hand side's assembly and the residual's own evaluation.  Below
    # the normal range (the strategy draws subnormals) every rounding, that of
    # the correctly rounded answer and of each product in A u included, errs
    # by up to half a subnormal step instead, so 16 (|A| + 1) such steps are
    # added for them
    fixed, weights, g, mass, previous, h = problem
    system = LatticeSystem(fixed.shape, h)
    u = system.solve_dirichlet(weights, fixed, g, mass=mass, previous=previous)
    free = ~fixed
    rows = dense_laplacian(fixed.shape, h, weights)[free]
    rows[:, free] += mass * np.eye(int(free.sum()))
    b = mass * previous[free]
    residual = np.max(np.abs(rows @ u - b), initial=0.0)
    norm = np.max(np.sum(np.abs(rows), axis=1), initial=0.0)
    scale = norm * np.max(np.abs(u)) + np.max(np.abs(b), initial=0.0)
    tiny = np.finfo(float).smallest_subnormal
    assert residual <= 16.0 * (np.finfo(float).eps * scale + (norm + 1.0) * tiny)
    assert np.array_equal(u[fixed], g[fixed])


@pytest.mark.parametrize("fixed, weights", [
    ([0, 0, 0, 0, 0], [1.0, 1.0, 1.0, 1.0]),    # floating without mass
    ([1, 0, 1], [0.0, 0.0]),                    # one free node, zero weights
    ([1, 0, 0, 0, 1, 0, 1], [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
    ([1, 0, 1, 0, 0, 0, 1], [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
])
def test_1d_singular_systems_name_the_lattice(fixed, weights):
    fixed = np.array(fixed, dtype=bool)
    system = LatticeSystem(fixed.shape, 0.5)
    n_free = int(np.count_nonzero(~fixed))
    with pytest.raises(ValueError, match=re.escape(f"{fixed.shape!r} lattice with "
                                                   f"{n_free} free nodes")):
        system.solve_dirichlet(np.array(weights), fixed, np.ones(fixed.size))


def test_zero_weights_after_a_lagged_factor_are_singular():
    # the second solve of a 2D mask, from the first one's solution, would
    # run CG on the first one's factor
    system = LatticeSystem((6, 7), 0.25)
    fixed = np.ones((6, 7), dtype=bool)
    fixed[1:-1, 1:-1] = False
    g = np.linspace(0.0, 1.0, 42)
    u = system.solve_dirichlet(np.ones(system.n_cells), fixed.ravel(), g)
    with pytest.raises(ValueError, match=re.escape("(6, 7) lattice with 20 free nodes")):
        system.solve_dirichlet(np.zeros(system.n_cells), fixed.ravel(), g, iterate=u)


# -- the lagged factor ---------------------------------------------------------

@pytest.fixture
def factorizations(monkeypatch):
    """The SuperLU factorizations made during the test, one entry each."""
    made = []
    splu = lattice.spla.splu

    def counting(*args, **kwargs):
        made.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(lattice.spla, "splu", counting)
    return made


class CountingLU:
    """A SuperLU factor that counts its triangular solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def count_lu_solves(system, fixed, folded=False) -> CountingLU:
    """Wrap the lagged factor of the block of the mask `fixed`, folded or
    not, in a CountingLU."""
    blk = system._block(fixed, folded)
    blk.lu = CountingLU(blk.lu)
    return blk.lu


def factors(system, fixed, folded) -> bool:
    """Whether the block of the mask `fixed`, folded or not, holds a factor."""
    return system._block(fixed, folded).lu is not None


def test_lagged_factor_solves_match_dense_solves(factorizations):
    # slowly varying weights on one 2D mask, as in consecutive reweighted
    # steps, with mass switched on and off and one jump in the weights; each
    # solve starts from the last solution, as minimize passes it, and either
    # meets the forcing bound on the lagged factor or factors afresh and
    # matches the dense solve
    shape, h = (13, 12), 0.1
    system, rng, weights, g, previous = random_problem(shape, h, seed=11)
    fixed = boundary_mask(shape, rng)
    jump = 10.0 ** rng.uniform(-2.0, 2.0, system.n_cells)
    # (weights, mass, whether the solve must factor; None: either)
    plan = [(weights, 0.0, True), (weights, 0.0, False)]
    for mass in (0.0, 0.0, 0.5, 0.5, 0.0):
        plan.append((plan[-1][0] * (1.0 + 0.01 * rng.uniform(-1, 1, system.n_cells)),
                     mass, None if mass != plan[-1][1] else False))
    plan.append((weights * jump, 0.0, True))
    plan.append((weights * jump * (1.0 + 0.01 * rng.uniform(-1, 1, system.n_cells)),
                 0.0, False))
    plan.append((weights * jump, 0.5, None))
    u = None
    for w, mass, factors in plan:
        before = len(factorizations)
        start = u
        u = system.solve_dirichlet(w, fixed, g, mass=mass, previous=previous, iterate=start)
        factored = len(factorizations) > before
        if factored:
            ref = dense_dirichlet(shape, h, w, fixed, g, mass, previous)
            assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        else:
            a_mat, rhs = dense_block(shape, h, w, fixed, g, mass, previous)
            r_u, r_start = (np.linalg.norm(rhs - a_mat @ v[~fixed]) for v in (u, start))
            assert r_u <= lattice._FORCING * r_start + 1e-11 * np.linalg.norm(rhs)
        assert np.array_equal(u[fixed], g[fixed])
        if factors is not None:
            assert factored == factors
    assert len(factorizations) < len(plan)


def test_lagged_solve_converged_on_its_last_iteration_is_kept(factorizations, monkeypatch):
    # on the factor of the same matrix, one PCG iteration from an iterate is
    # exact: a loop that tests its residual only before an iteration would
    # report this solve, converged on its last allowed iteration, as failed
    monkeypatch.setattr(lattice, "_CG_MAXITER", 1)
    shape, h = (9, 8), 0.125
    system, rng, weights, g, previous = random_problem(shape, h, seed=5)
    fixed = boundary_mask(shape, rng)
    system.solve_dirichlet(weights, fixed, g)
    g = rng.normal(size=system.n_nodes)
    u = system.solve_dirichlet(weights, fixed, g, iterate=previous)
    assert len(factorizations) == 1
    ref = dense_dirichlet(shape, h, weights, fixed, g)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def test_lagged_solve_from_an_iterate_stops_at_the_forcing_bound(factorizations):
    # a slightly reweighted matrix on the system's factor, from the last
    # solution as minimize passes it: the residual falls by _FORCING, not
    # just below _FORCING times the right-hand side, without a factorization
    shape, h = (13, 12), 0.1
    system, rng, weights, g, previous = random_problem(shape, h, seed=7)
    fixed = boundary_mask(shape, rng)
    iterate = system.solve_dirichlet(weights, fixed, g, mass=0.5, previous=previous)
    w = weights * (1.0 + 1e-3 * rng.uniform(-1, 1, system.n_cells))
    u = system.solve_dirichlet(w, fixed, g, mass=0.5, previous=previous, iterate=iterate)
    assert len(factorizations) == 1
    a_mat, rhs = dense_block(shape, h, w, fixed, g, 0.5, previous)
    free = ~fixed

    def residual(v):
        return np.linalg.norm(rhs - a_mat @ v[free])

    assert residual(u) <= lattice._FORCING * residual(iterate)
    assert np.array_equal(u[fixed], g[fixed])
    # the same solve again repeats it bitwise, on the same factor
    again = system.solve_dirichlet(w, fixed, g, mass=0.5, previous=previous, iterate=iterate)
    assert np.array_equal(again, u)
    assert len(factorizations) == 1


def lagged_after_a_jump(spread):
    """A solve with mass 0.5 on a 13x12 lattice, then one lagged on its
    factor, which is wrapped in a CountingLU, with the weights scaled by
    10**(spread U(-1, 1)) per cell.  Returns (system, fixed, g, previous,
    the scaled weights, the lagged solution, the CountingLU, rng)."""
    system, rng, weights, g, previous = random_problem((13, 12), 0.1, seed=7)
    fixed = boundary_mask((13, 12), rng)
    first = system.solve_dirichlet(weights, fixed, g, mass=0.5, previous=previous)
    lu = count_lu_solves(system, fixed)
    jumped = weights * 10.0 ** (spread * rng.uniform(-1, 1, system.n_cells))
    u = system.solve_dirichlet(jumped, fixed, g, mass=0.5, previous=previous, iterate=first)
    return system, fixed, g, previous, jumped, u, lu, rng


@pytest.mark.parametrize("spread, slow", [(1e-3, False), (0.8, True)])
def test_a_slow_lagged_solve_makes_the_next_solve_factor_afresh(spread, slow,
                                                                  factorizations):
    # a lagged solve that converged, but in more than _REFRESH iterations,
    # drops its block's factor at once: the next solve of the block, a small
    # reweighting, factors afresh and solves directly, with no PCG on the
    # old factor.  After a fast lagged solve the block keeps its factor and
    # the next solve lags too.  The solve after a fresh factor lags again.
    system, fixed, g, previous, jumped, u, lu, rng = lagged_after_a_jump(spread)
    assert len(factorizations) == 1
    assert (lu.solves > lattice._REFRESH) == slow
    assert 0 < lu.solves <= lattice._CG_MAXITER
    assert factors(system, fixed, False) == (not slow)
    w = jumped * (1.0 + 1e-3 * rng.uniform(-1, 1, system.n_cells))
    solves = lu.solves
    v = system.solve_dirichlet(w, fixed, g, mass=0.5, previous=previous, iterate=u)
    assert len(factorizations) == 1 + slow
    assert (lu.solves == solves) == slow
    if slow:
        ref = dense_dirichlet((13, 12), 0.1, w, fixed, g, 0.5, previous)
        assert np.allclose(v, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    w = w * (1.0 + 1e-3 * rng.uniform(-1, 1, system.n_cells))
    system.solve_dirichlet(w, fixed, g, mass=0.5, previous=previous, iterate=v)
    assert len(factorizations) == 1 + slow


def test_each_mask_lags_on_its_own_factor(factorizations):
    # two masks in turn on one system, each solve from the last solution of
    # its mask: the first solve of each mask factors, and the third, on the
    # first mask again, lags on that mask's factor, kept while the second
    # mask factored
    shape, h = (13, 12), 0.1
    system, rng, weights, g, previous = random_problem(shape, h, seed=11)
    masks = [boundary_mask(shape, rng) for _ in range(2)]
    assert not np.array_equal(*masks)
    first = system.solve_dirichlet(weights, masks[0], g, mass=0.5, previous=previous)
    system.solve_dirichlet(weights, masks[1], g, mass=0.5, previous=previous)
    assert len(factorizations) == 2
    lu = count_lu_solves(system, masks[0])
    w = weights * (1.0 + 1e-3 * rng.uniform(-1, 1, system.n_cells))
    u = system.solve_dirichlet(w, masks[0], g, mass=0.5, previous=previous, iterate=first)
    assert len(factorizations) == 2
    assert 0 < lu.solves <= lattice._CG_MAXITER
    a_mat, rhs = dense_block(shape, h, w, masks[0], g, 0.5, previous)
    free = ~masks[0]
    r_u, r_first = (np.linalg.norm(rhs - a_mat @ v[free]) for v in (u, first))
    assert r_u <= lattice._FORCING * r_first
    assert np.array_equal(u[masks[0]], g[masks[0]])


@pytest.mark.parametrize("ndim", [1, 2])
def test_time_loop_factors_only_in_2d(ndim, factorizations, monkeypatch):
    solves = count_solves(monkeypatch)
    tridiagonal = count_calls(monkeypatch, lattice, "dptsv")
    grid = cf.make_grid(DomainSpec.full_space(ndim), Cube((0.0,) * ndim, 0.5), 1.0 / 16,
                        cf.uniform_times(0.05, 8))
    datum = cf.BoundaryDatum(
        "osc", lambda pts, t: np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, -1]) + t)
    cf.solve(grid, datum, 3.0)
    if ndim == 1:
        assert not factorizations
        assert len(tridiagonal) == len(solves) > 0
    else:
        assert not tridiagonal
        assert 0 < len(factorizations) < len(solves)


# -- the fold onto mirror classes ----------------------------------------------

def mirrored(a):
    """The square array `a` with its upper triangle copied below the
    diagonal: equal to its transpose bitwise."""
    return np.triu(a) + np.triu(a, 1).T


def mirror_classes(fixed, n):
    """The number of classes {(i, j), (j, i)} of free nodes."""
    free = ~fixed.reshape(n, n)
    return int(free.sum() + np.trace(free)) // 2


def lattice_residual(shape, h, w, fixed, g, mass, previous, u):
    a_mat, rhs = dense_block(shape, h, w, fixed, g, mass, previous)
    return np.linalg.norm(rhs - a_mat @ u[~fixed]), np.linalg.norm(rhs)


@st.composite
def folded_problems(draw):
    """A square lattice with fixed box faces and a random mask OR-ed with its
    transpose, symmetric cell weights, boundary values and previous field, a
    mass that may be 0, and a symmetric relative change of the weights."""
    n = draw(st.integers(3, 8))
    fixed = np.ones((n, n), dtype=bool)
    fixed[1:-1, 1:-1] = False
    fixed |= draw(hnp.arrays(bool, (n, n)))
    fixed |= fixed.T
    fixed[n // 2, n // 2] = False
    fixed = fixed.ravel()
    cells = (n - 1, n - 1)
    weights = mirrored(draw(hnp.arrays(float, cells, elements=st.floats(0.1, 10.0)))).ravel()
    unit = st.floats(-1.0, 1.0)
    g = mirrored(draw(hnp.arrays(float, (n, n), elements=unit))).ravel()
    previous = mirrored(draw(hnp.arrays(float, (n, n), elements=unit))).ravel()
    mass = draw(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    change = mirrored(draw(hnp.arrays(float, cells, elements=unit))).ravel()
    return n, h, fixed, weights, g, mass, previous, change


@settings(max_examples=60, deadline=None)
@given(folded_problems())
def test_folded_solves_match_dense_solves(problem):
    # a fresh factor, then lagged solves from the last solution as the
    # weights drift, then a solve from a symmetric exact solution, whose
    # residual already meets the bound, so PCG hands it back untouched;
    # every solve, told to fold, runs on one unknown per mirror class and
    # returns a field equal to its transpose
    n, h, fixed, w, g, mass, previous, change = problem
    shape = (n, n)
    system = LatticeSystem(shape, h)
    u = system.solve_dirichlet(w, fixed, g, mass=mass, previous=previous, folded=True)
    ref = dense_dirichlet(shape, h, w, fixed, g, mass, previous)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert factors(system, fixed, True)
    assert system._block(fixed, True).lu.shape == (mirror_classes(fixed, n),) * 2
    for _ in range(3):
        assert lattice._transpose_symmetric(u, shape)
        assert np.array_equal(u[fixed], g[fixed])
        w = w * (1.0 + 1e-3 * change)
        before = lattice_residual(shape, h, w, fixed, g, mass, previous, u)[0]
        u = system.solve_dirichlet(w, fixed, g, mass=mass, previous=previous, iterate=u,
                                   folded=True)
        after, rhs = lattice_residual(shape, h, w, fixed, g, mass, previous, u)
        assert after <= lattice._FORCING * before + 1e-11 * rhs
        assert factors(system, fixed, True)
    ref = dense_dirichlet(shape, h, w, fixed, g, mass, previous)
    ref = 0.5 * (ref + ref.reshape(shape).T.ravel())
    lu = count_lu_solves(system, fixed, True)
    out = system.solve_dirichlet(w, fixed, g, mass=mass, previous=previous, iterate=ref,
                                 folded=True)
    assert np.array_equal(out, ref)
    assert lu.solves == 0


def asymmetric(a, fixed, n):
    """The node or cell field `a` moved at the first free node (i, j) off the
    diagonal x0 = x1, or at the cell with that low corner, so that it no
    longer equals its transpose."""
    i, j = divmod(int(np.flatnonzero(~fixed & (np.arange(n * n) % (n + 1) != 0))[0]), n)
    b = a.copy()
    b[i * n + j if a.size == n * n else i * (n - 1) + j] += 0.25
    return b


def record_folds(monkeypatch) -> list:
    """The `folded` argument of every Dirichlet solve from here on."""
    folds = []
    solve = LatticeSystem.solve_dirichlet

    def recording(self, *args, folded=False, **kwargs):
        folds.append(folded)
        return solve(self, *args, folded=folded, **kwargs)

    monkeypatch.setattr(LatticeSystem, "solve_dirichlet", recording)
    return folds


def minimize_at_p2(shape, fixed, start, mass, previous):
    """`minimize` at p = 2, one unit-weight solve that a lagged one confirms,
    on a fresh system: (minimizer, the `folded` argument of each solve)."""
    with pytest.MonkeyPatch.context() as mp:
        folds = record_folds(mp)
        u, _ = minimize(LatticeSystem(shape, 0.25), fixed, start, 2.0, TOL, mass, previous)
    return u, folds


# the previous field enters only through the mass term
@pytest.mark.parametrize("case, mass", [
    (case, mass)
    for case in ("mask", "boundary_values", "previous", "non_square")
    for mass in (0.0, 1.5) if (case, mass) != ("previous", 0.0)])
def test_asymmetric_solves_do_not_fold(case, mass, factorizations):
    # a symmetric minimization folds every solve; with a single asymmetric
    # input none folds, the factor has a row per free node, and the result
    # still matches the dense solve
    shape = (7, 6) if case == "non_square" else (7, 7)
    _, rng, _, g, previous = random_problem(shape, 0.25, seed=3)
    fixed = boundary_mask(shape, rng)
    if case != "non_square":
        fixed = (fixed.reshape(shape) | fixed.reshape(shape).T).ravel()
        g, previous = (mirrored(v.reshape(shape)).ravel() for v in (g, previous))
        u, folds = minimize_at_p2(shape, fixed, np.where(fixed, g, previous), mass, previous)
        assert folds and all(folds)
        assert lattice._transpose_symmetric(u, shape)
        assert factorizations == [(mirror_classes(fixed, 7),) * 2]
    start = previous.copy()
    if case == "mask":
        # fix the free node that `asymmetric` moves: its mirror stays free
        fixed = asymmetric(1.0 * fixed, fixed, 7) > 0.0
    elif case == "boundary_values":
        # the box face node (0, k) next to the first free node (1, k)
        k = 1 + int(np.flatnonzero(~fixed.reshape(shape)[1, 1:-1])[0])
        g = g.copy()
        g[k] += 0.25
    elif case == "previous":
        previous = asymmetric(previous, fixed, 7)
    start[fixed] = g[fixed]
    factorizations.clear()
    u, folds = minimize_at_p2(shape, fixed, start, mass, previous)
    assert folds and not any(folds)
    n_free = int(np.count_nonzero(~fixed))
    assert factorizations == [(n_free, n_free)]
    ref = dense_dirichlet(shape, 0.25, np.ones((shape[0] - 1) * (shape[1] - 1)), fixed, g,
                          mass, previous)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert np.array_equal(u[fixed], g[fixed])


@pytest.mark.parametrize("shape, fixed", [
    ((7, 7), np.arange(49) == 1),               # node (0, 1) fixed, its mirror (1, 0) free
    ((7, 6), np.zeros(42, dtype=bool)),
    ((7,), np.zeros(7, dtype=bool)),
], ids=["asymmetric_mask", "non_square", "chain"])
def test_a_folded_block_needs_a_square_lattice_and_a_symmetric_mask(shape, fixed):
    # folded, a free node whose mirror is fixed would have no unknown: the
    # block refuses to build, and builds unfolded
    system = LatticeSystem(shape, 0.25)
    with pytest.raises(ValueError, match="cannot fold"):
        lattice._Block(system, fixed, True)
    assert lattice._Block(system, fixed, False).n == np.count_nonzero(~fixed)


def test_folded_solve_factors_one_row_per_mirror_class(factorizations):
    shape = (9, 9)
    system, rng, w, g, _ = random_problem(shape, 0.125, seed=4)
    fixed = boundary_mask(shape, rng, extra=0.3).reshape(shape)
    fixed = (fixed | fixed.T).ravel()
    w = mirrored(w.reshape(8, 8)).ravel()
    g = mirrored(g.reshape(shape)).ravel()
    u = system.solve_dirichlet(w, fixed, g, folded=True)
    n_classes = mirror_classes(fixed, 9)
    assert n_classes < int(np.count_nonzero(~fixed))
    assert factorizations == [(n_classes, n_classes)]
    assert lattice._transpose_symmetric(u, shape)
    ref = dense_dirichlet(shape, 0.125, w, fixed, g)
    assert np.allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


# -- the assembly operator and the cell gradients -------------------------------

def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def assembly_problems(draw):
    """A 1D chain of 3-40 nodes, or a 2D lattice, square when folded, with a
    random fixed mask (mirrored when folded) and cell weights that mix 0,
    1e-20, 1e5 and other floats, so that the order of each slot's sum shows
    in its bits."""
    if draw(st.booleans()):
        shape, folded = (draw(st.integers(3, 40)),), False
        fixed = draw(hnp.arrays(bool, shape))
    else:
        folded = draw(st.booleans())
        n0 = draw(st.integers(3, 8))
        shape = (n0, n0 if folded else draw(st.integers(3, 8)))
        fixed = draw(hnp.arrays(bool, shape))
        if folded:
            fixed |= fixed.T
    h = draw(st.sampled_from([0.1, 1.0 / 3.0, 1.0]))
    weight = st.one_of(st.sampled_from([0.0, 1e-20, 1e5]), st.floats(0.0, 1e5))
    system = LatticeSystem(shape, h)
    weights = draw(hnp.arrays(float, system.n_cells, elements=weight))
    return system, fixed.ravel(), folded, weights


def all_fixed(shape, folded):
    """An assembly problem whose every node is fixed: its block is empty."""
    system = LatticeSystem(shape, 0.5)
    return system, np.ones(system.n_nodes, dtype=bool), folded, np.ones(system.n_cells)


@example(problem=all_fixed((5,), False))
@example(problem=all_fixed((5, 5), True))
@settings(max_examples=80, deadline=None)
@given(assembly_problems())
def test_assembly_operator_matches_the_bincount_assembly_bitwise(problem):
    # each row of the operator sums its slot's entries in the order in which
    # np.bincount adds them, so the product has the same bits
    system, fixed, folded, w = problem
    blk = system._block(fixed, folded)
    ref = reference_block_slots(system, fixed, folded)
    if system.ndim == 2:
        # a chain has no matrix: dptsv reads the diagonal and upper slots
        csc = blk.matrix
        assert np.array_equal(ref["keys"], np.repeat(np.arange(blk.n), np.diff(csc.indptr))
                              * blk.n + csc.indices)
    entries = w[ref["entry_cell"]] * ref["entry_coef"]
    ref = np.bincount(ref["entry_slot"], weights=entries,
                      minlength=ref["keys"].size).astype(float, copy=False)
    assert same_bits(blk.assembly @ w, ref)


@example(problem=all_fixed((5,), False))
@example(problem=all_fixed((4, 6), False))
@example(problem=all_fixed((5, 5), True))
@settings(max_examples=80, deadline=None)
@given(assembly_problems())
def test_block_slots_match_the_unique_based_construction(problem):
    # one stable sort of the keys gives np.unique's slots, and lists each
    # slot's entries in entry order, as a stable sort of the slots did
    system, fixed, folded, _ = problem
    blk = lattice._Block(system, fixed, folded)
    ref = reference_block_slots(system, fixed, folded)
    n = blk.n
    assert blk.nnz == ref["keys"].size
    assert same_bits(blk.diag_slot, ref["diag_slot"])
    assembly = blk.assembly
    assert np.array_equal(assembly.indptr, ref["indptr"])
    assert np.array_equal(assembly.indices, ref["cells"])
    assert same_bits(assembly.data, ref["coefs"])
    row, col = ref["keys"] % n, ref["keys"] // n
    if system.ndim == 1:
        assert np.array_equal(blk.upper_slot, np.flatnonzero(row == col - 1))
        assert np.array_equal(blk.upper_row, row[blk.upper_slot])
    else:
        assert np.array_equal(blk.matrix.indices, row)
        assert np.array_equal(blk.matrix.indptr,
                              np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))]))


@pytest.mark.parametrize("shape", [(3,), (11,), (3, 3), (7, 6), (6, 9)])
def test_edges_match_the_per_dimension_formulas_bitwise(shape):
    # the forward edge of each cell along each axis, x-axis first, as the
    # chain and the 2D lattice each wrote them
    system = LatticeSystem(shape, 0.5)
    if len(shape) == 1:
        corner = np.arange(shape[0] - 1)
        ref = corner, corner + 1, np.arange(corner.size)
    else:
        n0, n1 = shape
        i0, i1 = np.meshgrid(np.arange(n0 - 1), np.arange(n1 - 1), indexing="ij")
        corner = (i0 * n1 + i1).ravel()
        cell_ids = np.arange(corner.size)
        ref = (np.concatenate([corner, corner]), np.concatenate([corner + n1, corner + 1]),
               np.concatenate([cell_ids, cell_ids]))
    assert system.n_cells == corner.size
    for got, want in zip((system.edges_a, system.edges_b, system.edge_cell), ref):
        assert same_bits(got, want)


@pytest.mark.parametrize("shape", [(11,), (7, 6), (3,), (3, 3), (6, 9)])
@pytest.mark.parametrize("h", [0.1, 1.0 / 3.0])
def test_cell_gradient_sq_matches_the_formula_bitwise(shape, h):
    rng = np.random.default_rng(17)
    v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    if len(shape) == 1:
        g = (v[1:] - v[:-1]) / h
        ref = g * g
    else:
        gx = (v[1:, :-1] - v[:-1, :-1]) / h
        gy = (v[:-1, 1:] - v[:-1, :-1]) / h
        ref = (gx * gx + gy * gy).ravel()
    system = LatticeSystem(shape, h)
    first = system.cell_gradient_sq(v.ravel())
    assert same_bits(first, ref)
    # minimize keeps the gradients of u, of its candidate and of the half
    # step at once: each call returns an array of its own
    second = system.cell_gradient_sq(3.0 * v.ravel())
    assert not np.shares_memory(first, second)
    assert same_bits(first, ref)


# -- the fold decided once per minimization ------------------------------------

def symmetric_time_step():
    """`time_step_problem` with fixed, start and previous equal to their
    transposes."""
    system, fixed, start, step = time_step_problem()
    previous = mirrored(step["previous"].reshape(9, 9)).ravel()
    start = np.where(fixed, mirrored(start.reshape(9, 9)).ravel(), previous)
    return system, fixed, start, dict(mass=2.0, previous=previous)


@pytest.mark.parametrize("guess", [None, "asymmetric"])
def test_minimize_decides_the_fold_once(guess, monkeypatch):
    # symmetric fixed, start and previous: without a guess every solve is
    # told to fold and the minimizer equals its transpose, after an accepted
    # asymmetric guess no solve is.  The fields are tested once per call,
    # not once per solve
    system, fixed, start, step = symmetric_time_step()
    if guess == "asymmetric":
        ref, _ = minimize(system, fixed, start, 3.0, TOL, **step)
        # halfway to the minimizer, moved by 2.5e-4 at one node off the
        # diagonal: lower than the start, by convexity
        guess = 0.5 * (start + ref)
        guess += 1e-3 * (asymmetric(guess, fixed, 9) - guess)
        system, *_ = symmetric_time_step()
    folds = record_folds(monkeypatch)
    tests = count_calls(monkeypatch, lattice, "_transpose_symmetric")
    u, _ = minimize(system, fixed, start, 3.0, TOL, **step, guess=guess)
    assert len(folds) > 4
    assert folds == [guess is None] * len(folds)
    # fixed, start and previous, then either the folded block as it is
    # built or the accepted guess
    assert len(tests) == 4
    assert lattice._transpose_symmetric(u, (9, 9)) == (guess is None)


# -- the shared minimizer ------------------------------------------------------

@st.composite
def minimize_problems(draw, p=None, mass=None):
    """A 1D or 2D lattice with fixed box faces and random fixed interior nodes,
    data in [0, 1], and p in [2, 5]; `start` carries the boundary values on
    the fixed nodes and `previous` elsewhere, as a time step does."""
    ndim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(3, 12 if ndim == 1 else 7),
                                min_size=ndim, max_size=ndim)))
    n = int(np.prod(shape))
    fixed = np.ones(shape, dtype=bool)
    fixed[tuple(slice(1, k - 1) for k in shape)] = False
    fixed = fixed.ravel() | draw(hnp.arrays(bool, n))
    unit = st.floats(0.0, 1.0)
    values = draw(hnp.arrays(float, n, elements=unit))
    previous = draw(hnp.arrays(float, n, elements=unit))
    start = np.where(fixed, values, previous)
    if p is None:
        p = draw(st.floats(2.0, 5.0))
    if mass is None:
        mass = draw(st.one_of(st.just(0.0), st.floats(1e-2, 1e2)))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return LatticeSystem(shape, h), fixed, start, p, mass, previous


def broken_down_chain(h):
    """A 6-node chain at p = 4 and mass 0 whose first solve, from
    (1, 0, 1e-5, 1, 1e-5, 0), lands near (1, 1, 0.5, 0.5, 0.5, 0): three cells
    with differences of about 5e-11.  Their weights, 1e-20 to 4e-20, round
    away against the other cells' 0.25 / h**2, and the second solve at the
    weight floor cuts nodes 1 and 2 off from every fixed node."""
    fixed = np.array([True, False, False, False, False, True])
    start = np.array([1.0, 0.0, 1e-5, 1.0, 1e-5, 0.0])
    return LatticeSystem((6,), h), fixed, start, 4.0, 0.0, start


@example(problem=broken_down_chain(0.25))
@example(problem=broken_down_chain(0.5))
@example(problem=broken_down_chain(1.0))
@settings(max_examples=60, deadline=None)
@given(minimize_problems())
def test_minimize_keeps_maximum_principle_and_descends(problem):
    # every linear solve is an M-matrix solve and every backtrack a convex
    # combination, so no iterate leaves the range of the data
    system, fixed, start, p, mass, previous = problem
    u, history = minimize(system, fixed, start, p, TOL, mass, previous)
    data = np.concatenate([start[fixed], previous])
    assert float(u.min()) >= float(data.min()) - 1e-12
    assert float(u.max()) <= float(data.max()) + 1e-12
    assert np.array_equal(u[fixed], start[fixed])
    assert all(b <= a for a, b in zip(history, history[1:]))


@example(problem=broken_down_chain(0.25), guess_seed=None)
@example(problem=broken_down_chain(0.5), guess_seed=None)
@example(problem=broken_down_chain(1.0), guess_seed=None)
@settings(max_examples=40, deadline=None)
@given(minimize_problems(), st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
def test_minimize_weights_are_those_of_its_iterate(problem, guess_seed):
    # the weights reuse the squared cell gradients of the iterate's
    # objective evaluation: every solve, the retry of a broken-down one
    # included, gets the weights a fresh pass over its iterate gives at the
    # floor its stage set last
    system, fixed, start, p, mass, previous = problem
    guess = None
    if guess_seed is not None:
        guess = np.random.default_rng(guess_seed).random(start.size)
    floors, seen = [], []
    weights_from_gsq = LatticeSystem.weights_from_gsq
    solve_dirichlet = LatticeSystem.solve_dirichlet

    def recording_floor(self, gsq, p, floor):
        floors.append(floor)
        return weights_from_gsq(self, gsq, p, floor)

    def recording_solve(self, cell_weights, *args, iterate=None, **kwargs):
        seen.append((cell_weights.copy(), iterate.copy(), floors[-1]))
        return solve_dirichlet(self, cell_weights, *args, iterate=iterate, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LatticeSystem, "weights_from_gsq", recording_floor)
        mp.setattr(LatticeSystem, "solve_dirichlet", recording_solve)
        minimize(system, fixed, start, p, TOL, mass, previous, guess=guess)
    for w, iterate, floor in seen:
        assert w.tobytes() == system.weights_from_gsq(system.cell_gradient_sq(iterate), p,
                                                      floor).tobytes()


@pytest.mark.parametrize("h", [0.25, 0.5, 1.0])
def test_minimize_retries_a_broken_down_solve_at_a_relaxed_floor(h, floors):
    # the start has no flat cell, so no stage runs: the one floor above the
    # weight floor is the retry's, and the chain then converges to its
    # minimizer, the straight line, whose energy is 0.008 / h**3
    system, fixed, start, p, mass, _ = broken_down_chain(h)
    u, history = minimize(system, fixed, start, p, TOL)
    assert len(set(floors) - {lattice._WEIGHT_FLOOR}) == 1
    assert np.max(np.abs(u - np.linspace(1.0, 0.0, 6))) <= 1e-5
    assert history[-1] == pytest.approx(0.008 / h ** 3, rel=1e-8)


@pytest.mark.parametrize("slope", [1.0, 1e-9])
def test_minimize_keeps_a_singular_solve_singular(slope):
    # no fixed node and no mass: singular at every floor.  At slope 1 the
    # retry runs and raises too; at 1e-9 no relaxed floor exceeds the weight
    # floor, and the first error stands
    system = LatticeSystem((5,), 1.0)
    with pytest.raises(ValueError, match="touch no fixed node"):
        minimize(system, np.zeros(5, dtype=bool), slope * np.arange(5.0), 3.0, TOL)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_minimize_returns_a_zero_objective_start_bitwise(ndim, mass, monkeypatch):
    # a constant field, and in a time step its own previous field, has
    # objective 0, and no objective is lower: no solve, and the guess is not
    # even evaluated
    system = LatticeSystem((7,) * ndim, 0.25)
    fixed = np.ones((7,) * ndim, dtype=bool)
    fixed[(slice(1, -1),) * ndim] = False
    start = np.full(system.n_nodes, 0.3)
    solves = count_solves(monkeypatch)
    energies = count_calls(monkeypatch, LatticeSystem, "energy_from_gsq")
    u, history = minimize(system, fixed.ravel(), start, 3.0, TOL, mass,
                          start.copy(), guess=np.full(system.n_nodes, 0.5))
    assert u.tobytes() == start.tobytes()
    assert history == [0.0]
    assert solves == [] and len(energies) == 1


@settings(max_examples=40, deadline=None)
@given(minimize_problems(p=2.0, mass=0.0))
def test_minimize_at_p2_is_one_unit_weight_solve(problem):
    system, fixed, start, p, mass, previous = problem
    u, _ = minimize(system, fixed, start, p, TOL)
    ref = system.solve_dirichlet(np.ones(system.n_cells), fixed, start)
    assert np.max(np.abs(u - ref)) <= 1e-12


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("mass", [0.0, 1.5])
def test_minimize_from_an_exact_minimizer_stays_put(ndim, p, mass):
    # an affine field has the same gradient in every cell, so it minimizes
    # the p-energy under its own box values, and the time step with it as
    # the previous field: the first solve returns it up to round-off, and
    # whatever the sign of that round-off no step is taken
    shape = (17,) * ndim
    system = LatticeSystem(shape, 1.0 / 16)
    axes = np.meshgrid(*(np.arange(17) / 16 for _ in shape), indexing="ij")
    start = (0.3 + sum((0.7 + k) * x for k, x in enumerate(axes))).ravel()
    fixed = np.ones(shape, dtype=bool)
    fixed[(slice(1, -1),) * ndim] = False
    u, history = minimize(system, fixed.ravel(), start, p, TOL, mass, start)
    assert np.array_equal(u, start)
    assert len(history) == 1


# -- the guess of the minimizer -------------------------------------------------

def time_step_problem():
    """One p = 3 time step on a 9 x 9 lattice: box faces fixed at new values,
    `start` holding the previous field on the free nodes."""
    rng = np.random.default_rng(13)
    system = LatticeSystem((9, 9), 0.125)
    fixed = np.ones((9, 9), dtype=bool)
    fixed[1:-1, 1:-1] = False
    fixed = fixed.ravel()
    previous = rng.random(system.n_nodes)
    start = np.where(fixed, rng.random(system.n_nodes), previous)
    return system, fixed, start, dict(mass=2.0, previous=previous)


def test_minimize_ignores_a_guess_with_a_higher_objective(monkeypatch):
    system, fixed, start, step = time_step_problem()
    ref, ref_history = minimize(system, fixed, start, 3.0, TOL, **step)
    solves = count_solves(monkeypatch)
    guess = start + 5.0 * np.random.default_rng(2).standard_normal(start.size)
    # a fresh system: on the first run's lagged factor the inexact solves
    # would end elsewhere, for a reason that has nothing to do with the guess
    system, *_ = time_step_problem()
    u, history = minimize(system, fixed, start, 3.0, TOL, **step, guess=guess)
    assert history[0] == ref_history[0]
    assert np.array_equal(u, ref)
    assert history == ref_history
    assert len(solves) == len(ref_history) - 1


def test_minimize_starts_from_a_guess_with_a_lower_objective(monkeypatch):
    # the minimizer itself as the guess: one solve confirms it
    system, fixed, start, step = time_step_problem()
    ref, ref_history = minimize(system, fixed, start, 3.0, TOL, **step)
    assert len(ref_history) > 3
    solves = count_solves(monkeypatch)
    u, history = minimize(system, fixed, start, 3.0, TOL, **step, guess=ref)
    assert history[0] == ref_history[-1] < ref_history[0]
    assert len(solves) == 1
    assert history[-1] <= ref_history[-1]


def test_minimize_takes_the_boundary_values_from_start_not_the_guess():
    system, fixed, start, step = time_step_problem()
    ref, _ = minimize(system, fixed, start, 3.0, TOL, **step)
    guess = ref.copy()
    guess[fixed] = 1e3
    with_guess, history = minimize(system, fixed, start, 3.0, TOL, **step, guess=ref)
    u, bad_history = minimize(system, fixed, start, 3.0, TOL, **step, guess=guess)
    assert np.array_equal(u, with_guess)
    assert bad_history == history
    assert np.array_equal(u[fixed], start[fixed])


# -- the floor continuation ----------------------------------------------------

@pytest.fixture
def floors(monkeypatch):
    """The `floor` argument of every weight evaluation during the test."""
    seen = []
    weights = LatticeSystem.weights_from_gsq

    def recording(self, gsq, p, floor):
        seen.append(floor)
        return weights(self, gsq, p, floor)

    monkeypatch.setattr(LatticeSystem, "weights_from_gsq", recording)
    return seen


def test_flat_start_without_mass_converges_to_its_minimizer():
    # at the weight floor alone the floored end cells weigh 1e-20 against
    # 1 and round away, and the first solve is singular
    system = LatticeSystem((5,), 1.0)
    fixed = np.array([True, False, False, False, True])
    u, history = minimize(system, fixed, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 4.0, TOL)
    assert np.array_equal(u, np.zeros(5))
    assert history[-1] == 0.0


def test_start_without_floored_free_cells_runs_at_the_configured_floor(floors):
    system, fixed, start, step = time_step_problem()
    minimize(system, fixed, start, 3.0, TOL, **step)
    assert floors and set(floors) == {lattice._WEIGHT_FLOOR}


@pytest.mark.parametrize("ndim", [1, 2])
def test_flat_start_at_p2_runs_at_the_configured_floor(ndim, floors):
    system = LatticeSystem((9,) * ndim, 0.125)
    fixed = np.ones((9,) * ndim, dtype=bool)
    fixed[(slice(1, -1),) * ndim] = False
    fixed = fixed.ravel()
    start = np.where(fixed, np.linspace(0.0, 1.0, system.n_nodes), 0.0)
    minimize(system, fixed, start, 2.0, TOL, mass=1.0, previous=np.zeros(system.n_nodes))
    assert floors and set(floors) == {lattice._WEIGHT_FLOOR}


def flat_start_step():
    """One p = 3 time step from u = 0 on a 65 x 65 lattice, the box faces
    ramped to x + 1/2 over tau = 0.01, as at the first step of `verify`."""
    grid = cf.make_grid(DomainSpec.full_space(2), Cube((0.0, 0.0), 0.5), 1.0 / 64,
                        cf.uniform_times(0.01, 1))
    datum = cf.BoundaryDatum("ramp", lambda pts, t: (t / 0.01) * (pts[:, 0] + 0.5))
    return cf.solve(grid, datum, 3.0)


def test_flat_start_step_continues_the_floor_down_to_the_configured_one(floors):
    flat_start_step()
    assert max(floors) > lattice._WEIGHT_FLOOR
    assert floors[-1] == lattice._WEIGHT_FLOOR
    assert np.all(np.diff(floors) <= 0.0)


def test_flat_start_step_halves_its_solves_at_no_loss_of_accuracy(monkeypatch):
    # from the flat start, at the weight floor alone, each solve spreads
    # the data by about one lattice ring: so run, this step takes 31 solves
    # and ends 3.97e-3 from its minimizer
    solves = count_solves(monkeypatch)
    field = flat_start_step()
    assert len(solves) <= 15
    assert step_error_bounds(field).max() <= 3.97e-3
