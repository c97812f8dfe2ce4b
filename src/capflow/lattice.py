"""Uniform-lattice machinery shared by the condenser and diffusion solvers.

The discrete p-energy is sum_cells h**N * |grad u|_cell**p with per-cell
forward differences anchored at the cell's low corner.  At fixed weights the
reweighted quadratic form is a weighted graph Laplacian, so the step matrices
(plus any positive diagonal) are M-matrices; the maximum-principle guarantees
elsewhere in the package lean on exactly this structure.

The condenser and the time step are one minimization, `minimize`; the time
step only adds a proximal mass term.  It reweights at max(|grad u|, floor)
and ends in a stage at the weight floor `_WEIGHT_FLOOR`, which alone counts
against `_MAX_ITER` and decides convergence.  When p > 2 and a cell with a
free node is flat at the start, as in a first time step from u = 0, short
stages at floors taken from the start's largest cell gradient run first: at
`_WEIGHT_FLOOR` alone each solve would spread the data by about one lattice
ring, and a floor weight that rounds away against unit weights can make the
solve singular.  Flat cells of a later iterate can do the same, so a solve
that raises is tried once more at the smallest such floor of the iterate.
Each field `minimize` visits is evaluated once: one pass gives its squared
cell gradients, its objective is summed from them, and the weights at it,
the stage floors and that retry reuse them instead of computing them again.

Each solve runs on the free-by-free block of its fixed mask, on every free
node or folded as below.  The block's pattern depends only on the mask and
the fold, so it is built once per mask and fold, and with it the scatter of
cell weights into the matrix's stored slots, compiled into one sparse
operator from cell weights to those slots (after Cuvelier, Japhet &
Scarella, BIT Numer. Math. 2016).  Its rows add each slot's entries in index
order, the order a bincount over the entries adds them, so a solve's
assembly is one sparse product with a bincount's bits; a 2D solve then
swaps that data into the block's one sparse matrix.  With positive weights,
and every group of free nodes joined to a fixed node or held by a mass term,
the block is a diagonally dominant symmetric M-matrix and so positive
definite.  One loop over the axes, x-axis first, builds the lattice's edges
and sums the cell gradients, on a chain and on a 2D lattice alike.

On a 1D chain the block, with the free nodes in index order, is tridiagonal:
LAPACK's dptsv solves it by an LDL^T factorization straight from the
assembled diagonal and upper off-diagonal, and no solver state is kept.  On
a 2D lattice SuperLU factors it in symmetric mode, on a minimum-degree
ordering of A + A^T and without pivoting.  Consecutive reweighted matrices
of one block differ only through slowly varying weights, so each block
keeps its own last factor, which preconditions conjugate gradients on the
block's next matrix, for at most `_CG_MAXITER` iterations; the block is
factored afresh when that does not converge.  `minimize` passes its
iterate u: CG then starts from u and stops at a residual of `_FORCING`
times that of u, the forcing term of an inexact Newton method (Eisenstat &
Walker, SIAM J. Sci. Comput. 1996), since each solve only gives the
direction the backtracking then searches.  A lagged solve that took more
than `_REFRESH` iterations drops its block's factor, so the next solve of
the block factors afresh without trying PCG (see the note on `_REFRESH`):
the factor, or its absence, is a block's only lag state.  A solve given no
iterate, or on a block with no factor, factors afresh, and a fresh factor
solves directly; a block drops its old factor before it factors again, so
it holds at most one.  Every solve in the package is `minimize`'s and gets
an iterate; a condenser's p = 2 start is a `minimize` call too, whose
first solve, its block's first, factors.
Because of this solver state, a `LatticeSystem` on a 2D lattice must not be
shared across threads.

`minimize` has no exit that only time steps take: the time loop of
`capflow.pde` itself reuses a step that repeats a stationary one, without
calling `minimize`.

On a square 2D lattice, swapping x0 and x1 maps cell (i, j) to cell (j, i)
and its x-edge to its y-edge, so it leaves the energy unchanged; it is the
only reflection of the lattice that keeps every cell's low corner, and for
p != 2 the only one the energy is invariant under.  When the fixed mask,
the boundary values, the cell weights, `previous` (with a mass term) and
`iterate` each equal their transpose bitwise, the Dirichlet system A x = b
is invariant under the swap, so its unique solution is symmetric: x = P y,
P the map that gives each mirror class {(i, j), (j, i)} of free nodes one
unknown.  The solve then assembles P^T A P y = P^T b, again a symmetric
positive definite M-matrix system (mirror nodes are never neighbours),
whose unique solution is that y, and scatters y back, so the result is
symmetric bitwise (Bossavit, Comput. Methods Appl. Mech. Engrg. 1986).  The
mass term and `previous` carry each unknown's multiplicity, 1 on the
diagonal x0 = x1 and 2 off it.  PCG measures the lattice residual,
||r||**2 = sum (P^T r)**2 / multiplicity, so `_FORCING` and `_CG_RTOL`
keep their meaning.  On corner_verify's time step this halves the
unknowns and more than halves the factor (see the note on `_CG_MAXITER`);
every 2D solve of corner_verify folds, and so does cantor_profile's
full-cube denominator.
`minimize` alone decides the fold, once per call, from the mask, the
boundary values, `previous` (with a mass term) and its chosen start: from
symmetric fields it only ever builds symmetric ones, node by node or cell
by cell, so every solve of a symmetric minimization meets the condition
above, and it passes `folded=True` to each.  A solve trusts `folded` and
tests no field; unfolded, it runs on every free node, the fold by the
identity map.  Only the block checks, once when it is built, that a folded
lattice is square and its mask symmetric, since an asymmetric mask would
leave a free node without an unknown.  Each block of a `LatticeSystem` keeps
its own last factor, so a system that switches masks or folds lags on each
block's own factor; the package gives each system a single mask.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dptsv

from .errors import ConvergenceError


# Lagged-factor PCG.  At 12k unknowns one iteration (a matrix product and two
# triangular solves) costs about 1.4 ms, against 25-45 ms for one
# factorization, so a failed attempt of 8 iterations wastes at most about 0.4
# of a factorization.  Folded onto its mirror classes, corner_verify's time
# step has 6048 unknowns instead of 12033, and its factor 186k L+U nonzeros
# instead of 411k: 8 ms instead of 30 ms to factor, 0.3 ms instead of 1.0 ms
# per triangular solve.  On corner_verify (seed 3), of its 203 solves, all
# given an iterate, 181 met the forcing bound on the lagged factor, in 2.6
# iterations on average; 4 lagged attempts failed, 11 solves factored after
# a slow lagged solve dropped the factor, 7 were the first solve of their
# system, and the run factored 22 times and made 518 triangular solves.
# Forcing terms 1e-1, 1e-2, 1e-3, 1e-4 and _CG_RTOL gave 16, 22, 27, 40 and
# 64 factorizations; 1e-1 raised the largest certified step error by 8%, the
# others left it within 0.1%.
#
# A lagged solve that takes more than _REFRESH iterations shows its factor
# gone stale and drops it, and the next solve of the block factors afresh
# instead of running PCG, as inexact Newton-Krylov solvers refresh a lagged
# preconditioner (Knoll & Keyes, J. Comput. Phys. 2004).  Without it,
# corner_verify factored 14 times and made 796 triangular solves, many
# lagged solves limping at 5-8 iterations.  _REFRESH 3, 4, 5, 6 and never:
# corner_verify 23, 22, 18, 16, 14 factorizations and 509, 518, 620, 676,
# 802 triangular solves; criterion 09 (configs/verify_corner.json) 761, 923,
# 991, 1125, 1514 triangular solves.  Timed while the time loop still
# solved its repeated stationary steps (one process, 2-CPU Xeon, BLAS on one
# thread; 15 calls per value, 5 for criterion 09), the median call took
# 0.405, 0.403, 0.408, 0.411, 0.427 s on corner_verify, 0.221, 0.209,
# 0.210, 0.210, 0.213 s on cantor_profile and 0.94, 1.00, 0.96, 0.98,
# 1.24 s on criterion 09.
_CG_RTOL = 1e-12
_CG_MAXITER = 8
_FORCING = 1e-2
_REFRESH = 4

# The weight floor of the last stage of every minimization, and the most
# iterations that stage may take before `minimize` raises ConvergenceError.
_WEIGHT_FLOOR = 1e-10
_MAX_ITER = 500

# Floor continuation, after the relaxed Kacanov iteration of Diening,
# Fornasier, Tomasi & Wank (Numer. Math. 2020), which shrinks the range the
# weights are cut to.  Chosen on corner_verify's first time step from u = 0
# (seed 3), 30 solves at _WEIGHT_FLOOR alone: stages at 1e-2 and 1e-3 of
# the largest cell gradient, 3 iterations each, take 11 solves (2 per stage:
# 11; 4: 11; 10: 14, with more solves in later steps).  A 1e-3 stage
# alone takes 14, and 24-38 instead of 12-21 on flat 65^2 steps at p = 4 and
# 5.  A 1e-2 stage alone did as well as both on these problems; the 1e-3
# stage, at most 3 iterations, keeps the shrink geometric, as in that method.
_RELAX = (1e-2, 1e-3)
_STAGE_ITERS = 3

# Round-off level of a computed objective, relative to its size.  It is a
# pairwise sum of at most ~2**17 nonnegative cell terms (plus the mass term),
# each rounded a few times, so each value carries a relative error of up to
# about (log2(2**17) + 8) eps = 25 eps.  Two values closer than twice that,
# 64 eps ~ 1.4e-14 relative, may differ by round-off alone.
_ROUNDOFF_REL = 64.0 * np.finfo(float).eps


def _sum_into(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of values[index == i]."""
    # bincount returns integers when it is given no entries
    return np.bincount(index, weights=values, minlength=size).astype(float, copy=False)


class _Block:
    """The block P^T A P of one fixed mask, P the map of its free nodes to
    unknowns, and the maps that scatter cell weights into it.

    Unfolded, P is the identity.  Folded, on a square 2D lattice whose mask
    equals its transpose (checked when the block is built), a free node and
    its mirror across the diagonal x0 = x1 share one unknown, numbered in
    the order of the lower of their flat indices.  `free` holds the free
    nodes, `unknown` the unknown of each free node, `node` the flat index of
    each unknown's lower node and `mult` each unknown's multiplicity, the
    number of free nodes it stands for: 1 on the diagonal, and everywhere
    when unfolded, and 2 off it.
    `free_cells` marks the cells with an edge at a free node.

    Each edge adds its weight to the diagonal slots of its free ends and,
    between two free ends, subtracts it from both off-diagonal slots; an edge
    from a free node to a fixed node moves weight * value to the right-hand
    side row `rhs_row` instead.  The slots are in CSC order; `diag_slot`
    holds each unknown's diagonal.  The entries are compiled into the CSR
    operator `assembly`, one row per slot holding its entries in index
    order, so assembly @ w is the slots' data.  On a 1D lattice the block is
    tridiagonal: the slot upper_slot[k] holds its entry (upper_row[k],
    upper_row[k] + 1), the upper off-diagonal being 0 between consecutive
    free nodes that a fixed node separates.  On a 2D lattice the data is
    that of the CSC `matrix`, which each solve reuses, and `lu` is the
    block's last factor.
    """

    def __init__(self, system: LatticeSystem, fixed: np.ndarray, folded: bool):
        if folded and not (system.ndim == 2 and _transpose_symmetric(fixed, system.shape)):
            # a free node whose mirror is fixed would have no unknown
            raise ValueError(f"cannot fold the {system.shape} lattice: the fold needs a "
                             "square 2D lattice and a mask equal to its transpose")
        self.free = np.flatnonzero(~fixed)
        n_free = self.free.size
        own = np.arange(n_free)
        pos = np.full(system.n_nodes, -1, dtype=np.int64)
        pos[self.free] = own
        mirror = own
        if folded:
            i, j = np.divmod(self.free, system.shape[1])
            mirror = pos[j * system.shape[1] + i]
        lower = np.minimum(own, mirror)
        is_rep = lower == own
        self.unknown = (np.cumsum(is_rep) - 1)[lower]
        self.node = self.free[is_rep]
        self.mult = np.bincount(self.unknown).astype(float)

        pa = pos[system.edges_a]
        pb = pos[system.edges_b]
        self.free_cells = np.zeros(system.n_cells, dtype=bool)
        self.free_cells[system.edge_cell[(pa >= 0) | (pb >= 0)]] = True
        both = (pa >= 0) & (pb >= 0)
        a_only = (pa >= 0) & (pb < 0)
        b_only = (pa < 0) & (pb >= 0)
        n_both = int(both.sum())
        scale = system.h ** (system.ndim - 2)
        cell = system.edge_cell
        rhs_free = np.concatenate([pa[a_only], pb[b_only]])
        self.rhs_row = self.unknown[rhs_free]
        self.rhs_cell = np.concatenate([cell[a_only], cell[b_only]])
        self.rhs_node = np.concatenate([system.edges_b[a_only], system.edges_a[b_only]])
        self.rhs_coef = scale
        pa, pb, both_cell = pa[both], pb[both], cell[both]
        ua, ub = self.unknown[pa], self.unknown[pb]
        del pos, both, a_only, b_only

        # without a mass term, a group of free nodes joined to no fixed node
        # has the constants in its null space
        graph = sp.coo_matrix((np.ones(n_both), (pa, pb)), shape=(n_free, n_free))
        n_groups, label = csgraph.connected_components(graph, directed=False)
        grounded = np.zeros(n_groups, dtype=bool)
        grounded[label[rhs_free]] = True
        self.n_floating = int(np.count_nonzero(~grounded[label]))
        del graph, label, rhs_free, pa, pb

        n = self.n = self.node.size
        # column-major keys col * n + row give CSC order: each unknown's
        # diagonal, so that every column holds it, then the entries (a, a),
        # (b, b), (b, a) and (a, b) of each edge between free nodes a and b,
        # then the diagonal entry of each edge's one free end
        key = np.empty(n + 4 * n_both + self.rhs_row.size, dtype=np.int64)
        lo = 0
        for c, r in ((np.arange(n),) * 2, (ua, ua), (ub, ub), (ub, ua), (ua, ub),
                     (self.rhs_row,) * 2):
            np.multiply(c, n, out=key[lo:lo + c.size])
            key[lo:lo + c.size] += r
            lo += c.size
        del ua, ub
        # one stable sort: slots count the key changes, and restricted to the
        # entries the order lists each slot's entries in index order, so
        # each CSR row sums them in bincount's order, duplicate columns apart
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        slot = np.cumsum(new) - 1
        keys = key[new]
        del key, new
        self.nnz = keys.size
        row, col = keys % n, keys // n
        entry = order >= n
        self.diag_slot = slot[~entry]
        slot = slot[entry]
        entry = order[entry] - n
        del order
        entry_cell = np.concatenate([both_cell] * 4 + [self.rhs_cell])[entry]
        # the off-diagonal entries (b, a) and (a, b) subtract the edge weight
        entry_coef = np.where((entry >= 2 * n_both) & (entry < 4 * n_both), -scale, scale)
        self.assembly = sp.csr_matrix(
            (entry_coef, entry_cell,
             np.concatenate([[0], np.cumsum(np.bincount(slot, minlength=self.nnz))])),
            shape=(self.nnz, system.n_cells))
        if system.ndim == 1:
            self.upper_slot = np.flatnonzero(row == col - 1)
            self.upper_row = row[self.upper_slot]
        else:
            # each solve swaps its data into this one matrix
            self.matrix = sp.csc_matrix(
                (np.zeros(self.nnz), row.astype(np.int32),
                 np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))]).astype(np.int32)),
                shape=(n, n))
            # the block's last SuperLU factor, None once a lagged solve on
            # it took more than _REFRESH iterations
            self.lu = None

    def norm(self, r: np.ndarray) -> float:
        """||P (r / mult)||, the norm of the lattice vector, symmetric when
        folded, whose image under P^T is `r`; r / mult is exact, since mult
        is 1 or 2."""
        return math.sqrt(float(r @ (r / self.mult)))


def _transpose_symmetric(values: np.ndarray, shape: tuple[int, ...]) -> bool:
    """Whether the flat field `values` on a 2D `shape` equals its transpose."""
    if shape[0] != shape[1]:
        return False
    v = values.reshape(shape)
    return np.array_equal(v, v.T)


def _lagged_solve(blk: _Block, rhs: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """PCG on the block's matrix from `x`, which it updates in place,
    preconditioned by `blk.lu`, the block's last factor; returns x, or None.

    It stops once ||rhs - A x|| <= max(_FORCING ||rhs - A x0||, _CG_RTOL
    ||rhs||), x0 the start, measured by `blk.norm`.  The recurrence residual
    decides and the true residual confirms it once.  It returns None after
    _CG_MAXITER iterations, on a direction of non-positive curvature, or on a
    non-finite result.  When it took more than _REFRESH iterations, it drops
    the factor, so that the block's next solve factors afresh.
    """
    a_mat, norm = blk.matrix, blk.norm
    r = rhs - a_mat @ x
    tol = max(_CG_RTOL * norm(rhs), _FORCING * norm(r))
    k = 0
    # a NaN residual ends the loop and fails the confirmation
    while norm(r) > tol:
        if k == _CG_MAXITER:
            return None
        z = blk.lu.solve(r)
        rz = r @ z
        d = z if k == 0 else z + (rz / rz_old) * d
        q = a_mat @ d
        dq = d @ q
        if not dq > 0.0:
            return None
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
        rz_old = rz
        k += 1
    if k > _REFRESH:
        blk.lu = None
    return x if norm(rhs - a_mat @ x) <= tol else None


class LatticeSystem:
    """Edge/cell bookkeeping for the discrete p-Dirichlet form on a lattice."""

    def __init__(self, shape: tuple[int, ...], h: float):
        self.shape = tuple(int(n) for n in shape)
        self.h = float(h)
        self.ndim = len(self.shape)
        if self.ndim not in (1, 2):
            raise ValueError(f"lattice dimension must be 1 or 2, got {self.ndim}")
        if any(n < 3 for n in self.shape):
            raise ValueError(f"need at least 3 nodes per axis, got {self.shape}")
        if self.h <= 0.0:
            raise ValueError(f"spacing must be positive, got {self.h}")
        self.n_nodes = int(np.prod(self.shape))
        # cells by their low corner, C-ordered; each axis's forward edge runs
        # from the corner to the node one step up that axis, x-axis first
        self._low = (slice(None, -1),) * self.ndim
        self._high = [self._low[:k] + (slice(1, None),) + self._low[k + 1:]
                      for k in range(self.ndim)]
        nodes = np.arange(self.n_nodes).reshape(self.shape)
        corner = nodes[self._low].ravel()
        self.n_cells = corner.size
        self.edges_a = np.tile(corner, self.ndim)
        self.edges_b = np.concatenate([nodes[high].ravel() for high in self._high])
        self.edge_cell = np.tile(np.arange(self.n_cells), self.ndim)
        # one block per fixed mask and fold seen, keyed by the mask's bytes
        self._blocks: dict[tuple[bytes, bool], _Block] = {}

    def cell_gradient_sq(self, u: np.ndarray) -> np.ndarray:
        """|grad u|^2 per cell (C-ordered over cell corners), in a new array.

        ((v1 - v0) / h)**2 summed x-axis first, each operation in place on
        the output or on the later axes' terms.
        """
        v = np.asarray(u, dtype=float).reshape(self.shape)
        low = v[self._low]
        gsq = None
        for high in self._high:
            g = np.subtract(v[high], low)
            g /= self.h
            g *= g
            gsq = g if gsq is None else np.add(gsq, g, out=gsq)
        return gsq.ravel()

    def energy(self, u: np.ndarray, p: float) -> float:
        """Discrete p-energy sum_cells h**N |grad u|^p."""
        return self.energy_from_gsq(self.cell_gradient_sq(u), p)

    def energy_from_gsq(self, gsq: np.ndarray, p: float) -> float:
        """The p-energy of the field whose squared cell gradients are `gsq`."""
        return float(self.h ** self.ndim * (gsq ** (p / 2.0)).sum())

    def weights_from_gsq(self, gsq: np.ndarray, p: float, floor: float) -> np.ndarray:
        """Per-cell reweighting max(|grad u|, floor)**(p-2) of the field u
        whose squared cell gradients are `gsq`."""
        return np.maximum(np.sqrt(gsq), floor) ** (p - 2.0)

    def solve_dirichlet(self, cell_weights: np.ndarray, fixed: np.ndarray,
                        boundary_values: np.ndarray, mass: float = 0.0,
                        previous: np.ndarray | None = None,
                        iterate: np.ndarray | None = None, *,
                        folded: bool = False) -> np.ndarray:
        """Minimize 1/2 u^T L(w) u + mass/2 * sum_free (u - previous)^2 with u = g on `fixed`,
        where L(w) is the graph Laplacian of sum_cells h**N w_c |grad u|^2.

        `fixed` and `boundary_values` are full-length (flat) arrays; returns the
        full flat solution with the fixed values imposed exactly.  Given the
        full-length `iterate`, a 2D solve lags on its block's last factor:
        it starts there and stops at `_FORCING` times its residual (see the
        module docstring).  A lagged solve that took more than `_REFRESH`
        iterations drops the block's factor.  A 2D solve without `iterate`,
        or on a block with no factor, factors afresh; a 1D solve ignores
        `iterate`.
        With `folded`, the solve runs on one unknown per mirror pair of free
        nodes and returns a field equal to its transpose (see the module
        docstring).  It trusts the caller that the weights, boundary values,
        `previous` (with mass) and `iterate` equal their transposes, and
        tests none of them; `minimize` decides the fold.  Raises ValueError
        when the system is singular, or when `folded` is given on a lattice
        that is not square or a mask that is not transpose-symmetric.
        """
        fixed = np.asarray(fixed, dtype=bool).ravel()
        g = np.asarray(boundary_values, dtype=float).ravel()
        if mass > 0.0 and previous is None:
            raise ValueError("mass term requires the previous field")
        out = g.copy()
        w = np.asarray(cell_weights, dtype=float)
        if mass > 0.0:
            previous = np.asarray(previous, dtype=float).ravel()
        if iterate is not None:
            iterate = np.asarray(iterate, dtype=float).ravel()
        blk = self._block(fixed, folded)
        if blk.n == 0:
            return out
        if mass <= 0.0 and blk.n_floating:
            raise ValueError(self._singular(blk, f"{blk.n_floating} of them touch no "
                                                 "fixed node and mass is 0"))
        data = blk.assembly @ w
        rhs = _sum_into(blk.rhs_row, w[blk.rhs_cell] * blk.rhs_coef * g[blk.rhs_node], blk.n)
        if mass > 0.0:
            data[blk.diag_slot] += mass * blk.mult
            rhs += mass * (blk.mult * previous[blk.node])
        if self.ndim == 1:
            # f2py wants one off-diagonal entry even when there is one unknown
            e = np.zeros(max(blk.n - 1, 1))
            e[blk.upper_row] = data[blk.upper_slot]
            _, _, x, info = dptsv(data[blk.diag_slot], e, rhs, overwrite_d=True,
                                  overwrite_e=True, overwrite_b=True)
            if info != 0:
                raise ValueError(self._singular(blk, f"not positive definite (dptsv info {info})"))
        else:
            blk.matrix.data = data
            x = None
            # a non-positive diagonal may make the system singular: leave it
            # to SuperLU, which reports that
            if (iterate is not None and blk.lu is not None
                    and (data[blk.diag_slot] > 0.0).all()):
                x = _lagged_solve(blk, rhs, iterate[blk.node])
            if x is None:
                blk.lu = None                   # never two factors of a block at once
                try:
                    blk.lu = spla.splu(blk.matrix, permc_spec="MMD_AT_PLUS_A",
                                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
                except RuntimeError as exc:
                    raise ValueError(self._singular(blk, str(exc))) from exc
                x = blk.lu.solve(rhs)
        out[blk.free] = x[blk.unknown]
        return out

    def _block(self, fixed: np.ndarray, folded: bool) -> _Block:
        """The block of the flat bool mask `fixed`, folded or not; built on first use."""
        key = (fixed.tobytes(), folded)
        blk = self._blocks.get(key)
        if blk is None:
            blk = self._blocks[key] = _Block(self, fixed, folded)
        return blk

    def _singular(self, blk: _Block, why: str) -> str:
        return (f"singular Dirichlet system on the {self.shape} lattice with "
                f"{blk.free.size} free nodes: {why}")


def _stage_floors(gsq: np.ndarray, floor: float) -> list[float]:
    """The floors r * g_max above `floor`, for r in _RELAX, g_max the largest
    cell gradient when `gsq` holds the squared ones."""
    g_max = math.sqrt(gsq.max())
    return [r * g_max for r in _RELAX if r * g_max > floor]


def minimize(system: LatticeSystem, fixed: np.ndarray, start: np.ndarray, p: float,
             tol_rel_energy: float, mass: float = 0.0, previous: np.ndarray | None = None,
             guess: np.ndarray | None = None) -> tuple[np.ndarray, list[float]]:
    """Minimize E(u) + (p mass / 2) sum_free (u - previous)^2, E the p-energy,
    with u = start on `fixed`; return (flat minimizer, objective history).

    A start whose objective is exactly 0 is a minimizer, since no objective
    is lower: it is returned as it is, with history [0.0], before `guess` is
    evaluated and without a solve.  Otherwise the iteration starts from
    `guess` on the free nodes when that has a strictly lower objective than
    `start`, and from `start` otherwise; the history begins at the objective
    of the chosen start.  Each iteration solves with the weights
    max(|grad u|, floor)**(p-2) frozen at u, takes the full step toward that
    solution and halves it, down to 1e-12, while halving lowers the objective
    by more than noise = _ROUNDOFF_REL |e|, e the objective at u.  A step that
    does not lower e by more than noise is not taken and stops its stage, so
    no step hinges on the sign of round-off, and a minimizer that a solve
    reaches exactly, such as a 1D condenser's affine p = 2 start, is
    returned bitwise; a step whose relative decrease is at most
    tol_rel_energy is taken and stops its stage.  Each field is
    evaluated once: the objective of a field comes with its squared cell
    gradients, and the weights, stage floors and retry at that field use
    them.

    The last stage runs at floor = _WEIGHT_FLOOR; it returns when it stops
    and raises ConvergenceError after _MAX_ITER iterations, with a message
    that states that limit, so that callers need not read it.  When p > 2
    and some cell with a free node is floored at the chosen start, stages of
    at most _STAGE_ITERS iterations at the floors r * g_max, r in _RELAX and
    g_max the start's largest cell gradient, run first.  They do not count against
    _MAX_ITER, and a stage that does not stop just hands on to the next.  A
    solve that raises ValueError, as a singular one does, runs once more at
    the smallest such floor of u, and the error stands
    when no floor r * g_max exceeds the stage's.

    Whether the solves fold onto mirror classes is decided once, from
    `fixed`, `start`, `previous` (with mass > 0) and the chosen start, and
    passed to every solve (see the module docstring).
    """
    if mass > 0.0 and previous is None:
        raise ValueError("mass term requires the previous field")
    fixed = np.asarray(fixed, dtype=bool).ravel()
    start = np.asarray(start, dtype=float).ravel()
    free = ~fixed
    if mass > 0.0:
        previous = np.asarray(previous, dtype=float).ravel()
        anchor = previous[free]

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        """The objective at v and v's squared cell gradients, which the
        weights and floors at v are taken from."""
        gsq = system.cell_gradient_sq(v)
        e = system.energy_from_gsq(gsq, p)
        if mass > 0.0:
            d = v[free] - anchor
            e += 0.5 * p * mass * float(d @ d)
        return e, gsq

    u = start
    e_start, gsq = objective(u)
    history = [e_start]
    if e_start == 0.0:
        return u, history
    if guess is not None:
        trial = start.copy()
        trial[free] = np.asarray(guess, dtype=float).ravel()[free]
        e_trial, gsq_trial = objective(trial)
        if e_trial < e_start:
            u, gsq, history = trial, gsq_trial, [e_trial]
    # The fold, decided once for every solve.  When fixed, start, previous
    # (with mass) and u equal their transposes, so do the weights at u
    # (gx**2 + gy**2 is the same sum in either order), each folded solve,
    # each step toward it and the weights there, retries included: every
    # solve below meets the fold's condition.  Otherwise every solve runs
    # unfolded, even where an iterate comes out symmetric bitwise.
    fields = [fixed, start]
    if mass > 0.0:
        fields.append(previous)
    if u is not start:
        fields.append(u)
    folded = system.ndim == 2 and all(_transpose_symmetric(v, system.shape) for v in fields)

    def solve(floor: float) -> np.ndarray:
        """The reweighted solve from u at `floor`."""
        w = system.weights_from_gsq(gsq, p, floor)
        return system.solve_dirichlet(w, fixed, start, mass=mass, previous=previous,
                                      iterate=u, folded=folded)

    def iterate(floor: float) -> bool:
        """One reweighted iteration at `floor`, which advances u, its squared
        cell gradients gsq and history unless it finds u stationary; True
        when its stage stops."""
        nonlocal u, gsq
        try:
            u_hat = solve(floor)
        except ValueError:
            # flat cells of an iterate, not only of the start, weigh
            # floor**(p-2), which can round away against unit weights and,
            # without mass, cut free nodes off from every fixed node
            relaxed = _stage_floors(gsq, floor)
            if not relaxed:
                raise
            u_hat = solve(relaxed[-1])
        e_prev = history[-1]
        noise = _ROUNDOFF_REL * abs(e_prev)
        cand, alpha = u_hat, 1.0
        e_cand, gsq_cand = objective(cand)
        # The frozen-weight model underestimates the curvature along the
        # gradient by up to a factor p - 1, so the full step can overshoot,
        # above e_prev or to nearly its level, and zigzag with a tiny decrease
        # per iteration.  The objective is convex along the segment: halve
        # while that lowers it by more than round-off.
        while alpha > 1e-12:
            half = u + 0.5 * alpha * (u_hat - u)
            e_half, gsq_half = objective(half)
            if e_cand - e_half <= noise:
                break
            cand, alpha, e_cand, gsq_cand = half, 0.5 * alpha, e_half, gsq_half
        if e_prev - e_cand <= noise:
            # no descent beyond round-off down to a step of 1e-12: the
            # iterate is stationary.  A level fall counts as none, so that
            # no step hinges on the sign of round-off.
            return True
        u, gsq = cand, gsq_cand
        history.append(e_cand)
        return e_prev - e_cand <= tol_rel_energy * max(abs(e_prev), 1e-300)

    # the continuation stages run when p > 2 and some cell with a free node,
    # which the block marks, is floored at the chosen start
    stages = []
    if p > 2.0:
        floored = gsq <= _WEIGHT_FLOOR * _WEIGHT_FLOOR
        if floored.any() and floored[system._block(fixed, folded).free_cells].any():
            stages = _stage_floors(gsq, _WEIGHT_FLOOR)
    for floor in stages:
        for _ in range(_STAGE_ITERS):
            if iterate(floor):
                break
    for _ in range(_MAX_ITER):
        if iterate(_WEIGHT_FLOOR):
            return u, history
    raise ConvergenceError(f"did not converge within {_MAX_ITER} reweighting iterations",
                           last_energy=history[-1])
