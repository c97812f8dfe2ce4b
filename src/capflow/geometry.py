"""Rough spatial domains, axis-aligned cubes, and rasterized obstacle masks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

KINDS = ("full_space", "half_space", "exterior_cube", "slit", "power_cusp",
         "cantor_obstacle", "custom_mask")

# Kinds whose complement is lower-dimensional; rasterization thickens these
# by half a grid layer instead of testing nodes pointwise.
LOWER_DIMENSIONAL_KINDS = ("slit", "cantor_obstacle")

# Kinds with a closed-form distance to the complement of E.
DISTANCE_KINDS = ("full_space", "half_space", "exterior_cube") + LOWER_DIMENSIONAL_KINDS


def as_point(coords: Sequence[float]) -> tuple[float, ...]:
    """Coerce to a validated 1D or 2D point tuple."""
    pt = tuple(float(c) for c in coords)
    if len(pt) not in (1, 2):
        raise ValueError(f"points must have 1 or 2 coordinates, got {len(pt)}")
    if not all(math.isfinite(c) for c in pt):
        raise ValueError(f"point has non-finite coordinates: {pt}")
    return pt


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube of edge 2*half_edge centered at `center`."""

    center: tuple[float, ...]
    half_edge: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "half_edge", float(self.half_edge))
        if not (self.half_edge > 0.0 and math.isfinite(self.half_edge)):
            raise ValueError(f"half_edge must be positive and finite, got {self.half_edge}")

    @property
    def ndim(self) -> int:
        return len(self.center)

    def contains_points(self, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Closed-cube membership for an array of points, shape (K, N)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        c = np.asarray(self.center)
        return np.all(np.abs(pts - c) <= self.half_edge + tol, axis=1)


@dataclass(frozen=True)
class DomainSpec:
    """Open set E probed near the boundary point `anchor`.

    Kinds:
      full_space       E = R^N (interior tests only; anchor is unconstrained)
      half_space       E = {x0 < anchor0}
      exterior_cube    complement of the closed cube prod_k [anchor_k, anchor_k + 2s];
                       the anchor is a corner of the removed cube
      slit             complement of the segment from the anchor of length L along
                       +x0 (N=2); the single point {anchor} for N=1
      power_cusp       complement of {x0 >= anchor0, |x1 - anchor1| <= (x0-anchor0)**q}
                       for N=2; the ray [anchor0, inf) removed for N=1
      cantor_obstacle  complement of the level-L prefractal with end ratio r built
                       on [anchor0, anchor0 + 1] along +x0 (times {anchor1} for N=2)
      custom_mask      membership from a user-supplied predicate (programmatic only)

    Membership is an exact deterministic predicate.  For every kind except
    full_space the anchor lies outside E but on its boundary; construction
    checks the first exactly and the second by a small deterministic probe.
    """

    kind: str
    anchor: tuple[float, ...]
    params: tuple[float, ...] = ()
    predicate: Callable[[tuple[float, ...]], bool] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "anchor", as_point(self.anchor))
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        self._validate_params()
        if self.kind != "full_space":
            self._validate_anchor()

    @property
    def ndim(self) -> int:
        return len(self.anchor)

    def _validate_params(self):
        k, prm, n = self.kind, self.params, self.ndim
        if k in ("full_space", "half_space"):
            if prm:
                raise ValueError(f"{k} takes no parameters, got {prm}")
        elif k == "exterior_cube":
            if len(prm) != 1 or not (math.isfinite(prm[0]) and prm[0] > 0):
                raise ValueError(f"exterior_cube needs one positive half-edge, got {prm}")
        elif k == "slit":
            if len(prm) != 1 or not prm[0] > 0:
                raise ValueError(f"slit needs one positive length (inf allowed), got {prm}")
        elif k == "power_cusp":
            if len(prm) != 1 or not (math.isfinite(prm[0]) and prm[0] >= 1.0):
                raise ValueError(f"power_cusp needs one exponent q >= 1, got {prm}")
        elif k == "cantor_obstacle":
            if len(prm) != 2:
                raise ValueError(f"cantor_obstacle needs (level, ratio), got {prm}")
            level, ratio = prm
            if level != int(level) or not 1 <= level <= 16:
                raise ValueError(f"cantor level must be an integer in [1, 16], got {level}")
            if not 0.0 < ratio < 0.5:
                raise ValueError(f"cantor ratio must lie in (0, 0.5), got {ratio}")
        elif k == "custom_mask":
            if self.predicate is None:
                raise ValueError("custom_mask requires a membership predicate")
        if k != "custom_mask" and self.predicate is not None:
            raise ValueError(f"{k} does not accept a predicate")

    def _validate_anchor(self):
        if contains(self, self.anchor):
            raise ValueError(f"anchor {self.anchor} must not lie in E ({self.kind})")
        # boundary probe: some nearby point must be inside E
        a = np.asarray(self.anchor)
        scale = max(1.0, float(np.max(np.abs(a))))
        dirs = [np.array(d) for d in itertools.product((-1.0, 0.0, 1.0), repeat=self.ndim)
                if any(d)]
        for eps in (1e-2, 1e-5, 1e-8):
            for d in dirs:
                if contains(self, tuple(a + eps * scale * d)):
                    return
        raise ValueError(f"anchor {self.anchor} does not appear to lie on the boundary "
                         f"of E ({self.kind}); probe found no nearby interior point")

    # -- convenience constructors ------------------------------------------

    @classmethod
    def full_space(cls, ndim: int) -> "DomainSpec":
        return cls("full_space", (0.0,) * ndim)

    @classmethod
    def half_space(cls, anchor: Sequence[float]) -> "DomainSpec":
        return cls("half_space", tuple(anchor))

    @classmethod
    def exterior_cube(cls, anchor: Sequence[float], half_edge: float) -> "DomainSpec":
        return cls("exterior_cube", tuple(anchor), (half_edge,))

    @classmethod
    def slit(cls, anchor: Sequence[float], length: float = math.inf) -> "DomainSpec":
        return cls("slit", tuple(anchor), (length,))

    @classmethod
    def power_cusp(cls, anchor: Sequence[float], exponent: float) -> "DomainSpec":
        return cls("power_cusp", tuple(anchor), (exponent,))

    @classmethod
    def cantor_obstacle(cls, anchor: Sequence[float], level: int, ratio: float) -> "DomainSpec":
        return cls("cantor_obstacle", tuple(anchor), (level, ratio))

    @classmethod
    def custom_mask(cls, anchor: Sequence[float],
                    predicate: Callable[[tuple[float, ...]], bool]) -> "DomainSpec":
        return cls("custom_mask", tuple(anchor), (), predicate)


def _cantor_membership(t: np.ndarray, level: int, ratio: float) -> np.ndarray:
    """Exact membership in the level-`level` prefractal on [0, 1]."""
    inside = (t >= 0.0) & (t <= 1.0)
    t = np.where(inside, t, 0.5)
    for _ in range(level):
        low = t <= ratio
        high = t >= 1.0 - ratio
        inside &= low | high
        t = np.where(low, t / ratio, np.where(high, (t - (1.0 - ratio)) / ratio, 0.5))
    return inside


def _segments(domain: DomainSpec) -> np.ndarray:
    """The segments along x0 that make up a thin obstacle, one [left, right]
    row each, at height anchor[1] in 2D: a slit's one, the single point
    [a0, a0] in 1D, or the 2**level intervals of a cantor obstacle."""
    a0 = domain.anchor[0]
    if domain.kind == "slit":
        return np.array([[a0, (a0 + domain.params[0]) if domain.ndim == 2 else a0]])
    level, ratio = int(domain.params[0]), domain.params[1]
    iv = np.array([[0.0, 1.0]])
    for _ in range(level):
        ln = iv[:, 1] - iv[:, 0]
        lo = np.stack([iv[:, 0], iv[:, 0] + ratio * ln], axis=1)
        hi = np.stack([iv[:, 1] - ratio * ln, iv[:, 1]], axis=1)
        iv = np.concatenate([lo, hi])
    return iv + a0


def contains_many(domain: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership x in E for points of shape (K, N)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = domain.ndim
    if pts.shape[1] != n:
        raise ValueError(f"points have dimension {pts.shape[1]}, domain has {n}")
    a = np.asarray(domain.anchor)
    k = domain.kind
    if k == "full_space":
        return np.ones(len(pts), dtype=bool)
    if k == "half_space":
        return pts[:, 0] < a[0]
    if k == "exterior_cube":
        s = domain.params[0]
        in_cube = np.all((pts >= a) & (pts <= a + 2.0 * s), axis=1)
        return ~in_cube
    if k in LOWER_DIMENSIONAL_KINDS:
        if k == "slit":
            left, right = _segments(domain)[0]
            on = (pts[:, 0] >= left) & (pts[:, 0] <= right)
        else:
            # exact scaling: the segments' endpoints can round differently
            on = _cantor_membership(pts[:, 0] - a[0], int(domain.params[0]), domain.params[1])
        if n == 2:
            on &= pts[:, 1] == a[1]
        return ~on
    if k == "power_cusp":
        dx = pts[:, 0] - a[0]
        if n == 1:
            return dx < 0.0
        width = np.where(dx >= 0.0, dx, 0.0) ** domain.params[0]
        in_cusp = (dx >= 0.0) & (np.abs(pts[:, 1] - a[1]) <= width)
        return ~in_cusp
    # custom_mask: scalar predicate applied pointwise
    pred = domain.predicate
    return np.fromiter((bool(pred(tuple(p))) for p in pts), dtype=bool, count=len(pts))


def contains(domain: DomainSpec, x: Sequence[float]) -> bool:
    """Exact membership test x in E."""
    return bool(contains_many(domain, np.asarray([as_point(x)]))[0])


def obstacle_distance(domain: DomainSpec, pts: np.ndarray, inner: Cube) -> np.ndarray:
    """Distance from pts to the lower-dimensional obstacle clipped to `inner`:
    the least distance to its segments, each clipped along x0, and none when
    its height lies outside `inner`."""
    if domain.kind not in LOWER_DIMENSIONAL_KINDS:
        raise ValueError(f"kind {domain.kind!r} has no lower-dimensional obstacle")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(domain.anchor)
    lo = np.asarray(inner.center) - inner.half_edge
    hi = np.asarray(inner.center) + inner.half_edge
    best = np.full(len(pts), np.inf)
    if domain.ndim == 2 and not lo[1] <= a[1] <= hi[1]:
        return best
    for left, right in _segments(domain):
        x0, x1 = max(left, lo[0]), min(right, hi[0])
        if x1 < x0:
            continue
        d = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
        best = np.minimum(best, d if domain.ndim == 1 else np.hypot(d, pts[:, 1] - a[1]))
    return best


def sup_distance_to_obstacle(domain: DomainSpec, pts: np.ndarray, clip: Cube) -> np.ndarray:
    """Distance from pts to the complement of E, a lower-dimensional one clipped
    to `clip`; ValueError for kinds outside DISTANCE_KINDS."""
    if domain.kind not in DISTANCE_KINDS:
        raise ValueError(f"kind {domain.kind!r} has no distance to its complement")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(domain.anchor)
    if domain.kind == "full_space":
        return np.full(len(pts), np.inf)
    if domain.kind == "half_space":
        return np.maximum(a[0] - pts[:, 0], 0.0)
    if domain.kind == "exterior_cube":
        s = domain.params[0]
        lo = np.maximum(a - pts, 0.0)
        hi = np.maximum(pts - (a + 2.0 * s), 0.0)
        return np.max(np.maximum(lo, hi), axis=1)
    return obstacle_distance(domain, pts, clip)


@dataclass(frozen=True)
class IndicatorField:
    """Boolean node marks on the uniform lattice spanning `cube` with spacing h.

    Node counts per axis are odd so the center node exists.
    """

    cube: Cube
    h: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        vals = np.asarray(self.values, dtype=bool)
        object.__setattr__(self, "values", vals)
        n = lattice_nodes_per_axis(self.cube.half_edge, self.h)
        expected = (n,) * self.cube.ndim
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match lattice {expected}")

    @property
    def nodes_per_axis(self) -> int:
        return self.values.shape[0]

    def node_points(self) -> np.ndarray:
        return lattice_points(self.cube, self.h)

    @property
    def count(self) -> int:
        return int(self.values.sum())


def lattice_nodes_per_axis(half_edge: float, h: float) -> int:
    """Node count 2m+1 for the lattice of spacing h spanning [-half_edge, half_edge]."""
    if not h > 0.0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    m = round(half_edge / h)
    if m < 1 or abs(m * h - half_edge) > 1e-9 * half_edge:
        raise ValueError(f"grid spacing {h} does not divide half-edge {half_edge}")
    return 2 * m + 1


def lattice_points(cube: Cube, h: float) -> np.ndarray:
    """Coordinates c + h*k, |k| <= m, of the lattice of spacing h spanning
    `cube`: shape (n**N, N), C-ordered.  Every node coordinate in the library
    comes from here."""
    m = (lattice_nodes_per_axis(cube.half_edge, h) - 1) // 2
    grids = np.meshgrid(*(c + h * np.arange(-m, m + 1) for c in cube.center), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def box_faces(shape: tuple[int, ...]) -> np.ndarray:
    """Nodes on the faces of a lattice box of the given shape."""
    faces = np.zeros(shape, dtype=bool)
    for k in range(len(shape)):
        faces[(slice(None),) * k + (0,)] = True
        faces[(slice(None),) * k + (-1,)] = True
    return faces


def rasterize_obstacle(domain: DomainSpec, inner: Cube, grid_h: float) -> IndicatorField:
    """Mark the lattice nodes of `inner` lying in the obstacle inner \\ E.

    Full-dimensional kinds are tested pointwise (a node is marked iff it is
    not in E).  Lower-dimensional obstacles (slit, cantor) are thickened by
    one grid layer: a node is marked iff its distance to the obstacle set is
    < grid_h / 2.
    """
    if domain.ndim != inner.ndim:
        raise ValueError(f"domain dimension {domain.ndim} != cube dimension {inner.ndim}")
    n = lattice_nodes_per_axis(inner.half_edge, grid_h)
    pts = lattice_points(inner, grid_h)
    if domain.kind in LOWER_DIMENSIONAL_KINDS:
        marked = obstacle_distance(domain, pts, inner) < grid_h / 2.0
    else:
        marked = ~contains_many(domain, pts)
    return IndicatorField(inner, grid_h, marked.reshape((n,) * inner.ndim))


def domain_inside_mask(domain: DomainSpec, box: Cube, grid_h: float) -> np.ndarray:
    """Inside-E node mask on the box lattice, complementary to rasterization."""
    return ~rasterize_obstacle(domain, box, grid_h).values
