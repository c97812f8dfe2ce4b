from __future__ import annotations

import math

import numpy as np
import pytest

import capflow as cf
from capflow.geometry import Cube, DomainSpec, IndicatorField, lattice_nodes_per_axis
from helpers import all_true


def _sample_points(rng, n, lo=-2.0, hi=2.0, ndim=2):
    return rng.uniform(lo, hi, size=(n, ndim))


def test_cube_basics():
    cube = Cube((0.0, 0.0), 0.5)
    assert cube.ndim == 2
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.5000001, 0.0], [-0.6, 0.2]])
    assert cube.contains_points(pts).tolist() == [True, True, False, False]
    # tol widens the closed cube
    assert cube.contains_points(pts, tol=1e-3).tolist() == [True, True, True, False]


def test_cube_validation():
    with pytest.raises(ValueError, match="half_edge must be positive"):
        Cube((0.0,), 0.0)
    with pytest.raises(ValueError, match="1 or 2 coordinates"):
        Cube((0.0, 0.0, 0.0), 1.0)


def test_half_space_membership():
    dom = DomainSpec.half_space((0.25, 0.0))
    rng = np.random.default_rng(0)
    pts = _sample_points(rng, 200)
    assert np.array_equal(cf.contains_many(dom, pts), pts[:, 0] < 0.25)
    assert not cf.contains(dom, (0.25, 0.7))   # boundary is outside the open set


def test_exterior_cube_membership():
    # removed cube [0, 1]^2, anchor at its corner
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.5)
    rng = np.random.default_rng(1)
    pts = _sample_points(rng, 300)
    in_cube = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
    assert np.array_equal(cf.contains_many(dom, pts), ~in_cube)
    assert not cf.contains(dom, (0.5, 0.5))
    assert not cf.contains(dom, (0.0, 0.0))    # closed removed cube
    assert cf.contains(dom, (-1e-12, 0.5))


def test_slit_membership_2d():
    dom = DomainSpec.slit((0.0, 0.0), 1.0)
    assert not cf.contains(dom, (0.5, 0.0))
    assert not cf.contains(dom, (1.0, 0.0))
    assert cf.contains(dom, (1.5, 0.0))        # beyond the far end
    assert cf.contains(dom, (0.5, 1e-9))       # off the line
    assert cf.contains(dom, (-1e-9, 0.0))


def test_power_cusp_membership():
    dom = DomainSpec.power_cusp((0.0, 0.0), 2.0)
    assert not cf.contains(dom, (0.5, 0.2))    # |y| <= x^2 at x=0.5 -> 0.25
    assert cf.contains(dom, (0.5, 0.3))
    assert cf.contains(dom, (-0.1, 0.0))


def test_cantor_membership_level1():
    # level 1, ratio 1/3: kept intervals [0, 1/3] and [2/3, 1] on the x-axis
    dom = DomainSpec.cantor_obstacle((0.0, 0.0), 1, 1.0 / 3.0)
    assert not cf.contains(dom, (0.2, 0.0))
    assert cf.contains(dom, (0.5, 0.0))        # middle third removed
    assert not cf.contains(dom, (0.9, 0.0))
    assert cf.contains(dom, (0.2, 0.1))


def test_anchor_validation():
    with pytest.raises(ValueError, match="must not lie in E"):
        DomainSpec.custom_mask((0.0, 0.0), lambda x: True)
    # anchor in the dead interior of the obstacle fails the boundary probe
    with pytest.raises(ValueError, match="boundary"):
        DomainSpec.custom_mask((0.0, 0.0),
                               lambda x: abs(x[0]) > 10.0)
    # a quadrant is reached from its corner only along the diagonal
    quadrant = DomainSpec.custom_mask((0.5, -0.25), lambda x: x[0] > 0.5 and x[1] > -0.25)
    assert quadrant.anchor == (0.5, -0.25)


def test_domain_param_validation():
    with pytest.raises(ValueError, match="positive half-edge"):
        DomainSpec.exterior_cube((0.0, 0.0), -1.0)
    with pytest.raises(ValueError, match="exponent q >= 1"):
        DomainSpec.power_cusp((0.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="ratio must lie in"):
        DomainSpec.cantor_obstacle((0.0, 0.0), 2, 0.5)
    with pytest.raises(ValueError, match="unknown domain kind"):
        DomainSpec("banana", (0.0,))


def test_contains_matches_contains_many():
    doms = [DomainSpec.half_space((0.0, 0.0)),
            DomainSpec.exterior_cube((0.0, 0.0), 0.7),
            DomainSpec.power_cusp((0.0, 0.0), 1.5)]
    rng = np.random.default_rng(2)
    pts = _sample_points(rng, 50)
    for dom in doms:
        many = cf.contains_many(dom, pts)
        for i in range(len(pts)):
            assert cf.contains(dom, tuple(pts[i])) == bool(many[i])


def test_lattice_nodes_per_axis():
    assert lattice_nodes_per_axis(0.5, 0.125) == 9
    assert lattice_nodes_per_axis(1.0, 0.25) == 9
    with pytest.raises(ValueError, match="does not divide"):
        lattice_nodes_per_axis(0.5, 0.3)
    for h in (0.0, math.nan):
        with pytest.raises(ValueError, match="grid spacing must be positive"):
            lattice_nodes_per_axis(0.5, h)
        with pytest.raises(ValueError, match="grid spacing must be positive"):
            IndicatorField(Cube((0.0,), 0.5), h, np.ones(1, dtype=bool))


def test_indicator_field_all_true():
    field = all_true(Cube((0.0, 0.0), 0.5), 0.25)
    assert field.nodes_per_axis == 5
    assert field.count == 25
    assert field.node_points().shape == (25, 2)
    pts = field.node_points()
    assert np.allclose(pts[::5, 0], np.linspace(-0.5, 0.5, 5))


def test_rasterize_exterior_cube_corner():
    # quadrant obstacle: marked nodes are exactly those with x >= 0 and y >= 0
    dom = DomainSpec.exterior_cube((0.0, 0.0), 2.0)
    field = cf.rasterize_obstacle(dom, Cube((0.0, 0.0), 0.25), 0.125)
    pts = field.node_points()
    expected = (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)
    assert np.array_equal(field.values.ravel(), expected)
    assert int(field.values.sum()) == 9


def test_rasterize_matches_membership():
    doms = [DomainSpec.half_space((0.0, 0.0)),
            DomainSpec.exterior_cube((-0.1, -0.1), 0.3),
            DomainSpec.power_cusp((0.0, 0.0), 2.0)]
    inner = Cube((0.0, 0.0), 0.5)
    for dom in doms:
        field = cf.rasterize_obstacle(dom, inner, 0.125)
        pts = field.node_points()
        assert np.array_equal(field.values.ravel(), ~cf.contains_many(dom, pts))


def test_rasterize_slit_one_layer():
    # the slit has measure zero; rasterization thickens it by half a spacing
    dom = DomainSpec.slit((0.0, 0.0), 10.0)
    field = cf.rasterize_obstacle(dom, Cube((0.0, 0.0), 0.5), 0.125)
    pts = field.node_points()
    on_line = (pts[:, 1] == 0.0) & (pts[:, 0] >= 0.0)
    assert np.array_equal(field.values.ravel(), on_line)


def test_obstacle_distance_slit():
    dom = DomainSpec.slit((0.0, 0.0), 1.0)
    inner = Cube((0.0, 0.0), 2.0)
    pts = np.array([[0.5, 0.3], [-0.4, 0.0], [1.5, 0.0], [2.0, 1.0]])
    d = cf.obstacle_distance(dom, pts, inner)
    assert np.allclose(d, [0.3, 0.4, 0.5, math.hypot(1.0, 1.0)], atol=1e-15)
    with pytest.raises(ValueError, match="no lower-dimensional obstacle"):
        cf.obstacle_distance(DomainSpec.half_space((0.0, 0.0)), pts, inner)


def _reference_cantor_intervals(level, ratio):
    iv = np.array([[0.0, 1.0]])
    for _ in range(level):
        ln = iv[:, 1] - iv[:, 0]
        lo = np.stack([iv[:, 0], iv[:, 0] + ratio * ln], axis=1)
        hi = np.stack([iv[:, 1] - ratio * ln, iv[:, 1]], axis=1)
        iv = np.concatenate([lo, hi])
    return iv


def _reference_segment_distance(pts, x0, x1, y):
    dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
    return dx if y is None else np.hypot(dx, pts[:, 1] - y)


def _reference_obstacle_distance(domain, pts, inner):
    """The distance as written per kind and per dimension."""
    a = np.asarray(domain.anchor)
    n = domain.ndim
    lo = np.asarray(inner.center) - inner.half_edge
    hi = np.asarray(inner.center) + inner.half_edge
    far = np.full(len(pts), np.inf)
    if domain.kind == "slit":
        if n == 1:
            return np.abs(pts[:, 0] - a[0]) if lo[0] <= a[0] <= hi[0] else far
        if not lo[1] <= a[1] <= hi[1]:
            return far
        x0, x1 = max(a[0], lo[0]), min(a[0] + domain.params[0], hi[0])
        return far if x1 < x0 else _reference_segment_distance(pts, x0, x1, a[1])
    if n == 2 and not lo[1] <= a[1] <= hi[1]:
        return far
    best = far.copy()
    iv = _reference_cantor_intervals(int(domain.params[0]), domain.params[1]) + a[0]
    for left, right in iv:
        x0, x1 = max(left, lo[0]), min(right, hi[0])
        if x1 >= x0:
            y = a[1] if n == 2 else None
            best = np.minimum(best, _reference_segment_distance(pts, x0, x1, y))
    return best


@pytest.mark.parametrize("domain, clipped_away", [
    (DomainSpec.slit((0.25,)), False),
    (DomainSpec.slit((0.75,)), True),
    (DomainSpec.slit((-0.7, 0.1), 1.5), False),
    (DomainSpec.slit((-0.3, 0.1)), False),
    (DomainSpec.slit((-0.3, 0.7), 0.5), True),
    (DomainSpec.cantor_obstacle((-0.6,), 3, 0.3), False),
    (DomainSpec.cantor_obstacle((-0.6, 0.2), 3, 0.3), False),
    (DomainSpec.cantor_obstacle((-0.6, 0.6), 3, 0.3), True),
], ids=["slit_1d_inside", "slit_1d_outside", "slit_2d_clipped_both_ends",
        "slit_2d_infinite", "slit_2d_above", "cantor_1d", "cantor_2d", "cantor_2d_above"])
def test_obstacle_distance_matches_the_per_kind_reference_bitwise(domain, clipped_away):
    # the clip cube [-0.5, 0.5]^N cuts the 2D slits at both ends or at the
    # far end and the cantor obstacles at their left end, and leaves
    # nothing of an obstacle whose anchor or height lies outside it
    inner = Cube((0.0,) * domain.ndim, 0.5)
    rng = np.random.default_rng(5)
    pts = np.concatenate([cf.geometry.lattice_points(inner, 0.0625),
                          _sample_points(rng, 200, ndim=domain.ndim)])
    d = cf.obstacle_distance(domain, pts, inner)
    ref = _reference_obstacle_distance(domain, pts, inner)
    assert d.dtype == ref.dtype and d.tobytes() == ref.tobytes()
    assert np.isinf(d).all() == clipped_away
    assert np.isfinite(d).all() != clipped_away


@pytest.mark.parametrize("domain", [
    DomainSpec.slit((0.25,)),
    DomainSpec.slit((-0.3, 0.1), 0.9),
    DomainSpec.cantor_obstacle((-0.4,), 3, 0.3),
    DomainSpec.cantor_obstacle((-0.4, 0.2), 3, 0.3),
], ids=["slit_1d", "slit_2d", "cantor_1d", "cantor_2d"])
def test_thin_obstacle_membership_at_segment_ends_matches_the_per_kind_predicates(domain):
    # each segment end, and 1 ulp beyond it either way, on the obstacle's
    # line and 1 ulp off it in 2D
    a = np.asarray(domain.anchor)
    if domain.kind == "slit":
        ends = [a[0], a[0] + (domain.params[0] if domain.ndim == 2 else 0.0)]
    else:
        ends = (_reference_cantor_intervals(3, 0.3) + a[0]).ravel()
    xs = np.concatenate([[x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)] for x in ends])
    if domain.ndim == 1:
        pts = xs[:, None]
    else:
        ys = [a[1], np.nextafter(a[1], -np.inf), np.nextafter(a[1], np.inf)]
        pts = np.array([(x, y) for x in xs for y in ys])
    x = pts[:, 0]
    if domain.kind == "slit" and domain.ndim == 1:
        ref = x != a[0]
    elif domain.kind == "slit":
        ref = ~((pts[:, 1] == a[1]) & (x >= a[0]) & (x <= a[0] + domain.params[0]))
    else:
        on = cf.geometry._cantor_membership(x - a[0], 3, 0.3)
        ref = ~(on & (pts[:, 1] == a[1])) if domain.ndim == 2 else ~on
    assert np.array_equal(cf.contains_many(domain, pts), ref)
    assert not ref.all() and ref.any()


def test_domain_inside_mask_complements_rasterization():
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.4)
    box = Cube((0.0, 0.0), 0.5)
    mask = cf.domain_inside_mask(dom, box, 0.125)
    ras = cf.rasterize_obstacle(dom, box, 0.125)
    assert mask.dtype == bool
    assert np.array_equal(mask, ~ras.values)
