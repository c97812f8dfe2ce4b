from __future__ import annotations

import math

import numpy as np
import pytest

import capflow as cf
from capflow.geometry import Cube, DomainSpec, IndicatorField, lattice_nodes_per_axis


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
    with pytest.raises(ValueError, match="must be positive"):
        lattice_nodes_per_axis(0.5, 0.0)


def test_indicator_field_all_true():
    field = IndicatorField.all_true(Cube((0.0, 0.0), 0.5), 0.25)
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


def test_domain_inside_mask_complements_rasterization():
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.4)
    box = Cube((0.0, 0.0), 0.5)
    mask = cf.domain_inside_mask(dom, box, 0.125)
    ras = cf.rasterize_obstacle(dom, box, 0.125)
    assert mask.dtype == bool
    assert np.array_equal(mask, ~ras.values)
