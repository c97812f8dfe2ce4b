from __future__ import annotations

import math

import numpy as np
import pytest

import capflow as cf
from helpers import brute_harnack as _brute_harnack, synthetic_field


P3N2 = cf.make_params(3.0, 2)
TIMES5 = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _positive_field(seed: int, lo=0.002, hi=0.004) -> cf.SpaceTimeField:
    rng = np.random.default_rng(seed)
    return synthetic_field(rng.uniform(lo, hi, size=(5, 81)), TIMES5)


def test_weak_harnack_matches_exhaustive_scan_intrinsic():
    for seed in (0, 1, 2):
        field = _positive_field(seed)
        res = cf.weak_harnack_probe(field, (0.0, 0.0), 0.0, 0.125)
        s_used, avg, theta, branch, window, inf_later, ratio = \
            _brute_harnack(field, (0.0, 0.0), 0.0, 0.125)
        assert branch == "intrinsic"
        assert res.s == s_used
        assert res.avg == avg
        assert res.theta == theta
        assert res.branch == branch
        assert res.window == window
        assert res.inf_later == inf_later
        assert res.ratio == ratio


def test_weak_harnack_matches_exhaustive_scan_horizon():
    field = _positive_field(3)
    res = cf.weak_harnack_probe(field, (0.0, 0.0), 0.75, 0.125)
    s_used, avg, theta, branch, window, inf_later, ratio = \
        _brute_harnack(field, (0.0, 0.0), 0.75, 0.125)
    assert branch == "horizon"
    assert (res.avg, res.theta, res.branch, res.window, res.inf_later, res.ratio) \
        == (avg, theta, branch, window, inf_later, ratio)


def test_weak_harnack_remark_flag():
    field = _positive_field(4)
    res = cf.weak_harnack_probe(field, (0.0, 0.0), 0.0, 0.125)
    # recompute the doubled-window condition directly
    T = float(field.grid.times[-1])
    remark = res.s + 2.0 * 1.0 ** (field.p - 2.0) * res.avg ** (2.0 - field.p) \
        * 0.125 ** field.p < T
    assert res.remark_applies == remark


def test_weak_harnack_zero_inf_gives_infinite_ratio():
    vals = np.full((5, 81), 0.003)
    vals[2:, :] = 0.0            # the waiting window sees a zero
    field = synthetic_field(vals, TIMES5)
    res = cf.weak_harnack_probe(field, (0.0, 0.0), 0.0, 0.125)
    assert res.inf_later == 0.0
    assert math.isinf(res.ratio)


def test_weak_harnack_validation():
    field = _positive_field(5)
    with pytest.raises(ValueError, match="rho must be positive"):
        cf.weak_harnack_probe(field, (0.0, 0.0), 0.0, 0.0)
    for c in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            cf.weak_harnack_probe(field, (0.0, 0.0), 0.0, 0.125, harnack_c=c)
    with pytest.raises(ValueError, match="probe time must be finite"):
        cf.weak_harnack_probe(field, (0.0, 0.0), math.nan, 0.125)
    with pytest.raises(ValueError, match="leaves the computational box"):
        cf.weak_harnack_probe(field, (0.3, 0.0), 0.0, 0.125)
    with pytest.raises(ValueError, match="no room before the final time"):
        cf.weak_harnack_probe(field, (0.0, 0.0), 1.0, 0.125)
    neg = synthetic_field(np.full((5, 81), -1.0), TIMES5)
    with pytest.raises(ValueError, match="nonnegative"):
        cf.weak_harnack_probe(neg, (0.0, 0.0), 0.0, 0.125)
    zero = synthetic_field(np.zeros((5, 81)), TIMES5)
    with pytest.raises(ValueError, match="vanishes"):
        cf.weak_harnack_probe(zero, (0.0, 0.0), 0.0, 0.125)
    # the removed square [0, 0.25]^2 holds the one node of K_rho((0.125, 0.125))
    holed = synthetic_field(np.full((5, 81), 0.003), TIMES5,
                            domain=cf.DomainSpec.exterior_cube((0.0, 0.0), 0.125))
    with pytest.raises(ValueError, match="no interior nodes in the cube of half-edge 0.05"):
        cf.weak_harnack_probe(holed, (0.125, 0.125), 0.0, 0.05)


def test_spreading_validation():
    field = synthetic_field(np.full((5, 81), 0.2), TIMES5)
    for rho, k in ((0.0, 0.2), (0.125, 0.0), (math.nan, 0.2), (0.125, math.nan)):
        with pytest.raises(ValueError, match="rho and k must be positive"):
            cf.spreading_probe(field, (0.0, 0.0), rho, 0.0, k)
    with pytest.raises(ValueError, match="probe time must be finite"):
        cf.spreading_probe(field, (0.0, 0.0), 0.125, math.nan, 0.2)


def test_spreading_constant_field_caps_nu():
    field = synthetic_field(np.full((5, 81), 0.2), TIMES5)
    res = cf.spreading_probe(field, (0.0, 0.0), 0.125, 0.0, 0.2)
    assert res.fitted_nu == 1.0
    assert res.capped and res.holds
    assert all(nu == 1.0 for _, _, nu in res.samples)


def test_spreading_decaying_field_matches_formula():
    # spatially flat decay: the per-sample cap has a closed form
    k, rho = 0.2, 0.125
    g = np.array([1.0, 0.1, 0.05, 0.02, 0.01])
    vals = np.tile((k * g)[:, None], (1, 81))
    field = synthetic_field(vals, TIMES5)
    res = cf.spreading_probe(field, (0.0, 0.0), rho, 0.0, k)
    assert res.holds and not res.capped
    expect = []
    for t, gt in zip(TIMES5[1:], g[1:]):
        level = k * gt
        denom = k ** -1.0 * (2.0 * rho) ** 3 * ((2.0 * level / k) ** -1.0 - 1.0)
        expect.append((t - 0.0) / denom)
    got = [nu for _, _, nu in res.samples]
    assert got == pytest.approx(expect, abs=1e-15)
    assert res.fitted_nu == pytest.approx(min(min(expect), 1.0), abs=1e-15)


def test_spreading_zero_level_fails_bound():
    k = 0.2
    g = np.array([1.0, 0.4, 0.0, 0.0, 0.0])
    field = synthetic_field(np.tile((k * g)[:, None], (1, 81)), TIMES5)
    res = cf.spreading_probe(field, (0.0, 0.0), 0.125, 0.0, k)
    assert res.fitted_nu == 0.0
    assert not res.holds


def test_spreading_hypothesis_failure_names_node():
    vals = np.full((5, 81), 0.2)
    # node (0.125, 0.125) sits inside K_{2 rho}(0): flat index 5*9 + 5
    vals[0, 5 * 9 + 5] = 0.18
    field = synthetic_field(vals, TIMES5)
    with pytest.raises(ValueError, match=r"hypothesis fails.*0\.125"):
        cf.spreading_probe(field, (0.0, 0.0), 0.125, 0.0, 0.2)


def test_envelope_floor():
    env = cf.EnvelopeParams(1.0, 0.3, 0.5, 0.25, P3N2)
    expected = 0.3 + P3N2.constants.bar_gamma * 0.25 ** 0.5
    assert env.floor == pytest.approx(expected, abs=1e-15)
    flat = cf.make_params(3.0, 2, bar_gamma=0.0)
    assert cf.EnvelopeParams(1.0, 0.3, 0.5, 0.25, flat).floor == 0.3


def _constant_profile(depth=8, delta=0.25, R_o=1.0):
    return cf.CapacityProfile(R_o, 0.25, 3.0, [delta] * depth)


def _flat_env(omega_o=1.0, osc_g=0.0):
    params = cf.make_params(3.0, 2, bar_gamma=0.0)
    return cf.EnvelopeParams(omega_o, osc_g, 0.5, 1.0, params)


def test_regression_recovers_exponential_decay():
    # measurements osc = exp(-W(rho)) make the fit exactly y = -x
    prof = _constant_profile()
    env = _flat_env()
    radii = [0.5, 0.2, 0.1, 0.03, 0.01]
    meas = [(r, math.exp(-cf.wiener_integral(prof, r))) for r in radii]
    fit = cf.envelope_regression(meas, prof, env)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.correlation == pytest.approx(-1.0, abs=1e-12)
    assert abs(fit.intercept) <= 1e-12
    assert fit.n_used == 5
    assert not any(fit.dropped)


def test_regression_constant_measurements_flat():
    prof = _constant_profile()
    fit = cf.envelope_regression([(0.5, 0.4), (0.2, 0.4), (0.1, 0.4)], prof,
                                 _flat_env())
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.correlation == 0.0


def test_regression_slope_invariant_under_scaling():
    prof = _constant_profile()
    env = _flat_env()
    radii = [0.5, 0.2, 0.1, 0.05]
    meas = [(r, math.exp(-cf.wiener_integral(prof, r))) for r in radii]
    scaled = [(r, 3.0 * o) for r, o in meas]
    f1 = cf.envelope_regression(meas, prof, env)
    f2 = cf.envelope_regression(scaled, prof, env)
    assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
    assert f2.intercept == pytest.approx(f1.intercept + math.log(3.0), abs=1e-12)


def test_regression_drops_points_at_floor():
    env = _flat_env(osc_g=0.1)   # floor = 0.1
    prof = _constant_profile()
    meas = [(0.5, 0.5), (0.2, 0.3), (0.1, 0.2), (0.05, 0.1)]
    fit = cf.envelope_regression(meas, prof, env)
    assert fit.dropped == (False, False, False, True)
    assert fit.n_used == 3
    assert len(fit.envelope_ok) == 4


def test_regression_envelope_ok_flags():
    prof = _constant_profile()
    env = _flat_env()
    w = cf.wiener_integral(prof, 0.1)
    gamma = env.params.constants.gamma
    bound = math.exp(-gamma * w)
    meas = [(0.5, 0.01), (0.2, 0.01), (0.1, 2.0 * bound)]
    fit = cf.envelope_regression(meas, prof, env)
    assert fit.envelope_ok == (True, True, False)
    assert not all(fit.envelope_ok)


def test_regression_needs_three_points():
    prof = _constant_profile()
    with pytest.raises(ValueError, match="at least 3 radii"):
        cf.envelope_regression([(0.5, 1.0), (0.2, 0.5)], prof, _flat_env())
    env = _flat_env(osc_g=1.0)
    meas = [(0.5, 0.5), (0.2, 0.3), (0.1, 0.2)]   # all below the floor
    with pytest.raises(ValueError, match="above the floor"):
        cf.envelope_regression(meas, prof, env)
