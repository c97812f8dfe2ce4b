from __future__ import annotations

import math

import numpy as np
import pytest

import capflow as cf
from capflow import capacity, wiener
from capflow.capacity import SolverConfig
from capflow.geometry import DomainSpec


P3N2 = cf.make_params(3.0, 2)
P3N1 = cf.make_params(3.0, 1)


def _profile(deltas, R_o=1.0, c_bar=0.25, p=3.0):
    return cf.CapacityProfile(R_o, c_bar, p, deltas)


def test_choose_c_bar_oracles():
    assert cf.choose_c_bar(P3N2) == (2, 0.25)
    assert cf.choose_c_bar(cf.make_params(4.0, 2, gamma_2=1e6)) == (1, 0.5)


def test_profile_computes_radii_and_A():
    prof = _profile([0.25, 1.0, 0.0])
    assert prof.depth == 3
    assert np.allclose(prof.radii, [1.0, 0.25, 0.0625])
    assert prof.A.tolist() == [0.5, 1.0, 0.0]   # delta**(1/(p-1)), p = 3


def test_profile_validation():
    with pytest.raises(ValueError):
        _profile([1.5])                         # delta beyond 1
    with pytest.raises(ValueError):
        _profile([-0.1])
    with pytest.raises(ValueError):
        cf.CapacityProfile(1.0, 1.5, 3.0, ())   # c_bar outside (0, 1)


def test_wiener_sum():
    prof = _profile([0.25, 0.25, 0.25])
    ln4 = math.log(4.0)
    assert wiener.wiener_sum(prof, 0, 0) == pytest.approx(0.5 * ln4, abs=1e-15)
    assert wiener.wiener_sum(prof, 0, 2) == pytest.approx(1.5 * ln4, abs=1e-15)
    assert wiener.wiener_sum(prof, 2, 1) == 0.0
    with pytest.raises(ValueError, match="outside profile depth"):
        wiener.wiener_sum(prof, 0, 3)


def test_wiener_integral_constant_delta_is_exact():
    # constant A makes the quadrature exact: W(rho) = A * ln(R_o / rho)
    prof = _profile([0.25] * 8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = float(rng.uniform(prof.radii[-1], 1.0))
        w = wiener.wiener_integral(prof, rho)
        assert abs(w - 0.5 * math.log(1.0 / rho)) <= 1e-13


def test_wiener_integral_matches_sum_at_grid_radii():
    prof = _profile([0.9, 0.4, 0.2, 0.7])
    for m in range(1, prof.depth):
        w = wiener.wiener_integral(prof, float(prof.radii[m]))
        assert w == pytest.approx(wiener.wiener_sum(prof, 0, m - 1), abs=1e-15)
    assert wiener.wiener_integral(prof, 1.0) == 0.0


def test_wiener_integral_range_errors():
    prof = _profile([0.5, 0.5])
    with pytest.raises(ValueError, match="exceeds R_o"):
        wiener.wiener_integral(prof, 1.1)
    with pytest.raises(ValueError, match="below the profile"):
        wiener.wiener_integral(prof, 0.01)


def test_is_wiener_point_classification():
    flat = _profile([0.3] * 8)
    assert cf.is_wiener_point(flat).verdict == "diverging"
    decaying = _profile([0.9 * 0.3 ** i for i in range(8)])
    assert cf.is_wiener_point(decaying).verdict == "converging"
    dead = _profile([0.5, 0.5, 0.5, 0.0, 0.0])
    diag = cf.is_wiener_point(dead)
    assert diag.verdict == "converging" and diag.tail_slope == -math.inf
    with pytest.raises(ValueError, match="depth >= 4"):
        cf.is_wiener_point(_profile([0.5] * 3))


def test_realize_R_o_epsilon_closed_form():
    # delta == 1 kills the delta factor: need 3 gamma_star R**(p-eps) <= t_o;
    # p=3, gamma_star=2, eps=0.5 -> 6 R**2.5, first dyadic hit below 0.2 is 1/4
    r_o = wiener.realize_R_o_epsilon(0.2, P3N2, 0.5, lambda radii: [1.0] * len(radii))
    assert r_o == 0.25


def test_realize_R_o_epsilon_exhausted():
    with pytest.raises(ValueError, match="decrease epsilon, increase t_o"):
        wiener.realize_R_o_epsilon(1e-30, P3N2, 0.5, lambda radii: [1.0] * len(radii),
                                   max_halvings=5)
    # zero-delta radii are skipped rather than accepted
    with pytest.raises(ValueError, match="no admissible R_o"):
        wiener.realize_R_o_epsilon(0.2, P3N2, 0.5, lambda radii: [0.0] * len(radii),
                                   max_halvings=5)


def test_build_subsequence_constant_A_takes_every_index():
    prof = _profile([0.25] * 6)
    sub = cf.build_subsequence(prof, P3N2)
    assert sub.indices == (0, 1, 2, 3, 4, 5)
    assert not sub.truncated


def test_build_subsequence_halving_A_truncates_immediately():
    # A_i = 2**-i: the ratio A_i / A_0 equals the threshold, never exceeds it
    deltas = [(0.5 ** i) ** 2 for i in range(6)]   # delta = A**2 for p = 3
    sub = cf.build_subsequence(_profile(deltas), P3N2)
    assert sub.indices == (0,)
    assert sub.truncated


def test_build_subsequence_skips_weak_middle():
    # from i=0: A_1/A_0 = 0.1 <= 1/2 fails, A_2/A_0 = 1 > 1/4 passes
    deltas = [1.0, 0.01, 1.0, 1.0]
    sub = cf.build_subsequence(_profile(deltas), P3N2)
    assert sub.indices[:2] == (0, 2)


def test_build_subsequence_rejects_vanishing_A():
    with pytest.raises(ValueError, match="divergence hypothesis fails"):
        cf.build_subsequence(_profile([0.5, 0.0, 0.5]), P3N2)


def test_cascade_closed_form_delta_one():
    # delta == 1 so A == 1 everywhere; with gamma_2 = 2 each shave halves mu,
    # every index joins the subsequence, and theta_j = mu_j**(2-p) = 2**j
    prof = _profile([1.0] * 5, R_o=0.5)
    rep = cf.oscillation_cascade(1.0, prof, P3N2, 0.5)
    assert rep.branch == "cascade"
    assert rep.subsequence == (0, 1, 2, 3, 4)
    assert not rep.truncated
    assert rep.mu_seq == tuple(0.5 ** j for j in range(6))
    assert rep.theta_seq == tuple(2.0 ** j for j in range(5))
    for j, cyl in enumerate(rep.cylinders):
        rho_j = 0.5 * 0.25 ** j
        assert cyl.spatial_half_edge == 2.0 * rho_j
        assert cyl.time_depth == 2.0 * 2.0 ** j * rho_j ** 3
    assert all(rep.nesting_ok) and all(rep.sub_bd_ok)
    # per-radius envelope is the mu value after all shaves above that scale
    assert [b for _, b in rep.envelope_at] == [0.5 ** i for i in range(5)]


def test_cascade_power_law_branch():
    prof = _profile([1.0] * 4, R_o=0.5)
    rep = cf.oscillation_cascade(1e-6, prof, P3N2, 0.5)
    assert rep.branch == "power_law"
    assert rep.power_law_bound == pytest.approx(0.5 ** 0.5, abs=1e-15)
    assert rep.subsequence == ()
    assert [b for _, b in rep.envelope_at] == [1e-6] * 4


def test_cascade_inequalities_recomputed_seeded():
    # the report's nesting and prefix-bound flags must match a from-scratch
    # evaluation of the inequalities at 1e-12
    rng = np.random.default_rng(17)
    for _ in range(25):
        deltas = rng.uniform(0.05, 1.0, size=12)
        prof = _profile(list(deltas), R_o=0.5)
        rep = cf.oscillation_cascade(1.0, prof, P3N2, 0.5)
        assert rep.branch == "cascade"
        a = prof.A
        radii = prof.radii
        idx = rep.subsequence
        mu = rep.mu_seq
        for j in range(len(idx) - 1):
            lhs = 3.0 * (mu[j + 1] * a[idx[j + 1]]) ** -1.0 * radii[idx[j + 1]] ** 3
            rhs = (mu[j] * a[idx[j]]) ** -1.0 * radii[idx[j]] ** 3
            assert lhs <= rhs * (1.0 + 1e-12)
            assert rep.nesting_ok[j]
        for k in range(len(idx) - 1):
            assert float(a[:idx[k + 1]].sum()) <= \
                2.0 * float(sum(a[idx[j]] for j in range(k + 1))) * (1.0 + 1e-12)
            assert rep.sub_bd_ok[k]


def test_cascade_validation():
    prof = _profile([0.5] * 4)
    with pytest.raises(ValueError, match="mu_o must be positive"):
        cf.oscillation_cascade(0.0, prof, P3N2, 0.5)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        cf.oscillation_cascade(1.0, prof, P3N2, 1.0)


def test_cascade_to_dict_roundtrips_keys():
    rep = cf.oscillation_cascade(1.0, _profile([0.5] * 4, R_o=0.5), P3N2, 0.5)
    d = rep.to_dict()
    for key in ("branch", "mu_seq", "cylinders", "nesting_ok", "sub_bd_ok",
                "envelope_at", "subsequence", "truncated"):
        assert key in d


def test_decay_envelope_value_and_errors():
    prof = _profile([0.25] * 6)
    env = cf.EnvelopeParams(2.0, 0.1, 0.5, 1.0, P3N2)
    rho = 0.1
    w = wiener.wiener_integral(prof, rho)
    c = P3N2.constants
    expected = 2.0 * math.exp(-c.gamma * w) + 0.1 + c.bar_gamma * 1.0 ** 0.5
    assert cf.decay_envelope(env, prof, rho) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError, match="does not match profile"):
        cf.decay_envelope(cf.EnvelopeParams(2.0, 0.1, 0.5, 2.0, P3N2), prof, rho)
    with pytest.raises(ValueError, match="below R_o"):
        cf.decay_envelope(env, prof, 1.0)
    with pytest.raises(ValueError, match="rho must be positive"):
        cf.decay_envelope(env, prof, 0.0)


def test_decay_envelope_power_law_specialization():
    # constant delta = gamma_o with no datum or tail term: the envelope is a
    # pure power law with exponent gamma * gamma_o**(1/(p-1))
    params = cf.make_params(3.0, 2, bar_gamma=0.0)
    gamma_o = 0.25
    prof = cf.CapacityProfile(1.0, 0.25, 3.0, [gamma_o] * 12)
    env = cf.EnvelopeParams(1.0, 0.0, 0.5, 1.0, params)
    alpha = cf.holder_exponent(gamma_o, params)
    rhos = np.geomspace(prof.radii[-1], 0.9, 25)
    logs = np.array([math.log(cf.decay_envelope(env, prof, float(r))) for r in rhos])
    assert np.max(np.abs(logs - alpha * np.log(rhos))) <= 1e-12


def test_holder_exponent():
    assert cf.holder_exponent(0.25, P3N2) == pytest.approx(
        P3N2.constants.gamma * 0.5, abs=1e-15)
    with pytest.raises(ValueError, match="gamma_o must lie in"):
        cf.holder_exponent(0.0, P3N2)
    with pytest.raises(ValueError, match="gamma_o must lie in"):
        cf.holder_exponent(1.1, P3N2)


def test_envelope_params_validation():
    with pytest.raises(ValueError, match="omega_o must be positive"):
        cf.EnvelopeParams(0.0, 0.0, 0.5, 1.0, P3N2)
    with pytest.raises(ValueError, match="osc_g must be nonnegative"):
        cf.EnvelopeParams(1.0, -0.1, 0.5, 1.0, P3N2)
    with pytest.raises(ValueError, match="epsilon must lie in"):
        cf.EnvelopeParams(1.0, 0.0, 0.0, 1.0, P3N2)


def test_build_profile_halfspace_and_workers():
    # delta for the 1D half space is scale free (5/9 at p=3), so the profile
    # is constant; the threaded build must agree with the sequential one
    dom = DomainSpec.half_space((0.0,))
    cfg = SolverConfig(nodes_across=17)
    seq, par = (cf.build_profile(dom, (0.0,), 0.5, 0.25, 3, P3N1,
                                 capacity.DeltaMemo(dom, (0.0,), P3N1, cfg, workers))
                for workers in (1, 3))
    assert seq.deltas.tolist() == par.deltas.tolist()
    assert np.allclose(seq.deltas, 5.0 / 9.0, atol=1e-12)


def test_build_profile_validation():
    dom = DomainSpec.half_space((0.0,))

    def unused(radii):
        raise AssertionError("delta_fn called on invalid input")

    with pytest.raises(ValueError, match="lies inside E"):
        cf.build_profile(dom, (-1.0,), 0.5, 0.25, 2, P3N1, unused)
    with pytest.raises(ValueError, match="depth must be positive"):
        cf.build_profile(dom, (0.0,), 0.5, 0.25, 0, P3N1, unused)
    with pytest.raises(ValueError, match="c_bar must lie in"):
        cf.build_profile(dom, (0.0,), 0.5, 1.0, 2, P3N1, unused)


def test_build_profile_2d_is_independent_of_workers_and_exact():
    # each distinct mask, the full cube's included, is one unit-lattice solve
    # fanned out with the others and the deltas are assembled by index, so
    # the threaded build is bitwise the sequential one; at dyadic radii and
    # p = 3 both are bitwise the per-radius direct solves
    dom = DomainSpec.exterior_cube((0.0, 0.0), 0.5)
    cfg = SolverConfig(nodes_across=17)
    x_o = (0.0, 0.0)
    seq, par = (cf.build_profile(dom, x_o, 0.25, 0.5, 3, P3N2,
                                 capacity.DeltaMemo(dom, x_o, P3N2, cfg, workers))
                for workers in (1, 2))
    assert seq.deltas.tolist() == par.deltas.tolist()
    direct = [capacity.DeltaMemo(dom, x_o, P3N2, cfg)([rho])[0] for rho in seq.radii]
    assert seq.deltas.tolist() == direct
    assert all(0.0 < d < 1.0 for d in direct)


def test_build_profile_uses_delta_fn():
    seen = []

    def fake(radii):
        seen.append(list(radii))
        return [0.25] * len(radii)

    prof = cf.build_profile(DomainSpec.half_space((0.0,)), (0.0,), 0.5, 0.25, 3, P3N1, fake)
    assert seen == [[0.5, 0.5 * 0.25, 0.5 * 0.25 ** 2]]
    assert prof.deltas.tolist() == [0.25] * 3
