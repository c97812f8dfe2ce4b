from __future__ import annotations

import math

import pytest

import capflow as cf
from capflow.params import smallest_lambda


def _grid_inequality(lam: int, p: float, gamma_2: float) -> bool:
    # the defining condition of the geometric grid ratio
    return 2.0 ** (lam * p / (p - 2.0) - 1.0) >= 3.0 ** (1.0 / (p - 2.0)) / (1.0 - 1.0 / gamma_2)


def test_smallest_lambda_oracles():
    assert smallest_lambda(3.0, 2.0) == 2
    assert smallest_lambda(2.5, 2.0) == 2
    assert smallest_lambda(4.0, 1e6) == 1


def test_smallest_lambda_is_smallest():
    for p, g2 in [(3.0, 2.0), (2.5, 2.0), (4.0, 1e6), (2.1, 3.0), (5.0, 1.5)]:
        lam = smallest_lambda(p, g2)
        assert _grid_inequality(lam, p, g2)
        if lam > 1:
            assert not _grid_inequality(lam - 1, p, g2)


def test_smallest_lambda_validation():
    for p in (2.0, math.nan):
        with pytest.raises(ValueError, match="p must exceed 2"):
            smallest_lambda(p, 2.0)
    for gamma_2 in (1.0, math.nan):
        with pytest.raises(ValueError, match="gamma_2 must exceed 1"):
            smallest_lambda(3.0, gamma_2)


def test_default_constants_p3():
    params = cf.make_params(3.0, 2)
    c = params.constants
    assert c.gamma_1 == 2.0 and c.gamma_2 == 2.0
    assert c.gamma_star == 2.0          # gamma_1**(p-2)
    g3 = 4.0 * math.log(4.0)            # 2*gamma_2*ln(1/c_bar), c_bar = 1/4
    assert abs(c.gamma_3 - g3) < 1e-15
    assert abs(c.gamma - 1.0 / g3) < 1e-15
    assert c.bar_gamma == 1.0
    assert c.nu == 0.5


def test_overrides_honored():
    params = cf.make_params(3.0, 2, gamma=0.3, bar_gamma=0.0, nu=0.25)
    assert params.constants.gamma == 0.3
    assert params.constants.bar_gamma == 0.0
    assert params.constants.nu == 0.25
    # derived values follow an overridden gamma_1
    params = cf.make_params(4.0, 1, gamma_1=3.0)
    assert params.constants.gamma_star == 9.0


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown constant overrides"):
        cf.make_params(3.0, 2, gamma_9=1.0)


def test_constants_validation():
    with pytest.raises(ValueError, match="gamma must lie in"):
        cf.make_params(3.0, 2, gamma=1.5)
    for bar_gamma in (-0.1, math.nan):
        with pytest.raises(ValueError, match="bar_gamma must be nonnegative"):
            cf.make_params(3.0, 2, bar_gamma=bar_gamma)
    with pytest.raises(ValueError, match="nu must lie in"):
        cf.make_params(3.0, 2, nu=0.0)
    with pytest.raises(ValueError, match="gamma_2 must exceed 1"):
        cf.make_params(3.0, 2, gamma_2=0.9)


def test_structure_params_validation():
    with pytest.raises(ValueError, match="p must exceed 2"):
        cf.make_params(2.0, 2)
    with pytest.raises(ValueError, match="N must be 1 or 2"):
        cf.make_params(3.0, 3)


def test_overridable_tuple_matches_constants():
    params = cf.make_params(3.0, 2)
    for name in cf.OVERRIDABLE_CONSTANTS:
        assert hasattr(params.constants, name)
