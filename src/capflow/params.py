"""Structural parameters: exponent p, dimension N, and the named constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def smallest_lambda(p: float, gamma_2: float) -> int:
    """Smallest integer lam >= 1 with 2**(lam*p/(p-2) - 1) >= 3**(1/(p-2)) / (1 - 1/gamma_2)."""
    if not p > 2.0:
        raise ValueError(f"p must exceed 2, got {p}")
    if not gamma_2 > 1.0:
        raise ValueError(f"gamma_2 must exceed 1, got {gamma_2}")
    rhs = 3.0 ** (1.0 / (p - 2.0)) / (1.0 - 1.0 / gamma_2)
    lam = 1
    while 2.0 ** (lam * p / (p - 2.0) - 1.0) < rhs:
        lam += 1
        if lam > 64:
            raise ValueError("no lambda <= 64 satisfies the geometric-grid inequality; "
                             "parameters out of range")
    return lam


@dataclass(frozen=True)
class StructuralConstants:
    """The positive constants of the oscillation-decay machinery.

    The underlying estimates only assert that such constants exist, so the
    defaults here are an artifact convention; every report echoes the values
    actually used.  In derived mode gamma_star = gamma_1**(p-2),
    gamma_3 = 2*gamma_2*ln(1/c_bar), and gamma = 1/gamma_3, which makes the
    discrete-sum decay bound coincide with its integral form.
    """

    gamma: float        # envelope decay rate, in (0, 1)
    bar_gamma: float    # envelope tail coefficient, >= 0
    gamma_1: float      # average lower-bound constant, > 1
    gamma_2: float      # infimum lower-bound constant, > 1
    gamma_star: float   # intrinsic time-stretch factor, > 1
    gamma_3: float      # integral-form decay constant, > 1
    nu: float           # spreading-bound constant, in (0, 1)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.bar_gamma >= 0.0:
            # zero is allowed: it switches the envelope's depth tail off
            raise ValueError(f"bar_gamma must be nonnegative, got {self.bar_gamma}")
        for name in ("gamma_1", "gamma_2", "gamma_star", "gamma_3"):
            val = getattr(self, name)
            if not val > 1.0:
                raise ValueError(f"{name} must exceed 1, got {val}")
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")


@dataclass(frozen=True)
class StructureParams:
    """Exponent p > 2, dimension N in {1, 2}, and the structural constants."""

    p: float
    N: int
    constants: StructuralConstants

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 2.0):
            raise ValueError(f"p must be finite and exceed 2, got {self.p}")
        if self.N not in (1, 2):
            raise ValueError(f"N must be 1 or 2, got {self.N}")


# the constants a config may set: every field of StructuralConstants, in order
OVERRIDABLE_CONSTANTS = tuple(f.name for f in fields(StructuralConstants))


def make_params(p: float, N: int, **overrides: float) -> StructureParams:
    """Build StructureParams, deriving any constants not overridden.

    Defaults: gamma_1 = gamma_2 = 2, bar_gamma = 1, nu = 1/2,
    gamma_star = gamma_1**(p-2), gamma_3 = 2*gamma_2*ln(1/c_bar) with
    c_bar = 2**-smallest_lambda(p, gamma_2), and gamma = 1/gamma_3.
    """
    unknown = set(overrides) - set(OVERRIDABLE_CONSTANTS)
    if unknown:
        raise ValueError(f"unknown constant overrides: {sorted(unknown)}")
    p = float(p)
    gamma_1 = float(overrides.get("gamma_1", 2.0))
    gamma_2 = float(overrides.get("gamma_2", 2.0))
    lam = smallest_lambda(p, gamma_2)
    c_bar = 2.0 ** -lam
    gamma_star = float(overrides.get("gamma_star", gamma_1 ** (p - 2.0)))
    gamma_3 = float(overrides.get("gamma_3", 2.0 * gamma_2 * math.log(1.0 / c_bar)))
    gamma = float(overrides.get("gamma", 1.0 / gamma_3))
    constants = StructuralConstants(
        gamma=gamma,
        bar_gamma=float(overrides.get("bar_gamma", 1.0)),
        gamma_1=gamma_1,
        gamma_2=gamma_2,
        gamma_star=gamma_star,
        gamma_3=gamma_3,
        nu=float(overrides.get("nu", 0.5)),
    )
    return StructureParams(p=p, N=int(N), constants=constants)
