"""Empirical verification instruments run against discrete solutions: a weak
Harnack ratio at intrinsic waiting times, a positivity-spreading fit, and
regression of measured oscillations against a capacity decay envelope
(`wiener.decay_envelope`, whose flat part is `EnvelopeParams.floor`).

Averages use compensated summation and infima are plain node scans, so an
exhaustive loop over the same nodes reproduces every number exactly.  Probes
report; they never certify a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Cube
from .pde import SpaceTimeField, in_window
from .wiener import CapacityProfile, EnvelopeParams, decay_envelope, line_fit, wiener_integral


@dataclass(frozen=True)
class HarnackProbeResult:
    """Outcome of one weak-Harnack measurement, inputs echoed for replay."""

    y: tuple[float, ...]
    rho: float
    s: float                    # sample time, snapped to the nearest step
    harnack_c: float
    avg: float                  # mean over K_rho(y) at time s
    theta: float                # waiting factor actually used
    branch: str                 # "intrinsic" | "horizon"
    window: tuple[float, float]
    inf_later: float            # min over K_{4 rho}(y) across the window
    ratio: float                # avg / inf_later; inf when inf_later == 0
    remark_applies: bool        # doubled intrinsic window fits before the horizon


@dataclass(frozen=True)
class SpreadingProbeResult:
    """Largest admissible waiting-time factor consistent with the samples."""

    y: tuple[float, ...]
    rho: float
    t_bar: float
    k: float
    samples: tuple[tuple[float, float, float], ...]   # (t, inf over K_rho, nu_t)
    fitted_nu: float
    holds: bool
    capped: bool


@dataclass(frozen=True)
class FitReport:
    """Log-linear fit of measured oscillations against the dyadic capacity
    integral, with per-radius envelope checks."""

    points: tuple[tuple[float, float], ...]   # (wiener integral, log(osc - floor))
    slope: float
    intercept: float
    correlation: float
    n_used: int
    dropped: tuple[bool, ...]                 # per input measurement
    envelope_ok: tuple[bool, ...]             # osc <= envelope at that radius


def _nearest_step(field: SpaceTimeField, t: float) -> int:
    """The step whose time is nearest t; row k of the field is step k."""
    if not math.isfinite(t):
        raise ValueError(f"probe time must be finite, got {t}")
    return int(np.argmin(np.abs(field.grid.times - t)))


def _require_inside_box(field: SpaceTimeField, y, margin: float) -> None:
    box = field.grid.box
    y = np.asarray(y, dtype=float)
    for k in range(len(box.center)):
        if abs(y[k] - box.center[k]) + margin > box.half_edge * (1.0 + 1e-12):
            raise ValueError(f"probe cube of half-edge {margin} at {tuple(y)} "
                             "leaves the computational box; shrink rho or move y")


def weak_harnack_probe(field: SpaceTimeField, y, s: float, rho: float,
                       harnack_c: float = 1.0) -> HarnackProbeResult:
    """Compare the K_rho(y) average at time s with the later infimum over
    K_{4 rho}(y).

    theta = min(c**(2-p) (T - s) / rho**p, avg**(2-p)); the infimum is taken
    over stored slices in [s + theta rho**p / 2, s + theta rho**p].  branch
    records which term set theta ("intrinsic": the average; "horizon": the
    remaining time).  remark_applies flags whether a doubled intrinsic window
    would still fit before the final time, the regime in which the intrinsic
    branch is guaranteed.  The ratio avg / inf_later is reported as is; no
    lower bound on it is asserted.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not harnack_c >= 1.0:
        raise ValueError(f"the comparison constant is at least 1, got {harnack_c}")
    p = field.p
    _require_inside_box(field, y, 4.0 * rho)
    T = float(field.grid.times[-1])

    row = _nearest_step(field, s)
    s_used = float(field.grid.times[row])
    if s_used >= T:
        raise ValueError(f"sample time {s_used} leaves no room before the final time {T}")
    mask_avg = field.grid.inside_nodes_in(Cube(y, rho))
    vals = field.values[row][mask_avg]
    if float(vals.min()) < 0.0:
        raise ValueError(f"probe requires nonnegative values; found {float(vals.min())} "
                         f"in K_rho at t={s_used}")
    avg = math.fsum(vals.tolist()) / int(mask_avg.sum())
    if avg <= 0.0:
        raise ValueError(f"average over K_rho at t={s_used} vanishes; the ratio "
                         "is undefined")

    horizon_term = harnack_c ** (2.0 - p) * (T - s_used) / rho ** p
    intrinsic_term = avg ** (2.0 - p)
    if intrinsic_term <= horizon_term:
        theta, branch = intrinsic_term, "intrinsic"
    else:
        theta, branch = horizon_term, "horizon"
    t_lo = s_used + 0.5 * theta * rho ** p
    t_hi = s_used + theta * rho ** p
    remark = s_used + 2.0 * harnack_c ** (p - 2.0) * avg ** (2.0 - p) * rho ** p < T

    rows = in_window(field.grid.times, t_lo, t_hi)
    if not np.any(rows):
        raise ValueError(f"no stored slices in the waiting window [{t_lo}, {t_hi}]; "
                         "shorten the time step")
    mask_wide = field.grid.inside_nodes_in(Cube(y, 4.0 * rho))
    window_vals = field.window(rows, mask_wide)
    if float(window_vals.min()) < 0.0:
        raise ValueError(f"probe requires nonnegative values; found "
                         f"{float(window_vals.min())} in K_4rho during the window")
    inf_later = float(window_vals.min())
    ratio = math.inf if inf_later == 0.0 else avg / inf_later
    return HarnackProbeResult(
        y=tuple(float(c) for c in np.atleast_1d(np.asarray(y, dtype=float))),
        rho=float(rho), s=s_used, harnack_c=float(harnack_c), avg=float(avg),
        theta=float(theta), branch=branch, window=(float(t_lo), float(t_hi)),
        inf_later=inf_later, ratio=float(ratio), remark_applies=bool(remark))


def spreading_probe(field: SpaceTimeField, y, rho: float, t_bar: float,
                    k: float) -> SpreadingProbeResult:
    """Fit the largest waiting-time factor nu in the spreading lower bound.

    Hypothesis, checked on the field: u(., t_bar) >= k on K_{2 rho}(y).  The
    bound asserts inf over K_rho(y) of u(., t) stays above
    (k/2) (1 + (t - t_bar) / (nu k**(2-p) (2 rho)**p))**(1/(2-p)); the right
    side grows with nu, so each sample, one per stored step after the step
    nearest t_bar, caps nu and the fit is the minimum.  Samples still at or
    above k/2 are consistent with any nu and enter as 1.
    """
    if not rho > 0.0 or not k > 0.0:
        raise ValueError("rho and k must be positive")
    p = field.p
    _require_inside_box(field, y, 2.0 * rho)
    row0 = _nearest_step(field, t_bar)
    t_used = float(field.grid.times[row0])
    mask_hyp = field.grid.inside_nodes_in(Cube(y, 2.0 * rho))
    base = field.values[row0][mask_hyp]
    if float(base.min()) < k * (1.0 - 1e-12):
        pts = field.grid.node_points()[mask_hyp]
        bad = int(np.argmin(base))
        raise ValueError(
            f"spreading hypothesis fails: u={float(base[bad])} < k={k} at node "
            f"{tuple(float(c) for c in pts[bad])}, t={t_used}")

    times = field.grid.times
    sample_rows = [i for i in range(len(times)) if times[i] > t_used]
    if not sample_rows:
        raise ValueError(f"no stored slices after t_bar={t_used}")

    mask_small = field.grid.inside_nodes_in(Cube(y, rho))
    samples = []
    nus = []
    for i in sample_rows:
        t = float(times[i])
        level = float(field.values[i][mask_small].min())
        if level >= 0.5 * k:
            nu_t = 1.0
        elif level <= 0.0:
            nu_t = 0.0
        else:
            denom = k ** (2.0 - p) * (2.0 * rho) ** p * ((2.0 * level / k) ** (2.0 - p) - 1.0)
            nu_t = (t - t_used) / denom
        samples.append((t, level, float(nu_t)))
        nus.append(float(nu_t))
    fitted = min(nus)
    return SpreadingProbeResult(
        y=tuple(float(c) for c in np.atleast_1d(np.asarray(y, dtype=float))),
        rho=float(rho), t_bar=t_used, k=float(k), samples=tuple(samples),
        fitted_nu=float(min(fitted, 1.0)), holds=bool(fitted > 0.0),
        capped=bool(fitted >= 1.0))


def envelope_regression(measurements, profile: CapacityProfile,
                        env: EnvelopeParams) -> FitReport:
    """Regress log(osc - floor) against the dyadic capacity integral W(rho).

    measurements: iterable of (rho, osc) with rho < R_o.  The floor is the
    envelope's flat part, `env.floor`; subtracting it isolates the exponential
    factor, whose log is -gamma * W(rho) up to an intercept, so the slope is
    an empirical -gamma.  Measurements at or below the floor cannot enter the
    fit and are flagged dropped; their check against `decay_envelope` still
    runs.
    """
    pairs = [(float(r), float(o)) for r, o in measurements]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 radii, got {len(pairs)}")
    floor = env.floor
    points = []
    dropped = []
    ok = []
    for rho, osc in pairs:
        ok.append(bool(osc <= decay_envelope(env, profile, rho) * (1.0 + 1e-12)))
        excess = osc - floor
        dropped.append(bool(excess <= 0.0))
        if not dropped[-1]:
            points.append((wiener_integral(profile, rho), math.log(excess)))
    xs = [w for w, _ in points]
    ys = [y for _, y in points]
    if len(xs) < 3:
        raise ValueError(f"need at least 3 measurements above the floor {floor} "
                         f"for a fit, got {len(xs)}")
    slope, intercept, corr = line_fit(xs, ys)
    return FitReport(points=tuple(points), slope=slope, intercept=intercept, correlation=corr,
                     n_used=len(xs), dropped=tuple(dropped), envelope_ok=tuple(ok))
