"""Capacity profiles on geometric radius grids and the oscillation-decay
machinery built on them: Wiener sums, the backward-window depth, working-
subsequence selection, the intrinsic-cylinder cascade, and decay envelopes.

Radii live on the geometric grid rho_i = c_bar**i * R_o; a profile stores only
its delta_i and derives rho_i and A_i = delta_i**(1/(p-1)).  The quadrature
ln(1/c_bar) * sum A_i is the left-endpoint discretization of the dyadic
integral of A(s) ds/s, exact for constant A.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import DomainSpec, contains
from .params import StructureParams, smallest_lambda


@dataclass(frozen=True, eq=False)
class CapacityProfile:
    """Relative capacities delta_i on rho_i = c_bar**i * R_o, with their roots
    A_i = delta_i**(1/(p-1)).  `deltas` is stored as a read-only array."""

    R_o: float
    c_bar: float
    p: float
    deltas: np.ndarray

    def __post_init__(self):
        deltas = np.array(self.deltas, dtype=float)
        deltas.flags.writeable = False
        object.__setattr__(self, "deltas", deltas)
        if not 0.0 < self.R_o < math.inf:
            raise ValueError(f"R_o must be positive and finite, got {self.R_o}")
        if not 0.0 < self.c_bar < 1.0:
            raise ValueError(f"c_bar must lie in (0, 1), got {self.c_bar}")
        if not self.p > 2.0:
            raise ValueError(f"p must exceed 2, got {self.p}")
        if not len(deltas):
            raise ValueError("profile needs at least one delta")
        for i, d in enumerate(deltas.tolist()):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"delta_{i} = {d} lies outside [0, 1]")

    @property
    def depth(self) -> int:
        return len(self.deltas)

    @property
    def radii(self) -> np.ndarray:
        return np.array([self.c_bar ** i * self.R_o for i in range(self.depth)])

    @property
    def A(self) -> np.ndarray:
        return np.array([d ** (1.0 / (self.p - 1.0)) for d in self.deltas.tolist()])


@dataclass(frozen=True)
class SubsequenceResult:
    indices: tuple[int, ...]
    truncated: bool


@dataclass(frozen=True)
class Cylinder:
    spatial_half_edge: float   # 2 * rho_{i_j}
    time_depth: float          # gamma_star * theta_bar_{i_j} * rho_{i_j}**p


@dataclass(frozen=True)
class WienerDiagnostic:
    verdict: str               # "diverging" | "converging" | "inconclusive"
    tail_slope: float
    window: tuple[int, int]
    note: str


@dataclass(frozen=True)
class EnvelopeParams:
    """Inputs of the closed-form decay envelope at a boundary point."""

    omega_o: float
    osc_g: float
    epsilon: float
    R_o: float
    params: StructureParams

    def __post_init__(self):
        if not self.omega_o > 0.0:
            raise ValueError(f"omega_o must be positive, got {self.omega_o}")
        if not self.osc_g >= 0.0:
            raise ValueError(f"osc_g must be nonnegative, got {self.osc_g}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.R_o > 0.0:
            raise ValueError(f"R_o must be positive, got {self.R_o}")

    @property
    def floor(self) -> float:
        """Flat part of the envelope: osc_g plus the tail bar_gamma R_o**(eps/(p-2))."""
        c = self.params.constants
        return self.osc_g + c.bar_gamma * self.R_o ** (self.epsilon / (self.params.p - 2.0))


@dataclass(frozen=True)
class CascadeReport:
    """Outcome of the intrinsic-cylinder cascade over a capacity profile."""

    branch: str                         # "cascade" | "power_law"
    mu_o: float
    epsilon: float
    c_bar: float
    lam: int | None                     # lambda with c_bar = 2**-lambda, if integral
    subsequence: tuple[int, ...]
    truncated: bool
    mu_seq: tuple[float, ...]
    theta_seq: tuple[float, ...]
    cylinders: tuple[Cylinder, ...]
    nesting_ok: tuple[bool, ...]        # consecutive-cylinder inequality checks
    sub_bd_ok: tuple[bool, ...]         # prefix-sum inequality checks
    envelope_at: tuple[tuple[float, float], ...]   # (rho_i, mu bound)
    power_law_bound: float | None

    def to_dict(self) -> dict:
        """The fields by name, `lam` as "lambda" and each envelope pair as
        {"rho", "bound"}; tuples stay tuples."""
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        out["envelope_at"] = [{"rho": r, "bound": b} for r, b in self.envelope_at]
        return out


def grid_lambda(c_bar: float) -> int | None:
    """lambda with c_bar = 2**-lambda, or None when it is not an integer."""
    lam = -math.log2(c_bar)
    return round(lam) if abs(lam - round(lam)) < 1e-12 else None


def choose_c_bar(params: StructureParams) -> tuple[int, float]:
    """Grid ratio c_bar = 2**-lambda with the smallest admissible lambda."""
    lam = smallest_lambda(params.p, params.constants.gamma_2)
    return lam, 2.0 ** -lam


def build_profile(domain: DomainSpec, x_o, R_o: float, c_bar: float, depth: int,
                  params: StructureParams, delta_fn) -> CapacityProfile:
    """Relative capacities of K_rho(x_o) \\ E down the geometric radius grid.

    `delta_fn(radii) -> deltas`, such as a `capacity.DeltaMemo` at x_o,
    computes them, all radii in one call.  `domain` and `x_o` are read only
    to check that x_o is a boundary point.
    """
    if contains(domain, x_o):
        raise ValueError(f"x_o {tuple(x_o)} lies inside E; profiles are built at "
                         "boundary points")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if not 0.0 < c_bar < 1.0:
        raise ValueError(f"c_bar must lie in (0, 1), got {c_bar}")
    return CapacityProfile(R_o, c_bar, params.p,
                           delta_fn([c_bar ** i * R_o for i in range(depth)]))


def wiener_sum(profile: CapacityProfile, i_lo: int, i_hi: int) -> float:
    """Quadrature ln(1/c_bar) * sum_{i=i_lo}^{i_hi} A_i; 0 for an empty range."""
    if i_lo > i_hi:
        return 0.0
    if i_lo < 0 or i_hi >= profile.depth:
        raise ValueError(f"index range [{i_lo}, {i_hi}] outside profile depth {profile.depth}")
    return math.log(1.0 / profile.c_bar) * float(profile.A[i_lo:i_hi + 1].sum())


def wiener_integral(profile: CapacityProfile, rho: float) -> float:
    """Discretized integral of A(s) ds/s from rho up to R_o.

    Piecewise constant A on the geometric grid: full intervals contribute
    A_i * ln(1/c_bar), the partial one A_m * ln(rho_m / rho).  Exact for
    constant A at every rho, and equal to wiener_sum(profile, 0, m-1) at the
    grid radius rho_m.
    """
    radii = profile.radii
    if not rho <= profile.R_o * (1.0 + 1e-12):
        raise ValueError(f"rho {rho} exceeds R_o {profile.R_o}")
    if rho < radii[-1] * (1.0 - 1e-12):
        raise ValueError(f"rho {rho} is below the profile's last radius {radii[-1]}; "
                         "deepen the profile")
    rho = min(rho, profile.R_o)
    a_vals = profile.A
    # the radii fall, so those at or above rho are the first m + 1
    m = int(np.count_nonzero(radii >= rho * (1.0 - 1e-12))) - 1
    total = math.log(1.0 / profile.c_bar) * float(a_vals[:m].sum())
    total += float(a_vals[m]) * math.log(max(radii[m] / rho, 1.0))
    return total


_TAIL_WINDOW = 8    # profile indices is_wiener_point fits


def line_fit(xs, ys) -> tuple[float, float, float]:
    """(slope, intercept, correlation) of the least-squares line through the
    points (xs, ys); the correlation is 0 when either coordinate's standard
    deviation is below 1e-300."""
    slope, intercept = np.polyfit(xs, ys, 1)
    flat = float(np.std(xs)) < 1e-300 or float(np.std(ys)) < 1e-300
    corr = 0.0 if flat else float(np.corrcoef(xs, ys)[0, 1])
    return float(slope), float(intercept), corr


def is_wiener_point(profile: CapacityProfile) -> WienerDiagnostic:
    """Finite-sample divergence heuristic: fit log A_i against i over the last
    `_TAIL_WINDOW` indices, or the whole profile when it is shorter.

    A near-zero slope means A is bounded below, so the Wiener sum diverges;
    a clearly negative slope with a credible fit means geometric decay and a
    convergent sum.  This is a heuristic classification of a truncated
    profile, not a certificate.
    """
    if profile.depth < 4:
        raise ValueError(f"need depth >= 4 to classify, got {profile.depth}")
    w = min(_TAIL_WINDOW, profile.depth)
    lo = profile.depth - w
    tail = profile.A[lo:]
    window = (lo, profile.depth - 1)
    note = "finite-sample heuristic; not a certificate"
    if np.any(tail <= 0.0):
        return WienerDiagnostic("converging", -math.inf, window, note)
    slope, _, corr = line_fit(np.arange(lo, profile.depth, dtype=float), np.log(tail))
    slope_tol = 0.05
    if slope >= -slope_tol:
        return WienerDiagnostic("diverging", slope, window, note)
    if corr <= -0.7:
        return WienerDiagnostic("converging", slope, window, note)
    return WienerDiagnostic("inconclusive", slope, window, note)


def window_depth(params: StructureParams, delta: float, R_o: float,
                 epsilon: float) -> float:
    """Depth 3 gamma_star delta**((2-p)/(p-1)) R_o**(p-epsilon) of the backward
    cylinder on which the envelope at scale R_o holds; infinite at delta = 0."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta(R_o) must lie in [0, 1], got {delta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if delta == 0.0:
        return math.inf
    p = params.p
    return (3.0 * params.constants.gamma_star * delta ** ((2.0 - p) / (p - 1.0))
            * R_o ** (p - epsilon))


def realize_R_o_epsilon(t_o: float, params: StructureParams, epsilon: float, delta_fn,
                        r_max: float = 1.0, max_halvings: int = 20) -> float:
    """Largest dyadic R_o whose `window_depth` at epsilon is at most t_o.

    Scans R = r_max, r_max/2, ... downward and returns the first admissible
    radius, so the result is the largest admissible one on the dyadic grid.
    `delta_fn(radii) -> deltas` computes delta, one radius at a time.
    """
    if not t_o > 0.0:
        raise ValueError(f"t_o must be positive, got {t_o}")
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if max_halvings < 0:
        raise ValueError(f"max_halvings must be nonnegative, got {max_halvings}")
    for k in range(max_halvings + 1):
        radius = r_max * 2.0 ** -k
        if window_depth(params, float(delta_fn([radius])[0]), radius, epsilon) <= t_o:
            return radius
    raise ValueError(
        f"no admissible R_o in [{r_max * 2.0 ** -max_halvings}, {r_max}] for t_o={t_o}, "
        f"epsilon={epsilon}; decrease epsilon, increase t_o, or extend the search range")


def build_subsequence(profile: CapacityProfile) -> SubsequenceResult:
    """Working subsequence i_0 = 0 < i_1 < ... with A_{i_{j+1}} / A_{i_j} > 2**-(i_{j+1} - i_j).

    Each i_{j+1} is the smallest admissible successor.  When no admissible
    successor exists before the profile ends, the result is flagged truncated.
    """
    a_vals = profile.A
    if np.any(a_vals <= 0.0):
        bad = int(np.argmax(a_vals <= 0.0))
        raise ValueError(f"A must be positive everywhere (index {bad} has A={a_vals[bad]}); "
                         "the divergence hypothesis fails")
    indices = [0]
    while True:
        i_j = indices[-1]
        nxt = None
        for i in range(i_j + 1, profile.depth):
            if a_vals[i] / a_vals[i_j] > 0.5 ** (i - i_j):
                nxt = i
                break
        if nxt is None:
            break
        indices.append(nxt)
    # the loop only stops when no admissible successor exists, so any leftover
    # depth means the selection was cut short
    truncated = indices[-1] < profile.depth - 1
    return SubsequenceResult(tuple(indices), truncated)


def oscillation_cascade(mu_o: float, profile: CapacityProfile, params: StructureParams,
                        epsilon: float) -> CascadeReport:
    """Run the intrinsic-cylinder reduction over the profile's working subsequence.

    Starting from mu at scale R_o, each selected radius shaves the bound by the
    factor 1 - A(rho_{i_j}) / gamma_2 and shrinks the intrinsic cylinder
    K_{2 rho_{i_j}} x (t_o - gamma_star * theta_bar * rho_{i_j}**p, t_o] with
    theta_bar = (mu A)**(2-p).  The report records the mu sequence, the
    cylinders, and exact checks of the consecutive-nesting and prefix-sum
    inequalities the construction guarantees.

    If mu_o**(2-p) R_o**p > R_o**(p-eps), the starting bound already sits below
    the power-law tail R_o**(eps/(p-2)) and the report short-circuits with the
    power_law branch.
    """
    if not mu_o > 0.0:
        raise ValueError(f"mu_o must be positive, got {mu_o}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    p = params.p
    g2 = params.constants.gamma_2
    g_star = params.constants.gamma_star
    r_o = profile.R_o
    lam = grid_lambda(profile.c_bar)

    if mu_o ** (2.0 - p) * r_o ** p > r_o ** (p - epsilon):
        bound = r_o ** (epsilon / (p - 2.0))
        rows = tuple((float(r), float(min(mu_o, bound))) for r in profile.radii)
        return CascadeReport(
            branch="power_law", mu_o=mu_o, epsilon=epsilon, c_bar=profile.c_bar,
            lam=lam, subsequence=(), truncated=False, mu_seq=(mu_o,), theta_seq=(),
            cylinders=(), nesting_ok=(), sub_bd_ok=(), envelope_at=rows,
            power_law_bound=float(bound))

    sub = build_subsequence(profile)
    a_vals = profile.A
    radii = profile.radii
    mu_seq = [float(mu_o)]
    theta_seq = []
    cylinders = []
    for j, i_j in enumerate(sub.indices):
        a_j = float(a_vals[i_j])
        if a_j >= g2:
            raise ValueError(f"A(rho_{i_j}) = {a_j} >= gamma_2 = {g2}; the shaving "
                             "factor would not be positive")
        mu_j = mu_seq[-1]
        theta = (mu_j * a_j) ** (2.0 - p)
        theta_seq.append(float(theta))
        cylinders.append(Cylinder(spatial_half_edge=float(2.0 * radii[i_j]),
                                  time_depth=float(g_star * theta * radii[i_j] ** p)))
        mu_seq.append(mu_j * (1.0 - a_j / g2))

    tol = 1e-12
    nesting = []
    for j in range(len(sub.indices) - 1):
        i_j, i_n = sub.indices[j], sub.indices[j + 1]
        lhs = 3.0 * (mu_seq[j + 1] * a_vals[i_n]) ** (2.0 - p) * radii[i_n] ** p
        rhs = (mu_seq[j] * a_vals[i_j]) ** (2.0 - p) * radii[i_j] ** p
        nesting.append(bool(lhs <= rhs * (1.0 + tol)))
    sub_bd = []
    for k in range(len(sub.indices) - 1):
        i_next = sub.indices[k + 1]
        lhs = float(a_vals[:i_next].sum())
        rhs = 2.0 * float(a_vals[[sub.indices[j] for j in range(k + 1)]].sum())
        sub_bd.append(bool(lhs <= rhs * (1.0 + tol)))

    # row i carries the bound after the shaves at the selected indices below i
    rows = [(float(radii[i]), float(mu_seq[bisect_left(sub.indices, i)]))
            for i in range(profile.depth)]

    return CascadeReport(
        branch="cascade", mu_o=float(mu_o), epsilon=float(epsilon), c_bar=profile.c_bar,
        lam=lam, subsequence=sub.indices, truncated=sub.truncated,
        mu_seq=tuple(float(m) for m in mu_seq), theta_seq=tuple(theta_seq),
        cylinders=tuple(cylinders), nesting_ok=tuple(nesting), sub_bd_ok=tuple(sub_bd),
        envelope_at=tuple(rows), power_law_bound=None)


def decay_envelope(env: EnvelopeParams, profile: CapacityProfile, rho: float) -> float:
    """Closed-form oscillation bound at radius rho < R_o.

    omega_o * exp(-gamma * integral_rho^{R_o} A ds/s) + osc_g
    + bar_gamma * R_o**(eps/(p-2)).
    """
    if abs(env.R_o - profile.R_o) > 1e-9 * profile.R_o:
        raise ValueError(f"envelope R_o {env.R_o} does not match profile R_o {profile.R_o}")
    if not rho < env.R_o:
        raise ValueError(f"rho must be below R_o, got rho={rho}, R_o={env.R_o}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    w = wiener_integral(profile, rho)
    return env.omega_o * math.exp(-env.params.constants.gamma * w) + env.floor


def holder_exponent(gamma_o: float, params: StructureParams) -> float:
    """Exponent gamma * gamma_o**(1/(p-1)) of the power-law envelope when
    delta is bounded below by gamma_o."""
    if not 0.0 < gamma_o <= 1.0:
        raise ValueError(f"gamma_o must lie in (0, 1], got {gamma_o}")
    return params.constants.gamma * gamma_o ** (1.0 / (params.p - 1.0))
