"""Numerical toolkit for capacity-driven boundary regularity of the
degenerate diffusion u_t = div(|Du|^{p-2} Du), p > 2.

The pieces: condenser p-capacities on masked lattices (capacity), relative
capacity profiles and the oscillation cascade with its decay envelopes
(wiener), an implicit solver for the equation on boxes with removed obstacles
(pde), empirical verification probes (probes), and a config-driven experiment
harness (cli).
"""

from .capacity import (CapacityValue, CondenserProblem, DeltaMemo, SolverConfig,
                       minimize_condenser, parabolic_capacity, solve_condenser)
from .errors import (CapflowError, ConfigError, ConvergenceError, PipelineError)
from .geometry import (Cube, DomainSpec, IndicatorField, contains, contains_many,
                       domain_inside_mask, lattice_nodes_per_axis,
                       obstacle_distance, rasterize_obstacle)
from .params import (OVERRIDABLE_CONSTANTS, StructuralConstants, StructureParams,
                     make_params, smallest_lambda)
from .pde import (BoundaryDatum, SchemeConfig, SpaceTimeField, SpaceTimeGrid,
                  barenblatt, intrinsic_times, load_snapshot, make_grid,
                  osc_g_on_lateral, oscillation, oscillation_over, save_snapshot,
                  solve, spatial_energy, uniform_times)
from .probes import (FitReport, HarnackProbeResult, SpreadingProbeResult,
                     envelope_regression, spreading_probe, weak_harnack_probe)
from .wiener import (CapacityProfile, CascadeReport, Cylinder, EnvelopeParams,
                     SubsequenceResult, WienerDiagnostic, build_profile,
                     build_subsequence, choose_c_bar, decay_envelope,
                     holder_exponent, is_wiener_point, oscillation_cascade,
                     realize_R_o_epsilon, wiener_integral, wiener_sum,
                     window_depth)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDatum", "CapacityProfile", "CapacityValue", "CapflowError",
    "CascadeReport", "ConfigError", "CondenserProblem", "ConvergenceError", "Cube",
    "Cylinder", "DeltaMemo", "DomainSpec", "EnvelopeParams", "FitReport",
    "HarnackProbeResult", "IndicatorField", "OVERRIDABLE_CONSTANTS",
    "PipelineError", "SchemeConfig", "SolverConfig",
    "SpaceTimeField", "SpaceTimeGrid", "SpreadingProbeResult",
    "StructuralConstants", "StructureParams", "SubsequenceResult",
    "WienerDiagnostic", "barenblatt", "build_profile", "build_subsequence",
    "choose_c_bar", "contains", "contains_many", "decay_envelope",
    "domain_inside_mask", "envelope_regression",
    "holder_exponent", "intrinsic_times", "is_wiener_point",
    "lattice_nodes_per_axis", "load_snapshot", "make_grid", "make_params",
    "minimize_condenser", "obstacle_distance", "osc_g_on_lateral",
    "oscillation", "oscillation_cascade", "oscillation_over",
    "parabolic_capacity", "rasterize_obstacle", "realize_R_o_epsilon",
    "save_snapshot", "smallest_lambda", "solve", "solve_condenser",
    "spatial_energy", "spreading_probe", "uniform_times", "weak_harnack_probe",
    "wiener_integral", "wiener_sum", "window_depth",
]
