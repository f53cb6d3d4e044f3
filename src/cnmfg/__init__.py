"""Particle methods for mean field games with common noise.

Conditional-law-dependent forward-backward systems solved at the particle
level, with two constructive solvers (continuation in the coupling strength
and small-interval stitching through regressed decoupling fields), an exact
linear-quadratic oracle, and empirical near-equilibrium experiments for the
finite-player game.
"""

__version__ = "0.1.0"

from .errors import CnmfgError, ConfigError, MeasureError, ModelError, SimulationError, SolverError
from .measures import EmpiricalMeasure, MeasureFlow, PathLaws, second_moment, wasserstein2
from .model import (ConditionReport, CostSpec, LinearCoefficient, ModelSpec, Preset, SamplerConfig,
                    ValidationReport, cost_functional, get_preset, hamiltonian, hamiltonian_dx,
                    minimize_hamiltonian, minimize_hamiltonian_values, preset_names,
                    sufficient_condition_report, validate_assumptions, SHIPPED_PRESETS)
from .forward_sim import (FeedbackControl, InitialLaw, InputPerturbation, NoiseBundle,
                          OpenLoopControl, ParticleEnsemble, TimeGrid, simulate_forward)
from .bsde import (BackwardSolution, SolutionBundle, control_rms, first_order_residual,
                   picard_solve, solution_distance, solution_norm, solve_bsde_given_control,
                   terminal_from_cost)
from .lq_oracle import LQParameters, RiccatiSolution, lq_cost_oracle, oracle_solution, solve_riccati
from .mfg_solvers import (ContinuationState, DecouplingField, StitchReport,
                          UniquenessReport, fit_decoupling_field, interval_best_response,
                          solve_continuation, solve_scaled_fbsde, solve_stitched,
                          uniqueness_check)
from .nplayer import (FeedbackStrategy, GapEstimate, PlayerSystem, gap_versus_n,
                      limit_mean_path, nash_gap, population_cost_convergence, simulate_nplayer)
from .records import RunConfig
