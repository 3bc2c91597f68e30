"""Geometric heat flow on a flat conformal torus: Dirichlet energy plus a
two-form pullback and a scalar potential, with monotonicity, concentration,
and rewriting diagnostics."""

from .action import (CONSTRAINT_TOL, LEDGER_COLUMNS, EnergyLedger,
                     EnergyRecord, EnergyTerms, FlowConfig, FlowState,
                     MapField, action_value, cfl_bound, dirichlet_energy,
                     el_residual, energies, flow_rhs,
                     gradient_consistency_check, init_state,
                     monotonicity_check, run, step)
from .cli import compare_runs, main
from .config import (PRESETS, build_objects, load_config, preset_config,
                     save_config, validate_config)
from .errors import (ConfigError, GridError, HypothesisError,
                     NonFiniteStateError, OffManifoldError, ProjectionError,
                     ShapeError, SnapshotError, StringFlowError,
                     TangencyError)
from .fields import (FieldBackground, ScalarPotential, SupNorms, TwoFormField,
                     delta_constants, make_potential, make_two_form,
                     pullback_integral, smallness_report, sup_norms,
                     tangential_grad_V, z_operator, zero_background,
                     zero_potential, zero_two_form)
from .grid import (SurfaceGrid, ball_mask, ball_sum_map, build_grid,
                   conformal_rescale, empty_map, grad_sq_density,
                   hessian_sq_density, l2_inner, l2_norm, laplace_beltrami,
                   ricci_identity_check)
from .initial_data import (bump_map, clifford_map, constant_map,
                           geodesic_wrap, perturb, small_energy_map)
from .io import (read_events_jsonl, read_ledger_csv, read_snapshot,
                 write_events_jsonl, write_ledger_csv, write_run_outputs,
                 write_snapshot)
from .singular import (SingularEvent, concentration_scan, convergence_probe,
                       k_bound, parabolic_rescale, rescale_out_grid)
from .structure import (AntisymmetricPotential, assemble_A, bochner_density,
                        gap_check, rewrite_residual, w2_43_seminorm)
from .targets import SphereTarget, TargetManifold, make_target, tangent_project

__version__ = "0.1.0"
