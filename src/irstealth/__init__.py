"""IRS-aided electromagnetic stealth: channels, power model, reflection designs."""

from .arrays import (AnglePair, ArrayGeometry, ArrayKind, cssa_response,
                     cssa_responses, upa_response, upa_responses)
from .config import (ConfigError, RadarConfig, ScenarioConfig, TargetConfig,
                     build_geometry, build_scenario, multi_radar_config,
                     single_radar_config)
from .estimation import (AoaEstimate, EstimationError, SnapshotSet,
                         collect_snapshots, estimate_parameters, gain_estimate,
                         ls_recover, music_aoa, steering_matrix)
from .experiments import (ExperimentResult, ExperimentRow, emit_csv,
                          inject_aoa_error, parse_csv, run_experiment)
from .optimizers import (ConvergenceError, InfeasibleError, ReflectionSolution,
                         dft_codebook_design, dual_value, kkt_certificate,
                         lagrange_semiclosed, min_irs_elements,
                         mmse_delta_search, random_phase, reverse_alignment,
                         single_link, solve_pgd)
from .power_model import (LinkMatrix, NirsPanel, QcqpInstance, RadarNode, Scenario,
                          ScenarioGeometry, Target, beamforming_gains,
                          chirp_waveform, link_factor, matched_beamformer,
                          path_gain, radar_powers, sum_power)

__version__ = "0.1.0"
