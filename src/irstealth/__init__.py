"""IRS-aided electromagnetic stealth: channels, power model, reflection designs."""

from .arrays import (AnglePair, ArrayGeometry, ArrayKind, cssa_responses,
                     upa_response, upa_responses)
from .config import (ConfigError, RadarConfig, ScenarioConfig, TargetConfig,
                     build_geometry, build_scenario, multi_radar_config,
                     single_radar_config)
from .estimation import (EstimationError, collect_snapshots, gain_estimate,
                         ls_recover, music_aoa, sense, steering_matrix)
from .experiments import (ExperimentResult, ExperimentRow, emit_csv,
                          inject_aoa_error, parse_csv, run_experiment)
from .optimizers import (SOLVERS, ConvergenceError, InfeasibleError,
                         ReflectionSolution, alignment_designs, codebook_designs,
                         dual_value, kkt_certificate, lagrange_semiclosed,
                         min_irs_elements, mmse_designs, pgd_designs, random_phase)
from .power_model import (NirsPanel, QcqpInstance, RadarNode, Scenario,
                          ScenarioGeometry, Target, chirp_waveform, link_factor,
                          matched_beamformer, path_gain, radar_powers, sum_power)

__version__ = "0.1.0"
