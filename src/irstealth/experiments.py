"""Experiment presets, Monte-Carlo execution, and CSV emission.

Every preset sweeps one variable, runs the applicable reflection designs at
each sweep point for a number of independent trials, and records the sum
received power per (sweep value, solver, trial).  Trial seeds derive from
the config seed, so a given (config, trials) pair produces a byte-identical
CSV every run at a fixed BLAS thread count (across thread counts the
powers agree within 1e-12 of the trial's largest).  Designs may be
computed from perturbed or estimated parameters (the imperfect-information
presets), but powers are always evaluated on the true scenario.

The trials of a sweep point run as one batch: one problem, one batched
:class:`~irstealth.power_model.QcqpInstance` whose column t is trial t's
problem, built by one
:meth:`~irstealth.power_model.ScenarioGeometry.factor` call.  On true data
the trials share the point's link matrix and differ only in their coating
terms (a K^2 x T matrix); steered and sensed trials each have their own
link matrix, so their problem is a T x K^2 x N1 stack.  A single trial is a
batch of one.  At each point the solver table (CSV row name to a function
giving the N x T designs of a problem, most of them
:data:`~irstealth.optimizers.SOLVERS` entries) runs on that one problem,
reduced once for all of its trials, and all the point's true powers come
from one :meth:`~irstealth.power_model.QcqpInstance.objective` call.  The
sweeps whose points differ in their geometry draw the trials' coatings once
per sweep and run the sweep designs on each point's true problem.  The
distance, element-count, beam-angle and minimum-elements sweeps build one
geometry per point; the radar-count sweep builds one true factor and reads
each count k as its leading k x k block of link rows, the links among the
first k radars.  The steering-error and sensing presets keep their
config: they build the geometry and the true problem once and loop over
their own values.  The steering-error preset draws each trial's error signs
once and designs each nonzero error value on one stack of every trial's
panel rows toward its own perturbed directions; the sensing preset draws
each trial once, senses all trials in one pass per snapshot count and
designs them on one stack of their sensed factors, and designs all trials
on the true problem of the drawn coatings once per preset.  Each trial's
``random-phase`` design is drawn once per preset and panel size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .arrays import AnglePair
from .config import ConfigError, ScenarioConfig, build_geometry, watts_to_db
from .estimation import sense
from .optimizers import SOLVERS, ConvergenceError, _random_phases, min_irs_elements
from .power_model import QcqpInstance, _distance


@dataclass(frozen=True)
class ExperimentRow:
    sweep: float
    solver: str
    trial: int
    seed: int
    power_watts: float
    power_db: float


@dataclass
class ExperimentResult:
    sweep_values: tuple
    rows: tuple[ExperimentRow, ...]


def trial_seeds(master_seed: int, trials: int) -> np.ndarray:
    """Independent per-trial seeds derived from the master seed."""
    return np.random.SeedSequence(master_seed).generate_state(trials)


def inject_aoa_error(truth: AnglePair, error_deg: float, seed) -> AnglePair:
    """Perturb the azimuth by the stated magnitude with a random sign.

    Elevation is left unchanged; the result is clamped into the open
    admissible interval when the perturbation would leave it.
    """
    if not 0 <= error_deg < math.inf:
        raise ValueError(f"error magnitude must be finite and nonnegative, got {error_deg}")
    if error_deg == 0:
        return truth
    return _steered(truth, error_deg, _error_sign(seed))


def _error_sign(seed) -> float:
    """Sign of the steering error drawn from ``seed``, whatever its magnitude."""
    return 1.0 if np.random.default_rng(seed).random() < 0.5 else -1.0


def _steered(truth: AnglePair, error_deg: float, sign: float) -> AnglePair:
    half = math.pi / 2
    eps = 1e-9
    azimuth = min(max(truth.azimuth + sign * math.radians(error_deg), -half + eps), half - eps)
    return AnglePair(float(azimuth), truth.elevation)


def _designs(name):
    """Solver-table entry of the :data:`~irstealth.optimizers.SOLVERS` design
    ``name``: its N x T designs on a problem."""
    return lambda problem, seeds: np.column_stack([sol.theta
                                                   for sol in SOLVERS[name](problem, seeds)])


def _random_phase_designs():
    """Solver-table entry of the ``random-phase`` baseline for one preset: the
    trials' designs are drawn once per panel size and cap, then reused."""
    drawn = {}

    def design(problem, seeds):
        key = (problem.n_elements, problem.beta_max)
        if key not in drawn:
            drawn[key] = _random_phases(problem.n_elements, problem.beta_max, seeds)
        return drawn[key]

    return design


def _sweep_solvers(truth: QcqpInstance, random_phase) -> dict:
    """The sweep designs: ``pgd`` and ``dft-codebook``, ``reverse-alignment``
    for one radar or ``mmse`` for more, and the two baselines, with the
    preset's ``random-phase`` entry (:func:`_random_phase_designs`)."""
    fitted = "reverse-alignment" if truth.d_mat.shape[0] == 1 else "mmse"
    return {"pgd": _designs("pgd"), fitted: _designs(fitted),
            "dft-codebook": _designs("dft-codebook"), "random-phase": random_phase,
            "no-irs": _designs("no-irs")}


def _group_rows(value, truth, seeds, solvers, problem):
    """Rows of every trial at sweep point ``value``: each entry of ``solvers``
    (row name to a function of (problem, seeds) giving N x T designs) run on
    ``problem``, whose column t is trial t's problem.

    Trial t has its true coating terms in column t of ``truth`` and the trial
    seed ``seeds[t]``.  Every ||D theta + r_t||^2 comes from one objective
    call: the designs stacked side by side, on the true problem with its
    coating terms repeated once per solver.  When ``problem`` is a stack,
    one link matrix per trial, the true link matrix is broadcast to a stack
    too, so each design is scored alone, as its trial's one-column problem
    scores it.  A solve that runs out of steps is reported with its
    (sweep, trial, seed) point.
    """
    try:
        thetas = [design(problem, seeds) for design in solvers.values()]
    except ConvergenceError as exc:
        raise ConvergenceError(f"{exc} at sweep {value:g}, trial {exc.column}, "
                               f"seed {seeds[exc.column]}", exc.best, exc.column) from exc
    d_mat = truth.d_mat
    if problem.d_mat.ndim == 3:
        d_mat = np.broadcast_to(d_mat, (len(thetas) * len(seeds),) + d_mat.shape)
    stacked = QcqpInstance(d_mat, np.tile(truth.columns, len(thetas)), truth.beta_max)
    powers = stacked.objective(np.hstack(thetas)).reshape(len(thetas), -1).tolist()
    return [ExperimentRow(float(value), row, trial, int(seed), power, watts_to_db(power))
            for row, watts in zip(solvers, powers)
            for trial, (seed, power) in enumerate(zip(seeds, watts))]


def _sweep_rows(config, trials, values, config_for, solvers=None):
    """Rows of a sweep whose points each build the geometry of ``config_for(value)``.

    The trials' coatings are drawn once, from the first point's geometry:
    the coating grid, its absorbing efficiency and the trial seeds are the
    same at every point.  At each point all trials run ``solvers`` (by
    default the sweep designs, whose random phases are drawn once per panel
    size) as one batch on its true problem.
    """
    seeds = trial_seeds(config.seed, trials)
    rows, phis, random_phase = [], None, _random_phase_designs()
    for value in values:
        geometry = build_geometry(config_for(value))
        if phis is None:
            phis = geometry.coatings(seeds)
        truth = geometry.factor(phis)
        rows += _group_rows(value, truth, seeds, solvers or _sweep_solvers(truth, random_phase),
                            truth)
    return rows


def _scaled_positions(config: ScenarioConfig, factor: float) -> ScenarioConfig:
    radars = tuple(replace(r, position=tuple(factor * p for p in r.position))
                   for r in config.radars)
    target = replace(config.target,
                     position=tuple(factor * p for p in config.target.position))
    return replace(config, radars=radars, target=target)


def _with_elements(config: ScenarioConfig, num_elements) -> ScenarioConfig:
    """The config with a panel of ``num_elements`` elements on its y-grid."""
    return replace(config, target=replace(
        config.target, n1x=int(num_elements) // config.target.n1y))


def _preset_distance(config, trials):
    base = min(_distance(r.position, config.target.position) for r in config.radars)
    sweep = (60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0)

    return sweep, _sweep_rows(config, trials, sweep,
                              lambda value: _scaled_positions(config, value / base))


def _preset_elements(config, trials):
    if len(config.radars) == 1:
        n1x_values = tuple(range(1, 17))
    else:
        n1x_values = (5, 10, 15, 20, 25, 30, 35, 40, 45)
    sweep = tuple(n * config.target.n1y for n in n1x_values)
    return sweep, _sweep_rows(config, trials, sweep, partial(_with_elements, config))


def _preset_angle(config, trials):
    sweep = tuple(float(a) for a in range(-60, 61, 10))

    def config_for(value):
        return replace(config, radars=tuple(replace(r, beam_azimuth_deg=value)
                                            for r in config.radars))

    return sweep, _sweep_rows(config, trials, sweep, config_for)


def _preset_aoa_error(config, trials):
    sweep = (0.0, 0.5, 1.0, 2.0)
    seeds = trial_seeds(config.seed, trials)
    geometry = build_geometry(config)
    phis = geometry.coatings(seeds)
    truth = geometry.factor(phis)
    solvers = _sweep_solvers(truth, _random_phase_designs())
    # Radar k of a trial errs with the sign drawn from seed + k, whatever the
    # error's magnitude (as in inject_aoa_error).
    signs = [[_error_sign(int(seed) + k) for k in range(len(config.radars))]
             for seed in seeds]
    rows = []
    for value in sweep:
        # One stack: each trial's perturbed panel rows, true coating gains
        # and weights.
        problem = truth if value == 0 else geometry.factor(phis, [
            [_steered(a, value, sign) for a, sign in zip(geometry.true_angles, pattern)]
            for pattern in signs])
        rows += _group_rows(value, truth, seeds, solvers, problem)
    return sweep, rows


def _preset_num_radars(config, trials):
    count = len(config.radars)
    seeds = trial_seeds(config.seed, trials)
    geometry = build_geometry(config)
    full = geometry.factor(geometry.coatings(seeds))
    random_phase, rows = _random_phase_designs(), []
    for k in range(1, count + 1):
        # The first k radars see the panel through the links (i, j), i, j < k.
        truth = QcqpInstance(*(x.reshape(count, count, -1)[:k, :k].reshape(k * k, -1)
                               for x in (full.d_mat, full.columns)), full.beta_max)
        rows += _group_rows(k, truth, seeds, _sweep_solvers(truth, random_phase), truth)
    return tuple(float(k) for k in range(1, count + 1)), rows


_MIN_ELEMENT_REALIZATIONS = 20  # coating draws the predicted element count covers


def _preset_min_elements(config, trials):
    """Residual power of the closed form around the predicted element count.

    The prediction is a single-radar formula, so the config must hold
    exactly one radar.
    """
    if len(config.radars) != 1:
        raise ConfigError("radars", "min-elements-validation needs exactly one "
                          f"radar, got {len(config.radars)}")
    n2 = config.target.n2x * config.target.n2y
    n1y = config.target.n1y
    predicted = min_irs_elements(config.target.zeta, n2, config.target.beta_max,
                                 _MIN_ELEMENT_REALIZATIONS)
    n1x_pred = max(1, math.ceil(predicted / n1y))
    sweep = tuple(n1x * n1y for n1x in range(max(1, n1x_pred - 2), n1x_pred + 2))
    return sweep, _sweep_rows(config, trials, sweep, partial(_with_elements, config),
                              {"reverse-alignment": _designs("reverse-alignment")})


def _preset_estimation(config, trials):
    """Designs on sensed parameters at 16, 32 and 64 snapshots.

    MUSIC separates the K radars only on a sensing array of more than K
    elements.
    """
    sensors = config.target.cssa_lx + config.target.cssa_ly - 1
    if sensors <= len(config.radars):
        raise ConfigError("target.cssa_lx", f"estimation-pipeline needs more sensing "
                          f"elements ({sensors}) than radars ({len(config.radars)})")
    sweep = (16.0, 32.0, 64.0)
    seeds = trial_seeds(config.seed, trials)
    geometry = build_geometry(config)
    scenarios = [geometry.draw(int(seed)) for seed in seeds]
    phis = np.column_stack([scenario.target.nirs.phi for scenario in scenarios])
    truth = geometry.factor(phis)
    rows, pgd = [], {"pgd-estimated": _designs("pgd")}
    for value in sweep:
        # One stack: each trial's problem on its sensed angles and gains,
        # from one sensing pass.
        angles, g2 = zip(*sense(scenarios, int(value), [int(seed) + 0xA0A for seed in seeds]))
        rows += _group_rows(value, truth, seeds, pgd, geometry.factor(phis, angles, np.array(g2)))
        if value == sweep[0]:
            # All trials design on the true problem once, at the first count.
            true = _group_rows(value, truth, seeds, {"pgd-true": _designs("pgd")}, truth)
    return sweep, rows + [replace(row, sweep=value) for value in sweep for row in true]


_PRESETS = {
    "power-vs-distance": _preset_distance,
    "power-vs-elements": _preset_elements,
    "power-vs-angle": _preset_angle,
    "power-vs-aoa-error": _preset_aoa_error,
    "power-vs-num-radars": _preset_num_radars,
    "min-elements-validation": _preset_min_elements,
    "estimation-pipeline": _preset_estimation,
}
PRESET_NAMES = tuple(_PRESETS)


def run_experiment(preset: str, config: ScenarioConfig, trials: int) -> ExperimentResult:
    """Run a named preset sweep and collect one row per (value, solver, trial)."""
    if preset not in _PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose one of {PRESET_NAMES}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    sweep_values, rows = _PRESETS[preset](config, trials)
    rows = tuple(sorted(rows, key=lambda r: (r.sweep, r.solver, r.trial)))
    return ExperimentResult(tuple(sweep_values), rows)


_CSV_HEADER = "sweep,solver,trial,seed,power_watts,power_db"


def _fmt(x: float) -> str:
    return np.format_float_scientific(x, unique=True)


def emit_csv(result: ExperimentResult, path) -> None:
    """Write rows in deterministic (sweep, solver, trial) order.

    Numbers are printed in round-trip-exact scientific notation, so parsing
    the file recovers the exact row values.
    """
    rows = sorted(result.rows, key=lambda r: (r.sweep, r.solver, r.trial))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in rows:
            fh.write(f"{_fmt(row.sweep)},{row.solver},{row.trial},{row.seed},"
                     f"{_fmt(row.power_watts)},{_fmt(row.power_db)}\n")


def parse_csv(path) -> ExperimentResult:
    """Inverse of :func:`emit_csv`: the rows, and the sweep values they hold."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for line in fh:
            sweep, solver, trial, seed, watts, db = line.strip().split(",")
            rows.append(ExperimentRow(float(sweep), solver, int(trial), int(seed),
                                      float(watts), float(db)))
    values = tuple(sorted({r.sweep for r in rows}))
    return ExperimentResult(values, tuple(rows))
