"""Scenario configuration: JSON round trip and scenario construction.

Configs hold dB/dBm quantities at the boundary and convert to linear units
exactly once when the scenario is built.  Randomized scenario state (coating
phases, radar pulse clocks) is drawn from the config seed, so one config
maps to one reproducible scenario.  A :class:`ScenarioConfig` is valid by
construction (also one made by ``dataclasses.replace``): it runs
:func:`validate_config`, which names a bad field.  :func:`build_geometry`
builds a config's seed-free half once; drawing a seed from it gives the
same scenario as :func:`build_scenario` on the config with that seed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .arrays import AnglePair, ArrayGeometry, ArrayKind
from .power_model import (NirsPanel, RadarNode, Scenario, ScenarioGeometry, Target,
                          angles_between, matched_beamformer, _distance,
                          _RADAR_AXES, _TARGET_AXES)

SPEED_OF_LIGHT = 299792458.0


class ConfigError(ValueError):
    """Invalid configuration value; ``fieldpath`` names the offending field."""

    def __init__(self, fieldpath, message):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_db(watts: float) -> float:
    return float(10.0 * np.log10(watts)) if watts > 0 else float("-inf")


@dataclass(frozen=True)
class RadarConfig:
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    mx: int = 8
    my: int = 8
    spacing: float = 0.025
    tx_power_dbm: float = 15.0
    pri: float = 100e-6
    pulse: float = 30e-6
    bandwidth: float = 100e6
    noise_dbm: float = -90.0
    beam_azimuth_deg: float | None = None


@dataclass(frozen=True)
class TargetConfig:
    position: tuple[float, float, float] = (0.0, 0.0, 100.0)
    n1x: int = 4
    n1y: int = 2
    n2x: int = 100
    n2y: int = 2
    spacing: float = 0.0125
    beta_max: float = 1.0
    zeta: float = 0.8
    cssa_lx: int = 5
    cssa_ly: int = 5
    cssa_noise_dbm: float = -90.0
    epoch_jitter: float = 2e-6


@dataclass(frozen=True)
class ScenarioConfig:
    wavelength: float = 0.05
    alpha_db: float = -30.0
    seed: int = 1
    radars: tuple[RadarConfig, ...] = field(kw_only=True)
    target: TargetConfig = field(default_factory=TargetConfig)

    def __post_init__(self):
        validate_config(self)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        values = _section(cls, data, "", ("wavelength", "alpha_db", "seed",
                                          "radars", "target"))
        if not isinstance(values["radars"], (list, tuple)):
            raise ConfigError("radars", f"must be a list, got {values['radars']!r}")
        values["radars"] = tuple(RadarConfig(**_section(RadarConfig, r, f"radars[{i}]"))
                                 for i, r in enumerate(values["radars"]))
        values["target"] = TargetConfig(**_section(TargetConfig, values["target"],
                                                   "target"))
        return cls(**values)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _section(kind, data, path: str, required=("position",)) -> dict:
    """Field values of one config section from its JSON object at ``path``,
    with a position list made a tuple; unknown and missing required fields
    are rejected."""
    if not isinstance(data, dict):
        raise ConfigError(path or "config", f"must be an object, got {data!r}")
    prefix = f"{path}." if path else ""
    names = {item.name for item in fields(kind)}
    for key in data:
        if key not in names:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    for key in required:
        if key not in data:
            raise ConfigError(f"{prefix}{key}", "missing required field")
    values = dict(data)
    if isinstance(values.get("position"), list):
        values["position"] = tuple(values["position"])
    return values


def _check_types(prefix: str, section) -> None:
    """Reject wrongly typed or non-finite values of one config section.

    Integer fields take integers only (not booleans or floats), number
    fields real numbers (not booleans or strings) and positions three of
    them; nested sections are checked by the caller.
    """
    for item in fields(section):
        value = getattr(section, item.name)
        path = f"{prefix}{item.name}"
        if item.type == "int":
            if not _is_integer(value):
                raise ConfigError(path, f"must be an integer, got {value!r}")
            continue
        if item.type == "float | None" and value is None:
            continue
        if item.type.startswith("tuple[float"):
            if not (isinstance(value, tuple) and len(value) == 3
                    and all(map(_is_real, value))):
                raise ConfigError(path, f"must be three real coordinates, got {value!r}")
            parts = value
        elif item.type.startswith("float"):
            if not _is_real(value):
                raise ConfigError(path, f"must be a real number, got {value!r}")
            parts = (value,)
        else:
            continue
        try:
            finite = all(math.isfinite(x) for x in parts)
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise ConfigError(path, f"must be finite, got {value}")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_level(path: str, to_linear, level: float, positive: bool) -> None:
    """Reject a dB level whose linear value overflows, or underflows to zero
    where it must be positive."""
    try:
        linear = to_linear(level)
    except OverflowError:
        linear = math.inf
    if math.isinf(linear) or (positive and linear == 0):
        raise ConfigError(path, f"{level} is out of range (linear value {linear})")


def validate_config(cfg: ScenarioConfig) -> None:
    _check_types("", cfg)
    if cfg.seed < 0:
        raise ConfigError("seed", f"must be nonnegative, got {cfg.seed}")
    _check_level("alpha_db", db_to_linear, cfg.alpha_db, positive=True)
    for i, radar in enumerate(cfg.radars):
        _check_types(f"radars[{i}].", radar)
        _check_level(f"radars[{i}].tx_power_dbm", dbm_to_watts, radar.tx_power_dbm,
                     positive=True)
        _check_level(f"radars[{i}].noise_dbm", dbm_to_watts, radar.noise_dbm,
                     positive=False)
    _check_types("target.", cfg.target)
    _check_level("target.cssa_noise_dbm", dbm_to_watts, cfg.target.cssa_noise_dbm,
                 positive=False)
    if cfg.wavelength <= 0:
        raise ConfigError("wavelength", f"must be positive, got {cfg.wavelength}")
    if not cfg.radars:
        raise ConfigError("radars", "need at least one radar")
    for i, radar in enumerate(cfg.radars):
        path = f"radars[{i}]"
        for name in ("mx", "my"):
            if getattr(radar, name) < 1:
                raise ConfigError(f"{path}.{name}", "antenna counts must be positive")
        if radar.spacing <= 0:
            raise ConfigError(f"{path}.spacing", "spacing must be positive")
        if not 0 < radar.pulse < radar.pri:
            raise ConfigError(f"{path}.pulse", "need 0 < pulse < pri")
        if radar.beam_azimuth_deg is not None and not -90 < radar.beam_azimuth_deg < 90:
            raise ConfigError(f"{path}.beam_azimuth_deg", "must lie in (-90, 90)")
        try:
            angles_between(cfg.target.position, radar.position, _TARGET_AXES)
            angles_between(radar.position, cfg.target.position, _RADAR_AXES)
        except ValueError as exc:
            raise ConfigError(f"{path}.position", "radar must face the target's "
                              f"panel from below it ({exc})") from exc
    tgt = cfg.target
    for name in ("n1x", "n1y", "n2x", "n2y", "cssa_lx", "cssa_ly"):
        if getattr(tgt, name) < 1:
            raise ConfigError(f"target.{name}", "element counts must be positive")
    if tgt.spacing <= 0:
        raise ConfigError("target.spacing", "spacing must be positive")
    if tgt.n1y != tgt.n2y:
        raise ConfigError("target.n2y", "panel and coating must share the y-grid")
    if not 0 < tgt.beta_max <= 1:
        raise ConfigError("target.beta_max", "must be in (0, 1]")
    if not 0 <= tgt.zeta <= 1:
        raise ConfigError("target.zeta", "must be in [0, 1]")
    for name in ("cssa_lx", "cssa_ly"):
        if getattr(tgt, name) % 2 == 0:
            raise ConfigError(f"target.{name}", "sensing-array arms must be odd")
    if tgt.epoch_jitter < 0:
        raise ConfigError("target.epoch_jitter", "must be nonnegative")


def build_geometry(config: ScenarioConfig) -> ScenarioGeometry:
    """Build the seed-free geometry of a config.

    The geometry holds everything the seed does not change; its
    :meth:`~irstealth.power_model.ScenarioGeometry.draw` makes the scenario
    of any seed, and every scenario drawn from one geometry shares its
    responses, gains and link amplitudes.
    """
    tgt = config.target

    zeta = np.full(tgt.n2x * tgt.n2y, float(tgt.zeta))
    nirs = NirsPanel(np.sqrt(1.0 - zeta).astype(complex), zeta)
    target = Target(position=tuple(float(p) for p in tgt.position),
                    irs_geometry=ArrayGeometry(ArrayKind.UPA, tgt.n1x, tgt.n1y,
                                               tgt.spacing),
                    nirs_geometry=ArrayGeometry(ArrayKind.UPA, tgt.n2x, tgt.n2y,
                                                tgt.spacing),
                    beta_max=tgt.beta_max, nirs=nirs,
                    cssa_geometry=ArrayGeometry(ArrayKind.CSSA, tgt.cssa_lx,
                                                tgt.cssa_ly, tgt.spacing),
                    cssa_noise=dbm_to_watts(tgt.cssa_noise_dbm))

    radars = []
    for rc in config.radars:
        geom = ArrayGeometry(ArrayKind.UPA, rc.mx, rc.my, rc.spacing)
        if rc.beam_azimuth_deg is None:
            aim = angles_between(rc.position, tgt.position, _RADAR_AXES)
        else:
            aim = AnglePair(np.deg2rad(rc.beam_azimuth_deg), 0.0)
        beam = matched_beamformer(geom, aim, config.wavelength)
        radars.append(RadarNode(geometry=geom,
                                position=tuple(float(p) for p in rc.position),
                                beamformer=beam,
                                tx_power=dbm_to_watts(rc.tx_power_dbm),
                                pri=rc.pri, pulse=rc.pulse,
                                bandwidth=rc.bandwidth,
                                pulse_epoch=_distance(rc.position, tgt.position)
                                / SPEED_OF_LIGHT))
    return ScenarioGeometry(config.wavelength, db_to_linear(config.alpha_db),
                            tuple(radars), target, tgt.epoch_jitter)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Materialize a scenario from a config, drawing its random state.

    Builds a fresh geometry; to draw many seeds of one config, build the
    geometry once with :func:`build_geometry` and draw from it.
    """
    return build_geometry(config).draw(config.seed)


def single_radar_config(n1x: int = 4, distance: float = 100.0,
                        seed: int = 1) -> ScenarioConfig:
    """Default single-radar setup: target straight above one radar."""
    return ScenarioConfig(seed=seed,
                          radars=(RadarConfig(position=(0.0, 0.0, 0.0)),),
                          target=TargetConfig(position=(0.0, 0.0, distance),
                                              n1x=n1x))


def multi_radar_config(num_radars: int = 3, n1x: int = 25, height: float = 100.0,
                       lateral: float = 200.0, seed: int = 1) -> ScenarioConfig:
    """Multi-radar setup: one radar under the target, the rest fanned out.

    Radars two and three sit at azimuth +-45 degrees from the target, the
    optional fourth and fifth at +-22.5 degrees.  The fanned-out radars are
    offset laterally on the ground plane, so the overhead radar keeps the
    shortest range and the others probe from distinct 2D directions.
    """
    if not 1 <= num_radars <= 5:
        raise ConfigError("radars", f"supported sizes are 1..5, got {num_radars}")
    offsets_deg = (0.0, 45.0, -45.0, 22.5, -22.5)
    radars = [RadarConfig(position=(0.0, 0.0, 0.0))]
    for off in offsets_deg[1:num_radars]:
        radars.append(RadarConfig(position=(height * np.tan(np.deg2rad(off)),
                                            lateral, 0.0)))
    return ScenarioConfig(seed=seed, radars=tuple(radars),
                          target=TargetConfig(position=(0.0, 0.0, height), n1x=n1x))


def with_seed(config: ScenarioConfig, seed: int) -> ScenarioConfig:
    if not _is_integer(seed):
        raise ConfigError("seed", f"must be an integer, got {seed!r}")
    return replace(config, seed=int(seed))
