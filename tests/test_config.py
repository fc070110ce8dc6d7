import dataclasses
import json
import re

import numpy as np
import pytest

from irstealth.cli import main
from irstealth.config import (ConfigError, ScenarioConfig, build_scenario,
                              db_to_linear, dbm_to_watts, multi_radar_config,
                              single_radar_config, watts_to_db, with_seed)


class TestDefaults:
    def test_production_constants(self):
        config = single_radar_config()
        assert config.wavelength == 0.05
        assert config.alpha_db == -30.0
        radar = config.radars[0]
        assert (radar.mx, radar.my) == (8, 8)
        assert radar.spacing == 0.025
        assert radar.tx_power_dbm == 15.0
        assert (radar.pri, radar.pulse) == (100e-6, 30e-6)
        assert radar.bandwidth == 100e6
        target = config.target
        assert (target.n1x, target.n1y) == (4, 2)
        assert (target.n2x, target.n2y) == (100, 2)
        assert target.spacing == 0.0125
        assert (target.beta_max, target.zeta) == (1.0, 0.8)
        assert (target.cssa_lx, target.cssa_ly) == (5, 5)

    def test_shortest_distance_is_radar_one(self):
        config = multi_radar_config()
        distances = [np.linalg.norm(np.asarray(r.position)
                                    - np.asarray(config.target.position))
                     for r in config.radars]
        assert distances[0] == pytest.approx(100.0)
        assert min(distances) == distances[0]

    def test_conversions(self):
        assert dbm_to_watts(15.0) == pytest.approx(10 ** 1.5 / 1000)
        assert db_to_linear(-30.0) == pytest.approx(1e-3)
        assert watts_to_db(1e-3) == pytest.approx(-30.0)
        assert watts_to_db(0.0) == -np.inf


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        config = multi_radar_config(num_radars=4, seed=77)
        path = tmp_path / "scenario.json"
        config.save(path)
        assert ScenarioConfig.load(path) == config

    def test_dict_round_trip(self):
        config = single_radar_config(n1x=6, seed=9)
        assert ScenarioConfig.from_dict(config.to_dict()) == config

    def test_radars_are_required(self):
        # No default radar list: a config without one fails at construction,
        # naming the field, and derived configs keep the radars they had.
        with pytest.raises(TypeError, match="radars"):
            ScenarioConfig()
        config = multi_radar_config(seed=3)
        assert dataclasses.replace(config) == config
        assert dataclasses.replace(config, seed=4).radars == config.radars

    def test_missing_field_reported(self):
        data = single_radar_config().to_dict()
        del data["wavelength"]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(data)


class TestValidation:
    """An invalid config cannot be built: construction names the bad field."""

    def test_field_path_in_error(self):
        config = single_radar_config()
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(
                config, radars=(dataclasses.replace(config.radars[0], pulse=1.0),))
        assert err.value.fieldpath == "radars[0].pulse"

    def test_target_grid_mismatch(self):
        config = single_radar_config()
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(config, target=dataclasses.replace(config.target, n1y=3))
        assert err.value.fieldpath.startswith("target")

    def test_even_sensing_arms_rejected(self):
        config = single_radar_config()
        with pytest.raises(ConfigError):
            dataclasses.replace(config, target=dataclasses.replace(config.target, cssa_lx=4))

    def test_num_radars_range(self):
        with pytest.raises(ConfigError):
            multi_radar_config(num_radars=6)

    @pytest.mark.parametrize("fieldpath", [
        "wavelength", "alpha_db", "radars[0].tx_power_dbm", "radars[0].spacing",
        "radars[0].bandwidth", "radars[0].noise_dbm", "radars[1].position",
        "target.spacing", "target.cssa_noise_dbm", "target.epoch_jitter",
        "target.position"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, fieldpath, bad):
        config = multi_radar_config(num_radars=2)
        section, _, name = fieldpath.rpartition(".")
        value = (0.0, bad, 0.0) if name == "position" else bad
        with pytest.raises(ConfigError) as err:
            if not section:
                dataclasses.replace(config, **{name: value})
            elif section == "target":
                dataclasses.replace(config, target=dataclasses.replace(
                    config.target, **{name: value}))
            else:
                k = int(section[len("radars["):-1])
                radars = list(config.radars)
                radars[k] = dataclasses.replace(radars[k], **{name: value})
                dataclasses.replace(config, radars=tuple(radars))
        assert err.value.fieldpath == fieldpath
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(_with_field(config.to_dict(), fieldpath, value))
        assert err.value.fieldpath == fieldpath

    @pytest.mark.parametrize("position", [(0.0, 0.0, 200.0), (0.0, 50.0, 100.0),
                                          (0.0, 0.0, 100.0)])
    def test_radar_outside_front_half_space_rejected(self, position):
        # The target is 100 m up; its panel faces down.
        config = multi_radar_config(num_radars=2)
        radars = (config.radars[0], dataclasses.replace(config.radars[1],
                                                        position=position))
        with pytest.raises(ConfigError) as err:
            build_scenario(dataclasses.replace(config, radars=radars))
        assert err.value.fieldpath == "radars[1].position"

    def test_beam_override_outside_visible_range_rejected(self):
        config = single_radar_config()
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(config, radars=(dataclasses.replace(
                config.radars[0], beam_azimuth_deg=90.0),))
        assert err.value.fieldpath == "radars[0].beam_azimuth_deg"


MISSING = object()


def _with_field(doc: dict, fieldpath: str, value) -> dict:
    """Copy of a config document with one field (``a``, ``target``,
    ``target.a``, ``radars[i]`` or ``radars[i].a``) set to ``value``, or
    removed if ``value`` is ``MISSING``."""
    doc = json.loads(json.dumps(doc))
    *parents, name = [int(key) if key.isdigit() else key
                      for key in re.findall(r"\w+", fieldpath)]
    section = doc
    for key in parents:
        section = section[key]
    if value is MISSING:
        del section[name]
    else:
        section[name] = value
    return doc


class TestMalformedFields:
    """Wrongly typed or out-of-range fields fail at the boundary with a field path."""

    @pytest.mark.parametrize("fieldpath, value", [
        ("target.n1x", 4.5), ("target.n1x", "4"), ("target.n1x", True),
        ("target.cssa_lx", 5.0), ("radars[0].mx", None), ("wavelength", "0.05"),
        ("wavelength", True), ("radars[0].beam_azimuth_deg", "10"),
        ("radars[1].position", [0.0, 0.0]), ("target.position", [0.0, "a", 1.0]),
        ("target.spacing", 10 ** 400), ("alpha_db", 4000), ("alpha_db", -4000),
        ("radars[0].tx_power_dbm", 4000), ("radars[0].tx_power_dbm", -4000),
        ("radars[0].noise_dbm", 1e308), ("target.cssa_noise_dbm", 1e308),
        ("seed", 1.5), ("seed", -1), ("seed", True),
        ("radars[1].foo", 1.0), ("target", MISSING), ("radars[0]", 5),
        ("target.position", 5), ("radars[1].position", MISSING), ("alpha_db", MISSING),
        ("target.cssa_ly", 4), ("radars[0].my", 0), ("target.spacing", 0.0),
        ("target.spacing", -0.0125)])
    def test_rejected_with_field_path(self, tmp_path, capsys, fieldpath, value):
        doc = _with_field(multi_radar_config(num_radars=2).to_dict(), fieldpath, value)
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict(doc)
        assert err.value.fieldpath == fieldpath
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "power-vs-num-radars", "--config", str(path),
                     "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {fieldpath}: ")
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_override_names_the_seed(self, tmp_path, capsys):
        assert main(["run", "power-vs-aoa-error", "--trials", "1", "--seed", "-1",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: seed: ")

    @pytest.mark.parametrize("seed", [1.5, True, "2"])
    def test_seed_override_must_be_an_integer(self, seed):
        with pytest.raises(ConfigError) as err:
            with_seed(single_radar_config(), seed)
        assert err.value.fieldpath == "seed"
        assert with_seed(single_radar_config(), np.uint32(7)).seed == 7

    def test_quiet_levels_are_accepted(self):
        # Noise levels may underflow to zero watts; a silent array is valid.
        doc = _with_field(single_radar_config().to_dict(), "radars[0].noise_dbm", -4000)
        doc["target"]["cssa_noise_dbm"] = -4000
        ScenarioConfig.from_dict(doc)


class TestBuildScenario:
    def test_deterministic_coating_draw(self):
        a = build_scenario(single_radar_config(seed=5))
        b = build_scenario(single_radar_config(seed=5))
        np.testing.assert_array_equal(a.target.nirs.phi, b.target.nirs.phi)
        assert [r.pulse_epoch for r in a.radars] == [r.pulse_epoch
                                                     for r in b.radars]

    def test_seed_changes_coating_draw(self):
        a = build_scenario(single_radar_config(seed=5))
        b = build_scenario(with_seed(single_radar_config(seed=5), 6))
        assert not np.array_equal(a.target.nirs.phi, b.target.nirs.phi)

    def test_coating_magnitudes(self):
        scenario = build_scenario(single_radar_config())
        np.testing.assert_allclose(np.abs(scenario.target.nirs.phi),
                                   np.sqrt(1 - 0.8), rtol=1e-12)

    def test_epochs_include_propagation_delay(self):
        scenario = build_scenario(multi_radar_config())
        for k, radar in enumerate(scenario.radars):
            distance = np.linalg.norm(np.asarray(radar.position)
                                      - np.asarray(scenario.target.position))
            delay = distance / 299792458.0
            assert delay <= radar.pulse_epoch <= delay + 2e-6

    def test_beam_override_points_elsewhere(self):
        config = single_radar_config()
        steered = dataclasses.replace(
            config, radars=(dataclasses.replace(config.radars[0],
                                                beam_azimuth_deg=30.0),))
        a = build_scenario(config)
        b = build_scenario(steered)
        assert not np.allclose(a.radars[0].beamformer, b.radars[0].beamformer)
