import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstealth.arrays import (AnglePair, ArrayGeometry, ArrayKind, cssa_responses,
                              upa_response, upa_responses)
from irstealth.config import build_geometry, single_radar_config

WAVELENGTH = 0.05
QUARTER = ArrayGeometry(ArrayKind.UPA, 2, 2, WAVELENGTH / 4)

angles_st = st.builds(AnglePair,
                      st.floats(-1.5, 1.5),
                      st.floats(-1.5, 1.5))


def line(n: int, spacing: float) -> ArrayGeometry:
    """An n x 1 grid: its response is the x-axis 1D steering vector."""
    return ArrayGeometry(ArrayKind.UPA, n, 1, spacing)


class TestSteer1d:
    def test_zero_phase_gives_ones(self):
        # At zero azimuth the y-axis direction cosine vanishes.
        geom = ArrayGeometry(ArrayKind.UPA, 1, 4, WAVELENGTH / 4)
        np.testing.assert_array_equal(upa_response(geom, AnglePair(0.0), WAVELENGTH),
                                      np.ones(4))

    def test_half_turn(self):
        got = upa_response(line(2, WAVELENGTH / 2), AnglePair(0.0), WAVELENGTH)
        np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-15)

    def test_quarter_turn(self):
        got = upa_response(line(3, WAVELENGTH / 4), AnglePair(0.0), WAVELENGTH)
        np.testing.assert_allclose(got, [1.0, -1.0j, -1.0], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line(0, WAVELENGTH / 4)

    @given(angles_st, st.floats(1e-3, 0.1), st.integers(1, 64))
    def test_unit_modulus_and_leading_one(self, angles, spacing, n):
        vec = upa_response(line(n, spacing), angles, WAVELENGTH)
        assert vec[0] == 1.0 + 0.0j
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)


class TestUpaResponse:
    def test_radar_array_length(self):
        geom = ArrayGeometry(ArrayKind.UPA, 8, 8, 0.025)
        assert upa_response(geom, AnglePair(0.3, 0.1), WAVELENGTH).size == 64

    def test_quarter_wave_head_on(self):
        # At (0, 0) the x-argument is 2*spacing/wavelength = 1/2 and the
        # y-argument vanishes.
        got = upa_response(QUARTER, AnglePair(0.0, 0.0), WAVELENGTH)
        want = np.kron([1.0, -1.0j], [1.0, 1.0])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(angles_st)
    @settings(max_examples=50)
    def test_kron_identity(self, angles):
        geom = ArrayGeometry(ArrayKind.UPA, 3, 4, 0.0125)
        scale = 2.0 * geom.spacing / WAVELENGTH
        cx = np.cos(angles.elevation) * np.cos(angles.azimuth)
        cy = np.cos(angles.elevation) * np.sin(angles.azimuth)
        want = np.kron(np.exp(-1j * np.pi * np.arange(3) * (scale * cx)),
                       np.exp(-1j * np.pi * np.arange(4) * (scale * cy)))
        np.testing.assert_array_equal(upa_response(geom, angles, WAVELENGTH), want)

    @pytest.mark.parametrize("nx, ny", [(3, 4), (1, 1), (7, 2)])
    def test_broadcast_matches_one_angle(self, nx, ny):
        geom = ArrayGeometry(ArrayKind.UPA, nx, ny, 0.0125)
        rng = np.random.default_rng(nx * ny)
        azimuths = rng.uniform(-1.5, 1.5, (5, 3))
        elevations = rng.uniform(-1.5, 1.5, (5, 3))
        got = upa_responses(geom, azimuths, elevations, WAVELENGTH)
        assert got.shape == (nx * ny, 5, 3)
        for idx in np.ndindex(5, 3):
            one = upa_response(geom, AnglePair(azimuths[idx], elevations[idx]),
                               WAVELENGTH)
            np.testing.assert_array_equal(got[(slice(None),) + idx], one)

    @given(angles_st)
    @settings(max_examples=50)
    def test_unit_modulus(self, angles):
        vec = upa_response(QUARTER, angles, WAVELENGTH)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)

    def test_rejects_cssa_geometry(self):
        geom = ArrayGeometry(ArrayKind.CSSA, 5, 5, 0.0125)
        with pytest.raises(ValueError):
            upa_response(geom, AnglePair(0.0, 0.0), WAVELENGTH)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            upa_response(QUARTER, AnglePair(0.0, 0.0), 0.0)


class TestGeometryAndAngles:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            ArrayGeometry(ArrayKind.UPA, 0, 2, 0.01)

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValueError):
            ArrayGeometry(ArrayKind.UPA, 2, 2, 0.0)

    def test_cssa_arms_must_be_odd(self):
        with pytest.raises(ValueError):
            ArrayGeometry(ArrayKind.CSSA, 4, 5, 0.01)

    def test_element_counts(self):
        assert ArrayGeometry(ArrayKind.UPA, 3, 4, 0.01).num_elements == 12
        assert ArrayGeometry(ArrayKind.CSSA, 5, 5, 0.01).num_elements == 9

    @pytest.mark.parametrize("azimuth,elevation", [(1.6, 0.0), (0.0, -1.6),
                                                   (np.pi / 2, 0.0)])
    def test_angles_outside_open_interval(self, azimuth, elevation):
        with pytest.raises(ValueError):
            AnglePair(azimuth, elevation)


def surface_geometry(**target):
    """Geometry of the single-radar setup with some target fields changed."""
    config = single_radar_config()
    return build_geometry(dataclasses.replace(
        config, target=dataclasses.replace(config.target, **target)))


class TestSplitTsResponse:
    """ScenarioGeometry.blocks cuts the whole target-surface response into its
    panel and coating blocks."""

    GEOMETRY = surface_geometry()
    SMALL = surface_geometry(n1x=3, n2x=4)

    def test_production_split_sizes(self):
        pairs = [AnglePair(-0.7, 0.2), AnglePair(0.1, 0.0), AnglePair(0.4, -0.3)]
        panel, coating = self.GEOMETRY.blocks(pairs)
        assert panel.shape == (3, 8) and coating.shape == (3, 200)
        assert panel.flags.c_contiguous and coating.flags.c_contiguous
        for row, pair in enumerate(pairs):
            one = self.GEOMETRY.blocks([pair])
            np.testing.assert_array_equal(panel[row], one[0][0])
            np.testing.assert_array_equal(coating[row], one[1][0])

    @given(angles_st)
    @settings(max_examples=50)
    def test_recompose_is_exact(self, angles):
        panel, coating = self.SMALL.blocks([angles])
        full = upa_response(self.SMALL.target.surface_geometry, angles, WAVELENGTH)
        np.testing.assert_array_equal(np.concatenate([panel[0], coating[0]]), full)

    @given(angles_st)
    @settings(max_examples=50)
    def test_first_block_equals_subgrid_response(self, angles):
        target = self.SMALL.target
        panel, coating = self.SMALL.blocks([angles])
        np.testing.assert_array_equal(
            panel[0], upa_response(target.irs_geometry, angles, WAVELENGTH))
        # The coating block is the coating sub-grid response shifted by the
        # x-index offset phase of its first column.
        cx = np.cos(angles.elevation) * np.cos(angles.azimuth)
        offset = np.exp(-1j * np.pi * (2 * target.irs_geometry.spacing / WAVELENGTH)
                        * cx * 3)
        np.testing.assert_allclose(
            coating[0], offset * upa_response(target.nirs_geometry, angles, WAVELENGTH),
            atol=1e-12)


class TestCssaResponse:
    GEOM = ArrayGeometry(ArrayKind.CSSA, 5, 5, 0.0125)

    def test_element_count(self):
        assert cssa_responses(self.GEOM, 0.2, 0.1, WAVELENGTH).size == 9

    @given(angles_st)
    @settings(max_examples=50)
    def test_arms_agree_at_shared_device(self, angles):
        # Both arms are phase-referenced to the shared central device, whose
        # entry survives in the x-arm block.
        vec = cssa_responses(self.GEOM, angles.azimuth, angles.elevation, WAVELENGTH)
        assert vec[(self.GEOM.nx - 1) // 2] == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 1.5))
    @settings(max_examples=50)
    def test_arm_swap_consistency(self, azimuth):
        # Swapping the two arms (via the complementary azimuth at zero
        # elevation) permutes the entries but changes none of them.
        geom = ArrayGeometry(ArrayKind.CSSA, 5, 7, 0.0125)
        swapped_geom = ArrayGeometry(ArrayKind.CSSA, 7, 5, 0.0125)
        swapped_az = np.pi / 2 - azimuth
        vec = cssa_responses(geom, azimuth, 0.0, WAVELENGTH)
        swapped = cssa_responses(swapped_geom, swapped_az, 0.0, WAVELENGTH)
        x_arm, y_arm = vec[:5], vec[5:]
        x_arm_sw, y_arm_sw = swapped[:7], swapped[7:]
        np.testing.assert_allclose(x_arm_sw, np.insert(y_arm, 3, 1.0), atol=1e-12)
        np.testing.assert_allclose(np.insert(y_arm_sw, 2, 1.0), x_arm, atol=1e-12)

    def test_rejects_upa_geometry(self):
        with pytest.raises(ValueError):
            cssa_responses(ArrayGeometry(ArrayKind.UPA, 5, 5, 0.0125), 0.0, 0.0, WAVELENGTH)

    @given(angles_st)
    @settings(max_examples=50)
    def test_unit_modulus(self, angles):
        vec = cssa_responses(self.GEOM, angles.azimuth, angles.elevation, WAVELENGTH)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)
