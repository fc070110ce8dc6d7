import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irstealth.arrays import (AnglePair, ArrayGeometry, ArrayKind, cssa_response,
                              split_ts_response, steer_1d, upa_response)

WAVELENGTH = 0.05
QUARTER = ArrayGeometry(ArrayKind.UPA, 2, 2, WAVELENGTH / 4)

angles_st = st.builds(AnglePair,
                      st.floats(-1.5, 1.5),
                      st.floats(-1.5, 1.5))


class TestSteer1d:
    def test_zero_phase_gives_ones(self):
        np.testing.assert_array_equal(steer_1d(0.0, 4), np.ones(4))

    def test_half_turn(self):
        np.testing.assert_allclose(steer_1d(1.0, 2), [1.0, -1.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(steer_1d(0.5, 3), [1.0, -1.0j, -1.0],
                                   atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            steer_1d(0.3, 0)

    @given(st.floats(-4.0, 4.0), st.integers(1, 64))
    def test_unit_modulus_and_leading_one(self, phi, n):
        vec = steer_1d(phi, n)
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
        want = np.kron(steer_1d(scale * cx, 3), steer_1d(scale * cy, 4))
        np.testing.assert_array_equal(upa_response(geom, angles, WAVELENGTH), want)

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


class TestSplitTsResponse:
    def test_no_second_block(self):
        full = upa_response(ArrayGeometry(ArrayKind.UPA, 4, 2, 0.0125),
                            AnglePair(0.4, 0.0), WAVELENGTH)
        head, tail = split_ts_response(full, 4, 0, 2)
        np.testing.assert_array_equal(head, full)
        assert tail.size == 0

    def test_production_split_sizes(self):
        geom = ArrayGeometry(ArrayKind.UPA, 104, 2, 0.0125)
        full = upa_response(geom, AnglePair(-0.7, 0.2), WAVELENGTH)
        head, tail = split_ts_response(full, 4, 100, 2)
        assert head.size == 8 and tail.size == 200

    @given(angles_st)
    @settings(max_examples=50)
    def test_recompose_is_exact(self, angles):
        geom = ArrayGeometry(ArrayKind.UPA, 3, 2, 0.0125)
        full = upa_response(geom, angles, WAVELENGTH)
        head, tail = split_ts_response(full, 1, 2, 2)
        np.testing.assert_array_equal(np.concatenate([head, tail]), full)

    @given(angles_st)
    @settings(max_examples=50)
    def test_first_block_equals_subgrid_response(self, angles):
        geom = ArrayGeometry(ArrayKind.UPA, 7, 2, 0.0125)
        full = upa_response(geom, angles, WAVELENGTH)
        head, tail = split_ts_response(full, 3, 4, 2)
        sub = upa_response(ArrayGeometry(ArrayKind.UPA, 3, 2, 0.0125), angles,
                           WAVELENGTH)
        np.testing.assert_array_equal(head, sub)
        # The second block is the sub-grid response shifted by the x-index
        # offset phase of its first column.
        cx = np.cos(angles.elevation) * np.cos(angles.azimuth)
        offset = np.exp(-1j * np.pi * (2 * geom.spacing / WAVELENGTH) * cx * 3)
        sub2 = upa_response(ArrayGeometry(ArrayKind.UPA, 4, 2, 0.0125), angles,
                            WAVELENGTH)
        np.testing.assert_allclose(tail, offset * sub2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            split_ts_response(np.ones(10), 2, 2, 2)


class TestCssaResponse:
    GEOM = ArrayGeometry(ArrayKind.CSSA, 5, 5, 0.0125)

    def test_element_count(self):
        assert cssa_response(self.GEOM, AnglePair(0.2, 0.1), WAVELENGTH).size == 9

    @given(angles_st)
    @settings(max_examples=50)
    def test_arms_agree_at_shared_device(self, angles):
        # Both arms are phase-referenced to the shared central device, whose
        # entry survives in the x-arm block.
        vec = cssa_response(self.GEOM, angles, WAVELENGTH)
        assert vec[(self.GEOM.nx - 1) // 2] == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.05, 1.5))
    @settings(max_examples=50)
    def test_arm_swap_consistency(self, azimuth):
        # Swapping the two arms (via the complementary azimuth at zero
        # elevation) permutes the entries but changes none of them.
        geom = ArrayGeometry(ArrayKind.CSSA, 5, 7, 0.0125)
        swapped_geom = ArrayGeometry(ArrayKind.CSSA, 7, 5, 0.0125)
        swapped_az = np.pi / 2 - azimuth
        vec = cssa_response(geom, AnglePair(azimuth, 0.0), WAVELENGTH)
        swapped = cssa_response(swapped_geom, AnglePair(swapped_az, 0.0),
                                WAVELENGTH)
        x_arm, y_arm = vec[:5], vec[5:]
        x_arm_sw, y_arm_sw = swapped[:7], swapped[7:]
        np.testing.assert_allclose(x_arm_sw, np.insert(y_arm, 3, 1.0), atol=1e-12)
        np.testing.assert_allclose(np.insert(y_arm_sw, 2, 1.0), x_arm, atol=1e-12)

    def test_rejects_upa_geometry(self):
        with pytest.raises(ValueError):
            cssa_response(ArrayGeometry(ArrayKind.UPA, 5, 5, 0.0125),
                          AnglePair(0.0, 0.0), WAVELENGTH)

    @given(angles_st)
    @settings(max_examples=50)
    def test_unit_modulus(self, angles):
        vec = cssa_response(self.GEOM, angles, WAVELENGTH)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)
