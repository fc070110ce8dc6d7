"""Free-space path gain of the line-of-sight radar-target channel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irstealth.power_model import path_gain

WAVELENGTH = 0.05


class TestPathGain:
    def test_reference_distance(self):
        gain = path_gain(1.0, 1e-3, WAVELENGTH)
        assert isinstance(gain, complex)
        assert abs(gain) == pytest.approx(0.03162277660168379, rel=1e-12)

    def test_hundred_meters(self):
        gain = path_gain(100.0, 1e-3, WAVELENGTH)
        assert abs(gain) == pytest.approx(3.1622776601683794e-4, rel=1e-12)

    def test_one_wavelength_phase_wraps(self):
        gain = path_gain(WAVELENGTH, 1e-3, WAVELENGTH)
        assert np.angle(gain) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("distance,alpha", [(0.0, 1e-3), (-1.0, 1e-3),
                                                (1.0, 0.0)])
    def test_invalid_inputs(self, distance, alpha):
        with pytest.raises(ValueError):
            path_gain(distance, alpha, WAVELENGTH)

    @given(st.floats(0.1, 1e5), st.floats(1e-6, 1.0))
    def test_magnitude_and_phase_invariants(self, distance, alpha):
        gain = path_gain(distance, alpha, WAVELENGTH)
        assert abs(gain) == pytest.approx(np.sqrt(alpha) / distance, rel=1e-12)
        expected_phase = -2 * np.pi * distance / WAVELENGTH
        assert np.angle(gain) == pytest.approx(
            np.angle(np.exp(1j * expected_phase)), abs=1e-6)
