"""Unit tests for the DRAM energy coefficients."""

import pytest

from repro.dram.energy import DramEnergyParams


class TestParams:
    def test_defaults_follow_oconnor(self):
        p = DramEnergyParams()
        assert p.activate_pj == pytest.approx(909.0)
        assert p.array_pj_per_bit == pytest.approx(1.51)
        assert p.io_pj_per_bit == pytest.approx(0.80)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DramEnergyParams(activate_pj=-1.0)
