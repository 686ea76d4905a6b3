"""Unit tests for int8/fp8/fp16 storage formats and the registry."""

import numpy as np
import pytest

from repro.quant import (
    FIG4_FORMATS,
    Float16Format,
    Int8GroupFormat,
    RoundingMode,
    available_formats,
    e4m3,
    e5m2,
    get_format,
)


class TestInt8Group:
    def test_bits_per_value_includes_scale(self):
        fmt = Int8GroupFormat(group=32, scale_bits=16)
        assert fmt.bits_per_value == pytest.approx(8.5)

    def test_roundtrip_error_within_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 64))
        fmt = Int8GroupFormat()
        q = fmt.quantize(x)
        amax = np.max(np.abs(x.reshape(4, -1, 32)), axis=-1, keepdims=True)
        step = amax / 127
        err = np.abs(q - x).reshape(4, -1, 32)
        # fp16 storage of the scale adds a small extra tolerance.
        assert np.all(err <= step * 0.505 + 1e-12)

    def test_zero_group_is_exact(self):
        q = Int8GroupFormat().quantize(np.zeros(32))
        assert np.array_equal(q, np.zeros(32))

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            Int8GroupFormat(group=0)

    @pytest.mark.parametrize("seed", range(16))
    def test_stochastic_store_keeps_group_max_on_scale(self, seed):
        # -17 sits 0.06 grid units inside qmax under its fp16 scale; were it
        # rounded stochastically, a step inwards would change the scale the
        # next store derives and re-quantizing would move the value again.
        fmt = Int8GroupFormat(rounding=RoundingMode.STOCHASTIC)
        x = np.array([0.0, 0.0, -17.0])
        q = fmt.quantize(x, rng=np.random.default_rng(seed))
        scale = float(np.float16(17.0 / 127))
        assert q[2] == -127 * scale
        assert np.array_equal(fmt.quantize(q, rng=np.random.default_rng(seed)), q)


class TestMiniFloat:
    def test_e4m3_saturates_at_448(self):
        q = e4m3().quantize(np.array([1e6, -1e6]))
        assert np.array_equal(q, [448.0, -448.0])

    def test_e5m2_saturates_at_57344(self):
        q = e5m2().quantize(np.array([1e9]))
        assert q[0] == 57344.0

    def test_representable_values_are_fixed_points(self):
        fmt = e4m3()
        # 1.5 = 1.100b * 2^0 is representable with 3 mantissa bits.
        vals = np.array([1.5, -0.25, 448.0, 0.0])
        assert np.array_equal(fmt.quantize(vals), vals)

    def test_subnormal_range_has_constant_step(self):
        fmt = e5m2()
        tiny = 2.0**-17  # below min normal 2^-14, step = 2^-16
        q = fmt.quantize(np.array([tiny]))
        assert q[0] in (0.0, 2.0**-16)

    def test_e5m2_swallows_small_addends_nearest(self):
        # The swamping mechanism: 1.0 + eps rounds back to 1.0 when eps is
        # below half an ulp (ulp(1.0) = 2^-2 for 2 mantissa bits).
        fmt = e5m2()
        q = fmt.quantize(np.array([1.0 + 2.0**-4]))
        assert q[0] == 1.0

    def test_stochastic_preserves_small_addends_in_expectation(self):
        fmt = e5m2(rounding=RoundingMode.STOCHASTIC)
        rng = np.random.default_rng(1)
        eps = 2.0**-5
        q = fmt.quantize(np.full(20000, 1.0 + eps), rng=rng)
        assert abs(q.mean() - (1.0 + eps)) < 0.01 * eps + 5e-4


class TestRegistry:
    def test_fig4_formats_all_available(self):
        for name in FIG4_FORMATS:
            assert get_format(name).name == name

    def test_unknown_format_raises_with_choices(self):
        with pytest.raises(KeyError, match="mx8"):
            get_format("bogus")

    def test_available_formats_instantiable(self):
        for name in available_formats():
            fmt = get_format(name)
            assert np.isfinite(fmt.bits_per_value)

    def test_fp16_reference_is_close(self):
        x = np.array([0.1, -3.14159, 1e-3])
        q = Float16Format().quantize(x)
        np.testing.assert_allclose(q, x, rtol=1e-3)
