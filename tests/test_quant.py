import numpy as np
import pytest

from quantcomp.quant import (
    DEGENERATE_SCALE,
    QuantError,
    QuantParams,
    RangeEstimator,
    _affine_from_bounds,
    code_dtype,
    compute_affine_params,
    dequantize,
    quantize_uniform,
    quantize_weights_per_channel,
    tensor_params,
)


class TestAffineParams:
    def test_full_byte_range(self):
        x = np.array([0.0, 255.0])
        s, z = compute_affine_params(x, 8)
        assert s == 1.0 and z == 0

    def test_two_bit_symmetric_range(self):
        # range [-1, 1], b=2: s = 2/3, z = round(1.5) = 2 under half-to-even
        s, z = compute_affine_params(np.array([-1.0, 1.0]), 2)
        assert np.isclose(s, 2.0 / 3.0)
        assert z == 2

    def test_constant_tensor_dequantizes_exactly(self):
        # the range widens to [0, 3.25], so the constant is the top code
        x = np.full(10, 3.25, dtype=np.float32)
        p = tensor_params(x, 8)
        assert p.scalar() == (3.25 / 255, 0)
        assert np.array_equal(dequantize(quantize_uniform(x, p), p), x)

    def test_constant_negative(self):
        x = np.full(10, -3.25, dtype=np.float32)
        p = tensor_params(x, 4)
        assert p.zero_points[0] == 15
        assert np.array_equal(dequantize(quantize_uniform(x, p), p), x)

    def test_all_zero_tensor_takes_the_degenerate_scale(self):
        x = np.zeros(4, dtype=np.float32)
        p = tensor_params(x, 8)
        assert p.scalar() == (DEGENERATE_SCALE, 0)
        assert np.array_equal(dequantize(quantize_uniform(x, p), p), x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_quant_error(self, bad):
        # NaN used to raise a bare ValueError from int(), and inf gave the grid (inf, 0)
        with pytest.raises(QuantError, match="non-finite range"):
            compute_affine_params(np.array([0.5, bad, -1.0]), 8)

    def test_empty_and_narrow_errors(self):
        with pytest.raises(QuantError):
            compute_affine_params(np.array([]), 8)
        with pytest.raises(QuantError):
            compute_affine_params(np.array([1.0]), 1)

    def test_percentile_equals_minmax_at_one(self):
        x = np.random.default_rng(0).standard_normal(500)
        assert compute_affine_params(x, 8, RangeEstimator("percentile", 1.0)) == compute_affine_params(x, 8)

    def test_percentile_clips_outliers(self):
        x = np.concatenate([np.random.default_rng(1).uniform(-1, 1, 1000), [50.0]])
        s_p, _ = compute_affine_params(x, 8, RangeEstimator("percentile", 0.99))
        s_m, _ = compute_affine_params(x, 8)
        assert s_p < s_m / 10

    def test_percentile_validation(self):
        with pytest.raises(QuantError):
            RangeEstimator("percentile", 0.4)
        with pytest.raises(QuantError):
            RangeEstimator("median")


class TestQuantizeDequantize:
    def test_half_point_rounds_even(self):
        p = QuantParams(8, "per_tensor", [1.0 / 255.0], [0])
        assert quantize_uniform(np.array([0.5]), p)[0] == 128

    def test_min_maps_to_zero_any_bits(self):
        rng = np.random.default_rng(2)
        for b in (2, 4, 8):
            x = rng.uniform(-3, 5, 100)
            p = tensor_params(x, b)
            assert quantize_uniform(np.array([x.min()]), p)[0] == 0

    def test_clip_saturates(self):
        p = tensor_params(np.array([0.0, 1.0]), 4)
        assert quantize_uniform(np.array([99.0]), p)[0] == 15
        assert quantize_uniform(np.array([-99.0]), p)[0] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        p = tensor_params(np.array([0.0, 1.0]), 8)
        with pytest.raises(QuantError, match="non-finite"):
            quantize_uniform(np.array([0.5, bad]), p)

    def test_zero_point_dequantizes_to_zero(self):
        p = tensor_params(np.array([-2.0, 2.0]), 8)
        _, z = p.scalar()
        assert dequantize(np.array([z]), p)[0] == 0.0

    def test_named_dequant_value(self):
        p = QuantParams(8, "per_tensor", [1.0 / 255.0], [0])
        assert np.isclose(dequantize(np.array([128]), p)[0], 128.0 / 255.0)

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(3)
        for b in (2, 4, 8):
            x = rng.uniform(-1.5, 2.5, 1000)
            p = tensor_params(x, b)
            s, _ = p.scalar()
            err = np.abs(x - dequantize(quantize_uniform(x, p), p))
            assert err.max() <= s / 2 + 1e-6

    def test_monotonicity(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(-4, 4, 400))
        p = tensor_params(x, 4)
        q = quantize_uniform(x, p).astype(np.int64)
        assert np.all(np.diff(q) >= 0)

    def test_grid_exactness(self):
        p = tensor_params(np.array([-1.0, 1.0]), 6)
        s, z = p.scalar()
        codes = np.arange(1, 2**6 - 1)
        x = (codes - z) * np.float32(s)
        assert np.array_equal(quantize_uniform(x, p).astype(np.int64), codes)

    def test_output_dtype_narrowest(self):
        assert code_dtype(8) == np.dtype("u1")
        assert code_dtype(4) == np.dtype("u1")
        assert code_dtype(12) == np.dtype("<u2")
        p = tensor_params(np.array([0.0, 1.0]), 12)
        assert quantize_uniform(np.array([0.5]), p).dtype == np.dtype("<u2")

    def test_scheme_shape_mismatch(self):
        p = QuantParams(8, "per_channel", [1.0, 1.0], [0, 0])
        with pytest.raises(QuantError):
            quantize_uniform(np.zeros((3, 4)), p)

    @pytest.mark.parametrize("bits", [2, 4, 8, 12, 16])
    def test_per_tensor_grid_gives_the_scalar_formula_bytes(self, bits):
        # the per-tensor s and z reach the ufuncs as 0-d f64 arrays; codes and values are
        # byte for byte those of the formula on the numpy scalars scales[0] and zero_points[0]
        rng = np.random.default_rng(bits)
        x = np.concatenate([rng.normal(0.5, 3.0, 200), [0.0, -0.0, 1e6, -1e6]])
        p = tensor_params(x[:200], bits)
        s, z = p.scales[0], p.zero_points[0]
        want = np.clip(np.rint(x / s) + z, 0, p.qmax).astype(code_dtype(bits))
        got = quantize_uniform(x, p)
        assert got.dtype == code_dtype(bits) and got.tobytes() == want.tobytes()
        want_x = ((want.astype(np.float64) - z) * s).astype(np.float32)
        assert dequantize(got, p).tobytes() == want_x.tobytes()
        for i in (0, 1, 201, 203):  # a 0-d input keeps its shape: a shape-() code array
            for v in (x[i], np.array(x[i]), float(x[i])):
                code = quantize_uniform(v, p)
                assert isinstance(code, np.ndarray) and code.shape == () and code.dtype == code_dtype(bits)
                assert code == want[i]
                back = dequantize(code, p)
                assert back.shape == () and back.dtype == np.float32 and back.tobytes() == want_x[i].tobytes()


class TestPerChannelWeights:
    def test_distinct_ranges_get_distinct_scales(self):
        w = np.stack([np.linspace(-0.5, 0.5, 8), np.linspace(-10, 30, 8)])
        codes, p = quantize_weights_per_channel(w, 8)
        assert p.scales[0] != p.scales[1]
        assert codes[0, 0] == 0 and codes[1, 0] == 0  # each channel min -> 0

    def test_identical_channels_identical_params(self):
        row = np.linspace(-2, 3, 10)
        codes, p = quantize_weights_per_channel(np.stack([row, row]), 4)
        assert p.scales[0] == p.scales[1] and p.zero_points[0] == p.zero_points[1]
        assert np.array_equal(codes[0], codes[1])

    def test_per_channel_beats_per_tensor_mse(self):
        # brute-force oracle: reconstruct under both schemes and compare MSE
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 8)) * np.array([[0.1], [1.0], [5.0], [0.5]])
        codes_c, pc = quantize_weights_per_channel(w, 4)
        recon_c = dequantize(codes_c, pc)
        pt = tensor_params(w, 4)
        recon_t = dequantize(quantize_uniform(w, pt), pt)
        assert np.mean((w - recon_c) ** 2) <= np.mean((w - recon_t) ** 2)

    def test_conv_weights_channel_axis(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 2, 3, 3))
        codes, p = quantize_weights_per_channel(w, 8)
        assert codes.shape == w.shape and len(p.scales) == 3

    def test_needs_leading_channel_dim(self):
        with pytest.raises(QuantError):
            quantize_weights_per_channel(np.zeros(4), 8)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_scalar_bounds_channel_by_channel(self, bits):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((6, 2, 3, 3)) * rng.uniform(0.01, 4.0, (6, 1, 1, 1))
        w[3] = 0.7  # a constant channel
        codes, p = quantize_weights_per_channel(w, bits)
        for c in range(6):
            s, z = _affine_from_bounds(float(w[c].min()), float(w[c].max()), bits)
            assert p.scales[c] == s and p.zero_points[c] == z
        assert np.all(dequantize(codes, p)[3] == np.float32(0.7))  # a constant value dequantizes exactly
        # codes and values byte for byte those of the formula on the broadcast per-channel arrays
        s, z = p.scales.reshape(-1, 1, 1, 1), p.zero_points.reshape(-1, 1, 1, 1)
        want = np.clip(np.rint(w / s) + z, 0, p.qmax).astype(code_dtype(bits))
        assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()
        assert dequantize(codes, p).tobytes() == ((want.astype(np.float64) - z) * s).astype(np.float32).tobytes()

    def test_one_signed_and_constant_channels_keep_their_values(self):
        # the grid used to span only [min, max]: 0.5 came back as 0.400 and the constant 0.24 as 0.000243
        w = np.array([[0.1, 0.3, 0.5], [0.24, 0.24, 0.24], [-0.6, -0.6, -0.6]])
        codes, p = quantize_weights_per_channel(w, 8)
        recon = dequantize(codes, p)
        assert recon[0, 2] == np.float32(0.5) and np.all(np.abs(recon[0] - w[0]) <= p.scales[0] / 2)
        assert np.array_equal(recon[1:], w[1:].astype(np.float32))

    def test_rejects_non_finite_weights(self):
        w = np.ones((2, 3))
        w[1, 2] = np.nan
        with pytest.raises(QuantError, match="non-finite"):
            quantize_weights_per_channel(w, 8)

