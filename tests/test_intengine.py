import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from quantcomp.compensate import ChannelAffineParams, identity_compensation
from quantcomp.intengine import (
    EngineError,
    InferenceTrace,
    IntActivationParams,
    accumulator_scale,
    beta_rounding_bound,
    beta_rounding_deviation,
    build_gelu_table,
    decode_multiplier,
    encode_multiplier,
    fixed_point_multiply,
    fuse_layer,
    integer_accumulate,
    requantize,
    round_half_away,
    run_int_model,
)
from quantcomp.quant import QuantParams, code_dtype, quantize_uniform, quantize_weights_per_channel, tensor_params
from quantcomp.refnet import gelu


def _reference_encode(m):
    """The per-multiplier encoding in Python ints, the reference for the array form."""
    frac, exp = math.frexp(m)
    m0 = round(frac * (1 << 31))
    if m0 == 1 << 31:
        m0 >>= 1
        exp += 1
    return m0, 31 - exp


class TestMultiplierEncoding:
    def test_half(self):
        assert encode_multiplier(0.5) == (2**30, 31)

    def test_one(self):
        assert encode_multiplier(1.0) == (2**30, 30)

    def test_roundtrip_relative_error(self):
        for m in (0.3, 1e-4, 7.25, 123.456, 2.0**-20):
            m0, shift = encode_multiplier(m)
            assert 2**30 <= m0 < 2**31
            assert abs(decode_multiplier(m0, shift) - m) <= m * 2.0**-30

    def test_rejects_bad_inputs(self):
        for bad in (0.0, -1.0, float("inf"), float("nan"), 2.0**31):
            with pytest.raises(EngineError):
                encode_multiplier(bad)

    def test_array_call_matches_scalar_calls(self):
        # 1 - 2^-33 rounds its mantissa up to 2^31 and carries into the shift
        m = np.array([[0.3, 1e-4, 7.25], [1 - 2.0**-33, 2.0**-20, 0.999999], [2.0**30 - 1, 3.0 * 2.0**-33, 0.5]])
        m0, shift = encode_multiplier(m)
        assert m0.dtype == shift.dtype == np.int64 and m0.shape == shift.shape == m.shape
        for idx in np.ndindex(m.shape):
            want = _reference_encode(float(m[idx]))
            assert encode_multiplier(float(m[idx])) == want
            assert (int(m0[idx]), int(shift[idx])) == want
        assert encode_multiplier(1 - 2.0**-33) == (2**30, 30)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan"), 2.0**31, 2.0**-40])
    def test_array_call_rejects_what_scalar_rejects(self, bad):
        with pytest.raises(EngineError) as scalar_error:
            encode_multiplier(bad)
        with pytest.raises(EngineError) as array_error:
            encode_multiplier(np.array([0.5, bad, 0.25]))
        assert str(array_error.value) == str(scalar_error.value)

    def test_fixed_point_matches_real_rounding(self):
        rng = np.random.default_rng(0)
        for m in (0.5, 0.3, 1.0, 0.011, 3.7):
            m0, shift = encode_multiplier(m)
            v = rng.integers(-(2**20), 2**20, size=1000)
            got = fixed_point_multiply(v, m0, shift)
            want = round_half_away(v * decode_multiplier(m0, shift))
            assert np.array_equal(got, want.astype(np.int64))

    def test_round_half_away(self):
        x = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.4])
        assert np.array_equal(round_half_away(x), [1, 2, -1, -2, 2, -2])


def simple_layer(w_q, z_w, z_x, z_r, m, bias=None, bits=8, s_x=1.0, s_w=None, s_r=None, alpha=None, beta=None):
    """Hand-assembled FusedLayerParams for kernel-level tests."""
    from quantcomp.intengine import FusedLayerParams

    w_q = np.asarray(w_q)
    c = w_q.shape[0]
    z_w = np.full(c, z_w, dtype=np.int64) if np.isscalar(z_w) else np.asarray(z_w, dtype=np.int64)
    m = np.full(c, m, dtype=np.float64) if np.isscalar(m) else np.asarray(m, dtype=np.float64)
    pairs = [encode_multiplier(v) for v in m]
    bias = np.zeros(c, dtype=np.int64) if bias is None else np.asarray(bias, dtype=np.int64)
    const = -np.int64(z_x) * w_q.reshape(c, -1).astype(np.int64).sum(axis=1) + w_q.reshape(c, -1).shape[
        1
    ] * np.int64(z_x) * z_w
    s_w = np.ones(c) if s_w is None else np.asarray(s_w, dtype=np.float64)
    return FusedLayerParams(
        op_kind="linear",
        w_q=w_q,
        z_w=z_w,
        z_x=z_x,
        z_r=z_r,
        m0=np.array([p[0] for p in pairs], dtype=np.int64),
        shift=np.array([p[1] for p in pairs], dtype=np.int64),
        bias_acc=bias,
        const_acc=const,
        bitwidth=bits,
        w_bits=bits,
        in_bits=bits,
        s_x=s_x,
        s_w=s_w,
        s_r=1.0 if s_r is None else s_r,
        alpha=np.ones(c, dtype=np.float32) if alpha is None else np.asarray(alpha, dtype=np.float32),
        beta_real=beta,
        beta_rounding=beta is None,
    )


class TestAccumulate:
    def test_symmetric_case_is_plain_dot(self):
        w_q = np.array([[1, 2], [3, 4]], dtype=np.int64)
        layer = simple_layer(w_q, z_w=0, z_x=0, z_r=0, m=1.0)
        x = np.array([[5, 6]], dtype=np.uint8)
        acc = integer_accumulate(x, layer)
        assert np.array_equal(acc, [[17, 39]])

    def test_zero_image_input_returns_bias(self):
        rng = np.random.default_rng(1)
        w_q = rng.integers(0, 255, size=(3, 5))
        bias = np.array([7, -9, 11])
        layer = simple_layer(w_q, z_w=rng.integers(0, 255, 3), z_x=100, z_r=0, m=1.0, bias=bias)
        x = np.full((1, 5), 100, dtype=np.uint8)  # x_q == Z_x, real input is zero
        acc = integer_accumulate(x, layer)
        assert np.array_equal(acc[0], bias)

    def test_exact_rational_oracle(self):
        # dequantized real product, evaluated in exact rational arithmetic,
        # divided by S_x*S_W must equal the integer accumulator exactly.
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 4))
        x = rng.uniform(-1, 2, (2, 4))
        w_q, wp = quantize_weights_per_channel(w, 8)
        xp = tensor_params(x, 8)
        x_q = quantize_uniform(x, xp)
        s_x, z_x = xp.scalar()
        layer = simple_layer(
            w_q.astype(np.int64), z_w=wp.zero_points, z_x=z_x, z_r=0, m=1.0, s_x=s_x, s_w=wp.scales
        )
        acc = integer_accumulate(x_q, layer)
        for n in range(2):
            for c in range(3):
                total = Fraction(0)
                fs_x = Fraction(s_x)
                fs_w = Fraction(float(wp.scales[c]))
                for j in range(4):
                    wr = fs_w * (int(w_q[c, j]) - int(wp.zero_points[c]))
                    xr = fs_x * (int(x_q[n, j]) - z_x)
                    total += wr * xr
                assert total / (fs_x * fs_w) == acc[n, c]

    def test_overflow_detection(self):
        w_q = np.full((1, 4), 255, dtype=np.int64)
        layer = simple_layer(w_q, z_w=0, z_x=0, z_r=0, m=1.0, bias=np.array([2**31 - 10]))
        x = np.full((1, 4), 255, dtype=np.uint8)
        with pytest.raises(EngineError, match="overflow"):
            integer_accumulate(x, layer)

    def test_trace_flags_float_inputs(self):
        layer = simple_layer(np.array([[1, 1]]), z_w=0, z_x=0, z_r=0, m=1.0)
        trace = InferenceTrace()
        integer_accumulate(np.array([[1.0, 2.0]]).astype(np.int64), layer, trace=trace)
        assert trace.float_mul_count == 0
        with pytest.raises(EngineError):
            integer_accumulate(np.array([[1.5, 2.5]]), layer, trace=trace)


class TestRequantize:
    def test_named_example(self):
        layer = simple_layer(np.zeros((1, 1), dtype=np.int64), z_w=0, z_x=0, z_r=10, m=0.5)
        assert layer.m0[0] == 2**30 and layer.shift[0] == 31
        out = requantize(np.array([[100]]), layer)
        assert out[0, 0] == 60

    def test_identity_multiplier_is_clip(self):
        layer = simple_layer(np.zeros((1, 1), dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0)
        acc = np.array([[-5, 0, 100, 300]]).reshape(4, 1)
        out = requantize(acc, layer)
        assert np.array_equal(out.ravel(), [0, 0, 100, 255])

    def test_zero_accumulator_gives_zero_point(self):
        layer = simple_layer(np.zeros((1, 1), dtype=np.int64), z_w=0, z_x=0, z_r=42, m=0.37)
        assert requantize(np.array([[0]]), layer)[0, 0] == 42

    @pytest.mark.parametrize("beta", [None, np.zeros(1)])
    def test_float_accumulators_raise_instead_of_truncating(self, beta):
        # 1.7 used to be cast to the accumulator 1 without a word, on both requantize paths
        layer = simple_layer(np.zeros((1, 1), dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, beta=beta)
        with pytest.raises(EngineError, match="float64 accumulators"):
            requantize(np.array([[1.7]]), layer)
        with pytest.raises(EngineError, match="float64 values"):
            fixed_point_multiply(np.array([1.7]), layer.m0, layer.shift)
        assert requantize(np.array([[1]], dtype=np.int32), layer)[0, 0] == 1


class TestFuseLayer:
    def _parts(self, rng, c_in=6, c_out=4, bits=8):
        w = rng.standard_normal((c_out, c_in))
        bias = rng.standard_normal(c_out)
        x = rng.uniform(-1, 1, (32, c_in))
        w_q, wp = quantize_weights_per_channel(w, bits)
        xp = tensor_params(x, bits)
        y = x @ w.T + bias
        yp = tensor_params(y, bits)
        s_x, z_x = xp.scalar()
        s_r, z_r = yp.scalar()
        return (
            w_q,
            bias,
            IntActivationParams(s_x, z_x, bits),
            wp,
            IntActivationParams(s_r, z_r, bits),
            x,
        )

    def test_identity_compensation_reproduces_plain_multiplier(self):
        rng = np.random.default_rng(3)
        w_q, bias, act_in, wp, out, _ = self._parts(rng)
        plain = fuse_layer(w_q, bias, act_in, wp, out, None)
        comp = fuse_layer(w_q, bias, act_in, wp, out, identity_compensation(4))
        assert np.array_equal(plain.m0, comp.m0) and np.array_equal(plain.shift, comp.shift)
        assert np.array_equal(plain.bias_acc, comp.bias_acc)
        want_m = accumulator_scale(act_in.s, wp.scales) / out.s
        assert np.all(np.abs(decode_multiplier(plain.m0, plain.shift) - want_m) <= want_m * 2.0**-31)

    def test_gain_two_doubles_multiplier(self):
        rng = np.random.default_rng(4)
        w_q, bias, act_in, wp, out, _ = self._parts(rng)
        plain = fuse_layer(w_q, np.zeros(4), act_in, wp, out, None)
        comp = ChannelAffineParams(np.full(4, 2.0, np.float32), np.zeros(4, np.float32), np.zeros(4, bool))
        fused = fuse_layer(w_q, np.zeros(4), act_in, wp, out, comp)
        # doubling a multiplier keeps its mantissa and takes one off its shift
        assert np.array_equal(fused.m0, plain.m0) and np.array_equal(fused.shift, plain.shift - 1)
        assert np.array_equal(fused.bias_acc, plain.bias_acc)

    def test_rejects_nonpositive_alpha(self):
        rng = np.random.default_rng(5)
        w_q, bias, act_in, wp, out, _ = self._parts(rng)
        comp = ChannelAffineParams(np.array([1, 1, 1, -2], np.float32), np.zeros(4, np.float32), np.zeros(4, bool))
        with pytest.raises(EngineError, match="positive"):
            fuse_layer(w_q, bias, act_in, wp, out, comp)

    def test_beta_offset_goes_into_bias_acc(self):
        rng = np.random.default_rng(6)
        w_q, bias, act_in, wp, out, _ = self._parts(rng)
        beta = rng.uniform(-0.5, 0.5, 4).astype(np.float32)
        comp = ChannelAffineParams(np.ones(4, np.float32), beta, np.zeros(4, bool))
        plain = fuse_layer(w_q, bias, act_in, wp, out, None)
        fused = fuse_layer(w_q, bias, act_in, wp, out, comp)
        off = np.round(beta.astype(np.float64) / accumulator_scale(act_in.s, wp.scales))
        assert np.array_equal(fused.bias_acc, plain.bias_acc + off.astype(np.int64))

    def test_beta_rounding_bound_holds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w_q, bias, act_in, wp, out, _ = self._parts(rng)
            alpha = rng.uniform(0.2, 3.0, 4).astype(np.float32)
            beta = rng.uniform(-5, 5, 4).astype(np.float32)
            comp = ChannelAffineParams(alpha, beta, np.zeros(4, bool))
            fused = fuse_layer(w_q, bias, act_in, wp, out, comp)
            dev = beta_rounding_deviation(fused, beta)
            assert np.all(dev <= beta_rounding_bound(fused) + 1e-12)

    def test_differential_fused_vs_reference(self):
        # integer path vs requantize(alpha * dequant(acc) + beta): <= 1 step
        rng = np.random.default_rng(8)
        for trial in range(40):
            bits = 4 if trial % 2 == 0 else 8
            c_in = int(rng.integers(4, 12))
            c_out = int(rng.integers(2, 9))
            w = rng.standard_normal((c_out, c_in))
            bias = rng.standard_normal(c_out)
            x = rng.uniform(-1, 1, (16, c_in))
            w_q, wp = quantize_weights_per_channel(w, bits)
            xp = tensor_params(x, bits)
            yp = tensor_params(x @ w.T + bias, bits)
            s_x, z_x = xp.scalar()
            s_r, z_r = yp.scalar()
            act_in = IntActivationParams(s_x, z_x, bits)
            out = IntActivationParams(s_r, z_r, bits)
            alpha = rng.uniform(0.5, 2.0, c_out).astype(np.float32)
            beta = rng.uniform(-1, 1, c_out).astype(np.float32)
            comp = ChannelAffineParams(alpha, beta, np.zeros(c_out, bool))
            fused = fuse_layer(w_q, bias, act_in, wp, out, comp)
            x_q = quantize_uniform(x, xp)
            acc = integer_accumulate(x_q, fused)
            got = requantize(acc, fused).astype(np.int64)
            # reference: exact beta, exact multiplier, on the beta-free accumulator
            plain = fuse_layer(w_q, bias, act_in, wp, out, None)
            acc0 = integer_accumulate(x_q, plain).astype(np.float64)
            y_real = accumulator_scale(s_x, wp.scales)[None, :] * acc0
            ref = np.clip(z_r + round_half_away((alpha * y_real + beta) / s_r), 0, 2**bits - 1)
            assert np.abs(got - ref).max() <= 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        bits=st.integers(2, 8),
        c_in=st.integers(1, 16),
        c_out=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fixedpoint_vs_exact_within_one_step(self, bits, c_in, c_out, seed):
        # the engine's (M0, shift) requantization vs the real multiplier m = alpha S_x S_W / S_r
        rng = np.random.default_rng(seed)
        qmax = 2**bits - 1
        w_q = rng.integers(0, qmax + 1, (c_out, c_in)).astype(code_dtype(bits))
        wp = QuantParams(bits, "per_channel", 2.0 ** rng.uniform(-12, 0, c_out), rng.integers(0, qmax + 1, c_out))
        act_in = IntActivationParams(2.0 ** rng.uniform(-8, 0), int(rng.integers(0, qmax + 1)), bits)
        out = IntActivationParams(2.0 ** rng.uniform(-8, 2), int(rng.integers(0, qmax + 1)), bits)
        alpha = rng.uniform(0.25, 4.0, c_out).astype(np.float32)
        comp = ChannelAffineParams(alpha, np.zeros(c_out, np.float32), np.zeros(c_out, bool))
        fused = fuse_layer(w_q, np.zeros(c_out), act_in, wp, out, comp)
        m = alpha.astype(np.float64) * accumulator_scale(act_in.s, wp.scales) / out.s
        assert np.all(np.abs(decode_multiplier(fused.m0, fused.shift) - m) <= m * 2.0**-31)
        acc = integer_accumulate(rng.integers(0, qmax + 1, (64, c_in)).astype(code_dtype(bits)), fused)
        got = requantize(acc, fused).astype(np.int64)
        want = np.clip(out.z + round_half_away(m[None, :] * acc), 0, qmax)
        assert np.abs(got - want).max() <= 1

    def test_symmetric_weight_specialization(self):
        # Z_W = 0 must flow through the general path unchanged
        rng = np.random.default_rng(11)
        w_q = rng.integers(0, 16, (3, 5)).astype(np.int64)
        general = simple_layer(w_q, z_w=np.zeros(3, dtype=np.int64), z_x=7, z_r=0, m=0.25)
        x = rng.integers(0, 16, (4, 5)).astype(np.uint8)
        acc = integer_accumulate(x, general)
        manual = (x.astype(np.int64) - 7) @ w_q.T
        assert np.array_equal(acc, manual)


def _reference_fixed_point_multiply(v, m0, shift):
    """The abs/where form fixed_point_multiply replaced, kept as its reference."""
    v = np.asarray(v, dtype=np.int64)
    m0 = np.asarray(m0, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    p = v * m0
    nudge = np.int64(1) << (shift - 1)
    mag = (np.abs(p) + nudge) >> shift
    return np.where(p < 0, -mag, mag)


class TestFixedPointMultiplyBranchFree:
    @pytest.mark.parametrize("shift", range(1, 63))
    def test_matches_abs_where_form_at_every_shift(self, shift):
        rng = np.random.default_rng(shift)
        half = 2 ** (shift - 1)
        k = np.arange(-3, 4, dtype=np.int64)
        # exact +-ties (2k+1) * 2^(s-1), their neighbours, zero and random products below 2^62
        ties = (2 * k + 1) * half
        v = np.concatenate([ties, ties - 1, ties + 1, [0, 1, -1], rng.integers(-(2**61), 2**61, 64)])
        v = v[np.abs(v) < 2**62]  # both forms need |p| + 2^(s-1) < 2^63
        got = fixed_point_multiply(v, 1, shift)
        want = _reference_fixed_point_multiply(v, 1, shift)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        # the same ties through a real mantissa: 2^30 * (2k+1) * 2^(s-31) is a tie when s >= 31
        if shift >= 31:
            v30 = (2 * k + 1) * 2 ** (shift - 31)
            v30 = v30[np.abs(v30) < 2**31]
            want30 = _reference_fixed_point_multiply(v30, 2**30, shift)
            assert np.array_equal(fixed_point_multiply(v30, 2**30, shift), want30)

    def test_per_channel_multipliers(self):
        rng = np.random.default_rng(0)
        shift = np.arange(1, 63, dtype=np.int64)
        m0 = rng.integers(2**30, 2**31, shift.size)
        v = rng.integers(-(2**31), 2**31, (50, shift.size))
        v[0] = 0
        v[1] = 2**31 - 1
        v[2] = -(2**31)
        got = fixed_point_multiply(v, m0[None, :], shift[None, :])
        assert np.array_equal(got, _reference_fixed_point_multiply(v, m0[None, :], shift[None, :]))

    def test_scalar_multiplier_on_pool_sums(self):
        # avgpool's use: non-negative sums, one scalar (M0, shift)
        m0, shift = encode_multiplier(0.25)
        sums = np.arange(0, 4 * 255 + 1, dtype=np.int64)
        got = fixed_point_multiply(sums, m0, shift)
        assert np.array_equal(got, _reference_fixed_point_multiply(sums, m0, shift))
        assert np.array_equal(got, np.floor(sums / 4 + 0.5).astype(np.int64))


def _reference_accumulate(x_q, layer):
    """The i64 decomposition the float GEMM replaced: x @ W^T - Z_W * sum(x) + const + bias."""
    x = np.asarray(x_q, dtype=np.int64)
    w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64)
    return x @ w.T - x.sum(axis=1, keepdims=True) * layer.z_w[None, :] + layer.const_acc + layer.bias_acc


def _fused(w_q, z_w, z_x, in_bits, w_bits, bias_acc=0):
    """fuse_layer with unit scales, so the quantized bias is ``bias_acc`` itself."""
    c_out = w_q.shape[0]
    wp = QuantParams(w_bits, "per_channel", np.ones(c_out), z_w)
    return fuse_layer(
        w_q,
        np.full(c_out, float(bias_acc)),
        IntActivationParams(1.0, int(z_x), in_bits),
        wp,
        IntActivationParams(1.0, 0, 8),
    )


class TestExactAccumulate:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        in_bits=st.integers(2, 16),
        w_bits=st.integers(2, 8),
        fan_in=st.integers(1, 300),
        c_out=st.integers(1, 8),
        n=st.integers(1, 16),
        fill=st.sampled_from(["random", "zeros", "qmax"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_int64_formula(self, in_bits, w_bits, fan_in, c_out, n, fill, seed):
        rng = np.random.default_rng(seed)
        qx, qw = 2**in_bits - 1, 2**w_bits - 1
        w_q = rng.integers(0, qw + 1, (c_out, fan_in)).astype(code_dtype(w_bits))
        z_w = rng.integers(0, qw + 1, c_out)
        z_x = int(rng.integers(0, qx + 1))
        w_sum = int(np.abs(w_q.astype(np.int64) - z_w[:, None]).sum(axis=1).max())
        assume(w_sum * max(z_x, qx - z_x) + 1000 <= 2**31 - 1)  # else fuse_layer rejects the layer
        layer = _fused(w_q, z_w, z_x, in_bits, w_bits, bias_acc=int(rng.integers(-1000, 1001)))
        # the GEMM width follows the reach, and both sides of 2^24 are drawn
        f32 = w_sum * qx <= 2**24
        event("f32 GEMM" if f32 else "f64 GEMM")
        assert layer.w_centred.dtype == (np.float32 if f32 else np.float64)
        if fill == "random":
            x = rng.integers(0, qx + 1, (n, fan_in))
        else:
            x = np.full((n, fan_in), 0 if fill == "zeros" else qx)
        x = x.astype(code_dtype(in_bits))
        trace = InferenceTrace()
        got = integer_accumulate(x, layer, trace=trace)
        assert got.dtype == np.int32
        assert np.array_equal(got, _reference_accumulate(x, layer))
        assert trace.float_mul_count == 0 and trace.gemm_macs == n * c_out * fan_in

    @pytest.mark.parametrize("sign", [1, -1])
    def test_layer_at_the_reach_limit(self, sign):
        # w8a8 with |W_q - Z_W| = 255 and Z_x = 0: reach = 255 * 255 * fan_in
        fan_in = (2**31 - 1) // (255 * 255)
        w_q = np.full((1, fan_in), 255 if sign > 0 else 0, dtype=np.uint8)
        z_w = np.array([0 if sign > 0 else 255])
        slack = 2**31 - 1 - 255 * 255 * fan_in
        layer = _fused(w_q, z_w, 0, 8, 8, bias_acc=sign * slack)
        x = np.full((2, fan_in), 255, dtype=np.uint8)
        x[1] = 0
        got = integer_accumulate(x, layer)
        want = _reference_accumulate(x, layer)
        assert np.array_equal(got, want)
        assert got[0, 0] == sign * (2**31 - 1)
        with pytest.raises(EngineError, match="overflow i32"):
            _fused(np.concatenate([w_q, w_q[:, :1]], axis=1), z_w, 0, 8, 8)

    def test_gemm_width_switches_to_f64_just_past_2_24(self):
        # 1-bit inputs: the reach is sum_j |W_q - Z_W| itself
        x = np.ones((1, 2), dtype=np.uint8)
        at = simple_layer(np.array([[2**23, 2**23]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1)
        assert at.w_centred.dtype == np.float32
        assert integer_accumulate(x, at)[0, 0] == 2**24
        past = simple_layer(np.array([[2**23, 2**23 + 1]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1)
        assert past.w_centred.dtype == np.float64
        assert integer_accumulate(x, past)[0, 0] == 2**24 + 1
        # 2^24 + 1 is no f32 value: an f32 GEMM on this layer would round to 2^24
        assert (x.astype(np.float32) @ past.w_centred.astype(np.float32).T)[0, 0] == 2**24

    def test_hand_built_layer_past_2_53_raises(self):
        # 1-bit inputs: the bound is sum_j |W_q - Z_W| itself
        ok = simple_layer(np.array([[2**52, 2**52 - 1]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1)
        assert ok.w_centred.tolist() == [[2.0**52, 2.0**52 - 1]]
        bad = simple_layer(np.array([[2**52, 2**52]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1)
        with pytest.raises(EngineError, match="2\\^53"):
            integer_accumulate(np.zeros((1, 2), dtype=np.uint8), bad)
        wide = simple_layer(np.full((1, 4), 2**40, dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=16)
        with pytest.raises(EngineError, match="2\\^53"):
            integer_accumulate(np.zeros((1, 4), dtype=np.uint16), wide)


class TestGeluTable:
    def test_table_matches_real_gelu_on_grid(self):
        s, z, bits = 0.05, 40, 8
        table = build_gelu_table(s, z, bits)
        codes = np.arange(256)
        real = gelu((codes - z) * s)
        recon = (table.astype(np.float64) - z) * s
        assert np.abs(recon - real).max() <= s / 2 + 1e-9

    def test_determinism(self):
        a = build_gelu_table(0.1, 10, 4)
        b = build_gelu_table(0.1, 10, 4)
        assert np.array_equal(a, b)


class TestFusionSectionOwner:
    def _fused(self):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.refnet import build_mlp

        m = build_mlp((4, 6, 3), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((32, 4)).astype(np.float32)
        return fuse_model(calibrate_model(m, CalibrationConfig(sample_count=32, weight_bits=4, act_bits=4), x))

    @pytest.mark.parametrize("field", ["m0", "bias_acc", "out_bits"])
    def test_missing_field_is_engine_error(self, field):
        from quantcomp.intengine import EngineError, fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        del manifest["fusion"]["entries"][0][field]
        with pytest.raises(EngineError, match=f"malformed fusion section: KeyError '{field}'"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    def test_window_keys_optional_on_read(self):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        for key in ("kernel", "stride", "pad"):
            del manifest["fusion"]["entries"][0][key]
        layer = fused_runtime(ModelBundle(manifest, fused.blobs)).entries[0].layer
        assert (layer.kernel, layer.stride, layer.pad) == (0, 1, 0)

    def test_malformed_value_is_engine_error(self):
        from quantcomp.intengine import EngineError, fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        manifest["fusion"]["entries"][0]["m0"] = [[1], [2, 3]]
        with pytest.raises(EngineError, match="malformed fusion section"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    @pytest.mark.parametrize("field", ["m0", "shift", "w_scales", "w_zero_points", "alpha", "beta"])
    def test_short_per_channel_list_fails_at_load(self, field):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        entry = manifest["fusion"]["entries"][0]
        assert len(entry[field]) == 6
        entry[field] = entry[field][:2]
        with pytest.raises(EngineError, match=f"layer 0: .* has shape \\(2,\\), layer has 6 output channels"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    @pytest.mark.parametrize("field, value", [("m0", 2**29), ("m0", 2**40), ("shift", 0), ("shift", 70)])
    def test_multiplier_outside_encoding_fails_at_load(self, field, value):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        manifest["fusion"]["entries"][0][field] = [value] * 6
        with pytest.raises(EngineError, match="layer 0: multiplier"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    def test_multiplier_with_shift_zero_fails_at_build(self):
        from quantcomp.intengine import FusedEntry, FusedModel

        # encode_multiplier emits shift 0 for m just below 2^30, which fixed_point_multiply cannot round
        grid = IntActivationParams(1.0, 0, 8)
        wp = QuantParams(8, "per_channel", np.ones(1), np.zeros(1))
        out = IntActivationParams(2.0**-30 / (1 - 2.0**-40), 0, 8)
        layer = fuse_layer(np.zeros((1, 1), dtype=np.uint8), np.zeros(1), grid, wp, out)
        assert (layer.m0[0], layer.shift[0]) == (2**30, 0)
        with pytest.raises(EngineError, match="layer 0: multiplier"):
            FusedModel(grid, [FusedEntry("param", layer=layer)], out)
        pool = FusedEntry("avgpool", kernel=2, stride=2, pool_m0=2**30, pool_shift=0)
        with pytest.raises(EngineError, match="layer 0: multiplier"):
            FusedModel(grid, [pool], grid)

    @pytest.mark.parametrize(
        "entry, key, delta",
        [(0, "z_x", 0.9), (0, "m0", 0.9), (0, "w_zero_points", 0.5), (1, "z", 0.25), (2, "out_bits", 0.5)],
    )
    def test_non_integral_number_in_integer_key_fails_at_load(self, entry, key, delta):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        # before, int() truncated these: z_x 8.9 loaded as 8 and ran unchanged logits
        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        record = manifest["fusion"]["entries"][entry]
        if isinstance(record[key], list):
            record[key][0] += delta
        else:
            record[key] += delta
        with pytest.raises(EngineError, match=f"layer {entry}: {key} must hold integers"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    def test_integral_floats_in_integer_keys_load(self):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        for record in manifest["fusion"]["entries"]:
            for key in ("z_x", "m0", "shift", "z"):
                if key in record:
                    record[key] = np.asarray(record[key], dtype=np.float64).tolist()
        for grid in (manifest["fusion"]["input"], manifest["fusion"]["output"]):
            grid["zero_point"], grid["bitwidth"] = float(grid["zero_point"]), float(grid["bitwidth"])
        got, want = fused_runtime(ModelBundle(manifest, fused.blobs)), fused_runtime(fused)
        x = np.random.default_rng(2).standard_normal((16, 4)).astype(np.float32)
        assert got.entries[0].layer.m0.dtype == np.int64 and got.entries[1].z == want.entries[1].z
        assert run_int_model(got, x)[0].tobytes() == run_int_model(want, x)[0].tobytes()

    @pytest.mark.parametrize(
        "grid, key, value, want",
        [
            ("input", "zero_point", 8.9, "input grid: zero_point must hold integers, got 8.9"),
            ("output", "bitwidth", 4.5, "output grid: bitwidth must hold integers, got 4.5"),
            ("input", "bitwidth", 8, "layer 0: in_bits is 4, but the layer receives 8-bit codes"),
        ],
    )
    def test_bad_grid_fails_at_load(self, grid, key, value, want):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        # before, int() read zero_point 8.9 as 8 and bitwidth 4.5 as 4
        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        manifest["fusion"][grid][key] = value
        with pytest.raises(EngineError, match=want):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_beta_rounding_must_be_a_json_bool(self, flag):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        # before, bool("false") loaded as True
        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        manifest["fusion"]["beta_rounding"] = flag
        with pytest.raises(EngineError, match=f"fusion beta_rounding must be true or false, got {flag!r}"):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    @pytest.mark.parametrize("blob", ["layer0.wq", "layer0.bias_acc"])
    def test_float_blob_fails_at_load(self, blob):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        blobs = dict(fused.blobs, **{blob: fused.blobs[blob].astype(np.float32)})
        with pytest.raises(EngineError):
            fused_runtime(ModelBundle(fused.manifest, blobs))

    @pytest.mark.parametrize("table", ["short", "float", "out_of_range"])
    def test_bad_gelu_table_fails_at_build(self, table):
        from quantcomp.calibrate import build_fused_model, quantize_model
        from quantcomp.intengine import FusedModel
        from quantcomp.refnet import build_mlp

        m = build_mlp((4, 6, 3), activation="gelu", rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((32, 4)).astype(np.float32)
        model = build_fused_model(quantize_model(m, x, 4, 4))
        gelu_entry = model.entries[1]
        assert gelu_entry.kind == "gelu" and gelu_entry.lut.shape == (16,)
        gelu_entry.lut = {
            "short": gelu_entry.lut[:8],
            "float": gelu_entry.lut.astype(np.float64),
            "out_of_range": np.full(16, 16, dtype=np.uint8),
        }[table]
        with pytest.raises(EngineError, match="layer 1: gelu table"):
            FusedModel(model.input_params, model.entries, model.output_params)

    def test_float_weight_codes_fail_in_build_fused_model(self):
        from quantcomp.calibrate import build_fused_model, quantize_model
        from quantcomp.refnet import ModelBundle, build_mlp

        m = build_mlp((4, 6, 3), rng=np.random.default_rng(0))
        q = quantize_model(m, np.random.default_rng(1).standard_normal((32, 4)).astype(np.float32), 4, 4)
        blobs = dict(q.blobs, **{"layer0.wq": q.blobs["layer0.wq"].astype(np.float32)})
        with pytest.raises(EngineError, match="layer 0: weight codes are float32"):
            build_fused_model(ModelBundle(q.manifest, blobs))

    def _fused_conv(self):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.refnet import LayerSpec, build_from_layers

        rng = np.random.default_rng(0)
        w_conv = rng.standard_normal((2, 1, 3, 3)).astype(np.float32)
        w_fc = rng.standard_normal((3, 8)).astype(np.float32)
        layers = [
            LayerSpec("conv2d", 1, 2, weight=w_conv, bias=np.zeros(2, np.float32), kernel=3, pad=1),
            LayerSpec("avgpool", kernel=2, stride=2),
            LayerSpec("flatten"),
            LayerSpec("linear", 8, 3, weight=w_fc, bias=np.zeros(3, np.float32)),
        ]
        x = rng.standard_normal((32, 1, 4, 4)).astype(np.float32)
        return fuse_model(calibrate_model(build_from_layers(layers, (1, 4, 4)), CalibrationConfig(sample_count=32), x))

    @pytest.mark.parametrize(
        "entry, field, value, want",
        [
            (0, "op_kind", "dense", "layer 0: param op_kind must be one of"),
            (0, "stride", 0, "layer 0: conv2d needs kernel >= 1, stride >= 1, pad >= 0; got 3, 0, 1"),
            (0, "kernel", 0, "layer 0: conv2d needs"),
            (0, "pad", -1, "layer 0: conv2d needs"),
            (1, "stride", 0, "layer 1: avgpool needs kernel >= 1, stride >= 1, pad >= 0; got 2, 0, 0"),
            (1, "kernel", 0, "layer 1: avgpool needs"),
            (1, "kind", "maxpool", "layer 1: unknown fused entry kind 'maxpool'"),
            # a narrower in_bits lets w_centred pick f32 on a reach it understates
            (0, "in_bits", 2, "layer 0: in_bits is 2, but the layer receives 8-bit codes"),
            (0, "out_bits", 4, "layer 3: in_bits is 8, but the layer receives 4-bit codes"),
            (3, "out_bits", 4, "output grid is 8-bit, but the last layer writes 4-bit codes"),
        ],
    )
    def test_bad_record_fails_at_load(self, entry, field, value, want):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused_conv()
        manifest = json.loads(json.dumps(fused.manifest))
        manifest["fusion"]["entries"][entry][field] = value
        with pytest.raises(EngineError, match=want):
            fused_runtime(ModelBundle(manifest, fused.blobs))

    def test_non_finite_input_is_quant_error(self):
        from quantcomp.intengine import fused_runtime, run_int_model
        from quantcomp.quant import QuantError

        model = fused_runtime(self._fused())
        x = np.zeros((3, 4), dtype=np.float32)
        x[1, 2] = np.nan
        with pytest.raises(QuantError, match="non-finite"):
            run_int_model(model, x)

    def test_input_grid_built_once(self):
        from quantcomp.intengine import IntActivationParams

        p = IntActivationParams(0.5, 3, 8)
        assert p.quant_params is p.quant_params
        assert p.quant_params.scalar() == (0.5, 3) and p.quant_params.bitwidth == 8


def _nchw_reference(model, x):
    """The integer forward on NCHW codes with (C, k, k) patches and exact i64 GEMMs, the engine's old layout."""
    from quantcomp.refnet import im2col

    x_q = quantize_uniform(np.asarray(x, dtype=np.float32), model.input_params.quant_params)
    for e in model.entries:
        if e.kind == "param":
            layer = e.layer
            w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
            if layer.op_kind == "linear":
                rows = x_q
            else:
                cols, h_out, w_out = im2col(x_q, layer.kernel, layer.stride, layer.pad, pad_value=layer.z_x)
                rows = cols.reshape(-1, cols.shape[2])
            r = requantize(rows.astype(np.int64) @ w.T + layer.const_acc + layer.bias_acc, layer)
            if layer.op_kind == "conv2d":
                r = np.moveaxis(r.reshape(x_q.shape[0], h_out, w_out, -1), 3, 1)
            x_q = r
        elif e.kind == "relu":
            x_q = np.maximum(x_q, e.z).astype(x_q.dtype)
        elif e.kind == "gelu":
            x_q = e.lut[x_q]
        elif e.kind == "avgpool":
            cols, h_out, w_out = im2col(x_q, e.kernel, e.stride, 0)
            n, c = x_q.shape[:2]
            sums = cols.reshape(n, h_out * w_out, c, e.kernel**2).sum(axis=3, dtype=np.int64)
            pooled = fixed_point_multiply(sums, e.pool_m0, e.pool_shift).astype(x_q.dtype)
            x_q = np.moveaxis(pooled.reshape(n, h_out, w_out, c), 3, 1)
        elif e.kind == "flatten":
            x_q = x_q.reshape(x_q.shape[0], -1)
    p = model.output_params
    return ((x_q.astype(np.float64) - p.z) * p.s).astype(np.float32)


@st.composite
def _conv_graphs(draw):
    """(layers, input shape, weight bits, activation bits, seed) of a small float conv net:
    1-2 conv2d, each maybe followed by relu or gelu, maybe an avgpool, then nothing,
    a flatten, or flatten + linear; bits in 2..8."""
    from quantcomp.refnet import LayerSpec

    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.integers(3, 6))
    shape, layers = (c, h, w), []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, min(3, h, w)))
        s, p, c_out = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
        weight = (rng.standard_normal((c_out, c, k, k)) * 0.5).astype(np.float32)
        bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
        layers.append(LayerSpec("conv2d", c, c_out, weight=weight, bias=bias, kernel=k, stride=s, pad=p))
        c, h, w = c_out, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        act = draw(st.sampled_from([None, "relu", "gelu"]))
        if act:
            layers.append(LayerSpec(act))
    if draw(st.booleans()):
        k, s = draw(st.integers(1, min(2, h, w))), draw(st.integers(1, 2))
        layers.append(LayerSpec("avgpool", kernel=k, stride=s))
        h, w = (h - k) // s + 1, (w - k) // s + 1
    tail = draw(st.sampled_from(["none", "flatten", "linear"]))
    if tail != "none":
        layers.append(LayerSpec("flatten"))
    if tail == "linear":
        c_out = draw(st.integers(1, 4))
        weight = (rng.standard_normal((c_out, c * h * w)) * 0.3).astype(np.float32)
        layers.append(LayerSpec("linear", c * h * w, c_out, weight=weight, bias=np.zeros(c_out, np.float32)))
    return layers, shape, draw(st.integers(2, 8)), draw(st.integers(2, 8)), seed


class TestChannelsLastEngine:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(_conv_graphs())
    def test_matches_nchw_oracles(self, graph):
        from quantcomp import intengine
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, compensation_params, fuse_model, sim_forward
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers, im2col, validate_bundle

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 1])
        model_f = build_from_layers(layers, shape)
        out_shape = validate_bundle(model_f)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        x = rng.standard_normal((5,) + shape).astype(np.float32)
        convs = [i for i, spec in enumerate(layers) if spec.op_kind == "conv2d"]
        for rounding in (True, False):
            model = fused_runtime(fuse_model(comp, beta_rounding=rounding))
            seen = []

            def tap(i, x_q, acc, layer):
                if layer.op_kind == "conv2d":
                    # x_q is NHWC; the oracle builds (C, k, k) patches from its NCHW view
                    assert x_q.ndim == 4 and x_q.shape[3] == layer.w_q.shape[1]
                    cols, _, _ = im2col(x_q.transpose(0, 3, 1, 2), layer.kernel, layer.stride, layer.pad, layer.z_x)
                    w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
                    want = cols.reshape(-1, cols.shape[2]).astype(np.int64) @ w.T + layer.const_acc + layer.bias_acc
                    assert acc.dtype == np.int32 and np.array_equal(acc, want)
                    seen.append(i)
                return layer

            got = intengine._interpret(model, x, InferenceTrace(), tap=tap)
            assert seen == convs
            assert got.shape == (5,) + out_shape  # NCHW when no flatten follows the last conv or avgpool
            assert got.tobytes() == _nchw_reference(model, x).tobytes()
            if not rounding:
                sim, _, _ = sim_forward(comp, x, compensation_params(comp))
                assert sim.tobytes() == got.tobytes()
