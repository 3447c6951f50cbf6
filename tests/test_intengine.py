import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from quantcomp import intengine, refnet
from quantcomp.compensate import ChannelAffineParams, identity_compensation
from quantcomp.intengine import (
    INT32_MAX,
    INT32_MIN,
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
from strategies import graphs, im2col_loop


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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False)
            | st.integers(-(2**52), 2**52 - 1).map(lambda k: k + 0.5)  # ties +-(k + 0.5), exact below 2^52
            | st.sampled_from([0.0, -0.0, 0.5 - 2**-54, -(0.5 - 2**-54)])
            | st.floats(2.0**52, 2.0**1000).flatmap(lambda a: st.sampled_from([a, -a])),  # already integers
            min_size=1,
            max_size=40,
        )
    )
    def test_round_half_away_is_the_four_temporary_formula_bit_for_bit(self, values):
        # the in-place form against the formula it replaced, sign of zero included
        x = np.array(values)
        want = np.copysign(np.floor(np.abs(x) + 0.5), x)
        got = round_half_away(x)
        assert got.dtype == np.float64 and got.shape == x.shape and got.tobytes() == want.tobytes()
        assert round_half_away(x[:1].reshape(())).tobytes() == want[0].tobytes()  # 0-d input


def simple_layer(
    w_q, z_w, z_x, z_r, m, bias=None, bits=8, s_x=1.0, s_w=None, s_r=None, alpha=None, beta=None, w_bits=None, in_bits=None
):
    """Hand-assembled FusedLayerParams for kernel-level tests; ``w_bits`` and ``in_bits`` default to ``bits``."""
    from quantcomp.intengine import FusedLayerParams

    w_q = np.asarray(w_q)
    c = w_q.shape[0]
    z_w = np.full(c, z_w, dtype=np.int64) if np.isscalar(z_w) else np.asarray(z_w, dtype=np.int64)
    m = np.full(c, m, dtype=np.float64) if np.isscalar(m) else np.asarray(m, dtype=np.float64)
    pairs = [encode_multiplier(v) for v in m]
    bias = np.zeros(c, dtype=np.int64) if bias is None else np.asarray(bias, dtype=np.int64)
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
        bitwidth=bits,
        w_bits=bits if w_bits is None else w_bits,
        in_bits=bits if in_bits is None else in_bits,
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
        # W_q - Z_W = 1 on 8-bit codes: the proven bounds [0, 255] hold the accumulator 100
        layer = simple_layer(np.ones((1, 1), dtype=np.int64), z_w=0, z_x=0, z_r=10, m=0.5)
        assert layer.m0[0] == 2**30 and layer.shift[0] == 31
        lo, hi, _ = layer.acc_bounds
        assert lo[0] <= 100 <= hi[0]
        out = requantize(np.array([[100]]), layer)
        assert out[0, 0] == 60

    def test_identity_multiplier_is_clip(self):
        # W_q - Z_W = (2, -1) on 8-bit codes: the proven bounds [-255, 510] hold -5 to 300
        layer = simple_layer(np.array([[3, 0]]), z_w=1, z_x=0, z_r=0, m=1.0)
        acc = np.array([[-5, 0, 100, 300]]).reshape(4, 1)
        lo, hi, _ = layer.acc_bounds
        assert lo[0] <= acc.min() and acc.max() <= hi[0]
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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        bits=st.integers(2, 16),
        log2_m=st.floats(-33, 8),
        z_frac=st.floats(0, 1),
        lo_frac=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(bits=16, log2_m=-33.0, z_frac=1.0, lo_frac=0.0, seed=0)  # shift 63, Z_r at 16-bit qmax
    @example(bits=8, log2_m=-10.0, z_frac=0.5, lo_frac=0.7, seed=0)
    @example(bits=8, log2_m=-1.0, z_frac=0.5, lo_frac=0.0, seed=0)  # shift 31: ties within i32, sign step kept
    @example(bits=4, log2_m=2.0, z_frac=0.2, lo_frac=0.5, seed=0)  # ties within i32, every one clipped to lo
    @example(bits=8, log2_m=-32.0, z_frac=0.5, lo_frac=0.0, seed=0)  # shift - ctz(M0) = 32: INT32_MIN is a tie
    def test_folded_zero_point_and_floor_match_the_plain_form(self, bits, log2_m, z_frac, lo_frac, seed):
        # Z_r rides in the one-shift nudge where the bounds allow that form and is added
        # after the per-channel shifts elsewhere; a relu floor lo is the clip's lower bound;
        # and where requantize skips the sign step, the form that keeps it gives the same codes.
        # The layer's bounds are all of i32, so every accumulator drawn is one it can produce
        qmax = 2**bits - 1
        z_r, lo = round(z_frac * qmax), round(lo_frac * qmax)
        layer = _full_i32_layer(2.0**log2_m * np.array([1.0, 1.3, 1.7]), z_r, bits)
        event("one shift" if np.ndim(layer.requant_rows[1]) == 0 else "per-channel rows")
        skipped = layer.requant_rows[4] or z_r <= lo
        event("sign step skipped" if skipped else "sign step kept")
        rng = np.random.default_rng(seed)
        acc = rng.integers(INT32_MIN, INT32_MAX, (16, 3), endpoint=True)
        # exact negative ties of each channel: acc = -odd * 2^e with e = shift - 1 - ctz(M0), within i32
        ties = np.zeros((8, 3), dtype=np.int64)
        for c, (m0, shift) in enumerate(zip(layer.m0.tolist(), layer.shift.tolist())):
            e = shift - 1 - ((m0 & -m0).bit_length() - 1)
            if 0 <= e <= 31:
                odd = 2 * rng.integers(0, max(1, 2 ** (30 - e)), 8) + 1  # odd * 2^e <= 2^31
                odd[0] = 1
                ties[:, c] = -odd * 2**e
                assert all((t * m0) % 2**shift == 2 ** (shift - 1) for t in ties[:, c].tolist())
        event("negative ties drawn" if ties.any() else "no tie within i32")
        acc = np.concatenate(
            [acc, ties, np.full((1, 3), INT32_MIN), np.full((1, 3), INT32_MAX), np.zeros((1, 3), np.int64)]
        )
        plain = fixed_point_multiply(acc, layer.m0[None, :], layer.shift[None, :]) + z_r
        want = np.maximum(np.clip(plain, 0, qmax), lo)
        got = requantize(acc, layer, lo=lo)
        assert got.dtype == code_dtype(bits) and np.array_equal(got, want)
        if skipped:
            unsigned = fixed_point_multiply(acc, layer.m0[None, :], layer.shift[None, :], sign_step=False) + z_r
            assert np.array_equal(np.maximum(np.clip(unsigned, 0, qmax), lo), want)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        bits=st.integers(2, 16),
        exp=st.integers(-30, 8),
        gap=st.integers(1, 3),
        rest=st.lists(st.integers(0, 3), max_size=2),
        mantissas=st.lists(st.sampled_from([1.0, 1.25, 1.5, 1.75]) | st.floats(1, 1.99), min_size=4, max_size=4),
        reach=st.none()
        | st.lists(st.just(0) | st.integers(0, 15).map(lambda k: 2**k - 1) | st.integers(0, 32767), min_size=8, max_size=8),
        z_frac=st.floats(0, 1),
        lo_frac=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # all of i32 with a spread of 3: |acc| M0' reaches 2^64, so the layer keeps per-channel rows
    @example(bits=8, exp=-10, gap=3, rest=[], mantissas=[1.5, 1.9, 1, 1], reach=None, z_frac=0.5, lo_frac=0.0, seed=0)
    @example(bits=8, exp=-10, gap=1, rest=[], mantissas=[1.5, 1.9, 1, 1], reach=[5] * 8, z_frac=0.5, lo_frac=0.0, seed=0)
    @example(bits=8, exp=0, gap=2, rest=[0, 1], mantissas=[1.0, 1.5, 1.25, 1], reach=[32767] * 8, z_frac=1.0, lo_frac=0.0, seed=0)
    def test_one_shift_rows_give_the_per_channel_codes(self, bits, exp, gap, rest, mantissas, reach, z_frac, lo_frac, seed):
        # channels whose shifts differ by 1 to 3, fed accumulators at their bounds, at 0, at
        # negative ties within the bounds and between: the one-shift rows, where the bounds
        # allow them, give what the per-channel (M0, shift) gives, with and without the sign step
        spread = [0, gap] + [min(r, gap) for r in rest]
        c, qmax = len(spread), 2**bits - 1
        z_r, floor = round(z_frac * qmax), round(lo_frac * qmax)
        m = np.array([mantissas[j] * 2.0 ** (exp - d) for j, d in enumerate(spread)])
        if reach is None:
            layer = _full_i32_layer(m, z_r, bits)
        else:
            # W_q - Z_W = (a, -b) on 16-bit codes: bounds -65535 b and 65535 a, with b >= 1 so that
            # every channel has negative accumulators
            a, b = np.array(reach[:c]), np.array(reach[4 : 4 + c]) + 1
            w_q = np.stack([32768 + a, 32768 - b], axis=1).astype(np.uint16)
            layer = simple_layer(w_q, z_w=32768, z_x=0, z_r=z_r, m=m, bits=bits, in_bits=16, w_bits=16)
        assert list(layer.shift - layer.shift.min()) == spread
        lo, hi, _ = layer.acc_bounds
        top = int(layer.shift.max())
        nudge = (1 << (top - 1)) + (z_r << top)
        fits = all(
            max(-int(l), int(h), 1) * (m0 << (top - s)) + nudge < 2**63
            for l, h, m0, s in zip(lo.tolist(), hi.tolist(), layer.m0.tolist(), layer.shift.tolist())
        )
        rows = layer.requant_rows
        assert (np.ndim(rows[1]) == 0) == fits
        event("one shift" if fits else "per-channel rows: the bounds fail the i64 check")
        rng = np.random.default_rng(seed)
        columns, every_tie = [], True
        for j, (m0, shift) in enumerate(zip(layer.m0.tolist(), layer.shift.tolist())):
            e = shift - 1 - ((m0 & -m0).bit_length() - 1)  # ties are -odd * 2^e
            count = (int(-lo[j]) // 2**e + 1) // 2 if e >= 0 else 0
            odd = np.arange(count) if count <= 512 else np.r_[0:256, count - 256 : count]
            every_tie &= count <= 512
            ties = -(2 * odd + 1) * 2 ** max(e, 0)
            assert all((t * m0) % 2**shift == 2 ** (shift - 1) for t in ties[:8].tolist())
            drawn = rng.integers(lo[j], hi[j], 16, endpoint=True)
            columns.append(np.concatenate([[lo[j], hi[j], 0], ties, drawn]).astype(np.int64))
        event("every negative tie in the bounds" if every_tie else "512 negative ties: those nearest 0 and the bound")
        acc = np.zeros((max(map(len, columns)), c), np.int64)
        for j, col in enumerate(columns):
            acc[: len(col), j] = col
        assert (acc >= lo).all() and (acc <= hi).all()
        for sign_step in (False, True):
            got = fixed_point_multiply(acc, *rows[:3], sign_step=sign_step) + rows[3]
            want = fixed_point_multiply(acc, layer.m0[None, :], layer.shift[None, :], sign_step=sign_step) + z_r
            assert np.array_equal(got, want)
        assert np.array_equal(requantize(acc, layer, lo=floor), np.clip(want, floor, qmax))


def _frozen(arrays):
    """Each array made read-only, paired with a copy of its bytes, so that a write raises and a change shows."""
    for a in arrays:
        a.flags.writeable = False
    return [(a, a.copy()) for a in arrays]


class TestKernelsLeaveTheirInputs:
    @pytest.mark.parametrize("beta", [None, np.array([0.25, -0.5])])  # fixed-point and real-valued requantize
    def test_no_kernel_writes_into_its_arguments(self, beta):
        # the kernels run in place only on arrays they made: the input, the codes, the
        # accumulators, the clip floor, the grid and every array the layer keeps are
        # read-only here, and each is compared with its copy after the calls
        rng = np.random.default_rng(5)
        layer = simple_layer(rng.integers(0, 256, (2, 6)), z_w=[120, 7], z_x=9, z_r=100, m=[0.003, 0.0071], beta=beta)
        grid = QuantParams(8, "per_tensor", [0.05], [128])
        requantize(integer_accumulate(quantize_uniform(np.zeros((1, 6)), grid), layer), layer)  # builds what both keep
        kept = [a for v in (*vars(layer).values(), *vars(grid).values()) for a in (v if isinstance(v, tuple) else (v,))]
        x = rng.normal(0, 3, (4, 6))
        x0d = np.array(x[0, 0])
        lo = np.array(110, np.int64)
        pairs = _frozen([x, x0d, lo, *(a for a in kept if isinstance(a, np.ndarray))])
        assert quantize_uniform(x0d, grid).shape == ()
        codes = quantize_uniform(x, grid)
        pairs += _frozen([codes])
        acc = integer_accumulate(codes, layer)
        pairs += _frozen([acc])
        for floor in (0, lo):
            requantize(acc, layer, lo=floor)
        fixed_point_multiply(acc, layer.m0[None, :], layer.shift[None, :])
        assert all(a.tobytes() == copy.tobytes() for a, copy in pairs)

    @pytest.mark.parametrize("rounding", [True, False])
    def test_tapped_accumulators_outlive_the_run(self, rounding):
        # sim_forward's tap keeps each param entry's accumulators; the run that follows must leave them as shown
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import _interpret, fused_runtime
        from quantcomp.refnet import build_mlp

        model_f = build_mlp((4, 8, 8, 3), rng=np.random.default_rng(2))
        calib = np.random.default_rng(3).standard_normal((64, 4)).astype(np.float32)
        model = fused_runtime(fuse_model(calibrate_model(model_f, CalibrationConfig(sample_count=64), calib), beta_rounding=rounding))
        seen = []

        def tap(i, x_q, acc, layer):
            seen.extend(_frozen([x_q, acc]))
            return layer

        x = np.random.default_rng(4).standard_normal((16, 4)).astype(np.float32)
        got = _interpret(model, x, InferenceTrace(), tap)
        assert len(seen) == 6 and all(a.tobytes() == copy.tobytes() for a, copy in seen)
        assert got.tobytes() == run_int_model(model, x)[0].tobytes()


def _full_i32_layer(m, z_r, bits):
    """A layer with multipliers ``m`` whose proven accumulator bounds are all of i32 on every channel."""
    c = len(m)
    # 16-bit codes against W_q - Z_W = (32767, -32768, 2) and a bias of -32768: the bounds are
    # 65535 * 32769 - 32768 = INT32_MAX and -65535 * 32768 - 32768 = INT32_MIN
    w_q = np.tile(np.array([[65535, 0, 32770]], dtype=np.uint16), (c, 1))
    layer = simple_layer(w_q, 32768, 0, z_r, m, bias=np.full(c, -32768), bits=bits, w_bits=16, in_bits=16)
    lo, hi, _ = layer.acc_bounds
    assert (lo == INT32_MIN).all() and (hi == INT32_MAX).all()
    return layer


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

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(graphs())
    def test_every_fused_layer_is_within_one_code_of_its_exact_multiplier(self, graph):
        # every param layer of a calibrated, fused model, on the accumulators it produces: the
        # stored (M0, shift) and the requantize operands decode to the same real, within 2^-31
        # of m = alpha S_x S_W / S_r, and the codes lie within one of the exact real rounding
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 7])
        model_f = build_from_layers(layers, shape)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        model = fused_runtime(fuse_model(comp))
        taps = []

        def tap(i, x_q, acc, layer):
            taps.append((acc.copy(), layer))
            return layer

        intengine._interpret(model, rng.standard_normal((16,) + shape).astype(np.float32) * 3, InferenceTrace(), tap=tap)
        assert len(taps) == sum(e.kind == "param" for e in model.entries)
        for acc, layer in taps:
            m = layer.alpha.astype(np.float64) * accumulator_scale(layer.s_x, layer.s_w) / np.float64(layer.s_r)
            stored = decode_multiplier(layer.m0, layer.shift)
            assert np.all(np.abs(stored - m) <= m * 2.0**-31)
            m0, shift, _, _, _ = layer.requant_rows
            event("one shift" if np.ndim(shift) == 0 else "per-channel rows")
            event(f"shift spread {int(np.ptp(layer.shift))}")
            assert np.array_equal(decode_multiplier(m0[0], shift), stored)
            got = requantize(acc, layer).astype(np.int64)
            want = np.clip(layer.z_r + round_half_away(m[None, :] * acc), 0, 2**layer.bitwidth - 1)
            assert np.abs(got - want).max(initial=0) <= 1

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

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        m0=st.integers(2**30, 2**31 - 1) | st.integers(1, 2**31 - 1).map(lambda m: m << (31 - m.bit_length())),
        b=st.integers(0, 62),
        odd=st.lists(st.integers(0, 2**62), min_size=1, max_size=8),
        drawn=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8),
        dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
        shift_0d=st.booleans(),
        sign_step=st.booleans(),
    )
    @example(m0=2**30, b=32, odd=[0, 1, 2**20], drawn=[], dtype=np.int64, shift_0d=True, sign_step=True)
    @example(m0=3 * 2**29, b=0, odd=[0, 2**30], drawn=[-(2**31)], dtype=np.int32, shift_0d=False, sign_step=True)
    def test_shift_sign_step_matches_the_abs_where_form(self, m0, b, odd, drawn, dtype, shift_0d, sign_step):
        # negative ties v * M0 = -(2k + 1) 2^(shift - 1), products within a few M0 of +-2^62,
        # the dtype's extremes and draws, on i64 (plain product) and i32/u8 (np.multiply to i64)
        # inputs: the sign step p += p >> 63 rounds every tie as the abs/where form does, and
        # without it a negative tie rounds up, every other product as with it
        a = (m0 & -m0).bit_length() - 1  # M0 = o * 2^a with o odd, so v = -(2k + 1) 2^b is a tie at shift a + b + 1
        shift = a + b + 1
        assume(shift <= 63)
        info = np.iinfo(dtype)
        edge = (2**62 // m0) * np.array([-1, 1])
        candidates = [-(2 * k + 1) * 2**b for k in odd] + [int(e) + d for e in edge for d in (-1, 0, 1)]
        candidates += [0, 1, -1, info.min, info.max, *drawn]
        # in the dtype, and |v * M0| + 2^(shift - 1) below 2^63, the caller's side of the contract
        v = [c for c in candidates if info.min <= c <= info.max and abs(c * m0) + 2 ** (shift - 1) < 2**63]
        event(f"{len([c for c in v if c < 0 and (c * m0) % 2**shift == 2 ** (shift - 1)])} negative ties kept")
        v = np.array(v, dtype=dtype)
        got = fixed_point_multiply(v, m0, np.array(shift, np.int64) if shift_0d else shift, sign_step=sign_step)
        want = _reference_fixed_point_multiply(v, m0, shift)
        if not sign_step:
            want = want + np.array([p < 0 and p % 2**shift == 2 ** (shift - 1) for p in (int(x) * m0 for x in v)])
        assert got.dtype == np.int64 and np.array_equal(got, want)

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
    const = -np.int64(layer.z_x) * (w.sum(axis=1) - w.shape[1] * layer.z_w)  # -Z_x sum W_q + C_in Z_x Z_W
    return x @ w.T - x.sum(axis=1, keepdims=True) * layer.z_w[None, :] + const + layer.bias_acc


def _in_i32(acc):
    """True when ``acc`` holds integers that all lie in i32 range, the contract of integer_accumulate's result."""
    return acc.dtype.kind == "i" and (acc.size == 0 or (acc.min() >= -(2**31) and acc.max() <= 2**31 - 1))


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
        assume(w_sum * max(z_x, qx - z_x) + 1000 <= 2**31 - 1)  # enough for fuse_layer's i32 proof to pass
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
        assert _in_i32(got)
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
        at = simple_layer(np.array([[2**23, 2**23]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1, w_bits=24)
        assert at.w_centred.dtype == np.float32
        assert integer_accumulate(x, at)[0, 0] == 2**24
        past = simple_layer(
            np.array([[2**23, 2**23 + 1]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1, w_bits=24
        )
        assert past.w_centred.dtype == np.float64
        assert integer_accumulate(x, past)[0, 0] == 2**24 + 1
        # 2^24 + 1 is no f32 value: an f32 GEMM on this layer would round to 2^24
        assert (x.astype(np.float32) @ past.w_centred.astype(np.float32).T)[0, 0] == 2**24

    def test_hand_built_layer_fails_its_proof_before_any_gemm(self):
        # 1-bit inputs: the reach is sum_j |W_q - Z_W| itself, here 2^53, far past i32; w_centred
        # runs the i32 proof before it builds the GEMM operand
        bad = simple_layer(np.array([[2**52, 2**52]], dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=1, w_bits=53)
        with pytest.raises(EngineError, match="overflow i32"):
            integer_accumulate(np.zeros((1, 2), dtype=np.uint8), bad)
        assert "w_centred" not in vars(bad)
        # codes outside their w_bits grid fail by key
        wide = simple_layer(np.full((1, 4), 2**40, dtype=np.int64), z_w=0, z_x=0, z_r=0, m=1.0, bits=16)
        with pytest.raises(EngineError, match="weight_codes outside"):
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


def _edited(fused, entry, key, edit):
    """``fused`` with fusion entry ``entry``'s value under ``key`` replaced by ``edit(value)``.

    For a key that names a blob, the value is the blob's first item, and the
    blob takes the dtype that it and the new value promote to.
    """
    from quantcomp.refnet import ModelBundle

    manifest = json.loads(json.dumps(fused.manifest))
    record = manifest["fusion"]["entries"][entry]
    name = record[key]
    if name not in fused.blobs:
        record[key] = edit(name)
        return ModelBundle(manifest, fused.blobs)
    first = edit(fused.blobs[name][0])
    blob = fused.blobs[name].astype(np.result_type(fused.blobs[name], first))
    blob[0] = first
    return ModelBundle(manifest, {**fused.blobs, name: blob})


def _blob_replaced(fused, entry, key, edit):
    """``fused`` with the blob that fusion entry ``entry`` names under ``key`` replaced by ``edit(blob)``."""
    from quantcomp.refnet import ModelBundle

    name = fused.manifest["fusion"]["entries"][entry][key]
    return ModelBundle(fused.manifest, {**fused.blobs, name: edit(fused.blobs[name])})


class TestFusionSectionOwner:
    def _fused(self, beta_rounding=True):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.refnet import build_mlp

        m = build_mlp((4, 6, 3), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((32, 4)).astype(np.float32)
        comp = calibrate_model(m, CalibrationConfig(sample_count=32, weight_bits=4, act_bits=4), x)
        return fuse_model(comp, beta_rounding=beta_rounding)

    @pytest.mark.parametrize(
        "beta_rounding, key, value, want",
        [
            (False, "beta", float("nan"), "layer 0: beta must hold finite numbers"),
            (True, "s_x", float("nan"), "layer 0: s_x must hold finite numbers"),
            (True, "w_scales", -0.5, "layer 0: scales and gains must be positive"),
        ],
    )
    def test_non_finite_or_negative_scale_fails_at_load(self, beta_rounding, key, value, want):
        from quantcomp.intengine import fused_runtime

        # before, each loaded: an unrounded NaN beta ran to wrong logits with only a cast warning
        with pytest.raises(EngineError, match=want):
            fused_runtime(_edited(self._fused(beta_rounding), 0, key, lambda v: value))

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

        def cut(blob):
            assert blob.shape == (6,)
            return blob[:2]

        with pytest.raises(EngineError, match=f"layer 0: .* has shape \\(2,\\), layer has 6 output channels"):
            fused_runtime(_blob_replaced(self._fused(), 0, field, cut))

    @pytest.mark.parametrize("field, value", [("m0", 2**29), ("m0", 2**40), ("shift", 0), ("shift", 70)])
    def test_multiplier_outside_encoding_fails_at_load(self, field, value):
        from quantcomp.intengine import fused_runtime

        with pytest.raises(EngineError, match="layer 0: multiplier"):
            fused_runtime(_blob_replaced(self._fused(), 0, field, lambda blob: np.full_like(blob, value)))

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
        [
            *[(0, "z_x", 0.9), (0, "m0", 0.9), (0, "w_zero_points", 0.5), (1, "z", 0.25), (2, "out_bits", 0.5)],
            *[(1, "z", True), (0, "in_bits", True)],
        ],
    )
    def test_non_integral_number_in_integer_key_fails_at_load(self, entry, key, delta):
        from quantcomp.intengine import fused_runtime

        # before, int() truncated these: z_x 8.9 loaded as 8 and ran unchanged logits; JSON true loaded as 1
        edit = (lambda v: True) if delta is True else (lambda v: v + delta)
        with pytest.raises(EngineError, match=f"layer {entry}: {key} must hold integers"):
            fused_runtime(_edited(self._fused(), entry, key, edit))

    def test_integral_floats_in_integer_keys_load(self):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        fused = self._fused()
        manifest = json.loads(json.dumps(fused.manifest))
        for record in manifest["fusion"]["entries"]:
            for key in ("z_x", "z"):
                if key in record:
                    record[key] = float(record[key])
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
            ("input", "zero_point", True, "input grid: zero_point must hold integers, got True"),
            ("output", "scale", True, "output grid: scale must hold finite numbers, got True"),
            ("input", "bitwidth", 8, "layer 0: in_bits is 4, but the layer receives 8-bit codes"),
        ],
    )
    def test_bad_grid_fails_at_load(self, grid, key, value, want):
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import ModelBundle

        # before, int() read zero_point 8.9 as 8 and bitwidth 4.5 as 4, and true read as 1 or 1.0
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

    @pytest.mark.parametrize("blob", ["layer0.wq", "entry0.bias_acc"])
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
            # 9, not narrower: the layer's z_r must stay a code of its output width
            (0, "out_bits", 9, "layer 3: in_bits is 8, but the layer receives 9-bit codes"),
            (3, "out_bits", 9, "output grid is 8-bit, but the last layer writes 9-bit codes"),
            # the one-shift nudge of requant_rows takes z_r's bit length on trust
            (0, "z_r", 256, "layer 0: z_r 256 is not a 8-bit code"),
            (3, "z_r", -1, "layer 3: z_r -1 is not a 8-bit code"),
            (0, "w_zero_points", 256, "layer 0: w_zero_points must be 8-bit codes"),
            (3, "w_zero_points", -1, "layer 3: w_zero_points must be 8-bit codes"),
            # conv2d pads with z_x, so a z_x off the 8-bit grid would reach im2col as a u8 pad value
            (0, "z_x", 300, "layer 0: z_x 300 is not a 8-bit code"),
            (0, "z_x", -1, "layer 0: z_x -1 is not a 8-bit code"),
        ],
    )
    def test_bad_record_fails_at_load(self, entry, field, value, want):
        from quantcomp.intengine import fused_runtime

        with pytest.raises(EngineError, match=want):
            fused_runtime(_edited(self._fused_conv(), entry, field, lambda v: value))

    @pytest.mark.parametrize("entry, op", [(0, "conv2d"), (3, "linear")])
    def test_zero_output_channels_are_named_errors(self, entry, op):
        # before, each raised a bare ValueError from reshaping the empty weight to (0, -1)
        from dataclasses import replace

        from quantcomp.intengine import FUSED_RECORDS, FusedEntry, FusedModel, fused_runtime
        from quantcomp.quant import QuantError
        from quantcomp.refnet import LayerSpec, ShapeError, build_from_layers

        fused = self._fused_conv()
        model = fused_runtime(fused)
        layer = model.entries[entry].layer
        assert layer.op_kind == op
        c_in, window = layer.w_q.shape[1], layer.w_q.shape[2:]
        w = np.zeros((0, c_in, *window), np.float32)
        spec = LayerSpec(op, c_in, 0, weight=w, bias=np.zeros(0, np.float32), kernel=layer.kernel, pad=layer.pad)
        with pytest.raises(ShapeError, match=f"layer 0: {op} has {c_in} input and 0 output channels"):
            build_from_layers([spec], (c_in, 4, 4) if window else (c_in,))
        with pytest.raises(QuantError, match="no output channel"):
            quantize_weights_per_channel(w, 8)

        # the weight codes and every per-channel array the record stores, cut to 0 rows
        record = fused.manifest["fusion"]["entries"][entry]
        cut = [k for k in FUSED_RECORDS["param"] if k.form != "scalar" and record.get(k.key) in fused.blobs]
        entries = list(model.entries)
        entries[entry] = FusedEntry("param", layer=replace(layer, **{k.attr: getattr(layer, k.attr)[:0] for k in cut}))
        want = f"layer {entry}: empty weight codes of shape \\(0, {c_in}.*\\) \\(0 output channels\\)"
        with pytest.raises(EngineError, match=want):
            FusedModel(model.input_params, entries, model.output_params)
        loaded = fused
        for k in cut:
            loaded = _blob_replaced(loaded, entry, k.key, lambda blob: blob[:0])
        with pytest.raises(EngineError, match=want):
            fused_runtime(loaded)

    def test_bundle_with_the_dropped_keys_loads_to_the_same_logits(self, tmp_path):
        # a param record of the earlier format also held layer_index and a const_acc blob; undeclared keys are ignored
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import load_bundle, save_bundle

        fused = self._fused_conv()
        fusion = json.loads(json.dumps(fused.manifest["fusion"]))
        blobs = {}
        for i, (record, entry) in enumerate(zip(fusion["entries"], fused_runtime(fused).entries)):
            if record["kind"] == "param":
                layer = entry.layer
                w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
                record["layer_index"], record["const_acc"] = i, f"entry{i}.const_acc"
                blobs[f"entry{i}.const_acc"] = (-np.int64(layer.z_x) * w.sum(axis=1)).astype(np.int32)
        old = load_bundle(save_bundle(fused.derive("fusion", fusion, blobs), tmp_path / "old"))
        assert [r.get("layer_index") for r in old.manifest["fusion"]["entries"]] == [0, None, None, 3]
        assert {"entry0.const_acc", "entry3.const_acc"} <= set(old.blobs)
        x = np.random.default_rng(4).standard_normal((16, 1, 4, 4)).astype(np.float32)
        assert run_int_model(fused_runtime(old), x)[0].tobytes() == run_int_model(fused_runtime(fused), x)[0].tobytes()

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
    """The integer forward on NCHW codes with (C, k, k) patches of the position loop, exact i64 GEMMs and, on
    rounded layers, the fixed-point multiply with its sign step on every channel."""
    x_q = quantize_uniform(np.asarray(x, dtype=np.float32), model.input_params.quant_params)
    for e in model.entries:
        if e.kind == "param":
            layer = e.layer
            w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
            if layer.op_kind == "linear":
                rows = x_q
            else:
                cols, h_out, w_out = im2col_loop(x_q, layer.kernel, layer.stride, layer.pad, pad_value=layer.z_x)
                rows = cols.reshape(-1, cols.shape[2])
            acc = (rows.astype(np.int64) - layer.z_x) @ w.T + layer.bias_acc
            if layer.beta_rounding:
                r = fixed_point_multiply(acc, layer.m0, layer.shift) + layer.z_r
                r = np.clip(r, 0, 2**layer.bitwidth - 1).astype(code_dtype(layer.bitwidth))
            else:
                r = requantize(acc, layer)
            if layer.op_kind == "conv2d":
                r = np.moveaxis(r.reshape(x_q.shape[0], h_out, w_out, -1), 3, 1)
            x_q = r
        elif e.kind == "relu":
            x_q = np.maximum(x_q, e.z).astype(x_q.dtype)
        elif e.kind == "gelu":
            x_q = e.lut[x_q]
        elif e.kind == "avgpool":
            cols, h_out, w_out = im2col_loop(x_q, e.kernel, e.stride, 0)
            n, c = x_q.shape[:2]
            sums = cols.reshape(n, h_out * w_out, c, e.kernel**2).sum(axis=3, dtype=np.int64)
            pooled = fixed_point_multiply(sums, e.pool_m0, e.pool_shift).astype(x_q.dtype)
            x_q = np.moveaxis(pooled.reshape(n, h_out, w_out, c), 3, 1)
        elif e.kind == "flatten":
            x_q = x_q.reshape(x_q.shape[0], -1)
    p = model.output_params
    return ((x_q.astype(np.float64) - p.z) * p.s).astype(np.float32)


class TestChannelsLastEngine:
    @pytest.mark.parametrize("shape", [(4, 48), (4, 3, 16), (4, 2, 4, 4)])
    def test_input_that_is_no_conv_map_names_the_layer(self, shape):
        from quantcomp.calibrate import fuse_model, quantize_model
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import LayerSpec, build_from_layers

        rng = np.random.default_rng(0)
        conv = LayerSpec("conv2d", 3, 2, weight=rng.standard_normal((2, 3, 3, 3)).astype(np.float32), bias=np.zeros(2, np.float32), kernel=3, pad=1)
        model_f = build_from_layers([conv, LayerSpec("flatten")], (3, 4, 4))
        model = fused_runtime(fuse_model(quantize_model(model_f, rng.standard_normal((16, 3, 4, 4)).astype(np.float32), 8, 8)))
        x = rng.standard_normal(shape).astype(np.float32)
        with pytest.raises(EngineError, match=r"layer 0: conv2d expects \(N, H, W, 3\) codes, got shape"):
            run_int_model(model, x)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(graphs(nets=("conv",)))
    def test_matches_nchw_oracles(self, graph):
        from quantcomp import intengine
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, compensation_params, fuse_model, sim_forward
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers, validate_bundle

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
                    cols, _, _ = im2col_loop(x_q.transpose(0, 3, 1, 2), layer.kernel, layer.stride, layer.pad, layer.z_x)
                    w = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
                    want = (cols.reshape(-1, cols.shape[2]).astype(np.int64) - layer.z_x) @ w.T + layer.bias_acc
                    assert _in_i32(acc) and np.array_equal(acc, want)
                    seen.append(i)
                return layer

            got = intengine._interpret(model, x, InferenceTrace(), tap=tap)
            assert seen == convs
            assert got.shape == (5,) + out_shape  # NCHW when no flatten follows the last conv or avgpool
            assert got.tobytes() == _nchw_reference(model, x).tobytes()
            if not rounding:
                sim, _, _ = sim_forward(comp, x, compensation_params(comp))
                assert sim.tobytes() == got.tobytes()


def _folded_relus(model):
    return sum(e.kind == "relu" and i > 0 and model.entries[i - 1].kind == "param" for i, e in enumerate(model.entries))


class TestPlan:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(graphs())
    def test_plan_matches_reference_interpreter(self, graph):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, compensation_params, fuse_model, sim_forward
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 3])
        model_f = build_from_layers(layers, shape)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        x = rng.standard_normal((5,) + shape).astype(np.float32)
        for rounding in (True, False):
            model = fused_runtime(fuse_model(comp, beta_rounding=rounding))
            for batch in (x[:1], x):
                got, _ = run_int_model(model, batch)
                assert got.tobytes() == _nchw_reference(model, batch).tobytes()
            # one step per entry, less one for each relu folded into the param step before it
            assert len(model.plan) == len(model.entries) - _folded_relus(model)
            if rounding:
                for layer in (e.layer for e in model.entries if e.kind == "param"):
                    slack = 4 * np.spacing(np.abs(layer.beta_real))  # the deviation's own rounding
                    assert (beta_rounding_deviation(layer, layer.beta_real) <= beta_rounding_bound(layer) + slack).all()
            else:
                sim, _, _ = sim_forward(comp, x, compensation_params(comp))
                assert sim.tobytes() == got.tobytes()

    def test_relu_above_zero_is_the_clip_floor(self):
        from dataclasses import replace

        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import FusedModel, fused_runtime
        from quantcomp.refnet import build_mlp

        model_f = build_mlp((4, 8, 8, 3), rng=np.random.default_rng(2))
        calib = np.random.default_rng(3).standard_normal((64, 4)).astype(np.float32)
        fused = fused_runtime(fuse_model(calibrate_model(model_f, CalibrationConfig(sample_count=64), calib)))
        assert [e.z for e in fused.entries if e.kind == "relu"] == [0, 0]
        # a relu zero-point of 40 floors every code of the layer before it at 40
        entries = [replace(e, z=40) if e.kind == "relu" else e for e in fused.entries]
        model = FusedModel(fused.input_params, entries, fused.output_params)
        assert len(model.plan) == 3 and _folded_relus(model) == 2
        x = np.random.default_rng(4).standard_normal((16, 4)).astype(np.float32)
        codes = model.plan[0](quantize_uniform(x, model.input_params.quant_params), InferenceTrace(), None)
        assert codes.min() == 40
        got, _ = run_int_model(model, x)
        assert got.tobytes() == _nchw_reference(model, x).tobytes()
        assert got.tobytes() != run_int_model(fused, x)[0].tobytes()

    @pytest.mark.parametrize("z", [-1, 256])
    def test_relu_zero_point_outside_the_codes_fails_at_build(self, z):
        from dataclasses import replace

        from quantcomp.calibrate import fuse_model, quantize_model
        from quantcomp.intengine import FusedModel, fused_runtime
        from quantcomp.refnet import build_mlp

        model_f = build_mlp((4, 6, 3), rng=np.random.default_rng(0))
        q = quantize_model(model_f, np.random.default_rng(1).standard_normal((32, 4)).astype(np.float32), 8, 8)
        m = fused_runtime(fuse_model(q))
        entries = [replace(e, z=z) if e.kind == "relu" else e for e in m.entries]
        with pytest.raises(EngineError, match=f"layer 1: relu zero-point {z} is not a 8-bit code"):
            FusedModel(m.input_params, entries, m.output_params)


def _attaining_codes(layer):
    """(2 C_out, C_eff) input codes, columns in ``w_q.reshape`` order: row c attains channel c's greatest
    accumulator (qmax where W_q - Z_W > 0, else 0) and row C_out + c its least (qmax where it is < 0)."""
    d = layer.w_q.reshape(layer.out_channels, -1).astype(np.int64) - layer.z_w[:, None]
    qmax = 2**layer.in_bits - 1
    return np.concatenate([np.where(d > 0, qmax, 0), np.where(d < 0, qmax, 0)]).astype(code_dtype(layer.in_bits))


class TestI32Proof:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(graphs())
    def test_bound_attaining_codes_keep_every_accumulator_in_i32(self, graph):
        # each param layer alone, fed codes at 0 and qmax that attain its bounds: the tapped
        # accumulators are the bounds, lie in i32 and equal the i64 decomposition; and on
        # the whole model, every tapped accumulator lies within its layer's bounds
        from dataclasses import replace

        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import FusedEntry, FusedModel, fused_runtime
        from quantcomp.refnet import build_from_layers

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 5])
        model_f = build_from_layers(layers, shape)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        model = fused_runtime(fuse_model(comp))
        taps = []

        def tap(i, x_q, acc, layer):
            taps.append((x_q.copy(), acc.copy(), layer))
            return layer

        for entry in (e for e in model.entries if e.kind == "param"):
            # a conv2d of a k x k map with no padding has one patch: the whole map
            layer = replace(entry.layer, pad=0, stride=1)
            lo, hi, _ = layer.acc_bounds
            codes = _attaining_codes(layer)
            grid_in = IntActivationParams(layer.s_x, layer.z_x, layer.in_bits)
            one = FusedModel(grid_in, [FusedEntry("param", layer=layer)], IntActivationParams(layer.s_r, layer.z_r, layer.bitwidth))
            # codes 0 and qmax as reals one step past the grid's ends, which clip to them
            x = np.where(codes > 0, 2**layer.in_bits - layer.z_x, -layer.z_x - 1) * layer.s_x
            if layer.op_kind == "conv2d":
                x = x.reshape((len(codes),) + layer.w_q.shape[1:])
            taps.clear()
            intengine._interpret(one, x.astype(np.float32), InferenceTrace(), tap=tap)
            (x_q, acc, _), = taps
            assert np.array_equal(intengine._nchw(x_q).reshape(len(codes), -1), codes)
            c = layer.out_channels
            assert np.array_equal(acc[np.arange(c), np.arange(c)], hi)
            assert np.array_equal(acc[c + np.arange(c), np.arange(c)], lo)
            assert _in_i32(acc) and np.array_equal(acc, _reference_accumulate(codes, layer))

        taps.clear()
        intengine._interpret(model, rng.standard_normal((8,) + shape).astype(np.float32) * 4, InferenceTrace(), tap=tap)
        assert len(taps) == sum(e.kind == "param" for e in model.entries)
        for _, acc, layer in taps:
            lo, hi, _ = layer.acc_bounds
            assert _in_i32(acc) and (acc >= lo).all() and (acc <= hi).all()

    def _mlp_bundle(self, bits=8):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.refnet import build_mlp

        model_f = build_mlp((8, 16, 16, 4), rng=np.random.default_rng(0))
        calib = np.random.default_rng(1).standard_normal((64, 8)).astype(np.float32)
        config = CalibrationConfig(sample_count=64, weight_bits=bits, act_bits=bits)
        return fuse_model(calibrate_model(model_f, config, calib))

    def _saved(self, bundle, tmp_path, blob, edit):
        """The directory of ``bundle`` saved with blob ``blob`` replaced by ``edit`` of it."""
        from quantcomp.refnet import ModelBundle, save_bundle

        blobs = dict(bundle.blobs)
        blobs[blob] = edit(blobs[blob].copy())
        return save_bundle(ModelBundle(bundle.manifest, blobs), tmp_path / "bundle")

    def test_bias_at_the_i32_edge_fails_at_load(self, tmp_path):
        # the proof looks at no input: the model does not load, and the error names the layer
        from quantcomp.refnet import load_bundle

        def edge(bias):
            bias[0] = 2**31 - 300
            return bias

        path = self._saved(self._mlp_bundle(), tmp_path, "entry0.bias_acc", edge)
        with pytest.raises(EngineError, match=r"^layer 0: linear: worst-case accumulator would overflow i32"):
            intengine.fused_runtime(load_bundle(path))

    @pytest.mark.parametrize(
        "blob, layer, bits, edit, key",
        [
            ("layer0.wq", 0, 4, lambda w: np.where(np.arange(w.size).reshape(w.shape) == 5, 200, w).astype(w.dtype), "weight_codes"),
        ],
    )
    def test_record_the_proof_rejects_fails_naming_layer_and_key(self, tmp_path, blob, layer, bits, edit, key):
        # a weight code off its 4-bit grid fails at load
        from quantcomp.refnet import load_bundle

        path = self._saved(self._mlp_bundle(bits), tmp_path, blob, edit)
        with pytest.raises(EngineError, match=rf"^layer {layer}: linear: {key}"):
            intengine.fused_runtime(load_bundle(path))

    @pytest.mark.parametrize("shape, shown", [((2, 5), "(2, 5)"), ((2, 1, 2, 4), "(2, 1, 2, 4)")])
    def test_linear_step_names_its_layer_and_the_input_shape(self, shape, shown):
        model = intengine.fused_runtime(self._mlp_bundle())
        x = np.zeros(shape, np.float32)
        want = rf"^layer 0: linear expects \(N, 8\) codes, got shape {re.escape(shown)}$"
        with pytest.raises(EngineError, match=want):
            run_int_model(model, x)

    def test_fuse_rejects_a_const_acc_past_i32(self):
        # the offset -Z_x * sum(W_q - Z_W) = -65535 * 255 * 200 leaves i32, and with it the least accumulator
        w_q = np.full((1, 200), 255, dtype=np.uint8)
        with pytest.raises(EngineError, match="overflow i32"):
            _fused(w_q, np.array([0]), 65535, 16, 8)


def _gemm_rows(monkeypatch):
    """(layer, GEMM rows) of every ``integer_accumulate`` call from here on, in call order."""
    calls, accumulate = [], intengine.integer_accumulate
    monkeypatch.setattr(intengine, "integer_accumulate", lambda x_q, layer, *a: calls.append((layer, len(x_q))) or accumulate(x_q, layer, *a))
    return calls


def _blocks(n, block):
    """The sample counts of ``n`` samples cut into blocks of ``block``."""
    return [min(block, n - s) for s in range(0, n, block)]


class TestStepBlocks:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(graphs(), st.sampled_from([3, 2, 1]), st.integers(4, 9))
    def test_blocks_give_the_unblocked_bits_and_counts(self, graph, per_block, n):
        # a budget of ``per_block`` samples of the narrowest param step's working set, so that
        # every param step runs blocks of 1-3 samples, against one run whose budget fits any batch
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 9])
        model_f = build_from_layers(layers, shape)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        x = rng.standard_normal((n,) + shape).astype(np.float32) * 2
        wrong = np.zeros((n, shape[0] + 1) + shape[1:], np.float32)  # one channel too many
        for rounding in (True, False):
            model = fused_runtime(fuse_model(comp, beta_rounding=rounding))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(refnet, "BLOCK_BYTES", 2**62)
                calls = _gemm_rows(mp)
                whole_trace = InferenceTrace()
                whole, _ = run_int_model(model, x, whole_trace)
                with pytest.raises(EngineError) as named:
                    run_int_model(model, wrong)
                layers_run = [layer for layer, _ in calls]
                rows = [r // n for _, r in calls]  # per param step, its GEMM rows per sample
                w = [layer.w_centred for layer in layers_run]
                sample_bytes = [r * (g.shape[1] * g.itemsize + 8 * g.shape[0]) for r, g in zip(rows, w)]
                budget = per_block * min(sample_bytes)
                mp.setattr(refnet, "BLOCK_BYTES", budget)
                calls.clear()
                trace = InferenceTrace()
                got, _ = run_int_model(model, x, trace)
                with pytest.raises(EngineError, match=f"^{re.escape(str(named.value))}$"):
                    run_int_model(model, wrong)
            blocks = [_blocks(n, max(1, budget // b)) for b in sample_bytes]
            assert min(map(len, blocks)) == -(-n // per_block) and all(max(b) <= per_block for b in blocks)
            assert calls == [(layer, r * m) for layer, r, b in zip(layers_run, rows, blocks) for m in b]
            event(f"{'conv' if len(shape) == 3 else 'mlp'}: {'steps of unlike blocks' if len({b[0] for b in blocks}) > 1 else 'one block size'}")
            assert got.tobytes() == whole.tobytes()
            assert trace.gemm_macs == whole_trace.gemm_macs
            # an unrounded layer's requantize counts its C_out products S_x S_W once per block of its step
            extra = sum((len(b) - 1) * layer.out_channels for layer, b in zip(layers_run, blocks))
            assert trace.float_mul_count == whole_trace.float_mul_count + (0 if rounding else extra)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(graphs())
    def test_a_tap_sees_its_whole_layer_under_any_budget(self, graph):
        # sim_forward under a 1-byte budget: the blocks of one sample that the engine runs
        # without a tap, and the default budget's logits and whole-layer captures
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, compensation_params, fuse_model, sim_forward
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 11])
        model_f = build_from_layers(layers, shape)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        x = rng.standard_normal((5,) + shape).astype(np.float32)
        want, want_caps, _ = sim_forward(comp, x, compensation_params(comp))
        params = len(want_caps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refnet, "BLOCK_BYTES", 1)
            calls = _gemm_rows(mp)
            got, caps, _ = sim_forward(comp, x, compensation_params(comp))
            tapped = [rows for _, rows in calls]
            calls.clear()
            run_int_model(fused_runtime(fuse_model(comp, beta_rounding=False)), x)
            assert tapped == [rows for _, rows in calls] and len(calls) == 5 * params
        assert got.tobytes() == want.tobytes()
        assert caps.keys() == want_caps.keys()
        assert all(caps[i].tobytes() == want_caps[i].tobytes() for i in caps)

    def test_conv_batch_past_the_budget_runs_each_step_in_its_own_blocks(self, monkeypatch):
        # 7 conv samples on a budget of 3.5 samples of the second conv's working set: 36 GEMM
        # rows per sample on both convs, but the first has 18 patch columns and the second 36,
        # so the first conv runs 5 + 2, the second 3 + 3 + 1, and the linear layer whole
        from test_calibrate import _conv_gelu_model

        from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
        from quantcomp.intengine import fused_runtime

        model_f, pool = _conv_gelu_model()
        model = fused_runtime(fuse_model(calibrate_model(model_f, CalibrationConfig(sample_count=64), pool)))
        x = pool[:7]
        whole = intengine._interpret(model, x, InferenceTrace())
        calls = _gemm_rows(monkeypatch)
        second = model.entries[2].layer.w_centred
        assert second.shape == (4, 36) and second.dtype == np.float32
        per_sample = 36 * (36 * 4 + 8 * 4)
        monkeypatch.setattr(refnet, "BLOCK_BYTES", 3 * per_sample + per_sample // 2)
        got, _ = run_int_model(model, x)
        assert got.tobytes() == whole.tobytes()
        assert [r for _, r in calls] == [36 * 5, 36 * 2, 36 * 3, 36 * 3, 36 * 1, 7]


class TestEmptyBatch:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(graphs())
    def test_no_samples_give_no_logits_on_every_path(self, graph):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, compensation_params, fuse_model, sim_forward
        from quantcomp.intengine import fused_runtime
        from quantcomp.refnet import build_from_layers, model_forward, validate_bundle

        layers, shape, w_bits, a_bits, seed = graph
        rng = np.random.default_rng([seed, 13])
        model_f = build_from_layers(layers, shape)
        want = (0,) + validate_bundle(model_f)
        calib = rng.standard_normal((24,) + shape).astype(np.float32)
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits), calib)
        x = np.zeros((0,) + shape, np.float32)
        event(f"{'conv' if len(shape) == 3 else 'mlp'}: {'flattened' if len(want) == 2 else 'a map'}")
        for rounding in (True, False):
            got, trace = run_int_model(fused_runtime(fuse_model(comp, beta_rounding=rounding)), x)
            assert got.shape == want and got.dtype == np.float32 and trace.gemm_macs == 0
        assert sim_forward(comp, x, compensation_params(comp))[0].shape == want
        assert model_forward(model_f, x).shape == want
