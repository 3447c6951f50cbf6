"""Integer-only inference: accumulator decomposition, fixed-point requantization, fusion.

A quantized layer computes, per output channel c,

    acc_c = sum_j W_q[c,j] x_q[j] - Z_W[c] sum_j x_q[j] - Z_x sum_j W_q[c,j]
            + C_in Z_x Z_W[c] + bias_acc[c]
    r_q_c = clip(Z_r + M'_c * acc_c, 0, 2^b - 1)

entirely in integer arithmetic.  The real multiplier M'_c = alpha_c S_x S_W[c] / S_r
carries the channel-affine gain; the offset round(beta_c / (alpha_c S_x S_W[c]))
is folded into bias_acc, so compensation costs nothing at inference.  M' is
realized as an i32 mantissa in [2^30, 2^31) and a right shift, with
round-half-away-from-zero on the shifted-out bits (a documented constant of
this engine; quantization elsewhere rounds half-to-even).

The host computes the first two terms as one GEMM on zero-point-centred
weights (Jacob et al. 2018, arXiv 1712.05877): ``acc = x_q @ (W_q - Z_W)^T +
(const_acc + bias_acc)``, with the last three terms folded into ``const_acc``
and ``bias_acc`` at fuse time.  The GEMM runs on the host's float BLAS, and
its result is the exact integer: every product and every partial sum is an
integer of magnitude at most the layer's GEMM reach ``(2^in_bits - 1) *
max_c sum_j |W_q - Z_W|``.  f32 holds every integer of magnitude up to 2^24
and f64 every one up to 2^53, so within those bounds no summation order, and
no FMA, can round.  Like the gemmlowp line of integer engines, which pick the
narrowest accumulator the value range allows, each layer picks its GEMM width
once, from its reach (``FusedLayerParams.w_centred``): f32 when the reach is
at most 2^24, f64 otherwise.  A fused layer's GEMM reach is at most twice the
reach that ``fuse_layer`` caps at INT32_MAX (that one multiplies the same sum
by ``max(Z_x, qmax - Z_x) >= qmax / 2``), so below 2^32 <= 2^53; a
hand-assembled layer at 2^53 or more raises ``EngineError``.  The trace
counts these MACs in ``gemm_macs`` apart from ``float_mul_count``: they are
exact integer arithmetic on the host, not a claim about what deployment
hardware runs.

Codes with spatial extent travel channels-last (NHWC), the layout integer
engines use so that a patch copy moves contiguous channel runs.  The
interpreter transposes the quantized (N, C, H, W) input once.  A conv2d
builds its patch matrix with ``im2col(..., channels_last=True)``, whose rows
order their columns (k, k, C_in), and consumes its weight in the same
(C_out, k, k, C_in) order through ``FusedLayerParams.w_centred``; the GEMM's
(N*H_out*W_out, C_out) result is NHWC as it stands.  avgpool sums its k*k
strided slices in i64.  flatten restores NCHW order before it reshapes, and
so does the interpreter for a 4-D result, so linear weights, the fused record
and the bundle on disk keep the float model's NCHW layout.  The GEMM is exact
in any summation order, so the layout moves no bit.

A layer fused with ``beta_rounding=False`` keeps the offset real and
requantizes as ``Z_r + round((S_x S_W[c] acc_c alpha_c + beta_c) / S_r)``.
That real-valued form is also the float-assisted simulation that calibration
fits on: ``calibrate.sim_forward`` runs a model built unrounded through this
module's interpreter, so the unrounded engine and the simulation are one
code path.

The no-float-in-kernels contract is static, so it is checked once, when a
``FusedModel`` is built: every entry is a kind the engine runs, conv2d and
avgpool windows are sound, weight codes are integers, every per-channel array
has one entry per output channel, every (M0, shift) lies in the encoding's
range, and every gelu table maps each code of its input grid to a code.
The input is quantized to codes and every step maps codes to codes, so no
kernel of a checked model sees a float.

The ``fusion`` manifest section is written, read and printed only here, and
one table declares its record layout: ``FUSED_RECORDS`` lists, per entry
kind, each record key, the attribute that holds it and how it is stored.
The writer, the reader, ``dump_fused`` and the per-channel check all follow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compensate import ChannelAffineParams, identity_compensation
from .quant import QuantParams, code_dtype, quantize_uniform
from .refnet import PARAM_OPS, ModelBundle, gelu, im2col, window_positions

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


class EngineError(Exception):
    """Integer-engine contract violation (overflow risk, bad multiplier, ...)."""


@dataclass(frozen=True)
class IntActivationParams:
    """Per-tensor activation quantization parameters on the integer side."""

    s: float
    z: int
    bitwidth: int

    def __post_init__(self):
        if not (self.s > 0):
            raise EngineError("activation scale must be positive")
        if not (0 <= self.z <= 2**self.bitwidth - 1):
            raise EngineError("activation zero-point outside code range")

    @cached_property
    def quant_params(self) -> QuantParams:
        """The grid as ``QuantParams``, built on first use and kept."""
        return QuantParams(self.bitwidth, "per_tensor", np.array([self.s]), np.array([self.z]))


def round_half_away(x):
    """Nearest integer, ties away from zero (the engine's requantization rounding)."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def accumulator_scale(s_x, s_w):
    """Canonical f64 product S_x * S_W used by fit, fuse, and simulation alike."""
    return np.float64(s_x) * np.asarray(s_w, dtype=np.float64)


def encode_multiplier(m):
    """Real multiplier -> (M0, shift) with M0 in [2^30, 2^31), m ~= M0 * 2^-shift.

    A scalar gives Python ints; an array of multipliers gives i64 arrays of the
    same shape, element for element what the scalar call gives.
    """
    scalar = np.ndim(m) == 0
    m = np.asarray(m, dtype=np.float64)
    if not ((m > 0) & (m < 2.0**30)).all():  # NaN fails both tests
        bad = m[~(np.isfinite(m) & (m > 0))]
        if bad.size:
            raise EngineError(f"multiplier must be positive and finite, got {bad[0]}")
        raise EngineError(f"multiplier {m[m >= 2**30][0]} too large to encode")
    frac, exp = np.frexp(m)  # m = frac * 2^exp, frac in [0.5, 1)
    # frac * 2^31 is exact, and np.rint rounds half to even like Python's round
    m0 = np.rint(frac * 2.0**31).astype(np.int64)
    carry = m0 >> 31  # 1 where the mantissa rounded up to 2^31
    m0 >>= carry
    shift = 31 - exp - carry
    if shift.max() > 63:
        raise EngineError(f"multiplier {m[shift > 63][0]} too small to encode")
    if scalar:
        return int(m0), int(shift)
    return m0, shift


def decode_multiplier(m0: int, shift: int) -> float:
    return m0 * 2.0**-shift


def fixed_point_multiply(v, m0, shift):
    """round(v * M0 * 2^-shift) in pure i64 arithmetic, ties away from zero.

    ``m0``/``shift`` may be scalars or per-channel arrays broadcasting against
    the last axis of ``v``.  ``v`` must hold integers; i32 accumulators are
    multiplied straight into i64, and floats raise ``EngineError``.
    Branch-free: for p < 0, -((|p| + h) >> s) equals (p + h - 1) >> s with
    h = 2^(s-1), so negative products take one extra -1 before the shared
    nudge-and-shift.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "iu":
        raise EngineError(f"fixed-point multiply fed {v.dtype} values, not integers")
    p = np.multiply(v, m0, dtype=np.int64)  # an i32 accumulator times M0 < 2^31 stays below 2^62
    p -= p < 0
    p += np.int64(1) << (shift - 1)
    p >>= shift
    return p


@dataclass
class FusedLayerParams:
    """Everything one linear/conv layer needs on the integer-only path."""

    op_kind: str
    w_q: np.ndarray  # codes, (C_out, C_in) or (C_out, C_in, k, k)
    z_w: np.ndarray  # i64 per channel
    z_x: int
    z_r: int
    m0: np.ndarray  # i64 per channel
    shift: np.ndarray  # i64 per channel
    bias_acc: np.ndarray  # i64 per channel (quantized bias [+ beta offset])
    const_acc: np.ndarray  # i64 per channel (-Z_x * sum W_q + C_eff * Z_x * Z_W)
    bitwidth: int  # output codes
    w_bits: int
    in_bits: int
    s_x: float
    s_w: np.ndarray
    s_r: float
    alpha: np.ndarray
    beta_real: np.ndarray | None = None  # f64 per channel; folded into bias_acc when beta_rounding
    beta_rounding: bool = True
    kernel: int = 0
    stride: int = 1
    pad: int = 0

    @property
    def out_channels(self):
        return self.w_q.shape[0]

    @cached_property
    def w_centred(self):
        """(W_q - Z_W) as (C_out, C_eff) f32 or f64, the narrowest float that keeps the GEMM exact; built on first use.

        Every product and partial sum of ``x_q @ w.T`` is an integer of
        magnitude at most the reach ``qmax_in * max_c sum_j |w[c, j]|``.  f32
        represents every integer up to 2^24, so a layer whose reach is at most
        2^24 gets f32; f64 takes the rest up to 2^53, and a reach of 2^53 or
        more raises ``EngineError``.  A conv2d weight is permuted to (C_out,
        k, k, C_in) first, the column order of the engine's channels-last
        patches.
        """
        w_q = self.w_q.transpose(0, 2, 3, 1) if self.op_kind == "conv2d" else self.w_q
        w = w_q.reshape(self.out_channels, -1).astype(np.int64) - self.z_w[:, None]
        w = w.astype(np.float64)
        reach = np.abs(w).sum(axis=1).max(initial=0.0) * (2.0**self.in_bits - 1)
        if reach >= 2.0**53:
            raise EngineError(f"{self.op_kind}: accumulator reach {reach:.3g} >= 2^53, f64 GEMM would not be exact")
        return w.astype(np.float32) if reach <= 2.0**24 else w

    @cached_property
    def acc_offset(self):
        """``const_acc + bias_acc`` as one (1, C_out) i64 row, built on first use."""
        return (self.const_acc + self.bias_acc)[None, :]


@dataclass
class InferenceTrace:
    """Work counters of one inference.

    ``float_mul_count`` counts the float multiplies of unrounded layers,
    which requantize their real-valued offset in f64; it stays 0 on a model
    fused with ``beta_rounding=True``.  ``gemm_macs`` counts the
    multiply-accumulates ``integer_accumulate`` ran through the host's float
    GEMM, in f32 or f64 as each layer's reach allows: exact integer
    arithmetic on the host's BLAS, not float multiplies of the model.
    """

    float_mul_count: int = 0
    gemm_macs: int = 0


def integer_accumulate(x_q, layer: FusedLayerParams, trace: InferenceTrace | None = None):
    """i32 accumulators for a (N, C_eff) code matrix; exact integer results.

    ``acc = x_q @ (W_q - Z_W)^T + (const_acc + bias_acc)``, where
    ``const_acc`` holds the input-independent terms (-Z_x * sum W_q +
    C_eff * Z_x * Z_W).  The product runs as a float GEMM in the width of
    ``FusedLayerParams.w_centred``: f32 when every partial sum is an integer
    of magnitude at most 2^24, else f64 (below 2^53), so it is exact whatever
    order BLAS sums in.  The i64 row ``FusedLayerParams.acc_offset`` adds the
    constant terms.
    """
    x_q = np.asarray(x_q)
    if x_q.dtype.kind not in "iu":
        raise EngineError(f"{layer.op_kind}: integer kernel fed {x_q.dtype} input")
    w = layer.w_centred
    if x_q.ndim != 2 or x_q.shape[1] != w.shape[1]:
        raise EngineError(f"{layer.op_kind}: accumulate expects (N, {w.shape[1]}), got {x_q.shape}")
    if trace is not None:
        trace.gemm_macs += x_q.shape[0] * w.shape[0] * w.shape[1]
    # np.dot, not @: the same BLAS GEMM with less per-call overhead on batch-1 rows
    acc = np.dot(x_q.astype(w.dtype), w.T).astype(np.int64)
    acc += layer.acc_offset
    if acc.max(initial=0) > INT32_MAX or acc.min(initial=0) < INT32_MIN:
        raise EngineError(f"{layer.op_kind}: accumulator overflows i32")
    return acc.astype(np.int32)


def requantize(acc, layer: FusedLayerParams, trace: InferenceTrace | None = None):
    """i32 accumulators -> b-bit output codes.

    A layer fused with ``beta_rounding=True`` multiplies by its fixed-point
    M' = (M0, shift) in i64 arithmetic, the deployable integer path.  One
    fused with ``beta_rounding=False`` requantizes the real value
    ``S_x S_W acc alpha + beta`` in f64; that reference form, the
    fitting-time simulation, is not integer-only and shows up in the trace's
    float counter.  Accumulators that are not integers raise ``EngineError``.
    """
    acc = np.asarray(acc)
    if acc.dtype.kind not in "iu":
        raise EngineError(f"{layer.op_kind}: requantize fed {acc.dtype} accumulators, not integers")
    qmax = 2**layer.bitwidth - 1
    if not layer.beta_rounding:
        if trace is not None:
            trace.float_mul_count += acc.size + layer.out_channels
        y = accumulator_scale(layer.s_x, layer.s_w)[None, :] * acc
        y = y * layer.alpha.astype(np.float64)[None, :] + layer.beta_real[None, :]
        r = layer.z_r + round_half_away(y / np.float64(layer.s_r))
    else:
        r = fixed_point_multiply(acc, layer.m0[None, :], layer.shift[None, :])
        r += layer.z_r
    np.maximum(r, 0, out=r)  # the clip as two ufuncs: np.clip adds per-call overhead
    np.minimum(r, qmax, out=r)
    return r.astype(code_dtype(layer.bitwidth))


def _check_i32(name, values):
    values = np.asarray(values)
    if values.size and (values.max() > INT32_MAX or values.min() < INT32_MIN):
        raise EngineError(f"{name} exceeds i32 range at fuse time")
    return values.astype(np.int64)


def fuse_layer(
    w_q,
    bias,
    act_in: IntActivationParams,
    w_params: QuantParams,
    out: IntActivationParams,
    comp: ChannelAffineParams | None = None,
    beta_rounding=True,
    op_kind="linear",
    kernel=0,
    stride=1,
    pad=0,
) -> FusedLayerParams:
    """Fold quantization params + channel-affine compensation into one layer.

    Identity compensation reproduces the plain multiplier S_x S_W / S_r and a
    zero offset exactly; a fitted one rescales the multiplier by alpha and
    adds round(beta / (alpha S_x S_W)) into the bias accumulator.
    """
    w_q = np.asarray(w_q)
    c_out = w_q.shape[0]
    if comp is None:
        comp = identity_compensation(c_out)
    if comp.channels != c_out:
        raise EngineError(f"compensation has {comp.channels} channels, layer has {c_out}")
    alpha = comp.alpha.astype(np.float64)
    beta = comp.beta.astype(np.float64)
    if np.any(alpha <= 0):
        raise EngineError("fuse_layer needs positive per-channel gains (clamp negatives at fit time)")
    s_w = w_params.scales.astype(np.float64)
    z_w = w_params.zero_points.astype(np.int64)
    if len(s_w) != c_out:
        raise EngineError("weight params must be per-channel over the output dim")
    acc_scale = accumulator_scale(act_in.s, s_w)  # S_x * S_W per channel
    m0, shift = encode_multiplier(alpha * acc_scale / np.float64(out.s))

    bias_int = _check_i32("quantized bias", np.round(np.asarray(bias, dtype=np.float64) / acc_scale))
    if beta_rounding:
        beta_off = _check_i32("beta offset", np.round(beta / (alpha * acc_scale)))
        bias_acc = _check_i32("bias accumulator", bias_int + beta_off)
    else:
        bias_acc = bias_int
    w_mat = w_q.reshape(c_out, -1).astype(np.int64)
    c_eff = w_mat.shape[1]
    const_acc = _check_i32(
        "const accumulator", -np.int64(act_in.z) * w_mat.sum(axis=1) + np.int64(c_eff) * act_in.z * z_w
    )
    # worst-case accumulator magnitude over any admissible input
    reach = np.abs(w_mat - z_w[:, None]).sum(axis=1) * max(act_in.z, 2**act_in.bitwidth - 1 - act_in.z)
    if np.any(reach + np.abs(bias_acc) > INT32_MAX):
        raise EngineError("worst-case accumulator would overflow i32; reduce fan-in or bitwidth")
    return FusedLayerParams(
        op_kind=op_kind,
        w_q=w_q,
        z_w=z_w,
        z_x=act_in.z,
        z_r=out.z,
        m0=m0,
        shift=shift,
        bias_acc=bias_acc,
        const_acc=const_acc,
        bitwidth=out.bitwidth,
        w_bits=w_params.bitwidth,
        in_bits=act_in.bitwidth,
        s_x=act_in.s,
        s_w=s_w,
        s_r=out.s,
        alpha=comp.alpha,
        beta_real=beta,
        beta_rounding=beta_rounding,
        kernel=kernel,
        stride=stride,
        pad=pad,
    )


def beta_rounding_bound(layer: FusedLayerParams) -> np.ndarray:
    """Per-channel bound 0.5 * |alpha| * S_x * S_W on the beta-rounding deviation."""
    return 0.5 * np.abs(layer.alpha.astype(np.float64)) * accumulator_scale(layer.s_x, layer.s_w)


def beta_rounding_deviation(layer: FusedLayerParams, beta) -> np.ndarray:
    """Actual per-channel real-output deviation introduced by rounding beta."""
    alpha = layer.alpha.astype(np.float64)
    acc_scale = accumulator_scale(layer.s_x, layer.s_w)
    beta = np.asarray(beta, dtype=np.float64)
    off = np.round(beta / (alpha * acc_scale))
    return np.abs(alpha * acc_scale * off - beta)


def build_gelu_table(s, z, bitwidth, s_out=None, z_out=None):
    """2^b-entry code->code gelu lookup, built with float math at fuse time.

    Input codes live on the (s, z) grid; output codes land on (s_out, z_out),
    which defaults to the input grid.  A dedicated output grid spends the full
    code range on the activation's actual output span.
    """
    if s_out is None:
        s_out, z_out = s, z
    qmax = 2**bitwidth - 1
    codes = np.arange(qmax + 1)
    y = gelu((codes - z) * np.float64(s))
    table = np.clip(np.round(y / np.float64(s_out)) + z_out, 0, qmax)
    return table.astype(code_dtype(bitwidth))


# ---------------------------------------------------------------------------
# fused whole-model runtime


@dataclass
class FusedEntry:
    """One step of the integer forward: a fused layer or a code-domain op."""

    kind: str  # a key of FUSED_RECORDS: param | relu | gelu | avgpool | flatten
    layer: FusedLayerParams | None = None
    z: int = 0  # grid zero-point for relu
    lut: np.ndarray | None = None  # gelu table
    kernel: int = 0
    stride: int = 1
    pool_m0: int = 0
    pool_shift: int = 0


@dataclass(frozen=True)
class RecordKey:
    """One key of a fused record, the attribute that holds it, and how the ``fusion`` section stores it.

    ``form`` is ``scalar`` (inline, converted with ``dtype``), ``channels`` (an
    inline per-channel list, read back as a ``dtype`` array), ``acc`` (a
    per-channel blob written as i32 and read back to i64 through a safe cast,
    so a blob of floats fails instead of truncating), ``blob`` (an array blob
    kept as built) or ``index`` (the entry's position, held by no attribute).
    A blob is named ``blob.format(i=entry index)``.  Only a key with a
    ``default`` may be missing from a record.
    """

    key: str
    attr: str | None  # of FusedLayerParams in a param record, else of FusedEntry
    form: str
    dtype: type | None = None
    blob: str = ""
    default: int | None = None

    def write(self, i, holder, blobs):
        """This key's manifest value for entry ``i``; a blob it names goes into ``blobs``."""
        if self.form == "index":
            return i
        value = getattr(holder, self.attr)
        if self.form in ("acc", "blob"):
            name = self.blob.format(i=i)
            blobs[name] = value.astype(np.int32) if self.form == "acc" else value
            return name
        return self.dtype(value) if self.form == "scalar" else np.asarray(value, dtype=self.dtype).tolist()

    def read(self, where, record, bundle):
        """The attribute value that ``record`` stores under this key; ``where`` names the record in errors.

        An integer key rejects a number with a fractional part instead of
        truncating it; an integral float such as ``8.0`` reads as ``8``.
        """
        raw = record[self.key] if self.default is None else record.get(self.key, self.default)
        if self.form in ("acc", "blob"):
            blob = bundle.tensor(raw)
            return blob.astype(np.int64, casting="safe") if self.form == "acc" else blob
        value = self.dtype(raw) if self.form == "scalar" else np.array(raw, dtype=self.dtype)
        if self.dtype in (int, np.int64) and (value.tolist() if self.form == "channels" else value) != raw:
            raise EngineError(f"{where}: {self.key} must hold integers, got {raw!r}")
        return value

    def show(self, i, holder):
        """This key's value for entry ``i`` as ``dump_fused`` prints it."""
        value = i if self.form == "index" else getattr(holder, self.attr)
        if self.form == "blob":
            return f"shape={list(value.shape)} dtype={value.dtype}"
        return value.tolist() if isinstance(value, np.ndarray) else value


# The one declaration of the fused record: per entry kind, its keys in order.
# Every kind's record also holds its ``kind``; a param record's layer shares
# the fusion section's ``beta_rounding``.
FUSED_RECORDS = {
    "param": (
        RecordKey("layer_index", None, "index"),
        RecordKey("op_kind", "op_kind", "scalar", str),
        RecordKey("weight_codes", "w_q", "blob", blob="layer{i}.wq"),
        RecordKey("w_bits", "w_bits", "scalar", int),
        RecordKey("w_scales", "s_w", "channels", np.float64),
        RecordKey("w_zero_points", "z_w", "channels", np.int64),
        RecordKey("s_x", "s_x", "scalar", float),
        RecordKey("z_x", "z_x", "scalar", int),
        RecordKey("in_bits", "in_bits", "scalar", int),
        RecordKey("s_r", "s_r", "scalar", float),
        RecordKey("z_r", "z_r", "scalar", int),
        RecordKey("out_bits", "bitwidth", "scalar", int),
        RecordKey("m0", "m0", "channels", np.int64),
        RecordKey("shift", "shift", "channels", np.int64),
        RecordKey("bias_acc", "bias_acc", "acc", blob="layer{i}.bias_acc"),
        RecordKey("const_acc", "const_acc", "acc", blob="layer{i}.const_acc"),
        RecordKey("alpha", "alpha", "channels", np.float32),
        RecordKey("beta", "beta_real", "channels", np.float64),
        RecordKey("kernel", "kernel", "scalar", int, default=0),
        RecordKey("stride", "stride", "scalar", int, default=1),
        RecordKey("pad", "pad", "scalar", int, default=0),
    ),
    "relu": (RecordKey("z", "z", "scalar", int),),
    "gelu": (RecordKey("table", "lut", "blob", blob="entry{i}.gelu_lut"),),
    "avgpool": (
        RecordKey("kernel", "kernel", "scalar", int),
        RecordKey("stride", "stride", "scalar", int),
        RecordKey("m0", "pool_m0", "scalar", int),
        RecordKey("shift", "pool_shift", "scalar", int),
    ),
    "flatten": (),
}
_PER_CHANNEL_KEYS = tuple(k for k in FUSED_RECORDS["param"] if k.form in ("channels", "acc"))
# the input and output grids, keyed by IntActivationParams attribute
_GRID_KEYS = (
    RecordKey("scale", "s", "scalar", float),
    RecordKey("zero_point", "z", "scalar", int),
    RecordKey("bitwidth", "bitwidth", "scalar", int),
)


def _holder(entry: FusedEntry):
    """The object whose attributes ``FUSED_RECORDS[entry.kind]`` names."""
    return entry.layer if entry.kind == "param" else entry


def _check_encoding(i, m0, shift):
    """EngineError unless M0 in [2^30, 2^31) and 1 <= shift <= 63, the inputs ``fixed_point_multiply`` rounds right."""
    m0, shift = np.asarray(m0), np.asarray(shift)
    if not (np.all((m0 >= 2**30) & (m0 < 2**31)) and np.all((shift >= 1) & (shift <= 63))):
        raise EngineError(f"layer {i}: multiplier (m0, shift) outside the fixed-point encoding")


def _check_window(i, op, kernel, stride, pad=0):
    """EngineError unless a conv2d or avgpool window has kernel >= 1, stride >= 1 and pad >= 0."""
    if kernel < 1 or stride < 1 or pad < 0:
        raise EngineError(f"layer {i}: {op} needs kernel >= 1, stride >= 1, pad >= 0; got {kernel}, {stride}, {pad}")


@dataclass
class FusedModel:
    """The step IR: ``entries[i]`` runs layer i of the bundle it was built from."""

    input_params: IntActivationParams
    entries: list[FusedEntry]
    output_params: IntActivationParams

    def __post_init__(self):
        """EngineError unless every entry is a known kind on a sound window, fed integer codes of the right length.

        The code width is carried along the chain: each param entry's
        ``in_bits`` must be the width of the codes it receives, and the output
        grid must have the width of the codes the last entry writes.
        """
        bits = self.input_params.bitwidth
        for i, entry in enumerate(self.entries):
            if entry.kind not in FUSED_RECORDS:
                raise EngineError(f"layer {i}: unknown fused entry kind {entry.kind!r}")
            if entry.kind == "param":
                layer = entry.layer
                if layer.op_kind not in PARAM_OPS:
                    raise EngineError(f"layer {i}: param op_kind must be one of {PARAM_OPS}, got {layer.op_kind!r}")
                if layer.in_bits != bits:
                    raise EngineError(f"layer {i}: in_bits is {layer.in_bits}, but the layer receives {bits}-bit codes")
                if layer.op_kind == "conv2d":
                    _check_window(i, "conv2d", layer.kernel, layer.stride, layer.pad)
                if layer.w_q.dtype.kind not in "iu":
                    raise EngineError(f"layer {i}: weight codes are {layer.w_q.dtype}, not integers")
                n = layer.out_channels
                for k in _PER_CHANNEL_KEYS:
                    if np.shape(getattr(layer, k.attr)) != (n,):
                        shape = np.shape(getattr(layer, k.attr))
                        raise EngineError(f"layer {i}: {k.key} has shape {shape}, layer has {n} output channels")
                _check_encoding(i, layer.m0, layer.shift)
                bits = layer.bitwidth
            elif entry.kind == "avgpool":
                _check_window(i, "avgpool", entry.kernel, entry.stride)
                _check_encoding(i, entry.pool_m0, entry.pool_shift)
            elif entry.kind == "gelu":
                lut = entry.lut
                if lut.dtype.kind not in "iu" or lut.shape != (2**bits,) or not 0 <= lut.min() <= lut.max() < 2**bits:
                    raise EngineError(f"layer {i}: gelu table must map all {2**bits} codes to {bits}-bit codes")
        if self.output_params.bitwidth != bits:
            raise EngineError(f"output grid is {self.output_params.bitwidth}-bit, but the last layer writes {bits}-bit codes")

    @property
    def beta_rounding(self):
        """True when every fused layer folds its offset into the integer bias (integer-only)."""
        return all(e.layer.beta_rounding for e in self.entries if e.kind == "param")


def _run_param_entry(i, layer, x_q, trace, tap):
    if layer.op_kind == "linear":
        rows = x_q
    else:
        # conv2d on NHWC codes: (k, k, C) patches on the code dtype, padded with the
        # input zero-point; the GEMM's (N*H_out*W_out, C_out) result is already NHWC
        cols, h_out, w_out = im2col(x_q, layer.kernel, layer.stride, layer.pad, pad_value=layer.z_x, channels_last=True)
        rows = cols.reshape(x_q.shape[0] * h_out * w_out, -1)
    acc = integer_accumulate(rows, layer, trace=trace)
    if tap is not None:
        layer = tap(i, x_q, acc, layer)
    r = requantize(acc, layer, trace=trace)
    if layer.op_kind == "linear":
        return r
    return r.reshape(x_q.shape[0], h_out, w_out, layer.out_channels)


def _avgpool_codes(entry, x_q):
    """Average pooling of NHWC codes: k*k strided slices summed in i64, then the fixed-point 1/k^2."""
    k, s = entry.kernel, entry.stride
    n, h, w, c = x_q.shape
    h_out, w_out = window_positions(h, w, k, s, 0)
    h_span, w_span = s * (h_out - 1) + 1, s * (w_out - 1) + 1
    sums = np.zeros((n, h_out, w_out, c), dtype=np.int64)
    for di in range(k):
        for dj in range(k):
            sums += x_q[:, di : di + h_span : s, dj : dj + w_span : s]
    return fixed_point_multiply(sums, entry.pool_m0, entry.pool_shift).astype(x_q.dtype)


def _nchw(x_q):
    """NHWC codes back in NCHW order (a view); codes of any other rank unchanged."""
    return x_q.transpose(0, 3, 1, 2) if x_q.ndim == 4 else x_q


def _interpret(model: FusedModel, x, trace: InferenceTrace, tap=None):
    """The one forward over a FusedModel: quantize, run every entry on codes, dequantize.

    ``tap(i, x_q, acc, layer)``, when given, sees each param entry's input
    codes and i32 accumulators and returns the layer to requantize them with;
    the fitting-time simulation captures and overrides compensation through it.
    A linear entry's ``x_q`` is its (N, C_in) matrix; a conv2d entry's is
    (N, H, W, C_in), NHWC, and its ``acc`` rows run over (n, h_out, w_out).
    4-D codes stay NHWC from the input to the last entry or a flatten; the
    result is NCHW.
    """
    x = np.asarray(x, dtype=np.float32)
    x_q = quantize_uniform(x, model.input_params.quant_params)
    if x_q.ndim == 4:
        x_q = x_q.transpose(0, 2, 3, 1)  # 4-D codes travel NHWC between entries
    for i, entry in enumerate(model.entries):
        if entry.kind == "param":
            x_q = _run_param_entry(i, entry.layer, x_q, trace, tap)
        elif entry.kind == "relu":
            x_q = np.maximum(x_q, np.asarray(entry.z, dtype=x_q.dtype))
        elif entry.kind == "gelu":
            x_q = np.take(entry.lut, x_q)
        elif entry.kind == "avgpool":
            x_q = _avgpool_codes(entry, x_q)
        elif entry.kind == "flatten":
            x_q = _nchw(x_q).reshape(x_q.shape[0], -1)
    x_q = _nchw(x_q)
    p = model.output_params
    return ((x_q.astype(np.float64) - p.z) * p.s).astype(np.float32)


def run_int_model(model: FusedModel, x, trace: InferenceTrace | None = None):
    """Quantize the input once, run all layers in integer arithmetic, dequantize logits.

    Returns (logits_f32, trace).  The input quantization and final dequantization
    are the only floating-point steps and sit outside the kernels; a non-finite
    input raises ``QuantError``.
    """
    if trace is None:
        trace = InferenceTrace()
    return _interpret(model, x, trace), trace


# ---------------------------------------------------------------------------
# bundle <-> runtime

# _fused_bundle() writes the ``fusion`` section, fused_runtime() reads it back
# and dump_fused() prints a loaded model: all three, and the per-channel check
# of FusedModel, follow FUSED_RECORDS.


def _grid_manifest(p: IntActivationParams):
    return {k.key: k.write(None, p, None) for k in _GRID_KEYS}


def _read_grid(name, g) -> IntActivationParams:
    return IntActivationParams(**{k.attr: k.read(f"{name} grid", g, None) for k in _GRID_KEYS})


def _fused_bundle(bundle: ModelBundle, model: FusedModel, beta_rounding: bool) -> ModelBundle:
    """``bundle`` plus a ``fusion`` section serializing ``model`` and the blobs it names."""
    blobs = {}
    entries = [
        {"kind": e.kind, **{k.key: k.write(i, _holder(e), blobs) for k in FUSED_RECORDS[e.kind]}}
        for i, e in enumerate(model.entries)
    ]
    fusion = {
        "beta_rounding": beta_rounding,
        "input": _grid_manifest(model.input_params),
        "output": _grid_manifest(model.output_params),
        "entries": entries,
    }
    return bundle.derive("fusion", fusion, blobs)


def fused_runtime(bundle) -> FusedModel:
    """The ``FusedModel`` a bundle's ``fusion`` section describes; ``EngineError`` if it is absent or malformed."""
    fusion = bundle.manifest.get("fusion")
    if fusion is None:
        raise EngineError("bundle has no fusion section; run fuse first")
    try:
        beta_rounding = fusion["beta_rounding"]
        if not isinstance(beta_rounding, bool):
            raise EngineError(f"fusion beta_rounding must be true or false, got {beta_rounding!r}")
        entries = []
        for i, e in enumerate(fusion["entries"]):
            kind = e["kind"]
            # a kind the table does not list reads as a bare entry, which FusedModel rejects
            values = {k.attr: k.read(f"layer {i}", e, bundle) for k in FUSED_RECORDS.get(kind, ()) if k.attr}
            if kind == "param":
                entries.append(FusedEntry(kind, layer=FusedLayerParams(**values, beta_rounding=beta_rounding)))
            else:
                entries.append(FusedEntry(kind, **values))
        return FusedModel(_read_grid("input", fusion["input"]), entries, _read_grid("output", fusion["output"]))
    except (KeyError, TypeError, ValueError) as e:  # a key missing or a value of the wrong type
        raise EngineError(f"malformed fusion section: {type(e).__name__} {e}") from e


def dump_fused(model: FusedModel, file):
    """Print ``model`` to ``file`` as text: its grids, then one block per entry with one line per record key.

    Per-channel arrays print in full and a blob as its shape and dtype; the
    values are the loaded engine's, whatever spelling the manifest used.
    """
    print(f"beta_rounding: {model.beta_rounding}", file=file)
    for name, grid in (("input", model.input_params), ("output", model.output_params)):
        print(f"{name}: " + " ".join(f"{k}={v}" for k, v in _grid_manifest(grid).items()), file=file)
    for i, entry in enumerate(model.entries):
        holder = _holder(entry)
        print(f"[{holder.op_kind if entry.kind == 'param' else entry.kind}] layer {i}", file=file)
        for k in FUSED_RECORDS[entry.kind]:
            print(f"  {k.key}: {k.show(i, holder)}", file=file)
