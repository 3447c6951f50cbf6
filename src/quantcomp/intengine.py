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
off``, where the offset ``off = -Z_x sum_j (W_q - Z_W)[c, j] + bias_acc[c]``
holds the last three terms.  As in Jacob et al., the zero-point terms are
derived from the codes, not stored: the offset comes from the row sums of
W_q - Z_W that the i32 proof below takes.  The GEMM runs on the host's float
BLAS, and its result is the exact integer: every product and every partial
sum is an integer of magnitude at most the layer's GEMM reach ``(2^in_bits -
1) * max_c sum_j |W_q - Z_W|``.  f32 holds every integer of magnitude up to
2^24 and f64 every one up to 2^53, so within those bounds no summation order,
and no FMA, can round.  Like the gemmlowp line of integer engines, which pick
the narrowest accumulator the value range allows, each layer picks its GEMM
width once, from its reach (``FusedLayerParams.w_centred``): f32 when the
reach is at most 2^24, f64 otherwise.  The trace counts these MACs in
``gemm_macs`` apart from ``float_mul_count``: they are exact integer
arithmetic on the host, not a claim about what deployment hardware runs.

Every accumulator fits i32 by proof, once per layer, not by a check per call.
``FusedLayerParams.acc_bounds`` computes each channel's least and greatest
accumulator over all input codes, the ℓ1 bound of A2Q (Colbert et al. 2023,
arXiv 2308.13504) taken per sign, which codes at 0 and at qmax attain, and
rejects a layer whose bounds leave i32.  The same pass checks that weight
codes lie on their grid.  ``fuse_layer`` runs the proof on every layer it
makes, and ``FusedModel`` runs it on every param entry when the model is
built or loaded, so the error names the layer and no model exists unproven;
``w_centred``, the GEMM operand, is built only after it.  The GEMM reach is
``max(hi - lo)`` of those bounds, so a proven layer's reach is below 2^32
and its GEMM exact in f64 at worst.

Codes with spatial extent travel channels-last (NHWC), the layout integer
engines use so that a patch copy moves contiguous runs, k*C_in codes per
window row.  The interpreter transposes the quantized (N, C, H, W) input
once.  A conv2d builds its patch matrix in one copy with ``refnet.im2col``,
whose rows order their columns (k, k, C_in), and consumes its weight in the
same order through ``FusedLayerParams.w_centred``, which takes it from
``refnet.weight_matrix`` as the float reference's conv does; the GEMM's
(N*H_out*W_out, C_out) result is NHWC as it stands.  avgpool sums its k*k
strided slices in i64 with ``refnet.window_sums``, from zero in (di, dj)
row-major order: the order in which the float reference's avgpool sums its
f32 slices.  flatten restores NCHW order before it reshapes, and so does the
interpreter for a 4-D result, so linear weights, the fused record and the
bundle on disk keep the float model's NCHW layout.  The GEMM is exact in any
summation order, so the layout moves no bit.

The interpreter runs a plan (``FusedModel.plan``), built on a model's first
run and kept: one step per entry, a closure over what the entry needs.
``_interpret`` quantizes the input with ``quantize_uniform``, runs the steps
in order and dequantizes the result.  A param step calls ``integer_accumulate``
(patches first, through ``im2col``, for a conv2d) and ``requantize``, which
calls ``fixed_point_multiply``; the layer keeps its GEMM operand, its
accumulator offset row and its requantize operands once built
(``FusedLayerParams.requant_rows``).  As in the gemmlowp line, which fixes
each layer's output pipeline offline (Jacob et al. 2018), a layer whose
proven accumulator bounds allow it requantizes with one shift S, its
largest: its mantissas become M0 << (S - shift), which gives the same codes,
and the nudge add and the shift each run on one scalar instead of a row per
channel.  That nudge ``(1 << (S - 1)) + (Z_r << S)`` folds the output
zero-point into the rounding shift, exactly, because ``Z_r << S`` is a
multiple of 2^S; any other layer adds Z_r after its per-channel shifts.
``requantize`` thus takes only accumulators the layer can produce, within
its ``acc_bounds``, not any i32 value.  A relu right after a param entry is
no step of its own: ``max(z, clip(r, 0, q)) == clip(r, z, q)`` for a code
z, so z becomes the lower bound of that requantize's clip.
relu (after any other entry), gelu, avgpool (which calls
``fixed_point_multiply``) and flatten are one step each.
The sign step of the half-away rounding, p += p >> 63, runs only where a
negative tie can reach an output code: not on avgpool's sums, which are never
negative, and not on a layer whose clip floor is at least Z_r or whose
multipliers admit no tie on an i32 accumulator (see ``requantize``).
The steps find the kernels by their module-global names at each call, so a
tracer that rebinds them sees every call.

Each param step runs its GEMM in blocks of samples, as the gemmlowp line
blocks inside the GEMM, sized from that GEMM's own shape (Jacob et al.
2018): a block holds as many samples as fit the fixed byte budget
``BLOCK_BYTES`` with that step's working set, its operand rows in the GEMM's
float width plus its i64 accumulator rows (``_param_step``).  Every step
maps each sample on its own, so blocking moves no bit; a batch that fits
runs as one block, as do the fitting-time simulation's batches, whose taps
need whole-layer captures.  The other steps, and the input quantization,
run once per batch.

A layer fused with ``beta_rounding=False`` keeps the offset real and
requantizes as ``Z_r + round((S_x S_W[c] acc_c alpha_c + beta_c) / S_r)``.
That real-valued form is also the float-assisted simulation that calibration
fits on: ``calibrate.sim_forward`` runs a model built unrounded through this
module's interpreter, so the unrounded engine and the simulation are one
code path.

The no-float-in-kernels contract and the i32 proof are static, so they are
checked once, when a ``FusedModel`` is built or loaded: every entry is a kind
the engine runs, conv2d and avgpool windows are sound, weight codes are
integers, every per-channel array has one entry per output channel, every
scale and gain is positive, every (M0, shift) lies in the encoding's range,
every param layer's input, weight and output zero-points and every relu
zero-point are codes of the grid each acts on, every gelu table maps each
code of its input grid to a code, and every param layer's accumulators fit
i32.
The input is quantized to codes and every step maps codes to codes, so no
kernel of a checked model sees a float or overflows.

The ``fusion`` manifest section is written, read and printed only here, and
one table declares its record layout: ``FUSED_RECORDS`` lists, per entry
kind, each record key, the attribute that holds it and how it is stored.
The writer, the reader, ``dump_fused`` and the per-channel check all follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compensate import ChannelAffineParams, identity_compensation
from .quant import QuantParams, code_dtype, dequantize, quantize_uniform
from .refnet import (
    GRID_KEYS, LAYER_KIND, PARAM_OPS, ModelBundle, RecordKey, gelu, im2col, read_record, reading_section, weight_matrix,
    window_positions, window_sums, write_record,
)

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
# The GEMM working set one block of a param step may take (see ``_param_step``).  On a 2-vCPU
# Xeon with 2 MiB of L2 per core, the bench's conv batches ran within noise of each other at 2, 3,
# 4 and 6 MiB; the u8 patches, the float GEMM result and the requantize temporaries, which the
# budget leaves out, add about half as much again
BLOCK_BYTES = 4 * 2**20
_SIGN_BIT = np.array(63, np.int64)  # i64 p >> 63 is -1 where p < 0, else 0; 0-d, so no ufunc call converts it


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
    """Nearest integer, ties away from zero (the engine's requantization rounding), in one temporary."""
    x = np.asarray(x, dtype=np.float64)
    r = np.abs(x, out=np.empty_like(x))  # the one temporary, an array even for a 0-d x
    r += 0.5
    return np.copysign(np.floor(r, out=r), x, out=r)


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


def fixed_point_multiply(v, m0, shift, nudge=None, sign_step=True):
    """round(v * M0 * 2^-shift) in pure i64 arithmetic, ties away from zero.

    ``m0``/``shift``/``nudge`` may each be a scalar or a per-channel array
    broadcasting against the last axis of ``v``; ``requantize`` passes
    scalars for the shift and the nudge where its layer allows
    (``FusedLayerParams.requant_rows``).  ``v`` must hold integers; they are
    multiplied into i64, an i64 ``v`` by a plain product, and floats raise
    ``EngineError``.  The caller keeps |v * M0| + nudge below 2^63: an i32
    value times an M0 below 2^31, with the plain rounding half, always does.
    Branch-free: for p < 0, -((|p| + h) >> s) equals (p + h - 1) >> s with
    h = 2^(s-1), so negative products take one extra -1, the sign step p +=
    p >> 63 (-1 exactly where p < 0; one i64 pass, no bool temporary), before
    the shared nudge-and-shift.  ``nudge``, when given, replaces h; a
    nudge of h + (z << s) returns the result plus z exactly, because z << s
    is a multiple of 2^s.

    The sign step moves a result only at a negative tie: (p + h) >> s and
    (p + h - 1) >> s differ only where p + h is a multiple of 2^s, that is
    where v2(p) = s - 1 (v2: the exponent of 2 in p), and p = v * M0.
    ``sign_step=False`` skips it; a caller passes that only where no such
    tie can reach a result it keeps: avgpool's window sums are never
    negative, and ``requantize`` decides it per layer.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "iu":
        raise EngineError(f"fixed-point multiply fed {v.dtype} values, not integers")
    p = v * m0 if v.dtype == np.int64 else np.multiply(v, m0, dtype=np.int64)
    if sign_step:
        p += p >> _SIGN_BIT
    p += (np.int64(1) << (shift - 1)) if nudge is None else nudge
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
    bias_acc: np.ndarray  # i32 per channel (quantized bias [+ beta offset])
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
    def acc_bounds(self):
        """The layer's i32 proof: per channel (lo, hi, off), the least and greatest accumulator and their offset, in f64.

        Built once, on first use: ``fuse_layer`` and ``FusedModel`` call it
        before any kernel sees the layer.  With d = W_q - Z_W, the accumulator
        is ``sum_j (x_j - Z_x) d[c, j] + bias_acc[c]``, that is ``sum_j x_j
        d[c, j] + off[c]`` with the offset off = -Z_x sum_j d[c, j] +
        bias_acc.  Each input code x_j lies in [0, qmax_in] on its own, so the
        greatest accumulator is ``qmax_in * sum_j max(d, 0) + off`` and the
        least ``qmax_in * sum_j min(d, 0) + off``.  Codes at 0 and at qmax_in
        attain both (a conv's padding is Z_x, inside that range), so the bound
        is exact and is the ℓ1 bound of A2Q (Colbert et al. 2023, arXiv
        2308.13504) per sign.

        ``EngineError`` unless every weight code lies in [0, 2^w_bits) and
        both bounds lie in i32 range on every channel.  The sums run in f64,
        exact while every partial sum is below 2^53.  That holds on any layer
        whose bounds fit i32, since their spread qmax_in * sum_j |d| is then
        below 2^32; past 2^53 the spread is far too wide for rounding to bring
        both into i32.  The offset lies between the bounds, so on a proven
        layer it is an exact integer of i32 range too.
        """
        w = self.w_q.reshape(self.out_channels, -1)
        unsigned = w.dtype.kind == "u"
        narrow = unsigned and w.dtype.itemsize * 8 <= self.w_bits  # a dtype that holds only codes
        if not narrow and w.size and ((not unsigned and w.min() < 0) or w.max() >= 2**self.w_bits):
            raise EngineError(f"{self.op_kind}: weight_codes outside [0, 2^{self.w_bits}) for w_bits {self.w_bits}")
        d = w.astype(np.float64)
        d -= self.z_w.astype(np.float64)[:, None]  # an f64 row: a mixed-dtype subtract runs a slow buffered cast
        ones = np.ones(d.shape[1])  # row sums as BLAS matrix-vector products: fewer per-call costs than .sum
        total = d @ ones
        pos = np.maximum(d, 0.0, out=d) @ ones
        qmax, off = 2.0**self.in_bits - 1, self.bias_acc - self.z_x * total
        lo, hi = qmax * (total - pos) + off, qmax * pos + off
        if hi.max(initial=0.0) > INT32_MAX or lo.min(initial=0.0) < INT32_MIN:
            raise EngineError(f"{self.op_kind}: worst-case accumulator would overflow i32; reduce fan-in or bitwidth")
        return lo, hi, off

    @cached_property
    def w_centred(self):
        """(W_q - Z_W) as (C_out, C_eff) f32 or f64, the narrowest float that keeps the GEMM exact; built on first use.

        Every product and partial sum of ``x_q @ w.T`` is an integer of
        magnitude at most the GEMM reach ``qmax_in * max_c sum_j |w[c, j]|``,
        which is ``max(hi - lo)`` of ``acc_bounds``; the operand is built only
        once that proof has passed, so the reach is below 2^32.  f32
        represents every integer up to 2^24, so a layer whose reach is at most
        2^24 gets f32, and f64, exact up to 2^53, takes the rest.
        ``refnet.weight_matrix`` gives the columns of a conv2d weight the (k,
        k, C_in) order of ``im2col``'s patches.
        """
        lo, hi, _ = self.acc_bounds
        w = weight_matrix(self.w_q).astype(np.float64)
        w -= self.z_w.astype(np.float64)[:, None]
        return w.astype(np.float32) if (hi - lo).max(initial=0.0) <= 2.0**24 else w

    @cached_property
    def gemm_operands(self):
        """``w_centred.T`` and the proof's offset ``-Z_x sum_j (W_q - Z_W)[c, j] + bias_acc[c]`` as one (1, C_out) i64 row."""
        return self.w_centred.T, self.acc_bounds[2].astype(np.int64)[None, :]

    @cached_property
    def requant_rows(self):
        """(m0, shift, nudge) for ``fixed_point_multiply``, the zero-point to add after the shift, and "no tie"; built on first use.

        There are two forms:
        - one shift, where the layer's bounds allow it: with S the largest
          shift, m0 is the (1, C_out) i64 row M0' = M0 << (S - shift), and
          shift and nudge are S and 2^(S-1) + (Z_r << S) as 0-d i64 arrays,
          so the nudge add and the shift run on scalars (a 0-d array, unlike
          a numpy scalar, costs no conversion per call, which a one-row batch
          would feel).  Z_r << S is a multiple of 2^S, so the shift returns
          the result plus Z_r exactly, and nothing is added after it.  The
          form needs |acc| M0' + nudge < 2^63 for every accumulator the layer
          can produce, so a layer takes it when max(|lo|, |hi|, 1) * M0' +
          nudge < 2^63 on every channel, with lo and hi from ``acc_bounds``
          (the 1 keeps M0' itself in i64);
        - per channel, elsewhere: (1, C_out) rows of M0, shift and the
          rounding half 2^(shift-1), with Z_r added after the shift.  An i32
          accumulator times M0 < 2^31 is below 2^62, and so is the half.

        Both give the same codes: with p = acc * M0, k = S - shift and
        q = p + 2^(shift-1) + (Z_r << shift), the one-shift form computes
        floor((q 2^k - e) / 2^S) and the per-channel form floor((p +
        2^(shift-1) - e) / 2^shift) + Z_r = floor((q - e) / 2^shift), which
        are equal for the sign step's e = 1 as for e = 0.

        A tie of ``fixed_point_multiply`` needs v2(acc * M0) = shift - 1, that
        is v2(acc) = shift - 1 - ctz(M0), the same for (M0', S).  A nonzero
        accumulator of i32 range has v2(acc) <= 31 (31 only at INT32_MIN), so
        a channel with shift - ctz(M0) >= 33 admits no tie at all; the last
        entry is True when every channel does.
        """
        tie_free = bool((self.shift - np.log2(self.m0 & -self.m0) >= 33).all())  # M0 & -M0 = 2^ctz(M0)
        top = int(self.shift.max(initial=1))
        nudge = (1 << (top - 1)) + (int(self.z_r) << top)
        lo, hi, _ = self.acc_bounds
        reach = np.maximum(np.maximum(-lo, hi), 1.0).tolist()  # exact integers in f64
        channels = zip(reach, self.m0.tolist(), self.shift.tolist())
        if all(int(a) * (m0 << (top - s)) + nudge < 2**63 for a, m0, s in channels):  # Python ints: exact
            m0 = (self.m0 << (top - self.shift))[None, :]
            return m0, np.array(top, np.int64), np.array(nudge, np.int64), 0, tie_free
        shift = self.shift[None, :]
        return self.m0[None, :], shift, np.int64(1) << (shift - 1), self.z_r, tie_free

    @cached_property
    def out_dtype(self):
        """The dtype of this layer's output codes."""
        return code_dtype(self.bitwidth)

    @cached_property
    def code_max(self):  # requantize's clip ceiling 2^b - 1, a 0-d i64 like the scalars of ``requant_rows``
        return np.array(2**self.bitwidth - 1, np.int64)


@dataclass
class InferenceTrace:
    """Work counters of one inference.

    ``float_mul_count`` counts the float multiplies of unrounded layers,
    which requantize their real-valued offset in f64; it stays 0 on a model
    fused with ``beta_rounding=True``.  Each ``requantize`` call counts one
    multiply per accumulator plus the C_out products S_x S_W it forms, so a
    param step that runs its batch in blocks (``_param_step``) counts those
    once per block.  ``gemm_macs`` counts the
    multiply-accumulates ``integer_accumulate`` ran through the host's float
    GEMM, in f32 or f64 as each layer's reach allows: exact integer
    arithmetic on the host's BLAS, not float multiplies of the model.
    """

    float_mul_count: int = 0
    gemm_macs: int = 0


def integer_accumulate(x_q, layer: FusedLayerParams, trace: InferenceTrace | None = None):
    """Accumulators of i32 range, held in i64, for a (N, C_eff) matrix of ``in_bits`` codes; exact integer results.

    ``acc = x_q @ (W_q - Z_W)^T + off``, where the i64 row
    of ``FusedLayerParams.gemm_operands`` holds the input-independent terms.  The
    product runs as a float GEMM in the width of ``FusedLayerParams.w_centred``:
    f32 when every partial sum is an integer of magnitude at most 2^24, else
    f64 (below 2^53), so it is exact whatever order BLAS sums in.

    The i32 range is proved once per layer, not checked per call:
    ``FusedLayerParams.acc_bounds`` shows that every input of codes in [0,
    2^in_bits) keeps every accumulator in i32, a ``FusedModel`` runs it on
    every param layer when it is built or loaded, and both operands above are
    built after it.  Codes of that width are the caller's side of the contract; the plan's
    input quantization and its steps give them.
    """
    x_q = np.asarray(x_q)
    if x_q.dtype.kind not in "iu":
        raise EngineError(f"{layer.op_kind}: integer kernel fed {x_q.dtype} input")
    w, offset = layer.gemm_operands
    if x_q.ndim != 2 or x_q.shape[1] != w.shape[0]:
        raise EngineError(f"{layer.op_kind}: accumulate expects (N, {w.shape[0]}), got {x_q.shape}")
    if trace is not None:
        trace.gemm_macs += x_q.shape[0] * w.shape[0] * w.shape[1]
    # np.dot, not @: the same BLAS GEMM with less per-call overhead on batch-1 rows.
    # A cast, then an in-place add: one np.add(..., dtype=np.int64, casting="unsafe")
    # runs through numpy's buffered cast and measured slower at every batch size
    acc = np.dot(x_q.astype(w.dtype), w).astype(np.int64)
    acc += offset
    return acc


def requantize(acc, layer: FusedLayerParams, trace: InferenceTrace | None = None, lo=0):
    """Accumulators the layer can produce -> b-bit output codes, clipped to [lo, 2^b - 1].

    ``acc`` must hold accumulators of ``layer``, each channel's within its
    proven ``acc_bounds``, as ``integer_accumulate`` returns them; any i32
    value is not enough, because the one-shift form of ``requant_rows`` is
    chosen from those bounds and an accumulator past them may overflow i64.
    A layer fused with ``beta_rounding=True`` multiplies by its fixed-point
    M' = (M0, shift) in i64 arithmetic, the deployable integer path, with the
    output zero-point folded into the rounding nudge and, where the bounds
    allow, one shift for the whole layer (``FusedLayerParams.requant_rows``).
    One fused with
    ``beta_rounding=False`` requantizes the real value ``S_x S_W acc alpha +
    beta`` in f64; that reference form, the fitting-time simulation, is not
    integer-only and shows up in the trace's float counter.  Accumulators that
    are not integers raise ``EngineError``.  A ``lo`` above 0 is a relu with
    that zero-point folded into the clip: max(lo, clip(r, 0, q)) equals
    clip(r, lo, q) for 0 <= lo <= q.

    The sign step of ``fixed_point_multiply``, which makes a tie round away
    from zero rather than up, changes a code only at a negative tie, where
    v2(acc * M0) = shift - 1.  The fixed-point path skips it where no such
    tie can reach a code, decided from the layer and ``lo``, not the data:
    - Z_r <= lo: a negative acc gives p = acc * M0 <= -M0 < 0, so
      (p + 2^(shift-1)) >> shift <= 0 under either rule; its code is at
      most Z_r and clips to lo either way;
    - shift - ctz(M0) >= 33 on every channel (``requant_rows``): a tie then
      needs v2(acc) >= 32, which no nonzero accumulator of i32 range has.
    """
    acc = np.asarray(acc)
    if acc.dtype.kind not in "iu":
        raise EngineError(f"{layer.op_kind}: requantize fed {acc.dtype} accumulators, not integers")
    if not layer.beta_rounding:
        if trace is not None:
            trace.float_mul_count += acc.size + layer.out_channels
        # in place on one f64 array (the same operations in the same order),
        # so the i64 accumulators raise no memory peak over an i32 copy
        y = accumulator_scale(layer.s_x, layer.s_w)[None, :] * acc
        y *= layer.alpha.astype(np.float64)[None, :]
        y += layer.beta_real[None, :]
        y /= np.float64(layer.s_r)
        r = round_half_away(y)
        r += layer.z_r
    else:
        m0, shift, nudge, z_after, tie_free = layer.requant_rows
        r = fixed_point_multiply(acc, m0, shift, nudge, sign_step=not (tie_free or layer.z_r <= int(lo)))
        if z_after:
            r += z_after
    np.maximum(r, lo, out=r)  # the clip as two ufuncs on 0-d bounds: np.clip adds per-call overhead
    np.minimum(r, layer.code_max, out=r)
    return r.astype(layer.out_dtype)


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
    if (alpha <= 0).any():
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
    layer = FusedLayerParams(
        op_kind=op_kind,
        w_q=w_q,
        z_w=z_w,
        z_x=act_in.z,
        z_r=out.z,
        m0=m0,
        shift=shift,
        bias_acc=bias_acc.astype(np.int32),
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
    layer.acc_bounds  # the i32 proof: EngineError if some input could overflow an accumulator
    return layer


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


# The one declaration of the fused record: per entry kind, its keys in order.
# Every kind's record also holds its ``kind``; a param record's layer shares
# the fusion section's ``beta_rounding``.
FUSED_RECORDS = {
    "param": (
        LAYER_KIND,
        RecordKey("weight_codes", "w_q", "blob", blob="layer{i}.wq"),
        RecordKey("w_bits", "w_bits", "scalar", int),
        RecordKey("w_scales", "s_w", "channels", np.float64, blob="entry{i}.w_scales"),
        RecordKey("w_zero_points", "z_w", "channels", np.int64, blob="entry{i}.w_zero_points"),
        RecordKey("s_x", "s_x", "scalar", float),
        RecordKey("z_x", "z_x", "scalar", int),
        RecordKey("in_bits", "in_bits", "scalar", int),
        RecordKey("s_r", "s_r", "scalar", float),
        RecordKey("z_r", "z_r", "scalar", int),
        RecordKey("out_bits", "bitwidth", "scalar", int),
        RecordKey("m0", "m0", "channels", np.int64, blob="entry{i}.m0"),
        RecordKey("shift", "shift", "channels", np.int64, blob="entry{i}.shift"),
        RecordKey("bias_acc", "bias_acc", "channels", np.int32, blob="entry{i}.bias_acc"),
        RecordKey("alpha", "alpha", "channels", np.float32, blob="entry{i}.alpha"),
        RecordKey("beta", "beta_real", "channels", np.float64, blob="entry{i}.beta"),
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
# the param keys FusedModel checks for one entry per output channel
_CHANNEL_KEYS = tuple(k for k in FUSED_RECORDS["param"] if k.form == "channels")
# the fusion section's own flag: whether every param layer folds its offset into the integer bias
BETA_ROUNDING = RecordKey("beta_rounding", "beta_rounding", "scalar", bool)


def _holder(entry: FusedEntry):
    """The object whose attributes ``FUSED_RECORDS[entry.kind]`` names."""
    return entry.layer if entry.kind == "param" else entry


def _check_encoding(i, m0, shift):
    """EngineError unless M0 in [2^30, 2^31) and 1 <= shift <= 63, the inputs ``fixed_point_multiply`` rounds right."""
    m0, shift = np.asarray(m0), np.asarray(shift)
    if not (m0.min() >= 2**30 and m0.max() < 2**31 and shift.min() >= 1 and shift.max() <= 63):
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
        ``in_bits`` must be the width of the codes it receives, its ``z_x`` a
        code of that width, its weight zero-points codes of its ``w_bits`` and
        its ``z_r`` a code of its output width (the one-shift nudge of
        ``requant_rows`` takes Z_r's bit length on trust), and the output grid
        must have the width of the codes the last entry writes.  Every param
        layer's i32 proof (``FusedLayerParams.acc_bounds``) runs here too, so
        every model that exists, built or loaded, is proven, and the error
        names the layer.
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
                if not 0 <= layer.z_x < 2**bits:
                    raise EngineError(f"layer {i}: z_x {layer.z_x} is not a {bits}-bit code")
                if layer.op_kind == "conv2d":
                    _check_window(i, "conv2d", layer.kernel, layer.stride, layer.pad)
                if layer.w_q.dtype.kind not in "iu":
                    raise EngineError(f"layer {i}: weight codes are {layer.w_q.dtype}, not integers")
                n = layer.out_channels
                if layer.w_q.size == 0:
                    raise EngineError(f"layer {i}: empty weight codes of shape {layer.w_q.shape} ({n} output channels)")
                for k in _CHANNEL_KEYS:
                    if (shape := np.shape(getattr(layer, k.attr))) != (n,):
                        raise EngineError(f"layer {i}: {k.key} has shape {shape}, layer has {n} output channels")
                if not 0 <= layer.z_w.min() <= layer.z_w.max() < 2**layer.w_bits:
                    raise EngineError(f"layer {i}: w_zero_points must be {layer.w_bits}-bit codes")
                if not 0 <= layer.z_r < 2**layer.bitwidth:
                    raise EngineError(f"layer {i}: z_r {layer.z_r} is not a {layer.bitwidth}-bit code")
                if not (layer.s_x > 0 and layer.s_r > 0 and layer.s_w.min() > 0 and layer.alpha.min() > 0):
                    raise EngineError(f"layer {i}: scales and gains must be positive")
                _check_encoding(i, layer.m0, layer.shift)
                try:
                    layer.acc_bounds
                except EngineError as e:
                    raise EngineError(f"layer {i}: {e}") from None
                bits = layer.bitwidth
            elif entry.kind == "relu":
                if not 0 <= entry.z < 2**bits:
                    raise EngineError(f"layer {i}: relu zero-point {entry.z} is not a {bits}-bit code")
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

    @cached_property
    def plan(self):
        """The steps ``_interpret`` runs, built on the first run and kept: one ``step(x_q, trace, tap)`` per entry.

        A relu right after a param entry is no step of its own but the lower
        bound of that entry's requantize clip.  Building it checks nothing:
        ``__post_init__`` has proven every param layer already.  The plan
        follows ``entries`` as they were when it was built.
        """
        plan = []
        for i, entry in enumerate(self.entries):
            if entry.kind == "relu" and i and self.entries[i - 1].kind == "param":
                plan[-1] = _param_step(i - 1, self.entries[i - 1], lo=entry.z)
            else:
                plan.append(_STEPS[entry.kind](i, entry))
        return plan


# ---------------------------------------------------------------------------
# the plan's steps: ``step(x_q, trace, tap) -> codes``, one builder per entry kind


def _param_step(i, entry, lo=0):
    """linear/conv2d in blocks of samples: each runs ``integer_accumulate``, ``tap`` if given, then ``requantize`` clipped below at ``lo``.

    A block holds as many samples as fit ``BLOCK_BYTES`` of this GEMM's
    working set, at least one: per sample, its GEMM rows (one for a linear,
    H_out*W_out of the call's input for a conv2d), each an operand row in the
    GEMM's float width plus an i64 accumulator row.  A batch that fits runs
    as one block, and so does every call with a ``tap``, which sees the whole
    layer; otherwise the blocks write their codes into one output array.
    """
    layer, lo = entry.layer, np.array(lo, np.int64)  # the clip floor as a 0-d i64, as ``code_max``
    c_out, c_in = layer.w_q.shape[:2]
    gemm = layer.w_centred
    row_bytes = gemm.shape[1] * gemm.itemsize + 8 * c_out
    conv = layer.op_kind == "conv2d"
    k, stride, pad, z_x = layer.kernel, layer.stride, layer.pad, layer.z_x

    def run(x_q, trace, tap):
        rows = x_q
        if conv:
            # (k, k, C) patches of the NHWC codes on their own dtype, padded with the
            # input zero-point; the GEMM's (N*H_out*W_out, C_out) result is already NHWC
            cols, h_out, w_out = im2col(x_q, k, stride, pad, pad_value=z_x)
            rows = cols.reshape(cols.shape[0] * h_out * w_out, cols.shape[2])
        acc = integer_accumulate(rows, layer, trace)
        r = requantize(acc, layer if tap is None else tap(i, x_q, acc, layer), trace, lo)
        return r.reshape(x_q.shape[0], h_out, w_out, c_out) if conv else r

    # ``run`` is a closure of its own: a step that called itself per block would keep its layer in a reference cycle until the GC
    def step(x_q, trace, tap):
        if conv:
            if x_q.ndim != 4 or x_q.shape[3] != c_in:
                raise EngineError(f"layer {i}: conv2d expects (N, H, W, {c_in}) codes, got shape {x_q.shape}")
            positions = window_positions(x_q.shape[1], x_q.shape[2], k, stride, pad)
            block = BLOCK_BYTES // (positions[0] * positions[1] * row_bytes) or 1
        elif x_q.ndim != 2 or x_q.shape[1] != c_in:
            raise EngineError(f"layer {i}: linear expects (N, {c_in}) codes, got shape {_nchw(x_q).shape}")
        else:
            positions, block = (), BLOCK_BYTES // row_bytes or 1
        n = x_q.shape[0]
        if tap is not None or n <= block:
            return run(x_q, trace, tap)
        out = np.empty((n, *positions, c_out), layer.out_dtype)
        for s in range(0, n, block):
            out[s : s + block] = run(x_q[s : s + block], trace, None)
        return out

    return step


def _relu_step(i, entry):
    z = entry.z
    return lambda x_q, trace, tap: np.maximum(x_q, np.asarray(z, dtype=x_q.dtype))


def _gelu_step(i, entry):
    lut = entry.lut
    return lambda x_q, trace, tap: np.take(lut, x_q)


def _avgpool_step(i, entry):
    """Average pooling of NHWC codes: window sums in i64, then the fixed-point 1/k^2 (sums of codes have no negative tie)."""
    k, s, m0, shift = entry.kernel, entry.stride, entry.pool_m0, entry.pool_shift
    return lambda x_q, trace, tap: fixed_point_multiply(
        window_sums(x_q, k, s, np.int64), m0, shift, sign_step=False
    ).astype(x_q.dtype)


def _flatten_step(i, entry):
    return lambda x_q, trace, tap: _nchw(x_q).reshape(x_q.shape[0], math.prod(x_q.shape[1:]))


_STEPS = {"param": _param_step, "relu": _relu_step, "gelu": _gelu_step, "avgpool": _avgpool_step, "flatten": _flatten_step}


def _nchw(x_q):
    """NHWC codes back in NCHW order (a view); codes of any other rank unchanged."""
    return x_q.transpose(0, 3, 1, 2) if x_q.ndim == 4 else x_q


def _interpret(model: FusedModel, x, trace: InferenceTrace, tap=None):
    """The one forward over a FusedModel: quantize the input, run ``model.plan`` on codes, dequantize.

    ``quantize_uniform`` turns the input into codes on the input grid; each
    step of the plan then maps codes to codes (see ``FusedModel.plan``).
    ``tap(i, x_q, acc, layer)``, when given, sees each param entry's input
    codes and accumulators (i64 rows of i32 range) and returns the layer to
    requantize them with; the fitting-time simulation captures and overrides
    compensation through it.  A linear entry's ``x_q`` is its (N, C_in)
    matrix; a conv2d entry's is (N, H, W, C_in), NHWC, and its ``acc`` rows
    run over (n, h_out, w_out).  4-D codes stay NHWC from the input to the
    last entry or a flatten; the result is NCHW.
    """
    x_q = quantize_uniform(np.asarray(x, dtype=np.float32), model.input_params.quant_params)
    if x_q.ndim == 4:
        x_q = x_q.transpose(0, 2, 3, 1)  # 4-D codes travel NHWC between entries
    for step in model.plan:
        x_q = step(x_q, trace, tap)
    return dequantize(_nchw(x_q), model.output_params.quant_params)


def run_int_model(model: FusedModel, x, trace: InferenceTrace | None = None):
    """Quantize the input once, run all layers in integer arithmetic, dequantize logits.

    Returns (logits_f32, trace).  The input quantization and final dequantization
    are the only floating-point steps and sit outside the kernels; a non-finite
    input raises ``QuantError``.  ``model`` was proven when it was built or
    loaded (``FusedModel``), so no accumulator of any input leaves i32.  The
    first call on a model builds its plan (``FusedModel.plan``); every later
    call only runs it, and each param step blocks its own GEMM over the batch
    (see ``_param_step``).
    """
    if trace is None:
        trace = InferenceTrace()
    return _interpret(model, x, trace), trace


# ---------------------------------------------------------------------------
# bundle <-> runtime

# _fused_bundle() writes the ``fusion`` section, fused_runtime() reads it back
# and dump_fused() prints a loaded model: all three, and the per-channel check
# of FusedModel, follow FUSED_RECORDS.


def _fused_bundle(bundle: ModelBundle, model: FusedModel) -> ModelBundle:
    """``bundle`` plus a ``fusion`` section serializing ``model`` and the blobs it names."""
    blobs = {}
    entries = [
        {"kind": e.kind, **write_record(FUSED_RECORDS[e.kind], i, _holder(e), blobs)} for i, e in enumerate(model.entries)
    ]
    fusion = {
        "beta_rounding": model.beta_rounding,
        "input": write_record(GRID_KEYS, None, model.input_params),
        "output": write_record(GRID_KEYS, None, model.output_params),
        "entries": entries,
    }
    return bundle.derive("fusion", fusion, blobs)


@reading_section("fusion", EngineError)
def fused_runtime(bundle) -> FusedModel:
    """The ``FusedModel`` a bundle's ``fusion`` section describes; ``EngineError`` if it is absent or malformed."""
    fusion = bundle.manifest.get("fusion")
    if fusion is None:
        raise EngineError("bundle has no fusion section; run fuse first")
    beta_rounding = BETA_ROUNDING.read("fusion", fusion, bundle)
    entries = []
    for i, e in enumerate(fusion["entries"]):
        kind = e["kind"]
        # a kind the table does not list reads as a bare entry, which FusedModel rejects
        values = read_record(FUSED_RECORDS.get(kind, ()), f"layer {i}:", e, bundle)
        if kind == "param":
            entries.append(FusedEntry(kind, layer=FusedLayerParams(**values, beta_rounding=beta_rounding)))
        else:
            entries.append(FusedEntry(kind, **values))
    grids = [IntActivationParams(**read_record(GRID_KEYS, f"{end} grid:", fusion[end])) for end in ("input", "output")]
    return FusedModel(grids[0], entries, grids[1])


def dump_fused(model: FusedModel, file):
    """Print ``model`` to ``file`` as text: its grids, then one block per entry with one line per record key.

    Per-channel arrays print in full, as the loaded engine holds them, and
    any other blob as its shape and dtype.
    """
    print(f"beta_rounding: {model.beta_rounding}", file=file)
    for name, grid in (("input", model.input_params), ("output", model.output_params)):
        print(f"{name}: " + " ".join(f"{k}={v}" for k, v in write_record(GRID_KEYS, None, grid).items()), file=file)
    for i, entry in enumerate(model.entries):
        holder = _holder(entry)
        print(f"[{holder.op_kind if entry.kind == 'param' else entry.kind}] layer {i}", file=file)
        for k in FUSED_RECORDS[entry.kind]:
            print(f"  {k.key}: {k.show(holder)}", file=file)
