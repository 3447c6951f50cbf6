"""Range estimation and quantization kernels.

Uniform affine quantization maps f32 values to unsigned b-bit codes via
``q = clip(round(x/s) + z, 0, 2^b - 1)`` with ``s = (max - min)/(2^b - 1)``
and ``z = round(-min/s)``, over a range widened to hold 0, so that a
one-signed or constant tensor keeps its values.  Rounding is half-to-even
everywhere in this module (the integer engine's requantization uses its own
documented rounding).  Codes are unsigned; symmetric signed weights are the
special case z = 2^(b-1), not a separate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# scale of an all-zero tensor, whose widened range is empty
DEGENERATE_SCALE = 2.0**-20


class QuantError(ValueError):
    pass


def code_dtype(bitwidth: int):
    """Narrowest unsigned dtype holding 2^b - 1."""
    if bitwidth <= 8:
        return np.dtype("u1")
    if bitwidth <= 16:
        return np.dtype("<u2")
    if bitwidth <= 32:
        return np.dtype("<u4")
    raise QuantError(f"bitwidth {bitwidth} not supported")


@dataclass(frozen=True)
class RangeEstimator:
    """minmax, or percentile clipping at fraction p in (0.5, 1]."""

    kind: str = "minmax"
    percentile: float | None = None

    def __post_init__(self):
        if self.kind not in ("minmax", "percentile"):
            raise QuantError(f"unknown estimator {self.kind!r}")
        if self.kind == "percentile":
            p = self.percentile
            if p is None or not (0.5 < p <= 1.0):
                raise QuantError("percentile estimator needs p in (0.5, 1]")

    def bounds(self, x):
        x = np.asarray(x, dtype=np.float64).ravel()
        if self.kind == "minmax":
            return float(x.min()), float(x.max())
        p = self.percentile
        lo, hi = np.quantile(x, [1.0 - p, p])
        return float(lo), float(hi)


@dataclass
class QuantParams:
    """Scale(s) and zero-point(s) for one tensor; length 1 or C arrays (scales f64)."""

    bitwidth: int
    scheme: str  # per_tensor | per_channel
    scales: np.ndarray
    zero_points: np.ndarray

    def __post_init__(self):
        if self.bitwidth < 2:
            raise QuantError("bitwidth must be >= 2")
        if self.scheme not in ("per_tensor", "per_channel"):
            raise QuantError(f"unknown scheme {self.scheme!r}")
        self.scales = np.atleast_1d(np.asarray(self.scales, dtype=np.float64))
        self.zero_points = np.atleast_1d(np.asarray(self.zero_points, dtype=np.int64))
        if self.scheme == "per_tensor" and len(self.scales) != 1:
            raise QuantError("per_tensor params must have exactly one scale")
        if len(self.scales) != len(self.zero_points):
            raise QuantError("scales and zero_points length mismatch")
        if not (self.scales > 0).all():
            raise QuantError("scales must be positive")
        qmax = 2**self.bitwidth - 1
        if (self.zero_points < 0).any() or (self.zero_points > qmax).any():
            raise QuantError(f"zero_points outside [0, {qmax}]")

    @property
    def qmax(self):
        return 2**self.bitwidth - 1

    @cached_property
    def operands(self):
        """(s, z, 0, qmax, code dtype), kept: f64 s (a view), z and clip bounds, 0-d per tensor, which no ufunc call converts."""
        shape = () if self.scheme == "per_tensor" else self.scales.shape
        s, z = self.scales.reshape(shape), self.zero_points.astype(np.float64).reshape(shape)
        return s, z, np.zeros(()), np.array(float(self.qmax)), code_dtype(self.bitwidth)

    def scalar(self):
        """(s, z) for per_tensor params."""
        if self.scheme != "per_tensor":
            raise QuantError("scalar() only valid for per_tensor params")
        return float(self.scales[0]), int(self.zero_points[0])


def _affine_from_bounds(lo, hi, bitwidth):
    """(scale, zero-point), elementwise, of the b-bit grid over [min(lo, 0), max(hi, 0)]: z lies in [0, 2^b - 1]."""
    lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
    s = np.where(hi > lo, (hi - lo) / (2**bitwidth - 1), DEGENERATE_SCALE)
    return s, np.rint(-lo / s).astype(np.int64)


def compute_affine_params(x, bitwidth, estimator=RangeEstimator()):
    """Scalar (s, z) over the whole tensor under the chosen range estimator."""
    x = np.asarray(x)
    if x.size == 0:
        raise QuantError("empty tensor")
    if bitwidth < 2:
        raise QuantError("bitwidth must be >= 2")
    lo, hi = estimator.bounds(x)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuantError(f"non-finite range [{lo}, {hi}]")
    s, z = _affine_from_bounds(lo, hi, bitwidth)
    return float(s), int(z)


def tensor_params(x, bitwidth, estimator=RangeEstimator()) -> QuantParams:
    s, z = compute_affine_params(x, bitwidth, estimator)
    return QuantParams(bitwidth, "per_tensor", np.array([s]), np.array([z]))


def _broadcast_params(params: QuantParams, x):
    """``params.operands`` with the scales and zero-points broadcast against x's leading channel axis."""
    if params.scheme == "per_tensor":
        return params.operands
    if x.shape[0] != len(params.scales):
        raise QuantError(f"per_channel params (C={len(params.scales)}) do not match leading dim of {x.shape}")
    extra = (1,) * (x.ndim - 1)
    s, z, *rest = params.operands
    return s.reshape(-1, *extra), z.reshape(-1, *extra), *rest


def quantize_uniform(x, params: QuantParams):
    """Elementwise q = clip(round(x/s) + z, 0, 2^b - 1), half-to-even rounding; QuantError on NaN/Inf."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise QuantError("non-finite input")
    s, z, lo, hi, dtype = _broadcast_params(params, x)
    # np.rint is np.round at 0 decimals; rint, the offset and the clip all run
    # in place, and the clip as two ufuncs (np.clip's per-call overhead is
    # larger at batch 1) gives the same values, as no NaN got this far
    q = np.divide(x, s, out=np.empty_like(x))  # an array even for a 0-d x
    np.rint(q, out=q)
    q += z
    np.maximum(q, lo, out=q)
    np.minimum(q, hi, out=q)
    return q.astype(dtype)


def dequantize(codes, params: QuantParams):
    """x_hat = s * (q - z), as f32; the subtract and the multiply run in place on one f64 copy."""
    codes = np.asarray(codes)
    s, z, *_ = _broadcast_params(params, codes)
    x = codes.astype(np.float64)
    x -= z
    x *= s
    return x.astype(np.float32)


def quantize_weights_per_channel(w, bitwidth):
    """Per-output-channel minmax quantization of a (C_out, ...) weight tensor."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2:
        raise QuantError("per-channel weight quantization needs a leading output-channel dim")
    if w.size == 0:
        raise QuantError(f"weight of shape {w.shape} has no output channel or an empty one")
    if not np.isfinite(w).all():
        raise QuantError("non-finite weights")
    flat = w.reshape(w.shape[0], -1)
    params = QuantParams(bitwidth, "per_channel", *_affine_from_bounds(flat.min(axis=1), flat.max(axis=1), bitwidth))
    return quantize_uniform(w, params), params

