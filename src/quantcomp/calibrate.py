"""Pipeline orchestration: quantize a float model, fit compensation, fuse.

Calibration runs the float model once over its sample set (once over each
of the two sets with ``range_split``); the per-layer outputs set the
activation grids and are the fit targets.  The fit then makes one quantized
pass front to back: at each compensated layer
it captures the layer's output, fits α/β on it in closed form and, when
fitting sequentially, applies the fit before the pass moves on, so every
layer is fitted on what it will see at deployment.

The quantized model is simulated in float-assisted form: accumulators are
exact i64 integer sums over codes, scaled back to real values in f64, run
through the current per-channel affine compensation, then requantized onto
the next grid with the engine's rounding.  This is bit-faithful to the
integer engine in exact-multiplier mode with unrounded offsets, so fits made
here deploy unchanged.

Activation grids chain: the network input gets one per-tensor grid, every
linear/conv output gets its own, and relu/gelu/avgpool/flatten preserve the
grid they receive.  Ranges are estimated from the float model's activations
on the calibration set.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import quant, refnet
from .compensate import (
    ActivationPair,
    ChannelAffineParams,
    channel_mse,
    fit_channel_affine,
)
from .intengine import (
    IntActivationParams,
    accumulator_scale,
    build_gelu_table,
    encode_multiplier,
    fixed_point_multiply,
    fuse_layer,
    round_half_away,
)
from .quant import QuantParams, RangeEstimator, quantize_uniform, quantize_weights_per_channel
from .refnet import ModelBundle, TaskSpec, im2col, layer_forward, make_dataset


class CalibrationError(Exception):
    pass


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the compensation pipeline; field names mirror the CLI flags."""

    sample_count: int = 512
    position: str = "all"  # all | post
    estimator: RangeEstimator = RangeEstimator()
    weight_bits: int = 8
    act_bits: int = 8
    beta_rounding: bool = True
    seed: int = 0
    sequential: bool = True
    range_split: bool = False

    def __post_init__(self):
        if self.sample_count < 2:
            raise CalibrationError("sample_count must be >= 2")
        if self.position not in ("all", "post"):
            raise CalibrationError(f"position must be all|post, got {self.position!r}")
        if self.weight_bits < 2 or self.act_bits < 2:
            raise CalibrationError("bitwidths must be >= 2")

    def to_manifest(self):
        d = asdict(self)
        d["estimator"] = {"kind": self.estimator.kind, "percentile": self.estimator.percentile}
        return d


def config_from_manifest(entry) -> CalibrationConfig:
    e = dict(entry)
    est = e.pop("estimator")
    return CalibrationConfig(estimator=RangeEstimator(est["kind"], est.get("percentile")), **e)


# ---------------------------------------------------------------------------
# float forward with captures


def _rows(y):
    """(N, C) or (N, C, H, W) -> (samples, C) with n-major, position-minor rows."""
    if y.ndim == 2:
        return y
    return np.moveaxis(y, 1, -1).reshape(-1, y.shape[1])


def float_forward_capture(bundle: ModelBundle, x, capture_inputs=False):
    """Forward pass recording each linear/conv pre-activation output (row form)."""
    x = np.asarray(x, dtype=np.float32)
    outputs, inputs = {}, {}
    for i, layer in enumerate(bundle.layers):
        if layer.op_kind in refnet.PARAM_OPS:
            if capture_inputs and layer.op_kind == "linear":
                inputs[i] = x.copy()
            y = layer_forward(layer, x, index=i)
            outputs[i] = _rows(y)
            x = y
        else:
            x = layer_forward(layer, x, index=i)
    return x, outputs, inputs


# ---------------------------------------------------------------------------
# quantized model construction


def quantize_model(
    model_f: ModelBundle,
    calib_x,
    weight_bits: int,
    act_bits: int,
    estimator: RangeEstimator = RangeEstimator(),
) -> ModelBundle:
    """Per-channel weight + per-tensor activation quantization of a float bundle.

    Activation grids come from the float model's activations on ``calib_x``.
    Returns a new bundle carrying a ``quantization`` manifest section plus
    weight-code blobs (float tensors are retained for reference paths).
    """
    _, outputs, _ = float_forward_capture(model_f, calib_x)
    return _quantize_from(model_f, calib_x, outputs, weight_bits, act_bits, estimator)


def _quantize_from(model_f: ModelBundle, calib_x, outputs, weight_bits, act_bits, estimator) -> ModelBundle:
    """``quantize_model`` given the float forward's per-layer ``outputs`` on ``calib_x``."""
    if weight_bits >= 32 or act_bits >= 32:
        raise CalibrationError("32-bit passthrough is not a quantization; pick bits < 32")
    manifest = json.loads(json.dumps(model_f.manifest))
    blobs = dict(model_f.blobs)
    s_in, z_in = quant.compute_affine_params(calib_x, act_bits, estimator)
    qsec = {
        "weight_bits": weight_bits,
        "act_bits": act_bits,
        "estimator": {"kind": estimator.kind, "percentile": estimator.percentile},
        "input": {"scale": float(s_in), "zero_point": int(z_in), "bitwidth": act_bits},
        "layers": {},
        "activations": {},
    }
    entries = model_f.manifest["layers"]
    for i in model_f.param_layer_indices():
        layer = model_f._layer(i)
        codes, wp = quantize_weights_per_channel(layer.weight, weight_bits)
        blob = f"layer{i}.wq"
        blobs[blob] = codes
        manifest["tensors"][blob] = {"shape": list(codes.shape), "kind": refnet.DTYPE_TO_KIND[codes.dtype.newbyteorder("<")]}
        # a relu directly after the layer folds into the requantization bounds:
        # the output grid spends all codes on the post-relu range and its
        # zero-point lands at 0, so the clip itself realizes the relu
        next_op = entries[i + 1]["op_kind"] if i + 1 < len(entries) else None
        grid_src = np.maximum(outputs[i], 0.0) if next_op == "relu" else outputs[i]
        s_r, z_r = quant.compute_affine_params(grid_src, act_bits, estimator)
        qsec["layers"][str(i)] = {
            "weight_codes": blob,
            "weight_scales": [float(v) for v in wp.scales],
            "weight_zero_points": [int(v) for v in wp.zero_points],
            "out_scale": float(s_r),
            "out_zero_point": int(z_r),
        }
        if next_op == "gelu":
            # gelu reads pre-activation codes but writes onto its own grid
            s_a, z_a = quant.compute_affine_params(refnet.gelu(outputs[i]), act_bits, estimator)
            qsec["activations"][str(i + 1)] = {"scale": float(s_a), "zero_point": int(z_a)}
    manifest["quantization"] = qsec
    return ModelBundle(manifest, blobs)


@dataclass
class _QuantLayer:
    index: int
    op_kind: str
    w_codes: np.ndarray
    w_params: QuantParams
    bias: np.ndarray
    in_params: IntActivationParams
    out_params: IntActivationParams
    bias_int: np.ndarray
    kernel: int = 0
    stride: int = 1
    pad: int = 0


@dataclass
class _QuantRuntime:
    input_params: IntActivationParams
    steps: list  # ("param", _QuantLayer) | ("relu", z) | ("gelu", table) | ("avgpool", k, s, m0, shift) | ("flatten",)
    output_params: IntActivationParams
    act_bits: int


def quant_runtime(bundle: ModelBundle) -> _QuantRuntime:
    qsec = bundle.manifest.get("quantization")
    if qsec is None:
        raise CalibrationError("bundle has no quantization section; run quantize first")
    ab = qsec["act_bits"]
    grid = IntActivationParams(float(qsec["input"]["scale"]), int(qsec["input"]["zero_point"]), ab)
    input_params = grid
    steps = []
    for i, entry in enumerate(bundle.manifest["layers"]):
        op = entry["op_kind"]
        if op in refnet.PARAM_OPS:
            q = qsec["layers"][str(i)]
            wp = QuantParams(
                qsec["weight_bits"],
                "per_channel",
                np.array(q["weight_scales"], dtype=np.float32),
                np.array(q["weight_zero_points"], dtype=np.int64),
            )
            out = IntActivationParams(float(q["out_scale"]), int(q["out_zero_point"]), ab)
            bias = bundle.tensor(entry["bias"])
            acc_scale = accumulator_scale(grid.s, wp.scales)
            bias_int = np.round(np.asarray(bias, dtype=np.float64) / acc_scale)
            steps.append(
                (
                    "param",
                    _QuantLayer(
                        index=i,
                        op_kind=op,
                        w_codes=bundle.tensor(q["weight_codes"]),
                        w_params=wp,
                        bias=bias,
                        in_params=grid,
                        out_params=out,
                        bias_int=bias_int,
                        kernel=entry.get("kernel", 0),
                        stride=entry.get("stride", 1),
                        pad=entry.get("pad", 0),
                    ),
                )
            )
            grid = out
        elif op == "relu":
            steps.append(("relu", grid.z))
        elif op == "gelu":
            a = qsec.get("activations", {}).get(str(i))
            if a is None:
                raise CalibrationError(f"layer {i}: gelu must directly follow a quantized linear/conv layer")
            out_grid = IntActivationParams(float(a["scale"]), int(a["zero_point"]), ab)
            steps.append(("gelu", build_gelu_table(grid.s, grid.z, ab, out_grid.s, out_grid.z)))
            grid = out_grid
        elif op == "avgpool":
            k, s = entry["kernel"], entry["stride"]
            m0, shift = encode_multiplier(1.0 / (k * k))
            steps.append(("avgpool", k, s, m0, shift))
        elif op == "flatten":
            steps.append(("flatten",))
        else:
            raise CalibrationError(f"cannot quantize op {op!r}")
    return _QuantRuntime(input_params, steps, grid, ab)


# ---------------------------------------------------------------------------
# float-assisted quantized forward (the fitting-time reference semantics)


def _exact_accumulate(x_codes, ql: _QuantLayer):
    """Exact integer accumulators for one layer; rows are (sample, position)."""
    if ql.op_kind == "conv2d":
        cols, h_out, w_out = im2col(
            x_codes.astype(np.int64), ql.kernel, ql.stride, ql.pad, pad_value=ql.in_params.z
        )
        xi = cols.reshape(-1, cols.shape[2])
        spatial = (h_out, w_out)
    else:
        if x_codes.ndim != 2 or x_codes.shape[1] != ql.w_codes.shape[1]:
            raise CalibrationError(f"layer {ql.index}: input shape {x_codes.shape} does not match weights")
        xi = x_codes.astype(np.int64)
        spatial = None
    w = ql.w_codes.reshape(ql.w_codes.shape[0], -1).astype(np.int64)
    acc = (xi - ql.in_params.z) @ (w - ql.w_params.zero_points[:, None]).T
    return acc, spatial


def sim_forward(
    bundle: ModelBundle,
    x,
    compensation: dict[int, ChannelAffineParams] | None = None,
    capture: set | None = None,
    capture_inputs=False,
    *,
    _on_capture=None,
):
    """Quantized forward with per-channel affine compensation applied in f64.

    Returns (logits_f32, captures, input_captures) where captures[i] holds the
    layer's dequantized accumulator outputs (the values compensation acts on)
    in row form, before compensation.

    ``_on_capture(i, y)``, the fitting hook of ``fit_compensation``, receives
    each captured output instead of ``captures``; what it returns (params or
    None) is the compensation applied at layer i in this pass.
    """
    rt = quant_runtime(bundle)
    compensation = compensation or {}
    captures, input_caps = {}, {}
    x = np.asarray(x, dtype=np.float32)
    codes = quantize_uniform(x, rt.input_params.to_quant_params())
    for step in rt.steps:
        kind = step[0]
        if kind == "param":
            ql = step[1]
            if capture_inputs and ql.op_kind == "linear":
                input_caps[ql.index] = (
                    (codes.astype(np.float64) - ql.in_params.z) * ql.in_params.s
                ).astype(np.float32)
            acc, spatial = _exact_accumulate(codes, ql)
            acc_scale = accumulator_scale(ql.in_params.s, ql.w_params.scales)
            y = acc_scale[None, :] * (acc + ql.bias_int[None, :])
            comp = compensation.get(ql.index)
            if capture is None or ql.index in capture:
                if _on_capture is None:
                    captures[ql.index] = y.astype(np.float32)
                else:
                    comp = _on_capture(ql.index, y.astype(np.float32))
            if comp is not None:
                y = y * comp.alpha.astype(np.float64)[None, :] + comp.beta.astype(np.float64)[None, :]
            out = ql.out_params
            r = np.clip(out.z + round_half_away(y / np.float64(out.s)), 0, 2**rt.act_bits - 1)
            codes = r.astype(quant.code_dtype(rt.act_bits))
            if spatial is not None:
                n = acc.shape[0] // (spatial[0] * spatial[1])
                codes = np.moveaxis(codes.reshape(n, spatial[0], spatial[1], -1), 3, 1)
        elif kind == "relu":
            codes = np.maximum(codes, np.asarray(step[1], dtype=codes.dtype))
        elif kind == "gelu":
            codes = step[1][codes]
        elif kind == "avgpool":
            _, k, s, m0, shift = step
            cols, h_out, w_out = im2col(codes.astype(np.int64), k, s, 0)
            n, c = codes.shape[0], codes.shape[1]
            sums = cols.reshape(n, h_out * w_out, c, k * k).sum(axis=3)
            pooled = fixed_point_multiply(sums, m0, shift)
            codes = np.moveaxis(pooled.reshape(n, h_out, w_out, c), 3, 1).astype(codes.dtype)
        elif kind == "flatten":
            codes = codes.reshape(codes.shape[0], -1)
    p = rt.output_params
    logits = ((codes.astype(np.float64) - p.z) * p.s).astype(np.float32)
    return logits, captures, input_caps


# ---------------------------------------------------------------------------
# pair collection and fitting


def collect_pairs(model_f: ModelBundle, model_q: ModelBundle, calib_x, compensation=None, capture_inputs=False):
    """Per-layer ActivationPairs: float outputs vs (possibly compensated) quant outputs.

    When ``model_q`` carries no quantization section it is run as a plain
    float model, so identical models yield y_full == y_quant pairs.
    """
    f_idx = model_f.param_layer_indices()
    if model_q.param_layer_indices() != f_idx or len(model_q.manifest["layers"]) != len(model_f.manifest["layers"]):
        raise CalibrationError("models do not share an architecture skeleton")
    _, y_full, _ = float_forward_capture(model_f, calib_x)
    if model_q.manifest.get("quantization") is None:
        _, y_quant, x_in = float_forward_capture(model_q, calib_x, capture_inputs=capture_inputs)
    else:
        _, y_quant, x_in = sim_forward(model_q, calib_x, compensation, capture_inputs=capture_inputs)
    pairs = {}
    for i in f_idx:
        pairs[i] = ActivationPair(y_full[i], y_quant[i], x_in.get(i))
    return pairs


def compensation_positions(bundle: ModelBundle, position: str):
    """Layer indices that receive compensation: every linear/conv, or only the
    final one of the (single-block desk-scale) network."""
    idx = bundle.param_layer_indices()
    return idx if position == "all" else idx[-1:]


def calibration_pool(model_f: ModelBundle, config: CalibrationConfig):
    """Deterministic calibration samples derived from the bundle's task metadata."""
    meta = model_f.manifest.get("metadata", {})
    if "task" not in meta:
        raise CalibrationError("bundle metadata carries no task; pass calibration data explicitly")
    t = dict(meta["task"])
    t["hidden"] = tuple(t["hidden"])
    task = TaskSpec(**t)
    x_train, _, _, _ = make_dataset(task, meta["seed"])
    order = np.random.default_rng([config.seed, 0xCA11B]).permutation(len(x_train))
    return x_train[order]


def fit_compensation(model_f: ModelBundle, qbundle: ModelBundle, config: CalibrationConfig, fit_x) -> ModelBundle:
    """Fit channel-affine compensation onto an already-quantized bundle.

    One quantized pass over ``fit_x`` fits every compensated layer as it
    reaches it.  By default the fit is applied at once, so layer L is fitted
    with layers < L already compensated, matching what each correction will
    see at deployment.  ``config.sequential=False`` leaves the pass
    uncompensated, so every layer is fitted on the frozen quantized model.
    """
    _, y_full, _ = float_forward_capture(model_f, fit_x)
    return _fit_from(model_f, qbundle, config, fit_x, y_full)


def _fit_from(model_f: ModelBundle, qbundle: ModelBundle, config: CalibrationConfig, fit_x, y_full) -> ModelBundle:
    """``fit_compensation`` given the float forward's per-layer outputs ``y_full`` on ``fit_x``."""
    comp: dict[int, ChannelAffineParams] = {}
    stats = []

    def fit(i, y_quant):
        # the capture is dropped once fitted: only the params and stats outlive this call
        pair = ActivationPair(y_full[i], y_quant)
        comp[i] = fit_channel_affine(pair)
        stats.append(_fit_stat(i, pair, comp[i]))
        return comp[i] if config.sequential else None

    positions = compensation_positions(model_f, config.position)
    sim_forward(qbundle, fit_x, capture=set(positions), _on_capture=fit)
    out = ModelBundle(json.loads(json.dumps(qbundle.manifest)), dict(qbundle.blobs))
    out.manifest["compensation"] = {
        "config": config.to_manifest(),
        "layers": {
            str(i): {
                "alpha": [float(v) for v in p.alpha],
                "beta": [float(v) for v in p.beta],
                "fallback_mask": [bool(v) for v in p.fallback_mask],
                "negative_clamped": p.negative_clamped,
            }
            for i, p in comp.items()
        },
        "stats": stats,
    }
    return out


def calibrate_model(model_f: ModelBundle, config: CalibrationConfig, calib_x=None) -> ModelBundle:
    """Quantize, then fit compensation at the configured positions; one-shot pipeline."""
    if calib_x is None:
        calib_x = calibration_pool(model_f, config)
    if len(calib_x) < config.sample_count:
        raise CalibrationError(f"need {config.sample_count} calibration samples, pool has {len(calib_x)}")
    n = config.sample_count
    fit_x = calib_x[:n]
    if config.range_split:
        if len(calib_x) < 2 * n:
            raise CalibrationError("range_split needs a pool of at least 2 * sample_count")
        qbundle = quantize_model(model_f, calib_x[n : 2 * n], config.weight_bits, config.act_bits, config.estimator)
        return fit_compensation(model_f, qbundle, config, fit_x)
    # ranges and fit share one sample set, so one float forward serves both
    _, y_full, _ = float_forward_capture(model_f, fit_x)
    qbundle = _quantize_from(model_f, fit_x, y_full, config.weight_bits, config.act_bits, config.estimator)
    return _fit_from(model_f, qbundle, config, fit_x, y_full)


def _fit_stat(i, pair: ActivationPair, params: ChannelAffineParams):
    pre = channel_mse(pair.y_full, pair.y_quant)
    post = channel_mse(pair.y_full, pair.y_quant * params.alpha.astype(np.float64) + params.beta.astype(np.float64))
    return {
        "layer": i,
        "channels": params.channels,
        "pre_mse": float(pre.mean()),
        "post_mse": float(post.mean()),
        "fallback_count": int(params.fallback_mask.sum()),
        "negative_clamped": params.negative_clamped,
    }


def compensation_params(bundle: ModelBundle) -> dict[int, ChannelAffineParams]:
    csec = bundle.manifest.get("compensation")
    if csec is None:
        return {}
    out = {}
    for key, e in csec["layers"].items():
        out[int(key)] = ChannelAffineParams(
            np.array(e["alpha"], dtype=np.float32),
            np.array(e["beta"], dtype=np.float32),
            np.array(e["fallback_mask"], dtype=bool),
            e.get("negative_clamped", 0),
        )
    return out


def write_fit_csv(bundle: ModelBundle, path):
    """Fit-statistics sidecar: one row per compensated layer."""
    stats = bundle.manifest.get("compensation", {}).get("stats", [])
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(
            f, fieldnames=["layer", "channels", "pre_mse", "post_mse", "fallback_count", "negative_clamped"]
        )
        w.writeheader()
        for row in stats:
            w.writerow(row)
    return len(stats)


# ---------------------------------------------------------------------------
# fusion


def fuse_model(comp_bundle: ModelBundle, beta_rounding: bool | None = None) -> ModelBundle:
    """Fold fitted compensation into integer layer parameters.

    Layers without a fitted entry get identity compensation, so fusing a plain
    quantized bundle reproduces the uncompensated integer model exactly.  With
    ``beta_rounding=False`` the offsets stay f32 and the fused model runs in
    the reference (non-integer-only) mode.
    """
    rt = quant_runtime(comp_bundle)
    comp = compensation_params(comp_bundle)
    if beta_rounding is None:
        beta_rounding = bool(
            comp_bundle.manifest.get("compensation", {}).get("config", {}).get("beta_rounding", True)
        )
    manifest = json.loads(json.dumps(comp_bundle.manifest))
    blobs = dict(comp_bundle.blobs)
    entries = []
    for step in rt.steps:
        kind = step[0]
        if kind == "param":
            ql = step[1]
            params = comp.get(ql.index)
            fused = fuse_layer(
                ql.w_codes,
                ql.bias,
                ql.in_params,
                ql.w_params,
                ql.out_params,
                params,
                beta_rounding=beta_rounding,
                op_kind=ql.op_kind,
                kernel=ql.kernel,
                stride=ql.stride,
                pad=ql.pad,
            )
            bias_blob = f"layer{ql.index}.bias_acc"
            const_blob = f"layer{ql.index}.const_acc"
            blobs[bias_blob] = fused.bias_acc.astype(np.int32)
            blobs[const_blob] = fused.const_acc.astype(np.int32)
            for name in (bias_blob, const_blob):
                manifest["tensors"][name] = {"shape": [fused.out_channels], "kind": "i32"}
            alpha = params.alpha if params is not None else fused.alpha
            beta = params.beta if params is not None else np.zeros(fused.out_channels, dtype=np.float32)
            entries.append(
                {
                    "kind": "param",
                    "layer_index": ql.index,
                    "op_kind": ql.op_kind,
                    "weight_codes": f"layer{ql.index}.wq",
                    "w_bits": int(ql.w_params.bitwidth),
                    "w_scales": [float(v) for v in ql.w_params.scales],
                    "w_zero_points": [int(v) for v in ql.w_params.zero_points],
                    "s_x": float(ql.in_params.s),
                    "z_x": int(ql.in_params.z),
                    "in_bits": ql.in_params.bitwidth,
                    "s_r": float(ql.out_params.s),
                    "z_r": int(ql.out_params.z),
                    "out_bits": ql.out_params.bitwidth,
                    "m0": [int(v) for v in fused.m0],
                    "shift": [int(v) for v in fused.shift],
                    "bias_acc": bias_blob,
                    "const_acc": const_blob,
                    "alpha": [float(v) for v in alpha],
                    "beta": [float(v) for v in beta],
                    "kernel": ql.kernel,
                    "stride": ql.stride,
                    "pad": ql.pad,
                }
            )
        elif kind == "relu":
            entries.append({"kind": "relu", "z": int(step[1])})
        elif kind == "gelu":
            # regenerate deterministically at load; store for inspection/other engines
            idx = len(entries)
            blob = f"entry{idx}.gelu_lut"
            blobs[blob] = step[1]
            manifest["tensors"][blob] = {
                "shape": [len(step[1])],
                "kind": refnet.DTYPE_TO_KIND[step[1].dtype.newbyteorder("<")],
            }
            entries.append({"kind": "gelu", "table": blob})
        elif kind == "avgpool":
            _, k, s, m0, shift = step
            entries.append({"kind": "avgpool", "kernel": k, "stride": s, "m0": int(m0), "shift": int(shift)})
        elif kind == "flatten":
            entries.append({"kind": "flatten"})
    manifest["fusion"] = {
        "beta_rounding": beta_rounding,
        "input": {
            "scale": float(rt.input_params.s),
            "zero_point": int(rt.input_params.z),
            "bitwidth": rt.input_params.bitwidth,
        },
        "output": {
            "scale": float(rt.output_params.s),
            "zero_point": int(rt.output_params.z),
            "bitwidth": rt.output_params.bitwidth,
        },
        "entries": entries,
    }
    return ModelBundle(manifest, blobs)
