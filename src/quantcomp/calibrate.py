"""Pipeline orchestration: quantize a float model, fit compensation, fuse.

Calibration runs the float model once over its sample set (once over each
of the two sets with ``range_split``); the per-layer outputs set the
activation grids and are the fit targets.  A quantized bundle keeps the float
layers it was quantized from, so it is its own fit target: every step after
quantization takes that one bundle.  The fit then makes one quantized
pass front to back: at each compensated layer
it captures the layer's output, fits α/β on it in closed form and, when
fitting sequentially, applies the fit before the pass moves on, so every
layer is fitted on what it will see at deployment.

The quantized model is simulated in float-assisted form, by the integer
engine's own interpreter: ``build_fused_model`` turns the quantization
section (plus any compensation) into the engine's ``FusedModel`` with
unrounded offsets, whose layers scale the exact integer accumulators back to
real values in f64, apply the per-channel affine compensation and requantize
onto the next grid with the engine's rounding.  The simulation therefore is
the engine fused with ``beta_rounding=False``, so fits made here deploy
unchanged.

Activation grids chain: the network input gets one per-tensor grid, every
linear/conv output gets its own, and relu/gelu/avgpool/flatten preserve the
grid they receive.  Ranges are estimated from the float model's activations
on the calibration set.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import intengine, quant, refnet
from .compensate import (
    ActivationPair,
    ChannelAffineParams,
    channel_mse,
    fit_channel_affine,
)
from .intengine import (
    FusedEntry,
    FusedModel,
    InferenceTrace,
    IntActivationParams,
    accumulator_scale,
    build_gelu_table,
    encode_multiplier,
    fuse_layer,
)
from .quant import QuantParams, RangeEstimator, quantize_weights_per_channel
from .refnet import ModelBundle, layer_forward, task_dataset


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


# ---------------------------------------------------------------------------
# float forward with captures


def _rows(y):
    """(N, C) or (N, C, H, W) -> (samples, C) with n-major, position-minor rows."""
    if y.ndim == 2:
        return y
    return np.moveaxis(y, 1, -1).reshape(-1, y.shape[1])


def float_forward_capture(bundle: ModelBundle, x):
    """Float forward returning (logits, outputs): outputs[i] is linear/conv layer i's output in row form.
    On a quantized bundle these are its fit targets, from the float layers it carries."""
    x = np.asarray(x, dtype=np.float32)
    outputs = {}
    for i, layer in enumerate(bundle.layers):
        x = layer_forward(layer, x, index=i)
        if layer.op_kind in refnet.PARAM_OPS:
            outputs[i] = _rows(x)
    return x, outputs


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
    _, outputs = float_forward_capture(model_f, calib_x)
    return _quantize_from(model_f, calib_x, outputs, weight_bits, act_bits, estimator)


def _quantize_from(model_f: ModelBundle, calib_x, outputs, weight_bits, act_bits, estimator) -> ModelBundle:
    """``quantize_model`` given the float forward's per-layer ``outputs`` on ``calib_x``."""
    if weight_bits >= 32 or act_bits >= 32:
        raise CalibrationError("32-bit passthrough is not a quantization; pick bits < 32")
    blobs = {}
    s_in, z_in = quant.compute_affine_params(calib_x, act_bits, estimator)
    qsec = {
        "weight_bits": weight_bits,
        "act_bits": act_bits,
        "estimator": {"kind": estimator.kind, "percentile": estimator.percentile},
        "input": {"scale": float(s_in), "zero_point": int(z_in), "bitwidth": act_bits},
        "layers": {},
        "activations": {},
    }
    layers = model_f.layers
    for i in model_f.param_layer_indices():
        codes, wp = quantize_weights_per_channel(layers[i].weight, weight_bits)
        blob = f"layer{i}.wq"
        blobs[blob] = codes
        # a relu directly after the layer folds into the requantization bounds:
        # the output grid spends all codes on the post-relu range and its
        # zero-point lands at 0, so the clip itself realizes the relu
        next_op = layers[i + 1].op_kind if i + 1 < len(layers) else None
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
    return model_f.derive("quantization", qsec, blobs)


def _quantization(bundle: ModelBundle) -> dict:
    qsec = bundle.manifest.get("quantization")
    if qsec is None:
        raise CalibrationError("bundle has no quantization section; run quantize first")
    return qsec


def build_fused_model(
    bundle: ModelBundle,
    compensation: dict[int, ChannelAffineParams] | None = None,
    beta_rounding: bool = False,
) -> FusedModel:
    """The engine's step IR for a quantized bundle.

    Each linear/conv layer is ``fuse_layer`` of its ``quantization`` entry and
    its entry in ``compensation`` (identity where it has none); the relu
    zero-point, gelu table and avgpool multiplier are set up once here.  Built
    with ``beta_rounding=False`` it is the float-assisted simulation.
    """
    qsec = _quantization(bundle)
    compensation = compensation or {}
    ab = qsec["act_bits"]
    grid = IntActivationParams(float(qsec["input"]["scale"]), int(qsec["input"]["zero_point"]), ab)
    input_params = grid
    entries = []
    for i, spec in enumerate(bundle.layers):
        op = spec.op_kind
        if op in refnet.PARAM_OPS:
            q = qsec["layers"][str(i)]
            wp = QuantParams(
                qsec["weight_bits"],
                "per_channel",
                np.array(q["weight_scales"], dtype=np.float32),
                np.array(q["weight_zero_points"], dtype=np.int64),
            )
            out = IntActivationParams(float(q["out_scale"]), int(q["out_zero_point"]), ab)
            layer = fuse_layer(
                bundle.tensor(q["weight_codes"]),
                spec.bias,
                grid,
                wp,
                out,
                compensation.get(i),
                beta_rounding=beta_rounding,
                op_kind=op,
                kernel=spec.kernel,
                stride=spec.stride,
                pad=spec.pad,
            )
            entries.append(FusedEntry("param", layer=layer))
            grid = out
        elif op == "relu":
            entries.append(FusedEntry("relu", z=grid.z))
        elif op == "gelu":
            a = qsec.get("activations", {}).get(str(i))
            if a is None:
                raise CalibrationError(f"layer {i}: gelu must directly follow a quantized linear/conv layer")
            out_grid = IntActivationParams(float(a["scale"]), int(a["zero_point"]), ab)
            entries.append(FusedEntry("gelu", lut=build_gelu_table(grid.s, grid.z, ab, out_grid.s, out_grid.z)))
            grid = out_grid
        elif op == "avgpool":
            m0, shift = encode_multiplier(1.0 / (spec.kernel * spec.kernel))
            entries.append(FusedEntry("avgpool", kernel=spec.kernel, stride=spec.stride, pool_m0=m0, pool_shift=shift))
        elif op == "flatten":
            entries.append(FusedEntry("flatten"))
        else:
            raise CalibrationError(f"cannot quantize op {op!r}")
    return FusedModel(input_params, entries, grid)


# ---------------------------------------------------------------------------
# float-assisted quantized forward (the fitting-time reference semantics)


def sim_forward(
    bundle: ModelBundle,
    x,
    compensation: dict[int, ChannelAffineParams] | None = None,
    capture_inputs=False,
    *,
    _on_capture=None,
):
    """Quantized forward with per-channel affine compensation applied in f64.

    This is the engine's interpreter over ``build_fused_model(bundle,
    compensation)``, whose layers requantize the real-valued compensated
    accumulator, so it equals the engine fused with ``beta_rounding=False``.
    Returns (logits_f32, captures, input_captures): ``captures[i]`` holds
    linear/conv layer i's dequantized accumulator outputs (the values
    compensation acts on) in row form, before compensation; with
    ``capture_inputs``, ``input_captures[i]`` holds linear layer i's
    dequantized input codes.

    ``_on_capture(i, y)``, the fitting hook of ``fit_compensation``, receives
    each layer's output instead of ``captures``; params it returns replace
    layer i's compensation in this pass, and ``None`` leaves the layer as built.
    """
    model = build_fused_model(bundle, compensation)
    want = tuple(bundle.manifest["input_shape"])
    if np.shape(x)[1:] != want:
        raise CalibrationError(f"input shape {np.shape(x)[1:]} does not match manifest {want}")
    captures, input_caps = {}, {}

    def tap(i, x_q, acc, layer):
        if capture_inputs and layer.op_kind == "linear":
            input_caps[i] = ((x_q.astype(np.float64) - layer.z_x) * layer.s_x).astype(np.float32)
        y = (accumulator_scale(layer.s_x, layer.s_w)[None, :] * acc).astype(np.float32)
        if _on_capture is None:
            captures[i] = y
            return layer
        comp = _on_capture(i, y)
        if comp is None:
            return layer
        # an unrounded layer requantizes from alpha and beta_real alone, so its
        # multiplier fields may keep describing the compensation it was built with
        return replace(layer, alpha=comp.alpha, beta_real=comp.beta.astype(np.float64))

    logits = intengine._interpret(model, x, InferenceTrace(), tap=tap)
    return logits, captures, input_caps


# ---------------------------------------------------------------------------
# fitting


def compensation_positions(bundle: ModelBundle, position: str):
    """Layer indices that receive compensation: every linear/conv, or only the
    final one of the (single-block desk-scale) network."""
    idx = bundle.param_layer_indices()
    return idx if position == "all" else idx[-1:]


def calibration_pool(bundle: ModelBundle, config: CalibrationConfig):
    """Deterministic calibration samples derived from the bundle's task metadata."""
    x_train = task_dataset(bundle)[0]
    order = np.random.default_rng([config.seed, 0xCA11B]).permutation(len(x_train))
    return x_train[order]


def calibration_sets(config: CalibrationConfig, pool):
    """(fit set, range set) drawn from ``pool``: its first ``sample_count`` samples
    serve both, or with ``range_split`` the next ``sample_count`` set the ranges."""
    n = config.sample_count
    if len(pool) < n:
        raise CalibrationError(f"need {n} calibration samples, pool has {len(pool)}")
    if not config.range_split:
        return pool[:n], pool[:n]
    if len(pool) < 2 * n:
        raise CalibrationError(f"range_split needs a pool of at least 2 * sample_count = {2 * n}, pool has {len(pool)}")
    return pool[:n], pool[n : 2 * n]


def fit_compensation(qbundle: ModelBundle, config: CalibrationConfig, fit_x) -> ModelBundle:
    """Fit channel-affine compensation onto an already-quantized bundle.

    The targets are the outputs of the float layers ``qbundle`` carries.  One
    quantized pass over ``fit_x`` fits every compensated layer as it reaches
    it.  By default the fit is applied at once, so layer L is fitted with
    layers < L already compensated, matching what each correction will
    see at deployment.  ``config.sequential=False`` leaves the pass
    uncompensated, so every layer is fitted on the frozen quantized model.
    ``config``'s bit-widths must be the ones ``qbundle`` was quantized to.
    """
    qsec = _quantization(qbundle)
    if (config.weight_bits, config.act_bits) != (qsec["weight_bits"], qsec["act_bits"]):
        raise CalibrationError(
            f"config bits w{config.weight_bits}/a{config.act_bits} do not match the quantized bundle "
            f"w{qsec['weight_bits']}/a{qsec['act_bits']}"
        )
    _, y_full = float_forward_capture(qbundle, fit_x)
    return _fit_from(qbundle, config, fit_x, y_full)


def _fit_from(qbundle: ModelBundle, config: CalibrationConfig, fit_x, y_full) -> ModelBundle:
    """``fit_compensation`` given the float forward's per-layer outputs ``y_full`` on ``fit_x``."""
    comp: dict[int, ChannelAffineParams] = {}
    stats = []
    positions = set(compensation_positions(qbundle, config.position))

    def fit(i, y_quant):
        if i not in positions:
            return None
        # the capture is dropped once fitted: only the params and stats outlive this call
        pair = ActivationPair(y_full[i], y_quant)
        comp[i] = fit_channel_affine(pair)
        stats.append(_fit_stat(i, pair, comp[i]))
        return comp[i] if config.sequential else None

    sim_forward(qbundle, fit_x, _on_capture=fit)
    section = {
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
    return qbundle.derive("compensation", section, {})


def calibrate_model(model_f: ModelBundle, config: CalibrationConfig, calib_x=None) -> ModelBundle:
    """Quantize, then fit compensation at the configured positions; one-shot pipeline."""
    if calib_x is None:
        calib_x = calibration_pool(model_f, config)
    fit_x, range_x = calibration_sets(config, calib_x)
    if config.range_split:
        qbundle = quantize_model(model_f, range_x, config.weight_bits, config.act_bits, config.estimator)
        return fit_compensation(qbundle, config, fit_x)
    # ranges and fit share one sample set, so one float forward serves both
    _, y_full = float_forward_capture(model_f, fit_x)
    qbundle = _quantize_from(model_f, fit_x, y_full, config.weight_bits, config.act_bits, config.estimator)
    return _fit_from(qbundle, config, fit_x, y_full)


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
    """The fitted α/β per compensated layer index; empty for an uncompensated bundle."""
    out = {}
    for key, e in bundle.manifest.get("compensation", {}).get("layers", {}).items():
        out[int(key)] = ChannelAffineParams(
            np.array(e["alpha"], dtype=np.float32),
            np.array(e["beta"], dtype=np.float32),
            np.array(e["fallback_mask"], dtype=bool),
            e.get("negative_clamped", 0),
        )
    return out


def fit_stats(bundle: ModelBundle) -> list[dict]:
    """The fit's statistics, one dict per compensated layer; empty for an uncompensated bundle."""
    return bundle.manifest.get("compensation", {}).get("stats", [])


def write_fit_csv(bundle: ModelBundle, path):
    """Fit-statistics sidecar: one row per compensated layer."""
    stats = fit_stats(bundle)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(
            f, fieldnames=["layer", "channels", "pre_mse", "post_mse", "fallback_count", "negative_clamped"]
        )
        w.writeheader()
        for row in stats:
            w.writerow(row)
    return len(stats)


def model_size_report(bundle: ModelBundle) -> dict:
    """Logical storage accounting (codes count their true bit-width).

    ``delta_scalars``/``delta_bits`` is the extra cost of compensation: two
    scalars per compensated output channel before fusion, zero after (the
    fused multiplier and bias accumulator replace arrays a plain quantized
    deployment carries anyway).
    """
    qsec = bundle.manifest.get("quantization")
    param_scalars = 0
    bits = 0
    for i, layer in enumerate(bundle.layers):
        if layer.weight is None:
            continue
        w, b = layer.weight, layer.bias
        if qsec is not None:
            channels = len(qsec["layers"][str(i)]["weight_scales"])
            param_scalars += w.size + b.size + 2 * channels
            bits += w.size * qsec["weight_bits"] + b.size * 32 + channels * 64
        else:
            param_scalars += w.size + b.size
            bits += (w.size + b.size) * 32
    # fusion folds alpha/beta into arrays a plain quantized deployment carries anyway
    delta_scalars = 0 if bundle.stage == "fused" else sum(2 * p.channels for p in compensation_params(bundle).values())
    delta_bits = delta_scalars * 32
    return {
        "param_scalars": param_scalars,
        "model_bits": bits + delta_bits,
        "delta_scalars": delta_scalars,
        "delta_bits": delta_bits,
    }


# ---------------------------------------------------------------------------
# fusion


def fuse_model(comp_bundle: ModelBundle, beta_rounding: bool | None = None) -> ModelBundle:
    """Fold fitted compensation into integer layer parameters.

    Layers without a fitted entry get identity compensation, so fusing a plain
    quantized bundle reproduces the uncompensated integer model exactly.  With
    ``beta_rounding=False`` the offsets stay real and the fused model runs in
    the reference (non-integer-only) mode.
    """
    if beta_rounding is None:
        beta_rounding = bool(
            comp_bundle.manifest.get("compensation", {}).get("config", {}).get("beta_rounding", True)
        )
    model = build_fused_model(comp_bundle, compensation_params(comp_bundle), beta_rounding)
    return intengine._fused_bundle(comp_bundle, model, beta_rounding)
