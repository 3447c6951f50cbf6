"""Metrics, ablation harness, and report generation.

Desk-scale analogs of the full-scale studies: vary calibration-set size,
compensation position, and offset rounding over many seeds, and report
accuracy / output-MSE / size rows as CSV.  Trend assertions elsewhere use
medians over seeds; single cells are noisy by nature at this scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .calibrate import (
    CalibrationConfig,
    calibrate_model,
    calibration_pool,
    calibration_sets,
    collect_pairs,
    compensation_params,
    fit_compensation,
    fit_stats,
    fuse_model,
    model_size_report,
    quantize_model,
    sim_forward,
)
from .compensate import ActivationPair, diagonal_energy, fit_full_matrix
from .intengine import InferenceTrace, fused_runtime, run_int_model
from .quant import RangeEstimator
from .refnet import ModelBundle, TaskSpec, make_dataset, model_forward, train_synthetic


def blob_task() -> TaskSpec:
    """Default harness task: uncentered Gaussian blobs whose offset features make
    4-bit weight rounding inject per-channel bias, the distortion compensation repairs."""
    return TaskSpec(
        kind="blobs",
        classes=10,
        dim=8,
        train_n=3000,
        test_n=2000,
        noise=1.0,
        center_spread=1.5,
        center_offset=4.0,
        hidden=(24, 24, 24),
    )


def square_task() -> TaskSpec:
    """Equal-width task so every linear layer is square (diagonal-energy studies)."""
    return TaskSpec(
        kind="blobs",
        classes=16,
        dim=16,
        train_n=4000,
        test_n=1000,
        noise=1.0,
        center_spread=1.5,
        center_offset=4.0,
        hidden=(16, 16),
    )


def spiral_task() -> TaskSpec:
    return TaskSpec(kind="spirals", classes=2, dim=2, train_n=3000, test_n=1000, noise=0.6, hidden=(24, 24))


def accuracy(logits, labels) -> float:
    """argmax-match fraction."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty dataset")
    return float((logits.argmax(axis=1) == labels).mean())


WIDE_COLUMNS = [
    "config_id",
    "seed",
    "task",
    "weight_bits",
    "act_bits",
    "position",
    "sample_count",
    "beta_rounding",
    "estimator",
    "sequential",
    "acc_float",
    "acc_quant",
    "acc_comp",
    "acc_fused",
    "output_mse_quant",
    "output_mse_comp",
    "mean_pre_mse",
    "mean_post_mse",
    "model_bits",
    "delta_scalars",
    "delta_bits",
    "float_mul_count",
]


@dataclass
class EvalReport:
    """Rows of harness measurements; one row per (seed, config) cell."""

    rows: list = field(default_factory=list)

    def append(self, row):
        bad = [k for k, v in row.items() if isinstance(v, float) and not np.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite cells {bad}")
        self.rows.append(row)

    def where(self, **kv):
        return [r for r in self.rows if all(r[k] == v for k, v in kv.items())]

    def to_csv(self, path, fmt="wide"):
        with open(path, "w", newline="") as f:
            if fmt == "wide":
                w = csv.DictWriter(f, fieldnames=WIDE_COLUMNS)
                w.writeheader()
                for r in self.rows:
                    w.writerow({k: r.get(k, "") for k in WIDE_COLUMNS})
            elif fmt == "long":
                w = csv.writer(f)
                w.writerow(["config_id", "seed", "metric", "value"])
                for r in self.rows:
                    for k in WIDE_COLUMNS[2:]:
                        if k in r:
                            w.writerow([r["config_id"], r["seed"], k, r[k]])
            else:
                raise ValueError(f"unknown report format {fmt!r}")
        return path


def run_cell(task: TaskSpec, seed: int, config: CalibrationConfig, pool=None, model_f=None, comp_bundle=None) -> dict:
    """Train (or reuse), calibrate, and evaluate one (seed, config) cell."""
    if model_f is None:
        model_f = train_synthetic(task, seed)
    _, _, x_te, y_te = make_dataset(task, seed)
    if comp_bundle is None:
        if pool is None:
            pool = calibration_pool(model_f, config)
        comp_bundle = calibrate_model(model_f, config, pool)
    logits_f = model_forward(model_f, x_te)
    logits_q, _, _ = sim_forward(comp_bundle, x_te)
    comp = compensation_params(comp_bundle)
    logits_c, _, _ = sim_forward(comp_bundle, x_te, comp)
    fused = fuse_model(comp_bundle, beta_rounding=config.beta_rounding)
    trace = InferenceTrace()
    logits_z, trace = run_int_model(fused_runtime(fused), x_te, trace=trace)
    sizes = model_size_report(comp_bundle)
    stats = fit_stats(comp_bundle)
    row = {
        "config_id": config_id(task, config),
        "seed": seed,
        "task": task.kind,
        "weight_bits": config.weight_bits,
        "act_bits": config.act_bits,
        "position": config.position,
        "sample_count": config.sample_count,
        "beta_rounding": config.beta_rounding,
        "estimator": config.estimator.kind,
        "sequential": config.sequential,
        "acc_float": accuracy(logits_f, y_te),
        "acc_quant": accuracy(logits_q, y_te),
        "acc_comp": accuracy(logits_c, y_te),
        "acc_fused": accuracy(logits_z, y_te),
        "output_mse_quant": float(np.mean((logits_q - logits_f) ** 2)),
        "output_mse_comp": float(np.mean((logits_c - logits_f) ** 2)),
        "mean_pre_mse": float(np.mean([s["pre_mse"] for s in stats])),
        "mean_post_mse": float(np.mean([s["post_mse"] for s in stats])),
        "model_bits": sizes["model_bits"],
        "delta_scalars": sizes["delta_scalars"],
        "delta_bits": sizes["delta_bits"],
        "float_mul_count": trace.float_mul_count,
    }
    return row


def config_id(task: TaskSpec, config: CalibrationConfig) -> str:
    return (
        f"{task.kind}-w{config.weight_bits}a{config.act_bits}-{config.position}"
        f"-n{config.sample_count}-{'round' if config.beta_rounding else 'noround'}"
    )


def ablate_calibration_size(sizes, base: CalibrationConfig, task: TaskSpec, seeds) -> EvalReport:
    """One row per (size, seed); calibration subsets are nested within a seed.

    The quantized model is built once per seed from the base config's sample
    budget and kept frozen; the sizes vary only the compensation fit set.
    (That mirrors the full-scale protocol, where the baseline's ranges come
    from a small fixed set and only the compensation set is swept.)
    """
    report = EvalReport()
    for seed in seeds:
        model_f = train_synthetic(task, seed)
        base_cfg = replace(base, seed=seed)
        pool = calibration_pool(model_f, base_cfg)
        configs = [replace(base_cfg, sample_count=n) for n in sizes]
        # every set is drawn before any work, so a size beyond the pool is a CalibrationError up front
        base_x = calibration_sets(base_cfg, pool)[0]
        fit_sets = [calibration_sets(cfg, pool)[0] for cfg in configs]
        qbundle = quantize_model(model_f, base_x, base.weight_bits, base.act_bits, base.estimator)
        for cfg, fit_x in zip(configs, fit_sets):
            comp_bundle = fit_compensation(model_f, qbundle, cfg, fit_x)
            report.append(run_cell(task, seed, cfg, model_f=model_f, comp_bundle=comp_bundle))
    return report


def ablate_position(base: CalibrationConfig, task: TaskSpec, seeds) -> EvalReport:
    report = EvalReport()
    for seed in seeds:
        model_f = train_synthetic(task, seed)
        pool = calibration_pool(model_f, replace(base, seed=seed))
        for position in ("all", "post"):
            cfg = replace(base, position=position, seed=seed)
            report.append(run_cell(task, seed, cfg, pool=pool, model_f=model_f))
    return report


def ablate_beta_rounding(base: CalibrationConfig, task: TaskSpec, seeds) -> EvalReport:
    report = EvalReport()
    for seed in seeds:
        model_f = train_synthetic(task, seed)
        pool = calibration_pool(model_f, replace(base, seed=seed))
        for rounded in (True, False):
            cfg = replace(base, beta_rounding=rounded, seed=seed)
            report.append(run_cell(task, seed, cfg, pool=pool, model_f=model_f))
    return report


def figure1b_report(model_f: ModelBundle, bitwidth: int, sample_count=512, seed=0, estimator=None) -> list:
    """Diagonal concentration of full-matrix fits, input-side vs output-side.

    For every square linear layer, fit the residual against the layer's quant
    input (the whole-matrix baseline) and against the layer's own quant output,
    and report the fraction of absolute mass each W puts on its diagonal.
    """
    estimator = estimator or RangeEstimator()
    cfg = CalibrationConfig(sample_count=sample_count, weight_bits=bitwidth, act_bits=bitwidth, seed=seed, estimator=estimator)
    fit_x = calibration_sets(cfg, calibration_pool(model_f, cfg))[0]
    qbundle = quantize_model(model_f, fit_x, bitwidth, bitwidth, estimator)
    pairs = collect_pairs(model_f, qbundle, fit_x, capture_inputs=True)
    rows = []
    for i, pair in pairs.items():
        if pair.x_quant is None or pair.x_quant.shape[1] != pair.channels:
            continue
        pre = fit_full_matrix(pair)
        post = fit_full_matrix(ActivationPair(pair.y_full, pair.y_quant, x_quant=pair.y_quant))
        rows.append(
            {
                "layer": i,
                "channels": pair.channels,
                "pre_energy": diagonal_energy(pre.w),
                "post_energy": diagonal_energy(post.w),
            }
        )
    return rows
