"""Command-line entry point.

Subcommands: train, quantize, compensate, fuse, eval, ablate, dump-fused.
Exit codes: 0 success; 2 for any named error of the package (and for an I/O
error), printed as one ``error:`` line; 3 for an invariant failure in --check
mode.  Relative output paths resolve under $QUANTCOMP_OUT when it is set.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evalbench
from .calibrate import (
    CalibrationConfig,
    CalibrationError,
    calibration_pool,
    calibration_sets,
    compensation_params,
    fit_compensation,
    fit_stats,
    fuse_model,
    model_size_report,
    quantize_model,
    sim_forward,
    write_fit_csv,
)
from .evalbench import accuracy
from .intengine import EngineError, InferenceTrace, dump_fused, fused_runtime, run_int_model
from .quant import QuantError, RangeEstimator
from .refnet import (
    BundleError,
    ShapeError,
    TaskSpec,
    TrainError,
    bundles_equal,
    load_bundle,
    model_forward,
    save_bundle,
    task_dataset,
    train_synthetic,
)


class CliError(Exception):
    pass


# every error main reports as ``error: ...`` with exit code 2
NAMED_ERRORS = (BundleError, ShapeError, TrainError, QuantError, CalibrationError, EngineError, CliError, OSError)


TASK_PRESETS = {
    "blobs": evalbench.blob_task,
    "spirals": evalbench.spiral_task,
    "square": evalbench.square_task,
}


def _out_path(raw):
    p = Path(raw)
    root = os.environ.get("QUANTCOMP_OUT")
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def _save(bundle, args):
    return save_bundle(bundle, _out_path(args.out), force=args.force)


def _estimator(args) -> RangeEstimator:
    if args.estimator == "percentile":
        return RangeEstimator("percentile", args.percentile)
    return RangeEstimator("minmax")


def _config(args) -> CalibrationConfig:
    return CalibrationConfig(
        sample_count=args.sample_count,
        position=args.position,
        estimator=_estimator(args),
        weight_bits=args.weight_bits,
        act_bits=args.act_bits,
        beta_rounding=args.beta_rounding,
        seed=args.seed,
        sequential=args.sequential,
        range_split=args.range_split,
    )


def int_list(text):
    """``"8,16"`` -> ``(8, 16)``; argparse turns the ValueError of a bad item into a usage error (exit 2)."""
    return tuple(int(v) for v in text.split(","))


def _add_task_flags(p):
    p.add_argument("--task", choices=sorted(TASK_PRESETS), default="blobs")
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--train-n", dest="train_n", type=int)
    p.add_argument("--test-n", dest="test_n", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--hidden", type=int_list, help="comma-separated hidden widths")


def _add_config_flags(p):
    p.add_argument("--sample-count", type=int, default=512)
    p.add_argument("--position", choices=["all", "post"], default="all")
    p.add_argument("--estimator", choices=["minmax", "percentile"], default="minmax")
    p.add_argument("--percentile", type=float, default=0.999)
    p.add_argument("--weight-bits", type=int, default=8)
    p.add_argument("--act-bits", type=int, default=8)
    p.add_argument("--beta-rounding", dest="beta_rounding", action="store_true", default=True)
    p.add_argument("--no-beta-rounding", dest="beta_rounding", action="store_false")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequential", dest="sequential", action="store_true", default=True)
    p.add_argument("--frozen", dest="sequential", action="store_false", help="fit all layers from one uncompensated pass")
    p.add_argument("--range-split", action="store_true", default=False)


def _task(args) -> TaskSpec:
    overrides = {n: getattr(args, n) for n in ("classes", "dim", "train_n", "test_n", "noise") if getattr(args, n) is not None}
    if args.hidden:
        overrides["hidden"] = args.hidden
    return replace(TASK_PRESETS[args.task](), **overrides)


def cmd_train(args):
    bundle = train_synthetic(_task(args), args.seed, epochs=args.epochs, lr=args.lr, min_accuracy=args.min_accuracy)
    path = _save(bundle, args)
    acc = bundle.manifest["metadata"]["held_out_accuracy"]
    print(f"trained {bundle.manifest['name']} held-out accuracy {acc:.4f} -> {path}")
    return 0


def cmd_quantize(args):
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    _, range_x = calibration_sets(cfg, calibration_pool(bundle, cfg))
    qbundle = quantize_model(bundle, range_x, cfg.weight_bits, cfg.act_bits, cfg.estimator)
    path = _save(qbundle, args)
    print(f"quantized to w{cfg.weight_bits}/a{cfg.act_bits} -> {path}")
    return 0


def cmd_compensate(args):
    cfg = _config(args)
    qbundle = load_bundle(args.bundle)
    fit_x, _ = calibration_sets(cfg, calibration_pool(qbundle, cfg))
    comp_bundle = fit_compensation(qbundle, cfg, fit_x)
    path = _save(comp_bundle, args)
    rows = write_fit_csv(comp_bundle, Path(path) / "fit_stats.csv")
    print(f"fitted compensation at {rows} positions -> {path}")
    return 0


def cmd_fuse(args):
    fused = fuse_model(load_bundle(args.bundle), beta_rounding=args.beta_rounding)
    model = fused_runtime(fused)
    path = _save(fused, args)
    n = sum(1 for e in model.entries if e.kind == "param")
    mode = "integer-only" if model.beta_rounding else "reference (f32 offsets)"
    print(f"fused {n} layers ({mode}) -> {path}")
    return 0


def _eval_bundle(bundle, x, y):
    rows = {}
    if bundle.stage == "fused":
        logits, trace = run_int_model(fused_runtime(bundle), x, trace=InferenceTrace())
        rows["acc_fused"] = accuracy(logits, y)
        rows["float_mul_count"] = trace.float_mul_count
        rows["gemm_macs"] = trace.gemm_macs  # exact integer GEMMs on the host's float BLAS, f32 or f64 per layer
    elif bundle.stage == "quantized":
        rows["acc_quant"] = accuracy(sim_forward(bundle, x)[0], y)
        comp = compensation_params(bundle)
        if comp:
            rows["acc_comp"] = accuracy(sim_forward(bundle, x, comp)[0], y)
    else:
        rows["acc_float"] = accuracy(model_forward(bundle, x), y)
    rows.update(model_size_report(bundle))
    return rows


def _check_bundle(bundle, x):
    """Cheap invariant battery for --check mode; returns failure messages."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(bundle, Path(tmp) / "roundtrip", force=True)
        if not bundles_equal(bundle, load_bundle(Path(tmp) / "roundtrip")):
            failures.append("bundle save/load round-trip is not the identity")
    for s in fit_stats(bundle):
        if s["post_mse"] > s["pre_mse"] + 1e-12:
            failures.append(f"layer {s['layer']}: compensation raised calibration MSE")
    comp = compensation_params(bundle)
    if comp and bundle.stage != "fused":
        layers = bundle.layers
        if model_size_report(bundle)["delta_scalars"] != sum(2 * layers[i].out_channels for i in comp):
            failures.append("size accountant disagrees with 2 * sum(C_out)")
    if bundle.stage == "fused":
        model = fused_runtime(bundle)
        logits, trace = run_int_model(model, x[:64], trace=InferenceTrace())
        if model.beta_rounding and trace.float_mul_count != 0:
            failures.append(f"float ops leaked into integer kernels ({trace.float_mul_count})")
        again, _ = run_int_model(fused_runtime(bundle), x[:64])
        if not np.array_equal(logits, again):
            failures.append("integer inference is not deterministic")
    return failures


def cmd_eval(args):
    bundle = load_bundle(args.bundle)
    _, _, x_te, y_te = task_dataset(bundle)
    rows = _eval_bundle(bundle, x_te, y_te)
    for k, v in sorted(rows.items()):
        print(f"{k}: {v}")
    if args.check:
        failures = _check_bundle(bundle, x_te)
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        if failures:
            return 3
        print("all checks passed")
    return 0


def cmd_ablate(args):
    task = _task(args)
    base = _config(args)
    seeds = list(range(args.seeds))
    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axes = ["size", "position", "beta"] if args.axis == "all" else [args.axis]
    wrote = []
    failures = []
    for axis in axes:
        if axis == "size":
            report = evalbench.ablate_calibration_size(args.sizes, base, task, seeds)
            if args.check:
                med = [float(np.median([r["output_mse_comp"] for r in report.where(sample_count=n)])) for n in args.sizes]
                if any(a < b - 1e-12 for a, b in zip(med, med[1:])):
                    failures.append(f"median output MSE not non-increasing over sizes: {med}")
        elif axis == "position":
            report = evalbench.ablate_position(base, task, seeds)
            if args.check:
                m_all = float(np.median([r["acc_comp"] for r in report.where(position="all")]))
                m_post = float(np.median([r["acc_comp"] for r in report.where(position="post")]))
                if m_all < m_post:
                    failures.append(f"median accuracy all={m_all} < post={m_post}")
        elif axis == "beta":
            report = evalbench.ablate_beta_rounding(base, task, seeds)
            if args.check:
                m_r = float(np.median([r["acc_fused"] for r in report.where(beta_rounding=True)]))
                m_u = float(np.median([r["acc_fused"] for r in report.where(beta_rounding=False)]))
                if abs(m_r - m_u) > 0.005:
                    failures.append(f"offset-rounding accuracy gap {abs(m_r - m_u):.4f} > 0.005")
        else:
            raise CliError(f"unknown ablation axis {axis!r}")
        path = out_dir / f"ablate_{axis}.csv"
        report.to_csv(path, fmt=args.format)
        wrote.append(path)
        print(f"wrote {path} ({len(report.rows)} rows)")
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return 3 if failures else 0


def cmd_dump_fused(args):
    model = fused_runtime(load_bundle(args.bundle))
    with open(_out_path(args.out), "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        dump_fused(model, out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="quantcomp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a synthetic-task float model")
    _add_task_flags(t)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=300)
    t.add_argument("--lr", type=float, default=0.05)
    t.add_argument("--min-accuracy", type=float, default=0.8)
    t.add_argument("--out", required=True)
    t.add_argument("--force", action="store_true")
    t.set_defaults(func=cmd_train)

    q = sub.add_parser("quantize", help="quantize a float bundle")
    q.add_argument("bundle")
    _add_config_flags(q)
    q.add_argument("--out", required=True)
    q.add_argument("--force", action="store_true")
    q.set_defaults(func=cmd_quantize)

    what = "fit channel-affine compensation onto a quantized bundle; the float model it was quantized from is the target"
    c = sub.add_parser("compensate", help=what, description=what)
    c.add_argument("bundle", help="a bundle written by quantize")
    _add_config_flags(c)
    c.add_argument("--out", required=True)
    c.add_argument("--force", action="store_true")
    c.set_defaults(func=cmd_compensate)

    f = sub.add_parser("fuse", help="fold compensation into integer parameters")
    f.add_argument("bundle")
    # neither flag: fuse_model follows the compensation config's beta_rounding
    f.add_argument("--beta-rounding", dest="beta_rounding", action="store_true", default=None)
    f.add_argument("--no-beta-rounding", dest="beta_rounding", action="store_false")
    f.add_argument("--out", required=True)
    f.add_argument("--force", action="store_true")
    f.set_defaults(func=cmd_fuse)

    e = sub.add_parser("eval", help="evaluate a bundle on its task's held-out set")
    e.add_argument("bundle")
    e.add_argument("--check", action="store_true", help="also verify bundle invariants; exit 3 on failure")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="run desk-scale ablations and write CSVs")
    _add_task_flags(a)
    a.add_argument("--axis", choices=["size", "position", "beta", "all"], default="all")
    a.add_argument("--sizes", type=int_list, default="32,128,512,1024")
    a.add_argument("--seeds", type=int, default=10)
    _add_config_flags(a)
    a.add_argument("--format", choices=["wide", "long"], default="wide")
    a.add_argument("--out-dir", required=True)
    a.add_argument("--check", action="store_true")
    a.set_defaults(func=cmd_ablate)

    what = "print a fused bundle as the engine loads it: its grids, then each entry's record keys, one per line"
    d = sub.add_parser("dump-fused", help=what, description=what)
    d.add_argument("bundle")
    d.add_argument("--out")
    d.set_defaults(func=cmd_dump_fused)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NAMED_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
