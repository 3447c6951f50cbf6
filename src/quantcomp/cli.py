"""Command-line entry point.

Subcommands: train, quantize, compensate, fuse, eval, ablate, dump-fused.
Exit codes: 0 success, 2 validation error, 3 invariant failure in --check mode.
Relative output paths resolve under $QUANTCOMP_OUT when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evalbench
from .calibrate import (
    CalibrationConfig,
    calibration_pool,
    compensation_params,
    fit_compensation,
    fuse_model,
    quantize_model,
    sim_forward,
    write_fit_csv,
)
from .evalbench import EvalReport, accuracy, model_size_report, run_cell
from .intengine import InferenceTrace, fused_runtime, run_int_model
from .quant import RangeEstimator
from .refnet import (
    ModelBundle,
    TaskSpec,
    TrainError,
    bundles_equal,
    load_bundle,
    make_dataset,
    model_forward,
    save_bundle,
    train_synthetic,
)


class CliError(Exception):
    pass


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


def _save(bundle, out, force):
    try:
        return save_bundle(bundle, _out_path(out), force=force)
    except Exception as e:
        raise CliError(str(e)) from e


def _load(path):
    try:
        return load_bundle(path)
    except Exception as e:
        raise CliError(str(e)) from e


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


def _add_task_flags(p):
    p.add_argument("--task", choices=sorted(TASK_PRESETS), default="blobs")
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--train-n", dest="train_n", type=int)
    p.add_argument("--test-n", dest="test_n", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--hidden", type=str, help="comma-separated hidden widths")


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
    task = TASK_PRESETS[args.task]()
    overrides = {}
    for name in ("classes", "dim", "train_n", "test_n", "noise"):
        v = getattr(args, name, None)
        if v is not None:
            overrides[name] = v
    if getattr(args, "hidden", None):
        overrides["hidden"] = tuple(int(h) for h in args.hidden.split(","))
    if overrides:
        task = replace(task, **overrides)
    return task


def cmd_train(args):
    task = _task(args)
    try:
        bundle = train_synthetic(task, args.seed, epochs=args.epochs, lr=args.lr, min_accuracy=args.min_accuracy)
    except TrainError as e:
        raise CliError(f"training failed: {e}") from e
    path = _save(bundle, args.out, args.force)
    acc = bundle.manifest["metadata"]["held_out_accuracy"]
    print(f"trained {bundle.manifest['name']} held-out accuracy {acc:.4f} -> {path}")
    return 0


def cmd_quantize(args):
    if args.weight_bits >= 32 or args.act_bits >= 32:
        raise CliError("bits >= 32 is a passthrough, not a quantization; pick a smaller bit-width")
    bundle = _load(args.bundle)
    cfg = _config(args)
    pool = calibration_pool(bundle, cfg)
    qbundle = quantize_model(bundle, pool[: args.sample_count], args.weight_bits, args.act_bits, _estimator(args))
    path = _save(qbundle, args.out, args.force)
    print(f"quantized to w{args.weight_bits}/a{args.act_bits} -> {path}")
    return 0


def cmd_compensate(args):
    model_f = _load(args.bundle_f)
    model_q = _load(args.bundle_q)
    qsec = model_q.manifest.get("quantization")
    if qsec is None:
        raise CliError("second bundle is not quantized; run quantize first")
    cfg = _config(args)
    if cfg.weight_bits != qsec["weight_bits"] or cfg.act_bits != qsec["act_bits"]:
        raise CliError(
            f"config bits w{cfg.weight_bits}/a{cfg.act_bits} do not match the quantized bundle "
            f"w{qsec['weight_bits']}/a{qsec['act_bits']}"
        )
    pool = calibration_pool(model_f, cfg)
    comp_bundle = fit_compensation(model_f, model_q, cfg, pool[: cfg.sample_count])
    path = _save(comp_bundle, args.out, args.force)
    rows = write_fit_csv(comp_bundle, Path(path) / "fit_stats.csv")
    print(f"fitted compensation at {rows} positions -> {path}")
    return 0


def cmd_fuse(args):
    bundle = _load(args.bundle)
    if bundle.manifest.get("quantization") is None:
        raise CliError("bundle is not quantized; nothing to fuse")
    fused = fuse_model(bundle, beta_rounding=args.beta_rounding)
    path = _save(fused, args.out, args.force)
    n = sum(1 for e in fused.manifest["fusion"]["entries"] if e["kind"] == "param")
    mode = "integer-only" if args.beta_rounding else "reference (f32 offsets)"
    print(f"fused {n} layers ({mode}) -> {path}")
    return 0


def _eval_bundle(bundle, args):
    meta = bundle.manifest.get("metadata", {})
    if "task" not in meta:
        raise CliError("bundle metadata carries no task; cannot derive evaluation data")
    t = dict(meta["task"])
    t["hidden"] = tuple(t["hidden"])
    task = TaskSpec(**t)
    _, _, x_te, y_te = make_dataset(task, meta["seed"])
    rows = {}
    if bundle.manifest.get("fusion") is not None:
        trace = InferenceTrace()
        logits, trace = run_int_model(fused_runtime(bundle), x_te, trace=trace)
        rows["acc_fused"] = accuracy(logits, y_te)
        rows["float_mul_count"] = trace.float_mul_count
        rows["f64_gemm_macs"] = trace.f64_gemm_macs  # exact integer GEMMs on the host's f64 BLAS
    elif bundle.manifest.get("quantization") is not None:
        logits_q, _, _ = sim_forward(bundle, x_te)
        rows["acc_quant"] = accuracy(logits_q, y_te)
        comp = compensation_params(bundle)
        if comp:
            logits_c, _, _ = sim_forward(bundle, x_te, comp)
            rows["acc_comp"] = accuracy(logits_c, y_te)
    else:
        rows["acc_float"] = accuracy(model_forward(bundle, x_te), y_te)
    rows.update(model_size_report(bundle))
    return rows


def _check_bundle(bundle, args):
    """Cheap invariant battery for --check mode; returns failure messages."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        save_bundle(bundle, Path(tmp) / "roundtrip", force=True)
        if not bundles_equal(bundle, load_bundle(Path(tmp) / "roundtrip")):
            failures.append("bundle save/load round-trip is not the identity")
    csec = bundle.manifest.get("compensation")
    if csec:
        for s in csec["stats"]:
            if s["post_mse"] > s["pre_mse"] + 1e-12:
                failures.append(f"layer {s['layer']}: compensation raised calibration MSE")
        sizes = model_size_report(bundle)
        want = sum(2 * len(e["alpha"]) for e in csec["layers"].values())
        if bundle.manifest.get("fusion") is None and sizes["delta_scalars"] != want:
            failures.append("size accountant disagrees with 2 * sum(C_out)")
    if bundle.manifest.get("fusion") is not None:
        meta = bundle.manifest.get("metadata", {})
        if "task" in meta:
            t = dict(meta["task"])
            t["hidden"] = tuple(t["hidden"])
            x = make_dataset(TaskSpec(**t), meta["seed"])[2][:64]
            trace = InferenceTrace()
            logits, trace = run_int_model(fused_runtime(bundle), x, trace=trace)
            if bundle.manifest["fusion"]["beta_rounding"] and trace.float_mul_count != 0:
                failures.append(f"float ops leaked into integer kernels ({trace.float_mul_count})")
            again, _ = run_int_model(fused_runtime(bundle), x)
            if not np.array_equal(logits, again):
                failures.append("integer inference is not deterministic")
    return failures


def cmd_eval(args):
    bundle = _load(args.bundle)
    rows = _eval_bundle(bundle, args)
    for k, v in sorted(rows.items()):
        print(f"{k}: {v}")
    if args.check:
        failures = _check_bundle(bundle, args)
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
            sizes = [int(s) for s in args.sizes.split(",")]
            report = evalbench.ablate_calibration_size(sizes, base, task, seeds)
            if args.check:
                med = [float(np.median([r["output_mse_comp"] for r in report.where(sample_count=n)])) for n in sizes]
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
    bundle = _load(args.bundle)
    fusion = bundle.manifest.get("fusion")
    if fusion is None:
        raise CliError("bundle has no fusion section")
    out = sys.stdout if args.out is None else open(_out_path(args.out), "w")
    try:
        print(f"beta_rounding: {fusion['beta_rounding']}", file=out)
        print(f"input: scale={fusion['input']['scale']} zero_point={fusion['input']['zero_point']}", file=out)
        for e in fusion["entries"]:
            if e["kind"] != "param":
                print(f"[{e['kind']}] {json.dumps({k: v for k, v in e.items() if k != 'kind'})}", file=out)
                continue
            print(f"[{e['op_kind']}] layer {e['layer_index']}", file=out)
            w = bundle.tensor(e["weight_codes"])
            print(f"  weight_codes: shape={list(w.shape)} bits={e['w_bits']}", file=out)
            for name in ("m0", "shift", "w_scales", "w_zero_points", "alpha", "beta"):
                print(f"  {name}: {e[name]}", file=out)
            print(f"  bias_acc: {bundle.tensor(e['bias_acc']).tolist()}", file=out)
            print(f"  const_acc: {bundle.tensor(e['const_acc']).tolist()}", file=out)
            print(f"  z_x={e['z_x']} z_r={e['z_r']} s_x={e['s_x']} s_r={e['s_r']}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
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

    c = sub.add_parser("compensate", help="fit channel-affine compensation")
    c.add_argument("bundle_f")
    c.add_argument("bundle_q")
    _add_config_flags(c)
    c.add_argument("--out", required=True)
    c.add_argument("--force", action="store_true")
    c.set_defaults(func=cmd_compensate)

    f = sub.add_parser("fuse", help="fold compensation into integer parameters")
    f.add_argument("bundle")
    f.add_argument("--beta-rounding", dest="beta_rounding", action="store_true", default=True)
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
    a.add_argument("--sizes", default="32,128,512,1024")
    a.add_argument("--seeds", type=int, default=10)
    _add_config_flags(a)
    a.add_argument("--format", choices=["wide", "long"], default="wide")
    a.add_argument("--out-dir", required=True)
    a.add_argument("--check", action="store_true")
    a.set_defaults(func=cmd_ablate)

    d = sub.add_parser("dump-fused", help="emit fused parameters as text")
    d.add_argument("bundle")
    d.add_argument("--out")
    d.set_defaults(func=cmd_dump_fused)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
