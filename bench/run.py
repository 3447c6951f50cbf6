#!/usr/bin/env python3
"""quantcomp benchmark: calibrate, deploy and integer inference on three workloads.

    python3 bench/run.py --workload mlp-deep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace 1``
is the separate traced run that gives the per-layer split.  The last line of
standard output is the result, the line before it the run's environment and
the sha256 of the rounded engine's logits.  bench/README.md explains the
workloads, the metrics and how each is measured.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# pinned before numpy loads, so BLAS and OpenMP start with this many threads
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
if not (ROOT / "src" / "quantcomp" / "__init__.py").is_file():
    sys.exit(f"{__file__}: no quantcomp sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from quantcomp import calibrate, intengine, refnet  # noqa: E402
from quantcomp.intengine import InferenceTrace  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "calibrate_s": "s",
    "fuse_s": "s",
    "infer_p75_ms": "ms",
    "infer_p90_ms": "ms",
    "infer_samples_per_s": "1/s",
    "float_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fused_logit_mse": "logit_sq",
    "top1_agree": "ratio",
}

# Per-layer metrics: "<span>.<self_s|calls>" come from the span totals,
# "<span>.<macs|bytes_computed>" from the tracer's computed counts.
PER_LAYER = {
    "calibrate.sim_forward.self_s": "s",
    "calibrate.sim_forward.calls": "count",
    "calibrate.float_forward_capture.self_s": "s",
    "calibrate.im2col.calls": "count",
    "calibrate.im2col.bytes_computed": "bytes",
    "calibrate.quantize_model.self_s": "s",
    "quant.quantize_weights_per_channel.self_s": "s",
    "quant.compute_affine_params.self_s": "s",
    "compensate.fit_channel_affine.self_s": "s",
    "compensate.fit_channel_affine.calls": "count",
    "compensate.channel_mse.self_s": "s",
    "calibrate.quant_runtime.self_s": "s",
    "calibrate.quant_runtime.calls": "count",
    "calibrate.fuse_model.self_s": "s",
    "intengine.fuse_layer.self_s": "s",
    "intengine.encode_multiplier.calls": "count",
    "refnet.save_bundle.self_s": "s",
    "refnet.load_bundle.self_s": "s",
    "intengine.fused_runtime.self_s": "s",
    "intengine.integer_accumulate.self_s": "s",
    "intengine.integer_accumulate.calls": "count",
    "intengine.integer_accumulate.macs": "count",
    "intengine.integer_accumulate.bytes_computed": "bytes",
    "intengine.im2col.calls": "count",
    "intengine.im2col.bytes_computed": "bytes",
    "intengine.requantize.self_s": "s",
    "intengine.fixed_point_multiply.self_s": "s",
    "intengine.run_int_model.self_s": "s",
    "intengine.quantize_uniform.self_s": "s",
    "refnet.layer_forward.self_s": "s",
    "refnet.im2col.calls": "count",
    "refnet.im2col.bytes_computed": "bytes",
    "trace.overhead_s": "s",
}

MIN_SETUPS, MAX_SETUPS = 3, 100  # setup_s is their median
MIN_CALIBRATIONS = 3
MIN_FUSES, MAX_FUSES = 5, 500
MIN_PASSES = 2  # a second visit of every batch checks that its logits repeat
MIN_TRACE_PAIRS = 3
SHARE = {"setup": 0.1, "fuse": 0.15, "infer": 0.50}  # of --seconds; calibrations take the rest
CHECK_SAMPLES = 256  # no more than any calibration set, so the check never raises peak_rss_mb


class Tally:
    """Operations attempted and failed; a failed check or a raised error is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """(result, seconds) of one operation, or (None, None) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        return result, time.perf_counter() - start

    def must(self, fn, *args):
        """Like ``run``, for a step the rest of the run cannot do without."""
        result, seconds = self.run(fn, *args)
        if result is None:
            raise RuntimeError(f"{fn.__name__} failed; nothing left to measure")
        return result, seconds

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def result(self, metrics, units):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }


def deploy(comp_bundle, directory):
    """fuse -> save -> load -> fused_runtime: from a calibrated bundle to a running engine.

    Every deploy of a run writes over the same bundle directory.
    """
    fused = calibrate.fuse_model(comp_bundle)
    refnet.save_bundle(fused, directory, force=True)
    loaded = refnet.load_bundle(directory)
    return fused, loaded, intengine.fused_runtime(loaded)


def fuse(comp_bundle):
    """fuse -> fused_runtime in memory: the timed part of a deploy (see bench/README.md)."""
    fused = calibrate.fuse_model(comp_bundle)
    return fused, intengine.fused_runtime(fused)


def upper_quartile(times):
    """The estimator of every timing but setup_s (see bench/README.md)."""
    return float(np.percentile(times, 75))


def infer(runtime, x):
    return intengine.run_int_model(runtime, x)[0]


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def same_setup(a, b):
    return (
        refnet.bundles_equal(a.model, b.model)
        and same_bytes(a.calib_x, b.calib_x)
        and same_bytes(a.eval_x, b.eval_x)
        and len(a.batches) == len(b.batches)
        and all(same_bytes(x, y) for x, y in zip(a.batches, b.batches))
    )


def self_check(tally, setup, comp, runtime):
    """Correctness checks kept out of every timed section."""
    x = setup.eval_x[:CHECK_SAMPLES]
    exact = intengine.fused_runtime(calibrate.fuse_model(comp, beta_rounding=False))
    engine, _ = intengine.run_int_model(exact, x)
    sim, _, _ = calibrate.sim_forward(comp, x, calibrate.compensation_params(comp))
    tally.check(same_bytes(engine, sim), f"beta-unrounded engine differs from sim_forward in {int(np.sum(engine != sim))} logits")
    trace = InferenceTrace()
    intengine.run_int_model(runtime, x, trace=trace)
    tally.check(trace.float_mul_count == 0, f"rounded engine made {trace.float_mul_count} float multiplies")


def spread(k, n):
    """How many of k operations to run before each of n inference visits, evenly spaced."""
    counts = [0] * n
    for j in range(k):
        counts[(2 * j + 1) * n // (2 * k)] += 1
    return counts


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


def measure(workload, seed, seconds, tiny=False):
    """The untraced run: every end-to-end metric, with its own checks."""
    tally = Tally()
    setup, setup_s = tally.must(workload.make, seed, tiny)
    setup_times = [setup_s]
    model, batches = setup.model, setup.batches
    comp, cal_s = tally.must(calibrate.calibrate_model, model, setup.config, setup.calib_x)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as work:
        work = Path(work)
        fused, loaded, runtime = tally.must(deploy, comp, work / "bundle")[0]
        tally.check(refnet.bundles_equal(fused, loaded), "fused bundle changed across save and load")
        self_check(tally, setup, comp, runtime)
        _, fuse_s = tally.must(fuse, comp)
        int_s = statistics.median(tally.must(infer, runtime, x)[1] for x in batches[:3])
        float_s = statistics.median(tally.must(refnet.model_forward, model, x)[1] for x in batches[:3])

        # Size the run from the warm-up timings: inference first, calibrations
        # fill what is left of --seconds.  Everything is interleaved, so that
        # each metric samples the machine across the whole run.
        n = len(batches)
        pass_s = n * (int_s + float_s)
        passes = max(MIN_PASSES, int(SHARE["infer"] * seconds / pass_s))
        fuses = min(MAX_FUSES, max(MIN_FUSES, round(SHARE["fuse"] * seconds / fuse_s)))
        setups = min(MAX_SETUPS, max(MIN_SETUPS, round(SHARE["setup"] * seconds / setup_s)))
        left = seconds - passes * pass_s - fuses * fuse_s - (setups - 1) * setup_s
        calibrations = max(MIN_CALIBRATIONS, round(left / cal_s))
        visits = passes * n
        plan = {
            "setup": spread(setups - 1, visits),
            "calibrate": spread(calibrations, visits),
            "fuse": spread(fuses, visits),
        }
        cal_times, fuse_times, int_times, float_times = [], [], [], []
        int_first, float_first = [None] * n, [None] * n
        for v in range(visits):
            for _ in range(plan["setup"][v]):
                again, t = tally.run(workload.make, seed, tiny)
                if again is not None:
                    setup_times.append(t)
                    tally.check(same_setup(setup, again), "the same seed gave different inputs")
            for _ in range(plan["calibrate"][v]):
                again, t = tally.run(calibrate.calibrate_model, model, setup.config, setup.calib_x)
                if again is not None:
                    cal_times.append(t)
                    tally.check(refnet.bundles_equal(comp, again), "calibration is not repeatable")
            for _ in range(plan["fuse"][v]):
                out, t = tally.run(fuse, comp)
                if out is not None:
                    fuse_times.append(t)
                    tally.check(refnet.bundles_equal(out[0], fused), "fusing is not repeatable")
            i = v % n
            for fn, arg, times, first in (
                (infer, runtime, int_times, int_first),
                (refnet.model_forward, model, float_times, float_first),
            ):
                y, t = tally.run(fn, arg, batches[i])
                if y is None:
                    continue
                times.append(t)
                if first[i] is None:
                    first[i] = y
                else:
                    tally.check(same_bytes(first[i], y), f"{fn.__name__} logits of batch {i} changed between passes")

    # quality on the fixed evaluation set, in traffic-sized batches so that
    # it never raises peak_rss_mb
    step = len(batches[0])
    chunks = [setup.eval_x[i : i + step] for i in range(0, len(setup.eval_x), step)]
    int_logits = np.concatenate([infer(runtime, x) for x in chunks])
    float_logits = np.concatenate([refnet.model_forward(model, x) for x in chunks])
    batch = len(batches[0])
    int_ms = np.array(int_times) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_times),
        "calibrate_s": upper_quartile(cal_times),
        "fuse_s": upper_quartile(fuse_times),
        "infer_p75_ms": upper_quartile(int_ms),
        "infer_p90_ms": float(np.percentile(int_ms, 90)),
        "infer_samples_per_s": batch / upper_quartile(int_times),
        "float_samples_per_s": batch / upper_quartile(float_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "fused_logit_mse": float(np.mean((int_logits.astype(np.float64) - float_logits) ** 2)),
        "top1_agree": float(np.mean(int_logits.argmax(axis=1) == float_logits.argmax(axis=1))),
    }
    info = {
        "logits_sha256": digest([int_logits]),
        "traffic_logits_sha256": digest(int_first),
        "counts": {
            "setups": len(setup_times),
            "calibrations": len(cal_times),
            "fuses": len(fuse_times),
            "batches": n,
            "passes": passes,
            "batch_size": batch,
        },
    }
    return info, tally.result(metrics, END_TO_END)


def trace_run(workload, seed, seconds, tiny=False):
    """The traced run: untraced and traced passes alternate; per-layer self
    times are medians over the traced passes, the overhead is the difference
    of the two medians, and the last traced pass's spans are written out."""
    tally = Tally()
    setup, _ = tally.must(workload.make, seed, tiny)
    comp, _ = tally.must(calibrate.calibrate_model, setup.model, setup.config, setup.calib_x)
    batches = setup.batches[: workload.trace_batches]
    with tempfile.TemporaryDirectory(prefix="trace-", dir=OUT) as work:
        work = Path(work)
        _, _, runtime = tally.must(deploy, comp, work / "bundle")[0]
        self_check(tally, setup, comp, runtime)
        reference = digest(infer(runtime, x) for x in batches)

        def one_pass():
            start = time.perf_counter()
            _, _, rt = deploy(calibrate.calibrate_model(setup.model, setup.config, setup.calib_x), work / "bundle")
            logits = [infer(rt, x) for x in batches]
            for x in batches:
                refnet.model_forward(setup.model, x)
            wall = time.perf_counter() - start
            return wall, digest(logits)

        plain, traced, self_times = [], [], []  # per pass: walls, and self seconds by span name
        first_counts = kept = None  # the first traced pass's counts; the last traced pass's tracer
        pairs = 0
        start = time.perf_counter()
        while pairs < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
            pairs += 1
            out, _ = tally.run(one_pass)
            if out is not None:
                plain.append(out[0])
                tally.check(out[1] == reference, "untraced logits changed between passes")
            tracer = spans.Tracer()
            with spans.traced(tracer):
                out, _ = tally.run(one_pass)
            if out is None:
                continue
            traced.append(out[0])
            tally.check(out[1] == reference, "traced logits differ from untraced logits")
            own, pass_calls = tracer.totals()
            self_times.append(own)
            kept = tracer
            counts = (pass_calls, dict(tracer.counts))
            first_counts = first_counts or counts
            tally.check(counts == first_counts, "call or work counts differ between traced passes")
            inner, _ = tracer.totals(root="intengine.run_int_model")
            engine_s = sum(end - begin for name, begin, end, _ in tracer.spans if name == "intengine.run_int_model")
            tally.check(
                abs(sum(inner.values()) - engine_s) <= 1e-9 * max(engine_s, 1.0),
                "self times inside run_int_model do not add up to its total",
            )

    calls, counts = first_counts
    self_s = {name: statistics.median([t.get(name, 0.0) for t in self_times]) for name in calls}
    metrics = {}
    for name in PER_LAYER:
        span, kind = name.rsplit(".", 1)
        if kind == "self_s":
            metrics[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            metrics[name] = calls.get(span, 0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"wall_s": traced[-1], "spans": kept.spans}))
    for span, own in sorted(self_s.items(), key=lambda kv: -kv[1])[:20]:
        print(f"{span:45s} {own * 1e3:10.2f} ms self {calls[span]:7d} calls", file=sys.stderr)
    info = {
        "logits_sha256": reference,
        "spans_file": str(path.relative_to(ROOT)),
        "counts": {
            "pairs": pairs,
            "batches": len(batches),
            "untraced_s": statistics.median(plain),
            "traced_s": statistics.median(traced),
        },
    }
    return info, tally.result(metrics, PER_LAYER)


def main(argv=None):
    parser = argparse.ArgumentParser(description="quantcomp calibrate/deploy/inference benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    run = trace_run if args.trace else measure
    info, result = run(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "trace": args.trace, "env": environment(args.seed)} | info))
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
