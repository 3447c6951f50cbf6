"""The traced benchmark's per-layer kernel spans stay measurable.

bench/spans.py finds the engine's kernels by wrapping module-global names of
``quantcomp.intengine`` from outside.  If inference stopped calling one of
them by that name, its ``PER_LAYER`` metrics would read 0; these tests trace
one ``run_int_model`` call and require a span for each, and one
``intengine.im2col`` span per conv layer.  bench/spans.py is
only imported, under a name of its own, and nothing under bench/ changes.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from quantcomp import intengine
from quantcomp.calibrate import CalibrationConfig, calibrate_model, fuse_model
from quantcomp.intengine import fused_runtime
from quantcomp.refnet import LayerSpec, build_from_layers, build_mlp

KERNELS = (
    "intengine.quantize_uniform",
    "intengine.integer_accumulate",
    "intengine.requantize",
    "intengine.fixed_point_multiply",
)


def _bench_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans_readonly", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mlp():
    model = build_mlp((6, 8, 8, 3), rng=np.random.default_rng(0))
    return model, np.random.default_rng(1).standard_normal((64, 6)).astype(np.float32)


def _conv():
    rng = np.random.default_rng(2)
    layers = [
        LayerSpec("conv2d", 2, 3, weight=rng.standard_normal((3, 2, 3, 3)).astype(np.float32), bias=np.zeros(3, np.float32), kernel=3, pad=1),
        LayerSpec("relu"),
        LayerSpec("conv2d", 3, 3, weight=rng.standard_normal((3, 3, 3, 3)).astype(np.float32), bias=np.zeros(3, np.float32), kernel=3, pad=1),
        LayerSpec("avgpool", kernel=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec("linear", 12, 3, weight=rng.standard_normal((3, 12)).astype(np.float32), bias=np.zeros(3, np.float32)),
    ]
    return build_from_layers(layers, (2, 4, 4)), rng.standard_normal((32, 2, 4, 4)).astype(np.float32)


@pytest.mark.parametrize("make", [_mlp, _conv], ids=["mlp", "conv"])
def test_traced_inference_reaches_every_kernel_span(make):
    spans = _bench_spans()
    model_f, x = make()
    runtime = fused_runtime(fuse_model(calibrate_model(model_f, CalibrationConfig(sample_count=32), x)))
    want, _ = intengine.run_int_model(runtime, x[:2])  # the plan is built here, before tracing starts
    tracer = spans.Tracer()
    with spans.traced(tracer):
        got, _ = intengine.run_int_model(runtime, x[:2])
    assert got.tobytes() == want.tobytes()
    _, calls = tracer.totals(root="intengine.run_int_model")
    assert calls["intengine.run_int_model"] == 1
    assert {name: calls[name] > 0 for name in KERNELS} == {name: True for name in KERNELS}
    assert calls["intengine.integer_accumulate"] == len(model_f.param_layer_indices())
    # the bench's intengine.im2col metrics need the engine to call im2col by that name, once per conv layer
    assert calls["intengine.im2col"] == sum(layer.op_kind == "conv2d" for layer in model_f.layers)
