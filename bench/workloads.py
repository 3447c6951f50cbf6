"""The benchmark's workloads: a fixed model, calibration and evaluation set, plus seeded traffic.

Each workload draws its float model, its calibration set and its evaluation
set from the constant ``MODEL_SEED``, so the deployed integer model and the
quality metrics measured on the evaluation set are the same whatever
``--seed`` says; the seed draws only the timed inference traffic.  A
seed-dependent calibration set moves ``fused_logit_mse`` by about 25% between
seeds (min/max ranges follow the extreme samples), which would drown any
change a later PR makes.

``tiny=True`` shrinks every size so the smoke test runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from quantcomp import calibrate, evalbench, refnet
from quantcomp.calibrate import CalibrationConfig
from quantcomp.refnet import LayerSpec, ModelBundle

MODEL_SEED = 0


@dataclass
class Setup:
    """What the program receives: the float model, its calibration set, the traffic
    (a list of inference batches) and the evaluation set of the quality metrics."""

    model: ModelBundle
    config: CalibrationConfig
    calib_x: np.ndarray
    batches: list[np.ndarray]
    eval_x: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, bool], Setup]  # (seed, tiny) -> Setup; timed as setup_s
    trace_batches: int  # batches per pass of the traced run


def _gauss(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _he(rng, shape):
    fan_in = int(np.prod(shape[1:]))
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def _mlp_deep(seed, tiny):
    depth, width, slots, n_cal, batch = (3, 16, 6, 64, 16) if tiny else (16, 64, 100, 512, 256)
    rng = np.random.default_rng([MODEL_SEED, 1])
    model = refnet.build_mlp((32,) + (width,) * depth + (10,), rng=rng)
    calib_x = _gauss(rng, (n_cal, 32))
    eval_x = _gauss(rng, (4 * n_cal, 32))
    traffic = np.random.default_rng([seed, 1])
    batches = [_gauss(traffic, (batch, 32)) for _ in range(slots)]
    return Setup(model, CalibrationConfig(sample_count=n_cal), calib_x, batches, eval_x)


def _conv(seed, tiny):
    hw, ch, slots, n_cal, batch = (8, 4, 6, 32, 8) if tiny else (16, 16, 50, 256, 64)
    rng = np.random.default_rng([MODEL_SEED, 2])

    def conv(cin):
        return LayerSpec("conv2d", cin, ch, weight=_he(rng, (ch, cin, 3, 3)), bias=np.zeros(ch, np.float32), kernel=3, pad=1)

    flat = ch * (hw // 2) ** 2
    layers = [
        conv(3),
        LayerSpec("relu"),
        conv(ch),
        LayerSpec("gelu"),
        LayerSpec("avgpool", kernel=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec("linear", flat, 10, weight=_he(rng, (10, flat)), bias=np.zeros(10, np.float32)),
    ]
    model = refnet.build_from_layers(layers, (3, hw, hw), name="conv")
    calib_x = _gauss(rng, (n_cal, 3, hw, hw))
    eval_x = _gauss(rng, (2 * n_cal, 3, hw, hw))
    traffic = np.random.default_rng([seed, 2])
    batches = [_gauss(traffic, (batch, 3, hw, hw)) for _ in range(slots)]
    return Setup(model, CalibrationConfig(sample_count=n_cal), calib_x, batches, eval_x)


def _mlp_blobs_b1(seed, tiny):
    task = evalbench.blob_task()
    if tiny:
        task = replace(task, train_n=300, test_n=12, hidden=(12, 12))
    model = refnet.train_synthetic(task, MODEL_SEED, epochs=40 if tiny else 500, min_accuracy=0.0 if tiny else 0.8)
    config = CalibrationConfig(sample_count=64 if tiny else 512, weight_bits=4, act_bits=4, seed=MODEL_SEED)
    calib_x = calibrate.calibration_pool(model, config)[: config.sample_count]
    _, _, x_test, _ = refnet.make_dataset(task, MODEL_SEED)
    order = np.random.default_rng([seed, 3]).permutation(len(x_test))
    return Setup(model, config, calib_x, [x_test[i : i + 1] for i in order], x_test)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mlp-deep", _mlp_deep, trace_batches=8),
        Workload("conv", _conv, trace_batches=8),
        Workload("mlp-blobs-b1", _mlp_blobs_b1, trace_batches=200),
    )
}
