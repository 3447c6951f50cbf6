"""Uniform affine quantization in five minutes.

Walks through range estimation, code round-trips, percentile clipping and
per-channel weights on small arrays you can eyeball.
"""

import numpy as np

from quantcomp import (
    RangeEstimator,
    compute_affine_params,
    dequantize,
    quantize_uniform,
    quantize_weights_per_channel,
)
from quantcomp.quant import tensor_params

rng = np.random.default_rng(0)

print("== scalar params from a tensor's range ==")
x = np.array([-1.0, -0.2, 0.3, 1.0])
for bits in (2, 4, 8):
    s, z = compute_affine_params(x, bits)
    print(f"  {bits}-bit: scale {s:.6f} zero_point {z}")

print("\n== round trip stays within half a step ==")
x = rng.uniform(-1, 1, 8).astype(np.float32)
p = tensor_params(x, 4)
codes = quantize_uniform(x, p)
back = dequantize(codes, p)
s, _ = p.scalar()
print(f"  x     {np.round(x, 3)}")
print(f"  codes {codes}")
print(f"  back  {np.round(back, 3)}   max err {np.abs(x - back).max():.4f} <= s/2 = {s / 2:.4f}")

print("\n== percentile clipping shrinks the grid when outliers appear ==")
x = np.concatenate([rng.uniform(-1, 1, 1000), [40.0]])
s_minmax, _ = compute_affine_params(x, 8)
s_pctl, _ = compute_affine_params(x, 8, RangeEstimator("percentile", 0.999))
print(f"  minmax scale {s_minmax:.5f} vs percentile(0.999) scale {s_pctl:.5f}")

print("\n== per-channel weights beat one shared grid ==")
w = rng.standard_normal((4, 16)) * np.array([[0.05], [0.5], [2.0], [8.0]])
codes_c, pc = quantize_weights_per_channel(w, 4)
pt = tensor_params(w, 4)
mse_c = np.mean((w - dequantize(codes_c, pc)) ** 2)
mse_t = np.mean((w - dequantize(quantize_uniform(w, pt), pt)) ** 2)
print(f"  per-channel MSE {mse_c:.6f}  vs per-tensor MSE {mse_t:.6f}")
print(f"  per-channel scales: {np.round(pc.scales, 4)}")
