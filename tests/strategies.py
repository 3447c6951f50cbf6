"""Hypothesis strategies and reference loops that several test modules share."""

import numpy as np
from hypothesis import strategies as st

from quantcomp.refnet import LayerSpec


def im2col_loop(x, kernel, stride, pad, pad_value=0.0, channels_last=False):
    """Patch matrix by a loop over output positions: the reference of ``refnet.im2col``.

    An (N, C, H, W) input gives (C, k, k) columns, the order of a (C_out, C, k, k)
    weight's reshape; with ``channels_last`` an (N, H, W, C) input gives (k, k, C)
    columns, the order ``refnet.im2col`` writes.
    """
    x = np.moveaxis(x, 3, 1) if channels_last else x
    n, c, h, w = x.shape
    h_out = (h + 2 * pad - kernel) // stride + 1
    w_out = (w + 2 * pad - kernel) // stride + 1
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), pad_value, dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((n, h_out * w_out, c * kernel * kernel), dtype=x.dtype)
    idx = 0
    for i in range(h_out):
        for j in range(w_out):
            patch = xp[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            cols[:, idx, :] = (patch.transpose(0, 2, 3, 1) if channels_last else patch).reshape(n, c * kernel * kernel)
            idx += 1
    return cols, h_out, w_out


def _activation(draw, layers):
    act = draw(st.sampled_from([None, "relu", "gelu"]))
    if act:
        layers.append(LayerSpec(act))


def _mlp(draw, rng):
    """1-3 linear layers, each maybe followed by relu or gelu."""
    c = draw(st.integers(1, 6))
    shape, layers = (c,), []
    for _ in range(draw(st.integers(1, 3))):
        c_out = draw(st.integers(1, 6))
        weight = (rng.standard_normal((c_out, c)) * 0.7).astype(np.float32)
        bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
        layers.append(LayerSpec("linear", c, c_out, weight=weight, bias=bias))
        _activation(draw, layers)
        c = c_out
    return layers, shape


def _conv_net(draw, rng):
    """1-2 conv2d, each maybe followed by relu or gelu, maybe an avgpool, then nothing, a flatten, or flatten + linear."""
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.integers(3, 6))
    shape, layers = (c, h, w), []
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, min(3, h, w)))
        s, p, c_out = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
        weight = (rng.standard_normal((c_out, c, k, k)) * 0.5).astype(np.float32)
        bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
        layers.append(LayerSpec("conv2d", c, c_out, weight=weight, bias=bias, kernel=k, stride=s, pad=p))
        c, h, w = c_out, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        _activation(draw, layers)
    if draw(st.booleans()):
        k, s = draw(st.integers(1, min(2, h, w))), draw(st.integers(1, 2))
        layers.append(LayerSpec("avgpool", kernel=k, stride=s))
        h, w = (h - k) // s + 1, (w - k) // s + 1
    tail = draw(st.sampled_from(["none", "flatten", "linear"]))
    if tail != "none":
        layers.append(LayerSpec("flatten"))
    if tail == "linear":
        c_out = draw(st.integers(1, 4))
        weight = (rng.standard_normal((c_out, c * h * w)) * 0.3).astype(np.float32)
        layers.append(LayerSpec("linear", c * h * w, c_out, weight=weight, bias=np.zeros(c_out, np.float32)))
    return layers, shape


_NETS = {"mlp": _mlp, "conv": _conv_net}


@st.composite
def graphs(draw, nets=tuple(_NETS)):
    """(layers, input shape, weight bits, activation bits, seed) of a small float net; bits in 2..8.

    ``nets`` names the kinds of net to draw from: ``"mlp"`` (see ``_mlp``)
    and ``"conv"`` (see ``_conv_net``).  The seed draws the weights.
    """
    seed = draw(st.integers(0, 2**16))
    layers, shape = _NETS[draw(st.sampled_from(nets))](draw, np.random.default_rng(seed))
    return layers, shape, draw(st.integers(2, 8)), draw(st.integers(2, 8)), seed
