"""Closed-form compensation fits.

The per-channel affine fit solves, independently for every output channel c,
``min_{a,d} sum_n (y_full[n,c] - (a * y_quant[n,c] + d))^2``; the optimum is
``a = Cov(y_full_c, y_quant_c) / Var(y_quant_c)`` and
``d = mean(y_full_c) - a * mean(y_quant_c)`` with population (1/N) moments.
The full-matrix fit regresses the residual ``y_full - y_quant`` on a block
input, the older whole-matrix style of compensation; it is kept only to
measure how much of its mass lies on the diagonal (``evalbench.figure1b_report``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative variance floor below which a channel is treated as constant
VARIANCE_FLOOR = 1e-12


@dataclass
class ActivationPair:
    """Calibration outputs of one layer: float path vs dequantized quant path.

    ``x_quant`` (the block input on the quant path) is only needed for the
    full-matrix baseline fit.
    """

    y_full: np.ndarray
    y_quant: np.ndarray
    x_quant: np.ndarray | None = None

    def __post_init__(self):
        self.y_full = np.asarray(self.y_full, dtype=np.float64)
        self.y_quant = np.asarray(self.y_quant, dtype=np.float64)
        if self.y_full.shape != self.y_quant.shape or self.y_full.ndim != 2:
            raise ValueError("y_full and y_quant must both be (N, C)")
        if self.y_full.shape[0] < 2:
            raise ValueError("need at least 2 calibration samples")
        if self.x_quant is not None:
            self.x_quant = np.asarray(self.x_quant, dtype=np.float64)
            if self.x_quant.ndim != 2 or self.x_quant.shape[0] != self.y_full.shape[0]:
                raise ValueError("x_quant row count must match y_full")
        if not (np.isfinite(self.y_full).all() and np.isfinite(self.y_quant).all()):
            raise ValueError("non-finite calibration values")

    @property
    def channels(self):
        return self.y_full.shape[1]


@dataclass
class ChannelAffineParams:
    """Per-output-channel gain alpha and offset beta, stored at f32 precision.

    ``fallback_mask`` marks channels where the variance floor fired;
    ``negative_clamped`` counts channels whose fitted gain was negative and
    was replaced by the mean-difference fallback (a saturating integer engine
    cannot fold a sign flip into its multiplier).
    """

    alpha: np.ndarray
    beta: np.ndarray
    fallback_mask: np.ndarray
    negative_clamped: int = 0

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float32)
        self.beta = np.asarray(self.beta, dtype=np.float32)
        self.fallback_mask = np.asarray(self.fallback_mask, dtype=bool)
        if not (len(self.alpha) == len(self.beta) == len(self.fallback_mask)):
            raise ValueError("alpha/beta/fallback_mask length mismatch")
        if not np.isfinite(self.alpha).all() or (self.alpha == 0).any():
            raise ValueError("alpha must be finite and nonzero")
        if not np.isfinite(self.beta).all():
            raise ValueError("beta must be finite")

    @property
    def channels(self):
        return len(self.alpha)


def identity_compensation(channels: int) -> ChannelAffineParams:
    return ChannelAffineParams(
        np.ones(channels, dtype=np.float32),
        np.zeros(channels, dtype=np.float32),
        np.zeros(channels, dtype=bool),
    )


def fit_channel_affine(pair: ActivationPair) -> ChannelAffineParams:
    """Closed-form per-channel least-squares fit of (alpha, beta).

    Channels whose optimal gain comes out negative fall back to alpha=1 with
    a mean-difference beta, so the result stays fusable into a saturating
    integer engine.
    """
    yq, yf = pair.y_quant, pair.y_full
    mean_q = yq.mean(axis=0)
    mean_f = yf.mean(axis=0)
    dq = yq - mean_q
    var_q = np.mean(dq * dq, axis=0)
    cov = np.mean(dq * (yf - mean_f), axis=0)
    floor = VARIANCE_FLOOR * (1.0 + mean_q**2)
    fallback = var_q < floor
    alpha = np.where(fallback, 1.0, cov / np.where(fallback, 1.0, var_q))
    neg = (alpha < 0) & ~fallback
    alpha = np.where(neg, 1.0, alpha)
    beta = np.where(fallback | neg, mean_f - mean_q, mean_f - alpha * mean_q)
    # the closed form can still yield an exactly-zero gain on freak inputs
    zero = alpha == 0
    if zero.any():
        alpha = np.where(zero, 1.0, alpha)
        beta = np.where(zero, mean_f - mean_q, beta)
        fallback = fallback | zero
    return ChannelAffineParams(alpha, beta, fallback, int(neg.sum()))


@dataclass
class FullMatrixParams:
    """Whole-matrix residual regression: residual ~ x @ W.T + b."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("bad full-matrix shapes")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite full-matrix parameters")


def fit_full_matrix(pair: ActivationPair, ridge: float | None = None) -> FullMatrixParams:
    """Least-squares (W, b) minimizing ||(y_full - y_quant) - (x W^T + b)||_F^2.

    ``ridge`` is the damping added to the normal equations; the default is
    1e-6 * trace(X^T X) / C_in.  Pass 0.0 for the undamped solve (raises
    LinAlgError on a rank-deficient design).
    """
    if pair.x_quant is None:
        raise ValueError("full-matrix fit needs x_quant in the pair")
    x = pair.x_quant
    r = pair.y_full - pair.y_quant
    xm = x.mean(axis=0)
    rm = r.mean(axis=0)
    xc = x - xm
    rc = r - rm
    gram = xc.T @ xc
    if ridge is None:
        ridge = 1e-6 * float(np.trace(gram)) / x.shape[1]
    a = gram + ridge * np.eye(x.shape[1])
    w = np.linalg.solve(a, xc.T @ rc).T
    b = rm - w @ xm
    return FullMatrixParams(w, b)


def diagonal_energy(w) -> float:
    """Fraction of a square matrix's absolute mass on the diagonal; 0.0 for a zero matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"diagonal_energy needs a square matrix, got {w.shape}")
    total = float(np.abs(w).sum())
    if total == 0.0:
        return 0.0
    return float(np.abs(np.diag(w)).sum() / total)


def channel_mse(y_ref, y) -> np.ndarray:
    """Per-channel mean squared error between two (N, C) arrays."""
    d = np.asarray(y_ref, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    d *= d  # in place: one (N, C) f64 array fewer at calibration's memory peak
    return np.mean(d, axis=0)
