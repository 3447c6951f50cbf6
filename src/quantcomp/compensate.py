"""Closed-form compensation fits.

The per-channel affine fit solves, independently for every output channel c,
``min_{a,d} sum_n (y_full[n,c] - (a * y_quant[n,c] + d))^2``; the optimum is
``a = Cov(y_full_c, y_quant_c) / Var(y_quant_c)`` and
``d = mean(y_full_c) - a * mean(y_quant_c)`` with population (1/N) moments.
The full-matrix fit regresses the residual ``y_full - y_quant`` on a block
input, the older whole-matrix style of compensation; it is kept only to
measure how much of its mass lies on the diagonal (``evalbench.figure1b_report``).

The channel-affine fit and ``channel_mse`` need only per-channel means, so
they run over row blocks sized from ``refnet.BLOCK_BYTES`` and hold no f64
copy of a whole capture (``_column_means``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import refnet

# relative variance floor below which a channel is treated as constant
VARIANCE_FLOOR = 1e-12


@dataclass
class ActivationPair:
    """Calibration outputs of one layer: float path vs dequantized quant path.

    Both captures are C-ordered; an f32 capture stays f32 and any other
    becomes f64.  Every fit computes in f64 (the cast from f32 is exact).
    ``x_quant`` (the block input on the quant path, f64) is only needed for
    the full-matrix baseline fit.
    """

    y_full: np.ndarray
    y_quant: np.ndarray
    x_quant: np.ndarray | None = None

    def __post_init__(self):
        self.y_full, self.y_quant = _capture(self.y_full), _capture(self.y_quant)
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


def _capture(y):
    """``y`` as a C-ordered array of its own f32, or of f64."""
    y = np.asarray(y)
    return np.ascontiguousarray(y, dtype=np.float32 if y.dtype == np.float32 else np.float64)


def _column_means(n, channels, *terms):
    """Per ``term``, the mean over all n rows of each column of ``term(rows)``: ``np.mean`` of the whole along axis 0, bitwise.

    ``term(rows)`` gives the f64 (len, C) values of a slice of rows.  numpy
    sums the rows of a C-ordered (N, C) array along axis 0 in order, so each
    block after the first is summed with the running sum as its leading row,
    and the total divided by n.  A block holds as many rows as fit
    ``refnet.BLOCK_BYTES`` of what it holds per row: each term's f64 row and
    that row's copy joined to the running sum; a term's own temporaries add
    to that, as the engine's do to its GEMM blocks.  A one-column array is
    summed whole: numpy adds a contiguous column pairwise, not row by row.
    """
    totals = None
    spans = refnet.blocks(n, 2 * 8 * channels * len(terms)) if channels > 1 else [slice(0, n)]
    for rows in spans:
        parts = [term(rows) for term in terms]
        if totals is not None:
            parts = [np.concatenate([total[None], part]) for total, part in zip(totals, parts)]
        totals = [np.add.reduce(part, axis=0) for part in parts]
    return [total / n for total in totals]


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
    n, c = yq.shape
    mean_q, mean_f = _column_means(n, c, lambda rows: yq[rows].astype(np.float64), lambda rows: yf[rows].astype(np.float64))

    def squared(rows):
        dq = yq[rows] - mean_q  # f64, as mean_q is
        dq *= dq
        return dq

    def crossed(rows):
        dq = yq[rows] - mean_q
        dq *= yf[rows] - mean_f
        return dq

    var_q, cov = _column_means(n, c, squared, crossed)
    floor = VARIANCE_FLOOR * (1.0 + mean_q**2)
    fallback = var_q < floor
    alpha = np.where(fallback, 1.0, cov / np.where(fallback, 1.0, var_q))
    neg = (alpha < 0) & ~fallback
    alpha = np.where(neg, 1.0, alpha)
    beta = np.where(fallback | neg, mean_f - mean_q, mean_f - alpha * mean_q)
    # the closed form can still yield a gain that is zero, or that the f32 params round to
    # zero, on freak inputs
    zero = alpha.astype(np.float32) == 0
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
    r = pair.y_full.astype(np.float64) - pair.y_quant
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


def channel_mse(y_ref, y, params: ChannelAffineParams | None = None) -> np.ndarray:
    """Per-channel mean squared error between two (N, C) arrays; with ``params``, between ``y_ref`` and ``y * alpha + beta``.

    The arrays keep their dtype; the arithmetic is f64 (``y * alpha + beta``
    too), over row blocks whose rows are reduced in order (``_column_means``),
    so the result is that of whole f64 arrays, bit for bit.
    """
    y_ref, y = np.asarray(y_ref), np.asarray(y)
    if params is not None:
        alpha, beta = params.alpha.astype(np.float64), params.beta.astype(np.float64)

    def squares(rows):
        # C-ordered f64 from the captures' own rows, then in place: one block of f64 a term
        if params is None:
            d = np.subtract(y_ref[rows], y[rows], dtype=np.float64, order="C")
        else:
            d = np.multiply(y[rows], alpha, order="C")
            d += beta
            np.subtract(y_ref[rows], d, out=d)
        d *= d
        return d

    return _column_means(len(y_ref), y_ref.shape[1], squares)[0]
