import numpy as np
import pytest

from quantcomp.compensate import (
    ActivationPair,
    ChannelAffineParams,
    channel_mse,
    diagonal_energy,
    fit_channel_affine,
    fit_full_matrix,
)


def make_pair(rng, n=256, c=16, gain_lo=0.5, gain_hi=2.0, noise=0.05):
    """Quantization-like pair: y_quant distorts y_full per channel plus noise."""
    y_full = rng.standard_normal((n, c)) * rng.uniform(0.5, 3.0, c) + rng.uniform(-2, 2, c)
    gain = rng.uniform(gain_lo, gain_hi, c)
    shift = rng.uniform(-1, 1, c)
    y_quant = (y_full - shift) / gain + rng.standard_normal((n, c)) * noise
    return ActivationPair(y_full, y_quant)


def compensated(pair, p):
    """alpha * y + beta per channel in f64, as calibration scores a fit."""
    return pair.y_quant * p.alpha.astype(np.float64) + p.beta.astype(np.float64)


class TestChannelAffineFit:
    def test_identity_pair(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((64, 5))
        p = fit_channel_affine(ActivationPair(y, y))
        assert np.array_equal(p.alpha, np.ones(5, dtype=np.float32))
        assert np.array_equal(p.beta, np.zeros(5, dtype=np.float32))
        assert not p.fallback_mask.any()

    def test_exact_affine_relation(self):
        rng = np.random.default_rng(1)
        yq = rng.standard_normal((100, 4))
        yf = 2.0 * yq - 1.0
        p = fit_channel_affine(ActivationPair(yf, yq))
        assert np.allclose(p.alpha, 2.0, atol=1e-6)
        assert np.allclose(p.beta, -1.0, atol=1e-6)

    def test_noisy_fit_against_polyfit_oracle(self):
        rng = np.random.default_rng(2)
        yq = rng.standard_normal((1000, 3))
        yf = 0.5 * yq + 3.0 + rng.standard_normal((1000, 3)) * 0.01
        p = fit_channel_affine(ActivationPair(yf, yq))
        assert np.all((0.49 <= p.alpha) & (p.alpha <= 0.51))
        assert np.all((2.9 <= p.beta) & (p.beta <= 3.1))
        for c in range(3):
            a_ref, b_ref = np.polyfit(yq[:, c], yf[:, c], 1)
            assert abs(p.alpha[c] - a_ref) <= 1e-5 * max(1.0, abs(a_ref))
            assert abs(p.beta[c] - b_ref) <= 1e-5 * max(1.0, abs(b_ref))

    def test_variance_fallback(self):
        yq = np.ones((50, 2))
        yq[:, 1] = np.linspace(0, 1, 50)
        yf = yq + 0.5
        p = fit_channel_affine(ActivationPair(yf, yq))
        assert p.fallback_mask[0] and not p.fallback_mask[1]
        assert p.alpha[0] == 1.0 and np.isclose(p.beta[0], 0.5)

    def test_negative_alpha_clamped_by_default(self):
        rng = np.random.default_rng(3)
        yq = rng.standard_normal((200, 2))
        yf = np.stack([-1.5 * yq[:, 0], 2.0 * yq[:, 1]], axis=1)
        p = fit_channel_affine(ActivationPair(yf, yq))
        assert p.negative_clamped == 1
        assert p.alpha[0] == 1.0 and np.isclose(p.alpha[1], 2.0, atol=1e-6)

    def test_requires_two_samples_and_finite(self):
        with pytest.raises(ValueError):
            ActivationPair(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            ActivationPair(np.full((4, 2), np.nan), np.zeros((4, 2)))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pair = make_pair(rng, n=128, c=6)
        perm = rng.permutation(128)
        p1 = fit_channel_affine(pair)
        p2 = fit_channel_affine(ActivationPair(pair.y_full[perm], pair.y_quant[perm]))
        assert np.allclose(p1.alpha, p2.alpha, atol=1e-6)
        assert np.allclose(p1.beta, p2.beta, atol=1e-6)

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(5)
        pair = make_pair(rng, n=256, c=4)
        base = fit_channel_affine(pair)
        k, t = 3.0, 7.0
        scaled = fit_channel_affine(ActivationPair(k * pair.y_full, pair.y_quant))
        assert np.allclose(scaled.alpha, k * base.alpha, rtol=1e-5)
        assert np.allclose(scaled.beta, k * base.beta, rtol=1e-5, atol=1e-4)
        shifted = fit_channel_affine(ActivationPair(pair.y_full + t, pair.y_quant))
        assert np.allclose(shifted.alpha, base.alpha, rtol=1e-6)
        assert np.allclose(shifted.beta, base.beta + t, rtol=1e-5)

    def test_perturbation_never_improves(self):
        rng = np.random.default_rng(6)
        pair = make_pair(rng, n=256, c=8)
        p = fit_channel_affine(pair)
        base = channel_mse(pair.y_full, compensated(pair, p))
        for eps in (1e-3, 1e-2, 1e-1):
            for which in ("alpha", "beta"):
                for sign in (+1, -1):
                    q = ChannelAffineParams(
                        p.alpha + (sign * eps if which == "alpha" else 0.0),
                        p.beta + (sign * eps if which == "beta" else 0.0),
                        p.fallback_mask,
                    )
                    mse = channel_mse(pair.y_full, compensated(pair, q))
                    assert np.all(mse >= base - 1e-12)

    def test_mse_never_worse_than_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pair = make_pair(rng, n=64, c=5, noise=rng.uniform(0.0, 1.0))
            fitted = channel_mse(pair.y_full, compensated(pair, fit_channel_affine(pair)))
            ident = channel_mse(pair.y_full, pair.y_quant)
            assert np.all(fitted <= ident + 1e-12)


class TestFullMatrix:
    def test_zero_target_gives_zero_params(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((100, 4))
        x = rng.standard_normal((100, 6))
        p = fit_full_matrix(ActivationPair(y, y, x_quant=x))
        assert np.allclose(p.w, 0.0, atol=1e-12)
        assert np.allclose(p.b, 0.0, atol=1e-12)

    def test_recovers_generating_matrix_undamped(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200, 5))
        w_true = rng.standard_normal((3, 5))
        b_true = rng.standard_normal(3)
        yq = rng.standard_normal((200, 3))
        yf = yq + x @ w_true.T + b_true
        p = fit_full_matrix(ActivationPair(yf, yq, x_quant=x), ridge=0.0)
        assert np.allclose(p.w, w_true, atol=1e-5)
        assert np.allclose(p.b, b_true, atol=1e-5)

    def test_compensation_reduces_mse(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((300, 8))
        yq = rng.standard_normal((300, 8))
        yf = yq + 0.3 * x @ rng.standard_normal((8, 8)).T + rng.standard_normal((300, 8)) * 0.1
        pair = ActivationPair(yf, yq, x_quant=x)
        p = fit_full_matrix(pair)
        before = np.mean((yf - yq) ** 2)
        after = np.mean((yf - (yq + x @ p.w.T + p.b)) ** 2)
        assert after <= before

    def test_missing_input_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="x_quant"):
            fit_full_matrix(make_pair(rng))


class TestDiagonalEnergy:
    def test_identity_matrix(self):
        assert diagonal_energy(np.eye(5)) == 1.0

    def test_uniform_matrix(self):
        n = 7
        assert np.isclose(diagonal_energy(np.ones((n, n))), 1.0 / n)

    def test_zero_matrix_convention(self):
        assert diagonal_energy(np.zeros((4, 4))) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            diagonal_energy(np.zeros((3, 4)))
