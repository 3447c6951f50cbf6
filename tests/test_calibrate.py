import copy
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcomp import calibrate, intengine, refnet
from quantcomp.calibrate import (
    CalibrationConfig,
    CalibrationError,
    calibrate_model,
    calibration_pool,
    compensation_params,
    compensation_positions,
    fit_compensation,
    fit_stats,
    float_forward_capture,
    fuse_model,
    quantize_model,
    sim_forward,
    write_fit_csv,
)
from quantcomp.compensate import ActivationPair, channel_mse, fit_channel_affine
from quantcomp.intengine import InferenceTrace, fused_runtime, run_int_model
from quantcomp.refnet import (
    LayerSpec,
    ModelBundle,
    TaskSpec,
    build_from_layers,
    build_mlp,
    bundles_equal,
    make_dataset,
    model_forward,
    save_bundle,
    train_synthetic,
)
from strategies import graphs

TASK = TaskSpec(classes=5, dim=6, train_n=1500, test_n=300, hidden=(12, 12))


@pytest.fixture(scope="module")
def model_f():
    return train_synthetic(TASK, 0, epochs=200, min_accuracy=0.0)


@pytest.fixture(scope="module")
def calib(model_f):
    return calibration_pool(model_f, CalibrationConfig(seed=0))


class TestCollectPairs:
    """Fit pairs: float targets and quantized captures, both read from one quantized bundle."""

    def test_pair_shapes(self, model_f, calib):
        q = quantize_model(model_f, calib[:64], 8, 8)
        _, y_full = float_forward_capture(q, calib[:64])
        _, y_quant, _ = sim_forward(q, calib[:64])
        assert list(y_full) == list(y_quant) == [0, 2, 4]
        assert y_full[0].shape == y_quant[0].shape == (64, 12)
        assert y_full[4].shape == y_quant[4].shape == (64, 5)

    def test_quantized_bundle_targets_are_the_float_models(self, model_f, calib):
        logits, y_full = float_forward_capture(model_f, calib[:64])
        q_logits, q_full = float_forward_capture(quantize_model(model_f, calib[:64], 4, 4), calib[:64])
        assert logits.tobytes() == q_logits.tobytes() and list(y_full) == list(q_full)
        assert all(y_full[i].tobytes() == q_full[i].tobytes() for i in y_full)

    def test_sequential_changes_downstream_capture(self, model_f, calib):
        q = quantize_model(model_f, calib[:128], 4, 4)
        _, y_full = float_forward_capture(q, calib[:128])
        _, frozen, _ = sim_forward(q, calib[:128])
        first = fit_channel_affine(ActivationPair(y_full[0], frozen[0]))
        _, seq, _ = sim_forward(q, calib[:128], {0: first})
        assert np.array_equal(frozen[0], seq[0])
        assert not np.array_equal(frozen[2], seq[2])

    def test_sim_rejects_input_of_the_wrong_shape(self, model_f, calib):
        q = quantize_model(model_f, calib[:64], 8, 8)
        with pytest.raises(CalibrationError, match="input shape"):
            sim_forward(q, np.zeros((4, 7), dtype=np.float32))


class TestCalibrateModel:
    def test_position_all_counts(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        assert sorted(int(k) for k in comp.manifest["compensation"]["layers"]) == [0, 2, 4]

    def test_position_post_single_entry(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, position="post")
        comp = calibrate_model(model_f, cfg, calib)
        assert sorted(int(k) for k in comp.manifest["compensation"]["layers"]) == [4]
        assert compensation_positions(model_f, "post") == [4]

    def test_mse_non_increasing_every_layer(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=256, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        for s in comp.manifest["compensation"]["stats"]:
            assert s["post_mse"] <= s["pre_mse"] + 1e-12

    def test_idempotence_on_unquantized_pairs(self, model_f, calib):
        _, y_full = float_forward_capture(model_f, calib[:64])
        for y in y_full.values():
            pair = ActivationPair(y, y)
            p = fit_channel_affine(pair)
            scale = np.abs(pair.y_full).mean()
            assert np.all(np.abs(p.alpha - 1.0) <= 1e-6)
            assert np.all(np.abs(p.beta) <= 1e-6 * max(scale, 1.0))

    def test_determinism_same_seed_same_bytes(self, model_f):
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4, seed=3)
        a = calibrate_model(model_f, cfg)
        b = calibrate_model(model_f, cfg)
        assert bundles_equal(a, b)

    def test_pool_too_small(self, model_f):
        cfg = CalibrationConfig(sample_count=64)
        with pytest.raises(CalibrationError, match="calibration samples"):
            calibrate_model(model_f, cfg, np.zeros((8, 6), dtype=np.float32))

    def test_range_split_uses_disjoint_slice(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, range_split=True)
        a = calibrate_model(model_f, cfg, calib)
        b = calibrate_model(model_f, CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4), calib)
        sa = a.manifest["quantization"]["input"]["scale"]
        sb = b.manifest["quantization"]["input"]["scale"]
        assert sa != sb  # different range samples move the estimate

    def test_frozen_variant_differs_from_sequential(self, model_f, calib):
        seq = calibrate_model(model_f, CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4), calib)
        fro = calibrate_model(
            model_f, CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, sequential=False), calib
        )
        assert not np.array_equal(compensation_params(seq)[2].alpha, compensation_params(fro)[2].alpha)

    def test_overhead_is_two_scalars_per_channel(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        total = sum(p.alpha.size + p.beta.size for p in compensation_params(comp).values())
        assert total == 2 * (12 + 12 + 5)

    @pytest.mark.parametrize("bits", [2, 8])
    def test_one_input_relu_mlp_calibrates(self, bits):
        # a one-input layer's constant weight channels used to quantize to +-2^-20-scale grids, so the
        # next multiplier fell below 2^-33 (2 bits) or a quantized bias overflowed i32 (8 bits)
        rng = np.random.default_rng(512)
        c, layers = 1, []
        for c_out in (4, 1, 2):
            weight = (rng.standard_normal((c_out, c)) * 0.7).astype(np.float32)
            bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
            layers += [LayerSpec("linear", c, c_out, weight=weight, bias=bias), LayerSpec("relu")]
            c = c_out
        model = build_from_layers(layers, (1,))
        x = np.random.default_rng([512, 3]).standard_normal((24, 1)).astype(np.float32)
        comp = calibrate_model(model, CalibrationConfig(sample_count=16, weight_bits=bits, act_bits=bits), x)
        engine = run_int_model(fused_runtime(fuse_model(comp, beta_rounding=False)), x)[0]
        assert engine.tobytes() == sim_forward(comp, x, compensation_params(comp))[0].tobytes()

    def test_fit_csv(self, model_f, calib, tmp_path):
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        n = write_fit_csv(comp, tmp_path / "fit.csv")
        text = (tmp_path / "fit.csv").read_text().strip().splitlines()
        assert n == 3 and len(text) == 4 and text[0].startswith("layer,")

    def test_compensation_improves_output_mse(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=256, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        x_te = make_dataset(TASK, 0)[2]
        ref = model_forward(model_f, x_te)
        plain, _, _ = sim_forward(comp, x_te)
        fixed, _, _ = sim_forward(comp, x_te, compensation_params(comp))
        assert np.mean((fixed - ref) ** 2) < np.mean((plain - ref) ** 2)


class TestFusion:
    def test_identity_fusion_matches_plain_sim_within_one_step(self, model_f, calib):
        q = quantize_model(model_f, calib[:128], 8, 8)
        fused = fuse_model(q)
        x = make_dataset(TASK, 0)[2][:100]
        sim_logits, _, _ = sim_forward(q, x)
        int_logits, trace = run_int_model(fused_runtime(fused), x, trace=InferenceTrace())
        s_out = q.manifest["quantization"]["layers"]["4"]["out_scale"]
        assert trace.float_mul_count == 0
        assert np.abs(sim_logits - int_logits).max() <= s_out + 1e-9

    def test_compensated_fusion_end_to_end(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=256, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        fused = fuse_model(comp)
        x = make_dataset(TASK, 0)[2][:200]
        rt = fused_runtime(fused)
        fx, trace = run_int_model(rt, x, trace=InferenceTrace())
        assert trace.float_mul_count == 0
        seen = []

        def tap(i, x_q, acc, layer):
            seen.append(i)
            # fixed-point (M0, shift) vs the real multiplier alpha S_x S_W / S_r: <= 1 step per layer
            m = layer.alpha.astype(np.float64) * intengine.accumulator_scale(layer.s_x, layer.s_w) / layer.s_r
            want = np.clip(layer.z_r + intengine.round_half_away(m[None, :] * acc), 0, 2**layer.bitwidth - 1)
            assert np.abs(intengine.requantize(acc, layer).astype(np.int64) - want).max() <= 1
            return layer

        tapped = intengine._interpret(rt, x, InferenceTrace(), tap=tap)
        assert seen == [0, 2, 4] and np.array_equal(tapped, fx)

    def test_unrounded_mode_uses_float_and_flags_trace(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, beta_rounding=False)
        comp = calibrate_model(model_f, cfg, calib)
        fused = fuse_model(comp, beta_rounding=False)
        x = make_dataset(TASK, 0)[2][:50]
        logits, trace = run_int_model(fused_runtime(fused), x, trace=InferenceTrace())
        assert trace.float_mul_count > 0
        assert np.isfinite(logits).all()

    def test_rounded_vs_unrounded_close(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=256, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        x = make_dataset(TASK, 0)[2][:200]
        r, _ = run_int_model(fused_runtime(fuse_model(comp, beta_rounding=True)), x)
        u, _ = run_int_model(fused_runtime(fuse_model(comp, beta_rounding=False)), x)
        s_out = comp.manifest["quantization"]["layers"]["4"]["out_scale"]
        assert np.abs(r - u).max() <= 3 * s_out  # offset rounding wiggles a code or two

    def test_fused_bundle_roundtrip(self, model_f, calib, tmp_path):
        from quantcomp.refnet import load_bundle, save_bundle

        cfg = CalibrationConfig(sample_count=64, weight_bits=8, act_bits=8)
        fused = fuse_model(calibrate_model(model_f, cfg, calib))
        save_bundle(fused, tmp_path / "fused")
        loaded = load_bundle(tmp_path / "fused")
        assert bundles_equal(fused, loaded)
        x = make_dataset(TASK, 0)[2][:20]
        a, _ = run_int_model(fused_runtime(fused), x)
        b, _ = run_int_model(fused_runtime(loaded), x)
        assert np.array_equal(a, b)

    def test_rejects_unquantized(self, model_f):
        with pytest.raises(CalibrationError):
            fuse_model(model_f)


class TestConvPipeline:
    def _conv_model(self):
        rng = np.random.default_rng(42)
        layers = [
            LayerSpec(
                "conv2d",
                1,
                4,
                weight=rng.standard_normal((4, 1, 3, 3)).astype(np.float32) * 0.5,
                bias=rng.standard_normal(4).astype(np.float32) * 0.1,
                kernel=3,
                stride=1,
                pad=1,
            ),
            LayerSpec("relu"),
            LayerSpec("avgpool", kernel=2, stride=2),
            LayerSpec("flatten"),
            LayerSpec(
                "linear",
                36,
                3,
                weight=rng.standard_normal((3, 36)).astype(np.float32) * 0.3,
                bias=rng.standard_normal(3).astype(np.float32) * 0.1,
            ),
        ]
        return build_from_layers(layers, (1, 6, 6))

    def test_conv_quant_fuse_differential(self):
        m = self._conv_model()
        rng = np.random.default_rng(1)
        calib = rng.uniform(-1, 1, (128, 1, 6, 6)).astype(np.float32)
        cfg = CalibrationConfig(sample_count=64, weight_bits=8, act_bits=8)
        comp = calibrate_model(m, cfg, calib)
        assert sorted(int(k) for k in comp.manifest["compensation"]["layers"]) == [0, 4]
        fused = fuse_model(comp)
        x = rng.uniform(-1, 1, (32, 1, 6, 6)).astype(np.float32)
        sim_logits, _, _ = sim_forward(comp, x, compensation_params(comp))
        int_logits, trace = run_int_model(fused_runtime(fused), x, trace=InferenceTrace())
        s_out = comp.manifest["quantization"]["layers"]["4"]["out_scale"]
        assert trace.float_mul_count == 0
        assert np.abs(sim_logits - int_logits).max() <= 2 * s_out

    def test_conv_float_vs_quant_reasonable(self):
        m = self._conv_model()
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (64, 1, 6, 6)).astype(np.float32)
        q = quantize_model(m, x, 8, 8)
        ref = model_forward(m, x)
        got, _, _ = sim_forward(q, x)
        assert np.abs(ref - got).max() < 0.2


class TestGeluPipeline:
    def test_gelu_network_end_to_end(self):
        task = TaskSpec(classes=4, dim=5, train_n=1200, test_n=200, hidden=(10,), activation="gelu")
        m = train_synthetic(task, 1, epochs=200, min_accuracy=0.0)
        pool = calibration_pool(m, CalibrationConfig(seed=1))
        cfg = CalibrationConfig(sample_count=128, weight_bits=8, act_bits=8)
        comp = calibrate_model(m, cfg, pool)
        fused = fuse_model(comp)
        x = make_dataset(task, 1)[2][:64]
        sim_logits, _, _ = sim_forward(comp, x, compensation_params(comp))
        int_logits, trace = run_int_model(fused_runtime(fused), x, trace=InferenceTrace())
        s_out = comp.manifest["quantization"]["layers"]["2"]["out_scale"]
        assert trace.float_mul_count == 0
        assert np.abs(sim_logits - int_logits).max() <= 2 * s_out


def _conv_gelu_model():
    rng = np.random.default_rng(7)

    def conv(cin, cout):
        w = (rng.standard_normal((cout, cin, 3, 3)) * 0.4).astype(np.float32)
        b = (rng.standard_normal(cout) * 0.1).astype(np.float32)
        return LayerSpec("conv2d", cin, cout, weight=w, bias=b, kernel=3, stride=1, pad=1)

    layers = [
        conv(2, 4),
        LayerSpec("relu"),
        conv(4, 4),
        LayerSpec("gelu"),
        LayerSpec("avgpool", kernel=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec(
            "linear",
            36,
            3,
            weight=(rng.standard_normal((3, 36)) * 0.3).astype(np.float32),
            bias=(rng.standard_normal(3) * 0.1).astype(np.float32),
        ),
    ]
    model = build_from_layers(layers, (2, 6, 6))
    return model, rng.uniform(-1, 1, (128, 2, 6, 6)).astype(np.float32)


def _reference_calibrate(model_f, config, calib_x):
    """The per-layer loop the one-pass fit replaced: one full sim_forward per
    compensated layer, with the layers before it compensated when sequential."""
    n = config.sample_count
    fit_x = calib_x[:n]
    range_x = calib_x[n : 2 * n] if config.range_split else fit_x
    q = quantize_model(model_f, range_x, config.weight_bits, config.act_bits, config.estimator)
    _, y_full = float_forward_capture(model_f, fit_x)
    comp, stats = {}, []
    for i in compensation_positions(model_f, config.position):
        _, caps, _ = sim_forward(q, fit_x, comp if config.sequential else None)
        pair = ActivationPair(y_full[i], caps[i])
        p = comp[i] = fit_channel_affine(pair)
        post = channel_mse(pair.y_full, pair.y_quant * p.alpha.astype(np.float64) + p.beta.astype(np.float64))
        stats.append(
            {
                "layer": i,
                "channels": p.channels,
                "pre_mse": float(channel_mse(pair.y_full, pair.y_quant).mean()),
                "post_mse": float(post.mean()),
                "fallback_count": int(p.fallback_mask.sum()),
                "negative_clamped": p.negative_clamped,
            }
        )
    return q, comp, stats


class TestOnePassFit:
    @pytest.mark.parametrize("range_split", [False, True])
    @pytest.mark.parametrize("sequential", [True, False])
    @pytest.mark.parametrize("position", ["all", "post"])
    @pytest.mark.parametrize("net", ["mlp-w4a4", "conv-gelu-w8a8"])
    def test_matches_per_layer_reference(self, model_f, calib, net, position, sequential, range_split):
        if net == "mlp-w4a4":
            model, pool, bits = model_f, calib, 4
        else:
            (model, pool), bits = _conv_gelu_model(), 8
        cfg = CalibrationConfig(
            sample_count=64,
            weight_bits=bits,
            act_bits=bits,
            position=position,
            sequential=sequential,
            range_split=range_split,
        )
        got = calibrate_model(model, cfg, pool)
        q, want, stats = _reference_calibrate(model, cfg, pool)
        assert got.manifest["quantization"] == q.manifest["quantization"]
        fitted = compensation_params(got)
        assert list(fitted) == list(want)
        for i, p in want.items():
            assert fitted[i].alpha.tobytes() == p.alpha.tobytes()
            assert fitted[i].beta.tobytes() == p.beta.tobytes()
            assert np.array_equal(fitted[i].fallback_mask, p.fallback_mask)
            assert fitted[i].negative_clamped == p.negative_clamped
        assert got.manifest["compensation"]["stats"] == stats

    @pytest.mark.parametrize("sequential", [True, False])
    @pytest.mark.parametrize("net", ["mlp-w4a4", "conv-gelu-w8a8"])
    def test_unrounded_engine_equals_simulation_bit_for_bit(self, model_f, calib, net, sequential):
        if net == "mlp-w4a4":
            model, pool, bits = model_f, calib, 4
            x = make_dataset(TASK, 0)[2]
        else:
            (model, pool), bits = _conv_gelu_model(), 8
            x = np.random.default_rng(9).uniform(-1, 1, (96, 2, 6, 6)).astype(np.float32)
        cfg = CalibrationConfig(sample_count=64, weight_bits=bits, act_bits=bits, sequential=sequential)
        comp = calibrate_model(model, cfg, pool)
        sim, _, _ = sim_forward(comp, x, compensation_params(comp))
        engine, _ = run_int_model(fused_runtime(fuse_model(comp, beta_rounding=False)), x)
        assert sim.dtype == engine.dtype and sim.tobytes() == engine.tobytes()

    @pytest.mark.parametrize("range_split", [False, True])
    def test_layer_work_is_done_once(self, monkeypatch, range_split):
        model = build_mlp((6,) + (8,) * 7 + (3,), rng=np.random.default_rng(3))
        params = model.param_layer_indices()
        assert len(params) == 8
        counts = {"build": 0, "accumulate": Counter(), "float": Counter()}
        build, accumulate, forward = calibrate.build_fused_model, intengine.integer_accumulate, calibrate.layer_forward

        def counted_build(*args, **kwargs):
            counts["build"] += 1
            return build(*args, **kwargs)

        def counted_accumulate(x_q, layer, *args, **kwargs):
            counts["accumulate"][id(layer.w_q)] += 1
            return accumulate(x_q, layer, *args, **kwargs)

        def counted_forward(layer, x, index=None):
            counts["float"][index] += 1
            return forward(layer, x, index=index)

        monkeypatch.setattr(calibrate, "build_fused_model", counted_build)
        monkeypatch.setattr(intengine, "integer_accumulate", counted_accumulate)
        monkeypatch.setattr(calibrate, "layer_forward", counted_forward)
        x = np.random.default_rng(4).standard_normal((128, 6)).astype(np.float32)
        calibrate_model(model, CalibrationConfig(sample_count=64, range_split=range_split), x)
        sets = 2 if range_split else 1  # one float forward per sample set
        assert counts["build"] == 1
        # one accumulate per param layer: eight distinct weight tensors, each run once
        assert sorted(counts["accumulate"].values()) == [1] * len(params)
        assert counts["float"] == Counter({i: sets for i in range(len(model.manifest["layers"]))})


class TestManifestCopies:
    @pytest.mark.parametrize("net", ["mlp-w4a4", "conv-gelu-w8a8"])
    def test_inputs_unchanged_and_outputs_equal_deep_copied_run(self, model_f, calib, net):
        if net == "mlp-w4a4":
            model, pool, bits = model_f, calib, 4
        else:
            (model, pool), bits = _conv_gelu_model(), 8
        cfg = CalibrationConfig(sample_count=64, weight_bits=bits, act_bits=bits, range_split=True)
        model_manifest = copy.deepcopy(model.manifest)
        comp = calibrate_model(model, cfg, pool)
        comp_manifest = copy.deepcopy(comp.manifest)
        fused = fuse_model(comp)
        assert model.manifest == model_manifest and "quantization" not in model.manifest
        assert comp.manifest == comp_manifest and "fusion" not in comp.manifest
        assert comp.manifest["tensors"] is not model.manifest["tensors"]
        assert fused.manifest["tensors"] is not comp.manifest["tensors"]

        def detached(bundle):
            return ModelBundle(copy.deepcopy(bundle.manifest), dict(bundle.blobs))

        assert bundles_equal(calibrate_model(detached(model), cfg, pool), comp)
        assert bundles_equal(fuse_model(detached(comp)), fused)


class TestTraceGemmCounter:
    def test_counts_every_accumulate_mac_and_no_float_multiply(self):
        model, pool = _conv_gelu_model()
        comp = calibrate_model(model, CalibrationConfig(sample_count=64, weight_bits=8, act_bits=8), pool)
        x = pool[:5]
        _, trace = run_int_model(fused_runtime(fuse_model(comp)), x, trace=InferenceTrace())
        # conv(2->4) and conv(4->4) over 6x6 positions, then linear 36 -> 3
        assert trace.gemm_macs == 5 * 36 * 4 * 2 * 9 + 5 * 36 * 4 * 4 * 9 + 5 * 3 * 36
        assert trace.float_mul_count == 0


class TestOwnerChecks:
    def test_fit_compensation_rejects_unquantized(self, model_f, calib):
        with pytest.raises(CalibrationError, match="no quantization section"):
            fit_compensation(model_f, CalibrationConfig(sample_count=64), calib[:64])

    def test_pool_size_rule(self, calib):
        from quantcomp.calibrate import calibration_sets

        pool = calib[:100]
        fit_x, range_x = calibration_sets(CalibrationConfig(sample_count=50, range_split=True), pool)
        assert fit_x is not range_x and np.array_equal(fit_x, pool[:50]) and np.array_equal(range_x, pool[50:100])
        fit_x, range_x = calibration_sets(CalibrationConfig(sample_count=100), pool)
        assert np.array_equal(fit_x, pool) and np.array_equal(range_x, pool)
        with pytest.raises(CalibrationError, match="need 101 calibration samples, pool has 100"):
            calibration_sets(CalibrationConfig(sample_count=101), pool)
        with pytest.raises(CalibrationError, match="at least 2 \\* sample_count = 102, pool has 100"):
            calibration_sets(CalibrationConfig(sample_count=51, range_split=True), pool)

    def test_calibrate_model_applies_pool_size_rule(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4, range_split=True)
        with pytest.raises(CalibrationError, match="2 \\* sample_count"):
            calibrate_model(model_f, cfg, calib[:127])
        calibrate_model(model_f, cfg, calib[:128])

    @pytest.fixture(scope="class")
    def gelu_qbundle(self):
        rng = np.random.default_rng(5)
        layers = [
            LayerSpec("linear", 4, 6, weight=rng.standard_normal((6, 4)).astype(np.float32), bias=np.zeros(6, np.float32)),
            LayerSpec("gelu"),
            LayerSpec("linear", 6, 3, weight=rng.standard_normal((3, 6)).astype(np.float32), bias=np.zeros(3, np.float32)),
        ]
        return quantize_model(build_from_layers(layers, (4,)), rng.standard_normal((32, 4)).astype(np.float32), 8, 8)

    @pytest.mark.parametrize(
        "path",
        [
            ("input", "zero_point"),
            ("layers", "0", "out_zero_point"),
            ("activations", "1", "zero_point"),
            ("layers", "2", "weight_zero_points"),
        ],
    )
    def test_fractional_zero_point_is_rejected(self, gelu_qbundle, path):
        # int() used to read 8.9 as 8 without a word
        from quantcomp.calibrate import build_fused_model

        manifest = copy.deepcopy(gelu_qbundle.manifest)
        holder = manifest["quantization"]
        for key in path[:-1]:
            holder = holder[key]
        z = holder[path[-1]]
        if isinstance(z, str):  # the name of a per-channel blob: a float blob fails, integral or not
            blob = gelu_qbundle.blobs[z].astype(np.float64)
            for bad in (blob, blob + 0.5):
                with pytest.raises(CalibrationError, match="zero_points must hold integers, got a float64 blob"):
                    build_fused_model(ModelBundle(manifest, {**gelu_qbundle.blobs, z: bad}))
            return
        for bad in (z + 0.5 if z < 255 else z - 0.5, True):  # JSON true used to read as 1
            holder[path[-1]] = bad
            with pytest.raises(CalibrationError, match=f"zero_point.* must hold integers, got {bad}"):
                build_fused_model(ModelBundle(manifest, gelu_qbundle.blobs))
        holder[path[-1]] = float(z)  # an integral float scalar still reads as its integer
        x = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)
        assert sim_forward(ModelBundle(manifest, gelu_qbundle.blobs), x)[0].tobytes() == sim_forward(gelu_qbundle, x)[0].tobytes()

    def test_stored_input_bitwidth_must_be_act_bits(self, gelu_qbundle):
        # build_fused_model used to build the input grid with act_bits and ignore the stored bitwidth
        manifest = copy.deepcopy(gelu_qbundle.manifest)
        manifest["quantization"]["input"]["bitwidth"] = 9
        with pytest.raises(CalibrationError, match="input grid: bitwidth 9 differs from act_bits 8"):
            calibrate.build_fused_model(ModelBundle(manifest, gelu_qbundle.blobs))

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_fuse_needs_a_bool_beta_rounding(self, model_f, calib, value):
        # bool("false") used to fuse the bundle as rounded
        comp = calibrate_model(model_f, CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4), calib)
        manifest = copy.deepcopy(comp.manifest)
        manifest["compensation"]["config"]["beta_rounding"] = value
        with pytest.raises(CalibrationError, match="beta_rounding must be true or false"):
            fuse_model(ModelBundle(manifest, comp.blobs))
        assert fuse_model(ModelBundle(manifest, comp.blobs), beta_rounding=False).manifest["fusion"]["beta_rounding"] is False


class TestCompensationNeverRaisesMse:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(graphs(), st.booleans())
    def test_post_mse_at_most_pre_mse(self, graph, sequential):
        # (1, 0) is among the closed-form fit's candidates, so no layer's fit can do worse than none
        layers, shape, w_bits, a_bits, seed = graph
        model_f = build_from_layers(layers, shape)
        x = np.random.default_rng([seed, 2]).standard_normal((32,) + shape).astype(np.float32)
        cfg = CalibrationConfig(sample_count=32, weight_bits=w_bits, act_bits=a_bits, sequential=sequential)
        stats = fit_stats(fit_compensation(quantize_model(model_f, x, w_bits, a_bits), cfg, x))
        assert [s["layer"] for s in stats] == model_f.param_layer_indices()
        for s in stats:
            assert s["post_mse"] <= s["pre_mse"] + 1e-12, s


# the record keys of each fused entry kind, as the ``fusion`` section stores them
FUSED_RECORD_KEYS = {
    "param": {
        "kind", "op_kind", "weight_codes", "w_bits", "w_scales", "w_zero_points", "s_x", "z_x", "in_bits", "s_r",
        "z_r", "out_bits", "m0", "shift", "bias_acc", "alpha", "beta", "kernel", "stride", "pad",
    },
    "relu": {"kind", "z"},
    "gelu": {"kind", "table"},
    "avgpool": {"kind", "kernel", "stride", "m0", "shift"},
    "flatten": {"kind"},
}


@pytest.fixture(scope="module")
def conv_gelu_comp():
    model, pool = _conv_gelu_model()
    return calibrate_model(model, CalibrationConfig(sample_count=64, weight_bits=8, act_bits=8), pool)


def _assert_same_fields(a, b, where):
    """Dataclasses ``a`` and ``b`` hold equal fields: arrays by dtype, shape and bytes, the rest by type and value."""
    import dataclasses

    assert type(a) is type(b), where
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        at = f"{where}.{f.name}"
        if dataclasses.is_dataclass(x):
            _assert_same_fields(x, y, at)
        elif isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape), at
            assert x.tobytes() == y.tobytes(), at
        else:
            assert (type(x), x) == (type(y), y), at


class TestFusedRecord:
    @pytest.mark.parametrize("beta_rounding", [True, False])
    def test_bundle_round_trip_rebuilds_the_model_field_for_field(self, conv_gelu_comp, beta_rounding):
        comp = conv_gelu_comp
        built = calibrate.build_fused_model(comp, compensation_params(comp), beta_rounding)
        read = fused_runtime(fuse_model(comp, beta_rounding=beta_rounding))
        assert [e.kind for e in built.entries] == ["param", "relu", "param", "gelu", "avgpool", "flatten", "param"]
        _assert_same_fields(built.input_params, read.input_params, "input_params")
        _assert_same_fields(built.output_params, read.output_params, "output_params")
        assert len(built.entries) == len(read.entries)
        for i, (b, r) in enumerate(zip(built.entries, read.entries)):
            _assert_same_fields(b, r, f"entries[{i}]")

    @pytest.mark.parametrize("beta_rounding", [True, False])
    def test_weight_scales_stay_f64_from_quantization_to_the_engine(self, conv_gelu_comp, beta_rounding):
        comp = conv_gelu_comp
        qlayers = comp.manifest["quantization"]["layers"]
        built = calibrate.build_fused_model(comp, compensation_params(comp), beta_rounding)
        read = fused_runtime(fuse_model(comp, beta_rounding=beta_rounding))
        for model in (built, read):
            params = {i: e.layer for i, e in enumerate(model.entries) if e.kind == "param"}
            assert sorted(params) == sorted(map(int, qlayers))
            for i, layer in params.items():
                stored = comp.tensor(qlayers[str(i)]["weight_scales"])
                assert stored.dtype == layer.s_w.dtype == np.float64
                assert layer.s_w.tobytes() == stored.tobytes(), f"layer {i}"

    def test_record_keys_of_every_kind(self, conv_gelu_comp):
        records = fuse_model(conv_gelu_comp).manifest["fusion"]["entries"]
        assert {r["kind"] for r in records} == set(FUSED_RECORD_KEYS)
        for r in records:
            assert set(r) == FUSED_RECORD_KEYS[r["kind"]], r["kind"]

    def test_dump_fused_prints_every_record_key(self, conv_gelu_comp, tmp_path, capsys):
        from quantcomp.cli import main
        from quantcomp.refnet import save_bundle

        fused = fuse_model(conv_gelu_comp)
        assert main(["dump-fused", str(save_bundle(fused, tmp_path / "fused"))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beta_rounding: True"
        assert lines[1].startswith("input: scale=") and lines[2].startswith("output: scale=")
        blocks = []
        for line in lines[3:]:
            if line.startswith("["):
                blocks.append((line, []))
            else:
                assert line.startswith("  ") and ": " in line, line
                blocks[-1][1].append(line.strip().split(": ", 1)[0])
        records = fused.manifest["fusion"]["entries"]
        assert len(blocks) == len(records)
        for i, ((header, keys), record) in enumerate(zip(blocks, records)):
            assert header == f"[{record.get('op_kind', record['kind'])}] layer {i}"
            assert keys == [k for k in record if k != "kind"]


def _record_tables():
    """(name, path to one record in a fused bundle's manifest, its keys, section reader) of every record table.

    ``path`` ends in the record itself; the reader runs on a corrupted bundle
    and returns what must stay as it was when nothing is raised: the logits
    the section's model gives on a fixed batch, or the stats rows.
    """
    from quantcomp.intengine import BETA_ROUNDING, FUSED_RECORDS
    from quantcomp.refnet import GRID_KEYS

    x = np.random.default_rng(3).uniform(-1, 1, (3, 2, 6, 6)).astype(np.float32)

    def quantization(b):
        return run_int_model(calibrate.build_fused_model(b), x)[0].tobytes()

    def compensation(b):
        return run_int_model(calibrate.build_fused_model(b, compensation_params(b)), x)[0].tobytes()

    def config(b):
        return run_int_model(fused_runtime(fuse_model(b)), x)[0].tobytes()

    def fusion(b):
        return run_int_model(fused_runtime(b), x)[0].tobytes()

    # conv -> relu -> conv -> gelu -> avgpool -> flatten -> linear: one record of every kind
    fused_entries = {"param": 0, "relu": 1, "gelu": 3, "avgpool": 4}
    return [
        ("quantization", ("quantization",), calibrate.QUANT_HEAD, quantization),
        ("quantization-input", ("quantization", "input"), GRID_KEYS, quantization),
        ("quantization-layer", ("quantization", "layers", "0"), calibrate.QUANT_LAYER, quantization),
        ("quantization-gelu", ("quantization", "activations", "3"), calibrate.GELU_GRID, quantization),
        ("compensation-layer", ("compensation", "layers", "2"), calibrate.COMP_LAYER, compensation),
        ("compensation-config", ("compensation", "config"), (calibrate.CONFIG_BETA_ROUNDING,), config),
        ("compensation-stats", ("compensation", "stats", 0), calibrate.FIT_STATS, fit_stats),
        ("fusion", ("fusion",), (BETA_ROUNDING,), fusion),
        ("fusion-input", ("fusion", "input"), GRID_KEYS, fusion),
        ("fusion-output", ("fusion", "output"), GRID_KEYS, fusion),
        *[(f"fusion-{kind}", ("fusion", "entries", i), FUSED_RECORDS[kind], fusion) for kind, i in fused_entries.items()],
    ]


_MISSING = object()


def _corruptions(key, value):
    """What a corrupted manifest may hold under ``key`` (a ``RecordKey``, or None for an undeclared key) instead of ``value``."""
    out = [_MISSING, "x", float("nan"), [value]]
    if key is not None and key.dtype is int:
        out.append(value + 0.5)
    if key is not None and key.dtype is bool:
        out += [0, "false"]
    return out


def _blob_corruptions(blob):
    """What a corrupted blob file may hold instead of ``blob``, the 1-D array of a ``channels`` key."""
    out = [blob[:-1], blob[None, :]]
    if blob.dtype.kind == "f":
        nan = blob.copy()
        nan[0] = np.nan
        out.append(nan)
    else:
        out.append(blob + 0.5)  # floats where the key holds integers or bools
    if blob.dtype == np.int32:
        out.append(blob.astype(np.int64))
    if blob.dtype == bool:
        out.append(blob.astype(np.uint8))
    return out


def _read_or_none(reader, bundle):
    """``reader(bundle)``, or None if it raises an error the CLI reports by name."""
    from quantcomp.cli import NAMED_ERRORS

    try:
        return reader(bundle)
    except NAMED_ERRORS:
        return None


@pytest.mark.parametrize(
    "name, path, key, reader",
    [pytest.param(*t[:2], k, t[3], id=f"{t[0]}:{k.key}") for t in _record_tables() for k in t[2]],
)
def test_every_corrupted_record_key_fails_by_name_or_changes_nothing(conv_gelu_comp, name, path, key, reader):
    # a corrupted value, or a corrupted blob that a channels key names, raises an error the CLI
    # reports by name; only a missing key that declares a default may load, and then it must change nothing
    fused = fuse_model(conv_gelu_comp)
    manifest = copy.deepcopy(fused.manifest)
    record = manifest
    for step in path:
        record = record[step]
    value = record[key.key]
    want = reader(ModelBundle(manifest, fused.blobs))
    for bad in _corruptions(key, value):
        if bad is _MISSING:
            del record[key.key]
        else:
            record[key.key] = bad
        got = _read_or_none(reader, ModelBundle(manifest, fused.blobs))
        assert got is None or (bad is _MISSING and key.default is not None and got == want), (name, key.key, bad)
        record[key.key] = value
    for bad in _blob_corruptions(fused.blobs[value]) if key.form == "channels" else ():
        assert _read_or_none(reader, ModelBundle(manifest, {**fused.blobs, value: bad})) is None, (name, key.key, bad)


# keys that no record table declares: the record containers, an entry's kind and the fusion grids
_UNDECLARED = [
    (("quantization",), "layers", "quantization"),
    (("compensation",), "layers", "compensation-layer"),
    (("fusion",), "entries", "fusion"),
    (("fusion", "entries", 0), "kind", "fusion"),
    (("fusion",), "input", "fusion"),
    (("fusion",), "output", "fusion"),
]


@pytest.mark.parametrize(
    "path, key, reader",
    [
        pytest.param(path, key, {t[0]: t[3] for t in _record_tables()}[table], id=f"{'.'.join(map(str, path))}:{key}")
        for path, key, table in _UNDECLARED
    ],
)
def test_every_corrupted_undeclared_key_fails_by_name_or_changes_nothing(conv_gelu_comp, path, key, reader):
    fused = fuse_model(conv_gelu_comp)
    manifest = copy.deepcopy(fused.manifest)
    record = manifest
    for step in path:
        record = record[step]
    value = record[key]
    want = reader(ModelBundle(manifest, fused.blobs))
    for bad in _corruptions(None, value):
        if bad is _MISSING:
            del record[key]
        else:
            record[key] = bad
        assert _read_or_none(reader, ModelBundle(manifest, fused.blobs)) in (None, want), (path, key, bad)
        record[key] = value


@pytest.mark.parametrize("damage", ["truncated", "trailing_byte", "overlapping_offset"])
def test_damaged_blob_file_fails_naming_it(conv_gelu_comp, tmp_path, damage):
    import json

    from quantcomp.refnet import BLOB_FILE, BundleError, load_bundle, save_bundle

    path = save_bundle(fuse_model(conv_gelu_comp), tmp_path / "fused")
    blob_file, manifest_file = path / BLOB_FILE, path / "manifest.json"
    if damage == "truncated":
        blob_file.write_bytes(blob_file.read_bytes()[:-1])
    elif damage == "trailing_byte":
        blob_file.write_bytes(blob_file.read_bytes() + b"\0")
    else:
        manifest = json.loads(manifest_file.read_text())
        max(manifest["tensors"].values(), key=lambda entry: entry["offset"])["offset"] -= 1
        manifest_file.write_text(json.dumps(manifest))
    with pytest.raises(BundleError, match=BLOB_FILE):
        load_bundle(path)


def _written(bundle):
    """{file name: bytes} of ``bundle`` as ``save_bundle`` writes it."""
    with tempfile.TemporaryDirectory() as d:
        path = save_bundle(bundle, Path(d) / "b")
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _calibration_run(model_f, config, calib):
    """What calibration computes of ``model_f``: the float capture, the calibrated bundle's bytes and its simulation."""
    x = calib[: config.sample_count]
    logits, outputs = float_forward_capture(model_f, x)
    comp = calibrate_model(model_f, config, calib)
    sim_logits, captures, _ = sim_forward(comp, x, compensation_params(comp))
    arrays = [logits, *outputs.values(), sim_logits, *captures.values()]
    return list(outputs), list(captures), [(a.dtype, a.shape, a.tobytes()) for a in arrays], _written(comp)


def _same_under_one_byte(model_f, config, calib):
    want = _calibration_run(model_f, config, calib)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refnet, "BLOCK_BYTES", 1)  # every block one sample, or one row
        got = _calibration_run(model_f, config, calib)
    assert got == want


class TestCalibrationBlocks:
    """Calibration runs its convs, its tapped simulation and its fit in blocks; no block size moves a bit."""

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(graphs())
    def test_one_byte_budget_gives_the_default_bits_on_graphs(self, graph):
        layers, shape, w_bits, a_bits, seed = graph
        calib = np.random.default_rng([seed, 17]).standard_normal((24,) + shape).astype(np.float32)
        config = CalibrationConfig(sample_count=16, weight_bits=w_bits, act_bits=a_bits)
        _same_under_one_byte(build_from_layers(layers, shape), config, calib)

    @pytest.mark.parametrize("net", ["conv_gelu", "conv_relu_pool"])
    def test_one_byte_budget_gives_the_default_bits_on_conv_nets(self, net):
        if net == "conv_gelu":
            model_f, calib = _conv_gelu_model()
        else:
            model_f = TestConvPipeline()._conv_model()
            calib = np.random.default_rng(1).uniform(-1, 1, (128, 1, 6, 6)).astype(np.float32)
        _same_under_one_byte(model_f, CalibrationConfig(sample_count=64), calib)

    def test_blocked_conv_names_the_layer_and_the_whole_batch_on_bad_channels(self, monkeypatch):
        model_f = TestConvPipeline()._conv_model()
        x = np.zeros((8, 2, 6, 6), np.float32)  # two channels into a one-channel conv
        monkeypatch.setattr(refnet, "BLOCK_BYTES", 1)
        with pytest.raises(refnet.ShapeError, match=r"layer 0: conv2d expects \(N, 1, H, W\), got \(8, 2, 6, 6\)"):
            float_forward_capture(model_f, x)

    def test_traced_peak_is_the_captures_and_a_few_blocks(self, monkeypatch):
        # 256 samples of 8x12x12 outputs per conv: a budget of 64 KiB cuts the second conv's
        # 10.6 MB f32 patch matrix into 160 blocks.  Calibration must hold the two f32
        # captures, and at one layer at a time its whole i64 accumulators with their f32
        # capture, or the float gelu's f64 output with an f32 temporary: 4 such arrays.
        rng = np.random.default_rng(5)
        c, hw, n = 8, 12, 256

        def conv(c_in):
            weight = (rng.standard_normal((c, c_in, 3, 3)) * 0.3).astype(np.float32)
            return LayerSpec("conv2d", c_in, c, weight=weight, bias=np.zeros(c, np.float32), kernel=3, pad=1)

        flat = c * (hw // 2) ** 2
        head = LayerSpec("linear", flat, 4, weight=(rng.standard_normal((4, flat)) * 0.1).astype(np.float32), bias=np.zeros(4, np.float32))
        layers = [conv(3), LayerSpec("relu"), conv(c), LayerSpec("gelu"), LayerSpec("avgpool", kernel=2, stride=2), LayerSpec("flatten"), head]
        model_f = build_from_layers(layers, (3, hw, hw))
        calib = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
        config = CalibrationConfig(sample_count=n)
        budget = 64 * 2**10
        monkeypatch.setattr(refnet, "BLOCK_BYTES", budget)
        calibrate_model(model_f, config, calib)  # every lazily built cache, before tracing
        layer_bytes = n * hw * hw * c * 4
        bound = 2 * layer_bytes + 4 * layer_bytes + 8 * budget
        tracemalloc.start()
        try:
            calibrate_model(model_f, config, calib)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"traced peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
