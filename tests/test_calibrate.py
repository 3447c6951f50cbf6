import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_intengine import _conv_graphs

from quantcomp import calibrate, intengine
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
from quantcomp.quant import RangeEstimator
from quantcomp.refnet import (
    LayerSpec,
    ModelBundle,
    TaskSpec,
    build_from_layers,
    build_mlp,
    bundles_equal,
    make_dataset,
    model_forward,
    train_synthetic,
)

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
        a2 = seq.manifest["compensation"]["layers"]["2"]["alpha"]
        b2 = fro.manifest["compensation"]["layers"]["2"]["alpha"]
        assert a2 != b2

    def test_overhead_is_two_scalars_per_channel(self, model_f, calib):
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4)
        comp = calibrate_model(model_f, cfg, calib)
        layers = comp.manifest["compensation"]["layers"]
        total = sum(len(e["alpha"]) + len(e["beta"]) for e in layers.values())
        assert total == 2 * (12 + 12 + 5)

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
    def test_fit_compensation_rejects_other_bits(self, model_f, calib):
        qbundle = quantize_model(model_f, calib[:64], 4, 4)
        for w, a in ((8, 4), (4, 8)):
            cfg = CalibrationConfig(sample_count=64, weight_bits=w, act_bits=a)
            with pytest.raises(CalibrationError, match="do not match the quantized bundle w4/a4"):
                fit_compensation(qbundle, cfg, calib[:64])

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


@st.composite
def _mlp_graphs(draw):
    """(layers, input shape, weight bits, activation bits, seed) of a small float MLP:
    1-3 linear layers, each maybe followed by relu or gelu; bits in 2..8."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    c = draw(st.integers(1, 6))
    shape, layers = (c,), []
    for _ in range(draw(st.integers(1, 3))):
        c_out = draw(st.integers(1, 6))
        weight = (rng.standard_normal((c_out, c)) * 0.7).astype(np.float32)
        bias = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
        layers.append(LayerSpec("linear", c, c_out, weight=weight, bias=bias))
        act = draw(st.sampled_from([None, "relu", "gelu"]))
        if act:
            layers.append(LayerSpec(act))
        c = c_out
    return layers, shape, draw(st.integers(2, 8)), draw(st.integers(2, 8)), seed


class TestCompensationNeverRaisesMse:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.one_of(_mlp_graphs(), _conv_graphs()), st.booleans())
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
        "kind", "layer_index", "op_kind", "weight_codes", "w_bits", "w_scales", "w_zero_points", "s_x", "z_x",
        "in_bits", "s_r", "z_r", "out_bits", "m0", "shift", "bias_acc", "const_acc", "alpha", "beta", "kernel",
        "stride", "pad",
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
