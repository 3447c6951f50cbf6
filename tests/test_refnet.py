import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from quantcomp.refnet import (
    BLOB_FILE,
    BundleError,
    LayerSpec,
    ModelBundle,
    RecordKey,
    ShapeError,
    TaskSpec,
    TrainError,
    build_from_layers,
    build_mlp,
    bundles_equal,
    gelu,
    gelu_grad,
    im2col,
    layer_forward,
    load_bundle,
    make_dataset,
    model_forward,
    save_bundle,
    train_synthetic,
    validate_bundle,
    weight_matrix,
)
from strategies import im2col_loop


def linear(w, b):
    w = np.asarray(w, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    return LayerSpec("linear", w.shape[1], w.shape[0], weight=w, bias=b)


class TestForward:
    def test_identity_linear(self):
        m = build_from_layers([linear([[1, 0], [0, 1]], [0, 0])], (2,))
        out = model_forward(m, np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[3.0, 4.0]])

    def test_hand_matvec(self):
        m = build_from_layers([linear([[1], [3]], [1, 1])], (1,))
        # weight [[1,2],[3,4]] with input [1,1]: [1*1+2*1+1, 3*1+4*1+1] = [4, 8]
        m2 = build_from_layers([linear([[1, 2], [3, 4]], [1, 1])], (2,))
        out = model_forward(m2, np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[4.0, 8.0]])

    def test_relu(self):
        out = layer_forward(LayerSpec("relu"), np.array([[-1.0, 2.0]], dtype=np.float32))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_gelu_at_zero(self):
        assert layer_forward(LayerSpec("gelu"), np.zeros((1, 3), dtype=np.float32))[0, 0] == 0.0

    def test_zero_weight_broadcasts_bias(self):
        m = build_from_layers([linear(np.zeros((3, 2)), [1.0, 2.0, 3.0])], (2,))
        out = model_forward(m, np.random.default_rng(0).standard_normal((5, 2)).astype(np.float32))
        assert np.allclose(out, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_identity_conv_1x1(self):
        layer = LayerSpec(
            "conv2d", 1, 1, weight=np.ones((1, 1, 1, 1), dtype=np.float32), bias=np.zeros(1, dtype=np.float32), kernel=1
        )
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        assert np.array_equal(layer_forward(layer, x), x)

    def test_shape_error_names_layer(self):
        m = build_from_layers([linear([[1.0, 0.0]], [0.0])], (2,))
        with pytest.raises(ShapeError, match="input shape"):
            model_forward(m, np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="layer 0"):
            layer_forward(m.layers[0], np.zeros((1, 3), dtype=np.float32), index=0)

    def test_forward_repeatable_bit_identical(self):
        m = build_mlp((4, 9, 3), rng=np.random.default_rng(7))
        x = np.random.default_rng(1).standard_normal((11, 4)).astype(np.float32)
        a = model_forward(m, x)
        b = model_forward(m, x)
        assert a.tobytes() == b.tobytes()


def conv2d_direct(x, w, b, stride, pad):
    """Sliding-window reference convolution, independent of im2col."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    hp = h + 2 * pad
    wp = wd + 2 * pad
    xp = np.zeros((n, cin, hp, wp), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[ni, co, i, j] = np.sum(patch * w[co]) + b[co]
    return out


def _nhwc_input(dtype, seed, layout):
    """(2, 7, 6, 3) NHWC values: a contiguous array, the NHWC view of NCHW data
    (what the float conv passes) or a strided slice of a taller array; or an
    empty batch, (0, 7, 6, 3)."""
    x = (np.random.default_rng(seed).random((2, 7, 6, 3)) * 250).astype(dtype)
    if layout == "empty":
        return x[:0]
    if layout == "nchw_view":
        return np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    if layout == "strided":
        tall = np.zeros((2, 14, 6, 3), dtype)
        tall[:, ::2] = x
        return tall[:, ::2]
    return x


class TestIm2col:
    @pytest.mark.parametrize("layout", ["contiguous", "nchw_view", "strided", "empty"])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.uint16])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    def test_byte_equal_to_position_loop(self, layout, dtype, stride, pad, kernel):
        pad_value = 7 if pad else 0  # a zero-point code, as the integer path pads with
        x = _nhwc_input(dtype, [kernel, stride, pad], layout)
        assert x.flags.c_contiguous == (layout in ("contiguous", "empty"))
        before = x.copy()
        got, h_out, w_out = im2col(x, kernel, stride, pad, pad_value=pad_value)
        want, h_want, w_want = im2col_loop(x, kernel, stride, pad, pad_value=pad_value, channels_last=True)
        assert (h_out, w_out) == (h_want, w_want)
        assert got.dtype == want.dtype and got.shape == want.shape
        # a fresh array even where the window view is contiguous already (kernel 1, stride 1, pad 0)
        assert got.flags.c_contiguous and got.flags.writeable and not np.shares_memory(got, x)
        assert got.tobytes() == want.tobytes() and x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_weight_matrix_follows_the_patch_columns(self, kernel):
        # integer values, so both products are exact whatever order they sum in
        rng = np.random.default_rng(kernel)
        x = rng.integers(0, 16, (2, 3, 5, 6)).astype(np.float32)
        w = rng.integers(-8, 8, (4, 3, kernel, kernel)).astype(np.float32)
        cols, _, _ = im2col(x.transpose(0, 2, 3, 1), kernel, 1, 1)
        nchw_cols, _, _ = im2col_loop(x, kernel, 1, 1)
        assert weight_matrix(w).shape == (4, kernel * kernel * 3)
        assert np.array_equal(cols @ weight_matrix(w).T, nchw_cols @ w.reshape(4, -1).T)
        # a linear weight is its own matrix
        assert np.array_equal(weight_matrix(w[:, :, 0, 0]), w[:, :, 0, 0])

    def test_no_output_position_is_shape_error(self):
        with pytest.raises(ShapeError, match="no output positions"):
            im2col(np.zeros((1, 2, 2, 3), np.uint8), 3, 1, 0)


class TestConvOracle:
    @pytest.mark.parametrize("kernel,stride,pad", [(3, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0), (1, 1, 0)])
    def test_im2col_matches_direct(self, kernel, stride, pad):
        rng = np.random.default_rng(kernel * 10 + stride + pad)
        cin, cout = 3, 5
        x = rng.standard_normal((2, cin, 6, 6)).astype(np.float32)
        w = rng.standard_normal((cout, cin, kernel, kernel)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        layer = LayerSpec("conv2d", cin, cout, weight=w, bias=b, kernel=kernel, stride=stride, pad=pad)
        got = layer_forward(layer, x)
        want = conv2d_direct(x, w, b, stride, pad)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_avgpool_matches_manual(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = layer_forward(LayerSpec("avgpool", kernel=2, stride=2), x)
        want = np.array([[[[2.5, 4.5], [10.5, 12.5]]]])
        assert np.allclose(out, want)

    def test_flatten(self):
        x = np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2)
        out = layer_forward(LayerSpec("flatten"), x)
        assert out.shape == (1, 12) and np.array_equal(out.ravel(), x.ravel())


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_defined(x):
    """gelu's defining expression, the cube as two multiplies."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * ((x * x) * x))))


def _gelu_grad_defined(x):
    t = np.tanh(_GELU_C * (x + 0.044715 * ((x * x) * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def _views(x):
    """``x`` and non-contiguous views of it: its transpose and a strided slice."""
    return x, x.T, x[::3, 1::2]


class TestGelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_its_definition_and_leaves_its_argument(self, dtype):
        x = (np.random.default_rng(3).standard_normal((40, 30)) * 3).astype(dtype)
        x[0, :4] = [0.0, -0.0, -30.0, 30.0]
        for view in _views(x):
            before = view.copy()
            y = gelu(view)
            assert y.dtype == np.float64 and y.shape == view.shape
            assert y.tobytes() == _gelu_defined(view).tobytes()
            assert view.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_takes_the_same_cube(self, dtype):
        x = (np.random.default_rng(4).standard_normal((40, 30)) * 3).astype(dtype)
        for view in _views(x):
            assert gelu_grad(view).tobytes() == _gelu_grad_defined(view).tobytes()
        x = x.astype(np.float64)
        h = 1e-6
        assert np.allclose(gelu_grad(x), (gelu(x + h) - gelu(x - h)) / (2 * h), rtol=0, atol=1e-7)

    def test_f32_accuracy_against_all_f64(self):
        # the cube and its sum are f32, the rest f64: on N(0, 9) the float reference's
        # f32 gelu is within 7.1e-8 of an all-f64 evaluation, relative to max(1, |y|)
        x = (np.random.default_rng(5).standard_normal(4_000_000) * 3).astype(np.float32)
        worst_f64 = worst_f32 = 0.0
        for chunk in np.split(x, 4):
            want = gelu(chunk.astype(np.float64))
            got = gelu(chunk)
            worst_f64 = max(worst_f64, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(got)))))
            got = layer_forward(LayerSpec("gelu"), chunk)
            assert got.dtype == np.float32
            worst_f32 = max(worst_f32, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(got)))))
        assert worst_f64 <= 4e-8 and worst_f32 <= 1.2e-7, (worst_f64, worst_f32)

    def test_scalar_input(self):
        assert float(gelu(np.float32(1.0))) == float(_gelu_defined(np.float32(1.0)))


def _avgpool_loop(x, kernel, stride):
    """Average pooling by a loop over output positions, in f64."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1))
    for i in range(out.shape[2]):
        for j in range(out.shape[3]):
            window = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            out[:, :, i, j] = window.astype(np.float64).mean(axis=(2, 3))
    return out


def _avgpool_im2col_mean(x, kernel, stride):
    """The float avgpool before it summed strided slices: (C, k, k) patches, then numpy's mean over each window."""
    cols, h_out, w_out = im2col_loop(x, kernel, stride, 0)
    n, c = x.shape[:2]
    pooled = cols.reshape(n, h_out * w_out, c, kernel * kernel).mean(axis=3)
    return np.moveaxis(pooled.reshape(n, h_out, w_out, c), 3, 1)


def _pool_inputs(seed):
    """An f32 NCHW batch, contiguous and as the NCHW view of NHWC data that conv2d returns;
    one window of each holds only -0.0 and one only +0.0."""
    x = np.random.default_rng(seed).standard_normal((2, 3, 7, 8)).astype(np.float32)
    x[0, 0, :3, :3], x[0, 1, :3, :3] = -0.0, 0.0
    return x, np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, 3)), 3, 1)


class TestFloatAvgpool:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_matches_the_f64_loop(self, kernel, stride):
        layer = LayerSpec("avgpool", kernel=kernel, stride=stride)
        for x in _pool_inputs([kernel, stride]):
            before = x.copy()
            got = layer_forward(layer, x)
            want = _avgpool_loop(x, kernel, stride)
            assert got.dtype == np.float32 and got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-6
            assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("kernel", [1, 2])
    def test_byte_equal_to_im2col_mean_below_eight_terms(self, kernel, stride):
        # numpy's mean sums fewer than 8 terms one after another, from +0.0, as the slices are summed
        layer = LayerSpec("avgpool", kernel=kernel, stride=stride)
        for x in _pool_inputs([kernel, stride, 1]):
            got = layer_forward(layer, x)
            assert got.tobytes() == _avgpool_im2col_mean(x, kernel, stride).tobytes()


class TestBundleIO:
    def test_roundtrip_identity(self, tmp_path):
        task = TaskSpec(classes=3, dim=3, train_n=400, test_n=100, hidden=(6,))
        m = train_synthetic(task, 1, epochs=100, min_accuracy=0.0)
        save_bundle(m, tmp_path / "m")
        loaded = load_bundle(tmp_path / "m")
        assert bundles_equal(m, loaded)

    def test_refuses_nonempty_dir(self, tmp_path):
        m = build_mlp((2, 2))
        save_bundle(m, tmp_path / "m")
        with pytest.raises(BundleError, match="force"):
            save_bundle(m, tmp_path / "m")
        save_bundle(m, tmp_path / "m", force=True)

    def test_force_over_larger_bundle_leaves_no_stale_blob(self, tmp_path):
        save_bundle(build_mlp((2, 5, 5, 3)), tmp_path / "m")
        small = build_mlp((2, 3))
        path = save_bundle(small, tmp_path / "m", force=True)
        files = {p.name for p in path.iterdir()}
        assert files == {"manifest.json", BLOB_FILE}
        assert (path / BLOB_FILE).stat().st_size == sum(b.nbytes for b in small.blobs.values())
        assert bundles_equal(load_bundle(path), small)
        assert [p.name for p in tmp_path.iterdir()] == ["m"]

    def test_force_replaces_only_a_bundle_directory(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep")
        with pytest.raises(BundleError, match="no bundle"):
            save_bundle(build_mlp((2, 3)), tmp_path, force=True)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_write_failing_midway_keeps_old_bundle(self, tmp_path, monkeypatch):
        import pathlib

        old = build_mlp((2, 3), rng=np.random.default_rng(1))
        path = save_bundle(old, tmp_path / "m")

        def crash(self, text):
            raise OSError("disk full")

        # every blob of the new bundle is written, then the manifest write fails
        monkeypatch.setattr(pathlib.Path, "write_text", crash)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(build_mlp((2, 3), rng=np.random.default_rng(2)), path, force=True)
        monkeypatch.undo()
        assert bundles_equal(load_bundle(path), old)
        assert [p.name for p in tmp_path.iterdir()] == ["m"]

    def test_corrupted_blob_length(self, tmp_path):
        m = build_mlp((2, 3))
        path = save_bundle(m, tmp_path / "m")
        blob = path / BLOB_FILE
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(BundleError, match=f"{BLOB_FILE} has a gap, overlap or end at byte"):
            load_bundle(path)

    def test_missing_blob(self, tmp_path):
        m = build_mlp((2, 3))
        path = save_bundle(m, tmp_path / "m")
        (path / BLOB_FILE).unlink()
        with pytest.raises(BundleError, match=f"no blob file {BLOB_FILE}"):
            load_bundle(path)

    def test_version_mismatch(self, tmp_path):
        m = build_mlp((2, 3))
        path = save_bundle(m, tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="format_version"):
            load_bundle(path)

    def test_unknown_tensor_kind_names_blob(self, tmp_path):
        m = build_mlp((2, 3))
        path = save_bundle(m, tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tensors"]["layer0.weight"]["kind"] = "q9"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="layer0.weight.*q9"):
            load_bundle(path)

    def test_dangling_manifest_reference(self):
        m = build_mlp((2, 3))
        bad = ModelBundle(json.loads(json.dumps(m.manifest)), dict(m.blobs))
        bad.manifest["tensors"]["ghost"] = {"shape": [1], "kind": "f32"}
        with pytest.raises(BundleError, match="ghost"):
            from quantcomp.refnet import validate_bundle

            validate_bundle(bad)


class TestTrainer:
    def test_blobs_accuracy_threshold(self):
        task = TaskSpec(classes=10, dim=8, train_n=2000, test_n=600, noise=0.4, hidden=(24,))
        m = train_synthetic(task, 0)
        assert m.manifest["metadata"]["held_out_accuracy"] >= 0.95

    def test_separable_two_class_perfect(self):
        # two far-apart blobs and a single linear layer: linearly separable
        task = TaskSpec(classes=2, dim=2, train_n=600, test_n=200, noise=0.05, center_spread=4.0, hidden=())
        m = train_synthetic(task, 3)
        assert m.manifest["metadata"]["held_out_accuracy"] == 1.0

    def test_determinism_byte_for_byte(self):
        task = TaskSpec(classes=4, dim=4, train_n=500, test_n=100, hidden=(8,))
        a = train_synthetic(task, 5, epochs=80, min_accuracy=0.0)
        b = train_synthetic(task, 5, epochs=80, min_accuracy=0.0)
        assert bundles_equal(a, b)

    def test_floor_error_carries_accuracy(self):
        task = TaskSpec(classes=10, dim=2, train_n=300, test_n=100, noise=4.0, center_spread=0.3, hidden=(4,))
        with pytest.raises(TrainError) as exc:
            train_synthetic(task, 0, epochs=30, min_accuracy=0.99)
        assert 0.0 <= exc.value.accuracy < 0.99

    def test_spirals_dataset_shapes(self):
        task = TaskSpec(kind="spirals", classes=2, dim=2, train_n=200, test_n=50, hidden=(8,))
        x_tr, y_tr, x_te, y_te = make_dataset(task, 0)
        assert x_tr.shape == (200, 2) and x_te.shape == (50, 2)
        assert set(np.unique(y_tr)) <= {0, 1}

    def test_gelu_tanh_reference(self):
        # tanh-form gelu at a few hand values
        x = np.array([1.0, -1.0, 2.0])
        got = gelu(x)
        assert np.allclose(got, [0.841192, -0.158808, 1.954597], atol=1e-5)


def _pool_net(kernel=2, stride=2, hw=4):
    rng = np.random.default_rng(0)
    conv = LayerSpec("conv2d", 1, 2, weight=rng.standard_normal((2, 1, 3, 3)).astype(np.float32), bias=np.zeros(2, np.float32), kernel=3, pad=1)
    return [conv, LayerSpec("avgpool", kernel=kernel, stride=stride), LayerSpec("flatten")], (1, hw, hw)


class TestLayerGeometry:
    @pytest.mark.parametrize("kernel,stride", [(0, 2), (2, 0), (-1, 1)])
    def test_avgpool_kernel_and_stride_at_least_one(self, kernel, stride):
        with pytest.raises(ShapeError, match="layer 1: avgpool kernel and stride"):
            LayerSpec("avgpool", kernel=kernel, stride=stride).validate(1)
        with pytest.raises(ShapeError, match="avgpool kernel and stride"):
            build_from_layers(*_pool_net(kernel, stride))

    @pytest.mark.parametrize("pad", [1, -1])
    def test_avgpool_does_not_pad(self, pad, tmp_path):
        layers, shape = _pool_net(hw=6)
        layers[1].pad = pad
        with pytest.raises(ShapeError, match=f"layer 1: avgpool does not pad, got pad {pad}"):
            build_from_layers(layers, shape)
        path = save_bundle(build_from_layers(*_pool_net(hw=6)), tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["layers"][1]["pad"] = pad
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match="layer 1: avgpool does not pad"):
            load_bundle(path)

    def test_avgpool_leaving_no_output(self):
        with pytest.raises(BundleError, match="layer 1: avgpool geometry leaves no output"):
            build_from_layers(*_pool_net(kernel=5, stride=1))

    def test_avgpool_needs_a_feature_map(self):
        layers = [linear(np.ones((2, 2)), [0, 0]), LayerSpec("avgpool", kernel=1, stride=1)]
        with pytest.raises(BundleError, match="layer 1: avgpool input does not chain from \\(2,\\)"):
            build_from_layers(layers, (2,))

    def test_avgpool_kernel_zero_rejected_at_load(self, tmp_path):
        path = save_bundle(build_from_layers(*_pool_net()), tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["layers"][1]["kernel"] = 0
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match="avgpool"):
            load_bundle(path)

    def test_transposed_weight_rejected_at_load(self, tmp_path):
        path = save_bundle(build_mlp((2, 3)), tmp_path / "m")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["tensors"]["layer0.weight"]["shape"] = [2, 3]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ShapeError, match="layer 0: linear weight shape"):
            load_bundle(path)


def _conv_pool_net(pad=1, stride=1):
    """conv -> relu -> avgpool -> flatten -> linear on a 2x6x6 input."""
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    conv = LayerSpec("conv2d", 2, 3, weight=w, bias=rng.standard_normal(3).astype(np.float32), kernel=3, stride=stride, pad=pad)
    head = linear(rng.standard_normal((4, 27)), rng.standard_normal(4))
    return [conv, LayerSpec("relu"), LayerSpec("avgpool", kernel=2, stride=2), LayerSpec("flatten"), head], (2, 6, 6)


def _saved_with(tmp_path, index, key, value):
    """The saved ``_conv_pool_net`` bundle with ``layers[index][key]`` set to ``value`` in its manifest."""
    path = save_bundle(build_from_layers(*_conv_pool_net()), tmp_path / "m")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["layers"][index][key] = value
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


class TestLayerRecords:
    @pytest.mark.parametrize(
        "index, key, value, want",
        [
            (0, "kernel", 2.5, "kernel must hold integers, got 2.5"),
            (0, "stride", "2", "stride must hold integers, got '2'"),
            (0, "pad", True, "pad must hold integers, got True"),
            (4, "in_channels", None, "in_channels must hold integers, got None"),
            (1, "op_kind", 3, "op_kind must be a string, got 3"),
        ],
    )
    def test_bad_value_fails_at_load_by_layer_and_key(self, tmp_path, index, key, value, want):
        # before, pad true loaded as pad 1, and the others failed without naming the key
        with pytest.raises(BundleError, match=re.escape(f"layer {index}: {want}")):
            load_bundle(_saved_with(tmp_path, index, key, value))

    def test_integral_float_kernel_loads_and_runs_as_an_integer(self, tmp_path):
        # before, kernel 3.0 loaded and model_forward raised a bare TypeError
        model = build_from_layers(*_conv_pool_net())
        loaded = load_bundle(_saved_with(tmp_path, 0, "kernel", 3.0))
        assert type(loaded.layers[0].kernel) is int and loaded.layers[0].kernel == 3
        x = np.random.default_rng(4).standard_normal((5, 2, 6, 6)).astype(np.float32)
        assert model_forward(loaded, x).tobytes() == model_forward(model, x).tobytes()

    @pytest.mark.parametrize(
        "edit, want", [({"pad": 1.5}, "pad must hold integers, got 1.5"), ({"stride": True}, "stride must hold integers, got True")]
    )
    def test_build_refuses_a_value_it_would_not_keep(self, edit, want):
        # before, pad 1.5 built and stride True built as stride 1
        with pytest.raises(ShapeError, match=re.escape(f"layer 0: {want}")):
            build_from_layers(*_conv_pool_net(**edit))

    def test_build_refuses_a_missing_bias(self):
        # before, a linear layer without a bias built and model_forward raised a bare TypeError
        with pytest.raises(ShapeError, match="layer 0: bias must be an array, got None"):
            build_from_layers([LayerSpec("linear", 2, 1, weight=np.ones((1, 2), np.float32))], (2,))

    def test_build_writes_the_entry_of_every_op_kind(self):
        layers, shape = _conv_pool_net()
        layers.insert(3, LayerSpec("gelu"))
        layers[0].kernel, layers[0].weight = np.int64(3), np.asfortranarray(layers[0].weight, np.float64)
        m = build_from_layers(layers, shape)
        channels = {"in_channels": 2, "out_channels": 3}
        want = [
            {"op_kind": "conv2d", **channels, "kernel": 3, "stride": 1, "pad": 1, "weight": "layer0.weight", "bias": "layer0.bias"},
            {"op_kind": "relu"},
            {"op_kind": "avgpool", "kernel": 2, "stride": 2, "pad": 0},
            {"op_kind": "gelu"},
            {"op_kind": "flatten"},
            {"op_kind": "linear", "in_channels": 27, "out_channels": 4, "weight": "layer5.weight", "bias": "layer5.bias"},
        ]
        assert json.dumps(m.manifest["layers"]) == json.dumps(want)  # key order, and 1 never written as true
        assert list(m.manifest["tensors"]) == [f"layer{i}.{k}" for i in (0, 5) for k in ("weight", "bias")]
        for name, entry in m.manifest["tensors"].items():
            assert m.blobs[name].dtype == np.float32 and m.blobs[name].flags.c_contiguous and entry["kind"] == "f32"
        assert np.array_equal(m.blobs["layer0.weight"], layers[0].weight)

    def test_layers_are_parsed_once(self):
        m = build_from_layers(*_conv_pool_net())
        assert m.layers is m.layers
        assert m.param_layer_indices() == [0, 4]


class TestRecordKeyScalars:
    KEYS = {dtype: RecordKey("v", "v", "scalar", dtype) for dtype in (int, float, bool, str)}

    @pytest.mark.parametrize(
        "dtype, value, want",
        [
            *[(int, np.int64(3), 3), (int, 3.0, 3), (float, np.float32(0.5), 0.5), (float, 2, 2.0)],
            *[(bool, np.bool_(True), True), (str, "relu", "relu")],
        ],
    )
    def test_writes_a_value_it_keeps(self, dtype, value, want):
        got = self.KEYS[dtype].write(0, SimpleNamespace(v=value), {})
        assert type(got) is dtype and got == want

    @pytest.mark.parametrize(
        "dtype, value",
        [(int, 1.5), (int, True), (int, np.bool_(False)), (int, "8"), (float, True), (float, "nan"), (float, np.inf), (bool, 1), (str, 3)],
    )
    def test_refuses_a_value_it_would_change_on_write_and_read(self, dtype, value):
        key = self.KEYS[dtype]
        with pytest.raises(ValueError, match=f"^v must .*, got {re.escape(repr(value))}$"):
            key.write(0, SimpleNamespace(v=value), {})
        with pytest.raises(ValueError, match=f"^layer 2: v must .*, got {re.escape(repr(value))}$"):
            key.read("layer 2:", {"v": value}, None)


class TestBundleOwner:
    def test_derive_adds_section_and_blobs_without_touching_source(self):
        m = build_mlp((2, 3))
        before = json.loads(json.dumps(m.manifest))
        extra = np.arange(3, dtype=np.int32)
        d = m.derive("quantization", {"k": "layer0.extra"}, {"layer0.extra": extra})
        assert m.manifest == before and "layer0.extra" not in m.blobs
        assert d.manifest["quantization"] == {"k": "layer0.extra"} and d.blobs["layer0.extra"] is extra
        assert d.manifest["tensors"]["layer0.extra"] == {"shape": [3], "kind": "i32"}
        assert d.manifest["layers"] is m.manifest["layers"]

    def test_derive_drops_later_sections_and_the_blobs_no_section_names(self):
        m = build_mlp((2, 3))
        blob = np.arange(3, dtype=np.int32)
        full = (
            m.derive("quantization", {"codes": "q.codes", "old": "q.old"}, {"q.codes": blob, "q.old": blob})
            .derive("compensation", {"layers": {"0": {"alpha": "c.alpha"}}}, {"c.alpha": blob})
            .derive("fusion", {"entries": [{"codes": "q.codes", "m0": "f.m0"}]}, {"f.m0": blob})
        )
        every = {"layer0.weight", "layer0.bias", "q.codes", "q.old", "c.alpha", "f.m0"}
        assert set(full.blobs) == set(full.manifest["tensors"]) == every
        again = full.derive("quantization", {"codes": "q.codes"}, {"q.codes": blob[:2]})
        assert "compensation" not in again.manifest and "fusion" not in again.manifest
        assert set(again.blobs) == set(again.manifest["tensors"]) == {"layer0.weight", "layer0.bias", "q.codes"}
        assert again.manifest["tensors"]["q.codes"] == {"shape": [2], "kind": "i32"}
        refit = full.derive("compensation", {"layers": {}}, {})
        assert "fusion" not in refit.manifest and set(refit.blobs) == {"layer0.weight", "layer0.bias", "q.codes", "q.old"}
        validate_bundle(again)
        validate_bundle(refit)
        assert set(full.blobs) == every  # the source bundle is left as it was

    def test_derive_takes_only_a_pipeline_section(self):
        with pytest.raises(ValueError):
            build_mlp((2, 3)).derive("extra", {}, {})

    def test_task_dataset_reads_the_trainer_metadata(self):
        from quantcomp.refnet import task_dataset

        task = TaskSpec(classes=3, dim=3, train_n=400, test_n=100, hidden=(6,))
        m = train_synthetic(task, 2, epochs=50, min_accuracy=0.0)
        for a, b in zip(task_dataset(m), make_dataset(task, 2)):
            assert np.array_equal(a, b)
        with pytest.raises(BundleError, match="no task"):
            task_dataset(build_mlp((2, 3)))


class TestMalformedManifest:
    @pytest.mark.parametrize("damage", ["truncated", "no_tensors", "layer_without_op"])
    def test_is_bundle_error(self, tmp_path, damage):
        path = save_bundle(build_mlp((2, 3)), tmp_path / "m")
        text = (path / "manifest.json").read_text()
        manifest = json.loads(text)
        if damage == "truncated":
            text = text[:50]
        elif damage == "no_tensors":
            del manifest["tensors"]
            text = json.dumps(manifest)
        else:
            del manifest["layers"][0]["op_kind"]
            text = json.dumps(manifest)
        (path / "manifest.json").write_text(text)
        with pytest.raises(BundleError, match="malformed bundle under"):
            load_bundle(path)
