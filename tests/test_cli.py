import json
import os

import numpy as np
import pytest

from quantcomp.cli import main
from quantcomp.refnet import load_bundle


def run(*argv):
    return main([str(a) for a in argv])


TRAIN_ARGS = [
    "train",
    "--task",
    "blobs",
    "--classes",
    "4",
    "--dim",
    "5",
    "--train-n",
    "1200",
    "--test-n",
    "200",
    "--hidden",
    "10,10",
    "--epochs",
    "200",
    "--min-accuracy",
    "0.0",
    "--seed",
    "1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert run(*TRAIN_ARGS, "--out", root / "float") == 0
    assert (
        run(
            "quantize",
            root / "float",
            "--weight-bits",
            "4",
            "--act-bits",
            "4",
            "--sample-count",
            "128",
            "--out",
            root / "quant",
        )
        == 0
    )
    assert (
        run(
            "compensate",
            root / "quant",
            "--sample-count",
            "128",
            "--out",
            root / "comp",
        )
        == 0
    )
    assert run("fuse", root / "comp", "--out", root / "fused") == 0
    return root


class TestTrain:
    def test_metadata_records_accuracy(self, workspace):
        b = load_bundle(workspace / "float")
        assert 0.0 <= b.manifest["metadata"]["held_out_accuracy"] <= 1.0

    def test_deterministic_for_fixed_seed(self, tmp_path, workspace):
        assert run(*TRAIN_ARGS, "--out", tmp_path / "again") == 0
        a = (workspace / "float" / "manifest.json").read_text()
        b = (tmp_path / "again" / "manifest.json").read_text()
        assert a == b
        for blob in (workspace / "float").glob("*.bin"):
            assert blob.read_bytes() == (tmp_path / "again" / blob.name).read_bytes()

    def test_refuses_existing_out_without_force(self, workspace, capsys):
        assert run(*TRAIN_ARGS, "--out", workspace / "float") == 2
        assert "force" in capsys.readouterr().err

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUANTCOMP_OUT", str(tmp_path))
        assert run(*TRAIN_ARGS, "--out", "envout") == 0
        assert (tmp_path / "envout" / "manifest.json").is_file()


class TestQuantize:
    def test_rejects_32_bit_passthrough(self, workspace, capsys):
        code = run("quantize", workspace / "float", "--weight-bits", "32", "--out", workspace / "nope")
        assert code == 2
        assert "passthrough" in capsys.readouterr().err

    def test_manifest_carries_quant_params(self, workspace):
        b = load_bundle(workspace / "quant")
        q = b.manifest["quantization"]
        assert q["weight_bits"] == 4 and q["act_bits"] == 4
        assert all("weight_scales" in e for e in q["layers"].values())

    def test_missing_bundle_is_validation_error(self, tmp_path):
        assert run("quantize", tmp_path / "ghost", "--out", tmp_path / "o") == 2


class TestCompensate:
    def test_flags_roundtrip_into_metadata(self, workspace):
        b = load_bundle(workspace / "comp")
        cfg = b.manifest["compensation"]["config"]
        assert cfg == {"sample_count": 128, "seed": 0, "position": "all", "sequential": True, "beta_rounding": True}

    def test_fit_csv_non_empty(self, workspace):
        lines = (workspace / "comp" / "fit_stats.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 linear layers

    def test_rerun_bit_identical(self, workspace, tmp_path):
        assert (
            run(
                "compensate",
                workspace / "quant",
                "--sample-count",
                "128",
                "--out",
                tmp_path / "again",
            )
            == 0
        )
        a = (workspace / "comp" / "manifest.json").read_text()
        assert a == (tmp_path / "again" / "manifest.json").read_text()


SAMPLES = ("--sample-count", "128")
W4A4 = ("--weight-bits", "4", "--act-bits", "4", *SAMPLES)


class TestRerunStage:
    """A stage re-run on a bundle that went further drops what the later stages built from it."""

    @pytest.mark.parametrize("src", ["comp", "fused"])
    def test_compensate_again_keeps_no_stale_fusion_or_blob(self, workspace, tmp_path, capsys, src):
        from quantcomp.refnet import bundles_equal

        assert run("compensate", workspace / "quant", *SAMPLES, "--position", "post", "--out", tmp_path / "fresh") == 0
        assert run("compensate", workspace / src, *SAMPLES, "--position", "post", "--out", tmp_path / "again") == 0
        again = load_bundle(tmp_path / "again")
        assert again.stage == "quantized" and list(again.manifest["compensation"]["layers"]) == ["4"]
        assert not any(name.startswith(("layer0.", "layer2.")) and "alpha" in name for name in again.blobs)
        assert bundles_equal(again, load_bundle(tmp_path / "fresh"))
        capsys.readouterr()
        assert run("eval", tmp_path / "again") == 0
        out = capsys.readouterr().out
        assert "acc_comp" in out and "acc_fused" not in out

    @pytest.mark.parametrize("src", ["comp", "fused"])
    def test_quantize_again_drops_compensation_and_fusion(self, workspace, tmp_path, src):
        from quantcomp.refnet import bundles_equal

        assert run("quantize", workspace / src, *W4A4, "--out", tmp_path / "again") == 0
        again = load_bundle(tmp_path / "again")
        assert again.stage == "quantized" and "compensation" not in again.manifest
        assert bundles_equal(again, load_bundle(workspace / "quant"))


class TestFuseEvalDump:
    def test_fused_has_integer_blobs_and_multipliers(self, workspace):
        b = load_bundle(workspace / "fused")
        entries = [e for e in b.manifest["fusion"]["entries"] if e["kind"] == "param"]
        assert entries and all("m0" in e and "shift" in e for e in entries)
        assert all(b.tensor(e["bias_acc"]).dtype == np.dtype("<i4") for e in entries)

    def test_eval_float_reproduces_trainer_accuracy(self, workspace, capsys):
        assert run("eval", workspace / "float") == 0
        out = capsys.readouterr().out
        b = load_bundle(workspace / "float")
        want = b.manifest["metadata"]["held_out_accuracy"]
        line = [l for l in out.splitlines() if l.startswith("acc_float")][0]
        assert abs(float(line.split()[-1]) - want) < 1e-12

    def test_eval_prints_gemm_macs_next_to_float_count(self, workspace, capsys):
        assert run("eval", workspace / "fused", "--check") == 0
        lines = capsys.readouterr().out.splitlines()
        keys = [l.split(":")[0] for l in lines]
        at = keys.index("gemm_macs")
        assert keys[at - 1] == "float_mul_count" and lines[at - 1].split()[-1] == "0"
        assert int(lines[at].split()[-1]) > 0

    def test_eval_check_passes_on_good_bundles(self, workspace, capsys):
        for name in ("comp", "fused"):
            assert run("eval", workspace / name, "--check") == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_eval_check_fails_on_corrupted_stats(self, workspace, tmp_path, capsys):
        import shutil

        shutil.copytree(workspace / "comp", tmp_path / "bad")
        mf = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        mf["compensation"]["stats"][0]["post_mse"] = 1e9
        (tmp_path / "bad" / "manifest.json").write_text(json.dumps(mf))
        assert run("eval", tmp_path / "bad", "--check") == 3
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_dump_fused_text(self, workspace, capsys):
        assert run("dump-fused", workspace / "fused") == 0
        out = capsys.readouterr().out
        assert "m0:" in out and "bias_acc:" in out and "[linear] layer" in out

    def test_dump_fused_rejects_unfused(self, workspace):
        assert run("dump-fused", workspace / "quant") == 2

    def test_fuse_no_beta_rounding_flag(self, workspace, tmp_path, capsys):
        assert run("fuse", workspace / "comp", "--no-beta-rounding", "--out", tmp_path / "ref") == 0
        b = load_bundle(tmp_path / "ref")
        assert b.manifest["fusion"]["beta_rounding"] is False


class TestAblate:
    def test_ablate_emits_one_csv_per_axis(self, tmp_path):
        root = tmp_path
        assert run(*TRAIN_ARGS, "--out", root / "f") == 0
        code = run(
            "ablate",
            "--task",
            "blobs",
            "--classes",
            "4",
            "--dim",
            "5",
            "--train-n",
            "1200",
            "--test-n",
            "200",
            "--hidden",
            "10,10",
            "--axis",
            "all",
            "--sizes",
            "32,64",
            "--seeds",
            "2",
            "--sample-count",
            "64",
            "--weight-bits",
            "4",
            "--act-bits",
            "4",
            "--out-dir",
            root / "reports",
        )
        assert code == 0
        names = sorted(p.name for p in (root / "reports").glob("*.csv"))
        assert names == ["ablate_beta.csv", "ablate_position.csv", "ablate_size.csv"]
        header = (root / "reports" / "ablate_size.csv").read_text().splitlines()[0]
        assert header.startswith("config_id,seed,")

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 2


def run_subprocess(*argv):
    """The CLI as a user runs it: its own process, so an uncaught error shows as a traceback."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "quantcomp.cli", *map(str, argv)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def edit_manifest(src, dst, edit):
    import shutil

    shutil.copytree(src, dst)
    mf = json.loads((dst / "manifest.json").read_text())
    edit(mf)
    (dst / "manifest.json").write_text(json.dumps(mf))
    return dst


def edit_blob(src, dst, *path, edit):
    """A copy of bundle ``src`` at ``dst`` in which the blob that the manifest names at ``path`` is ``edit(blob)``."""
    from quantcomp.refnet import save_bundle

    b = load_bundle(src)
    name = b.manifest
    for key in path:
        name = name[key]
    return save_bundle(b.derive(path[0], b.manifest[path[0]], {name: edit(b.blobs[name])}), dst)


def _drop_first_m0(mf):
    del next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["m0"]


def _dense_first_param(mf):
    next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["op_kind"] = "dense"


def _narrow_first_in_bits(mf):
    next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["in_bits"] = 2


def _bias_at_i32_max(bias):
    bias = bias.copy()
    bias[0] = 2**31 - 1
    return bias


def _f32_weight_codes(src, dst):
    from quantcomp.refnet import ModelBundle, save_bundle

    b = load_bundle(src)
    manifest = json.loads(json.dumps(b.manifest))
    manifest["tensors"]["layer0.wq"]["kind"] = "f32"
    blobs = dict(b.blobs, **{"layer0.wq": b.blobs["layer0.wq"].astype(np.float32)})
    return save_bundle(ModelBundle(manifest, blobs), dst)


def _transpose_first_weight(mf):
    mf["tensors"]["layer0.weight"]["shape"].reverse()


def _avgpool_kernel_zero(mf):
    mf["layers"][1]["kernel"] = 0


def _avgpool_pad_one(mf):
    mf["layers"][1]["pad"] = 1


def _avgpool_bundle(path):
    from quantcomp.refnet import LayerSpec, build_from_layers, save_bundle

    rng = np.random.default_rng(0)
    layers = [
        LayerSpec("conv2d", 1, 2, weight=rng.standard_normal((2, 1, 3, 3)).astype(np.float32), bias=np.zeros(2, np.float32), kernel=3, pad=1),
        LayerSpec("avgpool", kernel=2, stride=2),
        LayerSpec("flatten"),
        LayerSpec("linear", 8, 3, weight=rng.standard_normal((3, 8)).astype(np.float32), bias=np.zeros(3, np.float32)),
    ]
    return save_bundle(build_from_layers(layers, (1, 4, 4)), path)


# edits of the trained bundle's metadata (a path under ``metadata``, and the value there or None to
# delete it), each of which ``eval`` and ``quantize`` used to end in a bare traceback
METADATA_EDITS = {
    "hidden_5": (("task", "hidden"), 5),
    "classes_ten": (("task", "classes"), "ten"),
    "no_seed": (("seed",), None),
    "extra_colour": (("task", "colour"), "red"),
    "kind_moons": (("task", "kind"), "moons"),
    "seed_half": (("seed",), 0.5),
    "train_n_fractional": (("task", "train_n"), 300.7),
}


class TestNamedErrors:
    """Every named error of the package ends as one ``error:`` line and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "case",
        [
            "weight_bits_1",
            "percentile_0.3",
            "fused_without_m0",
            "fused_short_m0",
            "fused_f32_weight_codes",
            "fused_unknown_op_kind",
            "fused_in_bits_2",
            "fused_unprovable_eval",
            "fused_unprovable_dump",
            "avgpool_kernel_0",
            "avgpool_pad_1",
            "transposed_weight",
            "truncated_manifest",
            *[f"metadata_{edit}_{command}" for edit in METADATA_EDITS for command in ("eval", "quantize")],
        ],
    )
    def test_exits_two_without_traceback(self, workspace, tmp_path, case):
        if case == "weight_bits_1":
            argv, want = ["quantize", workspace / "float", "--weight-bits", "1", "--out", tmp_path / "o"], "bitwidths"
        elif case == "percentile_0.3":
            argv = ["quantize", workspace / "float", "--percentile", "0.3", "--out", tmp_path / "o"]
            want = "percentile"
        elif case == "fused_without_m0":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _drop_first_m0)], "m0"
        elif case == "fused_short_m0":
            bad = edit_blob(workspace / "fused", tmp_path / "b", "fusion", "entries", 0, "m0", edit=lambda m0: m0[:2])
            argv, want = ["eval", bad], "m0 has shape (2,)"
        elif case == "fused_f32_weight_codes":
            argv, want = ["eval", _f32_weight_codes(workspace / "fused", tmp_path / "b")], "weight codes are float32"
        elif case == "fused_unknown_op_kind":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _dense_first_param)], "op_kind"
        elif case == "fused_in_bits_2":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _narrow_first_in_bits)], "layer 0: in_bits"
        elif case.startswith("fused_unprovable"):
            # a bias at the i32 edge: the i32 proof fails when the bundle is loaded, before any input is read
            bad = edit_blob(workspace / "fused", tmp_path / "b", "fusion", "entries", 0, "bias_acc", edit=_bias_at_i32_max)
            argv = ["eval", bad] if case.endswith("eval") else ["dump-fused", bad]
            want = "error: layer 0: linear: worst-case accumulator would overflow i32"
        elif case == "avgpool_kernel_0":
            edit_manifest(_avgpool_bundle(tmp_path / "pool"), tmp_path / "b", _avgpool_kernel_zero)
            argv, want = ["quantize", tmp_path / "b", "--out", tmp_path / "o"], "avgpool"
        elif case == "avgpool_pad_1":
            bad = edit_manifest(_avgpool_bundle(tmp_path / "pool"), tmp_path / "b", _avgpool_pad_one)
            argv, want = ["eval", bad], "layer 1: avgpool does not pad, got pad 1"
        elif case.startswith("metadata_"):
            edit, command = case.removeprefix("metadata_").rsplit("_", 1)
            path, value = METADATA_EDITS[edit]
            bad = _put("metadata", *path, value=value)(workspace / "float", tmp_path / "b")
            argv = ["eval", bad] if command == "eval" else ["quantize", bad, "--out", tmp_path / "o"]
            want = "malformed metadata section"
        elif case == "transposed_weight":
            argv, want = ["eval", edit_manifest(workspace / "float", tmp_path / "b", _transpose_first_weight)], "weight shape"
        else:
            bad = edit_manifest(workspace / "float", tmp_path / "b", lambda mf: None)
            (bad / "manifest.json").write_text((bad / "manifest.json").read_text()[:50])
            argv, want = ["eval", bad], "malformed bundle"
        proc = run_subprocess(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and want in proc.stderr
        assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1

    def test_sample_count_beyond_pool(self, workspace, tmp_path, capsys):
        code = run(
            "compensate",
            workspace / "quant",
            "--sample-count",
            "5000",
            "--out",
            tmp_path / "x",
        )
        assert code == 2
        assert "need 5000 calibration samples, pool has 1200" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("sizes", [["--sizes", "32,5000", "--sample-count", "64"], ["--sample-count", "5000"]])
    def test_ablate_size_beyond_pool(self, tmp_path, capsys, sizes):
        small = ["--classes", "3", "--dim", "2", "--train-n", "100", "--test-n", "50", "--hidden", "4"]
        code = run("ablate", *small, "--axis", "size", *sizes, "--seeds", "1", "--out-dir", tmp_path)
        assert code == 2
        assert "need 5000 calibration samples, pool has 100" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--hidden", "8,x"), ("--sizes", "32,x")])
    def test_ablate_bad_integer_list_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", flag, value, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"invalid int_list value: '{value}'" in capsys.readouterr().err

    def test_fit_on_unquantized_bundle(self, workspace, tmp_path, capsys):
        code = run("compensate", workspace / "float", "--out", tmp_path / "x")
        assert code == 2
        assert "no quantization section" in capsys.readouterr().err

    def test_compensate_takes_one_bundle(self, workspace, tmp_path, capsys):
        # the float model is inside the quantized bundle; a second one is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["compensate", str(workspace / "float"), str(workspace / "quant"), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestFuseFollowsLibrary:
    def test_fuse_default_follows_compensation_config(self, workspace, tmp_path):
        from quantcomp.calibrate import fuse_model
        from quantcomp.refnet import bundles_equal

        assert run("compensate", workspace / "quant", *SAMPLES, "--no-beta-rounding", "--out", tmp_path / "comp") == 0
        assert run("fuse", tmp_path / "comp", "--out", tmp_path / "fused") == 0
        fused = load_bundle(tmp_path / "fused")
        assert fused.manifest["fusion"]["beta_rounding"] is False
        assert bundles_equal(fused, fuse_model(load_bundle(tmp_path / "comp")))

    def test_fuse_rejects_a_string_beta_rounding(self, workspace, tmp_path, capsys):
        from quantcomp.refnet import save_bundle

        comp = load_bundle(workspace / "comp")
        comp.manifest["compensation"]["config"]["beta_rounding"] = "false"
        save_bundle(comp, tmp_path / "comp")
        assert run("fuse", tmp_path / "comp", "--out", tmp_path / "fused") == 2
        assert "beta_rounding must be true or false, got 'false'" in capsys.readouterr().err
        assert not (tmp_path / "fused").exists()

    def test_fuse_flag_still_overrides(self, workspace, tmp_path):
        assert run("fuse", workspace / "comp", "--beta-rounding", "--out", tmp_path / "fused") == 0
        assert load_bundle(tmp_path / "fused").manifest["fusion"]["beta_rounding"] is True

    def test_dump_fused_prints_the_engine_multipliers(self, workspace, capsys):
        from quantcomp.intengine import fused_runtime

        path = workspace / "fused"
        assert run("dump-fused", path) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  m0: ")]
        engine = [e.layer.m0.tolist() for e in fused_runtime(load_bundle(path)).entries if e.kind == "param"]
        assert printed == [f"  m0: {m0}" for m0 in engine] and len(engine) == 3

    def test_range_split_pipeline_matches_calibrate_model(self, workspace, tmp_path):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, calibration_pool
        from quantcomp.refnet import bundles_equal

        q = ["--weight-bits", "4", "--act-bits", "4", "--sample-count", "128", "--range-split"]
        assert run("quantize", workspace / "float", *q, "--out", tmp_path / "quant") == 0
        assert run("compensate", tmp_path / "quant", *SAMPLES, "--out", tmp_path / "comp") == 0
        model_f = load_bundle(workspace / "float")
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, range_split=True)
        assert bundles_equal(load_bundle(tmp_path / "comp"), calibrate_model(model_f, cfg, calibration_pool(model_f, cfg)))

    def test_pipeline_matches_calibrate_model(self, workspace):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, calibration_pool
        from quantcomp.refnet import bundles_equal

        model_f = load_bundle(workspace / "float")
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4)
        assert bundles_equal(load_bundle(workspace / "comp"), calibrate_model(model_f, cfg, calibration_pool(model_f, cfg)))


def _put(*path, value):
    """A bundle copy ``(src, dst) -> dst`` whose manifest sets ``path`` to ``value``, to ``value(old)`` if it is
    callable, or deletes it if it is None."""

    def edit(mf):
        holder = mf
        for key in path[:-1]:
            holder = holder[key]
        if value is None:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value(holder[path[-1]]) if callable(value) else value

    return lambda src, dst: edit_manifest(src, dst, edit)


def _blob(*path, edit):
    """A bundle copy ``(src, dst) -> dst`` whose blob named at manifest ``path`` is ``edit(blob)``."""
    return lambda src, dst: edit_blob(src, dst, *path, edit=edit)


def _nan_first(blob):
    blob = blob.copy()
    blob[0] = np.nan
    return blob


QUANT_LAYER0 = ("quantization", "layers", "0")
COMP_LAYER0 = ("compensation", "layers", "0")
# case: (command, the edit of the compensated bundle, what the error line names)
MALFORMED = {
    "out_scale_abc": ("fuse", _put(*QUANT_LAYER0, "out_scale", value="abc"), "out_scale"),
    "out_zero_point_missing": ("fuse", _put(*QUANT_LAYER0, "out_zero_point", value=None), "out_zero_point"),
    "weight_scales_abc": ("fuse", _put(*QUANT_LAYER0, "weight_scales", value="abc"), "weight_scales"),
    "weight_codes_missing": ("fuse", _put(*QUANT_LAYER0, "weight_codes", value=None), "weight_codes"),
    "quantization_layers_missing": ("fuse", _put("quantization", "layers", value=None), "layers"),
    "weight_bits_string": ("fuse", _put("quantization", "weight_bits", value="8"), "weight_bits"),
    "weight_bits_fractional": ("fuse", _put("quantization", "weight_bits", value=4.5), "weight_bits"),
    "alpha_nan": ("fuse", _blob(*COMP_LAYER0, "alpha", edit=_nan_first), "alpha"),
    "alpha_string": ("fuse", _put(*COMP_LAYER0, "alpha", value="x"), "alpha"),
    "beta_short": ("fuse", _blob(*COMP_LAYER0, "beta", edit=lambda beta: beta[:-1]), "beta"),
    "compensation_key_abc": ("fuse", _put("compensation", "layers", value=lambda c: {"abc": c.pop("0"), **c}), "'abc'"),
    "fallback_mask_string": ("fuse", _put(*COMP_LAYER0, "fallback_mask", value="x"), "fallback_mask"),
    "negative_clamped_string": ("fuse", _put(*COMP_LAYER0, "negative_clamped", value="x"), "negative_clamped"),
    "compensation_on_relu": ("fuse", _put("compensation", "layers", value=lambda c: {**c, "1": c["0"]}), "'1'"),
    "stats_without_post_mse": ("eval", _put("compensation", "stats", 0, "post_mse", value=None), "post_mse"),
    "stats_post_mse_string": ("eval", _put("compensation", "stats", 0, "post_mse", value="x"), "post_mse"),
}


class TestMalformedSections:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_field_exits_two_naming_it(self, workspace, tmp_path, capsys, case):
        # each of these used to end in a traceback, or (weight_bits 4.5, negative_clamped "x",
        # a relu layer's compensation) to fuse or load without a word
        command, edit, want = MALFORMED[case]
        bad = edit(workspace / "comp", tmp_path / "bad")
        argv = ["fuse", bad, "--out", tmp_path / "fused"] if command == "fuse" else ["eval", bad, "--check"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and want in err and len(err.splitlines()) == 1, err
        assert not (tmp_path / "fused").exists()


# a non-default value of each knob that takes one; a flag sets its knob to the flag's constant
KNOB_VALUES = {"sample_count": "64", "seed": "1", "weight_bits": "3", "act_bits": "3", "percentile": "0.99", "position": "post"}
# what each step runs on, and the workspace bundle that it wrote from there with no knob flag but these
STEP_RUNS = {"quantize": ("float", W4A4, "quant"), "compensate": ("quant", SAMPLES, "comp")}
# flags each step took before it took only its own knobs
REMOVED_FLAGS = {
    "quantize": [("--estimator", "percentile"), ("--position", "post"), ("--sequential",), ("--frozen",), ("--beta-rounding",), ("--no-beta-rounding",)],
    "compensate": [("--estimator", "percentile"), ("--percentile", "0.9"), ("--weight-bits", "4"), ("--act-bits", "4"), ("--range-split",)],
}


def _knob_flags(command):
    """{knob: the argv that gives it a non-default value} of each knob that subcommand ``command`` takes."""
    import argparse

    from quantcomp.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    flags = {}
    for action in sub._actions:
        if action.dest in ("help", "bundle", "out", "force"):
            continue
        if action.nargs != 0:
            flags[action.dest] = (action.option_strings[0], KNOB_VALUES[action.dest])
        elif action.const != action.default:  # of a flag pair, the one that is not the default
            flags[action.dest] = (action.option_strings[0],)
    return flags


class TestEachStepTakesOnlyItsKnobs:
    def test_knobs_of_each_step(self):
        assert sorted(_knob_flags("quantize")) == ["act_bits", "percentile", "range_split", "sample_count", "seed", "weight_bits"]
        assert sorted(_knob_flags("compensate")) == ["beta_rounding", "position", "sample_count", "seed", "sequential"]

    @pytest.mark.parametrize("command, knob", [(c, k) for c in STEP_RUNS for k in _knob_flags(c)])
    def test_every_knob_changes_the_bundle_written(self, workspace, tmp_path, command, knob):
        # a flag whose value the step never reads would write the workspace's bundle again
        from quantcomp.refnet import bundles_equal

        src, base, written = STEP_RUNS[command]
        assert run(command, workspace / src, *base, *_knob_flags(command)[knob], "--out", tmp_path / "b") == 0
        assert not bundles_equal(load_bundle(tmp_path / "b"), load_bundle(workspace / written))

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REMOVED_FLAGS.items() for f in flags])
    def test_removed_flag_is_a_usage_error(self, workspace, tmp_path, capsys, command, flag):
        src, base, _ = STEP_RUNS[command]
        with pytest.raises(SystemExit) as exc:
            main([command, str(workspace / src), *base, *flag, "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
