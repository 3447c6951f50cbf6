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
            "--weight-bits",
            "4",
            "--act-bits",
            "4",
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
        assert cfg["sample_count"] == 128 and cfg["position"] == "all"
        assert cfg["weight_bits"] == 4

    def test_fit_csv_non_empty(self, workspace):
        lines = (workspace / "comp" / "fit_stats.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 linear layers

    def test_bits_mismatch_rejected(self, workspace, tmp_path):
        code = run(
            "compensate",
            workspace / "quant",
            "--weight-bits",
            "8",
            "--act-bits",
            "8",
            "--sample-count",
            "128",
            "--out",
            tmp_path / "x",
        )
        assert code == 2

    def test_rerun_bit_identical(self, workspace, tmp_path):
        assert (
            run(
                "compensate",
                workspace / "quant",
                "--weight-bits",
                "4",
                "--act-bits",
                "4",
                "--sample-count",
                "128",
                "--out",
                tmp_path / "again",
            )
            == 0
        )
        a = (workspace / "comp" / "manifest.json").read_text()
        assert a == (tmp_path / "again" / "manifest.json").read_text()


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


def _drop_first_m0(mf):
    del next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["m0"]


def _cut_first_m0(mf):
    entry = next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")
    entry["m0"] = entry["m0"][:2]


def _dense_first_param(mf):
    next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["op_kind"] = "dense"


def _narrow_first_in_bits(mf):
    next(e for e in mf["fusion"]["entries"] if e["kind"] == "param")["in_bits"] = 2


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
            "avgpool_kernel_0",
            "transposed_weight",
            "truncated_manifest",
        ],
    )
    def test_exits_two_without_traceback(self, workspace, tmp_path, case):
        if case == "weight_bits_1":
            argv, want = ["quantize", workspace / "float", "--weight-bits", "1", "--out", tmp_path / "o"], "bitwidths"
        elif case == "percentile_0.3":
            argv = ["quantize", workspace / "float", "--estimator", "percentile", "--percentile", "0.3", "--out", tmp_path / "o"]
            want = "percentile"
        elif case == "fused_without_m0":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _drop_first_m0)], "m0"
        elif case == "fused_short_m0":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _cut_first_m0)], "m0 has shape (2,)"
        elif case == "fused_f32_weight_codes":
            argv, want = ["eval", _f32_weight_codes(workspace / "fused", tmp_path / "b")], "weight codes are float32"
        elif case == "fused_unknown_op_kind":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _dense_first_param)], "op_kind"
        elif case == "fused_in_bits_2":
            argv, want = ["eval", edit_manifest(workspace / "fused", tmp_path / "b", _narrow_first_in_bits)], "layer 0: in_bits"
        elif case == "avgpool_kernel_0":
            edit_manifest(_avgpool_bundle(tmp_path / "pool"), tmp_path / "b", _avgpool_kernel_zero)
            argv, want = ["quantize", tmp_path / "b", "--out", tmp_path / "o"], "avgpool"
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
            "--weight-bits",
            "4",
            "--act-bits",
            "4",
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

        q = ["--weight-bits", "4", "--act-bits", "4", "--sample-count", "128"]
        assert run("compensate", workspace / "quant", *q, "--no-beta-rounding", "--out", tmp_path / "comp") == 0
        assert run("fuse", tmp_path / "comp", "--out", tmp_path / "fused") == 0
        fused = load_bundle(tmp_path / "fused")
        assert fused.manifest["fusion"]["beta_rounding"] is False
        assert bundles_equal(fused, fuse_model(load_bundle(tmp_path / "comp")))

    def test_fuse_flag_still_overrides(self, workspace, tmp_path):
        assert run("fuse", workspace / "comp", "--beta-rounding", "--out", tmp_path / "fused") == 0
        assert load_bundle(tmp_path / "fused").manifest["fusion"]["beta_rounding"] is True

    @pytest.mark.parametrize("spelling", ["int", "float"])
    def test_dump_fused_prints_the_engine_multipliers(self, workspace, tmp_path, capsys, spelling):
        from quantcomp.intengine import fused_runtime

        def m0_as_floats(mf):
            for e in mf["fusion"]["entries"]:
                if e["kind"] == "param":
                    e["m0"] = [float(v) for v in e["m0"]]

        path = workspace / "fused" if spelling == "int" else edit_manifest(workspace / "fused", tmp_path / "b", m0_as_floats)
        assert run("dump-fused", path) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  m0: ")]
        engine = [e.layer.m0.tolist() for e in fused_runtime(load_bundle(path)).entries if e.kind == "param"]
        assert printed == [f"  m0: {m0}" for m0 in engine] and len(engine) == 3

    def test_range_split_pipeline_matches_calibrate_model(self, workspace, tmp_path):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, calibration_pool
        from quantcomp.refnet import bundles_equal

        q = ["--weight-bits", "4", "--act-bits", "4", "--sample-count", "128", "--range-split"]
        assert run("quantize", workspace / "float", *q, "--out", tmp_path / "quant") == 0
        assert run("compensate", tmp_path / "quant", *q, "--out", tmp_path / "comp") == 0
        model_f = load_bundle(workspace / "float")
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4, range_split=True)
        assert bundles_equal(load_bundle(tmp_path / "comp"), calibrate_model(model_f, cfg, calibration_pool(model_f, cfg)))

    def test_pipeline_matches_calibrate_model(self, workspace):
        from quantcomp.calibrate import CalibrationConfig, calibrate_model, calibration_pool
        from quantcomp.refnet import bundles_equal

        model_f = load_bundle(workspace / "float")
        cfg = CalibrationConfig(sample_count=128, weight_bits=4, act_bits=4)
        assert bundles_equal(load_bundle(workspace / "comp"), calibrate_model(model_f, cfg, calibration_pool(model_f, cfg)))
