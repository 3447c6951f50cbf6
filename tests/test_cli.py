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
            root / "float",
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
            workspace / "float",
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
                workspace / "float",
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
        at = keys.index("f64_gemm_macs")
        assert keys[at + 1] == "float_mul_count" and lines[at + 1].split()[-1] == "0"
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
