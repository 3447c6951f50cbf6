import csv

import numpy as np
import pytest

from quantcomp.calibrate import CalibrationConfig, CalibrationError, calibrate_model, calibration_pool, fuse_model
from quantcomp.evalbench import (
    EvalReport,
    ablate_beta_rounding,
    ablate_calibration_size,
    ablate_position,
    accuracy,
    blob_task,
    config_id,
    figure1b_report,
    model_size_report,
    run_cell,
    spiral_task,
    square_task,
)
from quantcomp.refnet import TaskSpec, build_mlp, train_synthetic

SMALL = TaskSpec(classes=5, dim=6, train_n=1400, test_n=300, hidden=(10, 10))
FAST_CFG = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4)


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_constant_model_is_chance(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, 5000)
        logits = np.tile([1.0, 0, 0, 0, 0], (5000, 1))
        got = accuracy(logits, labels)
        assert abs(got - labels.tolist().count(0) / 5000) < 1e-12
        assert abs(got - 0.2) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestSizeReport:
    def test_float_model_counts(self):
        m = build_mlp((8, 16, 4))
        r = model_size_report(m)
        want_scalars = 8 * 16 + 16 + 16 * 4 + 4
        assert r["param_scalars"] == want_scalars
        assert r["model_bits"] == want_scalars * 32
        assert r["delta_scalars"] == 0

    def test_compensated_delta_and_fused_zero(self):
        m = train_synthetic(SMALL, 0, epochs=120, min_accuracy=0.0)
        comp = calibrate_model(m, FAST_CFG, calibration_pool(m, FAST_CFG))
        r = model_size_report(comp)
        assert r["delta_scalars"] == 2 * (10 + 10 + 5)
        assert r["delta_bits"] == 32 * r["delta_scalars"]
        fused = fuse_model(comp)
        rf = model_size_report(fused)
        assert rf["delta_scalars"] == 0 and rf["delta_bits"] == 0

    def test_overhead_fraction_small_for_wide_net(self):
        # parameter-count overhead of compensation is ~2/C_in; a 256-wide
        # hidden stack keeps it under the documented 2% budget
        m = build_mlp((64, 256, 256, 10), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        calib = rng.standard_normal((64, 64)).astype(np.float32)
        cfg = CalibrationConfig(sample_count=64, weight_bits=4, act_bits=4)
        comp = calibrate_model(m, cfg, calib)
        r = model_size_report(comp)
        assert r["delta_scalars"] / r["param_scalars"] <= 0.02


class TestReports:
    def test_single_size_single_row_per_seed(self):
        rep = ablate_calibration_size([64], FAST_CFG, SMALL, seeds=[0, 1])
        assert len(rep.rows) == 2
        assert all(r["sample_count"] == 64 for r in rep.rows)

    def test_position_row_count(self):
        rep = ablate_position(FAST_CFG, SMALL, seeds=[0, 1])
        assert len(rep.rows) == 4
        assert len(rep.where(position="all")) == 2

    def test_beta_rounding_rows_and_float_counter(self):
        rep = ablate_beta_rounding(FAST_CFG, SMALL, seeds=[0])
        assert len(rep.rows) == 2
        rounded = rep.where(beta_rounding=True)[0]
        assert rounded["float_mul_count"] == 0
        # the unrounded cell requantizes its real offsets in f64, and the row reports it
        assert rep.where(beta_rounding=False)[0]["float_mul_count"] > 0

    def test_csv_wide_and_long(self, tmp_path):
        rep = ablate_calibration_size([32, 64], FAST_CFG, SMALL, seeds=[0])
        rep.to_csv(tmp_path / "wide.csv", fmt="wide")
        rep.to_csv(tmp_path / "long.csv", fmt="long")
        with open(tmp_path / "wide.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 and rows[0]["sample_count"] == "32"
        with open(tmp_path / "long.csv") as f:
            longrows = list(csv.reader(f))
        assert longrows[0] == ["config_id", "seed", "metric", "value"]
        assert len(longrows) > 10

    def test_size_exceeding_pool_rejected(self):
        with pytest.raises(CalibrationError, match="pool"):
            ablate_calibration_size([10**6], FAST_CFG, SMALL, seeds=[0])

    def test_non_finite_cell_rejected(self):
        rep = EvalReport()
        with pytest.raises(ValueError):
            rep.append({"config_id": "x", "seed": 0, "acc_float": float("nan")})

    def test_rows_regenerate_identically(self):
        a = run_cell(SMALL, 0, FAST_CFG)
        b = run_cell(SMALL, 0, FAST_CFG)
        assert a == b

    def test_config_id_mentions_knobs(self):
        cid = config_id(SMALL, FAST_CFG)
        assert "w4a4" in cid and "n64" in cid


class TestFigure1b:
    def test_diagonal_relation_energy_near_one(self):
        # when the quant path distorts each channel affinely, the output-side
        # full-matrix fit concentrates (near) all its mass on the diagonal
        from quantcomp.compensate import ActivationPair, diagonal_energy, fit_full_matrix

        rng = np.random.default_rng(0)
        y_full = rng.standard_normal((512, 6))
        gains = rng.uniform(0.7, 1.4, 6)
        y_quant = gains * y_full + rng.uniform(-0.5, 0.5, 6) + rng.standard_normal((512, 6)) * 0.01
        post = fit_full_matrix(ActivationPair(y_full, y_quant, x_quant=y_quant))
        assert diagonal_energy(post.w) > 0.9

    def test_square_layer_count(self):
        m = train_synthetic(square_task(), 0, epochs=60, min_accuracy=0.0)
        rows = figure1b_report(m, 4, sample_count=128)
        assert len(rows) == 3  # 16->16, 16->16, 16->16 all square

    def test_sample_count_beyond_pool_rejected(self):
        task = TaskSpec(classes=3, dim=4, train_n=200, test_n=50, hidden=(4, 4))
        m = train_synthetic(task, 0, epochs=5, min_accuracy=0.0)
        with pytest.raises(CalibrationError, match="need 100000 calibration samples, pool has 200"):
            figure1b_report(m, 4, sample_count=100000)

    def test_presets_shape(self):
        assert blob_task().kind == "blobs"
        assert spiral_task().kind == "spirals"
        t = square_task()
        assert t.dim == t.classes == t.hidden[0]
