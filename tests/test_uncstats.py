"""Uncertainty summaries: total variance, correlation, binning, records."""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest

from lidardet.boxgeom import Box3D, iou_bev_rotated
from lidardet.errors import BadEdges, DegenerateInput
from lidardet.pcio import Difficulty, GroundTruthObject, ObjectClass
from lidardet.uncstats import (MATCH_THRESHOLD, UncertaintyRecord,
                               base_angle_offset, binned_means, difficulty_histogram,
                               filter_confident, load_records, pearson,
                               records_from_detections, save_records,
                               total_variance)


def rec(**kw):
    base = dict(det_id="d", score=0.9, distance=10.0, yaw=0.0,
                rpn_tv=1.0, frh_loc_tv=1.0, frh_orient_tv=1.0)
    base.update(kw)
    return UncertaintyRecord(**base)


class TestTotalVariance:
    def test_sum_of_exponentials(self):
        s = np.array([0.0, math.log(2.0), math.log(3.0)])
        assert total_variance(s) == pytest.approx(6.0, rel=1e-15)

    def test_zero_log_vars(self):
        assert total_variance(np.zeros(4)) == pytest.approx(4.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.normal(size=rng.integers(1, 9))
            assert total_variance(s) == pytest.approx(
                sum(math.exp(v) for v in s), rel=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            total_variance([0.0, math.inf])


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-2, -4, -6]) == pytest.approx(-1.0)

    def test_matches_corrcoef(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.normal(size=30)
            y = 0.4 * x + rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                  rel=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            r = pearson(rng.normal(size=8), rng.normal(size=8))
            assert -1.0 <= r <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0], [2.0])

    def test_constant_series(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestBaseAngleOffset:
    def test_hand_values(self):
        assert base_angle_offset(0.0) == 0.0
        assert base_angle_offset(0.3) == pytest.approx(0.3)
        assert base_angle_offset(math.pi / 4) == pytest.approx(math.pi / 4)
        assert base_angle_offset(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert base_angle_offset(math.pi / 2 - 0.3) == pytest.approx(0.3)

    def test_period_and_bounds(self):
        rng = np.random.default_rng(2)
        for yaw in rng.uniform(-4 * math.pi, 4 * math.pi, size=200):
            off = base_angle_offset(yaw)
            assert 0.0 <= off <= math.pi / 4 + 1e-12
            assert off == pytest.approx(base_angle_offset(yaw + math.pi / 2),
                                        abs=1e-9)
            assert off == pytest.approx(base_angle_offset(-yaw), abs=1e-9)

    def test_record_property(self):
        assert rec(yaw=1.2).angle_offset == pytest.approx(
            base_angle_offset(1.2))


class TestBinnedMeans:
    def test_hand_case(self):
        records = [rec(distance=5.0, frh_loc_tv=1.0),
                   rec(distance=5.0, frh_loc_tv=3.0),
                   rec(distance=10.0, frh_loc_tv=7.0),  # lands in second bin
                   rec(distance=20.0, frh_loc_tv=99.0),  # at last edge, dropped
                   rec(distance=-1.0, frh_loc_tv=99.0)]
        stats = binned_means(records, "distance", [0.0, 10.0, 20.0])
        assert [s.count for s in stats] == [2, 1]
        assert stats[0].mean == pytest.approx(2.0)
        assert stats[1].mean == pytest.approx(7.0)
        assert stats[0].center == pytest.approx(5.0)

    def test_empty_bin_mean_none(self):
        stats = binned_means([rec(distance=5.0)], "distance", [0, 10, 20])
        assert stats[1].count == 0 and stats[1].mean is None

    def test_angle_offset_key_uses_folded_yaw(self):
        records = [rec(yaw=math.pi / 2 + 0.1, frh_orient_tv=4.0)]
        stats = binned_means(records, "angle_offset", [0.0, 0.2, 0.4],
                             value="frh_orient_tv")
        assert [s.count for s in stats] == [1, 0]
        assert stats[0].mean == pytest.approx(4.0)

    def test_score_key(self):
        stats = binned_means([rec(score=0.55, rpn_tv=2.0)], "score",
                             [0.5, 0.6, 0.7], value="rpn_tv")
        assert stats[0].count == 1 and stats[0].mean == pytest.approx(2.0)

    def test_bad_key_and_value(self):
        with pytest.raises(ValueError):
            binned_means([], "yaw", [0, 1])
        with pytest.raises(ValueError):
            binned_means([], "distance", [0, 1], value="score")

    def test_bad_edges(self):
        for edges in ([0.0], [0.0, 0.0, 1.0], [1.0, 0.0], [0.0, math.nan]):
            with pytest.raises(BadEdges):
                binned_means([], "distance", edges)


class TestDifficultyHistogram:
    def test_counts_partition_records(self):
        rng = np.random.default_rng(4)
        records = [rec(frh_loc_tv=float(tv), difficulty=d)
                   for tv, d in zip(10.0 ** rng.uniform(-5, 4, 40),
                                    rng.choice(["Easy", "Hard"], 40))]
        hists = difficulty_histogram(records)
        assert sum(int(h.sum()) for h in hists.values()) == 40
        n_easy = sum(1 for r in records if r.difficulty == "Easy")
        assert int(hists["Easy"].sum()) == n_easy

    def test_outer_bins_open_ended(self):
        records = [rec(frh_loc_tv=1e-9, difficulty="Easy"),
                   rec(frh_loc_tv=1e9, difficulty="Easy")]
        h = difficulty_histogram(records)["Easy"]
        assert h[0] == 1 and h[-1] == 1

    def test_missing_difficulty_rejected(self):
        with pytest.raises(ValueError):
            difficulty_histogram([rec()])


class TestFilterConfident:
    def test_strictly_above_cutoff(self):
        records = [rec(score=0.5), rec(score=0.500001), rec(score=0.4)]
        kept = filter_confident(records, 0.5)
        assert len(kept) == 1 and kept[0].score == 0.500001


class TestRecordsIO:
    def test_roundtrip_exact(self, tmp_path):
        records = [rec(det_id="synth-3:0", score=0.1 + 0.2, distance=12.345,
                       yaw=-0.7, rpn_tv=1e-7, difficulty="Hard",
                       sigma_label=0.37),
                   rec(det_id="1", sigma_label=math.nan)]
        path = tmp_path / "records.csv"
        save_records(records, path)
        back = load_records(path)
        assert len(back) == 2
        assert back[0] == records[0]
        assert back[1].det_id == "1" and math.isnan(back[1].sigma_label)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            load_records(path)


@dataclass
class FakeDet:
    box: Box3D
    score: float
    rpn_log_var: np.ndarray = field(default_factory=lambda: np.zeros(6))
    loc_log_var: np.ndarray = field(default_factory=lambda: np.zeros(10))
    orient_log_var: np.ndarray = field(default_factory=lambda: np.zeros(2))
    frame_id: str = ""


class TestRecordsFromDetections:
    def test_matched_detection_inherits_truth(self):
        box = Box3D(9.0, 12.0, 0.8, 4.0, 2.0, 1.5, 0.4)
        gts = [GroundTruthObject(ObjectClass.CAR, box, Difficulty.HARD)]
        noise = [SimpleNamespace(sigma_label=0.37)]
        dets = [FakeDet(box, 0.9, frame_id="synth-0"),
                FakeDet(Box3D(40.0, -20.0, 0.8, 4.0, 2.0, 1.5, 0.0), 0.8)]
        out = records_from_detections(dets, gts, noise)
        assert out[0].det_id == "synth-0:0"
        assert out[0].difficulty == "Hard"
        assert out[0].sigma_label == pytest.approx(0.37)
        assert out[0].distance == pytest.approx(15.0)
        assert out[0].yaw == pytest.approx(0.4)
        assert out[1].det_id == "1"
        assert out[1].difficulty == "" and math.isnan(out[1].sigma_label)

    def test_total_variances_per_head(self):
        det = FakeDet(Box3D(10, 0, 0.8, 4, 2, 1.5, 0.0), 0.9,
                      rpn_log_var=np.log([2.0, 3.0]),
                      loc_log_var=np.zeros(3),
                      orient_log_var=np.log([5.0]))
        out = records_from_detections([det])
        assert out[0].rpn_tv == pytest.approx(5.0)
        assert out[0].frh_loc_tv == pytest.approx(3.0)
        assert out[0].frh_orient_tv == pytest.approx(5.0)

    def test_no_gts_leaves_fields_empty(self):
        det = FakeDet(Box3D(10, 0, 0.8, 4, 2, 1.5, 0.0), 0.9)
        out = records_from_detections([det])
        assert out[0].difficulty == "" and math.isnan(out[0].sigma_label)

    def test_matching_respects_threshold(self):
        gt_box = Box3D(10.0, 0.0, 0.8, 4.0, 2.0, 1.5, 0.0)
        gts = [GroundTruthObject(ObjectClass.CAR, gt_box, Difficulty.EASY)]
        # a sideways shift of 1.2 m leaves IoU 0.25, of 1.0 m IoU 1/3
        below = FakeDet(Box3D(10.0, 1.2, 0.8, 4.0, 2.0, 1.5, 0.0), 0.9)
        above = FakeDet(Box3D(10.0, 1.0, 0.8, 4.0, 2.0, 1.5, 0.0), 0.9)
        assert iou_bev_rotated(below.box, gt_box) < MATCH_THRESHOLD
        assert iou_bev_rotated(above.box, gt_box) > MATCH_THRESHOLD
        assert records_from_detections([below], gts)[0].difficulty == ""
        assert records_from_detections([above], gts)[0].difficulty == "Easy"
