"""Matching and average precision against hand cases and a reference sweep."""

from typing import NamedTuple

import numpy as np
import pytest

from lidardet.boxgeom import Box3D, iou_bev_rotated
from lidardet.errors import NoGroundTruth
from lidardet.metrics import (EvalResult, average_precision, evaluate, match)
from lidardet.pcio import Difficulty, GroundTruthObject, ObjectClass


class Scored(NamedTuple):
    """A detection as match sees it: any object with box and score."""

    box: Box3D
    score: float


def box_at(x, y, l=4.0, w=2.0):
    return Box3D(x, y, 0.8, l, w, 1.5, 0.0)


def gt_at(x, y, difficulty=Difficulty.MODERATE):
    return GroundTruthObject(ObjectClass.CAR, box_at(x, y), difficulty)


def reference_ap(num_gt, scores, flags, forty_point=False):
    """Plain-loop interpolated AP, written independently of the module."""
    pairs = sorted(zip(scores, range(len(scores))), key=lambda t: (-t[0], t[1]))
    tp = 0
    curve = []
    for rank, (_, i) in enumerate(pairs, start=1):
        tp += 1 if flags[i] else 0
        curve.append((tp / num_gt, tp / rank))
    levels = [(i + 1) / 40 for i in range(40)] if forty_point \
        else [i / 10 for i in range(11)]
    total = 0.0
    for r in levels:
        best = 0.0
        for recall, precision in curve:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / len(levels)


def reference_match(dets, gt_boxes, iou_fn, threshold):
    """Greedy matcher recoded around a precomputed IoU table."""
    table = np.zeros((len(dets), len(gt_boxes)))
    for i, d in enumerate(dets):
        for j, g in enumerate(gt_boxes):
            table[i, j] = iou_fn(d.box, g)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    free = set(range(len(gt_boxes)))
    matches, fps = [], []
    for i in order:
        best_j, best = -1, 0.0
        for j in sorted(free):
            if table[i, j] > best:
                best, best_j = table[i, j], j
        if best_j >= 0 and best >= threshold:
            free.discard(best_j)
            matches.append((i, best_j, best))
        else:
            fps.append(i)
    return matches, fps, sorted(free)


class TestMatch:
    def test_two_dets_one_gt(self):
        gt = [box_at(10, 0)]
        dets = [Scored(box_at(10, 0), 0.6), Scored(box_at(10.2, 0), 0.9)]
        res = match(dets, gt, iou_bev_rotated, 0.5)
        assert [m[:2] for m in res.matches] == [(1, 0)]
        assert res.false_positives == [0]
        assert res.false_negatives == []

    def test_score_tie_breaks_by_input_index(self):
        gt = [box_at(10, 0)]
        dets = [Scored(box_at(10.3, 0), 0.7), Scored(box_at(10, 0), 0.7)]
        res = match(dets, gt, iou_bev_rotated, 0.5)
        assert res.matches[0][0] == 0

    def test_iou_tie_takes_lower_gt_index(self):
        gt = [box_at(10, 0), box_at(10, 0)]
        dets = [Scored(box_at(10, 0), 0.9)]
        res = match(dets, gt, iou_bev_rotated, 0.5)
        assert res.matches == [(0, 0, 1.0)]
        assert res.false_negatives == [1]

    def test_below_threshold_is_fp_and_fn(self):
        res = match([Scored(box_at(10, 0), 0.9)], [box_at(30, 0)],
                    iou_bev_rotated, 0.5)
        assert res.matches == []
        assert res.false_positives == [0]
        assert res.false_negatives == [0]

    def test_each_gt_matches_once(self):
        gt = [box_at(10, 0)]
        dets = [Scored(box_at(10, 0), 0.9), Scored(box_at(10, 0), 0.8)]
        res = match(dets, gt, iou_bev_rotated, 0.5)
        assert len(res.matches) == 1
        assert res.false_positives == [1]

    def test_threshold_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                match([], [], iou_bev_rotated, bad)

    def test_random_sets_equal_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_det, n_gt = rng.integers(0, 12), rng.integers(0, 8)
            gts = [box_at(rng.uniform(5, 40), rng.uniform(-10, 10),
                          rng.uniform(3, 5), rng.uniform(1.5, 2.5))
                   for _ in range(n_gt)]
            dets = [Scored(box_at(rng.uniform(5, 40), rng.uniform(-10, 10),
                                  rng.uniform(3, 5), rng.uniform(1.5, 2.5)),
                           float(rng.choice([0.3, 0.5, 0.7, 0.9])))
                    for _ in range(n_det)]
            got = match(dets, gts, iou_bev_rotated, 0.3)
            want = reference_match(dets, gts, iou_bev_rotated, 0.3)
            assert [m[:2] for m in got.matches] == [m[:2] for m in want[0]]
            assert got.false_positives == want[1]
            assert got.false_negatives == want[2]


class TestAveragePrecision:
    def test_all_detected_is_one(self):
        assert average_precision(3, [0.9, 0.8, 0.7], [True, True, True]) == 1.0

    def test_no_detections_is_zero(self):
        assert average_precision(4, [], []) == 0.0

    def test_tp_then_fp_over_one_gt_is_one(self):
        assert average_precision(1, [0.9, 0.5], [True, False]) == 1.0

    def test_fp_then_tp_halves(self):
        # precision never exceeds 0.5 once the sweep starts with a miss
        assert average_precision(1, [0.9, 0.5], [False, True]) == 0.5

    def test_matches_reference_on_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            num_gt = int(rng.integers(1, 20))
            n = int(rng.integers(0, 30))
            scores = rng.choice(np.linspace(0.05, 0.95, 10), size=n)
            flags = rng.random(n) < 0.5
            if flags.sum() > num_gt:
                extra = np.flatnonzero(flags)[num_gt:]
                flags[extra] = False
            got = average_precision(num_gt, scores, flags)
            assert got == reference_ap(num_gt, scores, flags)

    def test_forty_point_matches_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            num_gt = int(rng.integers(1, 10))
            n = int(rng.integers(1, 20))
            scores = rng.random(n)
            flags = rng.random(n) < 0.6
            got = average_precision(num_gt, scores, flags, forty_point=True)
            assert got == reference_ap(num_gt, scores, flags, forty_point=True)

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(17)
        scores = rng.random(25)
        flags = rng.random(25) < 0.4
        base = average_precision(9, scores, flags)
        assert average_precision(9, scores * 0.5 + 0.1, flags) == base

    def test_zero_gt_raises(self):
        with pytest.raises(NoGroundTruth):
            average_precision(0, [0.5], [True])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            average_precision(1, [0.5, 0.4], [True])


class TestEvaluate:
    def test_perfect_single_scene(self):
        gts = [[gt_at(10, 0), gt_at(20, 5)]]
        dets = [[Scored(box_at(10, 0), 0.9), Scored(box_at(20, 5), 0.8)]]
        res = evaluate(dets, gts, iou_bev_rotated, 0.5)
        assert res.ap == 1.0
        assert len(res.matches) == 2

    def test_empty_detections_zero_ap(self):
        res = evaluate([[]], [[gt_at(10, 0)]], iou_bev_rotated, 0.5)
        assert res.ap == 0.0
        assert res.recalls.size == 0

    def test_recall_curve_monotone(self):
        rng = np.random.default_rng(3)
        gts = [[gt_at(rng.uniform(5, 40), rng.uniform(-10, 10))
                for _ in range(4)] for _ in range(3)]
        dets = [[Scored(box_at(g.box.cx + rng.uniform(-1, 1), g.box.cy),
                        float(rng.random()))
                 for g in scene] for scene in gts]
        res = evaluate(dets, gts, iou_bev_rotated, 0.3)
        assert np.all(np.diff(res.recalls) >= 0.0)
        assert res.recalls.shape == res.precisions.shape

    def test_pools_scenes_into_one_sweep(self):
        gts = [[gt_at(10, 0)], [gt_at(20, 0)]]
        dets = [[Scored(box_at(10, 0), 0.9)],
                [Scored(box_at(40, 0), 0.95)]]  # cross-scene FP outranks TP
        res = evaluate(dets, gts, iou_bev_rotated, 0.5)
        assert res.ap == reference_ap(2, [0.9, 0.95], [True, False])

    def test_by_difficulty_ignores_other_matches(self):
        gts = [[gt_at(10, 0, Difficulty.EASY), gt_at(30, 0, Difficulty.HARD)]]
        dets = [[Scored(box_at(40, 8), 0.95),   # false positive, top score
                 Scored(box_at(10, 0), 0.9),    # easy hit
                 Scored(box_at(30, 0), 0.8)]]   # hard hit
        res = evaluate(dets, gts, iou_bev_rotated, 0.5)
        # per-difficulty sweep is FP then TP over one truth
        assert res.by_difficulty["Easy"] == 0.5
        assert res.by_difficulty["Hard"] == 0.5
        assert "Moderate" not in res.by_difficulty

    def test_absent_difficulties_omitted(self):
        gts = [[gt_at(10, 0, Difficulty.EASY)]]
        dets = [[Scored(box_at(10, 0), 0.9)]]
        res = evaluate(dets, gts, iou_bev_rotated, 0.5)
        assert set(res.by_difficulty) == {"Easy"}
        assert res.by_difficulty["Easy"] == 1.0

    def test_no_ground_truth_raises(self):
        with pytest.raises(NoGroundTruth):
            evaluate([[]], [[]], iou_bev_rotated, 0.5)

    def test_scene_count_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([[], []], [[]], iou_bev_rotated, 0.5)

    def test_matches_carry_scene_and_indices(self):
        gts = [[gt_at(10, 0)], [gt_at(20, 0)]]
        dets = [[Scored(box_at(10, 0), 0.9)],
                [Scored(box_at(20, 0), 0.8)]]
        res = evaluate(dets, gts, iou_bev_rotated, 0.5)
        assert [(s, d, g) for s, d, g, _ in res.matches] == [(0, 0, 0), (1, 0, 0)]
        for *_, iou in res.matches:
            assert iou == pytest.approx(1.0)


def test_evaluate_matches_each_scene_once():
    """The overall and per-difficulty sweeps share one matching per scene."""
    calls = []

    def counting_iou(a, b):
        calls.append(1)
        return iou_bev_rotated(a, b)
    gts = [[gt_at(10, 0, Difficulty.EASY), gt_at(30, 0, Difficulty.HARD)],
           [gt_at(20, 5, Difficulty.MODERATE)]]
    dets = [[Scored(box_at(10, 0), 0.9), Scored(box_at(31, 0), 0.7)],
            [Scored(box_at(20, 5), 0.8), Scored(box_at(40, 8), 0.6)]]
    res = evaluate(dets, gts, counting_iou, 0.5)
    assert set(res.by_difficulty) == {"Easy", "Moderate", "Hard"}
    n_evaluate = len(calls)
    calls.clear()
    for scene_dets, scene_gts in zip(dets, gts):
        match(scene_dets, [g.box for g in scene_gts], counting_iou, 0.5)
    assert n_evaluate == len(calls) > 0
