"""Detection-to-truth matching and interpolated average precision."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoGroundTruth


@dataclass
class MatchResult:
    matches: list  # (det index, gt index, iou), in descending-score det order
    false_positives: list  # unmatched det indices
    false_negatives: list  # unmatched gt indices


def match(dets, gt_boxes, iou_fn: Callable, threshold: float) -> MatchResult:
    """Greedy score-ordered matching of detections onto ground-truth boxes.

    Each detection (anything with box/score attributes) takes the still
    unmatched truth of highest IoU when that IoU reaches the threshold;
    every truth matches at most once. Score ties break by input index,
    IoU ties by lower truth index.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gt_boxes)
    matches = []
    false_positives = []
    for i in order:
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gt_boxes):
            if taken[j]:
                continue
            iou = iou_fn(dets[i].box, gt)
            if iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0 and best_iou >= threshold:
            taken[best_j] = True
            matches.append((i, best_j, best_iou))
        else:
            false_positives.append(i)
    false_negatives = [j for j, t in enumerate(taken) if not t]
    return MatchResult(matches, false_positives, false_negatives)


def average_precision(num_gt: int, scores, is_tp, forty_point: bool = False) -> float:
    """Interpolated AP over a matched detection sweep.

    The sweep is given as parallel score / true-positive arrays (ignored
    detections already removed). Eleven-point interpolation averages the
    max precision at recall >= r over r in {0, 0.1, ..., 1.0}; the
    forty-point variant uses r in {1/40, ..., 40/40}.
    """
    if num_gt <= 0:
        raise NoGroundTruth("average precision needs at least one ground truth")
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_tp, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ValueError("scores and is_tp must be equal-length 1-D")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return _precision_recall(num_gt, flags[order], forty_point)[0]


def _precision_recall(num_gt: int, flags: np.ndarray, forty_point: bool):
    """(AP, recalls, precisions) of true-positive flags in descending-score
    order; the curves hold one point per detection."""
    tp = np.cumsum(flags)
    recalls = tp / num_gt
    precisions = tp / np.arange(1, len(flags) + 1)
    if forty_point:
        grid = [(i + 1) / 40 for i in range(40)]
    else:
        grid = [i / 10 for i in range(11)]
    total = 0.0
    for r in grid:
        attained = precisions[recalls >= r]
        total += float(attained.max()) if len(attained) else 0.0
    return total / len(grid), recalls, precisions


@dataclass
class EvalResult:
    ap: float
    recalls: np.ndarray
    precisions: np.ndarray
    matches: list  # (scene index, det index, gt index, iou)
    by_difficulty: dict  # difficulty name -> ap over that subset


def _sweep(dets_per_scene, gts_per_scene, results, difficulty):
    """Pool per-scene match results into one sweep: the number of active
    truths, true-positive flags in descending-score order, and the matches.

    With a difficulty filter, truths of other difficulties are ignored:
    detections matched to them count neither as hits nor as false
    positives, mirroring per-setting evaluation practice.
    """
    num_gt = 0
    entries = []
    matches = []
    for s, (dets, gts, result) in enumerate(zip(dets_per_scene, gts_per_scene, results)):
        active = [difficulty is None or g.difficulty.value == difficulty for g in gts]
        num_gt += sum(active)
        matched = {i: (j, iou) for i, j, iou in result.matches}
        for i, det in enumerate(dets):
            hit = matched.get(i)
            if hit is None:
                entries.append((float(det.score), s, i, False))
            elif active[hit[0]]:
                entries.append((float(det.score), s, i, True))
                matches.append((s, i, hit[0], hit[1]))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    flags = np.array([e[3] for e in entries], dtype=bool)
    return num_gt, flags, matches


DIFFICULTY_NAMES = ("Easy", "Moderate", "Hard")


def evaluate(dets_per_scene, gts_per_scene, iou_fn: Callable, iou_threshold: float,
             forty_point: bool = False) -> EvalResult:
    """Multi-scene AP with a per-difficulty breakdown.

    Scenes pair elementwise; truths are GroundTruthObject-like (box and
    difficulty attributes). Difficulties absent from the truths are
    omitted from the breakdown rather than reported as zero.
    """
    if len(dets_per_scene) != len(gts_per_scene):
        raise ValueError("detections and ground truths must pair per scene")
    results = [match(dets, [g.box for g in gts], iou_fn, iou_threshold)
               for dets, gts in zip(dets_per_scene, gts_per_scene)]
    num_gt, flags, matches = _sweep(dets_per_scene, gts_per_scene, results, None)
    if num_gt == 0:
        raise NoGroundTruth("no ground-truth objects in evaluation set")
    ap, recalls, precisions = _precision_recall(num_gt, flags, forty_point)
    by_difficulty = {}
    for name in DIFFICULTY_NAMES:
        n, fl, _ = _sweep(dets_per_scene, gts_per_scene, results, name)
        if n > 0:
            by_difficulty[name] = _precision_recall(n, fl, forty_point)[0]
    return EvalResult(ap, recalls, precisions, matches, by_difficulty)
