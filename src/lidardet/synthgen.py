"""Deterministic synthetic LiDAR scenes with a per-object noise oracle.

Cars are rejection-placed without footprint overlap, sampled as surface
points on their sensor-facing faces and tops with a distance-dependent
point budget, occluded by strictly nearer cars through shared azimuth
intervals, and jittered. Each car records an injected label-noise
magnitude (applied to training targets downstream, never to the stored
ground truth), its visibility fraction, and its surviving point count;
those records are the clean reference the uncertainty analyses test
against.

Cars use a two-level profile: the front part of the footprint rises to
hood height, the rest to full height. The step breaks fore-aft symmetry
so heading is observable from geometry alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bevraster import RangeSpec
from .boxgeom import Box3D, bev_corners, intersection_area_bev
from .errors import FormatError, PlacementError, require_finite
from .pcio import (Difficulty, GroundTruthObject, ObjectClass, PointCloud,
                   finite_float, load_cloud, load_labels, read_table, save_cloud,
                   save_labels, write_table)
from .uncstats import base_angle_offset

DEFAULT_SCENE_RANGE = RangeSpec(0.0, 56.0, -20.0, 20.0, 0.0, 2.5, 0.2, 5, 0.5)

BASE_YAWS = (0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)

HOOD_FRACTION = 0.4   # leading share of the footprint at hood height
HOOD_HEIGHT = 0.55    # hood height as a share of full height


@dataclass(frozen=True)
class SceneSpec:
    """Scene layout, point-sampling law, and label-noise law.

    Placement bounds may be degenerate (min == max) to pin cars for
    tests. The per-object noise magnitude is
    base + distance * (d / d_noise)^2 + angle * (offset / (pi/4))
    + occlusion * (1 - visibility).
    """

    num_cars: int = 8
    x_min: float = 6.0
    x_max: float = 52.0
    y_min: float = -18.0
    y_max: float = 18.0
    dim_mean: tuple = (4.2, 1.8, 1.6)
    dim_std: tuple = (0.25, 0.1, 0.08)
    p_base: float = 0.8
    point_budget: int = 400
    ref_distance: float = 10.0
    density_exponent: float = 2.0
    occlusion: bool = True
    jitter_sigma: float = 0.03
    noise_base: float = 0.02
    noise_distance: float = 0.08
    noise_angle: float = 0.04
    noise_occlusion: float = 0.08
    noise_ref_distance: float = 40.0
    seed: int = 0
    range_spec: RangeSpec = DEFAULT_SCENE_RANGE

    def __post_init__(self) -> None:
        require_finite(self, ValueError)
        if self.num_cars < 0:
            raise ValueError(f"num_cars must be >= 0, got {self.num_cars}")
        if not 0.0 <= self.p_base <= 1.0:
            raise ValueError(f"p_base must be in [0, 1], got {self.p_base}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("placement bounds must satisfy min <= max")
        if self.x_min <= 0.0:
            raise ValueError("placement must keep x strictly positive")
        if self.point_budget < 0 or self.ref_distance <= 0.0:
            raise ValueError("point budget must be >= 0 with a positive reference distance")
        for name in ("jitter_sigma", "noise_base", "noise_distance", "noise_angle",
                     "noise_occlusion", "density_exponent"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.noise_ref_distance <= 0.0:
            raise ValueError("noise_ref_distance must be positive")
        if min(self.dim_mean) <= 0.0 or min(self.dim_std) < 0.0:
            raise ValueError("dimension distribution must have positive means")


@dataclass
class ObjectNoise:
    sigma_label: float
    visibility: float
    point_count: int


@dataclass
class SyntheticScene:
    cloud: PointCloud
    gts: list
    noise: list

    def __post_init__(self) -> None:
        if len(self.gts) != len(self.noise):
            raise ValueError("noise records must align one to one with ground truths")


def expected_point_count(spec: SceneSpec, distance: float) -> int:
    """Pre-occlusion point budget at a given center distance."""
    d = max(distance, 1e-6)
    return max(0, int(round(spec.point_budget * (spec.ref_distance / d) ** spec.density_exponent)))


def sigma_label_of(spec: SceneSpec, distance: float, yaw: float, visibility: float) -> float:
    offset = base_angle_offset(yaw)
    return (spec.noise_base
            + spec.noise_distance * (distance / spec.noise_ref_distance) ** 2
            + spec.noise_angle * (offset / (0.25 * math.pi))
            + spec.noise_occlusion * (1.0 - visibility))


def difficulty_of(gt, noise: ObjectNoise) -> Difficulty:
    """Distance/visibility thresholds with strict inequalities."""
    box = gt.box if hasattr(gt, "box") else gt
    d = math.hypot(box.cx, box.cy)
    if d < 25.0 and noise.visibility > 0.9:
        return Difficulty.EASY
    if d > 45.0 or noise.visibility < 0.5:
        return Difficulty.HARD
    return Difficulty.MODERATE


def _car_rectangles(l: float, w: float, h: float):
    """Sampling rectangles in the car frame: (origin, edge1, edge2, facing).

    Origins are relative to the footprint center with z measured from the
    car bottom; facing names the outward cardinal direction ('top' faces
    are always visible).
    """
    xh = 0.5 * l - HOOD_FRACTION * l
    zh = HOOD_HEIGHT * h
    def r(ox, oy, oz, e1, e2, facing):
        return (np.array([ox, oy, oz]), np.array(e1, dtype=float),
                np.array(e2, dtype=float), facing)
    return [
        r(0.5 * l, -0.5 * w, 0.0, (0, w, 0), (0, 0, zh), "+x"),
        r(xh, -0.5 * w, zh, (0, w, 0), (0, 0, h - zh), "+x"),
        r(-0.5 * l, -0.5 * w, 0.0, (0, w, 0), (0, 0, h), "-x"),
        r(xh, 0.5 * w, 0.0, (0.5 * l - xh, 0, 0), (0, 0, zh), "+y"),
        r(-0.5 * l, 0.5 * w, 0.0, (xh + 0.5 * l, 0, 0), (0, 0, h), "+y"),
        r(xh, -0.5 * w, 0.0, (0.5 * l - xh, 0, 0), (0, 0, zh), "-y"),
        r(-0.5 * l, -0.5 * w, 0.0, (xh + 0.5 * l, 0, 0), (0, 0, h), "-y"),
        r(xh, -0.5 * w, zh, (0.5 * l - xh, 0, 0), (0, w, 0), "top"),
        r(-0.5 * l, -0.5 * w, h, (xh + 0.5 * l, 0, 0), (0, w, 0), "top"),
    ]


def _sample_car_points(rng: np.random.Generator, box: Box3D, n: int) -> np.ndarray:
    """World-frame surface points on the visible rectangles of one car."""
    if n <= 0:
        return np.empty((0, 3))
    cos_y, sin_y = math.cos(box.yaw), math.sin(box.yaw)
    to_sensor = np.array([-box.cx, -box.cy])
    norm = math.hypot(*to_sensor)
    to_sensor = to_sensor / norm if norm > 0 else np.array([1.0, 0.0])
    world_normal = {
        "+x": np.array([cos_y, sin_y]), "-x": np.array([-cos_y, -sin_y]),
        "+y": np.array([-sin_y, cos_y]), "-y": np.array([sin_y, -cos_y]),
    }
    rects = []
    for origin, e1, e2, facing in _car_rectangles(box.l, box.w, box.h):
        if facing == "top" or float(world_normal[facing] @ to_sensor) > 1e-12:
            rects.append((origin, e1, e2))
    areas = np.array([np.linalg.norm(e1) * np.linalg.norm(e2) for _, e1, e2 in rects])
    counts = rng.multinomial(n, areas / areas.sum())
    chunks = []
    for (origin, e1, e2), cnt in zip(rects, counts):
        if cnt == 0:
            continue
        u = rng.random((cnt, 1))
        v = rng.random((cnt, 1))
        chunks.append(origin[None, :] + u * e1[None, :] + v * e2[None, :])
    local = np.concatenate(chunks, axis=0) if chunks else np.empty((0, 3))
    world = np.empty_like(local)
    world[:, 0] = box.cx + cos_y * local[:, 0] - sin_y * local[:, 1]
    world[:, 1] = box.cy + sin_y * local[:, 0] + cos_y * local[:, 1]
    world[:, 2] = box.z_bottom + local[:, 2]
    return world


def _place_cars(rng: np.random.Generator, spec: SceneSpec) -> list:
    boxes: list[Box3D] = []
    for i in range(spec.num_cars):
        for _ in range(1000):
            cx = rng.uniform(spec.x_min, spec.x_max)
            cy = rng.uniform(spec.y_min, spec.y_max)
            l, w, h = (max(0.5, m + s * rng.standard_normal())
                       for m, s in zip(spec.dim_mean, spec.dim_std))
            if rng.random() < spec.p_base:
                yaw = BASE_YAWS[int(rng.integers(4))]
            else:
                yaw = rng.uniform(-math.pi, math.pi)
            box = Box3D(cx, cy, 0.5 * h, l, w, h, yaw)
            if all(intersection_area_bev(box, other) <= 1e-12 for other in boxes):
                boxes.append(box)
                break
        else:
            raise PlacementError(f"could not place car {i} within 1000 attempts")
    return boxes


def generate(spec: SceneSpec) -> SyntheticScene:
    """Build one scene; identical seeds give bit-identical scenes."""
    rng = np.random.default_rng(spec.seed)
    boxes = _place_cars(rng, spec)
    dists = [math.hypot(b.cx, b.cy) for b in boxes]
    raw_points = [_sample_car_points(rng, b, expected_point_count(spec, d))
                  for b, d in zip(boxes, dists)]

    # each car shadows its full azimuth interval at any greater distance
    visibilities = []
    kept_points = []
    intervals = []
    for b in boxes:
        az = np.arctan2(bev_corners(b)[:, 1], bev_corners(b)[:, 0])
        intervals.append((float(az.min()), float(az.max())))
    for i, pts in enumerate(raw_points):
        keep = np.ones(len(pts), dtype=bool)
        if spec.occlusion and len(pts):
            az = np.arctan2(pts[:, 1], pts[:, 0])
            for j, (lo, hi) in enumerate(intervals):
                if dists[j] < dists[i] - 1e-12:
                    keep &= ~((az >= lo) & (az <= hi))
        kept = pts[keep]
        kept_points.append(kept)
        visibilities.append(float(len(kept)) / len(pts) if len(pts) else 1.0)

    pts = np.concatenate(kept_points, axis=0) if kept_points else np.empty((0, 3))
    pts = pts + rng.normal(0.0, spec.jitter_sigma, pts.shape) if len(pts) else pts
    rs = spec.range_spec
    if len(pts):
        pts[:, 0] = np.clip(pts[:, 0], rs.x_min, rs.x_max - 1e-6)
        pts[:, 1] = np.clip(pts[:, 1], rs.y_min, rs.y_max - 1e-6)
        pts[:, 2] = np.clip(pts[:, 2], rs.z_min, rs.z_max)
    intensity = rng.random((len(pts), 1))
    cloud = PointCloud(np.hstack([pts, intensity]) if len(pts) else np.empty((0, 4)),
                       frame_id=f"synth-{spec.seed}")

    gts = []
    noise = []
    for box, d, vis, kept in zip(boxes, dists, visibilities, kept_points):
        record = ObjectNoise(sigma_label=sigma_label_of(spec, d, box.yaw, vis),
                             visibility=vis, point_count=len(kept))
        noise.append(record)
        gts.append(GroundTruthObject(class_id=ObjectClass.CAR, box=box,
                                     difficulty=difficulty_of(box, record)))
    return SyntheticScene(cloud=cloud, gts=gts, noise=noise)


def generate_scenes(spec: SceneSpec, count: int) -> list:
    """Independent scenes seeded seed, seed+1, ..."""
    return [generate(replace(spec, seed=spec.seed + i)) for i in range(count)]


NOISE_FIELDS = ("index", *(f.name for f in fields(ObjectNoise)))


def save_scene(scene: SyntheticScene, out_dir, name: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_cloud(scene.cloud, out / f"{name}.bin")
    save_labels(scene.gts, out / f"{name}.txt")
    write_table(out / f"{name}_noise.csv", NOISE_FIELDS,
                ((i, *astuple(rec)) for i, rec in enumerate(scene.noise)))


def load_scene(in_dir, name: str) -> SyntheticScene:
    src = Path(in_dir)
    cloud = load_cloud(src / f"{name}.bin")
    gts = load_labels(src / f"{name}.txt")
    noise_path = src / f"{name}_noise.csv"
    rows = read_table(noise_path, NOISE_FIELDS, (int, finite_float, finite_float, int))
    if len(rows) != len(gts):  # the first missing or extra row, after the header
        raise FormatError(f"{noise_path}:{min(len(rows), len(gts)) + 2}: {len(rows)} noise "
                          f"rows for {len(gts)} objects in {name}.txt")
    return SyntheticScene(cloud=cloud, gts=gts, noise=[ObjectNoise(*r[1:]) for r in rows])


def scene_names(in_dir) -> list:
    return sorted(p.stem for p in Path(in_dir).glob("*.bin"))
