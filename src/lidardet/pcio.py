"""Point-cloud and label file IO plus range cropping.

Cloud files are headerless binaries of little-endian float32 records
``(x, y, z, intensity)``, 16 bytes per point. Label files are plain text,
one object per line::

    class cx cy cz l w h yaw difficulty

with ``#`` starting a comment line. Intensity is carried through IO but is
not consumed anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List

import numpy as np

from .boxgeom import Box3D
from .errors import FormatError

if TYPE_CHECKING:  # pragma: no cover
    from .bevraster import RangeSpec

RECORD_BYTES = 16


@dataclass
class PointCloud:
    """Ordered points as an (N, 4) float array of x, y, z, intensity."""

    points: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    frame_id: str = ""

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must have shape (N, 4), got {pts.shape}")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]

    @property
    def intensity(self) -> np.ndarray:
        return self.points[:, 3]


def load_cloud(path) -> PointCloud:
    """Read a binary cloud file; FormatError on bad length or non-finite data."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) % RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: size {len(data)} is not a multiple of {RECORD_BYTES} bytes")
    pts = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(-1, 4)
    if pts.size and not np.isfinite(pts).all():
        raise FormatError(f"{path}: non-finite value in cloud")
    return PointCloud(pts, frame_id=path.stem)


def save_cloud(pc: PointCloud, path) -> None:
    """Write the cloud as little-endian float32 records."""
    Path(path).write_bytes(np.ascontiguousarray(pc.points, dtype="<f4").tobytes())


def crop_range(pc: PointCloud, bounds: "RangeSpec") -> PointCloud:
    """Keep points inside the half-open box [min, max) on every axis.

    Point order is preserved; the result is a subsequence of the input.
    Applying the same crop twice is a no-op.
    """
    p = pc.points
    keep = ((p[:, 0] >= bounds.x_min) & (p[:, 0] < bounds.x_max)
            & (p[:, 1] >= bounds.y_min) & (p[:, 1] < bounds.y_max)
            & (p[:, 2] >= bounds.z_min) & (p[:, 2] < bounds.z_max))
    return PointCloud(p[keep].copy(), pc.frame_id)


class ObjectClass(Enum):
    CAR = "Car"
    BACKGROUND = "Background"


class Difficulty(Enum):
    EASY = "Easy"
    MODERATE = "Moderate"
    HARD = "Hard"


@dataclass
class GroundTruthObject:
    class_id: ObjectClass
    box: Box3D
    difficulty: Difficulty


def load_labels(path) -> List[GroundTruthObject]:
    """Parse a label file; FormatError messages carry the 1-based line number."""
    path = Path(path)
    out: List[GroundTruthObject] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 9:
            raise FormatError(f"{path}:{lineno}: expected 9 fields, got {len(fields)}")
        try:
            class_id = ObjectClass(fields[0])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unknown class {fields[0]!r}") from None
        try:
            vals = [float(v) for v in fields[1:8]]
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric box field") from None
        if not all(np.isfinite(vals)):
            raise FormatError(f"{path}:{lineno}: non-finite box field")
        try:
            difficulty = Difficulty(fields[8])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unknown difficulty {fields[8]!r}") from None
        try:
            box = Box3D(*vals)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        out.append(GroundTruthObject(class_id, box, difficulty))
    return out


def save_labels(objects: Iterable[GroundTruthObject], path) -> None:
    lines = []
    for obj in objects:
        b = obj.box
        lines.append(" ".join([obj.class_id.value]
                              + [repr(float(v)) for v in (b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw)]
                              + [obj.difficulty.value]))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
