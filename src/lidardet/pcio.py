"""Point-cloud, label and CSV table IO.

Cloud files are headerless binaries of little-endian float32 records
``(x, y, z, intensity)``, 16 bytes per point. Label files are plain text,
one object per line::

    class cx cy cz l w h yaw difficulty

with ``#`` starting a comment line. Intensity is carried through IO but is
not consumed anywhere downstream. Every CSV artifact (train log,
detections, records, scene noise, precision-recall sweep, analyses) is
written by ``write_table``; the CSV inputs are read back by ``read_table``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, List

import numpy as np

from .boxgeom import Box3D
from .errors import FormatError

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


def read_text(path) -> str:
    """The contents of a UTF-8 text file. A byte sequence that is not UTF-8
    raises ``FormatError("<path>:<line>: ...")``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} "
                          f"at offset {exc.start}") from None


def load_labels(path) -> List[GroundTruthObject]:
    """Parse a label file; FormatError messages carry the 1-based line number."""
    path = Path(path)
    out: List[GroundTruthObject] = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
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


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_table(path, header, rows) -> None:
    """Write a CSV header line, then one line per row: a float cell (Python
    or numpy) as ``repr(float(v))``, so it reads back bit for bit, ``None``
    as an empty cell and any other value by ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def finite_float(text: str) -> float:
    """Column type for ``read_table``: a float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


def positive_float(text: str) -> float:
    """Column type for ``read_table``: a finite float above zero."""
    if (value := finite_float(text)) <= 0.0:
        raise ValueError(f"non-positive {text!r}")
    return value


def read_table(path, header, types) -> list:
    """Rows of a ``write_table`` file, each cell parsed by its column's entry
    in ``types`` (``str``, ``int``, ``float``, ``finite_float``...). A header
    other than ``header``, a row of the wrong width or a cell its parser
    rejects raises ``FormatError("<path>:<line>: ...")``; so do bytes that are
    not UTF-8 and a field over the csv module's size limit."""
    rows = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        if next(reader, None) != list(header):
            raise FormatError(f"{path}:1: expected header {','.join(header)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
            cells = []
            for name, parse, text in zip(header, types, row):
                try:
                    cells.append(parse(text))
                except ValueError:
                    raise FormatError(f"{where}: bad {name} {text!r}") from None
            rows.append(cells)
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    return rows
