"""BEV rasterization: per-slice max-height maps plus a log-scaled density map.

The grid is one row-major (H, W, S + 1) array, ``row`` indexing x (forward)
and ``col`` indexing y (lateral); per cell, S height slices, then density.
Height slices hold the maximum absolute z of the points falling in each
cell and slice; empty cells carry the ``z_min`` sentinel. Density is
``min(1, ln(N + 1) / ln 16)`` for the per-cell point count N over all
slices, so 15 points saturate a cell.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, SpecError, require_finite
from .pcio import PointCloud

GRID_MAGIC = b"BEVG"
GRID_VERSION = 1
HEADER_BYTES = 32
_HEADER_FMT = "<4sIIIIfff"  # magic, version, H, W, C, res, x_min, y_min


def _integral(extent: float, step: float, what: str) -> int:
    n = extent / step
    rounded = round(n)
    if rounded < 1 or abs(n - rounded) > 1e-6:
        raise SpecError(f"{what} extent {extent} is not a positive multiple of {step}")
    return int(rounded)


@dataclass(frozen=True)
class RangeSpec:
    """Crop bounds and grid geometry; validated on construction.

    The defaults are the paper's grid: 70 m forward by 80 m across at
    0.1 m (700 x 800 cells), five 0.5 m height slices from the ground.
    """

    x_min: float = 0.0
    x_max: float = 70.0
    y_min: float = -40.0
    y_max: float = 40.0
    z_min: float = 0.0
    z_max: float = 2.5
    xy_resolution: float = 0.1
    num_slices: int = 5
    slice_height: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self, SpecError)
        if self.xy_resolution <= 0.0:
            raise SpecError(f"xy_resolution must be positive, got {self.xy_resolution}")
        if self.slice_height <= 0.0:
            raise SpecError(f"slice_height must be positive, got {self.slice_height}")
        if self.num_slices < 1:
            raise SpecError(f"num_slices must be >= 1, got {self.num_slices}")
        for lo, hi, ax in ((self.x_min, self.x_max, "x"), (self.y_min, self.y_max, "y"),
                           (self.z_min, self.z_max, "z")):
            if not hi > lo:
                raise SpecError(f"{ax}_max must exceed {ax}_min, got [{lo}, {hi}]")
        _integral(self.x_max - self.x_min, self.xy_resolution, "x")
        _integral(self.y_max - self.y_min, self.xy_resolution, "y")
        if abs(self.num_slices * self.slice_height - (self.z_max - self.z_min)) > 1e-9:
            raise SpecError("num_slices * slice_height must equal the z extent")

    @property
    def n_rows(self) -> int:
        return _integral(self.x_max - self.x_min, self.xy_resolution, "x")

    @property
    def n_cols(self) -> int:
        return _integral(self.y_max - self.y_min, self.xy_resolution, "y")


@dataclass
class BevGrid:
    """``cells`` (H, W, S + 1): the height slices, z_min where a cell slice is
    empty, then density in [0, 1]. ``heights`` and ``density`` are views of it."""

    cells: np.ndarray
    spec: RangeSpec

    @property
    def heights(self) -> np.ndarray:
        return self.cells[..., :-1]

    @property
    def density(self) -> np.ndarray:
        return self.cells[..., -1]

    @property
    def channels(self) -> int:
        return self.cells.shape[-1]


def rasterize(pc: PointCloud, spec: RangeSpec) -> BevGrid:
    """Grid a cloud into height slices and a density map.

    Points outside the spec bounds are ignored rather than rejected; a
    point exactly at ``z_max`` lands in the top slice. The accumulation
    uses sequential reductions, so results are bit-identical for a given
    input ordering (and max/count are order-free anyway).
    """
    H, W, S = spec.n_rows, spec.n_cols, spec.num_slices
    cells = np.full((H, W, S + 1), spec.z_min, dtype=np.float64)
    p = pc.points
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    keep = ((x >= spec.x_min) & (x < spec.x_max)
            & (y >= spec.y_min) & (y < spec.y_max)
            & (z >= spec.z_min) & (z <= spec.z_max))
    x, y, z = x[keep], y[keep], z[keep]
    rows = np.floor((x - spec.x_min) / spec.xy_resolution).astype(np.int64)
    cols = np.floor((y - spec.y_min) / spec.xy_resolution).astype(np.int64)
    slices = np.floor((z - spec.z_min) / spec.slice_height).astype(np.int64)
    np.clip(slices, 0, S - 1, out=slices)
    cell = rows * W + cols
    np.maximum.at(cells.reshape(-1), cell * (S + 1) + slices, z)
    counts = np.bincount(cell, minlength=H * W).reshape(H, W)
    cells[..., -1] = np.minimum(1.0, np.log(counts + 1.0) / math.log(16.0))
    return BevGrid(cells, spec)


def write_grid(grid: BevGrid, path) -> None:
    """Binary grid blob: 32-byte header then ``grid.cells`` as row-major float32."""
    spec = grid.spec
    header = struct.pack(_HEADER_FMT, GRID_MAGIC, GRID_VERSION,
                         spec.n_rows, spec.n_cols, grid.channels,
                         spec.xy_resolution, spec.x_min, spec.y_min)
    assert len(header) == HEADER_BYTES
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(grid.cells.astype("<f4").tobytes())


def read_grid(path):
    """Read a grid blob; returns (heights, density, meta dict)."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES:
            raise FormatError(f"{path}: truncated grid header")
        magic, version, H, W, C, res, x_min, y_min = struct.unpack(_HEADER_FMT, header)
        if magic != GRID_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != GRID_VERSION:
            raise FormatError(f"{path}: grid version {version}, expected {GRID_VERSION}")
        if C < 2:
            raise FormatError(f"{path}: {C} channels; a grid has height slices and density")
        body = fh.read()
    if len(body) != 4 * H * W * C:
        raise FormatError(f"{path}: expected {H * W * C} values, got {len(body)} bytes")
    # checked before the cast, which warns on a signalling nan
    values = np.frombuffer(body, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value in grid")
    stacked = values.astype(np.float64).reshape(H, W, C)
    meta = {"version": version, "rows": H, "cols": W, "channels": C,
            "resolution": float(res), "x_min": float(x_min), "y_min": float(y_min)}
    return stacked[:, :, :-1], stacked[:, :, -1], meta
