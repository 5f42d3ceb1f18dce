"""BEV rasterization against a brute-force per-point oracle."""

import math
import struct

import numpy as np
import pytest

from lidardet.bevraster import RangeSpec, rasterize, read_grid, write_grid
from lidardet.errors import FormatError, SpecError
from lidardet.pcio import PointCloud

FULL_RANGE = RangeSpec()
SMALL = RangeSpec(0.0, 8.0, -4.0, 4.0, 0.0, 2.5, 0.5, 5, 0.5)


def brute_raster(points, spec):
    """Independent loop-per-point reference rasterizer."""
    h = int(round((spec.x_max - spec.x_min) / spec.xy_resolution))
    w = int(round((spec.y_max - spec.y_min) / spec.xy_resolution))
    heights = np.full((h, w, spec.num_slices), spec.z_min)
    counts = np.zeros((h, w), dtype=int)
    for x, y, z in points[:, :3]:
        if not (spec.x_min <= x < spec.x_max and spec.y_min <= y < spec.y_max
                and spec.z_min <= z <= spec.z_max):
            continue
        r = int(math.floor((x - spec.x_min) / spec.xy_resolution))
        c = int(math.floor((y - spec.y_min) / spec.xy_resolution))
        s = min(int(math.floor((z - spec.z_min) / spec.slice_height)),
                spec.num_slices - 1)
        heights[r, c, s] = max(heights[r, c, s], z)
        counts[r, c] += 1
    density = np.minimum(1.0, np.log(counts + 1.0) / np.log(16.0))
    return heights, density


def _cloud(rng, n, spec):
    pts = np.column_stack([
        rng.uniform(spec.x_min, spec.x_max - 1e-9, n),
        rng.uniform(spec.y_min, spec.y_max - 1e-9, n),
        rng.uniform(spec.z_min, spec.z_max, n),
        rng.uniform(0, 1, n),
    ])
    return PointCloud(points=pts, frame_id="r")


class TestGridShape:
    def test_full_scale_grid_dimensions(self):
        pc = PointCloud(points=np.zeros((0, 4)), frame_id="")
        grid = rasterize(pc, FULL_RANGE)
        assert grid.heights.shape == (700, 800, 5)
        assert grid.density.shape == (700, 800)

    def test_empty_cloud_all_sentinel(self):
        grid = rasterize(PointCloud(points=np.zeros((0, 4)), frame_id=""), SMALL)
        assert np.all(grid.heights == SMALL.z_min)
        assert np.all(grid.density == 0.0)

    def test_empty_cloud_is_the_blank_cell_everywhere(self):
        # as bits, so a -0.0 density would not pass for the blank 0.0
        spec = RangeSpec(0.0, 8.0, -4.0, 4.0, -0.3, 2.2, 0.5, 5, 0.5)
        grid = rasterize(PointCloud(points=np.zeros((0, 4)), frame_id=""), spec)
        blank = np.array([-0.3] * 5 + [0.0])
        assert grid.cells.shape == (16, 16, 6)
        np.testing.assert_array_equal(grid.cells.view(np.uint64),
                                      np.broadcast_to(blank.view(np.uint64), (16, 16, 6)))

    def test_heights_and_density_are_views_of_cells(self):
        grid = rasterize(_cloud(np.random.default_rng(3), 500, SMALL), SMALL)
        assert grid.channels == grid.cells.shape[-1] == SMALL.num_slices + 1
        assert np.shares_memory(grid.heights, grid.cells)
        assert np.shares_memory(grid.density, grid.cells)
        grid.heights[2, 3, 1] = 7.5
        grid.density[4, 5] = 0.25
        assert grid.cells[2, 3, 1] == 7.5 and grid.cells[4, 5, -1] == 0.25


class TestDensityLaw:
    @pytest.mark.parametrize("n", [0, 1, 3, 15, 50])
    def test_exact_values(self, n):
        # n points stacked in one cell
        pts = np.tile([0.25, -3.75, 1.0, 0.5], (n, 1))
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        expect = min(1.0, math.log(n + 1) / math.log(16))
        assert abs(grid.density[0, 0] - expect) < 1e-12

    def test_density_saturates_at_one(self):
        pts = np.tile([0.25, -3.75, 1.0, 0.5], (500, 1))
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        assert grid.density[0, 0] == 1.0

    def test_density_counts_all_slices_together(self):
        pts = np.array([[0.25, -3.75, 0.1, 0.5],
                        [0.25, -3.75, 2.4, 0.5],
                        [0.25, -3.75, 1.3, 0.5]])
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        assert abs(grid.density[0, 0] - math.log(4) / math.log(16)) < 1e-12


class TestHeightSlices:
    def test_max_height_per_slice(self):
        pts = np.array([[0.25, -3.75, 0.10, 0.5],
                        [0.25, -3.75, 0.40, 0.5],
                        [0.25, -3.75, 1.95, 0.5]])
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        assert grid.heights[0, 0, 0] == 0.40
        assert grid.heights[0, 0, 3] == 1.95
        assert grid.heights[0, 0, 1] == SMALL.z_min
        assert grid.heights[0, 0, 2] == SMALL.z_min

    def test_top_boundary_clamps_into_last_slice(self):
        pts = np.array([[0.25, -3.75, 2.5, 0.5]])
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        assert grid.heights[0, 0, 4] == 2.5

    def test_height_within_slice_upper_bound(self):
        rng = np.random.default_rng(3)
        grid = rasterize(_cloud(rng, 4000, SMALL), SMALL)
        for s in range(SMALL.num_slices):
            top = SMALL.z_min + (s + 1) * SMALL.slice_height
            filled = grid.heights[:, :, s] > SMALL.z_min
            assert np.all(grid.heights[:, :, s][filled] <= top + 1e-12)

    def test_cell_assignment_floor_rule(self):
        pts = np.array([[0.5, -3.5, 0.2, 0.1]])
        grid = rasterize(PointCloud(points=pts, frame_id=""), SMALL)
        # row floor((0.5-0)/0.5)=1, col floor((-3.5+4)/0.5)=1
        assert grid.heights[1, 1, 0] == 0.2
        assert grid.density[1, 1] > 0.0


class TestBruteForceOracle:
    def test_twenty_random_clouds(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            n = int(rng.integers(0, 3000))
            pc = _cloud(rng, n, SMALL)
            grid = rasterize(pc, SMALL)
            ref_h, ref_d = brute_raster(pc.points, SMALL)
            np.testing.assert_array_equal(grid.heights, ref_h)
            np.testing.assert_allclose(grid.density, ref_d, atol=1e-12)

    def test_density_range(self):
        rng = np.random.default_rng(77)
        grid = rasterize(_cloud(rng, 5000, SMALL), SMALL)
        assert np.all(grid.density >= 0.0) and np.all(grid.density <= 1.0)


class TestGridFile:
    def test_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = rasterize(_cloud(rng, 1500, SMALL), SMALL)
        path = tmp_path / "g.bin"
        write_grid(grid, path)
        heights, density, meta = read_grid(path)
        np.testing.assert_array_equal(heights, grid.heights.astype(np.float32))
        np.testing.assert_array_equal(density, grid.density.astype(np.float32))
        assert meta["rows"] == SMALL.n_rows and meta["cols"] == SMALL.n_cols

    def test_blob_body_is_the_cells_as_float32(self, tmp_path):
        grid = rasterize(_cloud(np.random.default_rng(8), 1500, SMALL), SMALL)
        path = tmp_path / "g.bin"
        write_grid(grid, path)
        assert path.read_bytes()[32:] == grid.cells.astype("<f4").tobytes()

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            read_grid(path)

    @staticmethod
    def _small_blob(tmp_path):
        tiny = RangeSpec(0.0, 1.0, -0.5, 0.5, 0.0, 1.0, 0.5, 2, 0.5)
        path = tmp_path / "g.bin"
        write_grid(rasterize(_cloud(np.random.default_rng(4), 20, tiny), tiny), path)
        return path.read_bytes()

    # the small blob is 32 header bytes, then 2 x 2 cells x 3 float32 channels
    @pytest.mark.parametrize("mutate,words", [
        (lambda b: b[:4] + struct.pack("<I", 99) + b[8:], "version 99"),
        (lambda b: b[:16] + struct.pack("<I", 1) + b[20:48], "1 channels"),
        (lambda b: b[:16] + struct.pack("<I", 0) + b[20:32], "0 channels"),
        (lambda b: b[:36] + struct.pack("<f", math.nan) + b[40:], "non-finite"),
        (lambda b: b[:-4] + struct.pack("<f", -math.inf), "non-finite"),
    ], ids=["version", "one-channel", "no-channel", "nan-height", "inf-density"])
    def test_read_rejects_bad_header_or_body(self, tmp_path, mutate, words):
        path = tmp_path / "bad.bin"
        path.write_bytes(mutate(self._small_blob(tmp_path)))
        with pytest.raises(FormatError, match=words):
            read_grid(path)

    def test_truncated_grid_is_format_error_at_every_length(self, tmp_path):
        blob = self._small_blob(tmp_path)
        read_grid(tmp_path / "g.bin")
        path = tmp_path / "cut.bin"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                read_grid(path)

    def test_seeded_truncations_and_bit_flips(self, tmp_path):
        # each damaged blob raises FormatError or reads back as finite arrays
        # of the shape its header states
        path = tmp_path / "g.bin"
        write_grid(rasterize(_cloud(np.random.default_rng(6), 1500, SMALL), SMALL), path)
        blob = path.read_bytes()
        rng = np.random.default_rng(26)
        variants = [blob[:cut] for cut in rng.integers(0, len(blob), 16)]
        # and the top exponent bit (bit 6 of the last byte) of eight values in
        # [1, 2), which turns each into an inf or a nan
        body = np.frombuffer(blob[32:], dtype="<f4")
        ones = rng.choice(np.flatnonzero((body >= 1.0) & (body < 2.0)), 8, replace=False)
        tops = [8 * (32 + 4 * int(i) + 3) + 6 for i in ones]
        for bit in [*rng.choice(8 * len(blob), 128, replace=False), *tops]:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        rejected = 0
        for damaged in variants:
            path.write_bytes(damaged)
            try:
                heights, density, meta = read_grid(path)
            except FormatError:
                rejected += 1
                continue
            assert np.isfinite(heights).all() and np.isfinite(density).all()
            assert heights.shape == (meta["rows"], meta["cols"], meta["channels"] - 1)
            assert density.shape == (meta["rows"], meta["cols"])
        assert rejected >= 16 + len(tops)

    def test_spec_validation(self):
        with pytest.raises(SpecError):
            RangeSpec(0.0, 7.03, -4.0, 4.0, 0.0, 2.5, 0.5, 5, 0.5)
        with pytest.raises(SpecError):
            RangeSpec(0.0, 8.0, -4.0, 4.0, 0.0, 2.0, 0.5, 5, 0.5)
