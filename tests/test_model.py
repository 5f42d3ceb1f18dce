"""Two-stage detector: features, parameters, optimizer, training, inference."""

import functools
import math
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lidardet.bevraster import BevGrid, RangeSpec, rasterize
from lidardet.boxgeom import Box3D, aa_envelope
from lidardet.codec import assign, encode_rpn
from lidardet.errors import FormatError, OutOfGrid, ShapeError
from lidardet.losses import LOSS_STAGES, LossBreakdown
from lidardet.model import (LV_CLIP, STAGE1_CELLS, STAGE1_HEADS, STAGE2_HEADS,
                            AnchorLayout, Detection, InferConfig,
                            ModelParams, StepBatch, TrainConfig,
                            adam_step, anchor_features, apply_label_noise,
                            build_anchor_set, build_training_set, cell_range,
                            dropout_mask, feature_length, featurize, gradcheck, infer,
                            init_adam, init_params, load_detections,
                            load_params, lr_schedule, named_arrays, run_batch,
                            save_detections, save_params, stage1_backward,
                            stage1_forward, stage2_backward, stage2_forward,
                            train)
from lidardet.model import _block_spans, _pool_stats, _reduce_blocks, _stage1_blocks
from lidardet.model import _top_k as model_top_k
from lidardet.pcio import PointCloud
from lidardet.synthgen import DEFAULT_SCENE_RANGE, SceneSpec, generate_scenes

SMALL = RangeSpec(0.0, 16.0, -8.0, 8.0, 0.0, 2.5, 0.5, 5, 0.5)
# an LDET v1 blob (feature length 8, hidden widths 3 and 2, every array
# nonzero) written by the per-stage parameter code that preceded the flat
# buffer
FIXTURE = Path(__file__).parent / "data" / "params_v1.bin"


def small_grid(seed=0, n=600):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, 16, n), rng.uniform(-8, 8, n),
                           rng.uniform(0, 2.5, n), rng.random(n)])
    return rasterize(PointCloud(pts.astype(np.float64), "t"), SMALL)


def brute_pool(heights, density, blocks, z_min):
    """Loop reference for block pooling of one window."""
    rows = np.array_split(np.arange(heights.shape[0]), blocks)
    cols = np.array_split(np.arange(heights.shape[1]), blocks)
    parts = []
    for rc in rows:
        for cc in cols:
            if len(rc) == 0 or len(cc) == 0:
                parts += [np.full(heights.shape[2], z_min),
                          np.full(heights.shape[2], z_min), np.zeros(2)]
                continue
            hs = heights[np.ix_(rc, cc)]
            ds = density[np.ix_(rc, cc)]
            parts += [hs.max(axis=(0, 1)), hs.mean(axis=(0, 1)),
                      np.array([ds.mean(), ds.max()])]
    return np.concatenate(parts)


class TestPooling:
    def test_feature_length_formula(self):
        assert feature_length(5, 3) == 9 * 12 + 4
        assert feature_length(1, 1) == 4 + 4
        assert feature_length(6, 2) == 4 * 14 + 4

    def test_pool_stats_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        for blocks in (1, 2, 3):
            for shape in ((6, 7, 3), (2, 9, 4), (1, 1, 2)):
                h = rng.normal(size=shape)
                d = rng.random(shape[:2])
                got = _pool_stats(np.dstack([h, d]), blocks, z_min=-5.0)
                np.testing.assert_allclose(got, brute_pool(h, d, blocks, -5.0),
                                           atol=1e-12)

    def test_pool_stats_batched_equals_per_item(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 5, 6, 3))
        d = rng.random((4, 5, 6))
        cells = np.concatenate([h, d[..., None]], axis=-1)
        batched = _pool_stats(cells, 2, z_min=0.0)
        for b in range(4):
            np.testing.assert_allclose(batched[b], _pool_stats(cells[b], 2, 0.0), atol=1e-12)

    def test_block_spans_match_array_split(self):
        for n in range(61):
            for k in range(1, 6):
                chunks = [c for c in np.array_split(np.arange(n), k) if len(c)]
                assert _block_spans(n, k) == ([int(c[0]) for c in chunks],
                                              [len(c) for c in chunks])

    def test_reduce_blocks_equal_reduceat_bit_for_bit(self):
        # block lengths 1..140 reach the left fold (< 8 terms after the first),
        # the 8 lanes (8..128) and the halving (> 128) of numpy's pairwise sum
        rng = np.random.default_rng(4)
        a = rng.normal(size=(400, 3, 2)) * np.exp(rng.uniform(-30.0, 30.0, (400, 3, 2)))
        a[rng.random(a.shape) < 0.05] = 0.0
        a[rng.random(a.shape) < 0.05] = -0.0
        lengths = rng.permutation(np.arange(1, 141)).reshape(35, 4)
        starts = rng.integers(0, len(a) - lengths + 1)
        # repeated pairs, and one start with two lengths
        starts[1], lengths[1] = starts[0], lengths[0]
        starts[2, 0] = starts[2, 1]
        for ufunc in (np.maximum, np.add):
            table, at = _reduce_blocks(ufunc, a, starts, lengths)
            assert at.shape == starts.shape
            assert len(table) == len(set(zip(starts.flat, lengths.flat)))
            want = np.stack([ufunc.reduceat(a[s:s + n], [0], axis=0)[0]
                             for s, n in zip(starts.flat, lengths.flat)])
            # bit patterns, so that the sign of a zero counts too
            np.testing.assert_array_equal(table[at.ravel()].view(np.uint64),
                                          want.view(np.uint64))

    def test_featurize_matches_brute_pool_on_random_clipped_windows(self):
        grid = small_grid(9)
        spec, res = grid.spec, grid.spec.xy_resolution
        rng = np.random.default_rng(21)
        tiny = 0
        for _ in range(300):
            blocks = int(rng.integers(1, 5))
            # unclipped first/last cells, each window meeting the grid; a
            # footprint reaching a quarter cell past the end centers covers
            # exactly those cells
            n_r, n_c = rng.choice([1, 1, 2, 3, 5, 8, 13], 2)
            r_lo = int(rng.integers(1 - n_r, spec.n_rows))
            c_lo = int(rng.integers(1 - n_c, spec.n_cols))
            x0 = spec.x_min + (r_lo + 0.25) * res
            y0 = spec.y_min + (c_lo + 0.25) * res
            l, w = (n_r - 0.5) * res, (n_c - 0.5) * res
            cand = Box3D(x0 + 0.5 * l, y0 + 0.5 * w, 0.8, l, w, 1.5, 0.0)
            rows = slice(max(r_lo, 0), min(r_lo + n_r, spec.n_rows))
            cols = slice(max(c_lo, 0), min(c_lo + n_c, spec.n_cols))
            window_h, window_d = grid.heights[rows, cols], grid.density[rows, cols]
            tiny += min(window_d.shape) < blocks
            want = np.concatenate([brute_pool(window_h, window_d, blocks, spec.z_min),
                                   [l, w, 1.5, 0.8]])
            np.testing.assert_allclose(featurize(grid, cand, blocks), want, rtol=0.0,
                                       atol=1e-12)
        assert tiny > 50  # windows smaller than the block layout, 1x1 among them

    def test_window_smaller_than_blocks_pads_with_sentinel(self):
        cells = np.array([[[3.0, 3.0, 1.0]]])
        out = _pool_stats(cells, 2, z_min=-1.0)
        # 4 blocks x (2 max, 2 mean, 2 density); 3 blocks are empty
        assert out.shape == (24,)
        assert np.count_nonzero(out == -1.0) == 12


class TestFeaturize:
    def test_vector_layout(self):
        grid = small_grid()
        cand = Box3D(8.0, 0.0, 0.9, 4.0, 2.0, 1.6, 0.3)
        f = featurize(grid, cand)
        assert f.shape == (feature_length(5, 3),)
        np.testing.assert_allclose(f[-4:], [4.0, 2.0, 1.6, 0.9])

    def test_matches_center_rule_window(self):
        grid = small_grid(3)
        cand = Box3D(7.3, -1.2, 0.8, 5.0, 3.0, 1.5, 0.0)
        spec = grid.spec
        centers_r = spec.x_min + (np.arange(spec.n_rows) + 0.5) * spec.xy_resolution
        centers_c = spec.y_min + (np.arange(spec.n_cols) + 0.5) * spec.xy_resolution
        rs = np.where((centers_r >= cand.cx - 2.5) & (centers_r <= cand.cx + 2.5))[0]
        cs = np.where((centers_c >= cand.cy - 1.5) & (centers_c <= cand.cy + 1.5))[0]
        window_h = grid.heights[np.ix_(rs, cs)]
        window_d = grid.density[np.ix_(rs, cs)]
        want = np.concatenate([brute_pool(window_h, window_d, 3, spec.z_min),
                               [5.0, 3.0, 1.5, 0.8]])
        np.testing.assert_allclose(featurize(grid, cand), want, atol=1e-12)

    def test_yawed_candidate_pools_envelope(self):
        grid = small_grid(4)
        yawed = Box3D(8.0, 0.0, 0.8, 4.0, 2.0, 1.5, math.pi / 2)
        swapped = Box3D(8.0, 0.0, 0.8, 2.0, 4.0, 1.5, 0.0)
        np.testing.assert_allclose(featurize(grid, yawed)[:-4],
                                   featurize(grid, swapped)[:-4], atol=1e-12)

    def test_footprint_between_cell_centers_is_zero_vector(self):
        grid = small_grid()
        tiny = Box3D(8.05, 0.05, 0.8, 0.15, 0.15, 1.5, 0.0)
        assert not featurize(grid, tiny).any()

    def test_candidate_off_grid_raises(self):
        grid = small_grid()
        with pytest.raises(OutOfGrid):
            featurize(grid, Box3D(100.0, 0.0, 0.8, 4.0, 2.0, 1.5, 0.0))

    def test_border_candidate_clips(self):
        grid = small_grid()
        f = featurize(grid, Box3D(0.5, -7.8, 0.8, 4.0, 2.0, 1.5, 0.0))
        assert f.shape == (feature_length(5, 3),)
        assert np.all(np.isfinite(f))


class TestAnchors:
    LAYOUT = AnchorLayout(shapes=((4.2, 1.8, 1.6), (3.4, 1.6, 1.4)), stride=4)

    def test_lattice_count_and_order(self):
        aset = build_anchor_set(self.LAYOUT, SMALL)
        lat_rows, lat_cols = range(2, SMALL.n_rows, 4), range(2, SMALL.n_cols, 4)
        lat = len(lat_rows) * len(lat_cols)
        assert len(aset) == 2 * 2 * lat
        # shape-major, then the unswapped bin, then the swapped one; each
        # (shape, bin) block is the whole lattice in row-major order
        dims = [(4.2, 1.8, 1.6), (1.8, 4.2, 1.6), (3.4, 1.6, 1.4), (1.6, 3.4, 1.4)]
        for k, want in enumerate(dims):
            block = slice(k * lat, (k + 1) * lat)
            for got, v in zip((aset.l, aset.w, aset.h), want):
                assert (got[block] == v).all()
            np.testing.assert_array_equal(aset.rows[block], np.repeat(lat_rows, len(lat_cols)))
            np.testing.assert_array_equal(aset.cols[block], np.tile(lat_cols, len(lat_rows)))

    def test_bin90_swaps_extents(self):
        aset = build_anchor_set(self.LAYOUT, SMALL)
        lat = len(aset) // 4
        # the first anchor of shape 0 is in the unswapped bin, the lat-th in
        # the swapped one
        assert (aset.l[0], aset.w[0]) == (4.2, 1.8)
        assert (aset.l[lat], aset.w[lat]) == (1.8, 4.2)
        assert aset.h[0] == aset.h[lat] == 1.6

    def test_centers_are_cell_centers(self):
        aset = build_anchor_set(self.LAYOUT, SMALL)
        np.testing.assert_allclose(
            aset.cx, SMALL.x_min + (aset.rows + 0.5) * SMALL.xy_resolution)
        np.testing.assert_allclose(
            aset.cy, SMALL.y_min + (aset.cols + 0.5) * SMALL.xy_resolution)
        box = aset.box(5)
        assert box.yaw == 0.0 and box.cz == self.LAYOUT.z_center

    def test_anchor_features_match_single_path(self):
        grid = small_grid(7)
        aset = build_anchor_set(self.LAYOUT, SMALL)
        feats = anchor_features(grid, aset, pool_blocks=2)
        idx = np.linspace(0, len(aset) - 1, 40).astype(int)
        for i in idx:
            np.testing.assert_allclose(
                feats[i], featurize(grid, aset.box(int(i)), 2), atol=1e-9)

    def test_cell_range_covers_whole_cells_at_every_offset(self):
        for origin in (0.0, -20.0, -40.0):
            cx = origin + (np.arange(4000) + 0.5) * 0.2
            first, last = cell_range(cx - 2.0, cx + 2.0, origin, 0.2)
            assert np.all(last - first + 1 == 21)
            assert cell_range(float(cx[7]) - 2.0, float(cx[7]) + 2.0, origin, 0.2) \
                == (first[7], last[7])
        assert cell_range(0.1, 0.5, 0.0, 0.2) == (0, 2)       # centers 0.1, 0.3, 0.5
        assert cell_range(-0.29, 0.29, 0.0, 0.2) == (-1, 0)   # unclipped
        assert cell_range(0.11, 0.29, 0.0, 0.2) == (1, 0)     # no center: empty

    def test_anchor_features_equal_featurize_on_every_row(self):
        # half-lengths of 2.0 m, 0.8 m and 2.2 m are whole numbers of cells,
        # so footprint edges fall on cell centers
        spec = RangeSpec(0.0, 16.0, -8.0, 8.0, 0.0, 2.5, 0.2, 5, 0.5)
        rng = np.random.default_rng(11)
        n = 40000
        pts = np.column_stack([rng.uniform(0, 16, n), rng.uniform(-8, 8, n),
                               rng.uniform(0, 2.5, n), rng.random(n)])
        grid = rasterize(PointCloud(pts, "t"), spec)
        layout = AnchorLayout(shapes=((4.0, 1.6, 1.5), (4.4, 1.8, 1.5)), stride=4)
        aset = build_anchor_set(layout, spec)
        feats = anchor_features(grid, aset, pool_blocks=3)
        want = np.stack([featurize(grid, aset.box(i), 3) for i in range(len(aset))])
        np.testing.assert_allclose(feats[:], want, rtol=0.0, atol=1e-9)
        # a subset in any order pools as the whole set does
        idx = rng.permutation(len(aset))[:300]
        np.testing.assert_array_equal(anchor_features(grid, aset.take(idx), 3)[:], feats[idx])

    def test_anchor_features_equal_featurize_bit_for_bit(self):
        # the lattice path and featurize run the same reductions in the same order
        grid = small_grid(5, n=3000)
        aset = build_anchor_set(self.LAYOUT, SMALL)
        for blocks in (1, 2, 3, 4):
            want = np.stack([featurize(grid, aset.box(i), blocks) for i in range(len(aset))])
            np.testing.assert_array_equal(anchor_features(grid, aset, blocks)[:], want)

    def test_anchor_features_equal_featurize_bit_for_bit_at_fine_resolution(self):
        # at 0.1 m the 4.4 m side pools 15- and 14-cell blocks, whose sums take
        # the 8-lane branch of the pairwise sum; the 1.6 m side takes the fold
        spec = RangeSpec(0.0, 16.0, -8.0, 8.0, 0.0, 2.5, 0.1, 5, 0.5)
        rng = np.random.default_rng(17)
        n = 30000
        pts = np.column_stack([rng.uniform(0, 16, n), rng.uniform(-8, 8, n),
                               rng.uniform(0, 2.5, n), rng.random(n)])
        grid = rasterize(PointCloud(pts, "t"), spec)
        layout = AnchorLayout(shapes=((4.4, 1.6, 1.5), (3.9, 1.7, 1.5)), stride=4)
        aset = build_anchor_set(layout, spec)
        want = np.stack([featurize(grid, aset.box(i), 3) for i in range(len(aset))])
        np.testing.assert_array_equal(anchor_features(grid, aset, 3)[:], want)
        # a sparse subset, as build_training_set pools per scene
        idx = rng.choice(len(aset), 64, replace=False)
        np.testing.assert_array_equal(anchor_features(grid, aset.take(idx), 3)[:], want[idx])

    def test_anchor_features_peak_memory_is_small_against_its_output(self):
        # the paper's range at 0.2 m: 350 x 400 cells, 34,800 anchors; no
        # anchors x window cells temporary
        spec = RangeSpec(xy_resolution=0.2)
        rng = np.random.default_rng(13)
        n = 60000
        pts = np.column_stack([rng.uniform(0, 70, n), rng.uniform(-40, 40, n),
                               rng.uniform(0, 2.5, n), rng.random(n)])
        grid = rasterize(PointCloud(pts, "t"), spec)
        layout = AnchorLayout(shapes=((3.9, 1.6, 1.5), (4.6, 1.9, 1.6)), stride=4)
        aset = build_anchor_set(layout, spec)
        assert len(aset) == 34800
        tracemalloc.start()
        try:
            feats = anchor_features(grid, aset, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (N, F) float64 matrix is no longer built: the bound is against it
        assert peak < 2.5 * len(aset) * feats.rows.shape[1] * 8

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            AnchorLayout(shapes=((4, 2, 1.5),), stride=0)
        with pytest.raises(ValueError):
            AnchorLayout(shapes=())
        with pytest.raises(ValueError, match="z_center must be finite"):
            AnchorLayout(shapes=((4, 2, 1.5),), z_center=math.nan)


def assert_rows_bitwise(grid, aset, blocks=3, idx=None):
    """anchor_features rows (at idx, or all) equal a stack of featurize rows
    bit for bit, compared as uint64 views so signed zeros count."""
    feats = anchor_features(grid, aset, blocks)
    idx = range(len(aset)) if idx is None else idx
    want = np.stack([featurize(grid, aset.box(int(i)), blocks) for i in idx])
    np.testing.assert_array_equal(feats[list(idx)].view(np.uint64), want.view(np.uint64))
    return feats


class TestBlankWindows:
    """The two kinds of anchor window: one clipped to the grid that holds no
    occupied cell takes the one row of its clipped (rows, cols) size; an
    occupied one, at the border too, is pooled on the slabs from its clipped
    start. Every case below runs at z_min != 0, where the mean of n sentinels
    need not be z_min exactly."""

    SPEC = RangeSpec(0.0, 16.0, -8.0, 8.0, -0.3, 2.2, 0.25, 5, 0.5)
    LAYOUT = AnchorLayout(shapes=((4.2, 1.8, 1.6), (3.4, 1.6, 1.4)), stride=3)
    # detect_full's scene law (perfbench/workloads.py: FULL_SCENE)
    FULL = RangeSpec()
    FULL_SCENE = dict(num_cars=24, x_min=4.0, x_max=66.0, y_min=-36.0, y_max=36.0,
                      point_budget=1000, density_exponent=1.2)

    def blank_grid(self):
        spec = self.SPEC
        cells = np.full((spec.n_rows, spec.n_cols, spec.num_slices + 1), spec.z_min)
        cells[..., -1] = 0.0
        return BevGrid(cells, spec)

    def test_detect_full_scene_law_frames(self):
        # the benchmark's range, then the same frame at z_min = -0.3
        for z_min, z_max in ((0.0, 2.5), (-0.3, 2.2)):
            spec = replace(self.FULL, z_min=z_min, z_max=z_max)
            scene = generate_scenes(SceneSpec(seed=301, range_spec=spec, **self.FULL_SCENE),
                                    1)[0]
            grid = rasterize(scene.cloud, spec)
            aset = build_anchor_set(AnchorLayout(shapes=((3.9, 1.6, 1.5), (4.6, 1.9, 1.6))),
                                    spec)
            # featurize over all 140,000 anchors takes seconds: a seeded sample,
            # with the first and last lattice rows (border windows) in full
            rng = np.random.default_rng(301)
            edge = np.flatnonzero((aset.rows == aset.rows.min())
                                  | (aset.rows == aset.rows.max()))
            idx = np.union1d(rng.choice(len(aset), 2500, replace=False), edge)
            assert_rows_bitwise(grid, aset, 3, idx)

    def test_dense_cloud_next_to_blank_windows(self):
        # uniform points over the near 10 m: nearly every cell there is
        # occupied, and the far windows are blank
        spec, rng, n = self.SPEC, np.random.default_rng(31), 20000
        pts = np.column_stack([rng.uniform(0.0, 10.0, n), rng.uniform(-8.0, 8.0, n),
                               rng.uniform(-0.3, 2.2, n), rng.random(n)])
        grid = rasterize(PointCloud(pts, "t"), spec)
        assert (grid.density[:40] > 0).mean() > 0.9
        for blocks in (2, 3):
            assert_rows_bitwise(grid, build_anchor_set(self.LAYOUT, spec), blocks)

    def test_occupied_windows_on_every_grid_edge(self):
        # points in a 0.6 m band along each edge and in each corner cell, so
        # windows clipped at every side (and both sides at the corners) are
        # occupied and pooled on the slabs from their clipped start
        spec, rng, n = self.SPEC, np.random.default_rng(41), 400
        along_x, along_y = rng.uniform(0.0, 16.0, n), rng.uniform(-8.0, 8.0, n)
        band = rng.uniform(0.0, 0.6, n)
        xy = np.concatenate([np.column_stack([band, along_y]),
                             np.column_stack([16.0 - band, along_y]),
                             np.column_stack([along_x, -8.0 + band]),
                             np.column_stack([along_x, 8.0 - band]),
                             [[0.1, -7.9], [0.1, 7.9], [15.9, -7.9], [15.9, 7.9]]])
        pts = np.column_stack([xy, rng.uniform(-0.3, 2.2, len(xy)), rng.random(len(xy))])
        grid = rasterize(PointCloud(pts, "t"), spec)
        occupied = grid.density > 0
        assert occupied[[0, -1]].all(axis=0).mean() > 0.5
        assert occupied[:, [0, -1]].all(axis=1).mean() > 0.5
        assert occupied[[0, 0, -1, -1], [0, -1, 0, -1]].all()
        aset = build_anchor_set(self.LAYOUT, spec)
        res = spec.xy_resolution
        r0, r1 = cell_range(aset.cx - 0.5 * aset.l, aset.cx + 0.5 * aset.l, spec.x_min, res)
        c0, c1 = cell_range(aset.cy - 0.5 * aset.w, aset.cy + 0.5 * aset.w, spec.y_min, res)
        occupied_window = np.array([occupied[max(a, 0):b + 1, max(c, 0):d + 1].any()
                                    for a, b, c, d in zip(r0, r1, c0, c1)])
        for clipped in (r0 < 0, r1 >= spec.n_rows, c0 < 0, c1 >= spec.n_cols):
            assert (clipped & occupied_window).sum() > 50
        for blocks in (2, 3):
            assert_rows_bitwise(grid, aset, blocks)

    @pytest.mark.parametrize("height, density", [(1.0, 0.0), (-0.3 + 1e-12, 0.0),
                                                 (-0.3, -0.0)])
    def test_hand_built_cells_that_only_look_blank(self, height, density):
        # a real height under zero density, or a -0.0 density under sentinel
        # heights, marks its cell occupied
        grid = self.blank_grid()
        grid.heights[10:16, 20:26, 2] = height
        grid.density[10:16, 20:26] = density
        grid.heights[40, 3, 0] = height
        grid.density[40, 3] = density
        assert_rows_bitwise(grid, build_anchor_set(self.LAYOUT, self.SPEC))

    def test_point_exactly_at_z_min_is_occupied(self):
        spec = self.SPEC
        pts = np.array([[5.1, 0.3, spec.z_min, 0.5], [12.6, -7.9, spec.z_min, 0.5]])
        grid = rasterize(PointCloud(pts, "t"), spec)
        assert (grid.heights == spec.z_min).all() and grid.density.sum() > 0
        assert_rows_bitwise(grid, build_anchor_set(self.LAYOUT, spec))

    def test_empty_cloud(self):
        grid = rasterize(PointCloud(np.zeros((0, 4)), "t"), self.SPEC)
        feats = assert_rows_bitwise(grid, build_anchor_set(self.LAYOUT, self.SPEC))
        # the mean of n sentinels is not z_min for every block length
        assert (feats[:][:, :-4] != self.SPEC.z_min).any()

    def test_shuffled_subset_pools_as_the_whole_set(self):
        spec = self.SPEC
        scene = generate_scenes(SceneSpec(seed=12, num_cars=3, x_min=2.0, x_max=14.0,
                                          y_min=-6.0, y_max=6.0, range_spec=spec), 1)[0]
        grid = rasterize(scene.cloud, spec)
        aset = build_anchor_set(self.LAYOUT, spec)
        idx = np.random.default_rng(12).permutation(len(aset))[:400]
        feats = assert_rows_bitwise(grid, aset.take(idx))
        np.testing.assert_array_equal(feats[:].view(np.uint64),
                                      anchor_features(grid, aset, 3)[idx].view(np.uint64))

    @pytest.mark.parametrize("spec, layout", [
        (SPEC, LAYOUT), (FULL, AnchorLayout(shapes=((3.9, 1.6, 1.5), (4.6, 1.9, 1.6)))),
        (RangeSpec(0.0, 16.0, -8.0, 8.0, 0.0, 2.5, 0.5, 5, 0.5),
         AnchorLayout(shapes=((4.0, 4.0, 1.5), (30.0, 2.0, 1.0)), stride=2))])
    def test_window_plan_is_each_anchors_clipped_window(self, spec, layout):
        # the plan, built per lattice row and column, against each anchor's own
        # window; one code per distinct (clipped rows, clipped cols, lattice
        # dims); a square shape's two bins are two lattice dims of one l, w, h
        aset = build_anchor_set(layout, spec)
        res = spec.xy_resolution
        r0, r1 = cell_range(aset.cx - 0.5 * aset.l, aset.cx + 0.5 * aset.l, spec.x_min, res)
        c0, c1 = cell_range(aset.cy - 0.5 * aset.w, aset.cy + 0.5 * aset.w, spec.y_min, res)
        r0, c0 = np.maximum(r0, 0), np.maximum(c0, 0)
        n_r = np.minimum(r1, spec.n_rows - 1) - r0 + 1
        n_c = np.minimum(c1, spec.n_cols - 1) - c0 + 1
        for got, want in ((aset.r0, r0), (aset.c0, c0), (aset.n_r, n_r), (aset.n_c, n_c)):
            np.testing.assert_array_equal(got, want)
        n_dims = 2 * len(layout.shapes)
        keys = np.column_stack([n_r, n_c, np.repeat(np.arange(n_dims), len(aset) // n_dims)])
        distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
        assert aset.code.max() + 1 == len(distinct)
        # the same grouping: one code per key and one key per code
        assert len(set(zip(aset.code.tolist(), inverse.reshape(-1).tolist()))) == len(distinct)
        sub = np.random.default_rng(1).permutation(len(aset))[:200]
        np.testing.assert_array_equal(aset.take(sub).code, aset.code[sub])

    def frames(self):
        """Grids of different occupancy on SPEC: three scenes, empty, dense."""
        spec, rng, n = self.SPEC, np.random.default_rng(31), 20000
        scenes = generate_scenes(SceneSpec(seed=21, num_cars=3, x_min=2.0, x_max=14.0,
                                           y_min=-6.0, y_max=6.0, range_spec=spec), 3)
        pts = np.column_stack([rng.uniform(0.0, 10.0, n), rng.uniform(-8.0, 8.0, n),
                               rng.uniform(-0.3, 2.2, n), rng.random(n)])
        return ([rasterize(scene.cloud, spec) for scene in scenes] + [self.blank_grid()]
                + [rasterize(PointCloud(pts, "t"), spec)])

    def test_kept_blank_rows_equal_featurize_across_frames(self):
        # one anchor set over frames of different occupancy, pool_blocks 2 and 3
        # in turn: the blank rows it keeps from earlier frames, and those of a
        # shuffled subset that shares them, still equal featurize bit for bit
        aset = build_anchor_set(self.LAYOUT, self.SPEC)
        sub = aset.take(np.random.default_rng(5).permutation(len(aset))[:500])
        assert sub.blank_rows is aset.blank_rows
        for grid in self.frames():
            for blocks in (2, 3):
                assert_rows_bitwise(grid, aset, blocks)
                assert_rows_bitwise(grid, sub, blocks)
        assert sorted(aset.blank_rows) == [2, 3]

    def test_featurize_runs_only_for_blank_codes_not_seen_before(self, monkeypatch):
        spec = self.SPEC
        aset = build_anchor_set(self.LAYOUT, spec)
        res = spec.xy_resolution
        r0, r1 = cell_range(aset.cx - 0.5 * aset.l, aset.cx + 0.5 * aset.l, spec.x_min, res)
        c0, c1 = cell_range(aset.cy - 0.5 * aset.w, aset.cy + 0.5 * aset.w, spec.y_min, res)
        r0, c0 = np.maximum(r0, 0), np.maximum(c0, 0)
        r1, c1 = np.minimum(r1, spec.n_rows - 1), np.minimum(c1, spec.n_cols - 1)

        def blank_keys(grid):
            """(clipped rows, clipped cols, l, w, h) of each point-free window."""
            occupied = (grid.density != 0) | (grid.heights != spec.z_min).any(axis=-1)
            return {(b - a, d - c, aset.l[i], aset.w[i], aset.h[i])
                    for i, (a, b, c, d) in enumerate(zip(r0, r1, c0, c1))
                    if not occupied[a:b + 1, c:d + 1].any()}

        calls = []

        def counted(grid, box, pool_blocks=3):
            calls.append(pool_blocks)
            return featurize(grid, box, pool_blocks)

        monkeypatch.setattr("lidardet.model.featurize", counted)
        scene_a, scene_b, scene_c, empty, _ = self.frames()
        seen, new = set(), []
        for grid in (scene_a, scene_b, scene_a, scene_c, empty, scene_b):
            keys = blank_keys(grid)
            calls.clear()
            anchor_features(grid, aset, 3)
            assert calls == [3] * len(keys - seen)
            new.append((len(keys - seen), len(keys)))
            seen |= keys
        # the first frame computes every blank row; later ones reuse some and
        # add some, or none at all
        assert new[0][0] == new[0][1] > 0 and new[2][0] == new[5][0] == 0
        assert any(0 < n < of for n, of in new[1:])
        # another pool_blocks keeps its own rows
        calls.clear()
        anchor_features(scene_a, aset, 2)
        assert calls == [2] * len(blank_keys(scene_a))


class TestForwardBackward:
    def _params(self, seed=0):
        cfg = TrainConfig(seed=seed, hidden1=8, hidden2=9)
        return init_params(cfg, feat_len=12, layout=AnchorLayout(
            shapes=((4.0, 1.8, 1.5),)))

    def test_stage_views_follow_the_head_tables(self):
        params = self._params()
        for stage, heads in ((params.stage1, STAGE1_HEADS), (params.stage2, STAGE2_HEADS)):
            assert stage.heads == heads
            for head, width, _ in heads:
                assert getattr(stage, f"w_{head}").shape == (stage.w1.shape[1], width)
                assert getattr(stage, f"b_{head}").shape == (width,)

    def test_head_tables_pair_each_regression_head_and_name_its_fields(self):
        loss_names = {f.name for f in fields(LossBreakdown)}
        batch_names = {f.name for f in fields(StepBatch)}
        named = []
        for prefix, heads in LOSS_STAGES:
            assert {kind for _, _, kind in heads} <= {"cls", "reg", "lv"}
            for i, (head, width, kind) in enumerate(heads):
                if kind == "reg":
                    assert heads[i + 1][1:] == (width, "lv")
                if kind == "lv":
                    assert i > 0 and heads[i - 1][2] == "reg"
                else:
                    named.append(f"{prefix}_{head}")
        assert sorted(named) == sorted(loss_names)
        assert set(named) <= batch_names

    def test_log_variance_outputs_clipped(self):
        p = self._params().stage1
        p.b_lv[:] = 50.0
        x = np.random.default_rng(0).normal(size=(5, 12))
        _, _, lv, _ = stage1_forward(p, x)
        assert np.all(lv == LV_CLIP)
        p.b_lv[:] = -50.0
        _, _, lv, _ = stage1_forward(p, x)
        assert np.all(lv == -LV_CLIP)

    def test_saturated_log_variance_blocks_gradient(self):
        params = self._params()
        p = params.stage1
        p.b_lv[:] = 50.0
        x = np.random.default_rng(1).normal(size=(4, 12))
        logits, reg, lv, cache = stage1_forward(p, x)
        target = params.zeros_like()
        target.flat[:] = np.nan  # so the zero checks prove backward wrote zeros
        g = stage1_backward(p, cache, target.stage1, np.zeros_like(logits),
                            np.zeros_like(reg), np.ones_like(lv))
        assert not g.w_lv.any() and not g.b_lv.any()
        assert not g.w1.any()

    def test_interior_log_variance_passes_gradient(self):
        params = self._params()
        p = params.stage2
        x = np.random.default_rng(2).normal(size=(4, 12))
        out = stage2_forward(p, x)
        lv, cache = out[2], out[5]
        assert np.all(np.abs(lv) < LV_CLIP)  # zero-initialized heads
        g = stage2_backward(p, cache, params.zeros_like().stage2,
                            np.zeros((4, 2)), np.zeros((4, 10)),
                            np.ones((4, 10)), np.zeros((4, 2)), np.zeros((4, 2)))
        assert g.b_loc_lv.sum() == pytest.approx(40.0)

    def test_shape_validation(self):
        p = self._params().stage1
        with pytest.raises(ShapeError):
            stage1_forward(p, np.zeros((3, 5)))

    def test_dropout_mask_values_and_rate(self):
        rng = np.random.default_rng(3)
        mask = dropout_mask(rng, (200, 50), rate=0.4)
        assert set(np.unique(mask)).issubset({0.0, 1.0 / 0.6})
        assert np.mean(mask > 0) == pytest.approx(0.6, abs=0.02)

    def test_dropout_mask_deterministic_per_seed(self):
        a = dropout_mask(np.random.default_rng([5, 1]), (8, 8), 0.5)
        b = dropout_mask(np.random.default_rng([5, 1]), (8, 8), 0.5)
        np.testing.assert_array_equal(a, b)


class TestParams:
    LAYOUT = AnchorLayout(shapes=((4.2, 1.8, 1.6), (3.4, 1.6, 1.4)))

    def test_init_deterministic_and_shaped(self):
        cfg = TrainConfig(seed=4, hidden1=16, hidden2=24)
        a = init_params(cfg, 30, self.LAYOUT)
        b = init_params(cfg, 30, self.LAYOUT)
        for (n1, x), (n2, y) in zip(named_arrays(a), named_arrays(b)):
            assert n1 == n2
            np.testing.assert_array_equal(x, y)
        assert a.stage1.w1.shape == (30, 16)
        assert a.stage2.w1.shape == (30, 24)
        assert not a.stage1.w_lv.any() and not a.stage2.w_loc_lv.any()

    def test_layout_roundtrips_through_params(self):
        cfg = TrainConfig(seed=0, hidden1=8, hidden2=8)
        params = init_params(cfg, 12, self.LAYOUT)
        back = params.layout()
        assert back.shapes == self.LAYOUT.shapes
        assert back.stride == self.LAYOUT.stride
        assert params.pool_blocks == cfg.pool_blocks

    def test_save_load_roundtrip_is_float32_exact(self, tmp_path):
        params = init_params(TrainConfig(seed=9, hidden1=8, hidden2=8, pool_blocks=1),
                             12, self.LAYOUT)
        path = tmp_path / "model.bin"
        save_params(params, path)
        back = load_params(path)
        for (name, orig), (_, got) in zip(named_arrays(params),
                                          named_arrays(back)):
            np.testing.assert_array_equal(got,
                                          orig.astype(np.float32).astype(np.float64),
                                          err_msg=name)
        for key, val in params.meta.items():
            assert back.meta[key] == float(np.float32(val))

    def test_load_rejects_foreign_blob(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_params(path)

    def test_views_alias_one_flat_buffer_weights_first(self):
        params = init_params(TrainConfig(seed=2, hidden1=5, hidden2=7), 11, self.LAYOUT)
        params.stage1.w_reg[1, 2] = 123.0
        params.stage2.b_cls[1] = -7.5
        assert np.count_nonzero(params.flat == 123.0) == 1
        assert np.count_nonzero(params.flat == -7.5) == 1
        assert params.flat.size == sum(v.size for v in params.views.values())
        weights, biases = params.flat[:params.n_weights], params.flat[params.n_weights:]
        for name, view in params.views.items():
            assert view.base is params.flat, name
            assert np.shares_memory(view, weights) == (view.ndim == 2), name
            assert np.shares_memory(view, biases) == (view.ndim == 1), name
        assert params.n_weights == sum(v.size for v in params.views.values() if v.ndim == 2)

    def test_v1_blob_reloads_and_resaves_byte_identical(self, tmp_path):
        params = load_params(FIXTURE)
        assert params.stage1.w1.shape == (8, 3) and params.stage2.w1.shape == (8, 2)
        assert params.layout().stride == 2 and params.pool_blocks == 1
        save_params(params, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == FIXTURE.read_bytes()

    def test_truncated_blob_is_format_error_at_every_length(self, tmp_path):
        blob = FIXTURE.read_bytes()
        path = tmp_path / "cut.bin"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                load_params(path)

    @pytest.mark.parametrize("mutate,words", [
        (lambda b: b + b"\x00", "body holds"),
        (lambda b: b.replace(b"stage1.w_lv", b"stage1.w_xx"), "'stage1.w_lv'"),
        (lambda b: b.replace(b"stage2.w1" + struct.pack("<3I", 2, 8, 2),
                             b"stage2.w1" + struct.pack("<3I", 2, 7, 2)), "stage2.w1 has shape"),
        (lambda b: b.replace(b"stage1.b_reg" + struct.pack("<2I", 1, 6),
                             b"stage1.b_reg" + struct.pack("<2I", 1, 5)), "stage1.b_reg has shape"),
        (lambda b: b[:-12] + struct.pack("<3f", 0.0, 0.75, 1.0), "stride"),
        (lambda b: b[:-4] + struct.pack("<f", float("nan")), "non-finite"),
        (lambda b: b[:-4] + struct.pack("<f", 2.0), "feature length 8 does not fit"),
    ])
    def test_malformed_blob_is_format_error(self, tmp_path, mutate, words):
        blob = FIXTURE.read_bytes()
        bad = mutate(blob)
        assert bad != blob
        path = tmp_path / "bad.bin"
        path.write_bytes(bad)
        with pytest.raises(FormatError, match=re.escape(words)):
            load_params(path)


def _random_grads(params, rng):
    grads = params.zeros_like()
    grads.flat[:] = rng.normal(size=grads.flat.size)
    return grads


class TestOptimizer:
    LAYOUT = AnchorLayout(shapes=((4.0, 1.8, 1.5),))

    def test_lr_schedule_staircase(self):
        cfg = TrainConfig(learning_rate=0.1, decay_factor=0.5, decay_every=100)
        assert lr_schedule(cfg, 0) == 0.1
        assert lr_schedule(cfg, 99) == 0.1
        assert lr_schedule(cfg, 100) == pytest.approx(0.05)
        assert lr_schedule(cfg, 250) == pytest.approx(0.025)

    def test_first_adam_step_matches_hand_formula(self):
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.0,
                          hidden1=4, hidden2=4)
        params = init_params(cfg, 6, self.LAYOUT)
        before = {n: a.copy() for n, a in params.views.items()}
        grads = _random_grads(params, np.random.default_rng(0))
        adam_step(params, grads, init_adam(params), cfg, step=0)
        # at t=1 the bias-corrected update reduces to lr * g / (|g| + eps)
        for name, theta in params.views.items():
            g = grads.views[name]
            want = before[name] - 1e-2 * g / (np.abs(g) + cfg.eps)
            np.testing.assert_allclose(theta, want, atol=1e-12, err_msg=name)

    def test_weight_decay_applies_to_weights_only(self):
        cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.1,
                          hidden1=4, hidden2=4)
        params = init_params(cfg, 6, self.LAYOUT)
        params.flat[params.n_weights:] = 1.0
        before = {n: a.copy() for n, a in params.views.items()}
        adam_step(params, params.zeros_like(), init_adam(params), cfg, step=0)
        for name, theta in params.views.items():
            if theta.ndim == 2:
                np.testing.assert_allclose(theta, before[name] * (1.0 - 1e-3 * 0.1),
                                           atol=1e-15, err_msg=name)
            else:
                np.testing.assert_array_equal(theta, np.ones(theta.shape), err_msg=name)

    def test_second_step_accumulates_moments(self):
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.0,
                          hidden1=4, hidden2=4)
        params = init_params(cfg, 6, self.LAYOUT)
        x0 = float(params.stage1.w1[0, 0])
        grads = params.zeros_like()
        grads.flat[:] = 1.0
        state = init_adam(params)
        m = v = 0.0
        want = x0
        for t in range(1, 4):
            adam_step(params, grads, state, cfg, step=t - 1)
            m = cfg.beta1 * m + (1 - cfg.beta1) * 1.0
            v = cfg.beta2 * v + (1 - cfg.beta2) * 1.0
            want -= 1e-2 * (m / (1 - cfg.beta1 ** t)) \
                / (math.sqrt(v / (1 - cfg.beta2 ** t)) + cfg.eps)
        assert params.stage1.w1[0, 0] == pytest.approx(want, rel=1e-12)
        assert state.t == 3

    def test_flat_adam_is_bitwise_a_per_array_loop(self):
        cfg = TrainConfig(learning_rate=1e-2, weight_decay=0.05, decay_every=10,
                          hidden1=5, hidden2=7)
        params = init_params(cfg, 9, self.LAYOUT)
        ref = {n: a.copy() for n, a in params.views.items()}
        m = {n: np.zeros_like(a) for n, a in ref.items()}
        v = {n: np.zeros_like(a) for n, a in ref.items()}
        state = init_adam(params)
        rng = np.random.default_rng(7)
        for step in range(30):
            grads = _random_grads(params, rng)
            grads.flat *= rng.uniform(0.01, 10.0, grads.flat.size)
            adam_step(params, grads, state, cfg, step)
            # reference: Adam with decoupled weight decay, one array at a time
            lr = lr_schedule(cfg, step)
            bc1 = 1.0 - cfg.beta1 ** (step + 1)
            bc2 = 1.0 - cfg.beta2 ** (step + 1)
            for name, theta in ref.items():
                g = grads.views[name]
                m[name] *= cfg.beta1
                m[name] += (1.0 - cfg.beta1) * g
                v[name] *= cfg.beta2
                v[name] += (1.0 - cfg.beta2) * g * g
                theta -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)
                if name.split(".")[1].startswith("w"):
                    theta -= lr * cfg.weight_decay * theta
        for name, theta in ref.items():
            np.testing.assert_array_equal(params.views[name], theta, err_msg=name)


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["learning_rate", "beta1", "eps", "weight_decay",
                                       "outlier_prob", "loc_bias"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_train_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("pos_cap", -1), ("neg_per_scene", -1), ("roi_jitter", -2), ("roi_negatives", -1),
        ("outlier_prob", -0.1), ("outlier_prob", 1.5), ("outlier_scale", -3.0),
        ("rpn_noise_scale", -1.0), ("loc_noise_scale", -0.5), ("orient_noise_scale", -1.0),
        ("loc_bias", -0.1), ("orient_snap", -1.0)])
    def test_train_config_rejects_negative_counts_and_noise(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"rpn_pos": 0.0, "rpn_neg": 0.0}, r"rpn_pos must be in \(0, 1\]"),
        ({"rpn_neg": 0.6}, r"rpn_neg must be in \[0, rpn_pos\]"),
        ({"frh_pos": 1.5}, r"frh_pos must be in \(0, 1\]"),
        ({"frh_neg": -0.1}, r"frh_neg must be in \[0, frh_pos\]")])
    def test_train_config_rejects_thresholds_out_of_range(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            TrainConfig(**kwargs)

    def test_train_config_accepts_threshold_edges(self):
        TrainConfig(rpn_pos=1.0, rpn_neg=1.0, frh_pos=0.1, frh_neg=0.0)

    def test_train_config_accepts_zero_counts_and_noise(self):
        TrainConfig(pos_cap=0, neg_per_scene=0, roi_jitter=0, roi_negatives=0,
                    outlier_prob=1.0, outlier_scale=0.0, rpn_noise_scale=0.0,
                    loc_noise_scale=0.0, orient_noise_scale=0.0)
        TrainConfig(outlier_prob=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"pre_nms_top": 0}, {"pre_nms_top": -5}, {"proposal_count": -1},
        {"proposal_count": 0}, {"nms_threshold": 1.5}, {"nms_threshold": math.nan},
        {"final_nms_threshold": -0.1}, {"score_min": math.inf},
        {"score_min": math.nan}])
    def test_infer_config_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            InferConfig(**kwargs)

    def test_infer_config_accepts_closed_unit_interval(self):
        InferConfig(pre_nms_top=1, proposal_count=1, nms_threshold=1.0,
                    final_nms_threshold=0.0, score_min=0.0)


CFG_SMOKE = TrainConfig(seed=0, hidden1=8, hidden2=8, phase1_steps=4,
                        phase2_steps=4, decay_every=4, pool_blocks=2,
                        pos_cap=8, neg_per_scene=8, roi_jitter=1,
                        roi_negatives=4)
LAYOUT_SMOKE = AnchorLayout(shapes=((4.1, 1.8, 1.5),), stride=4)
SCENE_SPEC = SceneSpec(num_cars=3, seed=50, x_min=4.0, x_max=28.0,
                       y_min=-10.0, y_max=10.0, point_budget=500,
                       range_spec=RangeSpec(0.0, 32.0, -16.0, 16.0, 0.0, 2.5,
                                            0.5, 5, 0.5))


def smoke_training_set(n=2):
    scenes = generate_scenes(SCENE_SPEC, n)
    ts = build_training_set(scenes, LAYOUT_SMOKE, SCENE_SPEC.range_spec,
                            CFG_SMOKE)
    return scenes, ts


def list_stage1(iou, rpn_pos, rpn_neg, cfg, rng):
    """Stage-1 pool selection as per-anchor lists, the form that preceded
    ``codec.assign``: (positives, negatives, matched truth per positive,
    number of positives before the forced anchors)."""
    best_iou = iou.max(axis=1, initial=0.0)
    pos = [int(i) for i in np.argsort(-best_iou, kind="stable")
           if best_iou[i] >= rpn_pos][:cfg.pos_cap]
    n_ranked = len(pos)
    forced = set(pos)
    for j, a in enumerate(iou.argmax(axis=0).tolist()):
        if iou[a, j] > 0.0 and a not in forced:
            forced.add(a)
            pos.append(a)
    neg_pool = np.where(best_iou < rpn_neg)[0]
    n_neg = min(cfg.neg_per_scene, len(neg_pool))
    neg = sorted(int(i) for i in rng.choice(neg_pool, size=n_neg, replace=False))
    return pos, neg, [int(iou[a].argmax()) for a in pos], n_ranked


class TestTrainingSet:
    def test_pools_match_list_reference(self, monkeypatch):
        cfg = replace(CFG_SMOKE, pos_cap=2, rpn_pos=0.4)
        layout = AnchorLayout(shapes=((4.1, 1.8, 1.5),), stride=2)
        spec = SCENE_SPEC.range_spec
        scenes = (generate_scenes(replace(SCENE_SPEC, num_cars=5), 2)
                  + generate_scenes(replace(SCENE_SPEC, num_cars=0, seed=90), 1))
        matrices = []

        def recording_assign(iou, pos_threshold, neg_threshold):
            matrices.append(iou)
            return assign(iou, pos_threshold, neg_threshold)

        monkeypatch.setattr("lidardet.model.assign", recording_assign)
        ts = build_training_set(scenes, layout, spec, cfg)
        assert len(matrices) == 2 * len(scenes)
        aset = build_anchor_set(layout, spec)
        capped_and_forced = 0
        for idx, (scene, pack) in enumerate(zip(scenes, ts.packs)):
            iou1, iou2 = matrices[2 * idx:2 * idx + 2]
            assert iou1.shape == (len(aset), len(scene.gts))
            rng = np.random.default_rng([cfg.seed, 2, idx])
            pos, neg, truth, n_ranked = list_stage1(iou1, 0.4, 0.3, cfg, rng)
            n_above = int((iou1.max(axis=1, initial=0.0) >= 0.4).sum())
            capped_and_forced += n_above > cfg.pos_cap and len(pos) > n_ranked
            envs = [aa_envelope(g.box) for g in scene.gts]
            sigmas = [n.sigma_label for n in scene.noise]
            np.testing.assert_array_equal(pack.rpn_cls, [1] * len(pos) + [0] * len(neg))
            np.testing.assert_array_equal(
                pack.x1, anchor_features(rasterize(scene.cloud, spec),
                                         aset.take(pos + neg), cfg.pool_blocks)[:])
            for row, (a, j) in enumerate(zip(pos, truth)):
                np.testing.assert_array_equal(pack.rpn_reg[row],
                                              encode_rpn(aset.box(a), envs[j]))
                assert pack.rpn_sigma[row] == sigmas[j]
            assert not pack.rpn_reg[len(pos):].any()
            assert not pack.rpn_sigma[len(pos):].any()

            assert iou2.shape == (len(pack.frh_cls), len(scene.gts))
            for i, row in enumerate(iou2):
                j = int(row.argmax()) if len(row) else -1
                if j >= 0 and row[j] >= 0.65:
                    assert pack.frh_cls[i] == 1 and pack.frh_sigma[i] == sigmas[j]
                    yaw = scene.gts[j].box.yaw
                    assert pack.frh_orient[i].tolist() == [math.cos(yaw), math.sin(yaw)]
                else:
                    assert pack.frh_cls[i] == (0 if j < 0 or row[j] < 0.55 else -1)
                    assert pack.frh_sigma[i] == 0.0
                    assert not pack.frh_loc[i].any() and not pack.frh_orient[i].any()
        # the scenes exercise the cap and the forced anchors, and one has no car
        assert capped_and_forced == 2
        assert not scenes[-1].gts and not ts.packs[-1].rpn_cls.any()

    def test_car_free_scene_is_negative_only_below_a_positive_threshold(self):
        scenes = generate_scenes(replace(SCENE_SPEC, num_cars=0), 1)
        for frh_neg, label in ((0.55, 0), (0.0, -1)):
            pack = build_training_set(scenes, LAYOUT_SMOKE, SCENE_SPEC.range_spec,
                                      replace(CFG_SMOKE, frh_neg=frh_neg)).packs[0]
            assert pack.frh_cls.tolist() == [label] * CFG_SMOKE.roi_negatives
            assert pack.rpn_cls.tolist() == [0] * CFG_SMOKE.neg_per_scene

    def test_pack_invariants(self):
        scenes, ts = smoke_training_set()
        assert len(ts.packs) == 2
        assert ts.feat_len == feature_length(5, 2)
        for pack, scene in zip(ts.packs, scenes):
            assert pack.x1.shape[1] == ts.feat_len
            assert pack.x2.shape[1] == ts.feat_len
            assert set(np.unique(pack.rpn_cls)).issubset({0, 1})
            assert set(np.unique(pack.frh_cls)).issubset({-1, 0, 1})
            n_pos = int((pack.rpn_cls == 1).sum())
            assert n_pos >= len(scene.gts)  # forced best anchor per truth
            # negatives carry zero regression targets and zero sigma
            assert not pack.rpn_reg[pack.rpn_cls == 0].any()
            assert not pack.rpn_sigma[pack.rpn_cls == 0].any()
            assert np.all(pack.rpn_sigma[pack.rpn_cls == 1] > 0.0)
            assert np.all(pack.frh_sigma[pack.frh_cls == 1] > 0.0)

    def test_positive_orientation_targets_are_unit(self):
        _, ts = smoke_training_set()
        for pack in ts.packs:
            r = pack.frh_orient[pack.frh_cls == 1]
            np.testing.assert_allclose(np.hypot(r[:, 0], r[:, 1]), 1.0,
                                       atol=1e-12)

    def test_deterministic(self):
        _, a = smoke_training_set()
        _, b = smoke_training_set()
        for pa, pb in zip(a.packs, b.packs):
            np.testing.assert_array_equal(pa.x1, pb.x1)
            np.testing.assert_array_equal(pa.frh_loc, pb.frh_loc)


class TestLabelNoise:
    def test_deterministic(self):
        _, ts = smoke_training_set(1)
        a = apply_label_noise(ts.packs[0], CFG_SMOKE, 0)
        b = apply_label_noise(ts.packs[0], CFG_SMOKE, 0)
        np.testing.assert_array_equal(a.rpn_reg, b.rpn_reg)
        np.testing.assert_array_equal(a.frh_orient, b.frh_orient)

    def test_zero_scales_pass_targets_through(self):
        _, ts = smoke_training_set(1)
        clean = replace(CFG_SMOKE, rpn_noise_scale=0.0, loc_noise_scale=0.0,
                        orient_noise_scale=0.0)
        batch = apply_label_noise(ts.packs[0], clean, 0)
        np.testing.assert_array_equal(batch.rpn_reg, ts.packs[0].rpn_reg)
        np.testing.assert_array_equal(batch.frh_loc, ts.packs[0].frh_loc)
        np.testing.assert_array_equal(batch.frh_orient, ts.packs[0].frh_orient)

    def test_negatives_never_corrupted(self):
        _, ts = smoke_training_set(1)
        noisy = replace(CFG_SMOKE, rpn_noise_scale=5.0, loc_noise_scale=5.0,
                        orient_noise_scale=5.0, loc_bias=1.0)
        pack = ts.packs[0]
        batch = apply_label_noise(pack, noisy, 0)
        neg1 = pack.rpn_cls == 0
        np.testing.assert_array_equal(batch.rpn_reg[neg1], pack.rpn_reg[neg1])
        neg2 = pack.frh_cls != 1
        np.testing.assert_array_equal(batch.frh_loc[neg2], pack.frh_loc[neg2])
        np.testing.assert_array_equal(batch.frh_orient[neg2],
                                      pack.frh_orient[neg2])

    def test_positives_do_move(self):
        _, ts = smoke_training_set(1)
        pack = ts.packs[0]
        batch = apply_label_noise(pack, CFG_SMOKE, 0)
        pos = pack.rpn_cls == 1
        assert np.abs(batch.rpn_reg[pos] - pack.rpn_reg[pos]).max() > 0.0

    def test_features_shared_not_copied(self):
        _, ts = smoke_training_set(1)
        batch = apply_label_noise(ts.packs[0], CFG_SMOKE, 0)
        assert batch.x1 is ts.packs[0].x1
        assert batch.x2 is ts.packs[0].x2


def random_batch(rng, feat_len):
    def labels(k):
        lab = rng.integers(-1, 2, size=k)
        lab[0] = 1
        return lab
    return StepBatch(x1=rng.normal(size=(6, feat_len)), rpn_cls=labels(6),
                     rpn_reg=rng.normal(size=(6, 6)),
                     x2=rng.normal(size=(5, feat_len)), frh_cls=labels(5),
                     frh_loc=rng.normal(size=(5, 10)),
                     frh_orient=rng.normal(size=(5, 2)))


class TestRunBatch:
    CFG = TrainConfig(seed=1, hidden1=8, hidden2=9)
    LAYOUT = AnchorLayout(shapes=((4.0, 1.8, 1.5),))

    def test_baseline_ignores_log_variance_heads(self):
        params = init_params(self.CFG, 12, self.LAYOUT)
        grads = params.zeros_like()
        grads.flat[:] = np.nan  # so the zero checks prove backward wrote zeros
        batch = random_batch(np.random.default_rng(3), 12)
        run_batch(params, grads, batch, self.CFG, 0, attenuate=False)
        assert not grads.stage1.w_lv.any() and not grads.stage1.b_lv.any()
        assert not grads.stage2.w_loc_lv.any() and not grads.stage2.w_orient_lv.any()
        assert np.isfinite(grads.flat).all()

    def test_attenuated_equals_baseline_at_zero_log_variance(self):
        # log-variance heads start at zero, where both objectives coincide
        params = init_params(self.CFG, 12, self.LAYOUT)
        batch = random_batch(np.random.default_rng(4), 12)
        a, b = params.zeros_like(), params.zeros_like()
        b.flat[:] = a.flat[:] = np.nan
        base = run_batch(params, b, batch, self.CFG, 2, attenuate=False)
        att = run_batch(params, a, batch, self.CFG, 2, attenuate=True)
        assert att.total == pytest.approx(base.total, rel=1e-12)
        assert att.rpn_reg == pytest.approx(base.rpn_reg, rel=1e-12)
        np.testing.assert_allclose(a.stage1.w_reg, b.stage1.w_reg, atol=1e-12)

    def test_dropout_replays_per_step(self):
        params = init_params(self.CFG, 12, self.LAYOUT)
        batch = random_batch(np.random.default_rng(5), 12)
        grads = params.zeros_like()
        a = run_batch(params, grads, batch, self.CFG, 7, attenuate=True)
        b = run_batch(params, grads, batch, self.CFG, 7, attenuate=True)
        c = run_batch(params, grads, batch, self.CFG, 8, attenuate=True)
        assert a.total == b.total
        assert a.total != c.total

    def test_eval_mode_disables_dropout(self):
        params = init_params(self.CFG, 12, self.LAYOUT)
        batch = random_batch(np.random.default_rng(6), 12)
        grads = params.zeros_like()
        cfg = replace(self.CFG, dropout_rate=0.0)
        a = run_batch(params, grads, batch, cfg, 1, True)
        b = run_batch(params, grads, batch, cfg, 2, True)
        assert a.total == b.total


class TestTrainLoop:
    def test_smoke_run_logs_every_step(self):
        _, ts = smoke_training_set()
        params, log = train(ts, CFG_SMOKE, LAYOUT_SMOKE)
        assert len(log) == CFG_SMOKE.phase1_steps + CFG_SMOKE.phase2_steps
        assert [row.step for row in log] == list(range(8))
        assert all(math.isfinite(row.total) for row in log)
        assert log[0].lr == CFG_SMOKE.learning_rate
        assert log[-1].lr == pytest.approx(
            CFG_SMOKE.learning_rate * CFG_SMOKE.decay_factor)
        assert params.stage1.w1.shape[0] == ts.feat_len

    def test_training_moves_parameters_deterministically(self):
        _, ts = smoke_training_set()
        p1, log1 = train(ts, CFG_SMOKE, LAYOUT_SMOKE)
        p2, log2 = train(ts, CFG_SMOKE, LAYOUT_SMOKE)
        np.testing.assert_array_equal(p1.stage1.w1, p2.stage1.w1)
        assert [r.total for r in log1] == [r.total for r in log2]
        fresh = init_params(CFG_SMOKE, ts.feat_len, LAYOUT_SMOKE)
        assert np.abs(p1.stage1.w1 - fresh.stage1.w1).max() > 0.0

    def test_empty_training_set_rejected(self):
        from lidardet.model import TrainingSet
        with pytest.raises(ValueError):
            train(TrainingSet(packs=[], feat_len=10), CFG_SMOKE, LAYOUT_SMOKE)


class TestInference:
    def _setup(self):
        scenes, ts = smoke_training_set()
        params, _ = train(ts, CFG_SMOKE, LAYOUT_SMOKE)
        grid = rasterize(scenes[0].cloud, SCENE_SPEC.range_spec)
        return scenes, params, grid

    def test_detections_well_formed(self):
        _, params, grid = self._setup()
        dets = infer(params, grid)
        for d in dets:
            assert 0.05 <= d.score <= 1.0
            assert d.rpn_log_var.shape == (6,)
            assert d.loc_log_var.shape == (10,)
            assert d.orient_log_var.shape == (2,)
            assert np.all(np.abs(d.rpn_log_var) <= LV_CLIP)

    def test_deterministic(self):
        _, params, grid = self._setup()
        a = infer(params, grid)
        b = infer(params, grid)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.box == db.box and da.score == db.score

    def test_precomputed_anchor_features_identical(self):
        _, params, grid = self._setup()
        aset = build_anchor_set(params.layout(), grid.spec)
        feats = anchor_features(grid, aset, params.pool_blocks)
        a = infer(params, grid)
        b = infer(params, grid, anchor_feats=feats)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.box == db.box and da.score == db.score
            np.testing.assert_array_equal(da.loc_log_var, db.loc_log_var)

    def test_infer_tags_frames(self):
        scenes, params, _ = self._setup()
        for scene in scenes:
            grid = rasterize(scene.cloud, SCENE_SPEC.range_spec)
            for d in infer(params, grid, frame_id=scene.cloud.frame_id):
                assert d.frame_id == scene.cloud.frame_id

    def test_score_min_one_returns_no_detections(self):
        _, params, grid = self._setup()
        assert infer(params, grid, InferConfig(score_min=1.0)) == []


# Detection drift when a model goes through the float32 blob. The worst
# drifts over 30 training seeds (the protocol of the test below) were 3.9e-5 m
# in a box field, 1.1e-6 rad in yaw, 1.2e-7 in score and 2.9e-8 in a
# log-variance; each bound is about ten times that.
BLOB_DRIFT = dict(box=1e-4, yaw=1e-5, score=1e-6, log_var=1e-6)


class TestBlobDrift:
    def test_float32_blob_detection_drift_is_bounded(self, tmp_path):
        # A detection has a counterpart when the other list holds one centred
        # within 1 mm. Blank anchor windows of one size pool to one row, so
        # their proposals tie in score exactly, and the rank cuts pick among
        # them by index; a last-bit change elsewhere can move which of them
        # survive (seed 3: 4 of 29 detections). So a detection without a
        # counterpart must tie in score with another one of its own list.
        def fields(d):
            b = d.box
            return (np.array([b.cx, b.cy, b.cz, b.l, b.w, b.h]), b.yaw, d.score,
                    np.concatenate([d.rpn_log_var, d.loc_log_var, d.orient_log_var]))

        for seed in range(5):
            cfg = TrainConfig(seed=seed, hidden1=16, hidden2=16, phase1_steps=60,
                              phase2_steps=120, decay_every=60, pool_blocks=2)
            scenes = generate_scenes(replace(SCENE_SPEC, seed=50 + seed), 4)
            params, _ = train(build_training_set(scenes, LAYOUT_SMOKE, SCENE_SPEC.range_spec,
                                                 cfg), cfg, LAYOUT_SMOKE)
            save_params(params, tmp_path / "m.bin")
            back = load_params(tmp_path / "m.bin")
            for scene in generate_scenes(replace(SCENE_SPEC, seed=500 + seed), 4):
                grid = rasterize(scene.cloud, SCENE_SPEC.range_spec)
                a, b = infer(params, grid), infer(back, grid)
                assert a
                for mine, other in ((a, b), (b, a)):
                    for d in mine:
                        far = [math.hypot(d.box.cx - e.box.cx, d.box.cy - e.box.cy)
                               for e in other]
                        if min(far, default=1.0) > 1e-3:
                            assert sum(abs(e.score - d.score) <= 1e-12 for e in mine) > 1
                            continue
                        e = other[int(np.argmin(far))]
                        drift = [np.abs(x - y).max() for x, y in zip(fields(d), fields(e))]
                        assert all(v <= bound for v, bound
                                   in zip(drift, BLOB_DRIFT.values())), drift


class TestStage1Blocks:
    @pytest.mark.parametrize("hidden1", [16, 64, 256])
    def test_blocks_equal_one_call_bit_for_bit(self, hidden1):
        rng = np.random.default_rng(hidden1)
        stage = init_params(TrainConfig(hidden1=hidden1, hidden2=4), 24,
                            LAYOUT_SMOKE).stage1
        for w in [stage.w1, *(getattr(stage, f"w_{head}") for head, _, _ in stage.heads)]:
            w += rng.normal(0.0, 0.3, w.shape)
        rows = STAGE1_CELLS // hidden1
        for n in (rows - 1, 2 * rows - 1, 2 * rows, 2 * rows + 1, 3 * rows + 5):
            x = rng.normal(size=(n, 24))
            want = stage1_forward(stage, x)[:3]
            *got, index = _stage1_blocks(stage, x)
            assert len(got) == 3 and index is None
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_infer_peak_memory_is_bounded_by_the_block_budget(self):
        # hidden1 = 256 gives 4,096-row blocks: the 14,000 anchors of the
        # default range are three blocks, the last 5,808 rows. The largest
        # block holds under 2 * STAGE1_CELLS activations, so its pre and hid
        # arrays take under 4 * STAGE1_CELLS floats; one call over all rows
        # takes 2 * 14,000 * 256.
        rng = np.random.default_rng(5)
        n = 20000
        pts = np.column_stack([rng.uniform(0, 56, n), rng.uniform(-20, 20, n),
                               rng.uniform(0, 2.5, n), rng.random(n)])
        grid = rasterize(PointCloud(pts, "t"), DEFAULT_SCENE_RANGE)
        layout = AnchorLayout(shapes=((3.9, 1.6, 1.5), (4.6, 1.9, 1.6)))
        params = init_params(TrainConfig(hidden1=256, hidden2=16),
                             feature_length(DEFAULT_SCENE_RANGE.num_slices, 3), layout)
        aset = build_anchor_set(layout, DEFAULT_SCENE_RANGE)
        assert len(aset) == 14000
        feats = anchor_features(grid, aset, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            infer(params, grid, anchor_feats=feats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * STAGE1_CELLS


def perturbed_params(hidden1, feat_len, layout, rng):
    """init_params with every stage-1 weight perturbed, so no output is trivial."""
    params = init_params(TrainConfig(hidden1=hidden1, hidden2=4), feat_len, layout)
    stage = params.stage1
    for w in [stage.w1, *(getattr(stage, f"w_{head}") for head, _, _ in stage.heads)]:
        w += rng.normal(0.0, 0.3, w.shape)
    return params


# the scene laws of the benchmark's workloads (perfbench/workloads.py)
BENCH_SCENE = dict(num_cars=6, x_min=20.0, point_budget=1000, density_exponent=1.2)
FULL_SCENE = dict(BENCH_SCENE, num_cars=24, x_min=4.0, x_max=66.0, y_min=-36.0, y_max=36.0)
LAYOUT_TWO = AnchorLayout(shapes=((3.9, 1.6, 1.5), (4.6, 1.9, 1.6)))


@functools.lru_cache(maxsize=None)
def compact_case(name):
    """(grid, anchor set, anchor_features) of one compact-rows case."""
    bench, zmin = DEFAULT_SCENE_RANGE, replace(DEFAULT_SCENE_RANGE, z_min=-0.3, z_max=2.2)
    if name == "dense_cloud":
        rng, n = np.random.default_rng(5), 20000
        cloud = PointCloud(np.column_stack([rng.uniform(0, 56, n), rng.uniform(-20, 20, n),
                                            rng.uniform(0, 2.5, n), rng.random(n)]), "t")
        spec = bench
    elif name == "empty_cloud":
        cloud, spec = PointCloud(np.zeros((0, 4)), "t"), bench
    else:
        spec, law = {"full_law": (RangeSpec(), FULL_SCENE), "z_min": (zmin, BENCH_SCENE)
                     }.get(name, (bench, BENCH_SCENE))
        cloud = generate_scenes(SceneSpec(seed=301, range_spec=spec, **law), 1)[0].cloud
    grid = rasterize(cloud, spec)
    aset = build_anchor_set(LAYOUT_TWO, spec)
    if name == "subset":
        aset = aset.take(np.random.default_rng(9).permutation(len(aset))[:9000])
    return grid, aset, anchor_features(grid, aset, 3)


@pytest.fixture
def stage1_rows(monkeypatch):
    """The row count of every stage1_forward call from here on."""
    scored = []

    def counted(p, x, mask=None):
        scored.append(len(x))
        return stage1_forward(p, x, mask)

    monkeypatch.setattr("lidardet.model.stage1_forward", counted)
    return scored


COMPACT_CASES = ["full_law", "bench_law", "dense_cloud", "z_min", "empty_cloud", "subset"]


class TestCompactRows:
    """anchor_features returns the distinct rows and a slot per anchor, and
    stage 1 scores the compact rows, padded to whole blocks, when they are
    fewer than the anchors, else the anchor rows. Both equal the dense path
    bit for bit: every row against featurize, and the stage-1 outputs against
    _stage1_blocks over the gathered (N, F) anchor rows, which
    TestStage1Blocks holds equal to one call."""

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_rows_equal_featurize_bit_for_bit(self, name):
        grid, aset, feats = compact_case(name)
        assert len(feats) == len(aset) and feats.rows.shape[0] <= len(aset)
        if name == "dense_cloud":
            assert feats.rows.shape[0] > 0.9 * len(aset)
        else:
            assert feats.rows.shape[0] < 0.2 * len(aset)
        # every distinct row through its first anchor, and a seeded sample of
        # the slots
        first = np.unique(feats.slot, return_index=True)[1]
        sample = np.random.default_rng(3).choice(len(aset), 2000, replace=False)
        assert_rows_bitwise(grid, aset, 3, np.union1d(first, sample))

    @pytest.mark.parametrize("hidden1", [64, 256])
    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_stage1_equals_the_dense_path_bit_for_bit(self, name, hidden1, stage1_rows):
        _, aset, feats = compact_case(name)
        stage = perturbed_params(hidden1, feats.rows.shape[1], LAYOUT_TWO,
                                 np.random.default_rng(hidden1)).stage1
        *want, index = _stage1_blocks(stage, feats[:])
        assert index is None
        stage1_rows.clear()
        *got, index = _stage1_blocks(stage, feats.rows, feats.slot)
        # the outputs over the scored rows, gathered through the returned index
        if index is not None:
            assert index is feats.slot
            got = [a[index] for a in got]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        # never more rows than anchors: the padded compact rows when fewer,
        # else the anchor rows
        block = STAGE1_CELLS // hidden1
        padded = -(-feats.rows.shape[0] // block) * block
        assert sum(stage1_rows) == min(padded, len(aset))
        # 16,384-row blocks: only the full frame's 140,000 anchors outnumber
        # one block; 4,096-row blocks: every case but the dense cloud
        compact = name == "full_law" or (hidden1 == 256 and name != "dense_cloud")
        assert (sum(stage1_rows) < len(aset)) == compact

    def test_infer_scores_one_padded_block_or_the_anchor_rows(self, stage1_rows):
        for name, want in (("full_law", [STAGE1_CELLS // 64]), ("bench_law", [14000])):
            grid, aset, feats = compact_case(name)
            params = perturbed_params(64, feats.rows.shape[1], LAYOUT_TWO,
                                      np.random.default_rng(4))
            stage1_rows.clear()
            infer(params, grid, anchor_feats=feats)
            assert stage1_rows == want and want[0] <= len(aset)

    def test_paper_grid_frame_peak_memory_is_a_fraction_of_the_dense_rows(self):
        # detect_full's car-only scene law, 140,000 anchors: the compact rows
        # and the per-anchor index arrays, no (N, F) matrix and no copy of the
        # grid's cells. Measured 0.12-0.18 of N * F * 8 bytes over scene seeds
        # 300-311.
        spec = RangeSpec()
        grid = rasterize(generate_scenes(SceneSpec(seed=301, range_spec=spec, **FULL_SCENE),
                                         1)[0].cloud, spec)
        aset = build_anchor_set(LAYOUT_TWO, spec)
        tracemalloc.start()
        try:
            feats = anchor_features(grid, aset, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * len(aset) * feats.rows.shape[1] * 8

    def test_features_of_another_anchor_set_are_rejected(self):
        grid, aset, _ = compact_case("bench_law")
        params = init_params(TrainConfig(hidden2=4), feature_length(5, 3), LAYOUT_TWO)
        assert len(aset) == 14000
        for shapes, n in ((LAYOUT_TWO.shapes[:1], 7000), (LAYOUT_TWO.shapes * 2, 28000)):
            feats = anchor_features(grid, build_anchor_set(AnchorLayout(shapes=shapes),
                                                           grid.spec), 3)
            assert len(feats) == n
            with pytest.raises(ShapeError, match=f"covers {n} anchors.* has 14000"):
                infer(params, grid, anchor_feats=feats)

    def test_features_of_another_layout_or_spec_are_rejected(self):
        # as many anchors as the model's set, but of another layout, or on a
        # grid of another spec: the features belong to other anchor windows
        grid, aset, _ = compact_case("bench_law")
        params = init_params(TrainConfig(hidden2=4), feature_length(5, 3), LAYOUT_TWO)
        other = AnchorLayout(shapes=((4.2, 1.8, 1.6), (3.5, 1.5, 1.4)))
        feats = anchor_features(grid, build_anchor_set(other, grid.spec), 3)
        assert len(feats) == len(aset) == 14000
        with pytest.raises(ShapeError, match=r"covers 14000 anchors of AnchorLayout\(shapes="
                                             r"\(\(4.2, .* has 14000 of AnchorLayout\(shapes="
                                             r"\(\(3.9, "):
            infer(params, grid, anchor_feats=feats)
        zmin_grid, zmin_aset, zmin_feats = compact_case("z_min")
        assert zmin_aset.spec != grid.spec and len(zmin_feats) == 14000
        with pytest.raises(ShapeError, match="z_min=-0.3.* has 14000 .* z_min=0.0"):
            infer(params, grid, anchor_feats=zmin_feats)
        # on its own grid the model takes them
        infer(params, zmin_grid, anchor_feats=zmin_feats)

    def test_grid_of_another_spec_is_rejected(self):
        # the anchor set's window plan is computed for its own spec
        spec = RangeSpec(xy_resolution=0.2)
        coarse = RangeSpec(xy_resolution=0.25)
        aset = build_anchor_set(LAYOUT_TWO, spec)
        grid = rasterize(PointCloud(np.zeros((0, 4)), "t"), coarse)
        with pytest.raises(ShapeError, match=r"grid is on RangeSpec\(.*xy_resolution=0.25.*"
                                             r"anchor set on RangeSpec\(.*xy_resolution=0.2,"):
            anchor_features(grid, aset, 3)


class TestTopK:
    """_top_k picks exactly np.argsort(-scores, kind="stable")[:k]."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(8)
        # stage-1 scores of shared blank rows: a few values over many anchors
        tied = rng.choice(rng.random(6), 20000)
        tied[rng.choice(20000, 300, replace=False)] = rng.random(300)
        nan = rng.random(5000)
        nan[rng.choice(5000, 700, replace=False)] = np.nan
        mostly_nan = np.full(400, np.nan)
        mostly_nan[[3, 17, 250]] = [0.5, 0.5, 0.9]
        zeros = np.where(rng.random(3000) < 0.5, 0.0, -0.0)
        zeros[::7] = rng.random(len(zeros[::7]))
        return {"tied": tied, "all_equal": np.full(1000, 0.25), "nan": nan,
                "mostly_nan": mostly_nan, "signed_zeros": zeros,
                "distinct": rng.random(7000)}

    @pytest.mark.parametrize("name", ["tied", "all_equal", "nan", "mostly_nan",
                                      "signed_zeros", "distinct"])
    def test_equals_the_stable_argsort(self, name):
        scores = self.cases()[name]
        n = len(scores)
        for k in (1, 2, 10, 512, n // 2, n - 1, n, n + 1, 3 * n):
            want = np.argsort(-scores, kind="stable")[:k]
            got = model_top_k(scores, k)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)


class TestDetectionIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        dets = [Detection(box=Box3D(10.1, -2.2, 0.8, 4.4, 1.9, 1.5, 0.3),
                          score=0.875,
                          rpn_log_var=rng.normal(size=6),
                          loc_log_var=rng.normal(size=10),
                          orient_log_var=rng.normal(size=2))]
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        back = load_detections(path, frame_id="f0")
        assert len(back) == 1
        assert back[0].box == dets[0].box
        assert back[0].score == dets[0].score
        np.testing.assert_array_equal(back[0].rpn_log_var, dets[0].rpn_log_var)
        np.testing.assert_array_equal(back[0].orient_log_var,
                                      dets[0].orient_log_var)
        assert back[0].frame_id == "f0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "dets.csv"
        path.write_text("cx,cy\n1,2\n")
        with pytest.raises(ValueError):
            load_detections(path)


class TestGradcheck:
    def test_two_seeds_pass(self):
        ok, report = gradcheck(seeds=2)
        assert ok, "\n".join(report)
        assert any("match" in line for line in report)
