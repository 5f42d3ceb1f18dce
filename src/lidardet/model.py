"""Two-stage detection head over pooled BEV features.

Stage 1 scores and refines yaw-free anchors; stage 2 refines kept
proposals with the four-corner location code and the (cos, sin)
orientation code, each regression head paired with a log-variance head.
Both stages are the same trunk-plus-heads MLP: one ReLU hidden layer
feeding the linear heads of the stage's head table (``losses.STAGE*_HEADS``,
which also gives each head its loss kind), run by one generic forward and
one hand-derived backward, so the whole objective is finite-difference
checkable. A training step hands the head outputs to ``multi_loss`` and its
per-head gradients straight back to the backward pass, both in table
order. Every trainable array is a named view into one flat float64 buffer
(weight matrices first); gradients share its layout, and Adam updates it
with a few in-place vector ops. Training runs the two-phase schedule: a
plain phase with log-variance heads silent, then the attenuated
multi-loss.

Candidate featurization pools the grid cells under a candidate's
axis-aligned footprint into a fixed pool_blocks x pool_blocks layout of
per-slice max/mean heights and density mean/max, plus the candidate's
own dimensions. No absolute position enters the vector, so features are
invariant to whole-cell translations of candidate and points together;
distance enters only through point sparsity.

``featurize`` reduces one window's blocks with ``np.maximum.reduceat`` and
``np.add.reduceat``, rows first, then columns. ``anchor_features`` pools the
anchor lattice with the same reductions done on whole slabs of blocks, and
its lattice rows equal ``featurize`` bit for bit because it adds in
reduceat's own order. That order is the summation-order rule: a block's sum
is its first cell plus numpy's pairwise sum of the other cells, which is a
left fold below 8 terms, 8 interleaved partial sums from 8 to 128 terms,
and two halves summed apart above 128. A different order would move the
last bits of the features, and with them the pool digests and artifacts
that refactors are checked against.

``anchor_features`` sorts the anchor windows, clipped to the grid, into two
kinds. An occupied window holds a cell whose density is not 0 or whose
heights are not all the ``z_min`` sentinel; it is pooled on the slabs from
its clipped start, at the border as inside. A blank window pools to a row
that depends only on its clipped (rows, cols) size, so the blank anchors of
one size and one (l, w, h) share one row, computed once by ``featurize``.
The result is compact, ``AnchorFeatures``: the distinct rows (one per
occupied window, then the shared blank rows) and each anchor's slot among
them; no (N, F) matrix is built. Synthesized scenes hold car points only,
so 6-10% of anchor windows are occupied; as in PointPillars and VoxelNet,
which encode only non-empty pillars or voxels and scatter the results
back, the empty rest costs almost nothing, and here the scatter is exact.

``infer`` runs stage 1 over row blocks of ``STAGE1_CELLS // hidden1`` rows
and keeps only the logits, reg and log-variance outputs, 14 floats per
anchor; each block's rows are gathered on their own and its (rows, hidden1)
temporaries are freed before the next, so its transient memory is bounded
by STAGE1_CELLS, not by the anchor count. The row rule: when the compact
rows, zero-padded up to whole blocks, are fewer than the N anchors, stage 1
scores those blocks and maps the outputs back to the anchors through the
slots; otherwise it scores the N anchor rows, the remainder joined to the
last block. So it never scores more than N rows. The block is sized in
hidden activations, not rows, for the bits: OpenBLAS computes a head
product ``hid @ w_head`` whose M*N*K is at most about 1e6 with a
small-matrix kernel that rounds differently. At 2**20 activations every
block's head products stay above that size, so a row's outputs do not
depend on the block it is scored in: both sides of the row rule equal one
call over all anchor rows bit for bit, and fewer than two blocks' rows are
that one call. Compact rows are never scored in a block shorter than the
budget, which would fall into the small kernel (a bench frame's ~1,100
rows alone change the bits of most of them).
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass, fields, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .bevraster import BevGrid, RangeSpec, rasterize
from .boxgeom import (Box3D, aa_envelope, aa_extents, box_extents, iou_aa,
                      nms_indices)
from .codec import (FRH_LOC_DIM, FRH_ORIENT_DIM, RPN_DIM, assign,
                    decode_frh, decode_rpn, encode_frh, encode_rpn)
from .errors import DivergenceError, FormatError, OutOfGrid, ShapeError, require_finite
from .losses import (LIKELIHOOD_FORMS, STAGE1_HEADS, STAGE2_HEADS, LossBreakdown,
                     attenuated_term, cross_entropy, multi_loss, smooth_l1)
from .pcio import finite_float, positive_float, read_table, write_table

FEAT_GEOM = 4  # candidate l, w, h, cz


def feature_length(num_slices: int, pool_blocks: int) -> int:
    return pool_blocks * pool_blocks * (2 * num_slices + 2) + FEAT_GEOM


def _block_spans(n: int, k: int):
    """Starts and lengths of the nonempty blocks of ``np.array_split(np.arange(n),
    k)``: the first n mod k blocks are one cell longer."""
    q, extra = divmod(n, k)
    lengths = [q + 1] * extra + [q] * (min(n, k) - extra)
    return [j * q + min(j, extra) for j in range(len(lengths))], lengths


def _block_features(mx, sm, rows, cols, pool_blocks, z_min):
    """Per block, row-major: S height maxes and means, density mean and max,
    from (..., len(rows), len(cols), S + 1) stats of blocks with lengths
    ``rows`` x ``cols``. Missing blocks get the height sentinel, zero density."""
    m_r, m_c, ch = mx.shape[-3:]
    out = np.zeros(mx.shape[:-3] + (pool_blocks, pool_blocks, 2 * ch))
    out[..., :2 * ch - 2] = z_min
    out[..., :m_r, :m_c, :ch - 1] = mx[..., :-1]
    out[..., :m_r, :m_c, ch - 1:-1] = sm / np.outer(rows, cols)[:, :, None]
    out[..., :m_r, :m_c, -1] = mx[..., -1]
    return out.reshape(mx.shape[:-3] + (-1,))


def _pool_stats(heights: np.ndarray, density: np.ndarray, pool_blocks: int,
                z_min: float) -> np.ndarray:
    """Pooled block stats over the trailing (R, C[, S]) axes, after any batch axes.
    Block maxes and sums are reduced over rows, then columns, as in ``anchor_features``."""
    stack = np.concatenate([heights, density[..., None]], axis=-1)
    (r_at, rows), (c_at, cols) = (_block_spans(n, pool_blocks) for n in stack.shape[-3:-1])
    mx, sm = (f.reduceat(f.reduceat(stack, r_at, axis=-3), c_at, axis=-2)
              for f in (np.maximum, np.add))
    return _block_features(mx, sm, rows, cols, pool_blocks, z_min)


SLAB_CELLS = 1 << 16  # floats per lattice chunk's block table: bounds its temporaries


def _pairwise_slabs(slab, k, n):
    """Sum of ``slab(k)`` to ``slab(k + n - 1)``, n >= 1, in the order of numpy's
    pairwise sum: a left fold below 8 terms; up to 128, 8 interleaved partial sums
    added as ((0+1)+(2+3))+((4+5)+(6+7)), then the leftover terms; above 128, the
    two halves summed apart, the first a multiple of 8 terms long."""
    if n < 8:
        out = slab(k)
        for i in range(k + 1, k + n):
            out += slab(i)
        return out
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_slabs(slab, k, half) + _pairwise_slabs(slab, k + half, n - half)
    r = [slab(k + j) for j in range(8)]
    for i in range(k + 8, k + n - n % 8, 8):
        for j, lane in enumerate(r):
            lane += slab(i + j)
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(k + n - n % 8, k + n):
        out += slab(i)
    return out


def _reduce_blocks(ufunc, a, starts, lengths):
    """``ufunc.reduceat``'s reduction of the blocks ``a[s:s + n]`` along axis 0, one
    per distinct (s, n) pair of the int arrays ``starts`` and ``lengths`` broadcast
    together: returns the table of reduced blocks and each pair's row in it.

    The blocks of one length are reduced as whole slabs ``a[starts + k]``.
    np.maximum folds them in order; np.add adds the first slab to the pairwise
    sum of the others, which is the order of reduceat's inner loop, so the
    table equals reduceat bit for bit."""
    width = lengths.max() + 1
    codes = starts * width + lengths
    pairs, at = np.unique(codes, return_inverse=True)
    table = np.empty((len(pairs),) + a.shape[1:])
    for n in np.unique(pairs % width):
        rows = np.flatnonzero(pairs % width == n)

        def slab(k, s=pairs[rows] // width):
            return a[s + k]

        if ufunc is np.add:
            table[rows] = slab(0) + _pairwise_slabs(slab, 1, n - 1) if n > 1 else slab(0)
        else:
            out = slab(0)
            for k in range(1, n):
                ufunc(out, slab(k), out=out)
            table[rows] = out
    return table, at.reshape(codes.shape)


CELL_EDGE_TOL = 1e-9  # cells


def cell_range(lo, hi, origin, res):
    """Unclipped first and last index of the cells whose centers ``origin + (i +
    0.5) * res`` lie in ``[lo, hi]`` (first > last if none). A center within
    CELL_EDGE_TOL of an edge counts as inside, so float noise cannot shrink a window."""
    # // floors Python floats and arrays alike, and ceil(x) is -((-x) // 1)
    first = -(((origin - lo) / res + 0.5 + CELL_EDGE_TOL) // 1)
    last = ((hi - origin) / res - 0.5 + CELL_EDGE_TOL) // 1
    if isinstance(first, np.ndarray):
        return first.astype(np.int64), last.astype(np.int64)
    return int(first), int(last)


def featurize(grid: BevGrid, candidate: Box3D, pool_blocks: int = 3) -> np.ndarray:
    """Fixed-length pooled feature vector for one candidate box."""
    spec = grid.spec
    env = aa_envelope(candidate)
    x0, x1 = env.cx - 0.5 * env.l, env.cx + 0.5 * env.l
    y0, y1 = env.cy - 0.5 * env.w, env.cy + 0.5 * env.w
    if x1 < spec.x_min or x0 > spec.x_max or y1 < spec.y_min or y0 > spec.y_max:
        raise OutOfGrid(f"candidate footprint [{x0:.2f},{x1:.2f}]x[{y0:.2f},{y1:.2f}] "
                        "misses the grid")
    r0, r1 = cell_range(x0, x1, spec.x_min, spec.xy_resolution)
    c0, c1 = cell_range(y0, y1, spec.y_min, spec.xy_resolution)
    r0, r1 = max(r0, 0), min(r1, spec.n_rows - 1)
    c0, c1 = max(c0, 0), min(c1, spec.n_cols - 1)
    if r0 > r1 or c0 > c1:
        return np.zeros(feature_length(spec.num_slices, pool_blocks))
    pooled = _pool_stats(grid.heights[r0:r1 + 1, c0:c1 + 1, :],
                         grid.density[r0:r1 + 1, c0:c1 + 1], pool_blocks, spec.z_min)
    geom = np.array([candidate.l, candidate.w, candidate.h, candidate.cz])
    return np.concatenate([pooled, geom])


@dataclass(frozen=True)
class AnchorLayout:
    """Anchor lattice description: k dim clusters x 2 orientation bins."""

    shapes: tuple          # ((l, w, h), ...) from dimension clustering
    stride: int = 4        # cells between anchor centers
    z_center: float = 0.8  # anchor center height

    def __post_init__(self) -> None:
        require_finite(self, ValueError)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not self.shapes:
            raise ValueError("layout needs at least one anchor shape")


@dataclass
class AnchorSet:
    """Materialized lattice: parallel arrays over all anchors.

    Extents are already swapped for the 90-degree bin, so every anchor is
    a yaw-free box. Order is shape-major, then orientation bin (unswapped
    first), then row-major lattice position.
    """

    spec: RangeSpec
    layout: AnchorLayout
    rows: np.ndarray
    cols: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    l: np.ndarray
    w: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def box(self, i: int) -> Box3D:
        return Box3D(float(self.cx[i]), float(self.cy[i]), self.layout.z_center,
                     float(self.l[i]), float(self.w[i]), float(self.h[i]), 0.0)

    def take(self, idx) -> "AnchorSet":
        """The anchors at ``idx``, in that order."""
        return replace(self, **{f.name: getattr(self, f.name)[idx] for f in fields(self)
                                if f.name not in ("spec", "layout")})


def _lattice_dims(layout: AnchorLayout) -> np.ndarray:
    """One (l, w, h) per shape and bin, the 90-degree bin with l and w swapped."""
    return np.array([d for sl, sw, sh in layout.shapes
                     for d in ((sl, sw, sh), (sw, sl, sh))], dtype=np.float64)


def build_anchor_set(layout: AnchorLayout, spec: RangeSpec) -> AnchorSet:
    """The anchor lattice on spec's grid; ValueError when it holds no anchor."""
    lat_rows = np.arange(layout.stride // 2, spec.n_rows, layout.stride)
    lat_cols = np.arange(layout.stride // 2, spec.n_cols, layout.stride)
    if not (len(lat_rows) and len(lat_cols)):
        raise ValueError(f"anchor stride {layout.stride} places no anchor on the "
                         f"{spec.n_rows}x{spec.n_cols}-cell grid")
    dims = _lattice_dims(layout)
    rows = np.tile(np.repeat(lat_rows, len(lat_cols)), len(dims))
    cols = np.tile(lat_cols, len(lat_rows) * len(dims))
    l, w, h = np.repeat(dims.T, len(rows) // len(dims), axis=1)
    return AnchorSet(spec=spec, layout=layout, rows=rows, cols=cols,
                     cx=spec.x_min + (rows + 0.5) * spec.xy_resolution,
                     cy=spec.y_min + (cols + 0.5) * spec.xy_resolution, l=l, w=w, h=h)


def _clipped_windows(grid: BevGrid, r0, r1, c0, c1):
    """The windows ``[r0, r1] x [c0, c1]`` clipped to the grid: their first row
    and column, their row and column counts, and the number of occupied cells
    in each. A cell is blank when its density is 0 and every height is the
    ``z_min`` sentinel, compared as bits, so a -0.0 is never a blank 0.0. The
    counts are exact: they come from an int64 prefix sum of the occupied
    cells, padded by a zero row and column."""
    spec = grid.spec
    density, heights = (np.asarray(a, dtype=np.float64).view(np.uint64)
                        for a in (grid.density, grid.heights))
    sentinel = np.float64(spec.z_min).view(np.uint64)
    occupied = density != 0
    for k in range(heights.shape[-1]):  # a slice at a time: 2x faster than any(axis=-1)
        occupied |= heights[..., k] != sentinel
    prefix = np.zeros((spec.n_rows + 1, spec.n_cols + 1), dtype=np.int64)
    prefix[1:, 1:] = occupied
    np.cumsum(prefix, axis=0, out=prefix)
    np.cumsum(prefix, axis=1, out=prefix)
    a0, a1 = np.clip(r0, 0, spec.n_rows), np.clip(r1 + 1, 0, spec.n_rows)
    b0, b1 = np.clip(c0, 0, spec.n_cols), np.clip(c1 + 1, 0, spec.n_cols)
    a1, b1 = np.maximum(a1, a0), np.maximum(b1, b0)
    count = prefix[a1, b1] - prefix[a0, b1] - prefix[a1, b0] + prefix[a0, b0]
    return (a0, b0), (a1 - a0, b1 - b0), count


@dataclass(eq=False)
class AnchorFeatures:
    """The feature rows of an anchor set in compact form: anchor i's row is
    ``rows[slot[i]]``, equal to ``featurize`` of anchor i bit for bit.

    ``rows`` (D, F) holds one row per occupied window, in anchor order, then
    one row per distinct (clipped size, l, w, h) of the blank windows; ``slot``
    (N,) gives each anchor's row. Indexing, ``feats[i]`` or ``feats[idx]``,
    gathers the dense rows of those anchors."""

    rows: np.ndarray
    slot: np.ndarray

    def __len__(self) -> int:
        return len(self.slot)

    def __getitem__(self, idx) -> np.ndarray:
        return self.rows[self.slot[idx]]


def anchor_features(grid: BevGrid, aset: AnchorSet, pool_blocks: int = 3) -> AnchorFeatures:
    """The feature rows of a whole anchor set, compact: no (N, F) matrix is built.

    Every anchor window, clipped to the grid, is one of two kinds, and both
    kinds are grouped by the clipped (rows, cols) size; the geometry columns
    are written apart, so a pooled row depends only on its window. A lattice
    anchor's window holds its own center cell, so no size is 0. A cell is
    blank when its density is 0 and every height is the ``z_min`` sentinel,
    both compared bit for bit; an int64 prefix sum of the occupied cells gives
    each window's exact occupied-cell count.

    A blank window, one with no occupied cell, pools to a row that depends only
    on its size, so the blank anchors of one size and one (l, w, h) of the
    layout share one row, computed by ``featurize`` on the first of them. The
    row is not assumed to be the sentinel: at ``z_min != 0`` the mean of n
    sentinels need not be ``z_min`` exactly.

    Each occupied window, border windows included, gets its own row, pooled
    from its clipped start, one size at a time, in chunks of window start rows.
    The row pass reduces each distinct row block once across the chunk's
    columns; the column pass reduces each distinct column block of that strip,
    transposed to (column, row block, channel), for all of the chunk's row
    blocks at once. Both passes run ``_reduce_blocks``, which adds in
    reduceat's order (first cell plus the pairwise sum of the rest), so these
    rows equal ``featurize`` bit for bit. A dense cloud, with every window
    occupied, has as many rows as anchors."""
    spec = grid.spec
    res = spec.xy_resolution
    r0, r1 = cell_range(aset.cx - 0.5 * aset.l, aset.cx + 0.5 * aset.l, spec.x_min, res)
    c0, c1 = cell_range(aset.cy - 0.5 * aset.w, aset.cy + 0.5 * aset.w, spec.y_min, res)
    (r0, c0), (n_rs, n_cs), count = _clipped_windows(grid, r0, r1, c0, c1)
    # one int per clipped window size, 50x faster than np.unique(axis=0)
    keys = n_rs * (spec.n_cols + 1) + n_cs
    occ, blank = np.flatnonzero(count), np.flatnonzero(count == 0)
    del r1, c1, n_rs, n_cs, count
    # each blank anchor's (l, w, h) as its index in the layout's lattice dims
    dims = _lattice_dims(aset.layout)
    lwh = [a[blank] for a in (aset.l, aset.w, aset.h)]
    dim = np.zeros(len(blank), dtype=np.int64)
    for j, d in enumerate(dims):
        dim[(lwh[0] == d[0]) & (lwh[1] == d[1]) & (lwh[2] == d[2])] = j
    _, first, at = np.unique(keys[blank] * len(dims) + dim, return_index=True,
                             return_inverse=True)
    rows = np.empty((len(occ) + len(first), feature_length(spec.num_slices, pool_blocks)))
    for k, i in enumerate(blank[first], len(occ)):
        rows[k] = featurize(grid, aset.box(int(i)), pool_blocks)
    slot = np.empty(len(aset), dtype=np.intp)
    slot[occ] = np.arange(len(occ))
    slot[blank] = len(occ) + at
    del blank, dim, lwh, at
    rows[:len(occ), -FEAT_GEOM:] = np.column_stack(
        [aset.l[occ], aset.w[occ], aset.h[occ], np.full(len(occ), aset.layout.z_center)])
    # from here on r0, c0 and keys are per occupied row
    r0, c0, keys = r0[occ], c0[occ], keys[occ]
    stack = np.concatenate([grid.heights, grid.density[..., None]], axis=-1)
    for key in np.unique(keys):
        sel = np.flatnonzero(keys == key)
        n_r, n_c = divmod(int(key), spec.n_cols + 1)
        (at_r, len_r), (at_c, len_c) = (np.array(_block_spans(n, pool_blocks))
                                        for n in (n_r, n_c))
        # chunks of window start rows whose row-block table holds <= SLAB_CELLS floats
        sel = sel[np.argsort(r0[sel], kind="stable")]
        firsts = np.unique(r0[sel], return_index=True)[1]
        span = c0[sel].max() + n_c - c0[sel].min()
        per = max(1, SLAB_CELLS // (len(len_r) * span * stack.shape[-1]))
        bounds = np.append(firsts[::per], len(sel))
        for sub in (sel[i:j] for i, j in zip(bounds[:-1], bounds[1:])):
            lo, hi = c0[sub].min(), c0[sub].max() + n_c
            stats = []
            for f in (np.maximum, np.add):
                strip, row_at = _reduce_blocks(f, stack[:, lo:hi], r0[sub, None] + at_r, len_r)
                # (column, row block, channel): the column pass gathers contiguous rows
                strip = np.ascontiguousarray(strip.transpose(1, 0, 2))
                table, col_at = _reduce_blocks(f, strip, c0[sub, None] - lo + at_c, len_c)
                stats.append(table[col_at[:, None, :], row_at[:, :, None]])
                del strip, table  # peak memory: one strip and one block table at a time
            rows[sub, :-FEAT_GEOM] = _block_features(*stats, len_r, len_c, pool_blocks,
                                                     spec.z_min)
    return AnchorFeatures(rows, slot)


# ---------------------------------------------------------------------------
# parameters

# A stage is a trunk (w1, b1: one ReLU hidden layer) feeding the linear heads
# of its losses.STAGE*_HEADS table: (name, width, loss kind).
STAGES = (("stage1", STAGE1_HEADS), ("stage2", STAGE2_HEADS))


def _trainable_shapes(feat_len: int, hidden1: int, hidden2: int) -> list:
    """(name, shape) per trainable array in blob order: per stage the
    trunk, then each head's weight and bias in table order."""
    out = []
    for (stage, heads), hidden in zip(STAGES, (hidden1, hidden2)):
        out += [(f"{stage}.w1", (feat_len, hidden)), (f"{stage}.b1", (hidden,))]
        for head, width, _ in heads:
            out += [(f"{stage}.w_{head}", (hidden, width)), (f"{stage}.b_{head}", (width,))]
    return out


class Stage(SimpleNamespace):
    """One stage: its head table ``heads`` and views w1, b1, w_<head>, b_<head>."""


class ModelParams:
    """Every trainable array as a named view into one float64 buffer, plus
    the anchor layout the model was trained for.

    ``flat`` holds all weight matrices first, so decoupled weight decay is
    the slice ``flat[:n_weights]``. ``views`` lists the arrays in blob
    order; ``stage1`` and ``stage2`` hold the same views per stage.
    Gradients live in a second instance (``zeros_like``) that training
    allocates once and every step overwrites.
    """

    def __init__(self, feat_len: int, hidden1: int, hidden2: int,
                 anchor_shapes: np.ndarray, meta: dict):
        self.anchor_shapes = anchor_shapes  # (k, 3)
        self.meta = meta                    # stride, z_center, pool_blocks
        self.dims = (feat_len, hidden1, hidden2)
        listing = _trainable_shapes(*self.dims)
        packed = sorted(listing, key=lambda item: -len(item[1]))  # stable: matrices first
        sizes = [math.prod(shape) for _, shape in packed]
        self.flat = np.zeros(sum(sizes))
        self.n_weights = sum(math.prod(shape) for _, shape in listing if len(shape) == 2)
        starts = np.cumsum([0] + sizes)
        views = {name: self.flat[start:start + size].reshape(shape)
                 for (name, shape), start, size in zip(packed, starts, sizes)}
        self.views = {name: views[name] for name, _ in listing}
        self.stage1, self.stage2 = (Stage(heads=heads, **{
            name.split(".")[1]: view for name, view in self.views.items()
            if name.startswith(stage + ".")}) for stage, heads in STAGES)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(*self.dims, self.anchor_shapes, self.meta)

    def layout(self) -> AnchorLayout:
        return AnchorLayout(shapes=tuple(tuple(float(v) for v in row)
                                         for row in self.anchor_shapes),
                            stride=int(round(self.meta["stride"])),
                            z_center=float(self.meta["z_center"]))

    @property
    def pool_blocks(self) -> int:
        return int(round(self.meta["pool_blocks"]))


META_KEYS = ("stride", "z_center", "pool_blocks")


def named_arrays(params: ModelParams) -> list:
    """Stable (name, array) listing used by the blob and gradcheck."""
    return list(params.views.items()) + [
        ("anchor_shapes", params.anchor_shapes),
        ("meta.layout", np.array([params.meta[k] for k in META_KEYS]))]


def init_params(cfg: "TrainConfig", feat_len: int, layout: AnchorLayout) -> ModelParams:
    """He-scaled trunk and head weights; log-variance heads and biases start at zero."""
    rng = np.random.default_rng([cfg.seed, 0])
    meta = {"stride": float(layout.stride), "z_center": float(layout.z_center),
            "pool_blocks": float(cfg.pool_blocks)}
    params = ModelParams(feat_len, cfg.hidden1, cfg.hidden2,
                         np.array(layout.shapes, dtype=np.float64), meta)
    for stage in (params.stage1, params.stage2):
        for w in [stage.w1] + [getattr(stage, f"w_{head}")
                               for head, _, kind in stage.heads if kind != "lv"]:
            w[...] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[0])
    return params


PARAMS_MAGIC = b"LDET"
PARAMS_VERSION = 1
BLOB_NAMES = [name for name, _ in _trainable_shapes(0, 0, 0)] + ["anchor_shapes",
                                                                  "meta.layout"]


def save_params(params: ModelParams, path) -> None:
    """Little-endian float32 blob with a shape-table header."""
    items = named_arrays(params)
    head = [struct.pack("<4sII", PARAMS_MAGIC, PARAMS_VERSION, len(items))]
    body = []
    for name, arr in items:
        raw = name.encode("utf-8")
        a = np.asarray(arr, dtype=np.float64)
        head.append(struct.pack("<I", len(raw)) + raw)
        head.append(struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape))
        body.append(np.ascontiguousarray(a, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(head) + b"".join(body))


def load_params(path) -> ModelParams:
    """Read a save_params blob; FormatError on anything else.

    The header must list save_params' arrays in its order, shaped as the
    head tables give for the feature length and hidden widths of
    stage1.w1 and stage2.w1; the body must hold exactly their float32
    values, all finite; stride and pool_blocks must be positive integers,
    the feature length one that feature_length gives for pool_blocks, and
    every anchor_shapes entry positive.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        if struct.unpack_from("<4sII", blob, 0) != (PARAMS_MAGIC, PARAMS_VERSION,
                                                    len(BLOB_NAMES)):
            raise FormatError(f"{path}: not a version {PARAMS_VERSION} parameters blob")
        off, shapes = 12, {}
        for want in BLOB_NAMES:
            (nlen,) = struct.unpack_from("<I", blob, off)
            (ndim,) = struct.unpack_from("<I", blob, off + 4 + nlen)
            if blob[off + 4:off + 4 + nlen] != want.encode("utf-8") or ndim > 2:
                raise FormatError(f"{path}: expected array {want!r} at byte {off}")
            shapes[want] = struct.unpack_from(f"<{ndim}I", blob, off + 8 + nlen)
            off += 8 + nlen + 4 * ndim
    except struct.error:
        raise FormatError(f"{path}: truncated header") from None
    w1a, w1b = shapes["stage1.w1"], shapes["stage2.w1"]
    dims = (*w1a, w1b[-1]) if len(w1a) == len(w1b) == 2 else (0, 0, 0)
    want = dict(_trainable_shapes(*dims) + [
        ("anchor_shapes", (shapes["anchor_shapes"][:1] or (0,)) + (3,)),
        ("meta.layout", (len(META_KEYS),))])
    for name in BLOB_NAMES:
        if shapes[name] != want[name] or 0 in want[name]:
            raise FormatError(f"{path}: {name} has shape {shapes[name]}, "
                              f"expected {want[name]} with every extent >= 1")
    sizes = [math.prod(shapes[name]) for name in BLOB_NAMES]
    if len(blob) - off != 4 * sum(sizes):
        raise FormatError(f"{path}: body holds {len(blob) - off} bytes, "
                          f"expected {4 * sum(sizes)}")
    body = np.frombuffer(blob, dtype="<f4", offset=off).astype(np.float64)
    if not np.isfinite(body).all():
        raise FormatError(f"{path}: non-finite parameter value")
    arrays = {name: part.reshape(shapes[name]) for name, part
              in zip(BLOB_NAMES, np.split(body, np.cumsum(sizes)[:-1]))}
    meta = {k: float(v) for k, v in zip(META_KEYS, arrays["meta.layout"])}
    if any(meta[k] < 1.0 or meta[k] != round(meta[k]) for k in ("stride", "pool_blocks")):
        raise FormatError(f"{path}: stride and pool_blocks must be positive integers")
    # feature_length(S, pb) - FEAT_GEOM = pb^2 (2S + 2) with S >= 1 slices
    cells = dims[0] - FEAT_GEOM
    block = meta["pool_blocks"] ** 2
    if cells % (2 * block) or cells < 4 * block:
        raise FormatError(f"{path}: feature length {dims[0]} does not fit "
                          f"pool_blocks {meta['pool_blocks']:g}")
    if not (arrays["anchor_shapes"] > 0.0).all():
        raise FormatError(f"{path}: anchor_shapes must be positive, got "
                          f"{arrays['anchor_shapes'].min():g}")
    params = ModelParams(*dims, anchor_shapes=arrays["anchor_shapes"], meta=meta)
    for name, view in params.views.items():
        view[...] = arrays[name]
    return params


# ---------------------------------------------------------------------------
# forward / backward

def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-scale dropout mask: zeros with probability rate, else 1/keep."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


# Log-variance heads are clipped to this band.  Unbounded negative outputs
# let e^{-s} blow past 1e3 on well-fit samples, which destabilises training.
LV_CLIP = 4.0


def _clip_lv(raw: np.ndarray):
    """Returns (clipped values, interior mask for the backward pass)."""
    inside = (np.abs(raw) < LV_CLIP).astype(raw.dtype)
    return np.clip(raw, -LV_CLIP, LV_CLIP), inside


def _forward(p: Stage, x: np.ndarray, mask: Optional[np.ndarray], what: str):
    """Trunk, then every head in table order; returns (*heads, cache)."""
    if x.ndim != 2 or x.shape[1] != p.w1.shape[0]:
        raise ShapeError(f"{what} must be (N, {p.w1.shape[0]}), got {x.shape}")
    pre = x @ p.w1 + p.b1
    hid = np.maximum(pre, 0.0)
    if mask is not None:
        hid = hid * mask
    outs, interiors = [], []
    for head, _, kind in p.heads:
        out = hid @ getattr(p, f"w_{head}") + getattr(p, f"b_{head}")
        out, interior = _clip_lv(out) if kind == "lv" else (out, None)
        outs.append(out)
        interiors.append(interior)
    return (*outs, (x, pre, hid, mask, interiors))


def _backward(p: Stage, cache, g: Stage, d_heads) -> Stage:
    """Writes the stage's gradients into the views of g and returns g;
    d_heads and the hidden-layer sum both follow the head table order."""
    x, pre, hid, mask, interiors = cache
    terms = []
    for (head, _, _), d, interior in zip(p.heads, d_heads, interiors):
        if interior is not None:
            d = d * interior
        np.matmul(hid.T, d, out=getattr(g, f"w_{head}"))
        d.sum(axis=0, out=getattr(g, f"b_{head}"))
        terms.append(d @ getattr(p, f"w_{head}").T)
    d_hid = sum(terms[1:], terms[0])
    if mask is not None:
        d_hid = d_hid * mask
    d_pre = d_hid * (pre > 0.0)
    np.matmul(x.T, d_pre, out=g.w1)
    d_pre.sum(axis=0, out=g.b1)
    return g


def stage1_forward(p: Stage, x: np.ndarray, mask: Optional[np.ndarray] = None):
    """Returns (logits, reg, log_var, cache)."""
    return _forward(p, x, mask, "stage-1 features")


def stage2_forward(p: Stage, x: np.ndarray, mask: Optional[np.ndarray] = None):
    """Returns (logits, loc, loc_log_var, orient, orient_log_var, cache)."""
    return _forward(p, x, mask, "stage-2 features")


def stage1_backward(p: Stage, cache, g: Stage, *d_heads) -> Stage:
    """d_heads: gradients of (logits, reg, log_var); fills g."""
    return _backward(p, cache, g, d_heads)


def stage2_backward(p: Stage, cache, g: Stage, *d_heads) -> Stage:
    """d_heads: gradients of (logits, loc, loc_lv, orient, orient_lv); fills g."""
    return _backward(p, cache, g, d_heads)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# training configuration and optimizer

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    decay_factor: float = 0.8
    decay_every: int = 2000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    dropout_rate: float = 0.5
    weight_decay: float = 5e-4
    phase1_steps: int = 2000
    phase2_steps: int = 6000
    seed: int = 0
    hidden1: int = 64
    hidden2: int = 128
    pool_blocks: int = 3
    form: str = "gaussian"
    pos_cap: int = 32
    neg_per_scene: int = 32
    roi_jitter: int = 3
    roi_negatives: int = 12
    rpn_pos: float = 0.5   # stage-1 anchor IoU at or above: positive
    rpn_neg: float = 0.3   # stage-1 anchor IoU below: negative
    frh_pos: float = 0.65  # stage-2 ROI thresholds, likewise
    frh_neg: float = 0.55
    rpn_noise_scale: float = 1.0
    loc_noise_scale: float = 1.0
    orient_noise_scale: float = 1.0
    outlier_prob: float = 0.15
    outlier_scale: float = 3.0
    loc_bias: float = 0.0
    orient_snap: float = 2.0

    def __post_init__(self) -> None:
        require_finite(self, ValueError)
        for name in ("learning_rate", "decay_factor", "beta1", "beta2", "eps"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")
        if self.phase1_steps < 0 or self.phase2_steps < 0 or self.decay_every < 1:
            raise ValueError("step counts must be nonnegative with decay_every >= 1")
        if self.form not in LIKELIHOOD_FORMS:
            raise ValueError(f"form must be one of {LIKELIHOOD_FORMS}, got {self.form!r}")
        if min(self.hidden1, self.hidden2, self.pool_blocks) < 1:
            raise ValueError("hidden sizes and pool_blocks must be >= 1")
        for name in ("pos_cap", "neg_per_scene", "roi_jitter", "roi_negatives",
                     "rpn_noise_scale", "loc_noise_scale", "orient_noise_scale",
                     "outlier_scale", "loc_bias", "orient_snap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(f"outlier_prob must be in [0, 1], got {self.outlier_prob!r}")
        for stage in ("rpn", "frh"):
            pos, neg = getattr(self, f"{stage}_pos"), getattr(self, f"{stage}_neg")
            if not 0.0 < pos <= 1.0:
                raise ValueError(f"{stage}_pos must be in (0, 1], got {pos!r}")
            if not 0.0 <= neg <= pos:
                raise ValueError(f"{stage}_neg must be in [0, {stage}_pos], got {neg!r}")


def lr_schedule(cfg: TrainConfig, step: int) -> float:
    """Staircase exponential decay: rate * factor^(step // every)."""
    return cfg.learning_rate * cfg.decay_factor ** (step // cfg.decay_every)


@dataclass
class AdamState:
    """Moments over the flat parameter buffer, and two scratch buffers of
    its size so that a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    tmp: np.ndarray
    tmp2: np.ndarray
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(*(np.zeros_like(params.flat) for _ in range(4)))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              cfg: TrainConfig, step: int) -> None:
    """One Adam update with decoupled weight decay on weight matrices only.

    In-place ops on the whole flat buffer, in the operand order of the
    per-array expression, so every element matches a per-array loop bitwise.
    """
    lr = lr_schedule(cfg, step)
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    theta, g, m, v, a, b = params.flat, grads.flat, state.m, state.v, state.tmp, state.tmp2
    m *= cfg.beta1
    m += np.multiply(g, 1.0 - cfg.beta1, out=a)
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, bc1, out=a)
    a *= lr
    np.sqrt(np.divide(v, bc2, out=b), out=b)
    b += cfg.eps
    theta -= np.divide(a, b, out=a)
    w = theta[:params.n_weights]
    w -= np.multiply(w, lr * cfg.weight_decay, out=a[:params.n_weights])


# ---------------------------------------------------------------------------
# batches

@dataclass
class StepBatch:
    x1: np.ndarray        # (N, F)
    rpn_cls: np.ndarray   # (N,) in {1, 0, -1}
    rpn_reg: np.ndarray   # (N, 6)
    x2: np.ndarray        # (M, F)
    frh_cls: np.ndarray   # (M,)
    frh_loc: np.ndarray   # (M, 10)
    frh_orient: np.ndarray  # (M, 2)


def run_batch(params: ModelParams, grads: ModelParams, batch: StepBatch,
              cfg: TrainConfig, step: int, attenuate: bool) -> LossBreakdown:
    """Loss of one step; its parameter gradients overwrite every view of
    ``grads`` (a ``zeros_like`` of params, reused across steps).

    Dropout masks are regenerated from (seed, step, stage), so repeated
    calls at the same step see identical masks; a dropout_rate of 0 uses none.
    """
    mask1 = mask2 = None
    if cfg.dropout_rate > 0.0:
        mask1 = dropout_mask(np.random.default_rng([cfg.seed, 1, step, 1]),
                             (len(batch.x1), cfg.hidden1), cfg.dropout_rate)
        mask2 = dropout_mask(np.random.default_rng([cfg.seed, 1, step, 2]),
                             (len(batch.x2), cfg.hidden2), cfg.dropout_rate)
    *heads1, cache1 = stage1_forward(params.stage1, batch.x1, mask1)
    *heads2, cache2 = stage2_forward(params.stage2, batch.x2, mask2)
    breakdown, d1, d2 = multi_loss(heads1, heads2, batch, cfg.form, attenuate)
    stage1_backward(params.stage1, cache1, grads.stage1, *d1)
    stage2_backward(params.stage2, cache2, grads.stage2, *d2)
    return breakdown


# ---------------------------------------------------------------------------
# training pools

@dataclass
class ScenePack:
    """Precomputed per-scene candidate pool with clean targets."""

    x1: np.ndarray
    rpn_cls: np.ndarray
    rpn_reg: np.ndarray
    rpn_sigma: np.ndarray
    x2: np.ndarray
    frh_cls: np.ndarray
    frh_loc: np.ndarray
    frh_orient: np.ndarray
    frh_sigma: np.ndarray


@dataclass
class TrainingSet:
    packs: list
    feat_len: int


def build_training_set(scenes, layout: AnchorLayout, spec: RangeSpec,
                       cfg: TrainConfig) -> TrainingSet:
    """Rasterize scenes and freeze per-scene candidate pools.

    Both stages label candidates with ``codec.assign`` at the thresholds
    of ``cfg``. Stage 1 pools the positive anchors (``rpn_pos``), highest
    IoU first and capped, then the best anchor per truth force-included,
    plus sampled negative anchors (``rpn_neg``). Stage 2 pools each
    truth's exact envelope and jittered copies plus near-miss and random
    negatives, labeled by the stricter ``frh_pos``/``frh_neg``; positive
    rows encode the true rotated box. Both pools are a few dozen boxes per
    scene, so each row is one ``featurize`` call.
    """
    feat_len = feature_length(spec.num_slices, cfg.pool_blocks)

    def pooled(grid, boxes):
        rows = [featurize(grid, b, cfg.pool_blocks) for b in boxes]
        return np.stack(rows) if rows else np.zeros((0, feat_len))

    aset = build_anchor_set(layout, spec)
    anchor_ext = aa_extents(aset.cx, aset.cy, aset.l, aset.w)
    packs = []
    for scene_idx, scene in enumerate(scenes):
        rng = np.random.default_rng([cfg.seed, 2, scene_idx])
        grid = rasterize(scene.cloud, spec)
        envs = [aa_envelope(g.box) for g in scene.gts]
        sigmas = np.array([n.sigma_label for n in scene.noise], dtype=np.float64)

        # stage 1: anchor pool against truth envelopes
        truth_ext = box_extents(envs)
        iou = iou_aa(anchor_ext, truth_ext)
        labels, matched = assign(iou, cfg.rpn_pos, cfg.rpn_neg)
        above = np.flatnonzero(labels == 1)
        ranked = above[np.argsort(-iou[above, matched[above]], kind="stable")][:cfg.pos_cap]
        best = iou.argmax(axis=0)
        forced = best[iou[best, np.arange(len(envs))] > 0.0]
        forced = forced[np.sort(np.unique(forced, return_index=True)[1])]
        pos = np.concatenate([ranked, forced[~np.isin(forced, ranked)]])
        neg_pool = np.flatnonzero(labels == 0)
        n_neg = min(cfg.neg_per_scene, len(neg_pool))
        neg = np.sort(rng.choice(neg_pool, size=n_neg, replace=False))
        sel = np.concatenate([pos, neg])
        x1 = pooled(grid, map(aset.box, sel.tolist()))
        rpn_cls = np.zeros(len(sel), dtype=np.int64)
        rpn_cls[:len(pos)] = 1
        # forced anchors may lie below rpn_pos, so match every pooled row
        truth = iou[pos].argmax(axis=1) if len(pos) else pos
        rpn_reg = np.zeros((len(sel), RPN_DIM))
        for row, (a, j) in enumerate(zip(pos.tolist(), truth.tolist())):
            rpn_reg[row] = encode_rpn(aset.box(a), envs[j])
        rpn_sigma = np.zeros(len(sel))
        rpn_sigma[:len(pos)] = sigmas[truth]

        # stage 2: truth-anchored ROIs plus negatives
        cands = []
        for e in envs:
            cands.append(e)
            for _ in range(cfg.roi_jitter):
                dx, dy = rng.normal(0.0, 0.4, 2)
                sx, sy = np.exp(rng.normal(0.0, 0.08, 2))
                cands.append(Box3D(e.cx + dx, e.cy + dy, e.cz,
                                   max(0.5, e.l * sx), max(0.5, e.w * sy), e.h, 0.0))
        for k in range(cfg.roi_negatives):
            if envs and k % 2 == 0:
                e = envs[int(rng.integers(len(envs)))]
                dx, dy = rng.uniform(2.0, 5.0, 2) * rng.choice([-1.0, 1.0], 2)
                cx = float(np.clip(e.cx + dx, spec.x_min + 2.0, spec.x_max - 2.0))
                cy = float(np.clip(e.cy + dy, spec.y_min + 2.0, spec.y_max - 2.0))
                cands.append(Box3D(cx, cy, e.cz, e.l, e.w, e.h, 0.0))
            else:
                cands.append(Box3D(rng.uniform(spec.x_min + 3, spec.x_max - 3),
                                   rng.uniform(spec.y_min + 3, spec.y_max - 3),
                                   0.8, 4.2, 1.8, 1.6, 0.0))
        frh_cls, matched = assign(iou_aa(box_extents(cands), truth_ext),
                                  cfg.frh_pos, cfg.frh_neg)
        hits = np.flatnonzero(frh_cls == 1)
        frh_loc = np.zeros((len(cands), FRH_LOC_DIM))
        frh_orient = np.zeros((len(cands), FRH_ORIENT_DIM))
        for i in hits.tolist():
            frh_loc[i], frh_orient[i] = encode_frh(cands[i], scene.gts[matched[i]].box)
        frh_sigma = np.zeros(len(cands))
        frh_sigma[hits] = sigmas[matched[hits]]
        packs.append(ScenePack(x1=x1, rpn_cls=rpn_cls, rpn_reg=rpn_reg,
                               rpn_sigma=rpn_sigma, x2=pooled(grid, cands),
                               frh_cls=frh_cls, frh_loc=frh_loc, frh_orient=frh_orient,
                               frh_sigma=frh_sigma))
    return TrainingSet(packs=packs, feat_len=feat_len)


_BASE_ANGLES = np.array([-math.pi, -0.5 * math.pi, 0.0, 0.5 * math.pi, math.pi])


def _snap_orientation(r_v: np.ndarray, amount: np.ndarray) -> np.ndarray:
    """Rotate (cos, sin) targets toward the nearest base angle.

    Mimics annotators aligning sparse boxes with the axes; each row
    moves by at most its own amount (radians).
    """
    theta = np.arctan2(r_v[:, 1], r_v[:, 0])
    nearest = _BASE_ANGLES[np.argmin(np.abs(theta[:, None] - _BASE_ANGLES[None, :]),
                                     axis=1)]
    delta = nearest - theta
    snapped = theta + np.sign(delta) * np.minimum(np.abs(delta), amount)
    return np.stack([np.cos(snapped), np.sin(snapped)], axis=1)


def apply_label_noise(pack: ScenePack, cfg: TrainConfig, scene_idx: int) -> StepBatch:
    """Corrupt stored targets once, like annotation error on a dataset.

    Three effects, all scaled by the object's sigma: a systematic pull
    of box extent toward the sensor (annotators trace the visible near
    side and guess the far side short), a snap of orientation toward the
    nearest base angle, and a Gaussian scatter with an outlier mixture.
    The draws are fixed per scene, so a biased label stays biased across
    every visit and cannot be averaged away; negatives carry zero sigma
    and pass through.
    """
    rng = np.random.default_rng([cfg.seed, 3, scene_idx])
    sig1 = pack.rpn_sigma * cfg.rpn_noise_scale
    eps1 = rng.standard_normal(pack.rpn_reg.shape)
    out1 = np.where(rng.random(len(pack.rpn_reg)) < cfg.outlier_prob,
                    cfg.outlier_scale, 1.0)
    rpn_reg = pack.rpn_reg + (sig1 * out1)[:, None] * eps1
    rpn_reg[:, 0] -= cfg.loc_bias * sig1
    sig2 = pack.frh_sigma * cfg.loc_noise_scale
    eps_loc = rng.standard_normal(pack.frh_loc.shape)
    eps_or = rng.standard_normal(pack.frh_orient.shape)
    out2 = np.where(rng.random(len(pack.frh_loc)) < cfg.outlier_prob,
                    cfg.outlier_scale, 1.0)
    frh_loc = pack.frh_loc + (sig2 * out2)[:, None] * eps_loc
    frh_loc[:, :4] -= (cfg.loc_bias * sig2)[:, None]
    sig_or = pack.frh_sigma * cfg.orient_noise_scale
    snapped = _snap_orientation(pack.frh_orient, cfg.orient_snap * sig_or)
    frh_orient = np.where((sig_or > 0.0)[:, None], snapped, pack.frh_orient)
    frh_orient += (sig_or * out2)[:, None] * eps_or
    return StepBatch(x1=pack.x1, rpn_cls=pack.rpn_cls, rpn_reg=rpn_reg,
                     x2=pack.x2, frh_cls=pack.frh_cls, frh_loc=frh_loc,
                     frh_orient=frh_orient)


@dataclass
class LogRow:
    step: int
    lr: float
    rpn_reg: float
    rpn_cls: float
    frh_loc: float
    frh_cls: float
    frh_orient: float
    total: float


def train(training_set: TrainingSet, cfg: TrainConfig, layout: AnchorLayout):
    """Two-phase training loop; returns (params, per-step log).

    Phase one optimizes the plain objective, leaving the zero-initialized
    log-variance heads untouched; phase two enables attenuation. Scenes
    are visited round-robin; everything is reproducible from the seed.
    """
    if not training_set.packs:
        raise ValueError("training set must be nonempty")
    params = init_params(cfg, training_set.feat_len, layout)
    state = init_adam(params)
    grads = params.zeros_like()
    batches = [apply_label_noise(p, cfg, i)
               for i, p in enumerate(training_set.packs)]
    log = []
    for step in range(cfg.phase1_steps + cfg.phase2_steps):
        batch = batches[step % len(batches)]
        attenuate = step >= cfg.phase1_steps
        breakdown = run_batch(params, grads, batch, cfg, step, attenuate)
        if not math.isfinite(breakdown.total):
            raise DivergenceError(f"non-finite loss at step {step}")
        adam_step(params, grads, state, cfg, step)
        log.append(LogRow(step, lr_schedule(cfg, step), *astuple(breakdown),
                          breakdown.total))
    return params, log


LOG_FIELDS = tuple(f.name for f in fields(LogRow))


def save_log(log, path) -> None:
    write_table(path, LOG_FIELDS, map(astuple, log))


# ---------------------------------------------------------------------------
# inference

@dataclass(frozen=True)
class InferConfig:
    pre_nms_top: int = 512
    nms_threshold: float = 0.8
    proposal_count: int = 64
    final_nms_threshold: float = 0.3
    score_min: float = 0.05

    def __post_init__(self) -> None:
        for name in ("pre_nms_top", "proposal_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("nms_threshold", "final_nms_threshold", "score_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")


@dataclass
class Detection:
    box: Box3D
    score: float
    rpn_log_var: np.ndarray
    loc_log_var: np.ndarray
    orient_log_var: np.ndarray
    frame_id: str = ""


STAGE1_CELLS = 1 << 20  # hidden activations per stage-1 block in infer (module doc)


def _stage1_blocks(p: Stage, x: np.ndarray, slot: Optional[np.ndarray] = None):
    """(logits, reg, log_var) of stage1_forward over the anchor rows ``x[slot]``
    (``x`` itself when slot is None), scored in blocks of STAGE1_CELLS //
    hidden1 rows; each block's rows are gathered on their own and its cache is
    dropped before the next, so no (N, F) matrix is built.

    The row rule: if the distinct rows ``x``, zero-padded up to whole blocks,
    are fewer than the N anchors, those blocks are scored and the outputs
    mapped back through slot. Otherwise the N anchor rows are scored, the
    remainder joined to the last block, so fewer than two blocks' rows are one
    call. So no more than N rows are scored, and compact rows are scored only
    in whole blocks, never in a shorter product that would fall into
    OpenBLAS's small-matrix kernel: both sides keep the bits of one call over
    all anchor rows (module doc)."""
    size = max(1, STAGE1_CELLS // p.w1.shape[1])
    n = len(x) if slot is None else len(slot)
    padded = -(-len(x) // size) * size
    outs = []
    if padded < n:
        for i in range(0, padded, size):
            block = x[i:i + size]
            if len(block) < size:
                block = np.concatenate([block, np.zeros((size - len(block),) + x.shape[1:])])
            outs.append(stage1_forward(p, block)[:3])
        return tuple(np.concatenate(out)[slot] for out in zip(*outs))
    edges = [0, *range(size, n - size + 1, size), n]
    for a, b in zip(edges[:-1], edges[1:]):
        outs.append(stage1_forward(p, x[a:b] if slot is None else x[slot[a:b]])[:3])
    return tuple(np.concatenate(out) for out in zip(*outs))


def infer(params: ModelParams, grid: BevGrid, icfg: InferConfig = InferConfig(),
          frame_id: str = "", anchor_feats: Optional[AnchorFeatures] = None) -> list:
    """Score anchors, keep proposals through NMS, refine with stage 2.

    Deterministic: no dropout at inference, stable orderings throughout.
    Stage 1 scores the compact rows of ``anchor_features``, or the anchor
    rows, whichever are fewer once padded to whole blocks of STAGE1_CELLS
    hidden activations (``_stage1_blocks``, module doc). That bounds its
    temporaries whatever the anchor count, and keeps the bits of one call
    over all anchors. anchor_feats, when given, must be anchor_features()
    for this grid and the model's layout (ShapeError when it covers another
    number of anchors); it skips featurizing the grid again when several
    parameter sets are scored on one grid.
    """
    layout = params.layout()
    pool_blocks = params.pool_blocks
    aset = build_anchor_set(layout, grid.spec)
    x = anchor_feats if anchor_feats is not None else anchor_features(
        grid, aset, pool_blocks)
    if len(x) != len(aset):
        raise ShapeError(f"anchor_feats covers {len(x)} anchors, but the model's "
                         f"anchor set on this grid has {len(aset)}")
    logits, reg, lv = _stage1_blocks(params.stage1, x.rows, x.slot)
    scores = softmax(logits)[:, 1]
    order = np.argsort(-scores, kind="stable")[:icfg.pre_nms_top]
    proposals = [decode_rpn(aset.box(int(i)), reg[i]) for i in order]
    keep = nms_indices(box_extents(proposals), scores[order], icfg.nms_threshold,
                       icfg.proposal_count)
    ranks = []
    feats = []
    for k in keep:
        try:
            feats.append(featurize(grid, proposals[k], pool_blocks))
        except OutOfGrid:
            continue
        ranks.append(k)
    if not ranks:
        return []
    logits2, loc, loc_lv, orient, orient_lv, _ = stage2_forward(params.stage2,
                                                                 np.stack(feats))
    scores2 = softmax(logits2)[:, 1]
    dets = [Detection(box=decode_frh(proposals[k], loc[i], orient[i]),
                      score=float(scores2[i]), rpn_log_var=np.array(lv[order[k]]),
                      loc_log_var=np.array(loc_lv[i]),
                      orient_log_var=np.array(orient_lv[i]), frame_id=frame_id)
            for i, k in enumerate(ranks) if scores2[i] >= icfg.score_min]
    final = nms_indices(box_extents([aa_envelope(d.box) for d in dets]),
                        np.array([d.score for d in dets]), icfg.final_nms_threshold)
    return [dets[i] for i in final]


def detect_scenes(params: ModelParams, scenes, spec: RangeSpec,
                  icfg: InferConfig = InferConfig()) -> list:
    """Run inference over scenes, one detection list per scene."""
    return [infer(params, rasterize(scene.cloud, spec), icfg, frame_id=scene.cloud.frame_id)
            for scene in scenes]


DET_FIELDS = (["cx", "cy", "cz", "l", "w", "h", "yaw", "score"]
              + [f"rpn_lv_{i}" for i in range(RPN_DIM)]
              + [f"loc_lv_{i}" for i in range(FRH_LOC_DIM)]
              + [f"orient_lv_{i}" for i in range(FRH_ORIENT_DIM)])


def save_detections(dets, path) -> None:
    write_table(path, DET_FIELDS, ([d.box.cx, d.box.cy, d.box.cz, d.box.l, d.box.w,
                                    d.box.h, d.box.yaw, d.score, *d.rpn_log_var,
                                    *d.loc_log_var, *d.orient_log_var] for d in dets))


def load_detections(path, frame_id: str = "") -> list:
    lv_end = 8 + RPN_DIM + FRH_LOC_DIM
    return [Detection(box=Box3D(*v[:7]), score=v[7],
                      rpn_log_var=np.array(v[8:8 + RPN_DIM]),
                      loc_log_var=np.array(v[8 + RPN_DIM:lv_end]),
                      orient_log_var=np.array(v[lv_end:]), frame_id=frame_id)
            for v in read_table(path, DET_FIELDS, [positive_float if f in ("l", "w", "h")
                                                   else finite_float for f in DET_FIELDS])]


# ---------------------------------------------------------------------------
# finite-difference verification

def _rel_ok(analytic: float, numeric: float, rtol: float) -> bool:
    return abs(analytic - numeric) <= rtol * max(1.0, abs(analytic), abs(numeric))


def _central(fn, x: float, h: float = 1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def _check_arrays(arrays, loss, rtol: float, what: str) -> list:
    """Central differences of loss() in every element of each (name, array,
    analytic gradient); what formats the failure line from name[index]."""
    bad = []
    for name, arr, g in arrays:
        for idx in np.ndindex(arr.shape):
            def fn(t, arr=arr, idx=idx):
                before = arr[idx]
                arr[idx] = t
                val = loss()
                arr[idx] = before
                return val
            if not _rel_ok(g[idx], _central(fn, float(arr[idx])), rtol):
                bad.append(what.format(f"{name}{list(idx)}"))
    return bad


def _check_losses(seed: int, rtol: float) -> list:
    rng = np.random.default_rng([seed, 10])
    bad = []
    for _ in range(20):
        r = float(rng.normal(0.0, 2.0))
        if abs(abs(r) - 1.0) < 1e-3:
            continue
        _, d = smooth_l1(r)
        if not _rel_ok(d, _central(lambda t: smooth_l1(t)[0], r), rtol):
            bad.append(f"smooth_l1 derivative at r={r!r}")
    logits = rng.normal(0.0, 2.0, 5)
    label = int(rng.integers(5))
    _, grad = cross_entropy(logits, label)
    for i in range(5):
        def f(t, i=i):
            z = logits.copy()
            z[i] = t
            return cross_entropy(z, label)[0]
        if not _rel_ok(grad[i], _central(f, logits[i]), rtol):
            bad.append(f"cross_entropy gradient component {i}")
    for form in ("gaussian", "laplace"):
        L = float(abs(rng.normal(1.0, 0.5))) + 0.05
        s = float(rng.normal(0.0, 1.0))
        _, d_res, d_s = attenuated_term(L, s, form)
        if not _rel_ok(d_res, _central(lambda t: attenuated_term(t, s, form)[0], L), rtol):
            bad.append(f"attenuated_term residual partial ({form})")
        if not _rel_ok(d_s, _central(lambda t: attenuated_term(L, t, form)[0], s), rtol):
            bad.append(f"attenuated_term log-variance partial ({form})")
    return bad


def _gradcheck_cfg(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, hidden1=8, hidden2=9, dropout_rate=0.5,
                       pool_blocks=1)


def _random_step_batch(rng, feat_len: int, n=6, m=5) -> StepBatch:
    def labels(k):
        lab = rng.integers(-1, 2, size=k)
        lab[0] = 1
        return lab
    return StepBatch(
        x1=rng.normal(0, 1.0, (n, feat_len)), rpn_cls=labels(n),
        rpn_reg=rng.normal(0, 0.8, (n, RPN_DIM)) + 0.001,
        x2=rng.normal(0, 1.0, (m, feat_len)), frh_cls=labels(m),
        frh_loc=rng.normal(0, 0.8, (m, FRH_LOC_DIM)) + 0.001,
        frh_orient=rng.normal(0, 0.8, (m, FRH_ORIENT_DIM)) + 0.001)


def _check_multi_loss(seed: int, rtol: float) -> list:
    rng = np.random.default_rng([seed, 11])
    form = LIKELIHOOD_FORMS[seed % 2]
    n, m = 7, 6
    batch = _random_step_batch(rng, 1, n, m)
    outputs = [[rng.normal(0, 0.8 if kind == "lv" else 1.2, (rows, width))
                for _, width, kind in heads] for rows, (_, heads) in zip((n, m), STAGES)]
    _, *grads = multi_loss(*outputs, batch, form)
    return _check_arrays(
        [(f"{stage}.{head}", out, g)
         for (stage, heads), outs, gs in zip(STAGES, outputs, grads)
         for (head, _, _), out, g in zip(heads, outs, gs)],
        lambda: multi_loss(*outputs, batch, form)[0].total, rtol,
        f"multi_loss gradient {{}} ({form})")


def _check_end_to_end(cfg: TrainConfig, rtol: float) -> list:
    feat_len = 15
    rng = np.random.default_rng([cfg.seed, 12])
    layout = AnchorLayout(shapes=((4.0, 1.8, 1.5),))
    params = init_params(cfg, feat_len, layout)
    for _, arr in named_arrays(params):
        if arr.ndim:
            arr += rng.normal(0, 0.05, arr.shape)
    batch = _random_step_batch(rng, feat_len)
    step = 3
    grads, scratch = params.zeros_like(), params.zeros_like()
    run_batch(params, grads, batch, cfg, step, attenuate=True)
    return _check_arrays(
        [(name, arr, grads.views[name]) for name, arr in params.views.items()],
        lambda: run_batch(params, scratch, batch, cfg, step, attenuate=True).total, rtol,
        f"end-to-end gradient {{}} (dropout_rate={cfg.dropout_rate:g})")


def gradcheck(seeds: int = 20, rtol: float = 1e-4):
    """Finite-difference verification of every analytic gradient.

    Returns (ok, report lines). Covers the base losses, the attenuated
    term in both forms, the assembled multi-loss, and the end-to-end
    model through dropout (masks are replayed, so the loss is a fixed
    differentiable function during differencing).
    """
    failures = []
    for seed in range(seeds):
        failures += [f"seed {seed}: {msg}" for msg in _check_losses(seed, rtol)]
        failures += [f"seed {seed}: {msg}" for msg in _check_multi_loss(seed, rtol)]
    for seed in range(min(seeds, 6)):
        failures += [f"seed {seed}: {msg}"
                     for msg in _check_end_to_end(_gradcheck_cfg(seed), rtol)]
    failures += [f"seed 0: {msg}" for msg
                 in _check_end_to_end(replace(_gradcheck_cfg(0), dropout_rate=0.0), rtol)]
    report = [f"checked {seeds} seeds at rtol {rtol:g}"]
    if failures:
        report += failures
        return False, report
    report.append("all analytic gradients match central finite differences")
    return True, report
