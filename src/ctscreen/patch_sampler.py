"""Patch pyramid over standardized lung volumes.

A scan, given as its float32 (R, C, S) Hounsfield units and its boolean
lung mask, is normalized to a fixed 512x512x36 grid in [0,1], then each
pyramid level cuts a fixed number of fixed-size 3D patches whose in-plane
window covers at least half of the lung bounding box footprint. Placement is
seeded, so a (scan, seed) pair always yields the same patches. The origins
come from the mask alone, and each patch is standardized from only its own
window of the grid, with the same bytes as that window of the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .segmentation import grown_box

STANDARD_SHAPE = (512, 512, 36)
HU_CLIP = (-1000.0, 400.0)
# output voxels standardize_volume resamples at a time, in whole rows of
# axis 0: each float64 temporary of a slab then takes about 1 MiB, which a
# part of the pool may allocate (see `parallel`)
SLAB_VOXELS = 1 << 17

# level -> ((rows, cols, slices), patches per scan)
PATCH_TABLE = {
    "P1": ((16, 16, 9), 64),
    "P2": ((32, 32, 12), 32),
    "P3": ((64, 64, 15), 16),
    "P4": ((128, 128, 20), 8),
    "P5": ((256, 256, 27), 4),
    "P6": ((512, 512, 36), 1),
}

LEVELS = tuple(PATCH_TABLE)


@dataclass
class Sample:
    tensor: np.ndarray  # float32 in [0,1]
    label: int
    source_id: str
    level: str
    origin: tuple = (0, 0, 0)

    def __post_init__(self):
        # written so that NaN fails too
        if self.tensor.size and not (self.tensor.min() >= 0.0 and self.tensor.max() <= 1.0):
            raise ValueError("sample tensor must lie in [0,1]")


def _taps(n_in, n_out):
    """Linear map with endpoints on endpoints: each output index reads
    input indices i0 and i1 with weights 1 - frac and frac."""
    if n_out == 1 or n_in == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(pos).astype(np.int64)
    np.minimum(i0, max(n_in - 2, 0), out=i0)
    return i0, np.minimum(i0 + 1, n_in - 1), pos - i0


def _lerp(arr, axis, i0, i1, frac):
    """Resample one axis of arr through taps from _taps (or a slice of them),
    in float64. The products and sum run in place: each large temporary
    would be fresh memory, paid for in page faults."""
    shape = [1, 1, 1]
    shape[axis] = len(frac)
    frac = frac.reshape(shape)
    out = np.take(arr, i0, axis=axis).astype(np.float64, copy=False)
    out *= 1.0 - frac
    far = np.take(arr, i1, axis=axis).astype(np.float64, copy=False)
    far *= frac
    out += far
    return out


def _axis_order(in_shape, out_shape):
    # most-reducing axis first keeps intermediates small
    return sorted(range(3), key=lambda a: out_shape[a] / in_shape[a])


def _box_taps(in_shape, out_shape, box):
    """For each axis of `box` (three slices of the out_shape grid): the input
    range its outputs read, and their taps from _taps re-based onto that
    range, or None for an axis that is not resized."""
    reads, taps = [], []
    for n_in, n_out, s in zip(in_shape, out_shape, box):
        if n_in == n_out:
            reads.append(s)
            taps.append(None)
            continue
        i0, i1, frac = (t[s] for t in _taps(n_in, n_out))
        reads.append(slice(i0[0], i1[-1] + 1))
        taps.append((i0 - i0[0], i1 - i0[0], frac))
    return tuple(reads), taps


def trilinear_resample(arr, out_shape, box=None):
    """Separable trilinear resample; float64 math on every resized axis
    (the first promotes exactly), and a view of `arr` when none is resized.

    `box`, three slices of the out_shape grid, asks for that sub-box alone
    (by default the whole grid). Each axis pass is elementwise along the
    other two and the axis order comes from the whole grid, so the box
    holds the same bytes as that box of the whole resample.
    """
    if box is None:
        box = tuple(slice(0, n) for n in out_shape)
    order = _axis_order(arr.shape, out_shape)
    reads, taps = _box_taps(arr.shape, out_shape, box)
    arr = arr[reads]
    for axis in order:
        if taps[axis] is not None:
            arr = _lerp(arr, axis, *taps[axis])
    return arr


def standardize_volume(hu: np.ndarray, mask: np.ndarray, out_shape=STANDARD_SHAPE,
                       box=None) -> np.ndarray:
    """Set non-lung voxels to the low clip, clip HU, resample to `out_shape`,
    rescale to [0,1], and return the float32 sub-box `box` of that grid
    (three slices), by default the whole grid.

    For the whole grid an all-zero mask raises ValueError. A smaller box
    may hold no lung, so a caller that asks for boxes checks the mask once
    per scan itself, as extract_patches does.

    Every axis pass is elementwise along the other two axes, so each output
    voxel sees the same float64 operations, in the same order, whatever box
    it is computed in: the axis order comes from the whole grid, and each
    axis reads only the input range its taps over the box use. The box is
    filled a slab of SLAB_VOXELS voxels' worth of rows of axis 0 at a time,
    which bounds the float64 temporaries, and the pool's parts each take a
    run of these slabs.
    """
    lo, hi = HU_CLIP
    shape_in = hu.shape
    if mask.shape != shape_in:
        raise ValueError(f"mask {mask.shape} does not align with volume {shape_in}")
    if box is None:
        if not mask.any():
            raise ValueError("empty mask")
        box = tuple(slice(0, n) for n in out_shape)
    if len(box) != 3 or not all(0 <= s.start < s.stop <= n and s.step in (None, 1)
                                for s, n in zip(box, out_shape)):
        raise ValueError(f"{box} is not a box of the {out_shape} grid")
    order = _axis_order(shape_in, out_shape)
    rows = box[0]
    out = np.empty([s.stop - s.start for s in box], dtype=np.float32)
    step = max(1, SLAB_VOXELS // out[0].size)
    starts = range(rows.start, rows.stop, step)
    cuts = parallel.cuts(len(starts))

    def part(p):
        for start in starts[cuts[p]:cuts[p + 1]]:
            stop = min(start + step, rows.stop)
            read, taps = _box_taps(shape_in, out_shape, (slice(start, stop),) + box[1:])
            vox = np.where(mask[read], hu[read], np.float32(lo))
            vox = np.clip(vox, lo, hi, out=vox).astype(np.float64)
            for axis in order:
                if taps[axis] is not None:
                    vox = _lerp(vox, axis, *taps[axis])
            vox -= lo
            vox /= hi - lo
            # a blend of two equal clip values can round one ulp past them
            np.clip(vox, 0.0, 1.0, out=vox)
            out[start - rows.start:stop - rows.start] = vox
    parallel.run(part, len(cuts) - 1)
    return out


def _map_bbox(mask: np.ndarray, out_shape):
    """The mask's bounding box in standardized index space, rounded outward;
    an all-zero mask raises ValueError."""
    box = grown_box(mask, 0)
    if box is None:
        raise ValueError("empty mask")
    lows, highs = [], []
    for span, n_in, n_out in zip(box, mask.shape, out_shape):
        scale = (n_out - 1) / (n_in - 1) if n_in > 1 else 0.0
        lows.append(int(np.floor(span.start * scale)))
        highs.append(int(np.ceil((span.stop - 1) * scale)) + 1)  # exclusive
    return tuple(lows), tuple(highs)


def _overlap_1d(starts, extent, lo, hi):
    """Intersection length of [start, start+extent) with [lo, hi) per start."""
    left = np.maximum(starts, lo)
    right = np.minimum(starts + extent, hi)
    return np.maximum(right - left, 0)


def extract_patches(hu: np.ndarray, mask: np.ndarray, level: str, seed: int,
                    source_id: str, label: int = 0) -> list:
    """Cut the PATCH_TABLE count of seeded `level` patches from the scan's
    standardized STANDARD_SHAPE grid, standardizing only the windows it cuts.
    Each Sample records the scan as `source_id`.

    Origins come from the mask alone. Eligible origins are those whose (R,C)
    window covers >= 50% of its own footprint with the lung bounding box;
    when the box is too small for any origin to reach 50%, the best
    achievable overlap is used instead so the draw never stalls. Draws are
    uniform with replacement, and the output is sorted by origin so the
    ordering is canonical. Each tensor is standardize_volume over its window
    alone: the same bytes as that window of the whole standardized grid.
    """
    (pr, pc, ps), count = PATCH_TABLE[level]
    R, C, S = STANDARD_SHAPE
    (br, bc, _), (er, ec, _) = _map_bbox(mask, STANDARD_SHAPE)
    ov_r = _overlap_1d(np.arange(R - pr + 1), pr, br, er)
    ov_c = _overlap_1d(np.arange(C - pc + 1), pc, bc, ec)
    area = ov_r[:, None] * ov_c[None, :]
    need = min(0.5 * pr * pc, area.max())
    eligible = np.argwhere(area >= need)

    rng = np.random.default_rng([int(seed), LEVELS.index(level)])
    pick = rng.integers(0, len(eligible), size=count)
    s0 = rng.integers(0, S - ps + 1, size=count)
    origins = sorted((int(eligible[i][0]), int(eligible[i][1]), int(z))
                     for i, z in zip(pick, s0))
    return [Sample(standardize_volume(hu, mask, box=(
                       slice(r, r + pr), slice(c, c + pc), slice(s, s + ps))),
                   label, source_id, level, (r, c, s))
            for (r, c, s) in origins]
