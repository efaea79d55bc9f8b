"""Patch pyramid over standardized lung volumes.

Scans are normalized to a fixed 512x512x36 grid in [0,1], then each pyramid
level cuts a fixed number of fixed-size 3D patches whose in-plane window
covers at least half of the lung bounding box footprint. Placement is
seeded, so a (scan, seed) pair always yields the same patches. The origins
come from the mask alone, and each patch is standardized from only its own
window of the grid, with the same bytes as that window of the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nifti_io import Volume
from .segmentation import Mask, grown_box

STANDARD_SHAPE = (512, 512, 36)
HU_CLIP = (-1000.0, 400.0)
# output rows (axis 0) that standardize_volume resamples at a time
SLAB_ROWS = 32

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


class NoLungRegion(ValueError):
    """Mask has no foreground; there is nothing to anchor patches to."""


@dataclass(frozen=True)
class PatchSpec:
    level: str
    shape: tuple
    per_scan_count: int

    def __post_init__(self):
        if self.level in PATCH_TABLE:
            want_shape, want_count = PATCH_TABLE[self.level]
            if tuple(self.shape) != want_shape or self.per_scan_count != want_count:
                raise ValueError(
                    f"{self.level} is pinned to shape {want_shape} x {want_count} per scan")
        if len(self.shape) != 3 or min(self.shape) < 1 or self.per_scan_count < 1:
            raise ValueError(f"bad patch spec {self}")


def level_spec(level: str) -> PatchSpec:
    shape, count = PATCH_TABLE[level]
    return PatchSpec(level, shape, count)


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


def trilinear_resample(arr, out_shape):
    """Separable trilinear resample; float64 math on every resized axis
    (the first promotes exactly), and `arr` itself when none is resized."""
    for axis in _axis_order(arr.shape, out_shape):
        if arr.shape[axis] != out_shape[axis]:
            arr = _lerp(arr, axis, *_taps(arr.shape[axis], out_shape[axis]))
    return arr


def standardize_volume(volume: Volume, mask: Mask, out_shape=STANDARD_SHAPE,
                       box=None) -> Volume:
    """Mask out non-lung tissue, clip HU, resample to `out_shape`, rescale to
    [0,1], and return the sub-box `box` of that grid (three slices), by
    default the whole grid.

    For the whole grid an all-zero mask raises NoLungRegion. A smaller box
    may hold no lung, so a caller that asks for boxes checks the mask once
    per scan itself, as extract_patches does.

    Every axis pass is elementwise along the other two axes, so each output
    voxel sees the same float64 operations, in the same order, whatever box
    it is computed in: the axis order comes from the whole grid, and each
    axis reads only the input range its taps over the box use. The box is
    filled SLAB_ROWS rows of axis 0 at a time, which bounds the float64
    temporaries when it is the whole grid.
    """
    lo, hi = HU_CLIP
    shape_in = volume.voxels.shape
    if mask.bits.shape != shape_in:
        raise ValueError(f"mask {mask.bits.shape} does not align with volume {shape_in}")
    if box is None:
        if not mask.bits.any():
            raise NoLungRegion(f"empty mask for {mask.source_id or 'scan'}")
        box = tuple(slice(0, n) for n in out_shape)
    if len(box) != 3 or not all(0 <= s.start < s.stop <= n and s.step in (None, 1)
                                for s, n in zip(box, out_shape)):
        raise ValueError(f"{box} is not a box of the {out_shape} grid")
    resized = [a for a in _axis_order(shape_in, out_shape) if shape_in[a] != out_shape[a]]
    taps = {a: _taps(shape_in[a], out_shape[a]) for a in resized}

    def span(axis, start, stop):
        """Input range that outputs [start, stop) of `axis` read, and their
        taps re-based onto it."""
        if axis not in taps:
            return slice(start, stop), None
        i0, i1, frac = (t[start:stop] for t in taps[axis])
        return slice(i0[0], i1[-1] + 1), (i0 - i0[0], i1 - i0[0], frac)

    reads, box_taps = map(list, zip(*(span(a, s.start, s.stop) for a, s in enumerate(box))))
    rows = box[0]
    out = np.empty([s.stop - s.start for s in box], dtype=np.float32)
    for start in range(rows.start, rows.stop, SLAB_ROWS):
        stop = min(start + SLAB_ROWS, rows.stop)
        reads[0], box_taps[0] = span(0, start, stop)
        read = tuple(reads)
        vox = np.where(mask.bits[read], volume.voxels[read], np.float32(lo))
        vox = np.clip(vox, lo, hi, out=vox).astype(np.float64)
        for axis in resized:
            vox = _lerp(vox, axis, *box_taps[axis])
        vox -= lo
        vox /= hi - lo
        # a blend of two equal clip values can round one ulp past them
        np.clip(vox, 0.0, 1.0, out=vox)
        out[start - rows.start:stop - rows.start] = vox
    new_spacing = tuple(
        sp * ((n_in - 1) / (n_out - 1)) if n_out > 1 else sp * n_in
        for sp, n_in, n_out in zip(volume.spacing, shape_in, out_shape))
    return Volume(out, new_spacing, volume.source_id)


def _map_bbox(mask: Mask, out_shape):
    """Mask bounding box in standardized index space, rounded outward; an
    all-zero mask raises NoLungRegion."""
    box = grown_box(mask.bits, 0)
    if box is None:
        raise NoLungRegion(f"empty mask for {mask.source_id or 'scan'}")
    lows, highs = [], []
    for span, n_in, n_out in zip(box, mask.bits.shape, out_shape):
        scale = (n_out - 1) / (n_in - 1) if n_in > 1 else 0.0
        lows.append(int(np.floor(span.start * scale)))
        highs.append(int(np.ceil((span.stop - 1) * scale)) + 1)  # exclusive
    return tuple(lows), tuple(highs)


def _overlap_1d(starts, extent, lo, hi):
    """Intersection length of [start, start+extent) with [lo, hi) per start."""
    left = np.maximum(starts, lo)
    right = np.minimum(starts + extent, hi)
    return np.maximum(right - left, 0)


def extract_patches(volume: Volume, mask: Mask, spec: PatchSpec, seed: int,
                    label: int = 0) -> list:
    """Cut spec.per_scan_count seeded patches from the scan's standardized
    STANDARD_SHAPE grid, standardizing only the windows it cuts.

    Origins come from the mask alone. Eligible origins are those whose (R,C)
    window covers >= 50% of its own footprint with the lung bounding box;
    when the box is too small for any origin to reach 50%, the best
    achievable overlap is used instead so the draw never stalls. Draws are
    uniform with replacement, and the output is sorted by origin so the
    ordering is canonical. Each tensor is standardize_volume over its window
    alone: the same bytes as that window of the whole standardized grid.
    """
    pr, pc, ps = spec.shape
    R, C, S = STANDARD_SHAPE
    if pr > R or pc > C or ps > S:
        raise ValueError(f"patch {spec.shape} exceeds the standard grid {STANDARD_SHAPE}")

    (br, bc, _), (er, ec, _) = _map_bbox(mask, STANDARD_SHAPE)
    ov_r = _overlap_1d(np.arange(R - pr + 1), pr, br, er)
    ov_c = _overlap_1d(np.arange(C - pc + 1), pc, bc, ec)
    area = ov_r[:, None] * ov_c[None, :]
    need = min(0.5 * pr * pc, area.max())
    eligible = np.argwhere(area >= need)

    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), LEVELS.index(spec.level)
                                if spec.level in LEVELS else 0])))
    pick = rng.integers(0, len(eligible), size=spec.per_scan_count)
    s0 = rng.integers(0, S - ps + 1, size=spec.per_scan_count)
    origins = sorted((int(eligible[i][0]), int(eligible[i][1]), int(z))
                     for i, z in zip(pick, s0))
    return [Sample(standardize_volume(volume, mask, box=(
                       slice(r, r + pr), slice(c, c + pc), slice(s, s + ps))).voxels,
                   label, volume.source_id, spec.level, (r, c, s))
            for (r, c, s) in origins]
