"""Unsupervised lung segmentation.

Pipeline: HU threshold, drop border-connected blobs, keep the two largest
regions, erode, close, fill holes. All stages are pure functions on Mask.

Morphology uses a discrete Euclidean ball, isotropic in voxel units;
spacing is ignored. Offset (i, j, k) is in the ball iff
`np.sqrt(i*i + j*j + k*k) <= radius` in float64, the rule a Euclidean
distance transform applies. Out-of-grid voxels count as background, so
structures touching the border erode from that side too.

The ball is split into chords along axis 0: for each in-plane offset
(j, k) in the ball, the chord runs over i in [-h, h], h(j, k) being the
largest i whose offset is in the ball. Let d be a voxel's distance along
axis 0 to the nearest clear voxel. A voxel survives erosion iff every
chord lies wholly in the mask, that is iff d > h(j, k) at the voxel
shifted by (j, k), for each chord. The masks `d > h` are grown one step of
h at a time, so erosion is one AND of a shifted boolean view per chord (49
at radius 4) and no distance map is stored. Dilation is the erosion of the
complement with out-of-grid voxels counted as set.

`segment_lung` runs the stages after border removal on the lung box: the
smallest box that holds every voxel left after border removal, grown by
max(ceil(close_radius), 1) and clipped to the grid. The result is the one
the same stages give on the full grid:

- every set voxel lies in the box, and no stage sets a voxel outside it:
  erosion never grows the mask, and the closing's dilation reaches
  floor(close_radius) <= ceil(close_radius) voxels, so a voxel it would set
  past the box is past the grid too, where the grid clips it as the box does;
- all background outside the box reaches a grid face, so a background
  component reaches a grid face exactly when it reaches the box's face, and
  hole filling fills the same voxels;
- components are the same inside the box, and translation keeps C-order
  scan order, so the k-largest tie rule picks the same components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .nifti_io import Volume


class EmptySegmentation(ValueError):
    """No foreground survived the pipeline; scan is not a usable chest CT."""


@dataclass
class Mask:
    bits: np.ndarray  # bool, shape (R, C, S)
    source_id: str = ""

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 3:
            raise ValueError(f"mask must be 3D, got shape {self.bits.shape}")

    @property
    def shape(self):
        return self.bits.shape

    def count(self):
        return int(self.bits.sum())


def _check_radius(radius):
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"radius must be finite and non-negative, got {radius}")


@dataclass
class SegmentationParams:
    hu_low: float = -1000.0
    hu_high: float = -400.0
    keep_k: int = 2
    erode_radius: float = 2.0
    close_radius: float = 4.0
    connectivity: int = 26

    def __post_init__(self):
        if not self.hu_low < self.hu_high:
            raise ValueError("hu_low must be below hu_high")
        if self.keep_k < 1:
            raise ValueError("keep_k must be at least 1")
        _check_radius(self.erode_radius)
        _check_radius(self.close_radius)
        if self.connectivity not in (6, 26):
            raise ValueError("connectivity must be 6 or 26")


def _structure(connectivity: int):
    if connectivity == 26:
        return ndimage.generate_binary_structure(3, 3)
    if connectivity == 6:
        return ndimage.generate_binary_structure(3, 1)
    raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")


def _border_connected(bits, connectivity):
    """Voxels of `bits` whose component touches any of the six grid faces."""
    labels, n = ndimage.label(bits, structure=_structure(connectivity))
    border = np.zeros(n + 1, dtype=bool)
    for face in (labels[0], labels[-1], labels[:, 0], labels[:, -1],
                 labels[:, :, 0], labels[:, :, -1]):
        border[face] = True
    border[0] = False
    return border[labels]


def threshold_lung(volume: Volume, params: SegmentationParams) -> Mask:
    """Bit set iff hu_low <= voxel <= hu_high (both inclusive)."""
    v = volume.voxels
    bits = (v >= params.hu_low) & (v <= params.hu_high)
    return Mask(bits, volume.source_id)


def remove_border_components(mask: Mask, connectivity: int = 26) -> Mask:
    """Clear every component that touches any of the six grid faces."""
    return Mask(mask.bits & ~_border_connected(mask.bits, connectivity),
                mask.source_id)


def largest_components(mask: Mask, k: int, connectivity: int = 26) -> Mask:
    """Union of the k largest components by voxel count.

    Ties break toward the component encountered first in scan order
    (smaller minimum linear voxel index). Fewer than k components: keep all.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    labels, n = ndimage.label(mask.bits, structure=_structure(connectivity))
    if n <= k:
        return Mask(mask.bits.copy(), mask.source_id)
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    sizes[0] = 0
    keep = np.argsort(-sizes, kind="stable")[:k]
    cut = sizes[keep[-1]]
    tied = np.flatnonzero(sizes == cut)
    if tied.size > np.count_nonzero(sizes[keep] == cut):
        # the k-th place is shared, so scan order picks among the tied labels,
        # not whatever ids the labeling backend happens to assign
        keep = np.concatenate([np.flatnonzero(sizes > cut),
                               _in_scan_order(labels, tied)])[:k]
    lut = np.zeros(n + 1, dtype=bool)
    lut[keep] = True
    return Mask(lut[labels], mask.source_id)


def _in_scan_order(labels, ids):
    """`ids` sorted by each label's first voxel in C order, which lies in the
    first plane of the label's bounding box."""
    boxes = ndimage.find_objects(labels)

    def first(lab):
        rows, cols, slices = boxes[lab - 1]
        plane = labels[rows.start, cols, slices] == lab
        j, k = np.unravel_index(np.argmax(plane), plane.shape)
        return rows.start, cols.start + j, slices.start + k
    return sorted(ids.tolist(), key=first)


def _in_ball(n, radius):
    """Whether an offset of squared length `n` lies in the ball."""
    return np.sqrt(np.float64(n)) <= radius


def _chords(radius, reach):
    """{h: [(j, k), ...]}: the ball's axis-0 chords grouped by half-length.

    `reach` = (H, J, K) clamps |j| <= J, |k| <= K and h <= H, each bound the
    lesser of floor(radius) and the grid's extent on its axis. The clamp
    changes no result: an offset at or past the extent lands out of the grid
    for every voxel, as does the clamped offset that stands in for it. So the
    work is bounded by the grid's size whatever the radius.
    """
    H, J, K = reach
    by_h = {}
    for j in range(-J, J + 1):
        for k in range(-K, K + 1):
            rim = j * j + k * k
            if not _in_ball(rim, radius):
                continue
            h = 0
            while h < H and _in_ball((h + 1) ** 2 + rim, radius):
                h += 1
            by_h.setdefault(h, []).append((j, k))
    return by_h


def _erode_bits(bits, radius, outside=False):
    """Voxels whose whole ball lies in `bits`; out-of-grid voxels read as `outside`."""
    n0, n1, n2 = bits.shape
    r = int(math.floor(radius))
    H, J, K = min(r, n0), min(r, n1), min(r, n2)
    padded = np.pad(bits, ((0, 0), (J, J), (K, K)), constant_values=outside)
    # run is the mask d > h: set voxels whose axis-0 neighbours within h are set
    run = padded.copy()
    out = np.ones(bits.shape, dtype=bool)
    by_h = _chords(radius, (H, J, K))
    for h in range(H + 1):
        if h:
            run[:-h] &= padded[h:]
            run[h:] &= padded[:-h]
            if not outside:
                run[:h] = False
                run[-h:] = False
        for j, k in by_h.get(h, ()):
            out &= run[:, J + j:J + j + n1, K + k:K + k + n2]
    return out


def _dilate_bits(bits, radius):
    """Voxels within the ball of a set voxel; dilation is clipped to the grid."""
    return ~_erode_bits(~bits, radius, outside=True)


def morph_erode(mask: Mask, radius: float) -> Mask:
    _check_radius(radius)
    return Mask(_erode_bits(mask.bits, radius), mask.source_id)


def morph_close(mask: Mask, radius: float) -> Mask:
    """Dilate then erode with the same ball; dilation is clipped to the grid.

    With out-of-grid treated as background the composite is idempotent, which
    the tests check directly.
    """
    _check_radius(radius)
    return Mask(_erode_bits(_dilate_bits(mask.bits, radius), radius), mask.source_id)


def fill_holes(mask: Mask, connectivity: int = 26) -> Mask:
    """Set background components that cannot reach the grid border.

    `connectivity` is the foreground connectivity; the background flood uses
    the complementary value (26 <-> 6) to avoid counting a diagonal crack as
    both a wall and a passage.
    """
    bg_conn = 6 if connectivity == 26 else 26
    return Mask(~_border_connected(~mask.bits, bg_conn), mask.source_id)


def grown_box(bits, margin):
    """Slices of the smallest box holding every set voxel, grown by `margin`
    on each side and clipped to the grid; None when no voxel is set."""
    plane = bits.any(axis=2)
    box = []
    for present, n in zip((plane.any(axis=1), plane.any(axis=0),
                           bits.any(axis=(0, 1))), bits.shape):
        where = np.flatnonzero(present)
        if where.size == 0:
            return None
        box.append(slice(max(where[0] - margin, 0), min(where[-1] + 1 + margin, n)))
    return tuple(box)


def segment_lung(volume: Volume, params: SegmentationParams = None) -> Mask:
    """Full pipeline; raises EmptySegmentation when nothing survives.

    Erosion can split a lung, so the k-largest filter runs again after
    closing to restore the at-most-keep_k guarantee before holes are filled
    (filling can only merge components, never create them). Every stage
    after border removal runs on the lung box (see the module docstring).
    """
    if params is None:
        params = SegmentationParams()
    conn = params.connectivity
    m = threshold_lung(volume, params)
    m = remove_border_components(m, conn)
    box = grown_box(m.bits, max(math.ceil(params.close_radius), 1))
    if box is not None:
        m = Mask(m.bits[box], m.source_id)
        m = largest_components(m, params.keep_k, conn)
        m = morph_erode(m, params.erode_radius)
        m = morph_close(m, params.close_radius)
        m = largest_components(m, params.keep_k, conn)
        m = fill_holes(m, conn)
    if box is None or not m.bits.any():
        raise EmptySegmentation(f"no lung voxels found in {volume.source_id or 'volume'}")
    bits = np.zeros(volume.shape, dtype=bool)
    bits[box] = m.bits
    return Mask(bits, m.source_id)


def component_count(mask: Mask, connectivity: int = 26) -> int:
    _, n = ndimage.label(mask.bits, structure=_structure(connectivity))
    return int(n)
