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
    labels, _ = ndimage.label(bits, structure=_structure(connectivity))
    faces = [labels[0], labels[-1], labels[:, 0], labels[:, -1],
             labels[:, :, 0], labels[:, :, -1]]
    border = np.unique(np.concatenate([f.ravel() for f in faces]))
    return np.isin(labels, border[border != 0])


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
    # scan order comes from each label's minimum linear voxel index, not from
    # whatever ids the labeling backend happens to assign
    ids, first = np.unique(labels, return_index=True)
    fg = ids != 0
    scan_ids = ids[fg][np.argsort(first[fg])].tolist()
    sizes = np.bincount(labels.ravel())
    # a stable sort keeps scan order among equal sizes
    keep = sorted(scan_ids, key=lambda lab: -int(sizes[lab]))[:k]
    return Mask(np.isin(labels, keep), mask.source_id)


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


def segment_lung(volume: Volume, params: SegmentationParams = None) -> Mask:
    """Full pipeline; raises EmptySegmentation when nothing survives.

    Erosion can split a lung, so the k-largest filter runs again after
    closing to restore the at-most-keep_k guarantee before holes are filled
    (filling can only merge components, never create them).
    """
    if params is None:
        params = SegmentationParams()
    conn = params.connectivity
    m = threshold_lung(volume, params)
    m = remove_border_components(m, conn)
    m = largest_components(m, params.keep_k, conn)
    m = morph_erode(m, params.erode_radius)
    m = morph_close(m, params.close_radius)
    m = largest_components(m, params.keep_k, conn)
    m = fill_holes(m, conn)
    if not m.bits.any():
        raise EmptySegmentation(f"no lung voxels found in {volume.source_id or 'volume'}")
    return m


def component_count(mask: Mask, connectivity: int = 26) -> int:
    _, n = ndimage.label(mask.bits, structure=_structure(connectivity))
    return int(n)
