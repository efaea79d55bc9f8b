"""Unsupervised lung segmentation.

Pipeline: HU threshold, drop border-connected blobs, keep the two largest
regions, erode, close, fill holes. All stages are pure functions on Mask.

Morphology uses a discrete Euclidean ball (voxel included iff its center
lies within `radius` of the origin), isotropic in voxel units; spacing is
ignored. Out-of-grid voxels count as background, so structures touching
the border erode from that side too.
"""

from __future__ import annotations

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
        if self.erode_radius < 0 or self.close_radius < 0:
            raise ValueError("radii must be non-negative")
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


def _erode_bits(bits, radius):
    if radius == 0:
        return bits.copy()
    # A voxel survives iff no background voxel lies within `radius` of it.
    # One layer of zero padding stands in for the out-of-grid background;
    # anything farther outside cannot be the nearest background voxel.
    padded = np.pad(bits, 1, constant_values=False)
    dist = ndimage.distance_transform_edt(padded)
    return dist[1:-1, 1:-1, 1:-1] > radius


def _dilate_bits(bits, radius):
    if radius == 0 or not bits.any():
        return bits.copy()
    return ndimage.distance_transform_edt(~bits) <= radius


def morph_erode(mask: Mask, radius: float) -> Mask:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return Mask(_erode_bits(mask.bits, radius), mask.source_id)


def morph_close(mask: Mask, radius: float) -> Mask:
    """Dilate then erode with the same ball; dilation is clipped to the grid.

    With out-of-grid treated as background the composite is idempotent, which
    the tests check directly.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
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
