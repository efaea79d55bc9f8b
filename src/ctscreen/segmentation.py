"""Unsupervised lung segmentation.

Pipeline: HU threshold, drop border-connected blobs, keep the two largest
regions, erode, close, fill holes. The threshold takes the scan's float32
(R, C, S) Hounsfield units, and every later stage takes and returns a
boolean (R, C, S) array; none changes its input or returns a view of it.

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

from . import parallel


# the largest erode_radius or close_radius a run may set: chords and time grow
# as radius**2 (closing a 345x455x36 lung box takes 0.09 s at 4, 1.1 s at 16)
MAX_RADIUS = 16


def _check_radius(radius, name="radius"):
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {radius}")


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
        for name in ("erode_radius", "close_radius"):
            radius = getattr(self, name)
            _check_radius(radius, name)
            if radius > MAX_RADIUS:
                raise ValueError(f"{name} {radius} is above {MAX_RADIUS} voxels")
        if self.connectivity not in (6, 26):
            raise ValueError("connectivity must be 6 or 26")


def _structure(connectivity: int):
    if connectivity == 26:
        return ndimage.generate_binary_structure(3, 3)
    if connectivity == 6:
        return ndimage.generate_binary_structure(3, 1)
    raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")


def _roots(n, a, b):
    """For each of n nodes, the smallest node joined to it by edges a[i]-b[i]."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        # hook each larger root under a smaller one, then point every node
        # at its root; links only ever point down, so they make no cycle
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while not np.array_equal(root[root], root):
            root = root[root]


def _label(bits, connectivity):
    """Components of `bits`: (labels, slabs, first, root).

    Each part of the pool labels one slab of axis 0, slabs[p], into its
    slice of one int32 label grid; node first[p] + l - 1 is slab p's label
    l. The structure's offsets from one slab's last plane to the next slab's
    first plane join nodes across each seam, and root[node] is the smallest
    node of its component. scipy numbers each slab's labels in the C order of
    their first voxels, and the slabs follow axis 0, so nodes follow that
    order over the whole grid: a component's root is the node of its first
    voxel, and roots sort as the components' first voxels do.
    """
    structure = _structure(connectivity)
    cuts = parallel.cuts(bits.shape[0])
    slabs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    labels = np.empty(bits.shape, dtype=np.int32)
    counts = [0] * len(slabs)

    def label(p):
        counts[p] = ndimage.label(bits[slabs[p]], structure, output=labels[slabs[p]])
    parallel.run(label, len(slabs))

    first = np.cumsum([0] + counts)
    ends = ([np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)])
    n1, n2 = bits.shape[1:]
    for p, cut in enumerate(cuts[1:-1], 1):
        for dj, dk in np.argwhere(structure[2]) - 1:
            lo = labels[cut - 1, max(-dj, 0):n1 - max(dj, 0), max(-dk, 0):n2 - max(dk, 0)]
            hi = labels[cut, max(dj, 0):n1 - max(-dj, 0), max(dk, 0):n2 - max(-dk, 0)]
            both = (lo > 0) & (hi > 0)
            ends[0].append(first[p - 1] + lo[both] - 1)
            ends[1].append(first[p] + hi[both] - 1)
    return labels, slabs, first, _roots(first[-1], *map(np.concatenate, ends))


def _painted(labels, slabs, first, keep):
    """The voxels whose node is set in `keep`, one slab per part."""
    out = np.empty(labels.shape, dtype=bool)

    def part(p):
        lut = np.concatenate([[False], keep[first[p]:first[p + 1]]])
        # plane by plane: np.take would first copy the labels as intp
        for i in range(slabs[p].start, slabs[p].stop):
            out[i] = lut[labels[i]]
    parallel.run(part, len(slabs))
    return out


# label voxels one np.bincount call takes, which copies them as intp
COUNT_VOXELS = 1 << 17


def _node_sizes(labels, slabs, first):
    """Voxels of each node, one slab per part."""
    sizes = np.empty(first[-1], dtype=np.int64)

    def part(p):
        rows = max(COUNT_VOXELS // labels[0].size, 1)
        count = np.zeros(first[p + 1] - first[p] + 1, dtype=np.int64)
        for i in range(slabs[p].start, slabs[p].stop, rows):
            count += np.bincount(labels[i:min(i + rows, slabs[p].stop)].ravel(),
                                 minlength=count.size)
        sizes[first[p]:first[p + 1]] = count[1:]
    parallel.run(part, len(slabs))
    return sizes


def _border_connected(bits, connectivity):
    """Voxels of `bits` whose component touches any of the six grid faces;
    a component touches a face when any of its slab labels does."""
    labels, slabs, first, root = _label(bits, connectivity)
    touches = np.zeros(first[-1], dtype=bool)
    for p, slab in enumerate(slabs):
        faces = [labels[slab, 0], labels[slab, -1], labels[slab, :, 0], labels[slab, :, -1]]
        faces += [labels[0]] if p == 0 else []
        faces += [labels[-1]] if p == len(slabs) - 1 else []
        for face in faces:
            touches[first[p] + face[face > 0] - 1] = True
    border = np.zeros(first[-1], dtype=bool)
    border[root[touches]] = True
    return _painted(labels, slabs, first, border[root])


def threshold_lung(hu: np.ndarray, params: SegmentationParams) -> np.ndarray:
    """Bit set iff hu_low <= voxel <= hu_high (both inclusive)."""
    return (hu >= params.hu_low) & (hu <= params.hu_high)


def remove_border_components(mask: np.ndarray, connectivity: int = 26) -> np.ndarray:
    """Clear every component that touches any of the six grid faces."""
    return mask & ~_border_connected(mask, connectivity)


def largest_components(mask: np.ndarray, k: int, connectivity: int = 26) -> np.ndarray:
    """Union of the k largest components by voxel count.

    Ties break toward the component encountered first in scan order
    (smaller minimum linear voxel index). Fewer than k components: keep all.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    labels, slabs, first, root = _label(mask, connectivity)
    # one per component, in scan order (see _label)
    roots = np.flatnonzero(root == np.arange(root.size))
    if roots.size <= k:
        return mask.copy()
    sizes = np.bincount(root, weights=_node_sizes(labels, slabs, first))[roots]
    keep = np.zeros(root.size, dtype=bool)
    # a stable sort keeps tied components in scan order
    keep[roots[np.argsort(-sizes, kind="stable")[:k]]] = True
    return _painted(labels, slabs, first, keep[root])


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
    """Voxels whose whole ball lies in `bits`; out-of-grid voxels read as `outside`.

    The chord runs grow along axis 0 and are read at in-plane shifts, so
    each part of the pool takes a slab of axis 1 and grows its own run
    buffer over that slab plus J voxels of the grid on either side.
    """
    n0, n1, n2 = bits.shape
    r = int(math.floor(radius))
    H, J, K = min(r, n0), min(r, n1), min(r, n2)
    padded = np.pad(bits, ((0, 0), (J, J), (K, K)), constant_values=outside)
    out = np.ones(bits.shape, dtype=bool)
    by_h = _chords(radius, (H, J, K))
    cuts = parallel.cuts(n1)
    runs = [np.empty((n0, b - a + 2 * J, n2 + 2 * K), dtype=bool)
            for a, b in zip(cuts, cuts[1:])]

    def part(p):
        a, b = cuts[p], cuts[p + 1]
        src, run, dst = padded[:, a:b + 2 * J], runs[p], out[:, a:b]
        # run is the mask d > h: set voxels whose axis-0 neighbours within h are set
        np.copyto(run, src)
        for h in range(H + 1):
            if h:
                run[:-h] &= src[h:]
                run[h:] &= src[:-h]
                if not outside:
                    run[:h] = False
                    run[-h:] = False
            for j, k in by_h.get(h, ()):
                dst &= run[:, J + j:J + j + b - a, K + k:K + k + n2]
    parallel.run(part, len(runs))
    return out


def _dilate_bits(bits, radius):
    """Voxels within the ball of a set voxel; dilation is clipped to the grid."""
    return ~_erode_bits(~bits, radius, outside=True)


def morph_erode(mask: np.ndarray, radius: float) -> np.ndarray:
    _check_radius(radius)
    return _erode_bits(mask, radius)


def morph_close(mask: np.ndarray, radius: float) -> np.ndarray:
    """Dilate then erode with the same ball; dilation is clipped to the grid.

    With out-of-grid treated as background the composite is idempotent, which
    the tests check directly.
    """
    _check_radius(radius)
    return _erode_bits(_dilate_bits(mask, radius), radius)


def fill_holes(mask: np.ndarray, connectivity: int = 26) -> np.ndarray:
    """Set background components that cannot reach the grid border.

    `connectivity` is the foreground connectivity; the background flood uses
    the complementary value (26 <-> 6) to avoid counting a diagonal crack as
    both a wall and a passage.
    """
    bg_conn = 6 if connectivity == 26 else 26
    return ~_border_connected(~mask, bg_conn)


def grown_box(bits, margin):
    """Slices of the smallest box holding every set voxel, grown by `margin`
    on each side and clipped to the grid; None when no voxel is set."""
    # reduce over whole rows and whole planes: any() along the short last
    # axis of a scan is many times slower
    cols_slices = bits.any(axis=0)
    box = []
    for present, n in zip((bits.any(axis=(1, 2)), cols_slices.any(axis=1),
                           cols_slices.any(axis=0)), bits.shape):
        where = np.flatnonzero(present)
        if where.size == 0:
            return None
        box.append(slice(max(where[0] - margin, 0), min(where[-1] + 1 + margin, n)))
    return tuple(box)


def segment_lung(hu: np.ndarray, params: SegmentationParams = None) -> np.ndarray:
    """The lung mask of the scan's Hounsfield units `hu`; raises ValueError
    when nothing survives.

    Erosion can split a lung, so the k-largest filter runs again after
    closing to restore the at-most-keep_k guarantee before holes are filled
    (filling can only merge components, never create them). Every stage
    after border removal runs on the lung box (see the module docstring).
    """
    if params is None:
        params = SegmentationParams()
    conn = params.connectivity
    m = threshold_lung(hu, params)
    m = remove_border_components(m, conn)
    box = grown_box(m, max(math.ceil(params.close_radius), 1))
    if box is not None:
        m = largest_components(m[box], params.keep_k, conn)
        m = morph_erode(m, params.erode_radius)
        m = morph_close(m, params.close_radius)
        m = largest_components(m, params.keep_k, conn)
        m = fill_holes(m, conn)
    if box is None or not m.any():
        raise ValueError("no lung voxels found")
    bits = np.zeros(hu.shape, dtype=bool)
    bits[box] = m
    return bits


def component_count(mask: np.ndarray, connectivity: int = 26) -> int:
    """Connected components of the mask, labelled over its bounding box."""
    box = grown_box(mask, 0)
    if box is None:
        return 0
    root = _label(mask[box], connectivity)[3]
    return int(np.count_nonzero(root == np.arange(root.size)))
