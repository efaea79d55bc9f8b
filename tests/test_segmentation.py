"""Segmentation tests against brute-force morphology and flood-fill oracles."""

import math
from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from ctscreen.nifti_io import Volume
from ctscreen import segmentation as seg
from ctscreen.phantoms import lung_phantom, dice


def vol(arr, sid="t"):
    return Volume(np.asarray(arr, dtype=np.float32), (1.0, 1.0, 1.0), sid)


# ---------------------------------------------------------------- oracles

def ball_offsets(radius):
    r = int(np.floor(radius))
    out = []
    for i in range(-r, r + 1):
        for j in range(-r, r + 1):
            for k in range(-r, r + 1):
                if i * i + j * j + k * k <= radius * radius:
                    out.append((i, j, k))
    return out


def erode_oracle(bits, radius):
    """Minkowski erosion by loop; out-of-grid counts as background."""
    offs = ball_offsets(radius)
    R, C, S = bits.shape
    out = np.zeros_like(bits)
    for r in range(R):
        for c in range(C):
            for s in range(S):
                if not bits[r, c, s]:
                    continue
                ok = True
                for (i, j, k) in offs:
                    rr, cc, ss = r + i, c + j, s + k
                    if not (0 <= rr < R and 0 <= cc < C and 0 <= ss < S) \
                            or not bits[rr, cc, ss]:
                        ok = False
                        break
                out[r, c, s] = ok
    return out


def dilate_oracle(bits, radius):
    offs = ball_offsets(radius)
    R, C, S = bits.shape
    out = np.zeros_like(bits)
    for r, c, s in zip(*np.nonzero(bits)):
        for (i, j, k) in offs:
            rr, cc, ss = r + i, c + j, s + k
            if 0 <= rr < R and 0 <= cc < C and 0 <= ss < S:
                out[rr, cc, ss] = True
    return out


def close_oracle(bits, radius):
    return erode_oracle(dilate_oracle(bits, radius), radius)


def edt_erode(bits, radius):
    """Erosion from a Euclidean distance transform; fast enough for grids the
    loops above cannot cover."""
    if radius == 0:
        return bits.copy()
    # A voxel survives iff no background voxel lies within `radius` of it.
    # One layer of zero padding stands in for the out-of-grid background;
    # anything farther outside cannot be the nearest background voxel.
    padded = np.pad(bits, 1, constant_values=False)
    dist = ndimage.distance_transform_edt(padded)
    return dist[1:-1, 1:-1, 1:-1] > radius


def edt_dilate(bits, radius):
    if radius == 0 or not bits.any():
        return bits.copy()
    return ndimage.distance_transform_edt(~bits) <= radius


def edt_close(bits, radius):
    return edt_erode(edt_dilate(bits, radius), radius)


def neighbors(connectivity):
    if connectivity == 6:
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
            if (i, j, k) != (0, 0, 0)]


def flood_from_border(bits, connectivity):
    """BFS over set voxels reachable from any grid face."""
    R, C, S = bits.shape
    seen = np.zeros_like(bits)
    q = deque()
    for r, c, s in zip(*np.nonzero(bits)):
        if r in (0, R - 1) or c in (0, C - 1) or s in (0, S - 1):
            if not seen[r, c, s]:
                seen[r, c, s] = True
                q.append((r, c, s))
    offs = neighbors(connectivity)
    while q:
        r, c, s = q.popleft()
        for (i, j, k) in offs:
            rr, cc, ss = r + i, c + j, s + k
            if 0 <= rr < R and 0 <= cc < C and 0 <= ss < S \
                    and bits[rr, cc, ss] and not seen[rr, cc, ss]:
                seen[rr, cc, ss] = True
                q.append((rr, cc, ss))
    return seen


def label_oracle(bits, connectivity):
    """BFS labeling in scan order; returns list of (size, min_linear_index)."""
    R, C, S = bits.shape
    seen = np.zeros_like(bits)
    comps = []
    offs = neighbors(connectivity)
    for r in range(R):
        for c in range(C):
            for s in range(S):
                if not bits[r, c, s] or seen[r, c, s]:
                    continue
                q = deque([(r, c, s)])
                seen[r, c, s] = True
                voxels = []
                while q:
                    rr, cc, ss = q.popleft()
                    voxels.append((rr, cc, ss))
                    for (i, j, k) in offs:
                        r2, c2, s2 = rr + i, cc + j, ss + k
                        if 0 <= r2 < R and 0 <= c2 < C and 0 <= s2 < S \
                                and bits[r2, c2, s2] and not seen[r2, c2, s2]:
                            seen[r2, c2, s2] = True
                            q.append((r2, c2, s2))
                idx = [v[0] * C * S + v[1] * S + v[2] for v in voxels]
                comps.append((len(voxels), min(idx), voxels))
    return comps


# ------------------------------------------------------------- threshold

def test_threshold_window_membership():
    v = vol(np.array([-700.0, 40.0, -1000.0, -400.0, -399.9, -1000.1]).reshape(1, 2, 3))
    m = seg.threshold_lung(v, seg.SegmentationParams())
    assert m.bits.ravel().tolist() == [True, False, True, True, False, False]


def test_threshold_inclusive_upper_bound():
    v = vol(np.full((3, 3, 3), -400.0))
    m = seg.threshold_lung(v, seg.SegmentationParams())
    assert m.bits.all()


def test_threshold_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    arr = rng.uniform(-1400, 300, size=(6, 7, 8)).astype(np.float32)
    m = seg.threshold_lung(vol(arr), seg.SegmentationParams())
    for r in range(6):
        for c in range(7):
            for s in range(8):
                assert m.bits[r, c, s] == (-1000.0 <= arr[r, c, s] <= -400.0)


def test_threshold_invariant_to_shifting_outside_voxels():
    rng = np.random.default_rng(1)
    arr = rng.uniform(-1400, 300, size=(5, 5, 5)).astype(np.float32)
    p = seg.SegmentationParams()
    base = seg.threshold_lung(vol(arr), p).bits
    shifted = arr.copy()
    shifted[arr > p.hu_high] += 137.0   # stays above the window
    shifted[arr < p.hu_low] -= 137.0    # stays below
    assert np.array_equal(seg.threshold_lung(vol(shifted), p).bits, base)


def test_params_validation():
    with pytest.raises(ValueError):
        seg.SegmentationParams(hu_low=-400, hu_high=-1000)
    with pytest.raises(ValueError):
        seg.SegmentationParams(keep_k=0)
    with pytest.raises(ValueError):
        seg.SegmentationParams(erode_radius=-1)
    with pytest.raises(ValueError):
        seg.SegmentationParams(connectivity=18)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
def test_non_finite_radius_rejected(radius):
    with pytest.raises(ValueError, match="finite"):
        seg.SegmentationParams(erode_radius=radius)
    with pytest.raises(ValueError, match="finite"):
        seg.SegmentationParams(close_radius=radius)
    m = seg.Mask(np.ones((4, 4, 4), dtype=bool))
    with pytest.raises(ValueError, match="finite"):
        seg.morph_erode(m, radius)
    with pytest.raises(ValueError, match="finite"):
        seg.morph_close(m, radius)


# ---------------------------------------------------------- border blobs

def test_border_component_cleared():
    bits = np.zeros((6, 6, 6), dtype=bool)
    bits[0:3, 2:4, 2:4] = True  # touches face r=0
    out = seg.remove_border_components(seg.Mask(bits), 26)
    assert not out.bits.any()


def test_interior_kept_border_dropped_matches_flood_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        bits = rng.random((20, 20, 20)) < 0.18
        for conn in (6, 26):
            out = seg.remove_border_components(seg.Mask(bits), conn)
            expect = bits & ~flood_from_border(bits, conn)
            assert np.array_equal(out.bits, expect)


def test_border_removal_empty_identity():
    m = seg.Mask(np.zeros((4, 4, 4), dtype=bool))
    assert not seg.remove_border_components(m, 26).bits.any()


# ------------------------------------------------------ largest components

def test_largest_keeps_top_k_by_size():
    bits = np.zeros((30, 12, 12), dtype=bool)
    bits[1:6, 1:6, 1:5] = True       # 100 voxels
    bits[10:14, 1:6, 1:5] = True     # 80 voxels
    bits[20:21, 1:2, 1:6] = True     # 5 voxels
    out = seg.largest_components(seg.Mask(bits), 2, 26)
    assert out.bits.sum() == 180
    assert not out.bits[20:21].any()


def test_largest_single_component_unchanged():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[1:4, 1:4, 1:4] = True
    out = seg.largest_components(seg.Mask(bits), 2, 26)
    assert np.array_equal(out.bits, bits)


def test_largest_tie_breaks_on_scan_order():
    bits = np.zeros((9, 4, 4), dtype=bool)
    bits[1:3, 1:3, 1:3] = True  # 8 voxels, earlier in scan order
    bits[6:8, 1:3, 1:3] = True  # 8 voxels
    out = seg.largest_components(seg.Mask(bits), 1, 26)
    assert out.bits[1:3].any() and not out.bits[6:8].any()


def test_largest_matches_labeling_oracle():
    rng = np.random.default_rng(4)
    for trial in range(4):
        bits = rng.random((14, 14, 14)) < 0.15
        for conn in (6, 26):
            comps = label_oracle(bits, conn)
            for k in (1, 2, 3):
                keep = sorted(comps, key=lambda t: (-t[0], t[1]))[:k]
                expect = np.zeros_like(bits)
                for _, _, voxels in keep:
                    for v in voxels:
                        expect[v] = True
                out = seg.largest_components(seg.Mask(bits), k, conn)
                assert np.array_equal(out.bits, expect), (trial, conn, k)


# ------------------------------------------------------------- morphology

def test_erode_radius_zero_identity():
    rng = np.random.default_rng(5)
    bits = rng.random((8, 8, 8)) < 0.4
    assert np.array_equal(seg.morph_erode(seg.Mask(bits), 0).bits, bits)


def test_erode_cube_shrinks_by_one():
    bits = np.zeros((9, 9, 9), dtype=bool)
    bits[2:7, 2:7, 2:7] = True
    out = seg.morph_erode(seg.Mask(bits), 1)
    expect = np.zeros_like(bits)
    expect[3:6, 3:6, 3:6] = True
    assert np.array_equal(out.bits, expect)


def test_erode_removes_isolated_voxel():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[2, 2, 2] = True
    assert not seg.morph_erode(seg.Mask(bits), 1).bits.any()


def test_erode_matches_minkowski_oracle():
    rng = np.random.default_rng(6)
    for radius in (1, 2):
        bits = rng.random((12, 12, 12)) < 0.6
        out = seg.morph_erode(seg.Mask(bits), radius)
        assert np.array_equal(out.bits, erode_oracle(bits, radius))


def test_erode_shaves_border_touching_structure():
    bits = np.zeros((6, 6, 6), dtype=bool)
    bits[0:3] = True  # slab on the r=0 face
    out = seg.morph_erode(seg.Mask(bits), 1)
    assert not out.bits[0].any()  # face layer gone: outside is background


def test_close_radius_zero_identity():
    rng = np.random.default_rng(7)
    bits = rng.random((8, 8, 8)) < 0.4
    assert np.array_equal(seg.morph_close(seg.Mask(bits), 0).bits, bits)


def test_close_bridges_plate_gap():
    # Two parallel plates one voxel apart; radius 1 welds the gap interior.
    # (Two isolated voxels one apart would NOT bridge under a Euclidean
    # ball: the candidate midpoint needs its whole ball inside the
    # dilation, and the lateral neighbors are missing. The oracle agrees.)
    bits = np.zeros((5, 9, 9), dtype=bool)
    bits[1, 1:8, 1:8] = True
    bits[3, 1:8, 1:8] = True
    out = seg.morph_close(seg.Mask(bits), 1)
    assert np.array_equal(out.bits, close_oracle(bits, 1))
    assert out.bits[2, 2:7, 2:7].all()  # interior of the gap filled
    assert seg.component_count(out, 26) == 1


def test_close_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for radius in (1, 2):
        bits = rng.random((10, 10, 10)) < 0.35
        out = seg.morph_close(seg.Mask(bits), radius)
        assert np.array_equal(out.bits, close_oracle(bits, radius))


def test_close_idempotent_on_random_masks():
    rng = np.random.default_rng(9)
    for trial in range(6):
        bits = rng.random((16, 16, 16)) < rng.uniform(0.2, 0.5)
        for radius in (1, 2):
            once = seg.morph_close(seg.Mask(bits), radius)
            twice = seg.morph_close(once, radius)
            assert np.array_equal(once.bits, twice.bits), (trial, radius)


# the radii where the sqrt(n) <= radius rule and a squared-length test
# could part: sqrt(2), sqrt(3), and halves between the integers
EDT_RADII = (1, math.sqrt(2), 1.5, math.sqrt(3), 2, 2.5, 3, 4, 4.5)


@pytest.mark.parametrize("radius", EDT_RADII)
def test_morphology_matches_edt_on_random_masks(radius):
    rng = np.random.default_rng(10)
    for _ in range(4):
        shape = tuple(int(n) for n in rng.integers(1, 24, size=3))
        bits = rng.random(shape) < rng.uniform(0.2, 0.9)
        m = seg.Mask(bits)
        assert np.array_equal(seg.morph_erode(m, radius).bits, edt_erode(bits, radius))
        assert np.array_equal(seg.morph_close(m, radius).bits, edt_close(bits, radius))
        # a ball that does not fit the grid empties the closing's erosion, so
        # the dilation is checked on its own too
        assert np.array_equal(seg._dilate_bits(bits, radius), edt_dilate(bits, radius))
    # a full slab one voxel thick: only offsets past the grid's extent erode it
    slab = np.ones((9, 1, 9), dtype=bool)
    assert np.array_equal(seg.morph_erode(seg.Mask(slab), radius).bits,
                          edt_erode(slab, radius))


def test_morphology_matches_edt_on_phantom_at_default_radii():
    volume, _ = lung_phantom(shape=(96, 96, 24), lung_semi_axes=(30, 18, 7))
    p = seg.SegmentationParams()
    m = seg.threshold_lung(volume, p)
    m = seg.remove_border_components(m, p.connectivity)
    m = seg.largest_components(m, p.keep_k, p.connectivity)
    eroded = seg.morph_erode(m, p.erode_radius)
    assert eroded.bits.any()
    assert np.array_equal(eroded.bits, edt_erode(m.bits, p.erode_radius))
    closed = seg.morph_close(eroded, p.close_radius)
    assert np.array_equal(closed.bits, edt_close(eroded.bits, p.close_radius))


def test_radius_far_beyond_the_grid_matches_edt():
    rng = np.random.default_rng(11)
    for density in (0.05, 0.5, 1.0):
        bits = rng.random((8, 8, 8)) < density
        m = seg.Mask(bits)
        assert np.array_equal(seg.morph_erode(m, 1e6).bits, edt_erode(bits, 1e6))
        assert np.array_equal(seg.morph_close(m, 1e6).bits, edt_close(bits, 1e6))
        assert np.array_equal(seg._dilate_bits(bits, 1e6), edt_dilate(bits, 1e6))
    # one voxel: its dilation clipped to a flat grid is a ball's cross-section
    bits = np.zeros((9, 30, 3), dtype=bool)
    bits[4, 15, 1] = True
    assert np.array_equal(seg._dilate_bits(bits, 6.5), edt_dilate(bits, 6.5))


# ------------------------------------------------------------- hole fill

def test_fill_hollow_shell():
    bits = np.zeros((11, 11, 11), dtype=bool)
    bits[2:9, 2:9, 2:9] = True
    bits[3:8, 3:8, 3:8] = False
    out = seg.fill_holes(seg.Mask(bits), 26)
    assert out.bits[2:9, 2:9, 2:9].all()
    assert out.bits.sum() == 7 ** 3


def test_fill_preserves_tunnel_to_border():
    bits = np.zeros((11, 11, 11), dtype=bool)
    bits[2:9, 2:9, 2:9] = True
    bits[3:8, 3:8, 3:8] = False
    bits[5, 5, 8:] = False  # drill through the wall to the s face
    out = seg.fill_holes(seg.Mask(bits), 26)
    expect = bits | (~bits & ~flood_from_border(~bits, 6))
    assert np.array_equal(out.bits, expect)
    assert not out.bits[5, 5, 10]  # tunnel mouth still open


def test_fill_solid_identity():
    bits = np.ones((5, 5, 5), dtype=bool)
    assert np.array_equal(seg.fill_holes(seg.Mask(bits), 26).bits, bits)


# ---------------------------------------------------------- full pipeline

PHANTOM_KW = dict(shape=(64, 140, 52), lung_semi_axes=(22, 26, 17))
SMALL_PARAMS = seg.SegmentationParams(erode_radius=1.0, close_radius=2.0)


def test_segment_phantom_recovers_lungs():
    volume, truth = lung_phantom(**PHANTOM_KW)
    out = seg.segment_lung(volume, SMALL_PARAMS)
    # erosion trims a 1-voxel rind off each lung, so perfect overlap is
    # unreachable at this size; 0.9 leaves room for that rind only
    assert dice(out, truth) >= 0.9
    assert seg.component_count(out, 26) <= 2


def test_segment_uniform_body_raises():
    v = vol(np.full((16, 16, 16), 40.0))
    with pytest.raises(seg.EmptySegmentation):
        seg.segment_lung(v, seg.SegmentationParams())


def test_segment_fills_vessel_holes():
    R, C, S = PHANTOM_KW["shape"]
    centers = [(R // 2, C // 2 - 29, S // 2), (R // 2 + 5, C // 2 + 29, S // 2 - 3)]
    volume, truth = lung_phantom(vessel_centers=centers, vessel_radius=2, **PHANTOM_KW)
    out = seg.segment_lung(volume, SMALL_PARAMS)
    for c in centers:
        assert out.bits[c]  # vessel voxel ends up inside the mask


def test_segment_deterministic():
    volume, _ = lung_phantom(**PHANTOM_KW)
    a = seg.segment_lung(volume, SMALL_PARAMS)
    b = seg.segment_lung(volume, SMALL_PARAMS)
    assert np.array_equal(a.bits, b.bits)


def test_segment_component_cap_holds():
    volume, _ = lung_phantom(**PHANTOM_KW)
    for k in (1, 2):
        p = seg.SegmentationParams(keep_k=k, erode_radius=1.0, close_radius=2.0)
        out = seg.segment_lung(volume, p)
        assert seg.component_count(out, p.connectivity) <= k


def test_segment_avoids_axial_faces():
    volume, _ = lung_phantom(**PHANTOM_KW)
    out = seg.segment_lung(volume, SMALL_PARAMS)
    assert not out.bits[0].any() and not out.bits[-1].any()
    assert not out.bits[:, 0].any() and not out.bits[:, -1].any()
