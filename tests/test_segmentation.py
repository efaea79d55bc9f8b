"""Segmentation tests against brute-force morphology and flood-fill oracles."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from ctscreen import segmentation as seg
from ctscreen.phantoms import lung_phantom

from synth import dice


def vol(arr):
    """`arr` as a scan's float32 Hounsfield units."""
    return np.asarray(arr, dtype=np.float32)


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
    assert m.ravel().tolist() == [True, False, True, True, False, False]


def test_threshold_inclusive_upper_bound():
    v = vol(np.full((3, 3, 3), -400.0))
    m = seg.threshold_lung(v, seg.SegmentationParams())
    assert m.all()


def test_threshold_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    arr = rng.uniform(-1400, 300, size=(6, 7, 8)).astype(np.float32)
    m = seg.threshold_lung(vol(arr), seg.SegmentationParams())
    for r in range(6):
        for c in range(7):
            for s in range(8):
                assert m[r, c, s] == (-1000.0 <= arr[r, c, s] <= -400.0)


def test_threshold_invariant_to_shifting_outside_voxels():
    rng = np.random.default_rng(1)
    arr = rng.uniform(-1400, 300, size=(5, 5, 5)).astype(np.float32)
    p = seg.SegmentationParams()
    base = seg.threshold_lung(vol(arr), p)
    shifted = arr.copy()
    shifted[arr > p.hu_high] += 137.0   # stays above the window
    shifted[arr < p.hu_low] -= 137.0    # stays below
    assert np.array_equal(seg.threshold_lung(vol(shifted), p), base)


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
    m = np.ones((4, 4, 4), dtype=bool)
    with pytest.raises(ValueError, match="finite"):
        seg.morph_erode(m, radius)
    with pytest.raises(ValueError, match="finite"):
        seg.morph_close(m, radius)


# ---------------------------------------------------------- border blobs

def test_border_component_cleared():
    bits = np.zeros((6, 6, 6), dtype=bool)
    bits[0:3, 2:4, 2:4] = True  # touches face r=0
    out = seg.remove_border_components(bits, 26)
    assert not out.any()


def test_interior_kept_border_dropped_matches_flood_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        bits = rng.random((20, 20, 20)) < 0.18
        for conn in (6, 26):
            out = seg.remove_border_components(bits, conn)
            expect = bits & ~flood_from_border(bits, conn)
            assert np.array_equal(out, expect)


def one_call_border_connected(bits, connectivity):
    """_border_connected as it was before the pool split it, kept as a byte
    oracle: one ndimage.label call over the whole grid."""
    labels, n = ndimage.label(bits, structure=seg._structure(connectivity))
    border = np.zeros(n + 1, dtype=bool)
    for face in (labels[0], labels[-1], labels[:, 0], labels[:, -1],
                 labels[:, :, 0], labels[:, :, -1]):
        border[face] = True
    border[0] = False
    return border[labels]


@pytest.mark.parametrize("connectivity", [6, 26])
def test_border_connected_does_not_depend_on_the_part_count(parts, connectivity):
    rng = np.random.default_rng(12)
    for shape in [(20, 20, 20), (7, 5, 9), (3, 1, 4), (1, 6, 6)]:
        for density in (0.18, 0.5, 0.8):
            bits = rng.random(shape) < density
            assert np.array_equal(seg._border_connected(bits, connectivity),
                                  flood_from_border(bits, connectivity)), (shape, density)


def test_seam_joins_a_component_that_crosses_it_only_diagonally(parts):
    # with two parts the cut lies between rows 2 and 3; the component
    # touches a face only in the near half
    bits = np.zeros((6, 5, 5), dtype=bool)
    bits[0:3, 2, 2] = True
    bits[3:5, 3, 3] = True
    for connectivity, joined in ((26, True), (6, False)):
        got = seg._border_connected(bits, connectivity)
        assert np.array_equal(got, one_call_border_connected(bits, connectivity))
        assert got[4, 3, 3] == joined


def test_seam_joins_a_u_that_crosses_it_twice(parts):
    # two arms in the near half, joined in the far half, which alone
    # reaches a face (row 7)
    bits = np.zeros((8, 5, 9), dtype=bool)
    bits[1:6, 2, 2] = True
    bits[1:6, 2, 6] = True
    bits[5, 2, 2:7] = True
    bits[5:8, 2, 4] = True
    for connectivity in (6, 26):
        got = seg._border_connected(bits, connectivity)
        assert np.array_equal(got, one_call_border_connected(bits, connectivity))
        assert got[1, 2, 2] and got[1, 2, 6]


@pytest.mark.parametrize("depth", [1, 2])
def test_seam_on_grids_one_and_two_rows_deep(parts, depth):
    rng = np.random.default_rng(13)
    for density in (0.2, 0.5, 0.8):
        bits = rng.random((depth, 7, 7)) < density
        bits[:, 1:6, 1:6] |= rng.random((depth, 5, 5)) < density
        for connectivity in (6, 26):
            assert np.array_equal(seg._border_connected(bits, connectivity),
                                  one_call_border_connected(bits, connectivity))


def test_border_removal_empty_identity():
    m = np.zeros((4, 4, 4), dtype=bool)
    assert not seg.remove_border_components(m, 26).any()


# ------------------------------------------------------ largest components

def test_largest_keeps_top_k_by_size():
    bits = np.zeros((30, 12, 12), dtype=bool)
    bits[1:6, 1:6, 1:5] = True       # 100 voxels
    bits[10:14, 1:6, 1:5] = True     # 80 voxels
    bits[20:21, 1:2, 1:6] = True     # 5 voxels
    out = seg.largest_components(bits, 2, 26)
    assert out.sum() == 180
    assert not out[20:21].any()


def test_largest_single_component_unchanged():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[1:4, 1:4, 1:4] = True
    out = seg.largest_components(bits, 2, 26)
    assert np.array_equal(out, bits)


def test_largest_tie_breaks_on_scan_order():
    bits = np.zeros((9, 4, 4), dtype=bool)
    bits[1:3, 1:3, 1:3] = True  # 8 voxels, earlier in scan order
    bits[6:8, 1:3, 1:3] = True  # 8 voxels
    out = seg.largest_components(bits, 1, 26)
    assert out[1:3].any() and not out[6:8].any()


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
                out = seg.largest_components(bits, k, conn)
                assert np.array_equal(out, expect), (trial, conn, k)


def test_component_count_matches_the_full_grid_label():
    # it labels the mask's bounding box only; an empty mask has no box
    rng = np.random.default_rng(5)
    for trial in range(4):
        bits = np.zeros((16, 18, 12), dtype=bool)
        bits[2 + trial:12, 3:15 - trial, 1:9] = rng.random((10 - trial, 12 - trial, 8)) < 0.2
        for conn in (6, 26):
            want = ndimage.label(bits, structure=seg._structure(conn))[1]
            assert seg.component_count(bits, conn) == want, (trial, conn)
    assert seg.component_count(np.zeros((4, 5, 6), dtype=bool)) == 0


# ------------------------------------------------------------- morphology

def test_erode_radius_zero_identity():
    rng = np.random.default_rng(5)
    bits = rng.random((8, 8, 8)) < 0.4
    assert np.array_equal(seg.morph_erode(bits, 0), bits)


def test_erode_cube_shrinks_by_one():
    bits = np.zeros((9, 9, 9), dtype=bool)
    bits[2:7, 2:7, 2:7] = True
    out = seg.morph_erode(bits, 1)
    expect = np.zeros_like(bits)
    expect[3:6, 3:6, 3:6] = True
    assert np.array_equal(out, expect)


def test_erode_removes_isolated_voxel():
    bits = np.zeros((5, 5, 5), dtype=bool)
    bits[2, 2, 2] = True
    assert not seg.morph_erode(bits, 1).any()


def test_erode_matches_minkowski_oracle():
    rng = np.random.default_rng(6)
    for radius in (1, 2):
        bits = rng.random((12, 12, 12)) < 0.6
        out = seg.morph_erode(bits, radius)
        assert np.array_equal(out, erode_oracle(bits, radius))


def test_erode_shaves_border_touching_structure():
    bits = np.zeros((6, 6, 6), dtype=bool)
    bits[0:3] = True  # slab on the r=0 face
    out = seg.morph_erode(bits, 1)
    assert not out[0].any()  # face layer gone: outside is background


def test_morphology_does_not_depend_on_the_part_count(parts):
    rng = np.random.default_rng(14)
    for shape in [(10, 11, 9), (6, 2, 7), (5, 1, 6)]:
        for radius in (1, 2):
            bits = rng.random(shape) < 0.6
            assert np.array_equal(seg.morph_erode(bits, radius),
                                  erode_oracle(bits, radius)), (shape, radius)
            bits = rng.random(shape) < 0.35
            assert np.array_equal(seg.morph_close(bits, radius),
                                  close_oracle(bits, radius)), (shape, radius)


def test_close_radius_zero_identity():
    rng = np.random.default_rng(7)
    bits = rng.random((8, 8, 8)) < 0.4
    assert np.array_equal(seg.morph_close(bits, 0), bits)


def test_close_bridges_plate_gap():
    # Two parallel plates one voxel apart; radius 1 welds the gap interior.
    # (Two isolated voxels one apart would NOT bridge under a Euclidean
    # ball: the candidate midpoint needs its whole ball inside the
    # dilation, and the lateral neighbors are missing. The oracle agrees.)
    bits = np.zeros((5, 9, 9), dtype=bool)
    bits[1, 1:8, 1:8] = True
    bits[3, 1:8, 1:8] = True
    out = seg.morph_close(bits, 1)
    assert np.array_equal(out, close_oracle(bits, 1))
    assert out[2, 2:7, 2:7].all()  # interior of the gap filled
    assert seg.component_count(out, 26) == 1


def test_close_matches_brute_force_oracle():
    rng = np.random.default_rng(8)
    for radius in (1, 2):
        bits = rng.random((10, 10, 10)) < 0.35
        out = seg.morph_close(bits, radius)
        assert np.array_equal(out, close_oracle(bits, radius))


def test_close_idempotent_on_random_masks():
    rng = np.random.default_rng(9)
    for trial in range(6):
        bits = rng.random((16, 16, 16)) < rng.uniform(0.2, 0.5)
        for radius in (1, 2):
            once = seg.morph_close(bits, radius)
            twice = seg.morph_close(once, radius)
            assert np.array_equal(once, twice), (trial, radius)


# the radii where the sqrt(n) <= radius rule and a squared-length test
# could part: sqrt(2), sqrt(3), and halves between the integers
EDT_RADII = (1, math.sqrt(2), 1.5, math.sqrt(3), 2, 2.5, 3, 4, 4.5)


@pytest.mark.parametrize("radius", EDT_RADII)
def test_morphology_matches_edt_on_random_masks(radius):
    rng = np.random.default_rng(10)
    for _ in range(4):
        shape = tuple(int(n) for n in rng.integers(1, 24, size=3))
        bits = rng.random(shape) < rng.uniform(0.2, 0.9)
        assert np.array_equal(seg.morph_erode(bits, radius), edt_erode(bits, radius))
        assert np.array_equal(seg.morph_close(bits, radius), edt_close(bits, radius))
        # a ball that does not fit the grid empties the closing's erosion, so
        # the dilation is checked on its own too
        assert np.array_equal(seg._dilate_bits(bits, radius), edt_dilate(bits, radius))
    # a full slab one voxel thick: only offsets past the grid's extent erode it
    slab = np.ones((9, 1, 9), dtype=bool)
    assert np.array_equal(seg.morph_erode(slab, radius),
                          edt_erode(slab, radius))


def test_morphology_matches_edt_on_phantom_at_default_radii():
    hu, _ = lung_phantom(shape=(96, 96, 24), lung_semi_axes=(30, 18, 7))
    p = seg.SegmentationParams()
    m = seg.threshold_lung(hu, p)
    m = seg.remove_border_components(m, p.connectivity)
    m = seg.largest_components(m, p.keep_k, p.connectivity)
    eroded = seg.morph_erode(m, p.erode_radius)
    assert eroded.any()
    assert np.array_equal(eroded, edt_erode(m, p.erode_radius))
    closed = seg.morph_close(eroded, p.close_radius)
    assert np.array_equal(closed, edt_close(eroded, p.close_radius))


def test_radius_far_beyond_the_grid_matches_edt():
    rng = np.random.default_rng(11)
    for density in (0.05, 0.5, 1.0):
        bits = rng.random((8, 8, 8)) < density
        assert np.array_equal(seg.morph_erode(bits, 1e6), edt_erode(bits, 1e6))
        assert np.array_equal(seg.morph_close(bits, 1e6), edt_close(bits, 1e6))
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
    out = seg.fill_holes(bits, 26)
    assert out[2:9, 2:9, 2:9].all()
    assert out.sum() == 7 ** 3


def test_fill_preserves_tunnel_to_border():
    bits = np.zeros((11, 11, 11), dtype=bool)
    bits[2:9, 2:9, 2:9] = True
    bits[3:8, 3:8, 3:8] = False
    bits[5, 5, 8:] = False  # drill through the wall to the s face
    out = seg.fill_holes(bits, 26)
    expect = bits | (~bits & ~flood_from_border(~bits, 6))
    assert np.array_equal(out, expect)
    assert not out[5, 5, 10]  # tunnel mouth still open


def test_fill_solid_identity():
    bits = np.ones((5, 5, 5), dtype=bool)
    assert np.array_equal(seg.fill_holes(bits, 26), bits)


# ---------------------------------------------------------- full pipeline

PHANTOM_KW = dict(shape=(64, 140, 52), lung_semi_axes=(22, 26, 17))
SMALL_PARAMS = seg.SegmentationParams(erode_radius=1.0, close_radius=2.0)


def test_segment_phantom_recovers_lungs():
    hu, truth = lung_phantom(**PHANTOM_KW)
    out = seg.segment_lung(hu, SMALL_PARAMS)
    # erosion trims a 1-voxel rind off each lung, so perfect overlap is
    # unreachable at this size; 0.9 leaves room for that rind only
    assert dice(out, truth) >= 0.9
    assert seg.component_count(out, 26) <= 2


def test_segment_uniform_body_raises():
    v = vol(np.full((16, 16, 16), 40.0))
    with pytest.raises(ValueError, match="no lung voxels found"):
        seg.segment_lung(v, seg.SegmentationParams())


def test_segment_fills_vessel_holes():
    R, C, S = PHANTOM_KW["shape"]
    centers = [(R // 2, C // 2 - 29, S // 2), (R // 2 + 5, C // 2 + 29, S // 2 - 3)]
    hu, truth = lung_phantom(vessel_centers=centers, vessel_radius=2, **PHANTOM_KW)
    out = seg.segment_lung(hu, SMALL_PARAMS)
    for c in centers:
        assert out[c]  # vessel voxel ends up inside the mask


def test_segment_deterministic():
    hu, _ = lung_phantom(**PHANTOM_KW)
    a = seg.segment_lung(hu, SMALL_PARAMS)
    b = seg.segment_lung(hu, SMALL_PARAMS)
    assert np.array_equal(a, b)


def test_segment_component_cap_holds():
    hu, _ = lung_phantom(**PHANTOM_KW)
    for k in (1, 2):
        p = seg.SegmentationParams(keep_k=k, erode_radius=1.0, close_radius=2.0)
        out = seg.segment_lung(hu, p)
        assert seg.component_count(out, p.connectivity) <= k


def test_segment_avoids_axial_faces():
    hu, _ = lung_phantom(**PHANTOM_KW)
    out = seg.segment_lung(hu, SMALL_PARAMS)
    assert not out[0].any() and not out[-1].any()
    assert not out[:, 0].any() and not out[:, -1].any()


def test_stages_leave_their_input_alone():
    # masks are plain mutable arrays: a stage that wrote to its input, or
    # returned a view of it, would let a later stage change an earlier result
    rng = np.random.default_rng(44)
    hu, _ = lung_phantom(**PHANTOM_KW)
    hu += rng.normal(0, 60, hu.shape).astype(np.float32)
    before = hu.copy()
    for out in (seg.threshold_lung(hu, SMALL_PARAMS),
                seg.segment_lung(hu, SMALL_PARAMS)):
        assert not np.shares_memory(out, hu)
    assert hu.tobytes() == before.tobytes()
    for density in (0.05, 0.3, 0.7):
        bits = rng.random((14, 17, 11)) < density
        before = bits.copy()
        for conn in (6, 26):
            outs = [seg.remove_border_components(bits, conn),
                    seg.largest_components(bits, 2, conn),
                    # more places than components: every component is kept
                    seg.largest_components(bits, bits.size, conn),
                    seg.fill_holes(bits, conn)]
            outs += [stage(bits, radius) for stage in (seg.morph_erode, seg.morph_close)
                     for radius in (0.0, 1.5)]
            seg.component_count(bits, conn)
            for out in outs:
                assert out.dtype == bool and out.shape == bits.shape
                assert not np.shares_memory(out, bits)
            assert bits.tobytes() == before.tobytes(), (density, conn)


# --------------------------------------- the lung box against the full grid
#
# `segment_lung` runs every stage after border removal on the lung box, and
# `largest_components` takes scan order only when sizes tie at the k-th
# place. The full-grid pipeline and the np.unique scan order they replaced
# are kept here as byte oracles.

def full_grid_largest_components(mask, k, connectivity=26):
    labels, n = ndimage.label(mask, structure=seg._structure(connectivity))
    if n <= k:
        return mask.copy()
    ids, first = np.unique(labels, return_index=True)
    fg = ids != 0
    scan_ids = ids[fg][np.argsort(first[fg])].tolist()
    sizes = np.bincount(labels.ravel())
    keep = sorted(scan_ids, key=lambda lab: -int(sizes[lab]))[:k]
    return np.isin(labels, keep)


def full_grid_segment_lung(hu, params):
    conn = params.connectivity
    m = seg.threshold_lung(hu, params)
    m = seg.remove_border_components(m, conn)
    m = full_grid_largest_components(m, params.keep_k, conn)
    m = seg.morph_erode(m, params.erode_radius)
    m = seg.morph_close(m, params.close_radius)
    m = full_grid_largest_components(m, params.keep_k, conn)
    m = seg.fill_holes(m, conn)
    return m


def assert_staged_equals_full_grid(bits, **params):
    """Lung HU where `bits` is set, body HU elsewhere; the staged pipeline
    gives the oracle's mask bit for bit, or both find nothing."""
    p = seg.SegmentationParams(**params)
    hu = vol(np.where(bits, -800.0, 40.0))
    want = full_grid_segment_lung(hu, p)
    if not want.any():
        with pytest.raises(ValueError, match="no lung voxels found"):
            seg.segment_lung(hu, p)
        return
    got = seg.segment_lung(hu, p)
    assert got.shape == bits.shape
    assert np.array_equal(got, want), params


def blobs(rng, shape, density):
    """Blobby random mask: smoothed noise above a quantile."""
    field = ndimage.uniform_filter(rng.random(shape), size=3, mode="constant")
    return field > np.quantile(field, 1 - density)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_largest_matches_full_grid_oracle_on_ties(connectivity):
    rng = np.random.default_rng(20)
    for trial in range(6):
        # sparse single voxels and pairs: nearly every size is tied
        bits = rng.random((9, 11, 10)) < rng.uniform(0.02, 0.2)
        # equal cubes, in an order the labeler may not number by scan order
        for r in rng.permutation(4)[:3]:
            bits[2 * r:2 * r + 2, 8:10, 7:9] = True
        for k in (1, 2, 3, 5, 40):
            want = full_grid_largest_components(bits, k, connectivity)
            got = seg.largest_components(bits, k, connectivity)
            assert np.array_equal(got, want), (trial, k)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_largest_does_not_depend_on_the_part_count(parts, connectivity):
    rng = np.random.default_rng(21)
    for shape in [(12, 9, 10), (7, 5, 9), (2, 6, 6), (1, 8, 8)]:
        for density in (0.05, 0.15, 0.4):
            bits = rng.random(shape) < density
            for k in (1, 2, 3, 40):
                want = full_grid_largest_components(bits, k, connectivity)
                got = seg.largest_components(bits, k, connectivity)
                assert np.array_equal(got, want), (shape, density, k)
            want = ndimage.label(bits, structure=seg._structure(connectivity))[1]
            assert seg.component_count(bits, connectivity) == want


@pytest.mark.parametrize("bar_row", [0, 7])
def test_largest_tie_with_a_u_across_the_seams(parts, bar_row):
    # a 13-voxel U whose arms (rows 1-5) are joined only at row 5, across
    # the cut of two parts (rows 3 | 4) and both cuts of three (1 | 2, 4 | 5),
    # ties a 13-voxel bar that comes first in scan order in row 0 and last
    # in row 7; the k-th place goes to the first
    bits = np.zeros((8, 6, 12), dtype=bool)
    bits[1:6, 2, 2] = True
    bits[1:6, 2, 6] = True
    bits[5, 2, 2:7] = True
    bits[bar_row, 4, 0:12] = True
    bits[bar_row, 5, 11] = True
    for connectivity in (6, 26):
        got = seg.largest_components(bits, 1, connectivity)
        assert np.array_equal(got, full_grid_largest_components(bits, 1, connectivity))
        assert got.sum() == 13 and got[bar_row, 4, 0] == (bar_row == 0)
        assert seg.component_count(bits, connectivity) == 2


@pytest.mark.parametrize("connectivity", [6, 26])
@pytest.mark.parametrize("keep_k", [1, 2, 3])
def test_staged_segmentation_matches_full_grid_on_random_masks(keep_k, connectivity):
    rng = np.random.default_rng(30 + keep_k)
    for trial in range(5):
        shape = tuple(int(n) for n in rng.integers(10, 22, size=3))
        bits = blobs(rng, shape, rng.uniform(0.15, 0.5))
        for erode, close in [(0.0, 0.0), (0.0, 1.5), (1.0, 1.5), (1.0, 2.0), (0.0, 8.0)]:
            assert_staged_equals_full_grid(bits, keep_k=keep_k, erode_radius=erode,
                                           close_radius=close, connectivity=connectivity)


@pytest.mark.parametrize("keep_k", [1, 2, 3])
def test_staged_segmentation_breaks_ties_like_full_grid(keep_k):
    # five equal cubes: the k-th place is tied at every keep_k, and the
    # survivors of the second k-largest tie again after the closing
    bits = np.zeros((14, 20, 16), dtype=bool)
    for r, c in [(8, 13), (2, 2), (8, 2), (2, 13), (5, 8)]:
        bits[r:r + 3, c:c + 3, 5:8] = True
    for conn in (6, 26):
        for close in (0.0, 1.5):
            assert_staged_equals_full_grid(bits, keep_k=keep_k, erode_radius=0.0,
                                           close_radius=close, connectivity=conn)


def test_staged_segmentation_drops_components_touching_each_face():
    bits = np.zeros((16, 18, 14), dtype=bool)
    bits[5:11, 5:12, 4:10] = True   # the lung: kept
    bits[0:3, 8:10, 6:8] = True     # one blob on each of the six faces
    bits[13:16, 8:10, 6:8] = True
    bits[7:9, 0:3, 6:8] = True
    bits[7:9, 15:18, 6:8] = True
    bits[7:9, 8:10, 0:2] = True
    bits[7:9, 8:10, 12:14] = True
    for close in (0.0, 1.5, 8.0):
        assert_staged_equals_full_grid(bits, erode_radius=0.0, close_radius=close)
        assert_staged_equals_full_grid(bits, erode_radius=1.0, close_radius=close,
                                       connectivity=6)


def test_staged_segmentation_where_the_grid_clips_the_box():
    # the lung comes within one voxel of every face, so the box grown by
    # the margin is clipped on all six sides; the notch is a hole only the
    # closing can seal, and it opens toward a face
    bits = np.zeros((12, 13, 11), dtype=bool)
    bits[1:11, 1:12, 1:10] = True
    bits[1:11, 5:8, 4:6] = False
    for erode, close in [(0.0, 0.0), (0.0, 1.5), (1.0, 2.0), (0.0, 8.0)]:
        for conn in (6, 26):
            assert_staged_equals_full_grid(bits, erode_radius=erode, close_radius=close,
                                           connectivity=conn)


@pytest.mark.parametrize("close", [2.0, 2.5, 3.0])
def test_staged_segmentation_with_the_dilation_at_the_box_edge(close):
    # two bars along the box's edges, floor(close) apart from the box face
    # the margin opens: the closing's dilation reaches that face exactly,
    # and it bridges the bars only through voxels next to it
    margin = max(math.ceil(close), 1)
    bits = np.zeros((30, 30, 30), dtype=bool)
    lo = 10
    bits[lo:lo + 8, lo, lo:lo + 8] = True
    bits[lo:lo + 8, lo + 2 * int(close), lo:lo + 8] = True
    bits[lo, lo:lo + 2 * int(close) + 1, lo:lo + 8] = True
    box = seg.grown_box(bits, margin)
    assert box[1].start == lo - margin
    for erode in (0.0, 1.0):
        for conn in (6, 26):
            assert_staged_equals_full_grid(bits, erode_radius=erode, close_radius=close,
                                           connectivity=conn)


@pytest.mark.parametrize("close", [0.0, 1.5, 8.0])
def test_staged_segmentation_matches_full_grid_on_phantoms(close):
    R, C, S = PHANTOM_KW["shape"]
    centers = [(R // 2, C // 2 - 29, S // 2), (R // 2 + 5, C // 2 + 29, S // 2 - 3)]
    hu, _ = lung_phantom(vessel_centers=centers, vessel_radius=2, **PHANTOM_KW)
    noisy = hu + np.random.default_rng(40).normal(0, 150, hu.shape).astype(np.float32)
    for name, v in (("phantom", hu), ("noisy", noisy)):
        for k in (1, 2, 3):
            for erode in (0.0, 1.0):
                for conn in (6, 26):
                    p = seg.SegmentationParams(keep_k=k, erode_radius=erode,
                                               close_radius=close, connectivity=conn)
                    got = seg.segment_lung(v, p)
                    assert np.array_equal(got, full_grid_segment_lung(v, p)), \
                        (name, k, erode, conn)


def test_segment_lung_peak_memory_on_a_512_grid():
    # a 512x512x40 phantom with noisy lungs: the full-grid pipeline peaked
    # at 241 MB here (np.isin and np.unique over the full-grid labels); the
    # lung box and lookup-table masks keep it near 63 MB
    hu, _ = lung_phantom(shape=(512, 512, 40), lung_semi_axes=(150, 95, 12))
    hu += np.random.default_rng(13).normal(0, 60, hu.shape).astype(np.float32)
    tracemalloc.start()
    try:
        mask = seg.segment_lung(hu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.any()
    assert peak < 100e6
