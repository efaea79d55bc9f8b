"""Tests for volume standardization and the seeded patch pyramid."""

import tracemalloc

import numpy as np
import pytest

from ctscreen.nifti_io import Volume
from ctscreen.segmentation import Mask
from ctscreen import patch_sampler as ps


def trilinear_point_oracle(arr, pos):
    """Direct 8-corner interpolation at a float position, float64."""
    arr = np.asarray(arr, dtype=np.float64)
    idx0, frac = [], []
    for ax, x in enumerate(pos):
        n = arr.shape[ax]
        i = int(np.floor(x))
        i = min(max(i, 0), max(n - 2, 0))
        idx0.append(i)
        frac.append(x - i)
    total = 0.0
    for dr in (0, 1):
        for dc in (0, 1):
            for dz in (0, 1):
                w = ((frac[0] if dr else 1 - frac[0])
                     * (frac[1] if dc else 1 - frac[1])
                     * (frac[2] if dz else 1 - frac[2]))
                r = min(idx0[0] + dr, arr.shape[0] - 1)
                c = min(idx0[1] + dc, arr.shape[1] - 1)
                s = min(idx0[2] + dz, arr.shape[2] - 1)
                total += w * arr[r, c, s]
    return total


def full_mask(shape):
    return Mask(np.ones(shape, dtype=bool))


# ----------------------------------------------------------- standardize

def test_standardize_floor_maps_to_zero():
    v = Volume(np.full(ps.STANDARD_SHAPE, -1000.0, dtype=np.float32), (1, 1, 1), "a")
    out = ps.standardize_volume(v, full_mask(ps.STANDARD_SHAPE))
    assert out.voxels.shape == ps.STANDARD_SHAPE
    assert np.all(out.voxels == 0.0)


def test_standardize_ceiling_maps_to_one():
    v = Volume(np.full((8, 8, 8), 400.0, dtype=np.float32), (1, 1, 1), "a")
    out = ps.standardize_volume(v, full_mask((8, 8, 8)), out_shape=(8, 8, 8))
    assert np.all(out.voxels == 1.0)


def test_standardize_clips_and_masks():
    arr = np.full((6, 6, 6), 40.0, dtype=np.float32)
    arr[0, 0, 0] = 3000.0   # bone, clipped to 400
    arr[1, 1, 1] = -2000.0  # below air, clipped to -1000
    bits = np.ones((6, 6, 6), dtype=bool)
    bits[2, 2, 2] = False   # outside mask -> forced to air
    out = ps.standardize_volume(Volume(arr, (1, 1, 1), "a"), Mask(bits),
                                out_shape=(6, 6, 6))
    assert out.voxels[0, 0, 0] == 1.0
    assert out.voxels[1, 1, 1] == 0.0
    assert out.voxels[2, 2, 2] == 0.0
    assert np.isclose(out.voxels[4, 4, 4], (40.0 + 1000.0) / 1400.0)


def test_standardize_depth_resample_matches_point_oracle():
    rng = np.random.default_rng(11)
    arr = rng.uniform(-1000, 400, size=(20, 20, 41)).astype(np.float32)
    out_shape = (20, 20, 36)
    out = ps.standardize_volume(Volume(arr, (1, 1, 1), "a"),
                                full_mask(arr.shape), out_shape=out_shape)
    for (r, c, s) in [(10, 10, 18), (0, 0, 0), (19, 19, 35), (5, 13, 7)]:
        pos = (r * 19 / 19, c * 19 / 19, s * 40 / 35)
        want = (trilinear_point_oracle(arr, pos) + 1000.0) / 1400.0
        assert abs(float(out.voxels[r, c, s]) - want) < 1e-6


def test_resample_general_grid_matches_point_oracle():
    rng = np.random.default_rng(12)
    arr = rng.standard_normal((7, 9, 5))
    out = ps.trilinear_resample(arr, (13, 4, 8))
    for (i, j, k) in [(0, 0, 0), (12, 3, 7), (6, 2, 3), (1, 1, 6)]:
        pos = (i * 6 / 12, j * 8 / 3, k * 4 / 7)
        assert abs(out[i, j, k] - trilinear_point_oracle(arr, pos)) < 1e-12


def test_resample_identity_when_shapes_match():
    rng = np.random.default_rng(13)
    arr = rng.standard_normal((6, 5, 4))
    assert np.array_equal(ps.trilinear_resample(arr, (6, 5, 4)), arr)


def test_resample_preserves_constant():
    arr = np.full((9, 9, 9), 3.25)
    out = ps.trilinear_resample(arr, (5, 17, 2))
    assert np.allclose(out, 3.25, atol=1e-12)


# ------------------------------------------- whole-grid reference oracle
# The whole-grid resample that `standardize_volume` ran before it streamed
# row slabs, kept verbatim: the slab loop must reproduce its bytes.
# `standardize_volume` also clips to [0, 1] a voxel that rounds past it;
# the cases below have none at their own output shapes.

def resample_axis_reference(arr, axis, n_out):
    n_in = arr.shape[axis]
    if n_in == n_out:
        return arr
    if n_out == 1 or n_in == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    i0 = np.floor(pos).astype(np.int64)
    np.minimum(i0, max(n_in - 2, 0), out=i0)
    frac = pos - i0
    lo = np.take(arr, i0, axis=axis)
    hi = np.take(arr, np.minimum(i0 + 1, n_in - 1), axis=axis)
    shape = [1, 1, 1]
    shape[axis] = n_out
    frac = frac.reshape(shape)
    return lo * (1.0 - frac) + hi * frac


def trilinear_reference(arr, out_shape):
    out = np.asarray(arr, dtype=np.float64)
    for axis in sorted(range(3), key=lambda a: out_shape[a] / arr.shape[a]):
        out = resample_axis_reference(out, axis, out_shape[axis])
    return out


def standardize_reference(volume, mask, out_shape=ps.STANDARD_SHAPE):
    lo, hi = ps.HU_CLIP
    vox = np.where(mask.bits, volume.voxels, np.float32(lo))
    vox = np.clip(vox, lo, hi)
    vox = trilinear_reference(vox, out_shape)
    vox = (vox - lo) / (hi - lo)
    return vox.astype(np.float32)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32))


SLAB = ps.SLAB_ROWS
STANDARDIZE_CASES = [
    # (input shape, output shape)
    ((20, 12, 9), (20, 12, 9)),                       # nothing resized
    ((40, 12, 9), (20, 12, 9)),                       # axis 0 shrinks
    ((9, 12, 9), (3 * SLAB + 5, 12, 9)),              # axis 0 grows, ragged last slab
    ((2 * SLAB + 7, 12, 9), (2 * SLAB + 7, 5, 9)),    # axis 0 kept, axis 1 shrinks
    ((SLAB + 3, 5, 9), (SLAB + 3, 17, 4)),            # axis 1 grows, axis 2 shrinks
    ((11, 6, 3), (11, 6, 14)),                        # axis 2 grows
    ((1, 5, 3), (2 * SLAB - 1, 33, 5)),               # rows_in == 1
    ((70, 8, 6), (1, 8, 6)),                          # rows_out == 1
    ((1, 1, 1), (7, 3, 5)),
    ((3 * SLAB + 1, 30, 20), (SLAB - 1, 31, 19)),     # axis 0 shrinks within one slab
    ((128, 160, 40), ps.STANDARD_SHAPE),
]


@pytest.mark.parametrize("in_shape,out_shape", STANDARDIZE_CASES)
def test_standardize_matches_whole_grid_reference(in_shape, out_shape):
    rng = np.random.default_rng(sum(in_shape) * 31 + sum(out_shape))
    arr = rng.uniform(-1800.0, 1500.0, size=in_shape).astype(np.float32)
    bits = rng.random(in_shape) < 0.6
    bits.flat[0] = True
    vol, mask = Volume(arr, (1, 1, 1), "a"), Mask(bits)
    got = ps.standardize_volume(vol, mask, out_shape=out_shape).voxels
    assert same_bytes(got, standardize_reference(vol, mask, out_shape))


def random_box(rng, shape):
    spans = []
    for n in shape:
        start = int(rng.integers(0, n))
        spans.append(slice(start, int(rng.integers(start + 1, n + 1))))
    return tuple(spans)


def face_boxes(rng, shape):
    """A random box flush with each of the grid's six faces."""
    boxes = []
    for axis, n in enumerate(shape):
        for flush_low in (True, False):
            box = list(random_box(rng, shape))
            size = int(rng.integers(1, n + 1))
            box[axis] = slice(0, size) if flush_low else slice(n - size, n)
            boxes.append(tuple(box))
    return boxes


@pytest.mark.parametrize("in_shape,out_shape", STANDARDIZE_CASES)
def test_standardize_box_matches_whole_grid(in_shape, out_shape):
    rng = np.random.default_rng(sum(in_shape) * 17 + sum(out_shape))
    arr = rng.uniform(-1800.0, 1500.0, size=in_shape).astype(np.float32)
    bits = rng.random(in_shape) < 0.6
    bits.flat[0] = True
    vol, mask = Volume(arr, (1, 1, 1), "a"), Mask(bits)
    whole = ps.standardize_volume(vol, mask, out_shape=out_shape)
    row = int(rng.integers(0, out_shape[0]))
    boxes = face_boxes(rng, out_shape) + [
        (slice(row, row + 1), slice(0, out_shape[1]), slice(0, out_shape[2])),
        tuple(slice(0, n) for n in out_shape),
    ] + [random_box(rng, out_shape) for _ in range(8)]
    for box in boxes:
        got = ps.standardize_volume(vol, mask, out_shape=out_shape, box=box)
        assert same_bytes(got.voxels, whole.voxels[box]), box
        assert got.spacing == whole.spacing


def test_standardize_box_without_lung_is_air():
    bits = np.zeros((40, 30, 20), dtype=bool)
    bits[0, 0, 0] = True
    vol = Volume(np.full(bits.shape, 100.0, dtype=np.float32), (1, 1, 1), "a")
    box = (slice(200, 216), slice(300, 316), slice(20, 29))
    out = ps.standardize_volume(vol, Mask(bits), box=box)
    assert out.voxels.shape == (16, 16, 9) and not out.voxels.any()


@pytest.mark.parametrize("box", [
    (slice(0, 4), slice(0, 4)),
    (slice(0, 4), slice(0, 4), slice(3, 3)),
    (slice(0, 4), slice(0, 4), slice(0, 10)),
    (slice(-1, 4), slice(0, 4), slice(0, 4)),
    (slice(0, 4, 2), slice(0, 4), slice(0, 4)),
])
def test_standardize_rejects_a_box_off_the_grid(box):
    vol = Volume(np.zeros((6, 6, 6), dtype=np.float32), (1, 1, 1), "a")
    with pytest.raises(ValueError):
        ps.standardize_volume(vol, full_mask((6, 6, 6)), out_shape=(8, 8, 9), box=box)


def test_trilinear_resample_matches_reference_chain():
    rng = np.random.default_rng(14)
    for in_shape, out_shape in [((7, 9, 5), (13, 4, 8)), ((1, 6, 9), (5, 6, 2)),
                                ((12, 1, 3), (1, 7, 3)), ((4, 4, 4), (4, 4, 4))]:
        arr = rng.standard_normal(in_shape)
        got = ps.trilinear_resample(arr, out_shape)
        want = trilinear_reference(arr, out_shape)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_standardize_peak_memory_is_one_output_plus_slab():
    # the whole-grid float64 resample peaked near 320 MB on this input
    rng = np.random.default_rng(15)
    shape = (128, 160, 40)
    vol = Volume(rng.uniform(-1000.0, 400.0, size=shape).astype(np.float32),
                 (1, 1, 1), "a")
    mask = full_mask(shape)
    tracemalloc.start()
    try:
        ps.standardize_volume(vol, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128e6


# ------------------------------------------------------------ patch spec

def test_patch_table_pinned():
    assert ps.PATCH_TABLE["P1"] == ((16, 16, 9), 64)
    assert ps.PATCH_TABLE["P6"] == ((512, 512, 36), 1)
    assert [ps.PATCH_TABLE[l][1] for l in ps.LEVELS] == [64, 32, 16, 8, 4, 1]


def test_patch_spec_rejects_tampered_canonical_level():
    with pytest.raises(ValueError):
        ps.PatchSpec("P3", (64, 64, 15), 99)
    with pytest.raises(ValueError):
        ps.PatchSpec("P3", (64, 64, 16), 16)


def test_patch_spec_allows_custom_level():
    spec = ps.PatchSpec("tiny", (4, 4, 3), 5)
    assert spec.per_scan_count == 5


def test_sample_rejects_out_of_range_tensor():
    for bad in (1.5, -0.25, np.nan):
        tensor = np.full((2, 2, 2), 0.5, dtype=np.float32)
        tensor[1, 0, 1] = bad
        with pytest.raises(ValueError):
            ps.Sample(tensor, 0, "x", "P1")


# --------------------------------------------------------------- extract

def std_volume(seed=0, shape=ps.STANDARD_SHAPE):
    """A scan on the standard grid, so a mask's box maps onto itself."""
    rng = np.random.default_rng(seed)
    return Volume(rng.uniform(-1000.0, 400.0, size=shape).astype(np.float32),
                  (1, 1, 1), f"scan{seed}")


def center_mask(shape, frac=0.5):
    bits = np.zeros(shape, dtype=bool)
    sl = tuple(slice(int(n * (1 - frac) / 2), int(n * (1 + frac) / 2)) for n in shape)
    bits[sl] = True
    return Mask(bits)


def window(sample):
    return tuple(slice(o, o + n) for o, n in zip(sample.origin, sample.tensor.shape))


def test_whole_volume_level_returns_standardized_grid():
    v = std_volume(1, shape=(128, 160, 40))
    m = center_mask(v.shape)
    out = ps.extract_patches(v, m, ps.level_spec("P6"), seed=3)
    assert len(out) == 1
    assert same_bytes(out[0].tensor, ps.standardize_volume(v, m).voxels)
    assert out[0].origin == (0, 0, 0)


@pytest.mark.parametrize("in_shape", sorted({c[0] for c in STANDARDIZE_CASES}))
def test_every_level_matches_whole_grid_windows(in_shape):
    rng = np.random.default_rng(sum(in_shape) * 7)
    v = Volume(rng.uniform(-1800.0, 1500.0, size=in_shape).astype(np.float32),
               (1, 1, 1), "a")
    bits = rng.random(in_shape) < 0.6
    bits.flat[0] = True
    m = Mask(bits)
    whole = ps.standardize_volume(v, m).voxels
    assert whole.min() >= 0.0 and whole.max() <= 1.0
    for level in ps.LEVELS:
        for s in ps.extract_patches(v, m, ps.level_spec(level), seed=29):
            assert same_bytes(s.tensor, whole[window(s)]), (level, s.origin)


def test_p1_extract_peak_memory_is_far_below_one_grid():
    # a whole standardized float32 grid is 37.7 MB; one P1 draw on this
    # scan peaked at 4.3 MB, most of it the origin overlap table
    v = std_volume(16)
    m = center_mask(v.shape)
    tracemalloc.start()
    try:
        out = ps.extract_patches(v, m, ps.level_spec("P1"), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 64
    assert peak < 8e6


def map_bbox_reference(mask, out_shape):
    """The lung box from np.nonzero, as _map_bbox took it before it read
    per-axis projections."""
    idx = np.nonzero(mask.bits)
    lows, highs = [], []
    for ax in range(3):
        n_in, n_out = mask.bits.shape[ax], out_shape[ax]
        scale = (n_out - 1) / (n_in - 1) if n_in > 1 else 0.0
        lows.append(int(np.floor(idx[ax].min() * scale)))
        highs.append(int(np.ceil(idx[ax].max() * scale)) + 1)
    return tuple(lows), tuple(highs)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 7, 5), (9, 1, 4), (13, 11, 6),
                                   (40, 30, 20)])
def test_map_bbox_matches_nonzero_box(shape):
    rng = np.random.default_rng(sum(shape) * 41)
    masks = []
    for density in (0.002, 0.05, 0.5):
        bits = rng.random(shape) < density
        bits.flat[rng.integers(bits.size)] = True
        masks.append(bits)
    for flat in (0, int(np.prod(shape)) - 1, *rng.integers(np.prod(shape), size=3)):
        bits = np.zeros(shape, dtype=bool)  # one voxel
        bits.flat[flat] = True
        masks.append(bits)
    for axis, n in enumerate(shape):
        for face in (0, n - 1):  # one voxel inside, one on a face
            bits = np.zeros(shape, dtype=bool)
            bits[tuple(k // 2 for k in shape)] = True
            at = [int(rng.integers(m)) for m in shape]
            at[axis] = face
            bits[tuple(at)] = True
            masks.append(bits)
    for bits in masks:
        for out_shape in (ps.STANDARD_SHAPE, (7, 3, 50)):
            assert ps._map_bbox(Mask(bits), out_shape) == \
                map_bbox_reference(Mask(bits), out_shape)


def test_per_scan_counts_and_shapes_all_levels():
    v = std_volume(2)
    m = center_mask(v.shape)
    for level in ps.LEVELS:
        spec = ps.level_spec(level)
        out = ps.extract_patches(v, m, spec, seed=7)
        assert len(out) == spec.per_scan_count
        for s in out:
            assert s.tensor.shape == spec.shape
            assert s.level == level


def test_patches_lie_inside_volume_and_match_slices():
    v = std_volume(3, shape=(100, 90, 30))
    m = center_mask(v.shape)
    whole = ps.standardize_volume(v, m).voxels
    out = ps.extract_patches(v, m, ps.level_spec("P3"), seed=5)
    pr, pc, psz = ps.level_spec("P3").shape
    R, C, S = ps.STANDARD_SHAPE
    for s in out:
        r, c, z = s.origin
        assert 0 <= r <= R - pr
        assert 0 <= c <= C - pc
        assert 0 <= z <= S - psz
        assert same_bytes(s.tensor, whole[r:r + pr, c:c + pc, z:z + psz])


def test_same_seed_same_origins():
    v = std_volume(4)
    m = center_mask(v.shape)
    a = ps.extract_patches(v, m, ps.level_spec("P2"), seed=11)
    b = ps.extract_patches(v, m, ps.level_spec("P2"), seed=11)
    assert [s.origin for s in a] == [s.origin for s in b]


def test_distinct_seeds_distinct_origins():
    v = std_volume(5)
    m = center_mask(v.shape)
    a = ps.extract_patches(v, m, ps.level_spec("P1"), seed=1)
    b = ps.extract_patches(v, m, ps.level_spec("P1"), seed=2)
    assert sorted(s.origin for s in a) != sorted(s.origin for s in b)


def test_output_sorted_by_origin():
    v = std_volume(6)
    out = ps.extract_patches(v, center_mask(v.shape), ps.level_spec("P1"), seed=9)
    origins = [s.origin for s in out]
    assert origins == sorted(origins)


def test_origin_overlap_constraint():
    v = std_volume(7)
    m = center_mask(v.shape, frac=0.5)
    idx = np.nonzero(m.bits)
    br, er = idx[0].min(), idx[0].max() + 1
    bc, ec = idx[1].min(), idx[1].max() + 1
    for level in ("P1", "P2", "P3", "P4"):
        spec = ps.level_spec(level)
        pr, pc, _ = spec.shape
        for s in ps.extract_patches(v, m, spec, seed=13):
            r, c, _ = s.origin
            ov = (max(0, min(r + pr, er) - max(r, br))
                  * max(0, min(c + pc, ec) - max(c, bc)))
            assert ov >= 0.5 * pr * pc, (level, s.origin)


def test_small_box_falls_back_to_best_overlap():
    # Lung box far smaller than half the patch footprint; the constraint
    # degrades to "best achievable" and extraction still succeeds.
    v = std_volume(8)
    bits = np.zeros(v.shape, dtype=bool)
    bits[250:260, 250:260, 10:20] = True
    out = ps.extract_patches(v, Mask(bits), ps.level_spec("P5"), seed=17)
    assert len(out) == 4
    pr, pc, _ = ps.level_spec("P5").shape
    for s in out:
        r, c, _ = s.origin
        ov = (max(0, min(r + pr, 260) - max(r, 250))
              * max(0, min(c + pc, 260) - max(c, 250)))
        assert ov == 100  # box fully inside the window is the best possible


def test_mask_in_native_grid_is_mapped():
    # Scan and mask given at scan resolution; the mask's box is mapped into
    # the 512x512x36 frame before the overlap test.
    v = std_volume(9, shape=(64, 64, 20))
    native = np.zeros(v.shape, dtype=bool)
    native[16:48, 16:48, 5:15] = True
    out = ps.extract_patches(v, Mask(native), ps.level_spec("P4"), seed=19)
    lo = int(np.floor(16 * 511 / 63))
    hi = int(np.ceil(47 * 511 / 63)) + 1
    pr, pc, _ = ps.level_spec("P4").shape
    for s in out:
        r, c, _ = s.origin
        ov = (max(0, min(r + pr, hi) - max(r, lo))
              * max(0, min(c + pc, hi) - max(c, lo)))
        assert ov >= 0.5 * pr * pc


def test_empty_mask_raises():
    v = std_volume(10)
    with pytest.raises(ps.NoLungRegion):
        ps.extract_patches(v, Mask(np.zeros(v.shape, dtype=bool)),
                           ps.level_spec("P1"), seed=0)


def test_patch_larger_than_volume_rejected():
    # a patch is cut from the standard grid, whatever the scan's own shape
    v = Volume(np.zeros((8, 8, 8), dtype=np.float32), (1, 1, 1), "s")
    with pytest.raises(ValueError):
        ps.extract_patches(v, full_mask((8, 8, 8)),
                           ps.PatchSpec("big", (16, 4, ps.STANDARD_SHAPE[2] + 1), 1),
                           seed=0)
    out = ps.extract_patches(v, full_mask((8, 8, 8)),
                             ps.PatchSpec("big", (16, 4, 4), 1), seed=0)
    assert out[0].tensor.shape == (16, 4, 4)


def test_label_propagates_to_all_samples():
    v = std_volume(11)
    out = ps.extract_patches(v, center_mask(v.shape), ps.level_spec("P2"),
                             seed=23, label=3)
    assert all(s.label == 3 for s in out)
