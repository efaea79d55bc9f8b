"""Augmentation tests: coordinate-map oracles, fixed points, determinism."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ctscreen import augment as aug
from ctscreen.patch_sampler import PATCH_TABLE, Sample


def rand_tensor(seed, shape=(12, 12, 6)):
    return np.random.default_rng(seed).random(shape, dtype=np.float64)


# --------------------------------------------------------------- rotation

def test_rotate_zero_identity():
    t = rand_tensor(0)
    assert np.allclose(aug.rotate_inplane(t, 0.0), t, atol=1e-12)


def test_rotate_full_turn_near_identity():
    t = rand_tensor(1)
    assert np.allclose(aug.rotate_inplane(t, 360.0), t, atol=1e-5)
    src_r, src_c = aug.rotation_map(t.shape[:2], 360.0)
    rows, cols = np.indices(t.shape[:2])
    assert np.array_equal(np.rint(src_r), rows)
    assert np.array_equal(np.rint(src_c), cols)


def test_rotate_quarter_turn_nearest_matches_coordinate_map():
    # forward map about (R/2, C/2): (dr, dc) -> (cos*dr - sin*dc, sin*dr + cos*dc)
    src_r, src_c = aug.rotation_map((8, 8), 90.0)
    dr, dc = 2 - 4.0, 5 - 4.0
    dest = (int(round(4.0 - dc)), int(round(4.0 + dr)))
    hits = (np.rint(src_r) == 2) & (np.rint(src_c) == 5)
    assert hits[dest]
    assert hits.sum() == 1


def test_rotate_matches_bilinear_point_oracle():
    # out(p) = bilinear sample of the same slice at the forward rotation of
    # p by -angle about (R/2, C/2); neighbours outside the grid read 0
    t = rand_tensor(5, (9, 12, 3))
    R, C, S = t.shape
    for angle in (-25.0, 10.0, 30.0):
        got = aug.rotate_inplane(t, angle)
        th = math.radians(-angle)
        for r in range(R):
            for c in range(C):
                dr, dc = r - R / 2, c - C / 2
                sr = R / 2 + math.cos(th) * dr - math.sin(th) * dc
                sc = C / 2 + math.sin(th) * dr + math.cos(th) * dc
                want = np.zeros(S)
                for i in (math.floor(sr), math.floor(sr) + 1):
                    for j in (math.floor(sc), math.floor(sc) + 1):
                        if 0 <= i < R and 0 <= j < C:
                            want += (1 - abs(sr - i)) * (1 - abs(sc - j)) * t[i, j]
                assert np.allclose(got[r, c], np.clip(want, 0.0, 1.0),
                                   rtol=0, atol=1e-12), (angle, r, c)


def test_rotate_preserves_shape_and_range():
    t = rand_tensor(2)
    for a in (-25, -15, 10, 30):
        out = aug.rotate_inplane(t, a)
        assert out.shape == t.shape
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_rotate_zero_fills_corners():
    t = np.ones((16, 16, 1))
    out = aug.rotate_inplane(t, 45.0)
    assert out[0, 0, 0] == 0.0  # corner leaves the support under rotation


# ------------------------------------------------------------------ shift

def test_shift_zero_identity():
    t = rand_tensor(3)
    assert np.array_equal(aug.shift(t, 0.0, 0.0), t)


def test_shift_round_trip_on_interior():
    t = np.zeros((20, 20, 3))
    t[8:12, 8:12, :] = 0.5  # interior support survives +20% then -20%
    back = aug.shift(aug.shift(t, 0.2, 0.2), -0.2, -0.2)
    assert np.array_equal(back, t)


def test_shift_matches_index_oracle():
    t = rand_tensor(4, (15, 11, 4))
    out = aug.shift(t, 0.2, 0.0)
    k = int(np.round(0.2 * 15))
    for i in range(15):
        if i - k >= 0:
            assert np.array_equal(out[i], t[i - k])
        else:
            assert not out[i].any()


def test_shift_both_axes_zero_fill():
    t = np.ones((10, 10, 2))
    out = aug.shift(t, 0.3, -0.2)
    assert out[:3].sum() == 0 and out[:, -2:].sum() == 0
    assert out[3:, :-2].all()


# ------------------------------------------------------------------ gamma

def test_gamma_one_identity():
    t = rand_tensor(5)
    assert np.allclose(aug.gamma_correct(t, 1.0), t, atol=1e-12)


def test_gamma_fixed_points():
    t = np.array([[[0.0, 1.0]]])
    for g in (0.3, 0.7, 1.7, 4.0):
        assert np.array_equal(aug.gamma_correct(t, g), t)


def test_gamma_against_direct_power():
    t = np.array([[[0.5]]])
    out = aug.gamma_correct(t, 0.7)
    assert abs(float(out[0, 0, 0]) - math.pow(0.5, 0.7)) < 1e-12


def test_gamma_monotone():
    x = np.sort(rand_tensor(6).ravel()).reshape(1, 1, -1)
    for g in (0.7, 1.7):
        y = aug.gamma_correct(x, g).ravel()
        assert np.all(np.diff(y) >= 0)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        aug.gamma_correct(rand_tensor(7), 0.0)


# ------------------------------------------------------------------ noise

def test_noise_sigma_zero_identity():
    t = rand_tensor(8)
    assert np.array_equal(aug.add_gaussian_noise(t, 0.0, 42), t)


def test_noise_mean_within_statistical_bound():
    t = np.full((40, 40, 20), 0.5)
    sigma = 0.02
    out = aug.add_gaussian_noise(t, sigma, 0)
    n = t.size
    assert abs(float(out.mean()) - 0.5) < 3 * sigma / math.sqrt(n)


def test_noise_seed_determinism():
    t = rand_tensor(9)
    a = aug.add_gaussian_noise(t, 0.02, 7)
    b = aug.add_gaussian_noise(t, 0.02, 7)
    c = aug.add_gaussian_noise(t, 0.02, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_clipped_to_unit_interval():
    t = np.ones((30, 30, 5))
    out = aug.add_gaussian_noise(t, 0.5, 3)
    assert out.max() <= 1.0 and out.min() >= 0.0


# ---------------------------------------------------------------- elastic

def test_elastic_sigma_zero_identity():
    t = rand_tensor(10)
    assert np.array_equal(aug.elastic_deform(t, (4, 4, 2), 0.0, 5), t)


def test_elastic_constant_preserved_in_interior():
    t = np.full((20, 20, 10), 0.75)
    out = aug.elastic_deform(t, (4, 4, 2), 1.0, 11)
    # the field is small (sigma 1), so deep-interior voxels never sample
    # outside the grid and interpolation of a constant stays constant
    assert np.allclose(out[5:-5, 5:-5, 3:-3], 0.75, atol=1e-9)


def test_elastic_matches_independent_warp_oracle():
    # Reimplementation of the whole contract: N(0, sigma) control offsets
    # from SeedSequence([seed]), trilinear upsample, through-plane component
    # scaled by depth/row extent, then out(p) = in(p + d(p)) with zero fill.
    shape = (10, 12, 6)
    grid, sigma, seed = (3, 3, 2), 1.5, 21
    t = rand_tensor(12, shape)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    control = rng.normal(0.0, sigma, size=(3,) + grid)

    def up(comp, pos):
        # separable = direct 8-corner product weights on the control grid
        val = 0.0
        base, frac = [], []
        for ax in range(3):
            x = pos[ax] * (grid[ax] - 1) / (shape[ax] - 1)
            i = min(int(np.floor(x)), grid[ax] - 2)
            base.append(i)
            frac.append(x - i)
        for d0 in (0, 1):
            for d1 in (0, 1):
                for d2 in (0, 1):
                    w = ((frac[0] if d0 else 1 - frac[0])
                         * (frac[1] if d1 else 1 - frac[1])
                         * (frac[2] if d2 else 1 - frac[2]))
                    val += w * control[comp, base[0] + d0, base[1] + d1, base[2] + d2]
        return val

    def sample(p):
        i = [int(np.floor(x)) for x in p]
        out = 0.0
        for d0 in (0, 1):
            for d1 in (0, 1):
                for d2 in (0, 1):
                    q = (i[0] + d0, i[1] + d1, i[2] + d2)
                    if not all(0 <= q[a] < shape[a] for a in range(3)):
                        continue
                    w = 1.0
                    for a, d in zip(range(3), (d0, d1, d2)):
                        f = p[a] - i[a]
                        w *= f if d else 1 - f
                    out += w * t[q]
        return out

    got = aug.elastic_deform(t, grid, sigma, seed)
    scale_s = shape[2] / shape[0]
    for p in [(0, 0, 0), (5, 6, 3), (9, 11, 5), (2, 10, 1), (7, 3, 4)]:
        d = (up(0, p), up(1, p), up(2, p) * scale_s)
        want = np.clip(sample((p[0] + d[0], p[1] + d[1], p[2] + d[2])), 0.0, 1.0)
        assert abs(got[p] - want) < 1e-9, p


def test_elastic_determinism():
    t = rand_tensor(13)
    a = aug.elastic_deform(t, (4, 4, 2), 2.0, 3)
    b = aug.elastic_deform(t, (4, 4, 2), 2.0, 3)
    assert np.array_equal(a, b)


def test_elastic_rejects_tiny_grid():
    with pytest.raises(ValueError):
        aug.elastic_deform(rand_tensor(14), (1, 4, 2), 1.0, 0)


def _control(grid, sigma, seed):
    """The control offsets elastic_deform draws from `seed`."""
    return np.random.default_rng(seed).normal(0.0, sigma, size=(3,) + tuple(grid))


def _sample_linear_oracle(vol, coords):
    """The corner-by-corner gather `_sample_linear` replaced, kept as its
    byte oracle: every corner recomputes its axes' floors and weights and
    indexes with a tuple of index arrays."""
    n = len(coords)
    shape = vol.shape[:n]
    base = [np.floor(x).astype(np.int64) for x in coords]
    frac = [(x - b).astype(vol.dtype) for x, b in zip(coords, base)]
    ride = (...,) + (None,) * (vol.ndim - n)
    out = np.zeros_like(vol)
    for corner in itertools.product((0, 1), repeat=n):
        w, valid, index = None, True, []
        for b, f, d, size in zip(base, frac, corner, shape):
            i = b + d
            wa = f if d else 1 - f
            w = wa if w is None else w * wa
            valid = valid & (i >= 0) & (i < size)
            index.append(np.clip(i, 0, size - 1))
        out += (w * valid)[ride] * vol[tuple(index)]
    return out


@pytest.mark.parametrize("level", ["P2", "P3", "P4"])
def test_sample_linear_matches_the_corner_by_corner_oracle(level):
    shape = PATCH_TABLE[level][0]
    t = np.random.default_rng(15).random(shape, dtype=np.float32)
    grid = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape], indexing="ij")
    for seed in range(5):
        field = aug.elastic_field(shape, _control((4, 4, 2), 2.0, seed))
        coords = [c + d for c, d in zip(grid, field)]
        assert (aug._sample_linear(t, coords).tobytes()
                == _sample_linear_oracle(t, coords).tobytes()), seed
    for angle in (-25.0, -15.0, 10.0, 30.0):
        coords = aug.rotation_map(shape[:2], angle)
        assert (aug._sample_linear(t, coords).tobytes()
                == _sample_linear_oracle(t, coords).tobytes()), angle
    # float64 voxels, and neighbours well outside the grid on every side
    t64 = t.astype(np.float64)
    rng = np.random.default_rng(16)
    coords = [rng.uniform(-3.0, n + 2.0, size=shape) for n in shape]
    assert (aug._sample_linear(t64, coords).tobytes()
            == _sample_linear_oracle(t64, coords).tobytes())


def _whole_patch_warp(t, grid, sigma, seed):
    """elastic_deform as one gather over the whole patch's field and grid."""
    field = aug.elastic_field(t.shape, _control(grid, sigma, seed))
    coords = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in t.shape],
                         indexing="ij")
    out = aug._sample_linear(t, [c + d for c, d in zip(coords, field)])
    return np.clip(out, 0.0, 1.0, out=out)


@pytest.mark.parametrize("rows", [1, 2, 4, 7, 11])
def test_elastic_slabs_match_the_whole_patch_gather(monkeypatch, rows):
    # three rows a slab, so no row count here but 1 fills whole slabs only
    shape = (rows, 10, 4)
    monkeypatch.setattr(aug, "ELASTIC_SLAB_VOXELS", 3 * 10 * 4)
    t = np.random.default_rng(rows).random(shape, dtype=np.float32)
    for seed in range(3):
        got = aug.elastic_deform(t, (4, 4, 2), 2.0, seed)
        assert got.tobytes() == _whole_patch_warp(t, (4, 4, 2), 2.0, seed).tobytes()


@pytest.mark.parametrize("shape", [(1, 128, 20), PATCH_TABLE["P4"][0]])
def test_elastic_default_slabs_match_the_whole_patch_gather(shape):
    rows = max(1, aug.ELASTIC_SLAB_VOXELS // (shape[1] * shape[2]))
    assert shape[0] == 1 or shape[0] % rows
    t = np.random.default_rng(17).random(shape, dtype=np.float32)
    got = aug.elastic_deform(t, (4, 4, 2), 2.0, 8)
    assert got.tobytes() == _whole_patch_warp(t, (4, 4, 2), 2.0, 8).tobytes()


def test_elastic_field_rows_are_rows_of_the_whole_field():
    shape = (37, 20, 9)
    control = _control((4, 3, 2), 1.5, 6)
    whole = aug.elastic_field(shape, control)
    for rows in (slice(0, 1), slice(5, 12), slice(36, 37), slice(0, 37)):
        part = aug.elastic_field(shape, control, rows)
        assert part.tobytes() == whole[:, rows].tobytes(), rows


def test_elastic_draws_its_control_grid_once_per_warp(monkeypatch):
    # three rows a slab, so this warp spans four slabs
    monkeypatch.setattr(aug, "ELASTIC_SLAB_VOXELS", 3 * 10 * 4)
    t = np.random.default_rng(19).random((11, 10, 4), dtype=np.float32)
    draws = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)
    monkeypatch.setattr(np.random, "default_rng", counting)
    aug.elastic_deform(t, (4, 4, 2), 2.0, 5)
    assert draws == [(5,)]


def test_elastic_memory_is_bounded_by_the_slab():
    # the whole-patch gather held about 180 B of float64 coordinates,
    # weights and indices per voxel: 320 MB for one P5 patch
    t = np.random.default_rng(18).random(PATCH_TABLE["P5"][0], dtype=np.float32)
    tracemalloc.start()
    try:
        aug.elastic_deform(t, (4, 4, 2), 2.0, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * t.nbytes, peak


def test_noise_matches_the_three_array_sum():
    t = np.random.default_rng(19).random(PATCH_TABLE["P4"][0], dtype=np.float32)
    noise = np.random.default_rng(4).normal(0.0, 0.05, size=t.shape)
    want = np.clip(t + noise, 0.0, 1.0).astype(np.float32)
    assert aug.add_gaussian_noise(t, 0.05, 4).tobytes() == want.tobytes()


# ---------------------------------------------------------------- sampler

def make_sample(seed=0):
    t = np.random.default_rng(seed).random((16, 16, 9), dtype=np.float32)
    return Sample(t, label=1, source_id="s", level="P1")


def test_empty_menu_is_identity():
    policy = aug.AugmentPolicy(rotation_angles=(), shift_fraction=0.0,
                               gammas=(), noise_sigma=0.0, elastic_sigma=0.0)
    s = make_sample()
    for es in range(5):
        out = aug.augment_sample(s, policy, 0, es, es)
        assert np.array_equal(out.tensor, s.tensor)


def test_augment_deterministic_given_seeds():
    policy = aug.AugmentPolicy()
    s = make_sample(1)
    a = aug.augment_sample(s, policy, 5, 2, 7)
    b = aug.augment_sample(s, policy, 5, 2, 7)
    assert np.array_equal(a.tensor, b.tensor)


def test_augment_varies_with_index():
    policy = aug.AugmentPolicy()
    s = make_sample(2)
    outs = [aug.augment_sample(s, policy, 5, 0, i).tensor
            for i in range(6)]
    assert any(not np.array_equal(outs[0], o) for o in outs[1:])


def test_augment_keeps_label_shape_range():
    policy = aug.AugmentPolicy()
    s = make_sample(3)
    for i in range(20):
        out = aug.augment_sample(s, policy, 9, 1, i)
        assert out.label == s.label and out.level == s.level
        assert out.tensor.shape == s.tensor.shape
        assert out.tensor.min() >= 0.0 and out.tensor.max() <= 1.0


def test_menu_draw_frequencies_near_uniform():
    policy = aug.AugmentPolicy()
    n_menu = len(aug.transform_menu(policy))
    counts = np.zeros(n_menu, dtype=int)
    # replicate the draw only; applying 10000 transforms would be slow
    for i in range(10000):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([3, 0, i])))
        counts[int(rng.integers(n_menu))] += 1
    freq = counts / counts.sum()
    assert np.all(np.abs(freq - 1.0 / n_menu) < 0.05)


def test_every_menu_entry_preserves_contract():
    policy = aug.AugmentPolicy()
    t = rand_tensor(15, (16, 16, 9))
    rng = np.random.default_rng(0)
    for name, fn in aug.transform_menu(policy):
        out = fn(t, rng)
        assert out.shape == t.shape, name
        assert out.min() >= 0.0 and out.max() <= 1.0, name
