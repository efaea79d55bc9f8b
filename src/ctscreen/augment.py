"""On-the-fly augmentation for normalized 3D patches.

Each call applies at most one transform, drawn uniformly from the menu the
policy defines (identity is always on the menu). Per-sample determinism
comes from seeding a fresh generator with (run seed, epoch, sample index),
so workers can augment in parallel without sharing RNG state.

All transforms keep shape, keep the label, and map [0,1] into [0,1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .patch_sampler import Sample, trilinear_resample

# output voxels an elastic warp gathers at a time; each holds about 140 B of
# float64 coordinates, weights and indices while its slab is gathered
ELASTIC_SLAB_VOXELS = 1 << 15

# the most control points an elastic grid may have on an axis: a warp draws
# 3 * prod(grid) float64 offsets per warp, 6.3 MB at 64 on every axis
MAX_ELASTIC_GRID = 64


@dataclass
class AugmentPolicy:
    rotation_angles: tuple = (-25.0, -15.0, 10.0, 30.0)
    shift_fraction: float = 0.20
    gammas: tuple = (0.7, 1.7)
    noise_sigma: float = 0.02
    elastic_grid: tuple = (4, 4, 2)
    elastic_sigma: float = 2.0   # control-point displacement scale, voxels

    def __post_init__(self):
        for name in ("rotation_angles", "shift_fraction", "gammas", "noise_sigma",
                     "elastic_sigma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.shift_fraction < 1.0:
            raise ValueError("shift_fraction must be in [0,1)")
        for name in ("noise_sigma", "elastic_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if any(g <= 0 for g in self.gammas):
            raise ValueError("gammas must be positive")
        if len(self.elastic_grid) != 3:
            raise ValueError("elastic_grid needs 3 values, one per axis")
        if max(self.elastic_grid) > MAX_ELASTIC_GRID:
            raise ValueError(f"elastic_grid {self.elastic_grid} is above {MAX_ELASTIC_GRID}")
        if self.elastic_sigma > 0 and min(self.elastic_grid) < 2:
            raise ValueError("elastic grid needs at least 2 control points per axis")


def _sample_linear(vol, coords):
    """Multilinear gather at float coords over the leading len(coords) axes.

    `coords` holds one array per gathered axis, all of one shape: that of
    the output's leading axes, such as vol.shape[:len(coords)] or a slab of
    its rows. Trailing axes ride along with one weight per line. Neighbours
    outside the grid read 0.
    """
    n = len(coords)
    shape = vol.shape[:n]
    out_shape = coords[0].shape
    # per axis, for the lower (d = 0) and upper (d = 1) neighbour: its weight,
    # whether it lies in the grid, and its clipped index scaled to a flat
    # one. Fresh large arrays cost page faults, so work happens in place.
    sides = []
    for a, (x, size) in enumerate(zip(coords, shape)):
        low = np.floor(x)
        base = low.astype(np.int64)
        frac = np.subtract(x, low, out=low).astype(vol.dtype)
        stride = math.prod(shape[a + 1:])
        upper = base + 1
        axis = []
        for wa, i in ((1 - frac, base), (frac, upper)):
            # a negative index reads as a huge unsigned one
            valid = i.view(np.uint64) < size
            np.clip(i, 0, size - 1, out=i)
            i *= stride
            axis.append((wa, valid, i))
        sides.append(axis)
    flat = vol.reshape((-1,) + vol.shape[n:])
    ride = (...,) + (None,) * (vol.ndim - n)
    w_buf, valid_buf = np.empty(out_shape, vol.dtype), np.empty(out_shape, bool)
    index_buf = np.empty(out_shape, np.int64)
    gathered = np.empty(out_shape + vol.shape[n:], vol.dtype)
    out = np.zeros_like(gathered)
    for (w, valid, index), *rest in itertools.product(*sides):
        for wa, va, ia in rest:
            w = np.multiply(w, wa, out=w_buf)
            valid = np.logical_and(valid, va, out=valid_buf)
            index = np.add(index, ia, out=index_buf)
        w = np.multiply(w, valid, out=w_buf)
        # the indices are clipped already, so 'clip' changes none and spares
        # take its buffered copy
        np.take(flat, index, axis=0, out=gathered, mode="clip")
        out += np.multiply(w[ride], gathered, out=gathered)
    return out


def rotation_map(shape_rc, angle_deg):
    """Inverse in-plane rotation map about (rows/2, cols/2).

    Returns source coordinates (src_r, src_c) for every output pixel; the
    forward rotation takes (dr, dc) to (cos*dr - sin*dc, sin*dr + cos*dc)
    around the center.
    """
    R, C = shape_rc
    cr, cc = R / 2.0, C / 2.0
    th = np.deg2rad(angle_deg)
    cos, sin = np.cos(th), np.sin(th)
    rr, cg = np.meshgrid(np.arange(R, dtype=np.float64),
                         np.arange(C, dtype=np.float64), indexing="ij")
    dr, dc = rr - cr, cg - cc
    return cr + cos * dr + sin * dc, cc - sin * dr + cos * dc


def _aligned(tensor):
    """`tensor`, or an aligned copy of it: a pack record's view can start at
    any byte, and gathers from an unaligned array run far slower than the
    copy takes."""
    return np.require(tensor, requirements="A")


def rotate_inplane(tensor, angle_deg):
    """Bilinear in-plane rotation of every axial slice; zero fill."""
    out = _sample_linear(_aligned(tensor), rotation_map(tensor.shape[:2], angle_deg))
    return np.clip(out, 0.0, 1.0, out=out)


def shift(tensor, dy_fraction, dx_fraction):
    """Integer in-plane translation by round(fraction * extent); zero fill.

    Positive fractions move content toward higher row/col indices.
    """
    R, C, _ = tensor.shape
    sr = int(np.round(dy_fraction * R))
    sc = int(np.round(dx_fraction * C))
    out = np.zeros_like(tensor)
    rdst = slice(max(0, sr), min(R, R + sr))
    rsrc = slice(max(0, -sr), min(R, R - sr))
    cdst = slice(max(0, sc), min(C, C + sc))
    csrc = slice(max(0, -sc), min(C, C - sc))
    if rdst.start < rdst.stop and cdst.start < cdst.stop:
        out[rdst, cdst, :] = tensor[rsrc, csrc, :]
    return out


def gamma_correct(tensor, gamma):
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return np.power(tensor, tensor.dtype.type(gamma))


def add_gaussian_noise(tensor, sigma, seed):
    if sigma == 0:
        return tensor.copy()
    rng = np.random.default_rng(seed)
    # the sum and the clip work in the draw's own float64 array
    noisy = rng.normal(0.0, sigma, size=tensor.shape)
    noisy += tensor
    return np.clip(noisy, 0.0, 1.0, out=noisy).astype(tensor.dtype)


def elastic_field(shape, control, rows=None):
    """Dense displacement field from control-point offsets, (3,) + grid.

    The offsets are upsampled trilinearly to the tensor grid. The
    through-plane component is attenuated by the depth/row extent ratio
    since patches are much thinner than they are wide.

    `rows`, a slice of axis 0, gives those rows of the field alone, with the
    same bytes as those rows of the whole field.
    """
    box = None if rows is None else (rows, slice(0, shape[1]), slice(0, shape[2]))
    field = np.stack([trilinear_resample(control[a], shape, box) for a in range(3)])
    field[2] *= shape[2] / shape[0]
    return field


def elastic_deform(tensor, grid, sigma, seed):
    """Warp: out(p) = in(p + d(p)) with trilinear sampling, zero fill.

    The control offsets are N(0, sigma) per axis, drawn once from `seed`.
    The field and the gather run ELASTIC_SLAB_VOXELS output voxels' worth
    of rows of axis 0 at a time, and every voxel's float64 operations are
    those of the whole patch, so the slabs only bound the temporaries.
    """
    if min(grid) < 2:
        raise ValueError("elastic grid needs at least 2 control points per axis")
    if sigma == 0:
        return tensor.copy()
    tensor = _aligned(tensor)
    R, C, S = tensor.shape
    step = max(1, ELASTIC_SLAB_VOXELS // (C * S))
    control = np.random.default_rng(seed).normal(0.0, sigma, size=(3,) + tuple(grid))
    out = np.empty_like(tensor)
    for start in range(0, R, step):
        rows = slice(start, min(start + step, R))
        coords = elastic_field(tensor.shape, control, rows)
        coords[0] += np.arange(rows.start, rows.stop, dtype=np.float64)[:, None, None]
        coords[1] += np.arange(C, dtype=np.float64)[:, None]
        coords[2] += np.arange(S, dtype=np.float64)
        slab = _sample_linear(tensor, coords)
        np.clip(slab, 0.0, 1.0, out=out[rows])
    return out


def transform_menu(policy: AugmentPolicy):
    """Ordered list of (name, callable(tensor, rng) -> tensor)."""
    menu = [("identity", lambda t, rng: t.copy())]
    for a in policy.rotation_angles:
        menu.append((f"rotate{a:+g}", lambda t, rng, a=a: rotate_inplane(t, a)))
    if policy.shift_fraction > 0:
        def _shift(t, rng, f=policy.shift_fraction):
            dy, dx = rng.uniform(-f, f, size=2)
            return shift(t, dy, dx)
        menu.append(("shift", _shift))
    for g in policy.gammas:
        menu.append((f"gamma{g:g}", lambda t, rng, g=g: gamma_correct(t, g)))
    if policy.noise_sigma > 0:
        menu.append(("noise", lambda t, rng, s=policy.noise_sigma:
                     add_gaussian_noise(t, s, int(rng.integers(2 ** 63)))))
    if policy.elastic_sigma > 0:
        menu.append(("elastic", lambda t, rng, g=policy.elastic_grid,
                     s=policy.elastic_sigma:
                     elastic_deform(t, g, s, int(rng.integers(2 ** 63)))))
    return menu


def augment_sample(sample: Sample, policy: AugmentPolicy, seed: int, epoch: int,
                   index: int) -> Sample:
    """Apply one uniformly drawn transform; label and metadata unchanged."""
    menu = transform_menu(policy)
    rng = np.random.default_rng([int(seed), int(epoch), int(index)])
    _, fn = menu[int(rng.integers(len(menu)))]
    return replace(sample, tensor=fn(sample.tensor, rng))
