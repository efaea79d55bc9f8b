"""On-the-fly augmentation for normalized 3D patches.

Each call applies at most one transform, drawn uniformly from the menu the
policy defines (identity is always on the menu). Per-sample determinism
comes from seeding a fresh generator with (policy seed, epoch seed, sample
index), so workers can augment in parallel without sharing RNG state.

All transforms keep shape, keep the label, and map [0,1] into [0,1].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .patch_sampler import Sample, trilinear_resample


@dataclass
class AugmentPolicy:
    rotation_angles: tuple = (-25.0, -15.0, 10.0, 30.0)
    shift_fraction: float = 0.20
    gammas: tuple = (0.7, 1.7)
    noise_sigma: float = 0.02
    elastic_grid: tuple = (4, 4, 2)
    elastic_sigma: float = 2.0   # control-point displacement scale, voxels
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.shift_fraction < 1.0:
            raise ValueError("shift_fraction must be in [0,1)")
        if self.noise_sigma < 0 or self.elastic_sigma < 0:
            raise ValueError("noise/elastic sigma must be non-negative")
        if any(g <= 0 for g in self.gammas):
            raise ValueError("gammas must be positive")
        if len(self.elastic_grid) != 3:
            raise ValueError("elastic_grid needs 3 values, one per axis")
        if self.elastic_sigma > 0 and min(self.elastic_grid) < 2:
            raise ValueError("elastic grid needs at least 2 control points per axis")


def _sample_linear(vol, coords):
    """Multilinear gather at float coords over the leading len(coords) axes.

    `coords` holds one array per gathered axis, each of shape
    vol.shape[:len(coords)]; trailing axes ride along with one weight per
    line. Neighbours outside the grid read 0.
    """
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


def rotate_inplane(tensor, angle_deg):
    """Bilinear in-plane rotation of every axial slice; zero fill."""
    out = _sample_linear(tensor, rotation_map(tensor.shape[:2], angle_deg))
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    noisy = tensor + rng.normal(0.0, sigma, size=tensor.shape)
    return np.clip(noisy, 0.0, 1.0).astype(tensor.dtype)


def elastic_field(shape, grid, sigma, seed):
    """Dense displacement field from seeded control-point offsets.

    Control offsets are N(0, sigma) per axis, upsampled trilinearly to the
    tensor grid. The through-plane component is attenuated by the depth/row
    extent ratio since patches are much thinner than they are wide.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)])))
    control = rng.normal(0.0, sigma, size=(3,) + tuple(grid))
    field = np.stack([trilinear_resample(control[a], shape) for a in range(3)])
    field[2] *= shape[2] / shape[0]
    return field


def elastic_deform(tensor, grid, sigma, seed):
    """Warp: out(p) = in(p + d(p)) with trilinear sampling, zero fill."""
    if min(grid) < 2:
        raise ValueError("elastic grid needs at least 2 control points per axis")
    if sigma == 0:
        return tensor.copy()
    field = elastic_field(tensor.shape, grid, sigma, seed)
    coords = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in tensor.shape],
                         indexing="ij")
    out = _sample_linear(tensor, [c + d for c, d in zip(coords, field)])
    return np.clip(out, 0.0, 1.0, out=out)


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


def augment_sample(sample: Sample, policy: AugmentPolicy, epoch_seed: int,
                   index: int = 0) -> Sample:
    """Apply one uniformly drawn transform; label and metadata unchanged."""
    menu = transform_menu(policy)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(policy.seed), int(epoch_seed), int(index)])))
    _, fn = menu[int(rng.integers(len(menu)))]
    return replace(sample, tensor=fn(sample.tensor, rng))
