"""Synthetic patch datasets and the Dice overlap, shared by the tests."""

import numpy as np

from ctscreen.patch_sampler import Sample


def blob_tensor(rng, shape, n_blobs, radius=2):
    """Dim noise floor plus n bright spherical blobs; values stay in [0,1]."""
    t = rng.uniform(0.0, 0.08, size=shape)
    radius = min(radius, (min(shape) - 1) // 2)  # blobs must fit thin patches
    R, C, S = shape
    grids = np.ogrid[0:R, 0:C, 0:S]
    for _ in range(n_blobs):
        center = [rng.integers(radius, n - radius) for n in shape]
        d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        t[d2 <= radius * radius] = rng.uniform(0.75, 0.95)
    return t.astype(np.float32)


def blob_dataset(n, seed, shape=(12, 12, 6), classes=2, level="T"):
    """Balanced dataset where class k draws 2k+1 blobs; trivially separable
    by total brightness, which is exactly what a GAP head can read."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = i % classes
        t = blob_tensor(rng, shape, 2 * label + 1)
        samples.append(Sample(t, label, f"syn{i:04d}", level))
    return samples


def dice(a, b):
    """Dice overlap of two boolean masks; 1.0 when both are empty."""
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return 2.0 * float((a & b).sum()) / float(denom)
