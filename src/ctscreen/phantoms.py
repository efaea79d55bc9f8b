"""Synthetic chest phantoms for the quickstart and the tests.

A phantom is air at -1000 HU, a soft-tissue body ellipsoid at +40 HU, and
two lung ellipsoids at -800 HU inside the body. Optional "vessel" blobs at
+40 HU sit inside the lungs so hole filling has something to do. A
phantom's voxels are 1 mm cubes, the spacing `nifti_io.write_nifti` writes
by default.
"""

import numpy as np

AIR_HU = -1000.0
BODY_HU = 40.0
LUNG_HU = -800.0


def ellipsoid_bits(shape, center, semi_axes):
    """Boolean grid of an axis-aligned ellipsoid (centers-in convention)."""
    grids = np.ogrid[tuple(slice(0, n) for n in shape)]
    acc = np.zeros(shape, dtype=np.float64)
    for g, c, a in zip(grids, center, semi_axes):
        acc = acc + ((g - c) / a) ** 2
    return acc <= 1.0


def lung_phantom(shape=(120, 260, 90), lung_semi_axes=(42, 50, 32),
                 vessel_centers=(), vessel_radius=2):
    """Build (float32 Hounsfield units, ground-truth boolean lung mask),
    both of `shape`.

    Lungs sit left/right of the mid-coronal plane; the body ellipsoid wraps
    both with margin but stays clear of the grid border so outside air stays
    border-connected.
    """
    R, C, S = shape
    ar, ac, as_ = lung_semi_axes
    cr, cs = R / 2.0, S / 2.0
    gap = max(6, C // 20)
    left = (cr, C / 2.0 - ac - gap / 2.0, cs)
    right = (cr, C / 2.0 + ac + gap / 2.0, cs)
    lungs = ellipsoid_bits(shape, left, lung_semi_axes) | \
        ellipsoid_bits(shape, right, lung_semi_axes)

    # proportional margins; fixed offsets leave a zero-thickness shell at
    # diagonal surface points once the lungs get large, and any pinhole lets
    # outside air 26-connect into the lungs
    body_semi = (min(1.4 * ar, R / 2.0 - 2), min(1.4 * ac + ac + gap / 2.0, C / 2.0 - 2),
                 min(1.4 * as_, S / 2.0 - 2))
    body = ellipsoid_bits(shape, (cr, C / 2.0, cs), body_semi)
    # the body must cover the lungs plus a 1-voxel shell, or outside air
    # touches lung voxels diagonally and border removal eats the lungs
    grown = lungs.copy()
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis], hi[axis] = slice(1, None), slice(None, -1)
        grown[tuple(lo)] |= grown[tuple(hi)]
        grown[tuple(hi)] |= grown[tuple(lo)]
    if not lungs.sum() or not np.all(body[grown]):
        raise ValueError("lung ellipsoids do not fit inside the body; shrink them")

    vox = np.full(shape, AIR_HU, dtype=np.float32)
    vox[body] = BODY_HU
    vox[lungs] = LUNG_HU
    for c in vessel_centers:
        blob = ellipsoid_bits(shape, c, (vessel_radius,) * 3)
        if not np.all(lungs[blob]):
            raise ValueError(f"vessel at {c} pokes out of the lungs")
        vox[blob] = BODY_HU

    return vox, lungs
