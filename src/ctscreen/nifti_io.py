"""NIfTI-1 volume I/O with Hounsfield-unit conversion.

Reads and writes single-file NIfTI-1 volumes (``.nii``, ``.nii.gz``).
Voxel order follows the stored grid: the first stored index varies fastest,
so arrays are returned with shape ``(rows, cols, slices)``. Orientation
matrices are not applied; data is used exactly as stored. A scan reads as
its header and a float32 array of Hounsfield units. The pipeline's stages
take the array alone; `cli`, the one module that imports this one, passes
the header's voxel spacing on to the masks it writes.
"""

from __future__ import annotations

import gzip
import itertools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import parallel

HEADER_SIZE = 348
# Single-file data starts after the header plus the 4 extension-flag bytes.
MIN_VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# Accepted NIfTI-1 datatype codes -> (numpy dtype char, bits per voxel).
# uint8 is needed to read back the masks this module writes.
DATATYPES = {
    2: ("u1", 8),     # unsigned char (masks)
    4: ("i2", 16),    # signed short
    8: ("i4", 32),    # signed int
    16: ("f4", 32),   # float
    512: ("u2", 16),  # unsigned short
}

@dataclass
class NiftiHeader:
    """The fields of the 348-byte NIfTI-1 header this pipeline reads."""

    shape: tuple        # rows, cols, slices
    spacing: tuple      # voxel spacing in mm along each of them
    dtype: np.dtype     # stored voxel type, in the file's byte order
    vox_offset: int
    scl_slope: float
    scl_inter: float


def parse_header(buf: bytes) -> NiftiHeader:
    """Decode a NIfTI-1 header, auto-detecting byte order from sizeof_hdr.

    Raises ValueError for a short, foreign or inconsistent header.
    """
    if len(buf) < HEADER_SIZE:
        raise ValueError(f"need {HEADER_SIZE} header bytes, got {len(buf)}")
    magic = bytes(buf[344:348])
    if magic == MAGIC_PAIR:
        raise ValueError("paired .hdr/.img files are not supported")
    if magic != MAGIC_SINGLE:
        raise ValueError(f"magic {magic!r} is not 'n+1'")
    if struct.unpack_from("<i", buf, 0)[0] == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", buf, 0)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise ValueError("sizeof_hdr is not 348 under either byte order")

    dim = struct.unpack_from(bo + "8h", buf, 40)
    datatype_code, bitpix = struct.unpack_from(bo + "2h", buf, 70)
    pixdim = struct.unpack_from(bo + "8f", buf, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(bo + "3f", buf, 108)

    if datatype_code not in DATATYPES:
        raise ValueError(f"datatype code {datatype_code} not supported")
    if bitpix != DATATYPES[datatype_code][1]:
        raise ValueError(f"bitpix {bitpix} inconsistent with datatype {datatype_code}")
    if dim[0] not in (3, 4):
        raise ValueError(f"dim[0]={dim[0]}, expected 3 or 4")
    if dim[0] == 4 and dim[4] > 1:
        raise ValueError("multi-frame 4D volumes are not supported")
    if min(dim[1:4]) < 1:
        raise ValueError(f"non-positive spatial dims {dim[1:4]}")
    if not all(0 < p < math.inf for p in pixdim[1:4]):
        raise ValueError(f"voxel spacing {pixdim[1:4]} is not finite and positive")
    if not math.isfinite(vox_offset):
        raise ValueError(f"vox_offset {vox_offset} is not finite")

    return NiftiHeader(
        shape=tuple(int(d) for d in dim[1:4]),
        spacing=tuple(float(p) for p in pixdim[1:4]),
        dtype=np.dtype(bo + DATATYPES[datatype_code][0]),
        vox_offset=int(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
    )


GUNZIP_PIECE = 1 << 20  # most bytes one inflate call may return
# most bytes of the file one inflate call is given. zlib copies the input a
# call leaves unread, so handing it the whole rest of the file made each
# piece cost the file's length; now inflating n bytes hands zlib at most the
# file's length plus n / 2 bytes. Smaller feeds cost more calls: 64 KiB
# read the 8 cohort bench scans about 15 % slower
GUNZIP_FEED = 1 << 19
# deflate makes at most 1032 bytes of each byte it reads, so a gzip stream
# cannot hold more than this many bytes per byte of the file
DEFLATE_MAX_RATIO = 1032


def _inflated(data):
    """The inflated bytes of every gzip member in `data`, in pieces of at
    most GUNZIP_PIECE bytes; zlib checks each member's CRC and length."""
    view = memoryview(data)
    at = 0  # the first byte of the file zlib has not read
    while True:
        # gzip lets zero bytes pad the space after a member
        while at < len(view) and view[at] == 0:
            run = bytes(view[at:at + GUNZIP_FEED])
            at += len(run) - len(run.lstrip(b"\0"))
        if at == len(view):
            return
        inflate = zlib.decompressobj(wbits=31)
        while not inflate.eof:
            feed = view[at:at + GUNZIP_FEED]
            piece = inflate.decompress(feed, GUNZIP_PIECE)
            # at a member's end what zlib left unread is in unused_data, and
            # unconsumed_tail may hold it too
            left = inflate.unused_data if inflate.eof else inflate.unconsumed_tail
            at += len(feed) - len(left)
            if not (piece or at < len(view) or inflate.eof):
                raise ValueError("compressed stream ended early")
            yield piece


def _extent(header):
    """(offset, length) of the voxel data in bytes of the file."""
    need = math.prod(header.shape) * header.dtype.itemsize
    return max(header.vox_offset, MIN_VOX_OFFSET), need


def _short(need, present):
    return ValueError(f"declared {need} data bytes, only {max(0, present)} present")


def _target(buf, offset, header):
    """(the empty (R, C, S) voxel array, the voxel data of `buf` at `offset`
    as the stored (S, C, R) grid: the file stores the first index fastest)."""
    r, c, s = header.shape
    stored = np.frombuffer(buf, dtype=header.dtype, count=r * c * s, offset=offset)
    return np.empty((r, c, s), dtype=header.dtype), stored.reshape((s, c, r))


def _copy_planes(raw, stored, planes):
    """Copy the stored planes [s0, s1) into the (R, C, S) array."""
    s0, s1 = planes
    raw[:, :, s0:s1] = stored[s0:s1].transpose(2, 1, 0)


def _read_gzipped(data):
    """read_raw of a gzipped file. This thread inflates it a piece at a time
    into one buffer of the bytes the header declares, while the pool copies
    each run of planes into the array as soon as the run is whole. The rest
    of the stream is inflated and dropped, so a small file cannot inflate
    without bound and every member's CRC and length are still checked."""
    pieces = _inflated(data)
    try:
        head = b""
        for piece in pieces:
            head += piece
            if len(head) >= HEADER_SIZE:
                break
        header = parse_header(head)
        offset, need = _extent(header)
        keep = offset + need
        if keep > DEFLATE_MAX_RATIO * len(data):
            # the stream cannot hold what the header declares, so it gets
            # no buffer, only the count of what it does hold
            raise _short(need, len(head) + sum(map(len, pieces)) - offset)
        buf = np.empty(keep, dtype=np.uint8)
        raw, stored = _target(buf, offset, header)
        plane = raw.shape[0] * raw.shape[1] * raw.itemsize

        def runs():
            kept = done = 0  # bytes kept, planes handed out
            for piece in itertools.chain([head], pieces):
                n = min(len(piece), keep - kept)
                if n:
                    buf[kept:kept + n] = np.frombuffer(piece, dtype=np.uint8, count=n)
                    kept += n
                    whole = max(kept - offset, 0) // plane
                    if whole > done:
                        yield done, whole
                        done = whole
            if kept < keep:
                raise _short(need, kept - offset)
        parallel.overlap(runs(), lambda planes: _copy_planes(raw, stored, planes))
    except zlib.error as exc:
        raise ValueError(str(exc)) from exc
    return header, raw


def read_raw(data):
    """Read header plus raw (unscaled) voxel array of shape (R, C, S).

    `data` is the file's bytes, plain or gzipped (a NIfTI-1 header never
    starts with the gzip magic). Never reads past the declared data length;
    trailing bytes are ignored. The pool's parts copy runs of the stored
    planes into the array: for a plain file, one run each; for a gzipped
    one, each run as soon as it is inflated (see _read_gzipped).
    """
    if memoryview(data)[:2] == b"\x1f\x8b":
        return _read_gzipped(data)
    header = parse_header(data)
    offset, need = _extent(header)
    if len(data) - offset < need:
        raise _short(need, len(data) - offset)
    raw, stored = _target(data, offset, header)
    cuts = parallel.cuts(raw.shape[2])
    parallel.run(lambda p: _copy_planes(raw, stored, cuts[p:p + 2]), len(cuts) - 1)
    return header, raw


def hu_from_raw(raw: np.ndarray, scl_slope: float, scl_inter: float) -> np.ndarray:
    """Apply the header scaling affine; slope 0 means unscaled data. Each
    part of the pool casts a run of rows to float32 and scales it in place,
    with the same bits as the expression (raw * slope) + inter. Overflow
    is silent here: read_volume rejects the non-finite result. numpy's
    error state is per thread, so each part sets its own."""
    hu = np.empty(raw.shape, dtype=np.float32)
    cuts = parallel.cuts(raw.shape[0])

    def part(p):
        rows = hu[cuts[p]:cuts[p + 1]]
        np.copyto(rows, raw[cuts[p]:cuts[p + 1]], casting="unsafe")
        if scl_slope != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                rows *= np.float32(scl_slope)
                rows += np.float32(scl_inter)
    parallel.run(part, len(cuts) - 1)
    return hu


def read_volume(data):
    """(header, float32 (R, C, S) Hounsfield units) of the file's bytes: the
    stored values through the header's scaling."""
    header, raw = read_raw(data)
    hu = hu_from_raw(raw, header.scl_slope, header.scl_inter)
    if not np.all(np.isfinite(hu)):
        raise ValueError("scaling produced non-finite voxel values")
    return header, hu


def _build_header_bytes(shape, spacing, datatype_code, scl_slope, scl_inter) -> bytearray:
    dt_char, bits = DATATYPES[datatype_code]
    buf = bytearray(MIN_VOX_OFFSET)  # header + extension flag, zero-filled
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    r, c, s = shape
    struct.pack_into("<8h", buf, 40, 3, r, c, s, 1, 1, 1, 1)
    struct.pack_into("<2h", buf, 70, datatype_code, bits)
    sr, sc, ss = spacing
    struct.pack_into("<8f", buf, 76, 1.0, sr, sc, ss, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", buf, 108, float(MIN_VOX_OFFSET), scl_slope, scl_inter)
    buf[344:348] = MAGIC_SINGLE
    return buf


# gzip level of the files write_nifti writes: a 512x512x40 mask takes 21 ms at
# level 1 and 234 ms at gzip's default 9, for 95 KB against 29 KB
GZIP_LEVEL = 1


def write_nifti(raw: np.ndarray, spacing=(1.0, 1.0, 1.0), scl_slope=1.0,
                scl_inter=0.0, gzipped=False):
    """Serialize a raw (R, C, S) array as a little-endian single-file NIfTI-1.

    The array dtype selects the datatype code; unsupported dtypes raise
    ValueError. Returns the byte string. Gzip output is at GZIP_LEVEL with
    mtime=0, so identical inputs give identical bytes.
    """
    if raw.ndim != 3:
        raise ValueError(f"expected 3D array, got shape {raw.shape}")
    code = None
    for c, (ch, _) in DATATYPES.items():
        if np.dtype(ch) == raw.dtype.newbyteorder("="):
            code = c
            break
    if code is None:
        raise ValueError(f"dtype {raw.dtype} has no supported NIfTI code")
    buf = _build_header_bytes(raw.shape, spacing, code, scl_slope, scl_inter)
    le = raw.astype(raw.dtype.newbyteorder("<"), copy=False)
    buf += le.transpose(2, 1, 0).tobytes()  # restore first-index-fastest order
    out = bytes(buf)
    return gzip.compress(out, GZIP_LEVEL, mtime=0) if gzipped else out


def write_mask(mask, spacing, gzipped=False):
    """Write a boolean (R, C, S) mask as uint8 NIfTI with the scan's voxel
    spacing (mm, mm, mm)."""
    return write_nifti(mask.astype(np.uint8), spacing=spacing,
                       scl_slope=1.0, scl_inter=0.0, gzipped=gzipped)
