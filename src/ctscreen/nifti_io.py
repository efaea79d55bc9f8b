"""NIfTI-1 volume I/O with Hounsfield-unit conversion.

Reads and writes single-file NIfTI-1 volumes (``.nii``, ``.nii.gz``).
Voxel order follows the stored grid: the first stored index varies fastest,
so arrays are returned with shape ``(rows, cols, slices)``. Orientation
matrices are not applied; data is used exactly as stored.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

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

MASK_DATATYPE_CODE = 2


class NiftiError(ValueError):
    """Base class for NIfTI parsing/writing failures."""


class BadMagic(NiftiError):
    pass


class UnsupportedDatatype(NiftiError):
    pass


class TruncatedHeader(NiftiError):
    pass


class InvalidHeader(NiftiError):
    """Header parsed but violates a NIfTI-1 invariant."""


class DataLengthMismatch(NiftiError):
    pass


class DecompressError(NiftiError):
    pass


class ShapeMismatch(NiftiError):
    pass


@dataclass
class NiftiHeader:
    """The subset of the 348-byte NIfTI-1 header this pipeline uses."""

    sizeof_hdr: int
    dim: tuple          # 8 ints; dim[0]=rank, dim[1..3]=rows, cols, slices
    datatype_code: int
    bitpix: int
    pixdim: tuple       # 8 floats; pixdim[1..3] = voxel spacing in mm
    vox_offset: int
    scl_slope: float
    scl_inter: float
    magic: bytes
    byte_order: str     # "<" little, ">" big

    @property
    def shape(self):
        return tuple(int(d) for d in self.dim[1:4])

    @property
    def spacing(self):
        return tuple(float(p) for p in self.pixdim[1:4])

    @property
    def dtype(self):
        return np.dtype(self.byte_order + DATATYPES[self.datatype_code][0])

    def data_length(self):
        r, c, s = self.shape
        return r * c * s * (self.bitpix // 8)


@dataclass
class Volume:
    """A 3D grid of Hounsfield units with voxel spacing metadata."""

    voxels: np.ndarray  # float32, shape (rows, cols, slices)
    spacing: tuple      # (mm, mm, mm)
    source_id: str

    def __post_init__(self):
        if self.voxels.ndim != 3 or min(self.voxels.shape) < 1:
            raise ValueError(f"volume shape must be 3D positive, got {self.voxels.shape}")

    @property
    def shape(self):
        return self.voxels.shape


def parse_header(buf: bytes) -> NiftiHeader:
    """Decode a NIfTI-1 header, auto-detecting byte order from sizeof_hdr.

    Raises TruncatedHeader, BadMagic, UnsupportedDatatype or InvalidHeader.
    """
    if len(buf) < HEADER_SIZE:
        raise TruncatedHeader(f"need {HEADER_SIZE} header bytes, got {len(buf)}")
    magic = bytes(buf[344:348])
    if magic not in (MAGIC_SINGLE, MAGIC_PAIR):
        raise BadMagic(f"magic {magic!r} is neither 'n+1' nor 'ni1'")
    if struct.unpack_from("<i", buf, 0)[0] == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", buf, 0)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise InvalidHeader("sizeof_hdr is not 348 under either byte order")

    dim = struct.unpack_from(bo + "8h", buf, 40)
    datatype_code, bitpix = struct.unpack_from(bo + "2h", buf, 70)
    pixdim = struct.unpack_from(bo + "8f", buf, 76)
    vox_offset, scl_slope, scl_inter = struct.unpack_from(bo + "3f", buf, 108)

    if datatype_code not in DATATYPES:
        raise UnsupportedDatatype(f"datatype code {datatype_code} not supported")
    if bitpix != DATATYPES[datatype_code][1]:
        raise InvalidHeader(f"bitpix {bitpix} inconsistent with datatype {datatype_code}")
    if dim[0] not in (3, 4):
        raise InvalidHeader(f"dim[0]={dim[0]}, expected 3 or 4")
    if dim[0] == 4 and dim[4] > 1:
        raise InvalidHeader("multi-frame 4D volumes are not supported")
    if min(dim[1:4]) < 1:
        raise InvalidHeader(f"non-positive spatial dims {dim[1:4]}")
    if not all(0 < p < math.inf for p in pixdim[1:4]):
        raise InvalidHeader(f"voxel spacing {pixdim[1:4]} is not finite and positive")
    if not math.isfinite(vox_offset):
        raise InvalidHeader(f"vox_offset {vox_offset} is not finite")

    return NiftiHeader(
        sizeof_hdr=HEADER_SIZE,
        dim=tuple(int(d) for d in dim),
        datatype_code=int(datatype_code),
        bitpix=int(bitpix),
        pixdim=tuple(float(p) for p in pixdim),
        vox_offset=int(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        magic=magic,
        byte_order=bo,
    )


GUNZIP_PIECE = 1 << 20  # most bytes one inflate call may return


def _inflated(data):
    """The inflated bytes of every gzip member in `data`, in pieces of at
    most GUNZIP_PIECE bytes; zlib checks each member's CRC and length."""
    pending = data
    while pending:
        inflate = zlib.decompressobj(wbits=31)
        while not inflate.eof:
            piece = inflate.decompress(pending, GUNZIP_PIECE)
            pending = inflate.unconsumed_tail
            if not (piece or pending or inflate.eof):
                raise DecompressError("compressed stream ended early")
            yield piece
        # gzip lets zero bytes pad the space after a member
        pending = inflate.unused_data.lstrip(b"\0")


def _gunzipped(data):
    """`data`, gunzipped when it starts with the gzip magic (a NIfTI-1 header
    never does). Only the bytes the header declares are kept; the rest is
    inflated a piece at a time and dropped, so a small file cannot inflate
    without bound and every member's CRC and length are still checked."""
    if memoryview(data)[:2] != b"\x1f\x8b":
        return data
    parts, kept, keep = [], 0, None
    try:
        for piece in _inflated(data):
            if keep is None and kept + len(piece) >= HEADER_SIZE:
                header = parse_header(b"".join(parts) + piece[:HEADER_SIZE])
                keep = max(header.vox_offset, MIN_VOX_OFFSET) + header.data_length()
            if keep is None or kept < keep:
                parts.append(piece if keep is None else piece[:keep - kept])
                kept += len(parts[-1])
    except zlib.error as exc:
        raise DecompressError(str(exc)) from exc
    return b"".join(parts)


def read_raw(data):
    """Read header plus raw (unscaled) voxel array of shape (R, C, S).

    `data` is the file's bytes, plain or gzipped. Never reads past the
    declared data length; trailing bytes are ignored.
    """
    data = _gunzipped(data)
    header = parse_header(data)
    if header.magic != MAGIC_SINGLE:
        raise InvalidHeader("paired .hdr/.img files are not supported for data reads")
    offset = max(header.vox_offset, MIN_VOX_OFFSET)
    need = header.data_length()
    if len(data) - offset < need:
        raise DataLengthMismatch(
            f"declared {need} data bytes, only {max(0, len(data) - offset)} present"
        )
    r, c, s = header.shape
    flat = np.frombuffer(data, dtype=header.dtype, count=r * c * s, offset=offset)
    # Stored order: first index fastest -> buffer is (slices, cols, rows) in C order.
    raw = np.ascontiguousarray(flat.reshape((s, c, r)).transpose(2, 1, 0))
    return header, raw


def hu_from_raw(raw: np.ndarray, scl_slope: float, scl_inter: float) -> np.ndarray:
    """Apply the header scaling affine; slope 0 means unscaled data."""
    if scl_slope == 0.0:
        return raw.astype(np.float32)
    return (raw.astype(np.float32) * np.float32(scl_slope)) + np.float32(scl_inter)


def read_volume(data, source_id: str = "") -> Volume:
    """Read a volume from the file's bytes; stored values become Hounsfield units."""
    header, raw = read_raw(data)
    hu = hu_from_raw(raw, header.scl_slope, header.scl_inter)
    if not np.all(np.isfinite(hu)):
        raise InvalidHeader("scaling produced non-finite voxel values")
    return Volume(voxels=hu, spacing=header.spacing, source_id=source_id)


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


def write_nifti(raw: np.ndarray, spacing=(1.0, 1.0, 1.0), scl_slope=1.0,
                scl_inter=0.0, gzipped=False):
    """Serialize a raw (R, C, S) array as a little-endian single-file NIfTI-1.

    The array dtype selects the datatype code; unsupported dtypes raise
    UnsupportedDatatype. Returns the byte string. Gzip output uses mtime=0
    so identical inputs give identical bytes.
    """
    if raw.ndim != 3:
        raise ShapeMismatch(f"expected 3D array, got shape {raw.shape}")
    code = None
    for c, (ch, _) in DATATYPES.items():
        if np.dtype(ch) == raw.dtype.newbyteorder("="):
            code = c
            break
    if code is None:
        raise UnsupportedDatatype(f"dtype {raw.dtype} has no supported NIfTI code")
    buf = _build_header_bytes(raw.shape, spacing, code, scl_slope, scl_inter)
    le = raw.astype(raw.dtype.newbyteorder("<"), copy=False)
    buf += le.transpose(2, 1, 0).tobytes()  # restore first-index-fastest order
    out = bytes(buf)
    return gzip.compress(out, mtime=0) if gzipped else out


def write_mask(mask, template, gzipped=False):
    """Write a binary mask as uint8 NIfTI with geometry copied from template.

    `template` is anything with `shape` and `spacing`, such as the scan's
    Volume or NiftiHeader. `mask` may be a segmentation Mask or a boolean
    array; its shape must match the template's.
    """
    bits = np.asarray(getattr(mask, "bits", mask), dtype=bool)
    if bits.shape != template.shape:
        raise ShapeMismatch(f"mask shape {bits.shape} != template {template.shape}")
    return write_nifti(bits.astype(np.uint8), spacing=template.spacing,
                       scl_slope=1.0, scl_inter=0.0, gzipped=gzipped)
