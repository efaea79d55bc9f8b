"""Readers and writers for ctscreen's file layouts, written apart from ctscreen.

The benchmark makes its inputs and checks the program's outputs with this
module, never with `ctscreen.nifti_io`, `ctscreen.cli.read_pack` or
`ctscreen.nn_core.load_checkpoint`, so a fault in the program's own codecs
cannot hide itself. Layouts follow the project README:

- NIfTI-1 single file (``n+1``), little-endian, first index fastest.
- ``.pack``: ``CTPK``, u16 version, u8 level length, level, u16 r/c/s and
  u32 count, then per record u16 id length, id, u8 label, u16 origin x3 and
  the float32 tensor in C order.
- ``.ctck``: ``CTCK``, u16 version, u32 spec length, spec JSON, u32 tensor
  count, then per tensor u16 name length, name, u16 dtype length, dtype
  string, u8 ndim, u32 shape, data.
"""

import gzip
import json
import struct

import numpy as np

NIFTI_HEADER = 348
NIFTI_OFFSET = 352
_NIFTI_DTYPES = {2: "u1", 4: "<i2", 8: "<i4", 16: "<f4", 512: "<u2"}


def nifti_bytes(raw, spacing=(1.0, 1.0, 1.0), slope=1.0, inter=0.0):
    """Uncompressed NIfTI-1 bytes for an int16 or uint8 (R, C, S) array."""
    code = {np.dtype("int16"): 4, np.dtype("uint8"): 2}[raw.dtype]
    head = bytearray(NIFTI_OFFSET)
    struct.pack_into("<i", head, 0, NIFTI_HEADER)
    struct.pack_into("<8h", head, 40, 3, *raw.shape, 1, 1, 1, 1)
    struct.pack_into("<2h", head, 70, code, raw.dtype.itemsize * 8)
    struct.pack_into("<8f", head, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", head, 108, float(NIFTI_OFFSET), slope, inter)
    head[344:348] = b"n+1\x00"
    return bytes(head) + raw.astype(raw.dtype.newbyteorder("<")).transpose(2, 1, 0).tobytes()


def write_nifti_gz(path, raw, spacing=(1.0, 1.0, 1.0), slope=1.0, inter=0.0):
    with open(path, "wb") as fh:
        fh.write(gzip.compress(nifti_bytes(raw, spacing, slope, inter),
                               compresslevel=1, mtime=0))


def read_nifti(path):
    """(array of stored values, slope, intercept); raises ValueError if malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    if len(data) < NIFTI_HEADER or data[344:348] != b"n+1\x00":
        raise ValueError(f"{path}: not a single-file NIfTI-1")
    if struct.unpack_from("<i", data, 0)[0] != NIFTI_HEADER:
        raise ValueError(f"{path}: not little-endian")
    dim = struct.unpack_from("<8h", data, 40)
    code, = struct.unpack_from("<h", data, 70)
    vox_offset, slope, inter = struct.unpack_from("<3f", data, 108)
    r, c, s = dim[1:4]
    dtype = np.dtype(_NIFTI_DTYPES[code])
    offset = max(int(vox_offset), NIFTI_OFFSET)
    if len(data) < offset + r * c * s * dtype.itemsize:
        raise ValueError(f"{path}: voxel data cut short")
    flat = np.frombuffer(data, dtype=dtype, count=r * c * s, offset=offset)
    return flat.reshape(s, c, r).transpose(2, 1, 0), float(slope), float(inter)


def write_pack(path, level, records):
    """records: (source_id, label, origin, float32 (r, c, s) tensor)."""
    shape = records[0][3].shape
    parts = [b"CTPK", struct.pack("<HB", 1, len(level)), level.encode("ascii"),
             struct.pack("<HHHI", *shape, len(records))]
    for sid, label, origin, tensor in records:
        sid = sid.encode("utf-8")
        parts += [struct.pack("<H", len(sid)), sid,
                  struct.pack("<BHHH", label, *origin),
                  np.ascontiguousarray(tensor, dtype="<f4").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_pack(path):
    """(level, (r, c, s), records); raises ValueError on any length mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CTPK":
        raise ValueError(f"{path}: not a patch pack")
    try:
        version, nlen = struct.unpack_from("<HB", blob, 4)
        level = blob[7:7 + nlen].decode("ascii")
        off = 7 + nlen
        r, c, s, count = struct.unpack_from("<HHHI", blob, off)
        off += 10
        records = []
        for _ in range(count):
            slen, = struct.unpack_from("<H", blob, off)
            sid = blob[off + 2:off + 2 + slen].decode("utf-8")
            off += 2 + slen
            label, *origin = struct.unpack_from("<BHHH", blob, off)
            off += 7
            n = r * c * s
            if off + 4 * n > len(blob):
                raise ValueError(f"{path}: record {len(records)} cut short")
            tensor = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(r, c, s)
            off += 4 * n
            records.append((sid, label, tuple(origin), tensor))
    except struct.error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if version != 1 or off != len(blob):
        raise ValueError(f"{path}: version {version}, {len(blob) - off} stray bytes")
    return level, (r, c, s), records


def write_checkpoint(path, spec, tensors):
    """spec: dict with input_shape, class_count and layers (ctscreen's JSON)."""
    spec_bytes = json.dumps(spec, sort_keys=True).encode()
    parts = [b"CTCK", struct.pack("<HI", 1, len(spec_bytes)), spec_bytes,
             struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack("<H", 3), b"<f4", struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_checkpoint(path):
    """(spec dict, {name: array}); raises ValueError on any length mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"CTCK":
        raise ValueError(f"{path}: not a checkpoint")
    try:
        _, slen = struct.unpack_from("<HI", blob, 4)
        spec = json.loads(blob[10:10 + slen])
        off = 10 + slen
        count, = struct.unpack_from("<I", blob, off)
        off += 4
        tensors = {}
        for _ in range(count):
            nlen, = struct.unpack_from("<H", blob, off)
            name = blob[off + 2:off + 2 + nlen].decode()
            off += 2 + nlen
            dlen, = struct.unpack_from("<H", blob, off)
            dtype = np.dtype(blob[off + 2:off + 2 + dlen].decode())
            off += 2 + dlen
            ndim, = struct.unpack_from("<B", blob, off)
            shape = struct.unpack_from(f"<{ndim}I", blob, off + 1)
            off += 1 + 4 * ndim
            n = int(np.prod(shape))
            if off + n * dtype.itemsize > len(blob):
                raise ValueError(f"{path}: tensor {name} cut short")
            tensors[name] = np.frombuffer(blob, dtype=dtype, count=n, offset=off).reshape(shape)
            off += n * dtype.itemsize
    except (struct.error, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} stray bytes")
    return spec, tensors
