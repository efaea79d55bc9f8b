"""Round-trip and malformed-input tests for NIfTI-1 reading/writing.

Reference headers are packed by hand with struct so the reader is checked
against the byte layout, not against the writer.
"""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from ctscreen import nifti_io as nio


def pack_header(shape=(3, 4, 5), datatype=4, bitpix=16, vox_offset=352.0,
                slope=1.0, inter=0.0, bo="<", magic=b"n+1\x00", spacing=(1.0, 1.0, 1.0),
                rank=3):
    """Hand-packed 348-byte header, independent of the writer under test."""
    buf = bytearray(nio.HEADER_SIZE)
    struct.pack_into(bo + "i", buf, 0, 348)
    r, c, s = shape
    struct.pack_into(bo + "8h", buf, 40, rank, r, c, s, 1, 1, 1, 1)
    struct.pack_into(bo + "2h", buf, 70, datatype, bitpix)
    struct.pack_into(bo + "8f", buf, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(bo + "3f", buf, 108, vox_offset, slope, inter)
    buf[344:348] = magic
    return bytes(buf)


def pack_file(raw, bo="<", **kw):
    """Header + voxels in stored (first index fastest) order."""
    kw.setdefault("shape", raw.shape)
    hdr = pack_header(bo=bo, **kw)
    body = raw.astype(raw.dtype.newbyteorder(bo)).transpose(2, 1, 0).tobytes()
    return hdr + b"\x00" * 4 + body


def test_parse_header_little_endian_fields():
    buf = pack_header(shape=(10, 20, 30), datatype=16, bitpix=32,
                      slope=2.0, inter=-1024.0, spacing=(0.7, 0.7, 1.25))
    h = nio.parse_header(buf)
    assert h.shape == (10, 20, 30)
    assert h.datatype_code == 16
    assert h.byte_order == "<"
    assert h.scl_slope == 2.0
    assert h.scl_inter == -1024.0
    assert np.allclose(h.spacing, (0.7, 0.7, 1.25))


def test_parse_header_big_endian_detected():
    buf = pack_header(bo=">", shape=(7, 6, 5), datatype=4, bitpix=16)
    h = nio.parse_header(buf)
    assert h.byte_order == ">"
    assert h.shape == (7, 6, 5)
    assert h.dtype == np.dtype(">i2")


@pytest.mark.parametrize("bad", [0.0, -1.5, float("inf"), float("nan")])
def test_parse_header_rejects_spacing_not_finite_and_positive(bad):
    for axis in range(3):
        spacing = [0.8, 0.8, 2.0]
        spacing[axis] = bad
        with pytest.raises(nio.InvalidHeader, match="spacing"):
            nio.parse_header(pack_header(spacing=tuple(spacing)))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_parse_header_rejects_vox_offset_not_finite(bad):
    with pytest.raises(nio.InvalidHeader, match="vox_offset"):
        nio.parse_header(pack_header(vox_offset=bad))


def test_parse_header_rejects_bad_magic():
    buf = bytearray(pack_header())
    buf[344:348] = b"XXXX"
    with pytest.raises(nio.BadMagic):
        nio.parse_header(bytes(buf))


def test_parse_header_rejects_short_buffer():
    with pytest.raises(nio.TruncatedHeader):
        nio.parse_header(pack_header()[:200])


def test_parse_header_rejects_unknown_datatype():
    # 64 = float64, deliberately outside the supported set
    buf = pack_header(datatype=64, bitpix=64)
    with pytest.raises(nio.UnsupportedDatatype):
        nio.parse_header(buf)


def test_parse_header_rejects_bitpix_mismatch():
    buf = pack_header(datatype=4, bitpix=32)
    with pytest.raises(nio.InvalidHeader):
        nio.parse_header(buf)


def test_parse_header_rejects_bad_sizeof_hdr():
    buf = bytearray(pack_header())
    struct.pack_into("<i", buf, 0, 500)
    with pytest.raises(nio.InvalidHeader):
        nio.parse_header(bytes(buf))


def test_parse_header_accepts_4d_single_frame():
    buf = bytearray(pack_header(rank=4))
    h = nio.parse_header(bytes(buf))
    assert h.shape == (3, 4, 5)


def test_parse_header_rejects_4d_multi_frame():
    buf = bytearray(pack_header(rank=4))
    struct.pack_into("<h", buf, 40 + 4 * 2, 3)  # dim[4] = 3 frames
    with pytest.raises(nio.InvalidHeader):
        nio.parse_header(bytes(buf))


def test_read_raw_layout_first_index_fastest():
    # Hand-build a 2x2x2 int16 file where the flat body is 0..7.
    hdr = pack_header(shape=(2, 2, 2), datatype=4, bitpix=16)
    body = np.arange(8, dtype="<i2").tobytes()
    _, raw = nio.read_raw(hdr + b"\x00" * 4 + body)
    # stored index (r, c, s) = flat r + 2c + 4s
    for r in range(2):
        for c in range(2):
            for s in range(2):
                assert raw[r, c, s] == r + 2 * c + 4 * s


def test_read_raw_truncated_body():
    raw = np.zeros((4, 4, 4), dtype=np.int16)
    blob = pack_file(raw)
    with pytest.raises(nio.DataLengthMismatch):
        nio.read_raw(blob[:-10])


def test_read_raw_ignores_trailing_bytes():
    raw = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    blob = pack_file(raw) + b"\xff" * 100
    _, got = nio.read_raw(blob)
    assert np.array_equal(got, raw)


def test_read_raw_rejects_pair_magic():
    raw = np.zeros((2, 2, 2), dtype=np.int16)
    blob = pack_file(raw, magic=b"ni1\x00")
    with pytest.raises(nio.InvalidHeader):
        nio.read_raw(blob)


def test_bad_gzip_stream():
    with pytest.raises(nio.DecompressError):
        nio.read_raw(b"\x1f\x8b" + b"garbage not a gzip stream")


def test_gzip_bomb_inflates_only_the_declared_bytes():
    # 64 MiB of zeros after a 4x4x4 volume gzip to about 65 KB
    raw = np.arange(64, dtype=np.int16).reshape(4, 4, 4)
    bomb = gzip.compress(nio.write_nifti(raw) + bytes(64 << 20), mtime=0)
    tracemalloc.start()
    try:
        _, back = nio.read_raw(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, raw)
    assert peak < 16e6


def test_gzip_crc_is_checked_past_the_declared_bytes():
    raw = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    blob = bytearray(gzip.compress(nio.write_nifti(raw) + bytes(4096), mtime=0))
    blob[-8] ^= 0x01  # the first byte of the CRC-32 trailer
    with pytest.raises(nio.DecompressError):
        nio.read_raw(bytes(blob))


def test_gzip_truncated_stream():
    blob = nio.write_nifti(np.arange(24, dtype=np.int16).reshape(2, 3, 4),
                           gzipped=True)
    for cut in (len(blob) // 2, len(blob) - 4):
        with pytest.raises(nio.DecompressError):
            nio.read_raw(blob[:cut])


def test_gzip_two_members_load():
    raw = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    plain = nio.write_nifti(raw)
    # the first member ends inside the header
    blob = gzip.compress(plain[:100], mtime=0) + gzip.compress(plain[100:], mtime=0)
    _, back = nio.read_raw(blob)
    assert np.array_equal(back, raw)


def test_gzip_zero_padding_after_a_member_loads():
    raw = np.arange(24, dtype=np.int16).reshape(2, 3, 4)
    plain = nio.write_nifti(raw)
    # gzip readers skip zero bytes between and after members
    blob = (gzip.compress(plain[:200], mtime=0) + bytes(5)
            + gzip.compress(plain[200:], mtime=0) + bytes(3))
    _, back = nio.read_raw(blob)
    assert np.array_equal(back, raw)


def test_hu_affine_applied():
    raw = np.array([[[0, 1000], [2000, 3000]]], dtype=np.uint16).reshape(1, 2, 2)
    blob = pack_file(raw, datatype=512, bitpix=16, slope=1.0, inter=-1024.0)
    vol = nio.read_volume(blob)
    assert vol.voxels.dtype == np.float32
    assert np.array_equal(vol.voxels.ravel(), [-1024.0, -24.0, 976.0, 1976.0])


def test_hu_slope_zero_means_unscaled():
    raw = np.array([-500, 40], dtype=np.int16).reshape(1, 1, 2)
    blob = pack_file(raw, slope=0.0, inter=123.0)
    vol = nio.read_volume(blob)
    assert np.array_equal(vol.voxels.ravel(), [-500.0, 40.0])


@pytest.mark.parametrize("dtype", ["u1", "i2", "i4", "f4", "u2"])
@pytest.mark.parametrize("gz", [False, True])
def test_write_read_round_trip_bit_exact(dtype, gz):
    rng = np.random.default_rng(7)
    dt = np.dtype(dtype)
    if dt.kind == "f":
        raw = rng.standard_normal((5, 6, 7)).astype(dt)
    else:
        info = np.iinfo(dt)
        raw = rng.integers(info.min, info.max, size=(5, 6, 7), endpoint=True).astype(dt)
    blob = nio.write_nifti(raw, spacing=(0.5, 0.5, 2.0), scl_slope=1.0,
                           scl_inter=0.0, gzipped=gz)
    hdr, back = nio.read_raw(blob)
    assert back.dtype.newbyteorder("=") == dt
    assert back.tobytes() == raw.tobytes()
    assert hdr.shape == raw.shape
    assert np.allclose(hdr.spacing, (0.5, 0.5, 2.0))


def test_write_gzip_deterministic_bytes():
    raw = np.arange(60, dtype=np.int16).reshape(3, 4, 5)
    a = nio.write_nifti(raw, gzipped=True)
    b = nio.write_nifti(raw, gzipped=True)
    assert a == b


def test_write_rejects_unsupported_dtype():
    with pytest.raises(nio.UnsupportedDatatype):
        nio.write_nifti(np.zeros((2, 2, 2), dtype=np.float64))


def test_write_mask_uint8_and_geometry(tmp_path):
    raw = np.zeros((4, 5, 6), dtype=np.int16)
    hdr, _ = nio.read_raw(pack_file(raw, spacing=(0.9, 0.9, 1.5)))
    bits = np.zeros((4, 5, 6), dtype=bool)
    bits[1:3, 2:4, :] = True
    p = tmp_path / "mask.nii.gz"
    p.write_bytes(nio.write_mask(bits, hdr, gzipped=True))
    h2, back = nio.read_raw(p.read_bytes())
    assert h2.datatype_code == nio.MASK_DATATYPE_CODE
    assert np.allclose(h2.spacing, hdr.spacing)
    assert np.array_equal(back.astype(bool), bits)


def test_write_mask_shape_mismatch():
    hdr, _ = nio.read_raw(pack_file(np.zeros((4, 5, 6), dtype=np.int16)))
    with pytest.raises(nio.ShapeMismatch):
        nio.write_mask(np.zeros((4, 5, 7), dtype=bool), hdr)


def test_big_endian_round_trip_values():
    raw = np.array([1, -2, 300, -400], dtype=np.int16).reshape(1, 2, 2)
    blob = pack_file(raw, bo=">")
    _, back = nio.read_raw(blob)
    assert np.array_equal(back.astype("=i2"), raw)
