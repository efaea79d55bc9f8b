"""The `.pack` patch container, little-endian: a header (magic, version,
level name, patch shape, record count), then per record the source id,
label, origin and float32 tensor. No other ctscreen module knows the layout.
"""

import csv
import io
import struct

import numpy as np

from . import nn_core
from .patch_sampler import Sample

MAGIC = b"CTPK"
VERSION = 1


def write_pack(level, samples):
    """The pack of `samples`, all of one shape, as bytes."""
    if not samples:
        raise ValueError("refusing to write an empty pack")
    shape = samples[0].tensor.shape
    if any(s.tensor.shape != shape for s in samples):
        raise ValueError("pack samples must share one shape")
    r, c, s = shape
    parts = [MAGIC, struct.pack("<HB", VERSION, len(level)), level.encode("ascii"),
             struct.pack("<HHHI", r, c, s, len(samples))]
    for smp in samples:
        sid = smp.source_id.encode("utf-8")
        parts.append(struct.pack("<H", len(sid)))
        parts.append(sid)
        parts.append(struct.pack("<BHHH", int(smp.label), *smp.origin))
        # join copies straight from the array's buffer, with no bytes copy per record
        parts.append(memoryview(np.ascontiguousarray(smp.tensor, dtype="<f4")).cast("B"))
    return b"".join(parts)


def pack_chunks(level, samples):
    """The pack of an iterable of `samples` as byte chunks to write in order:
    each sample encoded by write_pack as a pack of its own, each after the
    first without its header. The header counts one record until the writer
    amends it with `count_amend`."""
    at, _ = count_amend(level, 1)
    head = None
    for sample in samples:
        blob = write_pack(level, [sample])
        if head is None:
            head = blob[:at]
            yield blob
        elif blob[:at] != head:
            raise ValueError("pack samples must share one shape")
        else:
            yield memoryview(blob)[at + 4:]
        del blob  # before the next record is encoded


def count_amend(level, count):
    """(offset, bytes) that set the record count of a pack of `level` to
    `count`: the last four bytes of its header."""
    at = len(MAGIC) + struct.calcsize("<HB") + len(level) + struct.calcsize("<HHH")
    return at, struct.pack("<I", count)


def read_pack(data):
    """Inverse of write_pack, from the file's bytes: (level name, samples).

    Each sample's tensor is a read-only view of `data`, not a copy, so the
    samples keep the file's bytes alive and cost nothing beside them."""
    cur = nn_core.ByteCursor(data, "patch pack")
    if cur.take(4) != MAGIC:
        raise ValueError("not a patch pack")
    version, = cur.unpack("H")
    if version != VERSION:
        raise ValueError(f"unsupported pack version {version}")
    level = str(cur.take(cur.unpack("B")[0]), "ascii")
    r, c, s, count = cur.unpack("HHHI")
    if count == 0 or 0 in (r, c, s):
        raise ValueError("pack holds no patch data")
    samples = []
    for _ in range(count):
        sid = cur.text("utf-8")
        label, *origin = cur.unpack("BHHH")
        tensor = cur.array("<f4", (r, c, s))
        samples.append(Sample(tensor, label, sid, level, tuple(origin)))
    cur.end()
    return level, samples


def index_records(samples):
    """(source_id, label, level, origin) of each sample: a pack index's rows."""
    return [(smp.source_id, smp.label, smp.level, smp.origin) for smp in samples]


def pack_index_csv(records):
    """CSV of a pack's index_records, numbered in pack order."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["row", "source_id", "label", "level",
                "origin_r", "origin_c", "origin_s"])
    for i, (source_id, label, level, origin) in enumerate(records):
        w.writerow([i, source_id, label, level, *origin])
    return buf.getvalue()
