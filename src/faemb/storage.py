"""Persistence: descriptor files, model containers, and ground-truth text.

Two binary formats, both little-endian throughout:

Descriptor file (magic ``FAEB``)::

    magic "FAEB" | version u32 (=1) | dim u32 | image_count u64
    per image: id_len u32 | id utf-8 | count u64 | count*dim float32 row-major
    trailing CRC32 u32 over everything after the 20-byte header

Model container (magic ``FAMB``)::

    magic "FAMB" | major u32 | minor u32 | section_count u32
    table: per section: name_len u32 | name utf-8 | offset u64 | length u64
    blobs: kind u32 (0=f64, 1=i64, 2=u8, 3=utf8) | ndim u32 | shape u64*ndim
           | payload | CRC32 u32 over kind..payload
    (a utf8 blob has ndim 1 and its shape is the byte length; arrays are
    row-major; offsets count from the start of the file)

Containers written by an older minor version load fine; an unknown major
version is refused.  Every loader verifies magic, structure, and checksums
and raises :class:`StorageError` on any mismatch.

Writers stream each section from its array straight to the open file, with
a running CRC, so no image of the whole file is built in memory.  The
container reader checks every size against the file's length before it
reads, then reads the header, the table and one section at a time.
Streaming changes no byte of the layouts above.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .aggregate import ImageSignature, RotationNormModel, WhiteningModel
from .binary import BinaryCode, ItqModel
from .coding import CodingModel
from .core import DescriptorSet
from .retrieval import GroundTruth, RetrievalIndex

__all__ = [
    "StorageError",
    "FORMAT_MAJOR",
    "FORMAT_MINOR",
    "save_descriptors",
    "load_descriptors",
    "save_ground_truth",
    "load_ground_truth",
    "write_container",
    "read_container",
    "save_model",
    "load_model",
    "save_signatures",
    "load_signatures",
    "save_codes",
    "load_codes",
    "save_index",
    "load_index",
]

FORMAT_MAJOR = 1
FORMAT_MINOR = 0

_DESC_MAGIC = b"FAEB"
_MODEL_MAGIC = b"FAMB"
_KIND_F64, _KIND_I64, _KIND_U8, _KIND_UTF8 = 0, 1, 2, 3
_KIND_DTYPES = {_KIND_F64: "<f8", _KIND_I64: "<i8", _KIND_U8: "u1"}


class StorageError(ValueError):
    """A file failed structural validation: magic, version, size, or checksum."""


# ---------------------------------------------------------------------------
# descriptor files


def save_descriptors(path: str | Path, sets: list[DescriptorSet]) -> None:
    if not sets:
        raise ValueError("refusing to write an empty descriptor file")
    dim = sets[0].dim
    for s in sets:
        if s.dim != dim:
            raise ValueError(f"mixed descriptor dims: {dim} vs {s.dim} ({s.image_id!r})")
    crc = 0
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIIQ", _DESC_MAGIC, 1, dim, len(sets)))
        for s in sets:
            ident = s.image_id.encode("utf-8")
            record = struct.pack("<I", len(ident)) + ident + struct.pack("<Q", s.count)
            values = np.ascontiguousarray(s.descriptors, dtype="<f4")
            for part in (record, values):
                f.write(part)
                crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


def _take(buf: memoryview, pos: int, size: int, what: str) -> tuple[memoryview, int]:
    if pos + size > len(buf):
        raise StorageError(f"truncated file: expected {size} more bytes for {what}")
    return buf[pos : pos + size], pos + size


def load_descriptors(path: str | Path) -> list[DescriptorSet]:
    buf = memoryview(Path(path).read_bytes())
    head, pos = _take(buf, 0, 20, "header")
    magic, version, dim, count = struct.unpack("<4sIIQ", head)
    if magic != _DESC_MAGIC:
        raise StorageError(f"bad magic {magic!r}; not a descriptor file")
    if version != 1:
        raise StorageError(f"unsupported descriptor file version {version}")
    if len(buf) < 24:
        raise StorageError("truncated file: missing checksum")
    payload = buf[20:-4]
    (stored_crc,) = struct.unpack("<I", buf[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise StorageError("checksum mismatch; descriptor file is corrupted")
    if count == 0:
        raise StorageError(f"{path}: descriptor file holds no images")
    sets: list[DescriptorSet] = []
    pos = 0
    for _ in range(count):
        raw, pos = _take(payload, pos, 4, "id length")
        (id_len,) = struct.unpack("<I", raw)
        raw, pos = _take(payload, pos, id_len, "image id")
        image_id = str(raw, "utf-8")
        raw, pos = _take(payload, pos, 8, "descriptor count")
        (n_desc,) = struct.unpack("<Q", raw)
        raw, pos = _take(payload, pos, 4 * n_desc * dim, f"descriptors of {image_id!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(n_desc, dim)
        sets.append(DescriptorSet(image_id=image_id, descriptors=arr))
    if pos != len(payload):
        raise StorageError(f"{len(payload) - pos} trailing bytes after last image")
    return sets


# ---------------------------------------------------------------------------
# ground truth text files


def save_ground_truth(path: str | Path, gt: GroundTruth) -> None:
    lines = []
    for qid, (relevant, junk) in gt.entries.items():
        for ident in (qid, *relevant, *junk):
            if any(ch in ident for ch in "|,\n"):
                raise ValueError(f"id {ident!r} contains a reserved character")
        lines.append(
            f"{qid} | relevant: {','.join(sorted(relevant))}"
            f" | junk: {','.join(sorted(junk))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_ground_truth(path: str | Path) -> GroundTruth:
    entries: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3 or not parts[1].startswith("relevant:") or not parts[
            2
        ].startswith("junk:"):
            raise StorageError(
                f"{path}:{lineno}: expected 'query | relevant: … | junk: …'"
            )
        qid = parts[0]
        if not qid:
            raise StorageError(f"{path}:{lineno}: empty query id")
        if qid in entries:
            raise StorageError(f"{path}:{lineno}: duplicate query id {qid!r}")
        relevant = frozenset(
            s.strip() for s in parts[1][len("relevant:") :].split(",") if s.strip()
        )
        junk = frozenset(
            s.strip() for s in parts[2][len("junk:") :].split(",") if s.strip()
        )
        entries[qid] = (relevant, junk)
    return GroundTruth(entries=entries)


# ---------------------------------------------------------------------------
# model containers


def _encode_section(value: np.ndarray | str) -> tuple[bytes, bytes | np.ndarray, int]:
    """Head, payload buffer (not a copy) and CRC32 of one section."""
    if isinstance(value, str):
        payload = value.encode("utf-8")
        head = struct.pack("<IIQ", _KIND_UTF8, 1, len(payload))
    else:
        arr = np.asarray(value)
        if arr.dtype == np.float64:
            kind = _KIND_F64
        elif arr.dtype == np.int64:
            kind = _KIND_I64
        elif arr.dtype == np.uint8:
            kind = _KIND_U8
        else:
            raise ValueError(f"unsupported array dtype {arr.dtype} for container")
        # a flat byte view of the contiguous array, so len() is its size in bytes
        flat = np.ascontiguousarray(arr, dtype=_KIND_DTYPES[kind]).reshape(-1)
        payload = flat.view(np.uint8)
        head = struct.pack("<II", kind, arr.ndim)
        head += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return head, payload, zlib.crc32(payload, zlib.crc32(head))


def write_container(
    path: str | Path, sections: dict[str, np.ndarray | str], minor: int = FORMAT_MINOR
) -> None:
    """Write named typed arrays (or utf-8 strings) to a model container.

    Each section goes from its array straight to the open file.
    """
    if not sections:
        raise ValueError("refusing to write an empty container")
    encoded = [
        (name.encode("utf-8"), *_encode_section(value)) for name, value in sections.items()
    ]
    offset = 16 + sum(4 + len(raw) + 16 for raw, *_ in encoded)
    table = bytearray()
    for raw, head, payload, _ in encoded:
        length = len(head) + len(payload) + 4
        table += struct.pack("<I", len(raw))
        table += raw
        table += struct.pack("<QQ", offset, length)
        offset += length
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIII", _MODEL_MAGIC, FORMAT_MAJOR, minor, len(encoded)))
        f.write(table)
        for _, head, payload, crc in encoded:
            f.write(head)
            f.write(payload)
            f.write(struct.pack("<I", crc))


def _decode_section(blob: memoryview, name: str) -> np.ndarray | str:
    if len(blob) < 12:
        raise StorageError(f"section {name!r} too short")
    body, stored = blob[:-4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", stored)[0]:
        raise StorageError(f"checksum mismatch in section {name!r}")
    kind, ndim = struct.unpack("<II", body[:8])
    pos = 8
    shape_raw, pos = _take(body, pos, 8 * ndim, f"shape of {name!r}")
    shape = struct.unpack(f"<{ndim}Q", shape_raw) if ndim else ()
    payload = body[pos:]
    if kind == _KIND_UTF8:
        return str(payload, "utf-8")
    if kind not in _KIND_DTYPES:
        raise StorageError(f"section {name!r} has unknown kind tag {kind}")
    dtype = np.dtype(_KIND_DTYPES[kind])
    if len(payload) != dtype.itemsize * math.prod(shape):
        raise StorageError(f"section {name!r}: payload size does not match shape {shape}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def _read(
    f: BinaryIO, pos: int, size: int, file_size: int, what: str
) -> tuple[memoryview, int]:
    """Like :func:`_take` on an open file: the size check comes before any read."""
    if pos + size <= file_size:
        f.seek(pos)
        raw = f.read(size)
        if len(raw) == size:
            return memoryview(raw), pos + size
    raise StorageError(f"truncated file: expected {size} more bytes for {what}")


def read_container(path: str | Path) -> dict[str, np.ndarray | str]:
    """Read a model container: the header and table, then one section at a time."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        head, pos = _read(f, 0, 16, file_size, "container header")
        magic, major, minor, n_sections = struct.unpack("<4sIII", head)
        if magic != _MODEL_MAGIC:
            raise StorageError(f"bad magic {magic!r}; not a model container")
        if major != FORMAT_MAJOR:
            raise StorageError(
                f"unsupported container major version {major} (supported: {FORMAT_MAJOR})"
            )
        table: list[tuple[str, int, int]] = []
        for _ in range(n_sections):
            raw, pos = _read(f, pos, 4, file_size, "section name length")
            (name_len,) = struct.unpack("<I", raw)
            raw, pos = _read(f, pos, name_len, file_size, "section name")
            name = str(raw, "utf-8")
            raw, pos = _read(f, pos, 16, file_size, f"table entry for {name!r}")
            off, length = struct.unpack("<QQ", raw)
            table.append((name, off, length))
        out: dict[str, np.ndarray | str] = {}
        for name, off, length in table:
            blob, _ = _read(f, off, length, file_size, f"section {name!r}")
            out[name] = _decode_section(blob, name)
            del blob  # release this section's bytes before the next one is read
    return out


# ---------------------------------------------------------------------------
# model round-trips

_MODEL_TYPES = ("coding", "whitening", "rotation_norm", "itq")
Model = CodingModel | WhiteningModel | RotationNormModel | ItqModel


def save_model(path: str | Path, model: Model) -> None:
    sections: dict[str, np.ndarray | str]
    if isinstance(model, CodingModel):
        sections = {
            "model_type": "coding",
            "anchors": model.anchors,
            "mu": np.float64(model.mu),
            "variant": model.variant,
        }
    elif isinstance(model, WhiteningModel):
        sections = {
            "model_type": "whitening",
            "mean": model.mean,
            "projection": model.projection,
            "eigenvalues": model.eigenvalues,
            "drop": np.int64(model.drop),
            "eps": np.float64(model.eps),
        }
    elif isinstance(model, RotationNormModel):
        sections = {
            "model_type": "rotation_norm",
            "rotation": model.rotation,
            "keep": np.int64(model.keep),
        }
    elif isinstance(model, ItqModel):
        sections = {
            "model_type": "itq",
            "mean": model.mean,
            "pca": model.pca,
            "rotation": model.rotation,
            "bits": np.int64(model.bits),
        }
    else:
        raise TypeError(f"cannot persist object of type {type(model).__name__}")
    write_container(path, sections)


def _expect(sections: dict, name: str, path) -> np.ndarray | str:
    if name not in sections:
        raise StorageError(f"{path}: missing section {name!r}")
    return sections[name]


def load_model(path: str | Path) -> Model:
    sections = read_container(path)
    mtype = _expect(sections, "model_type", path)
    if mtype == "coding":
        return CodingModel(
            anchors=_expect(sections, "anchors", path),
            mu=float(_expect(sections, "mu", path)),
            variant=str(_expect(sections, "variant", path)),
        )
    if mtype == "whitening":
        return WhiteningModel(
            mean=_expect(sections, "mean", path),
            projection=_expect(sections, "projection", path),
            eigenvalues=_expect(sections, "eigenvalues", path),
            drop=int(_expect(sections, "drop", path)),
            eps=float(_expect(sections, "eps", path)),
        )
    if mtype == "rotation_norm":
        return RotationNormModel(
            rotation=_expect(sections, "rotation", path),
            keep=int(_expect(sections, "keep", path)),
        )
    if mtype == "itq":
        return ItqModel(
            mean=_expect(sections, "mean", path),
            pca=_expect(sections, "pca", path),
            rotation=_expect(sections, "rotation", path),
            bits=int(_expect(sections, "bits", path)),
        )
    raise StorageError(f"{path}: unknown model_type {mtype!r}")


# ---------------------------------------------------------------------------
# signature / code / index files


def save_signatures(path: str | Path, signatures: list[ImageSignature]) -> None:
    if not signatures:
        raise ValueError("refusing to write an empty signature file")
    dim = signatures[0].dim
    for s in signatures:
        if s.dim != dim:
            raise ValueError(f"mixed signature lengths: {dim} vs {s.dim}")
    write_container(
        path,
        {
            "model_type": "signatures",
            "ids": json.dumps([s.image_id for s in signatures]),
            "values": np.stack([s.values for s in signatures]),
            "degenerate": np.array([s.degenerate for s in signatures], dtype=np.uint8),
        },
    )


def load_signatures(path: str | Path) -> list[ImageSignature]:
    return _signatures_from_sections(read_container(path), path)


def _signatures_from_sections(sections: dict, path) -> list[ImageSignature]:
    if _expect(sections, "model_type", path) != "signatures":
        raise StorageError(f"{path}: not a signature file")
    ids = json.loads(str(_expect(sections, "ids", path)))
    values = _expect(sections, "values", path)
    degenerate = _expect(sections, "degenerate", path)
    if len(ids) != values.shape[0]:
        raise StorageError(f"{path}: id count does not match value rows")
    if not ids:
        raise StorageError(f"{path}: signature file holds no entries")
    return [
        ImageSignature(values=values[i], image_id=ids[i], degenerate=bool(degenerate[i]))
        for i in range(len(ids))
    ]


def save_codes(path: str | Path, codes: list[BinaryCode]) -> None:
    if not codes:
        raise ValueError("refusing to write an empty code file")
    bits = codes[0].n_bits
    for c in codes:
        if c.n_bits != bits:
            raise ValueError(f"mixed code lengths: {bits} vs {c.n_bits}")
    write_container(
        path,
        {
            "model_type": "codes",
            "ids": json.dumps([c.image_id for c in codes]),
            "packed": np.stack([c.packed for c in codes]),
            "n_bits": np.int64(bits),
        },
    )


def load_codes(path: str | Path) -> list[BinaryCode]:
    return _codes_from_sections(read_container(path), path)


def _codes_from_sections(sections: dict, path) -> list[BinaryCode]:
    if _expect(sections, "model_type", path) != "codes":
        raise StorageError(f"{path}: not a code file")
    ids = json.loads(str(_expect(sections, "ids", path)))
    packed = _expect(sections, "packed", path)
    bits = int(_expect(sections, "n_bits", path))
    if len(ids) != packed.shape[0]:
        raise StorageError(f"{path}: id count does not match code rows")
    if not ids:
        raise StorageError(f"{path}: code file holds no entries")
    return [
        BinaryCode(packed=packed[i], n_bits=bits, image_id=ids[i])
        for i in range(len(ids))
    ]


def save_index(path: str | Path, index: RetrievalIndex) -> None:
    write_container(
        path,
        {
            "model_type": "index",
            "mode": index.mode,
            "ids": json.dumps(list(index.ids)),
            "vectors": index.vectors,
            "width": np.int64(index.width),
        },
    )


def load_index(path: str | Path) -> RetrievalIndex:
    sections = read_container(path)
    if _expect(sections, "model_type", path) != "index":
        raise StorageError(f"{path}: not an index file")
    return RetrievalIndex(
        ids=tuple(json.loads(str(_expect(sections, "ids", path)))),
        vectors=_expect(sections, "vectors", path),
        mode=str(_expect(sections, "mode", path)),
        width=int(_expect(sections, "width", path)),
    )
