"""The binary frame shared by cache (CFKV), index (CFIX) and weight (CFWT) files.

Layout, little-endian:
    magic 4s | version u32 | header (a fixed struct per format) | body |
    crc32 of the body, u32

The crc covers the body only, so a header field that matters must be
checked by the format that owns it. Files are written under a temporary
name of their own and renamed into place, so a failed write leaves any
earlier file at the path intact and no temporary file behind.
"""

from __future__ import annotations

import contextlib
import os
import struct
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path

_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Framing:
    """What one file format puts around its body, declared once per format."""

    magic: bytes
    version: int
    header: struct.Struct
    error: type[Exception]
    kind: str  # names the file in error messages, e.g. "cache file"

    def fail(self, path, problem: str) -> Exception:
        """The format's error, naming the file kind and path."""
        return self.error(f"{self.kind} {path}: {problem}")


def write_atomic(path, *chunks) -> int:
    """Write the chunks to a temporary file of this call's own, rename it
    over `path`, and return the byte count; a failure removes the file."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return sum(len(chunk) for chunk in chunks)


def write_framed(path, framing: Framing, header_bytes: bytes, body) -> int:
    """Frame `body` behind the packed header and write it atomically; returns
    the file's size in bytes."""
    return write_atomic(
        path,
        framing.magic + _U32.pack(framing.version) + header_bytes,
        body,
        _U32.pack(zlib.crc32(body)),
    )


def read_framed(path, framing: Framing) -> tuple[tuple, memoryview]:
    """Check a file's magic, length, version and crc.

    Returns the unpacked header fields and a view of the body; anything
    wrong with the frame raises the format's error.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != framing.magic:
        raise framing.fail(path, f"bad magic {raw[:4]!r}")
    start = 8 + framing.header.size
    if len(raw) < start + 4:
        raise framing.fail(path, f"file ends inside its header ({len(raw)} bytes)")
    (version,) = _U32.unpack_from(raw, 4)
    if version != framing.version:
        raise framing.fail(path, f"unsupported version {version}")
    body = memoryview(raw)[start:len(raw) - 4]
    (crc,) = _U32.unpack_from(raw, len(raw) - 4)
    if zlib.crc32(body) != crc:
        raise framing.fail(path, "checksum mismatch")
    return framing.header.unpack_from(raw, 8), body
