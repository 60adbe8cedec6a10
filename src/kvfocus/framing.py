"""The binary frame shared by cache (CFKV), index (CFIX) and weight (CFWT) files.

Layout, little-endian:
    magic 4s | version u32 | header (a fixed struct per format) | body |
    crc32 of the body, u32

The crc covers the body only, so a header field that matters must be
checked by the format that owns it. Files are written under a temporary
name of their own and renamed into place, so a failed write leaves any
earlier file at the path intact and no temporary file behind. Files are
read front to back in chunks the caller sizes (`open_framed`), so a body is
never copied whole; a `VerifiedFiles` record lets a reader skip the crc of a
file it has already checked.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
import uuid
import zlib
from dataclasses import dataclass

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


class FrameReader:
    """A framed file open for reading, its body read front to back.

    `fields` holds the unpacked header and `body_size` the body's length;
    `readinto` fills buffers from the body in order and folds each chunk into
    the crc. The crc is checked when the whole body has been read, unless a
    `VerifiedFiles` record shows this very file already passed it.
    """

    def __init__(self, fh, path, framing: Framing, verified: "VerifiedFiles | None"):
        self._fh, self.path, self.framing = fh, path, framing
        self._verified = verified
        self._stat = os.fstat(fh.fileno())
        size = self._stat.st_size
        preamble = fh.read(8 + framing.header.size)
        if preamble[:4] != framing.magic:
            raise framing.fail(path, f"bad magic {preamble[:4]!r}")
        start = 8 + framing.header.size
        if size < start + 4:
            raise framing.fail(path, f"file ends inside its header ({size} bytes)")
        (version,) = _U32.unpack_from(preamble, 4)
        if version != framing.version:
            raise framing.fail(path, f"unsupported version {version}")
        self.fields = framing.header.unpack_from(preamble, 8)
        self.body_size = self._remaining = size - start - 4
        self._crc = None if verified is not None and verified.holds(path, self._stat) else 0

    def readinto(self, buffer) -> None:
        """Fill `buffer` with the next len(buffer) bytes of the body."""
        view = memoryview(buffer).cast("B")
        got = 0
        while got < view.nbytes:
            count = self._fh.readinto(view[got:])
            if not count:  # the file shrank since it was opened
                raise self.framing.fail(self.path, "file ends inside its body")
            got += count
        if self._crc is not None:
            self._crc = zlib.crc32(view, self._crc)
        self._remaining -= got

    def finish(self) -> None:
        """Check the crc of the whole body, and record a file that passed."""
        if self._remaining:
            raise ValueError(f"{self._remaining} body bytes left unread")
        if self._crc is None:
            return
        tail = self._fh.read(4)
        if len(tail) != 4 or _U32.unpack(tail)[0] != self._crc:
            raise self.framing.fail(self.path, "checksum mismatch")
        if self._verified is not None:
            self._verified.record(self.path, self._stat, os.fstat(self._fh.fileno()))


@contextlib.contextmanager
def open_framed(path, framing: Framing, *, verified: "VerifiedFiles | None" = None):
    """Open a framed file and check its magic, length and version.

    Yields a `FrameReader`; the body must be read whole inside the block,
    after which the crc is checked. Anything wrong with the frame raises
    the format's error.
    """
    with open(path, "rb", buffering=0) as fh:
        reader = FrameReader(fh, path, framing, verified)
        yield reader
        reader.finish()


def read_framed(path, framing: Framing) -> tuple[tuple, memoryview]:
    """Check a file's magic, length, version and crc.

    Returns the unpacked header fields and a read-only view of the body;
    anything wrong with the frame raises the format's error.
    """
    with open_framed(path, framing) as frame:
        body = bytearray(frame.body_size)
        frame.readinto(body)
    return frame.fields, memoryview(body).toreadonly()


class VerifiedFiles:
    """Files whose crc passed, so that a later read of the same file can skip it.

    A file is known by its path, inode, size and modification time in ns.
    A file replaced by rename gets a new inode, so it is checked again, as is
    one rewritten in place at a later time. A change that keeps all four
    (a bit flip on disk, or an in-place edit within one timestamp tick) goes
    unnoticed until a new record reads the file. Safe to share between
    threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._keys: dict[str, tuple[int, int, int]] = {}

    @staticmethod
    def _key(stat) -> tuple[int, int, int]:
        return stat.st_ino, stat.st_size, stat.st_mtime_ns

    def holds(self, path, stat) -> bool:
        """Whether the file at `path`, as `stat` describes it, passed before."""
        with self._lock:
            return self._keys.get(os.fspath(path)) == self._key(stat)

    def record(self, path, before, after) -> None:
        """Record a file that passed its crc, if it did not change while it was read."""
        if self._key(before) == self._key(after):
            with self._lock:
                self._keys[os.fspath(path)] = self._key(before)
