"""HTTP/1.1 message framing for the `/v1` wire, shared by both ends.

The server (:mod:`repro.server.http`) reads each request's header block
with :func:`read_fields`; :class:`~repro.server.client.HTTPClient` reads
each reply with :class:`Reply`.  Only what `/v1` uses is here: bodies
framed by ``Content-Length`` or by chunks, the ``Connection`` header, no
content codings, no pipelining.  The limits are the stdlib's: a line of
at most :data:`MAX_LINE` bytes and a header block of at most
:data:`MAX_HEADER_LINES` lines, its blank line included.
"""

from __future__ import annotations

import re
from typing import BinaryIO, Iterator

MAX_LINE = 65536
"""The longest request, status, header or chunk-size line, in bytes."""

MAX_HEADER_LINES = 100
"""Lines in one header block, the blank line that ends it included."""

_FIELD_NAME = re.compile(rb"[!-9;-~]+").fullmatch
"""A header name: printable ASCII but ``:``, so no whitespace before the
colon and no folded (obs-fold) continuation line."""

_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+").fullmatch


class FramingError(Exception):
    """Bytes that break HTTP/1.1 framing.

    ``status`` is what a server answers it with: 400 for a malformed
    header line, 431 for a header block over the limits.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def read_fields(rfile: BinaryIO) -> "dict[str, str]":
    """One header block, through the blank line that ends it.

    Names are folded to lower case and the first occurrence of a name wins,
    as :class:`~repro.server.middleware.Request` folds them.  Values are
    decoded as ISO-8859-1 and stripped.  EOF ends the block early, as in
    the stdlib.  A folded continuation line or a line without ``name:`` is
    a :class:`FramingError` 400 (RFC 7230 §3.2.4); a line over
    :data:`MAX_LINE` or a block over :data:`MAX_HEADER_LINES` is a 431.
    """
    fields: "dict[str, str]" = {}
    for _ in range(MAX_HEADER_LINES):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError("Line too long", 431)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.partition(b":")
        if not (colon and _FIELD_NAME(name)):
            raise FramingError(f"Bad header line ({line[:100]!r})")
        fields.setdefault(name.decode("latin-1").lower(), value.strip().decode("latin-1"))
    raise FramingError("Too many headers", 431)


class Reply:
    """One HTTP/1.1 response read off ``rfile``.

    The status line and the header block are read at construction (an
    interim ``100 Continue`` is skipped); the body on demand, by
    :meth:`read` or :meth:`chunks`.  A reply with neither
    ``Content-Length`` nor chunking runs to EOF.  :attr:`reusable` says
    whether the connection may carry another request once the body is
    read: only after an ``HTTP/1.1`` reply with a framed body and no
    ``Connection: close``.  Every framing fault is a :class:`FramingError`.
    """

    __slots__ = ("status", "fields", "reusable", "_rfile", "_chunked", "_length")

    def __init__(self, rfile: BinaryIO) -> None:
        self._rfile = rfile
        status = 100
        while status == 100:
            line = rfile.readline(MAX_LINE + 1)
            if not line:
                raise FramingError("The server closed the connection without a reply")
            parts = line.split(None, 2)
            if not (
                len(parts) >= 2
                and parts[0].startswith(b"HTTP/1.")
                and len(parts[1]) == 3
                and parts[1].isdigit()
            ):
                raise FramingError(f"Bad status line ({line[:100]!r})")
            version, status = parts[0], int(parts[1])
            fields = read_fields(rfile)
        self.status, self.fields = status, fields
        self._chunked = fields.get("transfer-encoding", "").lower() == "chunked"
        length = fields.get("content-length", "")
        if self._chunked:
            self._length = None
        elif status in (204, 304) or status < 200:
            self._length = 0
        else:
            self._length = int(length) if length.isascii() and length.isdigit() else None
        self.reusable = (
            version == b"HTTP/1.1"
            and "close" not in fields.get("connection", "").lower()
            and (self._chunked or self._length is not None)
        )

    def read(self) -> bytes:
        """The whole body."""
        if self._length is not None:
            body = self._rfile.read(self._length)
            if len(body) < self._length:
                raise FramingError(f"Body ended after {len(body)} of {self._length} bytes")
            return body
        if self._chunked:
            return b"".join(self.chunks())
        return self._rfile.read()

    def chunks(self) -> "Iterator[bytes]":
        """The body as it arrives: chunk by chunk when chunked, else whole.

        A chunk is a hex size (with an optional ``;extension``), CRLF, the
        data and CRLF; a ``0`` size ends the body and a trailer block,
        read and dropped, ends the message.
        """
        if not self._chunked:
            yield self.read()
            return
        rfile = self._rfile
        while True:
            line = rfile.readline(MAX_LINE + 1)
            size = line.split(b";", 1)[0].strip()
            if not _CHUNK_SIZE(size):
                raise FramingError(f"Bad chunk size line ({line[:100]!r})")
            length = int(size, 16)
            if not length:
                break
            data = rfile.read(length + 2)
            if len(data) < length + 2 or not data.endswith(b"\r\n"):
                raise FramingError(f"Chunk of {length} bytes ended early")
            yield data[:-2]
        read_fields(rfile)
