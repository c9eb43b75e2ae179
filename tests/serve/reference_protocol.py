"""The request-at-a-time wire parser: the oracle for
:class:`repro.serve.protocol.ProtocolParser`.

This is the parser the server ran before its parse became one frame per
command: a line is framed by ``_read_line``, then ``_parse_get`` /
``_parse_set`` / ``_parse_delete`` check it field by field through
``_valid_key`` and ``_number``, and a ``set`` waits for its data block
in ``_read_data_block``. It carries two fixes over that parser: a line
longer than :data:`~repro.serve.protocol.MAX_LINE_BYTES` is one
``ERROR`` and is dropped through its newline, however the reads cut it;
a ``set`` past :data:`~repro.serve.protocol.MAX_VALUE_BYTES` (up to
:data:`~repro.serve.protocol.MAX_SWALLOW_BYTES`) has its data block
swallowed, as memcached does.
``tests/serve/test_protocol_oracle.py`` holds the live parser to it:
the same :class:`~repro.serve.protocol.ProtocolEvent` sequence for any
command stream, cut anywhere.
"""

from __future__ import annotations

from typing import List, Optional

from repro.serve.protocol import (
    CRLF,
    ERROR,
    MAX_FLAGS,
    MAX_KEY_BYTES,
    MAX_LINE_BYTES,
    MAX_SWALLOW_BYTES,
    MAX_VALUE_BYTES,
    Command,
    ProtocolEvent,
    client_error,
    server_error,
)


def _valid_key(key: str) -> bool:
    """Every character in 33..126 (printable ASCII, no space), 1-250 of
    them -- stated with C-level predicates, not a loop per character."""
    return (
        0 < len(key) <= MAX_KEY_BYTES
        and key.isascii()
        and key.isprintable()
        and " " not in key
    )


def _number(text: str, signed: bool = True) -> Optional[int]:
    """``text`` as an integer when it is ASCII digits, after one leading
    ``-`` if ``signed``; otherwise ``None``. ``int()`` alone would also
    take ``+5``, ``1_0``, padding spaces and non-ASCII digits, which
    memcached refuses."""
    digits = text[1:] if signed and text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    return None


class ReferenceParser:
    """Incremental parser over a byte stream.

    ``feed`` appends bytes; ``next_event`` returns the next
    :class:`ProtocolEvent`, or None when more bytes are needed.
    Malformed input produces error-response events and resynchronizes
    at the next line, so one bad command never poisons the connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: A ``set`` header waiting for its data block.
        self._pending: Optional[Command] = None
        self._pending_size = 0
        #: Answer for a ``set`` refused at its header, sent once its data
        #: block has been consumed so the pipeline stays framed.
        self._pending_refusal: Optional[bytes] = None
        #: After a bad data trailer or an overlong line: drop input
        #: through the next newline, whenever it arrives.
        self._resyncing = False
        #: Bytes of an oversized ``set``'s data block still to drop.
        self._swallowing = 0

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_event(self) -> Optional[ProtocolEvent]:
        if self._swallowing:
            dropped = min(self._swallowing, len(self._buffer))
            del self._buffer[:dropped]
            self._swallowing -= dropped
            if self._swallowing:
                return None
        if self._pending is not None:
            return self._read_data_block()
        if self._resyncing:
            index = self._buffer.find(b"\n")
            if index < 0:
                self._buffer.clear()  # still inside the line to drop
                return None
            del self._buffer[: index + 1]
            self._resyncing = False
        line = self._read_line()
        if line is None:
            return None
        if line == b"":
            # Bare CRLF between commands: memcached answers ERROR.
            return ProtocolEvent(response=ERROR)
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            return ProtocolEvent(response=client_error("malformed request"))
        parts = text.split()
        if not parts:
            return ProtocolEvent(response=ERROR)
        op = parts[0].lower()
        if op == "get" or op == "gets":
            return self._parse_get(parts)
        if op == "set":
            return self._parse_set(parts)
        if op == "delete":
            return self._parse_delete(parts)
        if op == "stats":
            return ProtocolEvent(command=Command(op="stats"))
        if op == "quit":
            return ProtocolEvent(command=Command(op="quit"))
        return ProtocolEvent(response=ERROR)

    # ------------------------------------------------------------------

    def _read_line(self) -> Optional[bytes]:
        index = self._buffer.find(b"\n")
        if index < 0:
            if len(self._buffer) > MAX_LINE_BYTES:
                # Unterminated and already too long: drop it, and the
                # rest of it through its newline whenever that arrives.
                self._buffer.clear()
                self._resyncing = True
                return b"\x00overlong"  # unparseable -> ERROR below
            return None
        if index > MAX_LINE_BYTES:
            del self._buffer[: index + 1]
            return b"\x00overlong"
        line = bytes(self._buffer[:index])
        del self._buffer[: index + 1]
        return line[:-1] if line.endswith(b"\r") else line

    def _parse_get(self, parts: List[str]) -> ProtocolEvent:
        keys = parts[1:]
        if not keys:
            return ProtocolEvent(response=ERROR)
        for key in keys:
            if not _valid_key(key):
                return ProtocolEvent(response=client_error("bad key"))
        return ProtocolEvent(command=Command(op="get", keys=keys))

    def _parse_set(self, parts: List[str]) -> ProtocolEvent:
        noreply = False
        if parts and parts[-1] == "noreply":
            noreply = True
            parts = parts[:-1]
        if len(parts) != 5:
            return ProtocolEvent(
                response=client_error("bad command line format")
            )
        _, key, flags, exptime, nbytes = parts
        if not _valid_key(key):
            return ProtocolEvent(response=client_error("bad key"))
        flags_value = _number(flags, signed=False)
        expires = _number(exptime)
        size = _number(nbytes)
        if (
            flags_value is None
            or flags_value > MAX_FLAGS
            or expires is None
            or size is None
        ):
            return ProtocolEvent(
                response=client_error("bad command line format")
            )
        if size < 0 or size > MAX_VALUE_BYTES:
            too_large = server_error("object too large for cache")
            if size < 0 or size > MAX_SWALLOW_BYTES:
                return ProtocolEvent(response=too_large)
            # memcached's conn_swallow: the block is dropped unread.
            self._swallowing = size + len(CRLF)
            return ProtocolEvent(response=b"" if noreply else too_large)
        self._pending = Command(
            op="set", keys=[key], flags=flags_value, noreply=noreply
        )
        self._pending_size = size
        if expires != 0:
            # No TTLs: storing the item forever would silently break the
            # sender's contract, so refuse it (silently under noreply).
            self._pending_refusal = (
                b"" if noreply else client_error("expiry is not supported")
            )
        return self.next_event()

    def _read_data_block(self) -> Optional[ProtocolEvent]:
        needed = self._pending_size + len(CRLF)
        if len(self._buffer) < needed:
            return None
        command = self._pending
        self._pending = None
        refusal, self._pending_refusal = self._pending_refusal, None
        data = bytes(self._buffer[: self._pending_size])
        trailer = bytes(self._buffer[self._pending_size : needed])
        del self._buffer[:needed]
        if trailer != CRLF:
            # Resynchronize at the next line -- wherever the reads cut
            # the stream, so the skip outlives this call.
            self._resyncing = True
            return ProtocolEvent(response=client_error("bad data chunk"))
        if refusal is not None:
            return ProtocolEvent(response=refusal)
        command.data = data
        return ProtocolEvent(command=command)

    def _parse_delete(self, parts: List[str]) -> ProtocolEvent:
        noreply = False
        if parts and parts[-1] == "noreply":
            noreply = True
            parts = parts[:-1]
        if len(parts) != 2:
            return ProtocolEvent(
                response=client_error("bad command line format")
            )
        key = parts[1]
        if not _valid_key(key):
            return ProtocolEvent(response=client_error("bad key"))
        return ProtocolEvent(
            command=Command(op="delete", keys=[key], noreply=noreply)
        )
