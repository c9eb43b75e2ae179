"""The wire protocol: a minimal memcached-style text dialect, sans-IO.

Commands (a subset of the memcached text protocol, CRLF-terminated)::

    get <key> [<key> ...]
    set <key> <flags> <exptime> <bytes> [noreply]\r\n<data block>
    delete <key> [noreply]
    stats
    quit

There are no TTLs: ``<exptime>`` must be ``0``. A ``set`` with any other
value has its data block consumed and is answered ``CLIENT_ERROR expiry
is not supported`` (nothing under ``noreply``) instead of being stored
forever.

Responses follow memcached: ``VALUE <key> <flags> <bytes>`` + data +
``END`` for gets, ``STORED`` / ``DELETED`` / ``NOT_FOUND``,
``STAT <name> <value>`` + ``END`` for stats, and the three error
shapes -- ``ERROR`` (unknown command), ``CLIENT_ERROR <msg>`` (a
malformed request; the connection survives), ``SERVER_ERROR <msg>``
(the server cannot serve it, e.g. ``SERVER_ERROR busy`` when an
overloaded server sheds, or ``object too large for cache``).

The parser is sans-IO -- feed it bytes, pull typed events -- so the
asyncio server, the in-memory transport and the fuzz tests all drive
the exact same code.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Memcached's key limit: at most 250 bytes, no whitespace or control
#: characters.
MAX_KEY_BYTES = 250
#: Largest value accepted on the wire (memcached's classic 1 MB limit).
MAX_VALUE_BYTES = 1 << 20
#: Cap on one command line (a pipelined multi-get of ~250B keys).
MAX_LINE_BYTES = 8192

CRLF = b"\r\n"

ERROR = b"ERROR\r\n"
STORED = b"STORED\r\n"
DELETED = b"DELETED\r\n"
NOT_FOUND = b"NOT_FOUND\r\n"
END = b"END\r\n"
BUSY = b"SERVER_ERROR busy\r\n"


def client_error(message: str) -> bytes:
    return f"CLIENT_ERROR {message}\r\n".encode("ascii")


def server_error(message: str) -> bytes:
    return f"SERVER_ERROR {message}\r\n".encode("ascii")


def encode_value(key: str, flags: int, data: bytes) -> bytes:
    """One ``VALUE`` block of a get response (caller appends ``END``)."""
    return (
        f"VALUE {key} {flags} {len(data)}\r\n".encode("ascii") + data + CRLF
    )


def encode_stats(pairs: List[Tuple[str, object]]) -> bytes:
    lines = [f"STAT {name} {value}\r\n" for name, value in pairs]
    return "".join(lines).encode("ascii") + END


def encode_command(command: "Command") -> bytes:
    """The client side: a :class:`Command` back to wire bytes."""
    suffix = " noreply" if command.noreply else ""
    if command.op == "get":
        return f"get {' '.join(command.keys)}\r\n".encode("ascii")
    if command.op == "set":
        header = (
            f"set {command.keys[0]} {command.flags} 0 "
            f"{len(command.data)}{suffix}\r\n"
        ).encode("ascii")
        return header + command.data + CRLF
    if command.op == "delete":
        return f"delete {command.keys[0]}{suffix}\r\n".encode("ascii")
    if command.op in ("stats", "quit"):
        return f"{command.op}\r\n".encode("ascii")
    raise ValueError(f"cannot encode op {command.op!r}")


class Command:
    """One parsed request.

    ``op`` is ``get``/``set``/``delete``/``stats``/``quit``; ``keys``
    holds one key for set/delete and one-or-more for get; ``data`` is
    the set payload.
    """

    # A plain slotted class: the parser builds one per command, and a
    # dataclass with a ``default_factory`` costs three times as much.
    __slots__ = ("op", "keys", "flags", "data", "noreply")
    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def __init__(
        self,
        op: str,
        keys: Optional[List[str]] = None,
        flags: int = 0,
        data: bytes = b"",
        noreply: bool = False,
    ) -> None:
        self.op = op
        self.keys: List[str] = [] if keys is None else keys
        self.flags = flags
        self.data = data
        self.noreply = noreply

    def _fields(self) -> Tuple[object, ...]:
        return (self.op, self.keys, self.flags, self.data, self.noreply)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (
            f"Command(op={self.op!r}, keys={self.keys!r}, "
            f"flags={self.flags!r}, data={self.data!r}, "
            f"noreply={self.noreply!r})"
        )


class ProtocolEvent:
    """What :meth:`ProtocolParser.next_event` hands the server.

    Exactly one of ``command`` / ``response`` is set: a well-formed
    command, or the error bytes to write for a malformed one (the
    parser already resynchronized; keep reading).
    """

    __slots__ = ("command", "response")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        command: Optional[Command] = None,
        response: Optional[bytes] = None,
    ) -> None:
        self.command = command
        self.response = response

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.command, self.response) == (
            other.command,  # type: ignore[attr-defined]
            other.response,  # type: ignore[attr-defined]
        )

    def __repr__(self) -> str:
        return (
            f"ProtocolEvent(command={self.command!r}, "
            f"response={self.response!r})"
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


class ProtocolParser:
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
        #: After a bad data trailer: drop input through the next
        #: newline, whenever it arrives.
        self._resyncing = False

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_event(self) -> Optional[ProtocolEvent]:
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
                # Unterminated garbage: drop it rather than buffer
                # without bound; the next line starts clean.
                self._buffer.clear()
                return b"\x00overlong"  # unparseable -> ERROR below
            return None
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
        try:
            flags_value = int(flags)
            expires = int(exptime)
            size = int(nbytes)
        except ValueError:
            return ProtocolEvent(
                response=client_error("bad command line format")
            )
        if size < 0 or size > MAX_VALUE_BYTES:
            return ProtocolEvent(
                response=server_error("object too large for cache")
            )
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
