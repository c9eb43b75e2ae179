"""The wire protocol: a minimal memcached-style text dialect, sans-IO.

Commands (a subset of the memcached text protocol, CRLF-terminated)::

    get <key> [<key> ...]
    set <key> <flags> <exptime> <bytes> [noreply]\r\n<data block>
    delete <key> [noreply]
    stats
    quit

``<flags>`` is ASCII digits below 2**32, ``<exptime>`` and ``<bytes>``
are ``-?[0-9]+``, each of any length; any other spelling is
``CLIENT_ERROR bad command line format``, as in memcached. There are no
TTLs: ``<exptime>`` must be ``0``. A ``set`` with any other value has
its data block consumed and is answered ``CLIENT_ERROR expiry is not
supported`` (nothing under ``noreply``) instead of being stored
forever.

A ``set`` whose ``<bytes>`` is past :data:`MAX_VALUE_BYTES` is answered
``SERVER_ERROR object too large for cache`` (nothing under ``noreply``)
and, as memcached's ``conn_swallow`` does, the ``<bytes>`` + 2 bytes of
its data block are dropped as they arrive -- never parsed as commands --
as long as ``<bytes>`` fits memcached's own bound
(:data:`MAX_SWALLOW_BYTES`). A larger or negative ``<bytes>`` gets the
same answer and swallows nothing.

Responses follow memcached: ``VALUE <key> <flags> <bytes>`` + data +
``END`` for gets, ``STORED`` / ``DELETED`` / ``NOT_FOUND``,
``STAT <name> <value>`` + ``END`` for stats, and the three error
shapes -- ``ERROR`` (unknown command), ``CLIENT_ERROR <msg>`` (a
malformed request; the connection survives), ``SERVER_ERROR <msg>``
(the server cannot serve it, e.g. ``object too large for cache``).

The parser is sans-IO -- feed it bytes, pull typed events -- so the
asyncio server, the in-memory transport and the fuzz tests all drive
the exact same code. It runs once per command on the server's one
thread, so :meth:`ProtocolParser.next_event` is one frame per command:
line framing, the key and number checks and a buffered ``set`` data
block are all handled inline. A command line is capped at
:data:`MAX_LINE_BYTES`; a longer one is one ``ERROR`` and is dropped
through its newline, wherever the reads cut it.
``tests/serve/reference_protocol.py`` keeps the field-by-field parser
this one replaced as its oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Memcached's key limit: at most 250 bytes, no whitespace or control
#: characters.
MAX_KEY_BYTES = 250
#: Largest value accepted on the wire (memcached's classic 1 MB limit).
MAX_VALUE_BYTES = 1 << 20
#: Largest ``set`` flags value: memcached stores flags as 32 bits.
MAX_FLAGS = (1 << 32) - 1
#: Cap on one command line (a pipelined multi-get of ~250B keys).
MAX_LINE_BYTES = 8192
#: Largest ``<bytes>`` memcached reads (``INT_MAX - 2``): an oversized
#: ``set`` up to it has its data block swallowed.
MAX_SWALLOW_BYTES = (1 << 31) - 3
#: Significant digits of the largest ``<flags>`` and ``<bytes>``.
_FLAGS_DIGITS = len(str(MAX_FLAGS))
_SIZE_DIGITS = len(str(MAX_SWALLOW_BYTES))

CRLF = b"\r\n"

ERROR = b"ERROR\r\n"
STORED = b"STORED\r\n"
DELETED = b"DELETED\r\n"
NOT_FOUND = b"NOT_FOUND\r\n"
END = b"END\r\n"


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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

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


class ProtocolParser:
    """Incremental parser over a byte stream.

    ``feed`` appends bytes; ``next_event`` returns the next
    :class:`ProtocolEvent`, or None when more bytes are needed.
    Malformed input produces error-response events and resynchronizes
    at the next line, so one bad command never poisons the connection.

    One call, one frame: ``next_event`` frames the line, checks its keys
    and numbers inline, and finishes a ``set`` whose data block is
    already buffered without calling itself again.

    * A key is 1-250 characters in 33..126; a line that decodes as
      ASCII and is printable throughout has no bad character in any of
      its keys, so only a line that is not (or is longer than a key may
      be) checks its keys one by one.
    * ``<flags>`` is ASCII digits, ``<exptime>`` and ``<bytes>`` may
      have one leading ``-``: ``int()`` alone would also take ``+5``,
      ``1_0`` and padding, which memcached refuses. A field is read
      from its significant digits, and only once their count fits the
      field's range (``int()`` refuses more than 4,300 digits), so a
      5,000-digit field is answered for its value like a short one.
    * A line is the bytes before its newline, a carriage return
      included; one longer than :data:`MAX_LINE_BYTES` is one ``ERROR``,
      and input is dropped through its newline wherever the reads cut it
      -- as after a bad data trailer -- so no part of it runs as a
      command.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: A ``set`` waiting for its data block: ``(key, flags, noreply,
        #: size, refusal)``, where ``refusal`` is the answer for a
        #: ``set`` refused at its header, sent once its data block has
        #: been consumed so the pipeline stays framed.
        self._pending: Optional[
            Tuple[str, int, bool, int, Optional[bytes]]
        ] = None
        #: After a bad data trailer or an overlong line: drop input
        #: through the next newline, whenever it arrives.
        self._resyncing = False
        #: Bytes of an oversized ``set``'s data block still to drop.
        self._swallow = 0

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def next_event(self) -> Optional[ProtocolEvent]:
        buffer = self._buffer
        if self._swallow:
            dropped = min(self._swallow, len(buffer))
            del buffer[:dropped]
            self._swallow -= dropped
            if self._swallow:
                return None
        pending = self._pending
        if pending is None:
            if self._resyncing:
                index = buffer.find(b"\n")
                if index < 0:
                    buffer.clear()  # still inside the line to drop
                    return None
                del buffer[: index + 1]
                self._resyncing = False
            index = buffer.find(b"\n")
            if index < 0:
                if len(buffer) > MAX_LINE_BYTES:
                    buffer.clear()
                    self._resyncing = True
                    return ProtocolEvent(response=ERROR)
                return None
            if index > MAX_LINE_BYTES:
                del buffer[: index + 1]
                return ProtocolEvent(response=ERROR)
            line = buffer[: index - 1 if index and buffer[index - 1] == 13 else index]
            del buffer[: index + 1]
            try:
                text = line.decode("ascii")
            except UnicodeDecodeError:
                return ProtocolEvent(response=client_error("malformed request"))
            parts = text.split()
            if not parts:
                # Bare CRLF between commands: memcached answers ERROR.
                return ProtocolEvent(response=ERROR)
            op = parts[0].lower()
            if op == "get" or op == "gets":
                keys = parts[1:]
                if not keys:
                    return ProtocolEvent(response=ERROR)
                noreply = False
            elif op == "set" or op == "delete":
                noreply = parts[-1] == "noreply"
                if noreply:
                    del parts[-1]
                if len(parts) != (5 if op == "set" else 2):
                    return ProtocolEvent(
                        response=client_error("bad command line format")
                    )
                keys = parts[1:2]
            elif op == "stats" or op == "quit":
                return ProtocolEvent(command=Command(op))
            else:
                return ProtocolEvent(response=ERROR)
            if len(text) > MAX_KEY_BYTES or not text.isprintable():
                for key in keys:
                    if len(key) > MAX_KEY_BYTES or not key.isprintable():
                        return ProtocolEvent(response=client_error("bad key"))
            if op == "delete":
                return ProtocolEvent(Command(op, keys, 0, b"", noreply))
            if op != "set":
                return ProtocolEvent(Command("get", keys))
            _, key, flags, exptime, nbytes = parts
            expiry = exptime[1:] if exptime[:1] == "-" else exptime
            digits = nbytes[1:] if nbytes[:1] == "-" else nbytes
            # Significant digits, counted before ``int()`` reads them.
            flags = flags.lstrip("0") or "0"
            flags_value = (
                int(flags)
                if flags.isdigit() and len(flags) <= _FLAGS_DIGITS
                else -1
            )
            if not (
                0 <= flags_value <= MAX_FLAGS
                and expiry.isdigit()
                and digits.isdigit()
            ):
                return ProtocolEvent(
                    response=client_error("bad command line format")
                )
            digits = digits.lstrip("0") or "0"
            size = (
                int(digits)
                if len(digits) <= _SIZE_DIGITS
                else MAX_SWALLOW_BYTES + 1
            )
            if size > MAX_VALUE_BYTES or (size and nbytes[0] == "-"):
                too_large = server_error("object too large for cache")
                if nbytes[0] == "-" or size > MAX_SWALLOW_BYTES:
                    return ProtocolEvent(response=too_large)
                self._swallow = size + 2
                return ProtocolEvent(response=b"" if noreply else too_large)
            refusal: Optional[bytes] = None
            if expiry.lstrip("0"):
                # No TTLs: storing the item forever would silently break
                # the sender's contract, so refuse it (silently under
                # noreply).
                refusal = (
                    b"" if noreply else client_error("expiry is not supported")
                )
            pending = (key, flags_value, noreply, size, refusal)
        key, flags_value, noreply, size, refusal = pending
        needed = size + 2
        if len(buffer) < needed:
            self._pending = pending
            return None
        self._pending = None
        if not buffer.startswith(CRLF, size):
            # Resynchronize at the next line -- wherever the reads cut
            # the stream, so the skip outlives this call.
            del buffer[:needed]
            self._resyncing = True
            return ProtocolEvent(response=client_error("bad data chunk"))
        data = bytes(buffer[:size])
        del buffer[:needed]
        if refusal is not None:
            return ProtocolEvent(response=refusal)
        return ProtocolEvent(Command("set", [key], flags_value, data, noreply))
