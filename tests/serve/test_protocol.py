"""Wire-protocol parser: framing, validation, resynchronization, fuzz.

The parser is the server's first line of defense: every malformed input
must come back as an ``ERROR``/``CLIENT_ERROR`` event (the connection
survives) and never as an exception -- the fuzz properties feed it
arbitrary bytes and arbitrary re-chunkings to pin that down.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.protocol import (
    BUSY,
    CRLF,
    END,
    ERROR,
    MAX_KEY_BYTES,
    MAX_LINE_BYTES,
    MAX_VALUE_BYTES,
    Command,
    ProtocolParser,
    client_error,
    encode_command,
    encode_stats,
    encode_value,
    server_error,
)


def drain(parser):
    events = []
    while True:
        event = parser.next_event()
        if event is None:
            return events
        events.append(event)


def parse_all(data: bytes):
    parser = ProtocolParser()
    parser.feed(data)
    return drain(parser)


class TestWellFormed:
    def test_get_single_and_multi(self):
        (single,) = parse_all(b"get foo\r\n")
        assert single.command.op == "get"
        assert single.command.keys == ["foo"]
        (multi,) = parse_all(b"get a b c\r\n")
        assert multi.command.keys == ["a", "b", "c"]

    def test_set_with_data_block(self):
        (event,) = parse_all(b"set k 7 0 5\r\nhello\r\n")
        command = event.command
        assert command.op == "set"
        assert command.keys == ["k"]
        assert command.flags == 7
        assert command.data == b"hello"
        assert not command.noreply

    def test_set_noreply(self):
        (event,) = parse_all(b"set k 0 0 2 noreply\r\nhi\r\n")
        assert event.command.noreply

    def test_set_data_may_contain_command_text(self):
        payload = b"END\r\nget x\r\nquit"
        data = b"set k 0 0 %d\r\n%s\r\n" % (len(payload), payload)
        (event,) = parse_all(data)
        assert event.command.data == payload

    def test_delete_and_controls(self):
        events = parse_all(b"delete k\r\nstats\r\nquit\r\n")
        assert [e.command.op for e in events] == ["delete", "stats", "quit"]

    def test_lf_only_lines_accepted(self):
        (event,) = parse_all(b"get foo\n")
        assert event.command.keys == ["foo"]

    def test_pipelined_commands(self):
        events = parse_all(
            b"set a 0 0 1\r\nx\r\nget a b\r\ndelete a noreply\r\n"
        )
        assert [e.command.op for e in events] == ["set", "get", "delete"]
        assert events[2].command.noreply


class TestMalformed:
    @pytest.mark.parametrize(
        "line",
        [
            b"frobnicate\r\n",
            b"\r\n",
            b"get\r\n",
            b"SETT k 0 0 1\r\n",
        ],
    )
    def test_unknown_or_empty_is_error(self, line):
        (event,) = parse_all(line)
        assert event.response == ERROR

    @pytest.mark.parametrize(
        "line",
        [
            b"set k 0 0\r\n",
            b"set k x 0 5\r\n",
            b"set k 0 0 five\r\n",
            b"delete\r\n",
            b"delete a b\r\n",
        ],
    )
    def test_bad_shapes_are_client_errors(self, line):
        (event,) = parse_all(line)
        assert event.response.startswith(b"CLIENT_ERROR")

    def test_oversized_key_rejected(self):
        long_key = b"k" * (MAX_KEY_BYTES + 1)
        (event,) = parse_all(b"get " + long_key + b"\r\n")
        assert event.response == client_error("bad key")
        (event,) = parse_all(b"set " + long_key + b" 0 0 1\r\n")
        assert event.response == client_error("bad key")

    def test_key_with_control_bytes_rejected(self):
        (event,) = parse_all("get k\x01y\r\n".encode("latin-1"))
        assert event.response is not None

    def test_oversized_value_rejected_without_buffering(self):
        size = MAX_VALUE_BYTES + 1
        (event,) = parse_all(f"set k 0 0 {size}\r\n".encode())
        assert event.response == server_error("object too large for cache")

    def test_negative_size_rejected(self):
        (event,) = parse_all(b"set k 0 0 -5\r\n")
        assert event.response == server_error("object too large for cache")

    def test_bad_data_trailer_resynchronizes(self):
        parser = ProtocolParser()
        parser.feed(b"set k 0 0 2\r\nhiXXtrailing\r\nget ok\r\n")
        events = drain(parser)
        assert events[0].response == client_error("bad data chunk")
        assert events[1].command.keys == ["ok"]

    @pytest.mark.parametrize("exptime", [b"60", b"-1", b"1700000000"])
    def test_nonzero_exptime_refused_and_pipeline_stays_framed(self, exptime):
        """No TTLs: the item is refused, not stored forever; its data
        block -- which looks like a command -- is consumed, so the
        pipelined ``get`` behind it still parses."""
        events = parse_all(
            b"set k 0 " + exptime + b" 8\r\nget evil\r\nget after\r\n"
        )
        assert [event.response for event in events] == [
            client_error("expiry is not supported"),
            None,
        ]
        assert events[1].command.keys == ["after"]

    def test_nonzero_exptime_noreply_is_refused_silently(self):
        events = parse_all(b"set k 0 60 2 noreply\r\nhi\r\nget after\r\n")
        assert events[0].command is None
        assert events[0].response == b""
        assert events[1].command.keys == ["after"]

    @pytest.mark.parametrize("cut", range(1, 22))
    def test_refused_set_parses_identically_at_any_split(self, cut):
        data = b"set k 0 5 3\r\nabc\r\nget z\r\n"
        parser = ProtocolParser()
        parser.feed(data[:cut])
        events = drain(parser)
        parser.feed(data[cut:])
        events += drain(parser)
        assert [event.response for event in events] == [
            client_error("expiry is not supported"),
            None,
        ]

    def test_refusal_does_not_leak_into_the_next_set(self):
        events = parse_all(
            b"set k 0 9 2\r\nhiXX\r\nset k 0 0 2\r\nok\r\n"
        )
        assert events[0].response == client_error("bad data chunk")
        assert events[1].command.data == b"ok"

    def test_overlong_line_dropped_then_recovers(self):
        parser = ProtocolParser()
        parser.feed(b"g" * (MAX_LINE_BYTES + 10))
        (event,) = drain(parser)
        assert event.response == ERROR
        parser.feed(b"get ok\r\n")
        (event,) = drain(parser)
        assert event.command.keys == ["ok"]

    def test_non_ascii_command_line(self):
        (event,) = parse_all("get café\r\n".encode("utf-8"))
        assert event.response is not None


class TestIncrementalFeeding:
    def test_byte_at_a_time(self):
        parser = ProtocolParser()
        events = []
        for byte in b"set k 1 0 3\r\nabc\r\nget k\r\n":
            parser.feed(bytes([byte]))
            events.extend(drain(parser))
        assert [e.command.op for e in events] == ["set", "get"]
        assert events[0].command.data == b"abc"

    @settings(max_examples=50, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=40))
    def test_any_split_point_parses_identically(self, cut):
        stream = b"set key 3 0 4\r\nwxyz\r\nget key other\r\ndelete key\r\n"
        cut = min(cut, len(stream))
        parser = ProtocolParser()
        parser.feed(stream[:cut])
        events = drain(parser)
        parser.feed(stream[cut:])
        events += drain(parser)
        ops = [e.command.op for e in events]
        assert ops == ["set", "get", "delete"]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=400))
    def test_arbitrary_bytes_never_raise(self, data):
        parser = ProtocolParser()
        parser.feed(data)
        for _ in range(500):
            event = parser.next_event()
            if event is None:
                break
            assert (event.command is None) != (event.response is None)

    @settings(max_examples=100, deadline=None)
    @given(
        chunks=st.lists(st.binary(max_size=60), max_size=12),
        tail=st.sampled_from([b"get sentinel\r\n", b"stats\r\n"]),
    )
    def test_garbage_then_valid_command_still_parses(self, chunks, tail):
        """Whatever junk came before, a newline boundary plus a valid
        command must produce that command -- the connection survives."""
        parser = ProtocolParser()
        for chunk in chunks:
            # Newline-free junk, so the tail starts on a line boundary
            # (a stray "\n" would otherwise glue junk onto our command).
            parser.feed(chunk.replace(b"\n", b"x").replace(b"\r", b"y"))
        drain(parser)
        parser.feed(b"\r\n")  # terminate any dangling partial line
        drain(parser)
        parser.feed(tail)
        events = [e for e in drain(parser) if e.command is not None]
        assert any(
            e.command.op in ("get", "stats") for e in events
        ), "valid command after garbage must parse"


class TestEncoders:
    def test_encode_value_round_trip_shape(self):
        block = encode_value("k", 9, b"abc")
        assert block == b"VALUE k 9 3\r\nabc\r\n"

    def test_encode_stats_ends_with_end(self):
        block = encode_stats([("a", 1), ("b", "x")])
        assert block == b"STAT a 1\r\nSTAT b x\r\n" + END

    def test_busy_is_a_server_error(self):
        assert BUSY == server_error("busy")

    @pytest.mark.parametrize(
        "command",
        [
            Command(op="get", keys=["a", "b"]),
            Command(op="set", keys=["k"], flags=3, data=b"v" + CRLF + b"w"),
            Command(op="set", keys=["k"], data=b"", noreply=True),
            Command(op="delete", keys=["k"], noreply=True),
            Command(op="stats"),
            Command(op="quit"),
        ],
    )
    def test_encode_command_round_trips_through_parser(self, command):
        (event,) = parse_all(encode_command(command))
        parsed = event.command
        assert parsed.op == command.op
        assert parsed.keys == command.keys
        assert parsed.data == command.data
        assert parsed.noreply == command.noreply

    def test_encode_unknown_op_raises(self):
        with pytest.raises(ValueError):
            encode_command(Command(op="flush"))


class TestParsedObjects:
    """``Command`` and ``ProtocolEvent`` are plain slotted classes (the
    parser builds one of each per command); they still construct,
    compare and print like the dataclasses they replaced."""

    def test_keyword_and_positional_construction_and_defaults(self):
        from repro.serve.protocol import ProtocolEvent

        bare = Command(op="get")
        assert (bare.op, bare.keys, bare.flags, bare.data, bare.noreply) == (
            "get", [], 0, b"", False
        )
        assert Command(op="get").keys is not bare.keys  # a fresh list each
        full = Command("set", ["k"], 5, b"v", True)
        assert full == Command(
            op="set", keys=["k"], flags=5, data=b"v", noreply=True
        )
        event = ProtocolEvent(command=full)
        assert event.command is full and event.response is None
        assert ProtocolEvent(response=ERROR).command is None
        assert ProtocolEvent() == ProtocolEvent(None, None)

    def test_equality_is_by_value_and_by_class(self):
        from repro.serve.protocol import ProtocolEvent

        assert Command(op="get", keys=["a"]) == Command(op="get", keys=["a"])
        assert Command(op="get", keys=["a"]) != Command(op="get", keys=["b"])
        assert Command(op="get", keys=["a"]) != Command(op="gets", keys=["a"])
        assert Command(op="set", keys=["a"]) != Command(
            op="set", keys=["a"], noreply=True
        )
        assert Command(op="get") != ("get", [], 0, b"", False)
        assert ProtocolEvent(command=Command(op="quit")) == ProtocolEvent(
            command=Command(op="quit")
        )
        assert ProtocolEvent(response=ERROR) != ProtocolEvent(response=END)
        assert ProtocolEvent(response=ERROR) != Command(op="get")
        with pytest.raises(TypeError):
            hash(Command(op="get"))  # mutable: unhashable, as before
        with pytest.raises(TypeError):
            hash(ProtocolEvent())

    def test_repr_matches_the_dataclass_shape(self):
        from repro.serve.protocol import ProtocolEvent

        command = Command(op="set", keys=["k"], flags=3, data=b"v")
        assert repr(command) == (
            "Command(op='set', keys=['k'], flags=3, data=b'v', noreply=False)"
        )
        assert repr(ProtocolEvent(response=ERROR)) == (
            "ProtocolEvent(command=None, response=b'ERROR\\r\\n')"
        )
        assert repr(ProtocolEvent(command=command)) == (
            f"ProtocolEvent(command={command!r}, response=None)"
        )

    def test_no_attributes_beyond_the_fields(self):
        with pytest.raises(AttributeError):
            Command(op="get").ttl = 3


class TestValidKey:
    def test_agrees_with_33_to_126_for_every_code_point(self):
        """Alone and embedded, every code point below U+3000: valid iff
        it is in 33..126 (printable ASCII, no space, no DEL)."""
        from repro.serve.protocol import _valid_key

        for point in range(0x3000):
            expected = 33 <= point <= 126
            char = chr(point)
            assert _valid_key(char) is expected, point
            assert _valid_key("a" + char + "b") is expected, point

    def test_length_limits(self):
        from repro.serve.protocol import _valid_key

        assert not _valid_key("")
        assert _valid_key("k" * MAX_KEY_BYTES)
        assert not _valid_key("k" * (MAX_KEY_BYTES + 1))


class TestResynchronizationIsCutInvariant:
    """Regression: after a bad data trailer the parser dropped input
    "through the next newline" only if that newline was already
    buffered; with the read cut just before it, the rest of the garbage
    line was parsed as a command of its own."""

    STREAM = b"set k 0 0 2\r\nxyz garbage\r\nget ok\r\n"

    def expected(self):
        return [
            ("response", client_error("bad data chunk")),
            ("get", ["ok"]),
        ]

    @staticmethod
    def shapes(events):
        return [
            ("response", e.response) if e.command is None
            else (e.command.op, e.command.keys)
            for e in events
        ]

    @pytest.mark.parametrize("cut", range(1, len(STREAM)))
    def test_any_split_point(self, cut):
        parser = ProtocolParser()
        parser.feed(self.STREAM[:cut])
        events = drain(parser)
        parser.feed(self.STREAM[cut:])
        events += drain(parser)
        assert self.shapes(events) == self.expected()

    def test_byte_at_a_time_and_an_endless_garbage_line_stays_bounded(self):
        parser = ProtocolParser()
        events = []
        for index in range(len(self.STREAM)):
            parser.feed(self.STREAM[index : index + 1])
            events += drain(parser)
        assert self.shapes(events) == self.expected()
        parser.feed(b"set k 0 0 1\r\nxyz")
        assert self.shapes(drain(parser)) == [self.expected()[0]]
        for _ in range(64):
            parser.feed(b"z" * 65536)
            assert drain(parser) == []
        assert len(parser._buffer) == 0  # skipped, not stored
        parser.feed(b"\r\nget ok\r\n")
        assert self.shapes(drain(parser)) == [self.expected()[1]]
