"""The live parser against the request-at-a-time oracle.

:class:`~repro.serve.protocol.ProtocolParser` parses a command line in
one frame; ``tests/serve/reference_protocol.py`` keeps the parser it
replaced, field by field (with the overlong-line fix). Hypothesis draws
command streams -- well-formed ``get`` / ``set`` / ``delete`` /
``stats``, ``noreply``, refused ``exptime``, bad data trailers, bad keys
and numbers, overlong lines, junk -- cuts each at random points, feeds
both parsers the same reads, and requires the same
:class:`~repro.serve.protocol.ProtocolEvent` list after every read.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.serve.protocol import (
    MAX_FLAGS,
    MAX_KEY_BYTES,
    MAX_LINE_BYTES,
    MAX_VALUE_BYTES,
    ProtocolParser,
)
from tests.serve.reference_protocol import ReferenceParser

#: Keys: mostly valid, some with a byte no key may hold, some too long.
keys = st.one_of(
    st.text("abkz:09_-", min_size=1, max_size=6),
    st.sampled_from(
        ["a\x01b", "\x7f", "k\x1cz", "café", "k" * MAX_KEY_BYTES,
         "k" * (MAX_KEY_BYTES + 1)]
    ),
)

#: Numeric fields: memcached's spellings and the ones it refuses.
numbers = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(
        ["0", "00", "-0", "-1", "+5", "1_0", "-", "--5", " 7", "x", "",
         str(MAX_FLAGS), str(MAX_FLAGS + 1), str(MAX_VALUE_BYTES + 1),
         "٥"]
    ),
)

spaces = st.sampled_from([" ", "  ", "\t", " \x0b"])
ends = st.sampled_from([b"\r\n", b"\n", b"\r\r\n"])


@st.composite
def get_line(draw):
    op = draw(st.sampled_from(["get", "gets", "GET", "Get"]))
    names = draw(st.lists(keys, min_size=0, max_size=4))
    gap = draw(spaces)
    return (op + "".join(gap + name for name in names)).encode(
        "utf-8"
    ) + draw(ends)


@st.composite
def set_command(draw):
    key = draw(keys)
    data = draw(st.binary(max_size=12))
    flags = draw(st.one_of(st.integers(0, 9).map(str), numbers))
    exptime = draw(st.one_of(st.just("0"), numbers))
    size = draw(
        st.one_of(st.just(str(len(data))), st.just(str(len(data) + 1)), numbers)
    )
    noreply = draw(st.sampled_from(["", " noreply", " noreply extra"]))
    header = f"set {key} {flags} {exptime} {size}{noreply}".encode("utf-8")
    trailer = draw(
        st.sampled_from([b"\r\n", b"\r\n", b"xy", b"\n\r", b"\rx", b""])
    )
    return header + draw(ends) + data + trailer


@st.composite
def delete_line(draw):
    tail = draw(st.sampled_from(["", " noreply", " x", " noreply noreply"]))
    names = draw(st.lists(keys, min_size=0, max_size=2))
    return ("delete" + "".join(" " + n for n in names) + tail).encode(
        "utf-8"
    ) + draw(ends)


overlong = st.builds(
    lambda fill, tail, end: b"get " + fill * ((MAX_LINE_BYTES + tail) // 2)
    + b"delete victim" + end,
    st.sampled_from([b"a ", b"gg"]),
    st.integers(-20, 20),
    ends,
)

commands = st.one_of(
    get_line(),
    set_command(),
    delete_line(),
    st.sampled_from(
        [b"stats\r\n", b"quit\r\n", b"STATS\n", b"\r\n", b"\n", b"  \r\n",
         b"frob x\r\n", b"\xff\xfe\r\n", b"get \x80\r\n"]
    ),
    overlong,
    st.binary(max_size=20),
)


@st.composite
def cut_stream(draw):
    """The reads one stream of commands arrives in: each command is cut
    or not -- anywhere, or just either side of the line cap, where an
    overlong line turns from waiting into refused."""
    reads = []
    current = b""
    for piece in draw(st.lists(commands, min_size=1, max_size=12)):
        cut = draw(
            st.one_of(
                st.none(),
                st.integers(0, len(piece)),
                st.sampled_from(
                    [MAX_LINE_BYTES - 1, MAX_LINE_BYTES + 1, MAX_LINE_BYTES + 2]
                ),
            )
        )
        if cut is None or cut > len(piece):
            current += piece
        else:
            reads.append(current + piece[:cut])
            current = piece[cut:]
    return [*reads, current]


def events_per_read(parser, reads):
    out = []
    for read in reads:
        parser.feed(read)
        events = []
        while (event := parser.next_event()) is not None:
            events.append(event)
        out.append(events)
    return out


@settings(max_examples=200, deadline=None)
@given(reads=cut_stream())
def test_same_events_as_the_oracle_however_the_reads_cut(reads):
    assert events_per_read(ProtocolParser(), reads) == events_per_read(
        ReferenceParser(), reads
    )


@settings(max_examples=50, deadline=None)
@given(reads=cut_stream())
def test_byte_at_a_time_same_events_as_the_oracle(reads):
    data = b"".join(reads)[:2000]
    single = [data[i : i + 1] for i in range(len(data))]
    assert events_per_read(ProtocolParser(), single) == events_per_read(
        ReferenceParser(), single
    )
