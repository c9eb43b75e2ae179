"""Fixture: an asyncio protocol whose callbacks never block."""

import asyncio
import time


class Connection(asyncio.Protocol):
    def __init__(self) -> None:
        self.transport = None
        self.received = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self.received += data
        asyncio.get_running_loop().call_soon(self._answer)

    def _answer(self) -> None:
        self.transport.write(bytes(self.received))
        self.received.clear()


def settle() -> None:
    """A plain function outside any protocol may block."""
    time.sleep(0.01)
