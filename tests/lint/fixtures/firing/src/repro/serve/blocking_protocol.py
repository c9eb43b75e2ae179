"""Fixture: blocking calls in the callbacks of an asyncio protocol."""

import subprocess
import time
from asyncio import BufferedProtocol as Buffered
from asyncio import Protocol


class Connection(Protocol):
    def data_received(self, data: bytes) -> None:
        time.sleep(0.01)
        self._note(data)

    def _note(self, data: bytes) -> None:
        with open("requests.log", "ab") as log:
            log.write(data)


class Sink(Buffered):
    def connection_lost(self, exc) -> None:
        subprocess.run(["logger", "connection lost"])


class Plain:
    """Not a protocol: its methods are nobody's event-loop callbacks."""

    def warm_up(self) -> None:
        time.sleep(0.01)
