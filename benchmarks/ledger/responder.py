"""The load generator's self-test peer: answers every line ``END``.

Run as a subprocess so that, like the real server, it has a process of
its own; what a closed loop against it then measures is how fast the
generator alone can write requests and frame replies. Prints
``listening <port>`` once bound and serves until terminated.
"""

from __future__ import annotations

import asyncio
import signal
import sys


class _Responder(asyncio.Protocol):
    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self.transport.write(b"END\r\n" * data.count(b"\n"))


async def _serve() -> None:
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)
    server = await loop.create_server(_Responder, "127.0.0.1", 0)
    print(f"listening {server.sockets[0].getsockname()[1]}", flush=True)
    await stopping.wait()
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(_serve())
    sys.exit(0)
