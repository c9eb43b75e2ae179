"""Fixture: asyncio hygiene violations in one coroutine-heavy module."""

import asyncio
import socket
import time


class Worker:
    async def flush(self) -> None:
        await asyncio.sleep(0)

    async def run(self) -> None:
        time.sleep(0.1)
        connection = socket.create_connection(("localhost", 11211))
        config = open("settings.json")
        await self.flush()
        connection.close()
        config.close()


async def main() -> None:
    loop = asyncio.get_event_loop()
    worker = Worker()
    await worker.run()
    loop.stop()


def schedule() -> None:
    asyncio.run(main())
