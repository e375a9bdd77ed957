"""A pipelined HTTP/1.1 client for the open-loop generator.

``repro.gateway.http.HTTPClient`` awaits each response before the next
request can be written, which would turn a slow response into generator
lateness.  The gateway serves a connection's requests in order, so this
client writes each request the instant it is due and matches responses
to requests first-in first-out on a reader task.

If the connection drops, every request still waiting (and every later
one) is answered with status :data:`LOST`, so a gateway that dies fails
the run instead of hanging it.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque

#: The status a request gets when the connection dropped under it.
LOST = 0


class PipelinedHTTP:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._waiting: deque = deque()
        self._task: asyncio.Task | None = None
        self._lost = False

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._task = asyncio.ensure_future(self._read_loop())

    def request(self, method: str, path: str, payload=None, headers=None, on_response=None) -> None:
        """Write one request now; ``on_response(status, body, at)`` fires
        when its response arrives."""
        body = b"" if payload is None else json.dumps(payload, separators=(",", ":")).encode()
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Connection: keep-alive",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if self._lost:
            if on_response is not None:
                on_response(LOST, b"", time.monotonic())
            return
        self._waiting.append(on_response)
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)

    async def fetch(self, method: str, path: str) -> tuple[int, bytes]:
        """One awaited request riding the same pipeline; raises
        ``ConnectionError`` if the connection is gone."""
        future = asyncio.get_running_loop().create_future()

        def on_response(status, body, at):
            if status == LOST:
                future.set_exception(ConnectionError(f"connection to {self.host}:{self.port} lost"))
            else:
                future.set_result((status, body))

        self.request(method, path, on_response=on_response)
        return await future

    async def _read_loop(self) -> None:
        reader = self._reader
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                status = int(lines[0].split(" ", 2)[1])
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip() or 0)
                body = await reader.readexactly(length) if length else b""
                callback = self._waiting.popleft()
                if callback is not None:
                    callback(status, body, time.monotonic())
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._lost = True
            now = time.monotonic()
            while self._waiting:
                callback = self._waiting.popleft()
                if callback is not None:
                    callback(LOST, b"", now)

    def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
        if self._writer is not None:
            self._writer.close()
