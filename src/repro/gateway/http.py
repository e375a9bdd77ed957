"""Minimal HTTP/1.1 + WebSocket plumbing on asyncio streams.

The container deliberately carries no third-party web stack, so the
gateway's handler layer speaks just enough of both protocols itself:

* HTTP/1.1 with keep-alive, ``Content-Length`` bodies, and JSON
  responses — the five verbs/routes the gateway exposes need nothing
  more (no chunked encoding, no multipart);
* RFC 6455 WebSockets: the SHA-1/GUID accept handshake, client-masked
  frame decoding, server frame encoding, and the TEXT/PING/PONG/CLOSE
  opcodes the commit-subscription stream uses.

Both the server (:mod:`repro.gateway.app`) and the clients (the load
generator, the example script, the tests) build on this module, so the
two ends of the wire cannot drift apart.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

#: RFC 6455 §1.3 — the fixed GUID concatenated to Sec-WebSocket-Key.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Close code sent to a slow consumer (RFC 6455 "try again later").
CLOSE_TRY_AGAIN_LATER = 1013
#: Close code sent for a frame over :data:`MAX_BODY_BYTES` (RFC 6455
#: "message too big").
CLOSE_MESSAGE_TOO_BIG = 1009

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """The peer sent bytes this minimal implementation rejects."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes

    def json(self) -> object:
        try:
            return json.loads(self.body.decode("utf-8"))
        # Bad UTF-8, bad JSON and an int past the interpreter's digit
        # limit are all ValueErrors.
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    @property
    def wants_websocket(self) -> bool:
        return (
            self.headers.get("upgrade", "").lower() == "websocket"
            and "sec-websocket-key" in self.headers
        )


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("request head exceeds the stream limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(f"request head exceeds {MAX_HEADER_BYTES} bytes")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ProtocolError(f"malformed request line {lines[0]!r}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ProtocolError(f"malformed Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-body") from exc
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def render_response(
    status: int,
    payload: object,
    *,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one JSON response (the gateway speaks only JSON)."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def error_payload(code: str, message: str, **details) -> dict:
    """The gateway's structured-error envelope."""
    return {"error": {"code": code, "message": message, **details}}


# -- WebSocket framing --------------------------------------------------------


def websocket_accept_value(key: str) -> str:
    """RFC 6455 §4.2.2 step 5.4: Sec-WebSocket-Accept from the key."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("ascii")


def websocket_handshake_response(key: str) -> bytes:
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {websocket_accept_value(key)}\r\n\r\n"
    ).encode("latin-1")


def encode_ws_frame(opcode: int, payload: bytes, *, mask: bool = False) -> bytes:
    """One WebSocket frame, FIN set (the gateway never fragments)."""
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        head.append(mask_bit | length)
    elif length < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", length)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", length)
    if mask:
        key = os.urandom(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


async def read_ws_frame(reader: asyncio.StreamReader) -> tuple[int, bytes] | None:
    """One (opcode, payload) frame; ``None`` on a closed connection."""
    try:
        head = await reader.readexactly(2)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    try:
        if length == 126:
            length = struct.unpack(">H", await reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", await reader.readexactly(8))[0]
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"websocket frame of {length} bytes is too large")
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    if masked:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


def encode_close_frame(code: int, reason: str = "", *, mask: bool = False) -> bytes:
    payload = struct.pack(">H", code) + reason.encode("utf-8")
    return encode_ws_frame(OP_CLOSE, payload, mask=mask)


# -- client helpers -----------------------------------------------------------


@dataclass
class HTTPResponse:
    """One parsed HTTP response (client side)."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8")) if self.body else None


class HTTPClient:
    """A keep-alive HTTP/1.1 client for one gateway connection.

    The load generator multiplexes many *logical* clients over a few of
    these (file-descriptor budget), distinguishing them with the
    ``x-client-id`` header the gateway keys its buckets on.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def request(
        self,
        method: str,
        path: str,
        *,
        payload: object = None,
        headers: dict[str, str] | None = None,
    ) -> HTTPResponse:
        if self.reader is None or self.writer is None:
            await self.connect()
        assert self.reader is not None and self.writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Connection: keep-alive",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        status = int(status_line.split(" ", 2)[1])
        resp_headers: dict[str, str] = {}
        for line in header_lines:
            if line:
                name, _, value = line.partition(":")
                resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0") or "0")
        resp_body = await self.reader.readexactly(length) if length else b""
        return HTTPResponse(status=status, headers=resp_headers, body=resp_body)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


@dataclass
class WSClient:
    """A WebSocket client for the gateway's commit-subscription stream."""

    host: str
    port: int
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    close_code: int | None = None
    close_reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    async def connect(self, path: str = "/v1/ws") -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        lines = [
            f"GET {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Upgrade: websocket",
            "Connection: Upgrade",
            f"Sec-WebSocket-Key: {key}",
            "Sec-WebSocket-Version: 13",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status_line = head.decode("latin-1").split("\r\n", 1)[0]
        if " 101 " not in status_line:
            raise ProtocolError(f"websocket handshake rejected: {status_line!r}")
        # Header names are case-insensitive but the base64 accept value
        # is not — matching the raw value in the head covers both.
        if websocket_accept_value(key).encode("latin-1") not in head:
            raise ProtocolError("websocket handshake returned a bad accept value")

    async def next_json(self) -> object | None:
        """The next TEXT payload as JSON; ``None`` once the peer closed
        (``close_code``/``close_reason`` record why)."""
        assert self.reader is not None and self.writer is not None
        while True:
            frame = await read_ws_frame(self.reader)
            if frame is None:
                return None
            opcode, payload = frame
            if opcode == OP_TEXT:
                return json.loads(payload.decode("utf-8"))
            if opcode == OP_PING:
                self.writer.write(encode_ws_frame(OP_PONG, payload, mask=True))
                await self.writer.drain()
            elif opcode == OP_CLOSE:
                if len(payload) >= 2:
                    self.close_code = struct.unpack(">H", payload[:2])[0]
                    self.close_reason = payload[2:].decode("utf-8", "replace")
                self.writer.write(encode_close_frame(1000, mask=True))
                await self.writer.drain()
                return None

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None
