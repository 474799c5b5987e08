"""Minimal HTTP/1.1 plumbing for the characterization service.

The service deliberately runs on the standard library alone: an
:mod:`asyncio` stream server, this hand-rolled request parser, and
plain JSON responses.  The subset of HTTP implemented here is exactly
what the versioned API needs — request line + headers + Content-Length
framed bodies in, `Content-Length` framed JSON (or an unbounded
``text/event-stream``) out, keep-alive connections — and nothing else:
no chunked uploads, no multipart, no TLS.  Anything outside the subset
gets a structured JSON error with the right status code.

Two size guards protect the event loop before any handler runs: header
lines are bounded by the stream reader's line limit, and bodies are
bounded by ``max_body`` *before* the body is read, so an oversized
upload costs one header parse, not a buffering of the payload.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Reason phrases for the status codes the API actually emits.
STATUS_TEXT = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A structured API error: status code + JSON-serializable detail."""

    def __init__(self, status: int, message: str, **extra: object) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra: Dict[str, object] = dict(extra)

    def as_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"error": self.message, "status": self.status}
        doc.update(self.extra)
        return doc


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    peer: str = "?"

    @property
    def client(self) -> str:
        """Rate-limiting identity: the ``X-Client`` header when a
        client self-identifies (one shared proxy IP can carry many
        tenants), the peer address otherwise."""
        return self.headers.get("x-client", "").strip() or self.peer

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, object]:
        """The request body as a JSON object, or a 400."""
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc


async def read_request(
    reader: asyncio.StreamReader, max_body: int, peer: str = "?"
) -> Optional[Request]:
    """Parse one request off ``reader``; None at a clean EOF.

    Raises :class:`HttpError` for malformed framing and for bodies
    declared larger than ``max_body`` (checked before reading a single
    body byte).
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(400, "request line too long")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(400, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    query = {k: v for k, v in parse_qsl(split.query)}
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise HttpError(400, f"malformed Content-Length {raw_length!r}")
        if length < 0:
            raise HttpError(400, f"malformed Content-Length {raw_length!r}")
        if length > max_body:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body}-byte limit",
                limit=max_body,
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "request body shorter than Content-Length")
    elif method == "POST" and headers.get("transfer-encoding"):
        raise HttpError(411, "chunked uploads are not supported; send Content-Length")
    return Request(
        method=method,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
        peer=peer,
    )


def response_bytes(
    status: int,
    payload: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """A complete framed response (status line, headers, body)."""
    reason = STATUS_TEXT.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + payload


def json_payload(doc: object) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def json_response(
    status: int,
    doc: object,
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    return response_bytes(
        status, json_payload(doc), extra_headers=extra_headers, keep_alive=keep_alive
    )


def error_response(error: HttpError, keep_alive: bool = True) -> bytes:
    headers: Dict[str, str] = {}
    retry_after = error.extra.get("retry_after")
    if isinstance(retry_after, (int, float)):
        # Integral seconds per RFC 7231; round up so clients never
        # retry a hair early and eat a second 429.
        headers["Retry-After"] = str(max(1, int(-(-retry_after // 1))))
    return json_response(
        error.status, error.as_dict(), extra_headers=headers, keep_alive=keep_alive
    )


def sse_preamble() -> bytes:
    """Response head opening an unbounded server-sent-event stream."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")


def sse_event(event: str, doc: object) -> bytes:
    """One server-sent event frame carrying a JSON payload."""
    data = json.dumps(doc, sort_keys=True)
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


def parse_sse_stream(lines):
    """Yield ``(event, data_dict)`` pairs from an iterable of SSE lines.

    The client half of :func:`sse_event`, shared by ``repro watch
    --url`` and the tests.  Accepts ``bytes`` or ``str`` lines; frames
    without a ``data:`` payload are skipped.
    """
    event: Optional[str] = None
    data: Optional[str] = None
    for raw in lines:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.rstrip("\r\n")
        if line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data = line[len("data:"):].strip()
        elif not line:
            if event is not None and data is not None:
                try:
                    yield event, json.loads(data)
                except json.JSONDecodeError:
                    pass
            event = data = None


def split_path(path: str) -> Tuple[str, ...]:
    """``"/v1/jobs/abc/events"`` -> ``("v1", "jobs", "abc", "events")``."""
    return tuple(part for part in path.split("/") if part)
