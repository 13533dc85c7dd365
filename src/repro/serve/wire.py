"""Shared JSON-over-HTTP wire helpers (stdlib only).

One home for the request/response plumbing the serve layer's HTTP
surface (:mod:`repro.serve.http_api`), its client
(:mod:`repro.serve.client`), and the fleet gateway
(:mod:`repro.fleet.gateway`) all speak:

* :class:`JsonRequestHandler` - a :class:`BaseHTTPRequestHandler` with
  the service's conventions baked in: HTTP/1.1 keep-alive with Nagle off
  (ending with the server: nothing is answered once it is closed),
  quiet logging (telemetry is the observable surface), JSON bodies with
  explicit ``Content-Length``, ``{"error": ...}`` error envelopes, and
  ``Retry-After``-bearing overload responses,
* :func:`error_detail` / :func:`retry_after_hint` - the client-side
  decoding of those envelopes: parse the error body once, and resolve
  the server's pacing hint (``Retry-After`` header first, body
  ``retry_after_s`` second, 0 = no hint).

Keeping both directions in one module is what stops the gateway from
growing a third, slightly different copy of the protocol: a shard, the
gateway, and a plain service all answer byte-compatible envelopes, so
:class:`~repro.serve.client.ServiceClient` works unmodified against
any of them.
"""

from __future__ import annotations

import json
import time
from email.message import Message
from http.server import BaseHTTPRequestHandler
from typing import Any, Mapping, Optional, Union

from repro.chaos.network import CALLER_HEADER, network_injector
from repro.errors import ConfigurationError


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request handler base with the service's JSON conventions."""

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two writes (headers, then
    #: body); with Nagle on, the body waits for the client's delayed ACK
    #: of the headers - about 40 ms on every request of a reused
    #: connection.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        pass  # quiet by default; telemetry is the observable surface

    def parse_request(self) -> bool:
        """Refuse, unanswered, every request that arrives after the
        server was closed with ``server_close()``.

        A kept-alive connection's handler thread outlives the listening
        socket; without this check a closed (killed) server would keep
        answering the peers that already hold a connection, and a
        gateway would never see it as unreachable.
        """
        if self.server.socket.fileno() < 0:
            self.close_connection = True
            return False
        return super().parse_request()

    def network_fault_precheck(self) -> bool:
        """True when an armed partition drops this request unanswered.

        Called at the top of every ``do_*``: an inbound cut closes the
        connection with no response bytes, so the caller observes the
        peer vanishing (``RemoteDisconnected``) exactly as it would with
        a real link failure.  None-sentinel: fault-free processes pay
        one global read.
        """
        injector = network_injector()
        if injector is None:
            return False
        if injector.drop_inbound(self.headers.get(CALLER_HEADER)):
            self.close_connection = True
            return True
        return False

    def send_json(
        self,
        status: int,
        payload: Any,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        fault = None
        injector = network_injector()
        if injector is not None:
            fault = injector.response_fault(self.headers.get(CALLER_HEADER))
            if fault is not None and fault["kind"] == "delay":
                time.sleep(max(0.0, fault["delay_s"]))
                fault = None
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if fault is not None and fault["kind"] == "disconnect":
            # headers + a partial body, then the connection drops: the
            # peer sees IncompleteRead/RemoteDisconnected and retries.
            cut = fault["after_bytes"]
            cut = len(body) // 2 if cut is None else max(0, min(cut, len(body)))
            self.wfile.write(body[:cut])
            self.close_connection = True
            return
        if fault is not None and fault["kind"] == "truncate":
            drop = max(1, min(fault["drop_bytes"], len(body)))
            self.wfile.write(body[: len(body) - drop])
            self.close_connection = True
            return
        self.wfile.write(body)

    def send_json_error(self, status: int, message: str) -> None:
        self.send_json(status, {"error": message})

    def send_retry_after(
        self, status: int, payload: dict[str, Any], retry_after_s: float
    ) -> None:
        """An overload answer (429/503): body field + ``Retry-After``.

        The header carries the fractional-second delta form
        (``%g``-formatted) clients parse via :func:`retry_after_hint`.
        """
        body = dict(payload)
        body["retry_after_s"] = retry_after_s
        self.send_json(
            status, body, headers={"Retry-After": f"{retry_after_s:g}"}
        )

    def read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ConfigurationError("request body required")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"invalid JSON body: {exc}") from exc


def error_detail(status: int, body: bytes) -> tuple[dict[str, Any], str]:
    """Decode a non-2xx response into ``(detail dict, message)``.

    The detail is the parsed ``{"error": ..., "retry_after_s": ...}``
    envelope when the body is a JSON object, else ``{}``; the message is
    the server's ``error`` field, falling back to the status for other
    bodies (proxies, raw stdlib errors).
    """
    try:
        parsed = json.loads(body.decode("utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        parsed = None
    detail: dict[str, Any] = parsed if isinstance(parsed, dict) else {}
    return detail, str(detail.get("error", f"HTTP Error {status}"))


def retry_after_hint(
    headers: Optional[Union[Message, Mapping[str, str]]],
    detail: Mapping[str, Any],
) -> float:
    """The server's pacing hint in seconds (0.0 = no usable hint).

    Only the delta-seconds form of ``Retry-After`` is parsed - it is
    what the service emits - and fractional values (``"0.25"``) are
    honoured, not truncated.  An HTTP-date or garbage value falls
    through to the body's ``retry_after_s`` and finally 0 (= the
    client's own backoff).
    """
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is not None:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    try:
        return max(0.0, float(detail.get("retry_after_s", 0.0)))
    except (TypeError, ValueError):
        return 0.0
