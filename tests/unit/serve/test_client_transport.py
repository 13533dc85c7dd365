"""ServiceClient transport: pooled keep-alive connections.

Every test runs a real :class:`JsonRequestHandler` server that echoes
each request's path and counts the TCP connections it accepts, so the
assertions are about what went over the wire.
"""

from __future__ import annotations

import sys
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.chaos import (
    NETWORK_DISCONNECT,
    NETWORK_TRUNCATE,
    FaultPlan,
    FaultSpec,
    install_network_chaos,
    reset_network_chaos,
)
from repro.serve.client import ServiceClient, ServiceClientError
from repro.serve.wire import JsonRequestHandler


class _EchoHandler(JsonRequestHandler):
    server: "_CountingServer"

    def do_GET(self):  # noqa: N802
        self.server.seen.append(("GET", self.path))
        self.send_json(200, {"path": self.path})

    def do_POST(self):  # noqa: N802
        body = self.read_json_body()
        self.server.seen.append(("POST", self.path))
        self.send_json(200, {"path": self.path, "body": body})


class _IdleClosingHandler(_EchoHandler):
    #: the server closes a kept-alive connection idle this long.
    timeout = 0.05


class _CountingServer(ThreadingHTTPServer):
    """Echoes each request's path; counts the connections it accepts."""

    daemon_threads = True

    def __init__(self, handler=_EchoHandler):
        super().__init__(("127.0.0.1", 0), handler)
        self.connections = 0
        #: (method, path) of every request a handler answered.
        self.seen: list[tuple[str, str]] = []
        threading.Thread(target=self.serve_forever, daemon=True).start()

    def process_request(self, request, client_address):
        self.connections += 1  # the accept loop runs on one thread
        super().process_request(request, client_address)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def close(self):
        self.shutdown()
        self.server_close()


@pytest.fixture
def server():
    server = _CountingServer()
    yield server
    server.close()


@pytest.fixture
def client(server):
    client = ServiceClient(server.url, retries=0, backoff_budget_s=0.0)
    yield client
    client.close()


class TestReuse:
    def test_sequential_requests_share_one_connection(self, server, client):
        for i in range(20):
            assert client.request_with_budget("GET", f"/r{i}")[0] == {
                "path": f"/r{i}"
            }
        assert server.connections == 1

    def test_shared_client_answers_each_thread(self, server, client):
        """8 threads (more than cores) on one pool, switching often: a
        connection handed to two requests at once would cross answers."""
        answers: dict[int, list[str]] = {}

        def caller(t: int) -> None:
            answers[t] = [
                client.request_with_budget("GET", f"/t{t}/{i}")[0]["path"]
                for i in range(20)
            ]

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(8):
            assert answers[t] == [f"/t{t}/{i}" for i in range(20)]
        assert server.connections <= 8  # at most one per concurrent request

    def test_close_drops_pooled_connections_and_keeps_working(
        self, server, client
    ):
        client.request_with_budget("GET", "/a")
        client.close()
        assert client.request_with_budget("GET", "/b")[0] == {"path": "/b"}
        assert client.request_with_budget("GET", "/c")[0] == {"path": "/c"}
        # after close() nothing is pooled: each request connects anew
        assert server.connections == 3


class TestStaleConnection:
    def test_idle_closed_connection_is_resent_once_uncharged(self):
        """retries=0 and no budget: a charged resend would fail."""
        server = _CountingServer(_IdleClosingHandler)
        client = ServiceClient(server.url, retries=0, backoff_budget_s=0.0)
        try:
            client.request_with_budget("GET", "/warm")
            time.sleep(0.3)  # the server closes the idle connection
            doc, spent = client.request_with_budget("GET", "/get")
            assert doc == {"path": "/get"}
            assert spent == 0.0
            time.sleep(0.3)
            doc, spent = client.request_with_budget("POST", "/post", {"n": 1})
            assert doc == {"path": "/post", "body": {"n": 1}}
            assert spent == 0.0
            assert server.seen == [
                ("GET", "/warm"),
                ("GET", "/get"),
                ("POST", "/post"),
            ]
            # each stale connection was tried, then replaced once
            assert server.connections == 3
        finally:
            client.close()
            server.close()

    def test_closed_server_unreachable_on_a_kept_connection(self, server, client):
        client.request_with_budget("GET", "/before")
        server.close()
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_with_budget("GET", "/after")
        assert excinfo.value.status == 0
        assert server.seen == [("GET", "/before")]


class TestTornResponses:
    @pytest.fixture(autouse=True)
    def _clean_chaos(self):
        reset_network_chaos()
        yield
        reset_network_chaos()

    @pytest.mark.parametrize("point", [NETWORK_DISCONNECT, NETWORK_TRUNCATE])
    def test_torn_answer_discards_the_connection(self, server, client, point):
        client.request_with_budget("GET", "/clean")  # pools a connection
        install_network_chaos(
            plan=FaultPlan(faults=(FaultSpec(point=point, max_fires=1),))
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_with_budget("GET", "/torn")
        assert excinfo.value.status == 0
        assert client.request_with_budget("GET", "/next")[0] == {"path": "/next"}
        assert server.connections == 2
