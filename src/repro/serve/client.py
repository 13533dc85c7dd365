"""Python client for the simulation service (stdlib ``http.client`` only).

Mirrors the HTTP surface one-to-one and raises
:class:`ServiceClientError` with the server's error message on non-2xx
responses, so CLI verbs and tests get clean failures instead of raw
transport tracebacks.

Connections are kept alive: each endpoint has a thread-safe pool of
idle HTTP/1.1 connections, a request borrows one (or opens one) and
hands it back once the response body has been read in full, so a
caller's requests - and every hop the fleet gateway forwards through
its shard clients - share a TCP connection instead of opening one
each.  A request that fails on a *reused* connection before any
response byte arrives (the peer closed the connection while it sat
idle) is sent once more on a fresh connection; that resend is neither
an attempt nor a backoff.  Any other failure discards the connection.

Every request is bounded: connection establishment by
``connect_timeout_s``, each subsequent socket read by ``timeout_s``
(requests-style split; a hung accept queue and a hung handler are
different failures with different sensible budgets).  Transport-level
failures are retried up to ``retries`` times with exponential backoff
and deterministic jitter drawn from a seeded
:class:`~repro.sim.rng.SimRng` - full-throttle reconnect storms from a
fleet of clients are what the jitter prevents, and seeding keeps test
runs reproducible.  Server-reported 5xx responses are retried for
``GET`` only (idempotent); a 5xx on ``POST``/``DELETE`` surfaces
immediately since the service may have acted on it.

The exception: **429** (queue shed) and **503** (draining) are retried
for *every* method - the service guarantees it created no state before
answering them - sleeping at least the server's ``Retry-After`` hint
(fractional seconds honoured) each round.  When the retry budget runs
out they surface as :class:`ServiceOverloadedError` (a
:class:`ServiceClientError` subclass) carrying the last
``retry_after_s`` so callers can queue the work for later instead of
treating it as a hard failure.

Total sleep across one logical request is capped by
``backoff_budget_s``, shared across every retry *and* re-routed
attempt of that request: a shard that advertises a 300 s
``Retry-After`` cannot stall a caller for five minutes, and a gateway
that already waited upstream passes the remaining budget down instead
of paying the penalty twice (see
:meth:`ServiceClient.request_with_budget`).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from email.message import Message
from typing import Any, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.chaos.network import CALLER_HEADER, local_endpoint, network_injector
from repro.errors import ReproError
from repro.serve.wire import error_detail, retry_after_hint
from repro.sim.rng import SimRng


class ServiceClientError(ReproError):
    """The service rejected a request (includes the HTTP status).

    ``detail`` is the parsed error envelope (``{}`` when the body was
    not JSON) - it carries structured hints like a follower gateway's
    acting-primary redirect, which the join announcer chases.
    """

    def __init__(
        self,
        status: int,
        message: str,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.detail: dict[str, Any] = dict(detail or {})


class ServiceOverloadedError(ServiceClientError):
    """The service kept shedding/draining for the whole retry budget.

    Distinct from a hard rejection: the request was never acted on, and
    ``retry_after_s`` is the server's latest hint for when to try again.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after_s: float = 1.0,
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        super().__init__(status, message, detail=detail)
        self.retry_after_s = retry_after_s


#: longest one status request of :meth:`ServiceClient.wait` asks the
#: server to hold.
LONG_POLL_S = 1.0


class _ConnectionPool:
    """Idle keep-alive connections to one endpoint, shared by threads.

    A borrowed connection belongs to one request until it is handed
    back (its response read in full) or closed (anything else).  The
    pool holds at most as many connections as requests ran at once.
    """

    def __init__(
        self, url: str, connect_timeout_s: float, read_timeout_s: float
    ) -> None:
        parts = urlsplit(url)
        self._factory = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        #: the endpoint's path, prefixed to every request path.
        self.prefix = parts.path
        self._connect_timeout_s = connect_timeout_s
        self._read_timeout_s = read_timeout_s
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False

    def connect(self) -> http.client.HTTPConnection:
        """A fresh connection: the connect is bounded by the connect
        timeout, every later read by the read timeout."""
        conn = self._factory(self._netloc, timeout=self._connect_timeout_s)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        conn.sock.settimeout(self._read_timeout_s)
        return conn

    def acquire(self) -> tuple[http.client.HTTPConnection, bool]:
        """``(connection, reused)``: the most recently returned idle
        connection, else a fresh one."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self.connect(), False

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class ServiceClient:
    """Thin JSON client bound to one service base URL - or several.

    ``base_url`` may be a single URL or a sequence of equivalent
    endpoints (replicated fleet gateways).  With several, the client is
    sticky to one endpoint and **fails over** to the next on a connect
    error or an exhausted 429/503 - conditions under which the server
    provably created no state, so retrying the identical request
    elsewhere is safe.  The ``backoff_budget_s`` sleep cap is shared
    across *all* endpoints of one logical request (a two-gateway client
    does not get to stall twice as long), as is the bounded attempt
    count.
    """

    def __init__(
        self,
        base_url: Union[str, Sequence[str]],
        timeout_s: float = 30.0,
        connect_timeout_s: float = 5.0,
        retries: int = 2,
        retry_backoff_s: float = 0.2,
        retry_seed: int = 0x7E7,
        backoff_budget_s: float = 60.0,
    ) -> None:
        urls = [base_url] if isinstance(base_url, str) else list(base_url)
        if not urls:
            raise ReproError("ServiceClient needs at least one base URL")
        #: equivalent endpoints in failover order; index 0 is preferred.
        self.endpoints: tuple[str, ...] = tuple(u.rstrip("/") for u in urls)
        self._active = 0
        self.timeout_s = timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.retries = max(0, int(retries))
        self.retry_backoff_s = retry_backoff_s
        #: cap on *cumulative* retry sleep per logical request; shared
        #: across re-routed attempts via :meth:`request_with_budget`
        #: and across every endpoint of a multi-endpoint client.
        self.backoff_budget_s = max(0.0, float(backoff_budget_s))
        self._rng = SimRng(retry_seed).fork("client-retry")
        self._pools = tuple(
            _ConnectionPool(url, connect_timeout_s, timeout_s)
            for url in self.endpoints
        )

    @property
    def base_url(self) -> str:
        """The endpoint currently in use (sticky until a failover)."""
        return self.endpoints[self._active]

    def close(self) -> None:
        """Close every pooled connection.

        Safe while other threads still use the client: a request in
        flight closes its connection when it ends, and later requests
        still work, each on a connection that is closed after it.
        """
        for pool in self._pools:
            pool.close()

    # -- transport ------------------------------------------------------------
    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: dict[str, str],
    ) -> tuple[int, Message, bytes]:
        """One exchange with the active endpoint on a pooled connection:
        ``(status, headers, body)`` of its response, whatever the status."""
        pool = self._pools[self._active]
        conn, reused = pool.acquire()
        try:
            try:
                conn.request(method, pool.prefix + path, body, headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # the peer closed this connection while it sat idle: no
                # response byte came back, so nothing answered the
                # request - send it once more on a fresh connection.
                conn.close()
                conn = pool.connect()
                conn.request(method, pool.prefix + path, body, headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            pool.release(conn)
        return response.status, response.headers, data

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with jitter in [0.5x, 1.5x) of the step."""
        step = self.retry_backoff_s * (2**attempt)
        return step * (0.5 + float(self._rng.uniform()))

    def _pace(self, retry_after: float) -> float:
        """Jitter the server's pacing hint by up to +10%.

        A fleet of clients shed at the same instant would otherwise all
        come back on the same tick; the jitter is seeded, so tests stay
        reproducible.
        """
        if retry_after <= 0.0:
            return 0.0
        return retry_after * (1.0 + 0.1 * float(self._rng.uniform()))

    def _fail_over(self) -> bool:
        """Rotate to the next endpoint; False when there is only one."""
        if len(self.endpoints) < 2:
            return False
        self._active = (self._active + 1) % len(self.endpoints)
        return True

    def _request(
        self, method: str, path: str, payload: Optional[dict[str, Any]] = None
    ) -> Any:
        return self.request_with_budget(method, path, payload)[0]

    def request_with_budget(
        self,
        method: str,
        path: str,
        payload: Optional[dict[str, Any]] = None,
        budget_spent_s: float = 0.0,
    ) -> tuple[Any, float]:
        """One logical request under a shared sleep budget.

        ``budget_spent_s`` is backoff time an upstream caller (e.g. the
        fleet gateway, across re-routed attempts) already slept for this
        logical request; it counts against ``backoff_budget_s`` so the
        request is never penalized twice.  Returns ``(response, total
        budget spent)`` - the caller threads the spent figure into the
        next re-routed attempt.  When the budget is exhausted the last
        error is raised immediately instead of sleeping.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body else {}
        caller = local_endpoint()
        if caller is not None:
            # self-identify so a peer's inbound network.partition rules
            # can match this endpoint by name.
            headers[CALLER_HEADER] = caller
        last_error: Optional[ServiceClientError] = None
        spent = max(0.0, float(budget_spent_s))
        # extra endpoints buy extra attempts (one each), not extra
        # budget: the failover pass over N gateways still shares one
        # backoff_budget_s and one retry schedule.
        total_attempts = self.retries + len(self.endpoints)
        for attempt in range(total_attempts):
            retry_after = 0.0
            failed_over = False
            try:
                injector = network_injector()
                if injector is not None:
                    # raises before a connection is used when this
                    # endpoint's outbound link is cut; lands in the
                    # unreachable branch below like a real refused connect.
                    injector.check_connect(self.base_url)
                status, reply_headers, data = self._exchange(
                    method, path, body, headers
                )
            except (http.client.HTTPException, OSError) as exc:
                # connection refused / reset / timed out, or the peer
                # vanished mid-response (a SIGKILLed gateway surfaces as
                # RemoteDisconnected or IncompleteRead): treat all of
                # these as "endpoint unreachable" and retry - with
                # several endpoints, immediately elsewhere.
                # Re-submission is safe: job creation is
                # content-addressed, so a duplicate costs at most one
                # cache-hit job record.
                last_error = ServiceClientError(
                    0, f"cannot reach {self.base_url}: {exc}"
                )
                if attempt >= total_attempts - 1:
                    raise last_error from exc
                if self._fail_over():
                    continue  # next endpoint now; no sleep for a dead peer
            else:
                if 200 <= status < 300:
                    return json.loads(data.decode("utf-8")), spent
                detail, message = error_detail(status, data)
                overloaded = status in (429, 503)
                if overloaded:
                    # admission control answered before creating any
                    # state, so every method is safe to retry; honour the
                    # server's pacing hint over our own backoff.  With
                    # several endpoints a 503 also fails over: a sibling
                    # gateway may be admitting while this one sheds.
                    retry_after = retry_after_hint(reply_headers, detail)
                    last_error = ServiceOverloadedError(
                        status,
                        message,
                        retry_after_s=retry_after or 1.0,
                        detail=detail,
                    )
                    failed_over = self._fail_over()
                else:
                    last_error = ServiceClientError(status, message, detail=detail)
                retryable = overloaded or (method == "GET" and 500 <= status < 600)
                if not retryable or attempt >= total_attempts - 1:
                    raise last_error
            remaining = self.backoff_budget_s - spent
            if remaining <= 0.0:
                raise last_error
            delay = min(
                max(self._backoff(attempt), self._pace(retry_after)), remaining
            )
            if failed_over:
                # the pacing hint came from the endpoint we just left;
                # the new endpoint owes us nothing, back off normally.
                delay = min(self._backoff(attempt), remaining)
            time.sleep(delay)
            spent += delay
        raise last_error  # pragma: no cover - loop always raises/returns

    # -- API ------------------------------------------------------------------
    def healthz(self) -> bool:
        return bool(self._request("GET", "/healthz").get("ok"))

    def readyz(self) -> dict[str, Any]:
        """The readiness document; raises ServiceOverloadedError on 503."""
        return self._request("GET", "/readyz")

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        return self._request("POST", "/jobs", spec)

    def status(self, job_id: str, wait_s: float = 0.0) -> dict[str, Any]:
        """The job's record; ``wait_s > 0`` long-polls (the server
        answers once the job is terminal or ``wait_s`` has passed)."""
        query = f"?wait_s={wait_s:g}" if wait_s > 0 else ""
        return self._request("GET", f"/jobs/{job_id}{query}")

    def list_jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def events(self, since: int = 0, limit: int = 1000) -> dict[str, Any]:
        return self._request("GET", f"/events?since={since}&limit={limit}")

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.1
    ) -> dict[str, Any]:
        """Wait until the job is terminal; returns the final record.

        Each status request long-polls for up to :data:`LONG_POLL_S`, so
        a job that ends within that time costs one request, answered as
        it ends.  ``poll_s`` paces the requests after a non-terminal
        answer (a server that does not hold the request answers at once).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            wait_s = min(remaining, LONG_POLL_S, self.timeout_s / 2)
            record = self.status(job_id, wait_s=wait_s)
            if record["state"] in ("done", "failed", "cancelled", "poisoned"):
                return record
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{job_id} still {record['state']} after {timeout_s}s"
                )
            time.sleep(poll_s)
