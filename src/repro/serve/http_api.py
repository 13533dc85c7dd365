"""JSON-over-HTTP surface for the simulation service (stdlib only).

Endpoints:

* ``POST /jobs``                - submit a job spec, returns the record
* ``GET  /jobs``                - list job summaries
* ``GET  /jobs/<id>``           - one job's record (state, attempts, ...);
  ``?wait_s=S`` long-polls: the answer comes once the job is terminal,
  after ``S`` seconds (at most 30), or when the service drains
* ``GET  /jobs/<id>/result``    - the stored result document (404 until done)
* ``DELETE /jobs/<id>``         - cancel a queued/running job
* ``GET  /metrics``             - telemetry snapshot (counters, gauges,
  p50/p95 job latency, cache hit rate)
* ``GET  /events?since=N``      - incremental job-transition stream
* ``GET  /healthz``             - liveness probe (200 while the process
  serves, even when draining); reports ``role`` (``"service"``),
  ``code_version``, and the configured ``shard_name`` so fleet
  operators can detect mixed-version or misconfigured shards
* ``GET  /readyz``              - readiness probe: 503 + ``Retry-After``
  while replaying the journal, draining, or shedding load
* ``GET  /store/keys``          - content keys held by this shard's store
* ``GET  /store/entries/<key>`` - export one entry (doc + npz payload,
  checksum included) for fleet store migration
* ``POST /store/entries/<key>`` - import an exported entry
  (checksum-verified; 400 on mismatch, idempotent re-imports are no-ops)

Overload and drain map onto status codes clients can act on: a
submission shed by admission control answers **429** and a submission
during drain/replay answers **503**, both with a ``Retry-After`` header
and a ``retry_after_s`` body field - no job state was created, the
request is safe to retry verbatim.

Handlers run on :class:`http.server.ThreadingHTTPServer` threads; all
shared state lives in the thread-safe :class:`SimulationService`.
"""

from __future__ import annotations

import threading
from http.server import ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import CorruptResultError, ReproError
from repro.experiments.runner import code_version
from repro.serve.service import AdmissionError, SimulationService
from repro.serve.wire import JsonRequestHandler


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True
    #: the default backlog (5) drops/resets connections under a
    #: concurrent submission burst; size for hundreds of clients.
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], service: SimulationService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(JsonRequestHandler):
    server: ServiceHTTPServer

    # -- routes ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.network_fault_precheck():
            return
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                # liveness: the process is up; drain is advisory here
                self.send_json(
                    200,
                    {
                        "ok": True,
                        "draining": self.server.service.draining,
                        "role": "service",
                        "code_version": code_version(),
                        "shard_name": self.server.service.config.shard_name,
                    },
                )
            elif parts == ["readyz"]:
                ready, detail = self.server.service.readiness()
                if ready:
                    self.send_json(200, detail)
                else:
                    self.send_retry_after(
                        503, detail, self.server.service.config.shed_retry_after_s
                    )
            elif parts == ["metrics"]:
                self.send_json(200, self.server.service.metrics())
            elif parts == ["events"]:
                query = parse_qs(url.query)
                since = int(query.get("since", ["0"])[0])
                limit = int(query.get("limit", ["1000"])[0])
                events = self.server.service.telemetry.events_since(since, limit)
                next_since = events[-1]["seq"] if events else since
                self.send_json(200, {"events": events, "next_since": next_since})
            elif parts == ["jobs"]:
                records = self.server.service.jobs()
                self.send_json(
                    200,
                    {
                        "jobs": [
                            {
                                "job_id": r.job_id,
                                "state": r.state.value,
                                "workload": r.spec.workload,
                                "attempts": r.attempts,
                                "cache_hit": r.cache_hit,
                                # the fleet routing key: what lets a
                                # surviving gateway adopt this job after
                                # the gateway that submitted it died.
                                "digest": r.spec.spec_digest(),
                            }
                            for r in records
                        ]
                    },
                )
            elif parts == ["store", "keys"]:
                self.send_json(
                    200, {"keys": self.server.service.store_keys()}
                )
            elif len(parts) == 3 and parts[:2] == ["store", "entries"]:
                self.send_json(200, self.server.service.export_result(parts[2]))
            elif len(parts) == 2 and parts[0] == "jobs":
                wait_s = float(parse_qs(url.query).get("wait_s", ["0"])[0])
                record = self.server.service.poll(parts[1], wait_s)
                self.send_json(200, record.to_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                doc = self.server.service.result_doc(parts[1])
                if doc is None:
                    record = self.server.service.get(parts[1])
                    self.send_json_error(404, f"{parts[1]} has no result ({record.state.value})")
                else:
                    self.send_json(200, doc)
            else:
                self.send_json_error(404, f"no route for GET {url.path}")
        except KeyError as exc:
            self.send_json_error(404, f"unknown job {exc.args[0]!r}")
        except CorruptResultError as exc:
            # the entry failed verification and was quarantined: it is
            # gone for good (410), and resubmitting the spec recomputes.
            self.send_json_error(410, str(exc))
        except (ValueError, ReproError) as exc:
            self.send_json_error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802
        if self.network_fault_precheck():
            return
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                record = self.server.service.submit_dict(self.read_json_body())
                self.send_json(202 if not record.cache_hit else 200, record.to_dict())
            elif len(parts) == 3 and parts[:2] == ["store", "entries"]:
                body = self.read_json_body()
                imported = self.server.service.import_result(
                    parts[2], body.get("doc") or {}, body.get("trace_b64")
                )
                self.send_json(200, {"key": parts[2], "imported": imported})
            else:
                self.send_json_error(404, f"no route for POST {url.path}")
        except ValueError as exc:
            # import checksum verification failed: reject, plant nothing
            self.send_json_error(400, str(exc))
        except AdmissionError as exc:
            # 429 (shed) / 503 (draining): nothing was enqueued, the
            # client should back off and retry the identical request.
            self.send_retry_after(
                exc.status, {"error": str(exc)}, exc.retry_after_s
            )
        except ReproError as exc:
            self.send_json_error(400, str(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        if self.network_fault_precheck():
            return
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if len(parts) == 2 and parts[0] == "jobs":
                cancelled = self.server.service.cancel(parts[1])
                if cancelled:
                    self.send_json(200, self.server.service.get(parts[1]).to_dict())
                else:
                    self.send_json_error(409, f"{parts[1]} already finished")
            else:
                self.send_json_error(404, f"no route for DELETE {self.path}")
        except KeyError as exc:
            self.send_json_error(404, f"unknown job {exc.args[0]!r}")


def serve_http(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` = ephemeral) and serve on a daemon thread."""
    server = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server
