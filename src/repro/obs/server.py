"""The live telemetry plane: a dependency-free HTTP exposition server.

A long-running deployment (``repro stream-localize --serve-metrics``, a
:class:`~repro.service.LocalizationService` loop) is a black box unless
its registry can be scraped *while it runs*.  :class:`TelemetryServer`
is the front door: a stdlib ``http.server``/``socketserver`` thread that
serves, for the lifetime of the run,

* ``GET /metrics`` — the installed collector's
  :class:`~repro.obs.metrics.MetricRegistry` rendered as Prometheus text
  exposition 0.0.4 (the registry's own locks make the scrape a
  consistent snapshot);
* ``GET /healthz`` — liveness: 200 while the server thread is up (an
  optional ``healthy`` probe can veto with 503);
* ``GET /readyz`` — readiness wired to service/breaker state via the
  ``readiness`` probe (e.g. :meth:`LocalizationService.readiness`);
* ``GET /debug/spans`` — the collector's bounded recent-span ring as
  JSON (``?limit=N`` for the newest N);
* ``GET /debug/profile`` — the span-family self-time profile
  (:mod:`repro.obs.profile`) of the capture so far (``?top=N``).

The server binds ``port=0`` to an ephemeral port (read it back from
:attr:`TelemetryServer.port`), runs daemonized so it never blocks
interpreter exit, and counts every request under
``telemetry_requests_total{route=...,status=...}``.  Nothing here runs
unless the caller starts a server — the off path costs nothing.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from . import trace as _trace
from .export import _json_safe, prometheus_text
from .profile import profile_collector
from .trace import Collector

__all__ = ["TelemetryServer", "PROMETHEUS_CONTENT_TYPE"]

#: The content type a Prometheus scraper expects from a 0.0.4 exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``serve_forever`` poll: how long :meth:`TelemetryServer.stop` can wait
#: for the serving thread to notice the shutdown (the stdlib default is
#: 0.5 s, paid on every stop).
POLL_INTERVAL_S = 0.05

#: Probe signature: return truthy for OK; a dict is included in the body.
Probe = Callable[[], object]


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.telemetry``."""

    server_version = "repro-telemetry/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # the access log is the request counter, not stderr

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        route = parsed.path.rstrip("/") or "/"
        try:
            status, content_type, body = telemetry._dispatch(route, query)
        except Exception as exc:  # noqa: BLE001 - a scrape must never kill the run
            status, content_type, body = (
                500,
                "application/json",
                json.dumps({"error": str(exc)}).encode(),
            )
        telemetry._count_request(route, status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TelemetryServer:
    """Thread-based HTTP server over one capture's registry and span ring.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    collector:
        The capture to serve.  ``None`` (default) resolves the installed
        collector *at scrape time*, so a server started before
        ``obs.capture()`` serves whatever capture is active when the
        scraper arrives.
    readiness:
        ``/readyz`` probe.  Return truthy for ready; returning a mapping
        includes it in the JSON body (a ``"ready"`` key, when present,
        decides).  Default: ready iff a collector is reachable.
    healthy:
        ``/healthz`` veto probe; default always healthy while serving.
    profile_source:
        ``"spans"`` (default) profiles every span the capture retains
        (only the ring, for a ``keep_spans=False`` capture); ``"ring"``
        profiles only the bounded recent-span ring — constant memory and
        cost, for very long runs.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        collector: Optional[Collector] = None,
        readiness: Optional[Probe] = None,
        healthy: Optional[Probe] = None,
        profile_source: str = "spans",
    ):
        if profile_source not in ("spans", "ring"):
            raise ValueError("profile_source must be 'spans' or 'ring'")
        self.host = host
        self._requested_port = port
        self._collector = collector
        self._readiness = readiness
        self._healthy = healthy
        self._profile_source = profile_source
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        # Uptime baseline for dispatch() callers that never start() a socket.
        self._created_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Bind and serve from a daemon thread; idempotent-safe to chain."""
        if self._httpd is not None:
            raise RuntimeError("telemetry server already started")
        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.telemetry = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(POLL_INTERVAL_S,),
            name="repro-telemetry",
            daemon=True,
        )
        self._started_at = time.monotonic()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (no-op when stopped)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral ``port=0`` request)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server, e.g. ``http://127.0.0.1:9464``."""
        return f"http://{self.host}:{self.port}"

    # -- routing -----------------------------------------------------------

    def dispatch(
        self, route: str, query: Optional[Dict[str, list]] = None
    ) -> Tuple[int, str, bytes]:
        """Serve one telemetry route without a socket.

        Embedders (e.g. :class:`repro.serving.LocalizationServer`) mount
        ``/metrics``, ``/healthz``, ``/readyz`` and the debug routes on
        their own listener by delegating here, so one process exposes a
        single port.  Returns ``(status, content_type, body)`` exactly as
        the HTTP handler would; unknown routes produce the 404 catalogue.
        """
        normalized = route.rstrip("/") or "/"
        return self._dispatch(normalized, query or {})

    def _resolve_collector(self) -> Optional[Collector]:
        return self._collector if self._collector is not None else _trace.active_collector()

    def _count_request(self, route: str, status: int) -> None:
        collector = self._resolve_collector()
        if collector is not None:
            collector.metrics.counter(
                "telemetry_requests_total",
                {"route": route, "status": str(status)},
            ).inc()

    def _dispatch(
        self, route: str, query: Dict[str, list]
    ) -> Tuple[int, str, bytes]:
        if route == "/metrics":
            return self._metrics()
        if route == "/healthz":
            return self._healthz()
        if route == "/readyz":
            return self._readyz()
        if route == "/debug/spans":
            return self._debug_spans(query)
        if route == "/debug/profile":
            return self._debug_profile(query)
        body = json.dumps(
            {
                "error": f"no route {route!r}",
                "routes": [
                    "/metrics",
                    "/healthz",
                    "/readyz",
                    "/debug/spans",
                    "/debug/profile",
                ],
            }
        ).encode()
        return 404, "application/json", body

    def _metrics(self) -> Tuple[int, str, bytes]:
        collector = self._resolve_collector()
        # An idle process is a valid (empty) exposition, not a scrape error.
        text = prometheus_text(collector.metrics) if collector is not None else ""
        return 200, PROMETHEUS_CONTENT_TYPE, text.encode()

    def _healthz(self) -> Tuple[int, str, bytes]:
        verdict = self._healthy() if self._healthy is not None else True
        ok = bool(verdict)
        baseline = self._started_at if self._started_at is not None else self._created_at
        uptime = time.monotonic() - baseline
        body = {"status": "ok" if ok else "unhealthy", "uptime_s": round(uptime, 3)}
        if isinstance(verdict, dict):
            body.update(_json_safe(verdict))
        return (200 if ok else 503), "application/json", json.dumps(body).encode()

    def _readyz(self) -> Tuple[int, str, bytes]:
        if self._readiness is not None:
            verdict = self._readiness()
            if isinstance(verdict, dict):
                ready = bool(verdict.get("ready", True))
                body = dict(_json_safe(verdict))
                body["ready"] = ready
            else:
                ready = bool(verdict)
                body = {"ready": ready}
        else:
            ready = self._resolve_collector() is not None
            body = {"ready": ready, "reason": None if ready else "no collector installed"}
        return (200 if ready else 503), "application/json", json.dumps(body).encode()

    def _debug_spans(self, query: Dict[str, list]) -> Tuple[int, str, bytes]:
        collector = self._resolve_collector()
        if collector is None:
            return 503, "application/json", b'{"error": "no collector installed"}'
        limit = _int_param(query, "limit")
        spans = collector.recent.snapshot(limit)
        body = {
            "count": len(spans),
            "total_finished": collector.recent.total_appended,
            "ring_capacity": collector.recent.capacity,
            "spans": [
                {
                    "name": s.name,
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "start_unix": s.start_unix,
                    "duration_s": s.duration_s,
                    "attributes": _json_safe(s.attributes),
                }
                for s in spans
            ],
        }
        return 200, "application/json", json.dumps(body).encode()

    def _debug_profile(self, query: Dict[str, list]) -> Tuple[int, str, bytes]:
        collector = self._resolve_collector()
        if collector is None:
            return 503, "application/json", b'{"error": "no collector installed"}'
        top = _int_param(query, "top")
        if self._profile_source == "ring":
            from .profile import profile_spans

            profiles = profile_spans(collector.recent.snapshot())
        else:
            profiles = profile_collector(collector)
        if top is not None:
            profiles = profiles[: max(top, 1)]
        body = {
            "source": self._profile_source,
            "families": [p.as_dict() for p in profiles],
        }
        return 200, "application/json", json.dumps(body).encode()


def _int_param(query: Dict[str, list], key: str) -> Optional[int]:
    values = query.get(key)
    if not values:
        return None
    try:
        return int(values[-1])
    except (TypeError, ValueError):
        return None
