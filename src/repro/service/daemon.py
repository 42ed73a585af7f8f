"""The service daemon: journal recovery, API, scheduler, signals.

:class:`ServiceDaemon` composes the pieces into the process behind
``repro serve --dir STATE``:

* on start it loads the state directory's journal and *re-queues every
  non-terminal job* — their finished cells keep their journalled
  results, their interrupted cells resume from GA checkpoints, so a
  SIGKILLed daemon restarted against the same directory completes its
  jobs bitwise-identically to a crash-free run;
* the API thread admits jobs under **admission control**: schema
  validation first (structured ``bad-request``, never a traceback),
  then idempotency by client job key (equal spec → the existing job is
  returned; different spec → ``key-conflict``), then the bounded active
  queue (``queue-full`` is explicit backpressure, the client decides
  whether to retry);
* SIGTERM drains gracefully: admission stops (``draining`` rejects),
  in-flight cells finish and journal, the store tier compacts, the
  telemetry session exports, the endpoint file is removed, exit 0.

Telemetry: job lifecycle events (``service.*``) and the
``repro_service_*`` metric families (queue depth and inflight gauges,
jobs/rejects/retries/pool-rebuild counters) — bitwise-neutral, like
every other telemetry source.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Optional

from repro.resilience import RetryPolicy
from repro.resilience.faults import (
    SITE_JOB_ADMIT,
    SITE_JOURNAL_IO,
    get_fault_injector,
)
from repro.service.api import (
    CODE_BAD_REQUEST,
    CODE_DRAINING,
    CODE_KEY_CONFLICT,
    CODE_NOT_FOUND,
    CODE_QUEUE_FULL,
    ApiServer,
    error_payload,
)
from repro.service.jobs import JobRecord, ValidationFailure, validate_job_payload
from repro.service.journal import JobJournal
from repro.service.scheduler import CellScheduler
from repro.telemetry import (
    configure as telemetry_configure,
    get_session as telemetry_get_session,
    shutdown as telemetry_shutdown,
)

__all__ = ["ServiceDaemon"]


class ServiceDaemon:
    """One running campaign-tuning service bound to a state directory."""

    def __init__(
        self,
        state_dir: str,
        workers: int = 2,
        queue_limit: int = 64,
        quota: int = 2,
        policy: Optional[RetryPolicy] = None,
        telemetry_dir: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state_dir = state_dir
        self.queue_limit = max(1, queue_limit)
        self.telemetry_dir = telemetry_dir
        os.makedirs(state_dir, exist_ok=True)
        self.journal = JobJournal(state_dir)
        self.scheduler = CellScheduler(
            state_dir,
            self.journal,
            workers=workers,
            policy=policy,
            quota=quota,
            events=self._on_scheduler_event,
        )
        self.api = ApiServer(
            state_dir,
            self._dispatch,
            host=host,
            port=port,
            after_reply=self._after_reply,
        )
        self._admission_lock = threading.Lock()
        self._draining = False
        self._stop_event = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = False
        #: in-memory admission clocks for advisory deadline reporting
        #: (reset on restart — deadlines are bookkeeping, not scheduling)
        self._admitted_at: Dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self.telemetry_dir is not None:
            telemetry_configure(self.telemetry_dir)
        self.scheduler.start()
        recovered = self.journal.active_jobs()
        for record in recovered:
            self.scheduler.submit(record)
        self.api.start()
        self._session_emit("service.start", workers=self.scheduler.workers)
        self._touch_gauges()
        registry = self._registry()
        if registry is not None:
            # materialize every service family up front so even an
            # idle daemon's export satisfies the telemetry smoke check
            for status in ("done", "failed", "cancelled"):
                registry.counter(
                    "repro_service_jobs_total", status=status
                ).inc(0)
            registry.counter("repro_service_cells_total", status="done").inc(0)
            registry.counter(
                "repro_service_rejects_total", code=CODE_QUEUE_FULL
            ).inc(0)
            registry.counter("repro_service_retries_total").inc(0)
            registry.counter("repro_service_pool_rebuilds_total").inc(0)

    def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT or an acknowledged ``shutdown``
        request, then drain and shut down — the one stop path."""

        def _request_stop(signum, frame) -> None:
            self._stop_event.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
        while not self._stop_event.wait(timeout=0.2):
            pass
        self.stop()

    def stop(self) -> None:
        """Graceful drain: finish in-flight work, persist, tear down.

        Idempotent and thread-safe: the first call tears down, later
        or concurrent calls return once that teardown has finished.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
            self._draining = True
            self._session_emit(
                "service.drain", inflight=self.scheduler.inflight_count()
            )
            self.scheduler.stop()
            self.api.stop()
            self.scheduler.compact_store()
            session = telemetry_get_session()
            if session is not None:
                session.export_prometheus()
            if self.telemetry_dir is not None:
                telemetry_shutdown()

    # -- telemetry -----------------------------------------------------
    def _registry(self):
        session = telemetry_get_session()
        return session.registry if session is not None else None

    def _session_emit(self, event: str, **fields) -> None:
        session = telemetry_get_session()
        if session is not None:
            session.emit(event, **fields)

    def _touch_gauges(self) -> None:
        registry = self._registry()
        if registry is None:
            return
        registry.gauge("repro_service_queue_depth").set(
            self.scheduler.queue_depth()
        )
        registry.gauge("repro_service_inflight").set(
            self.scheduler.inflight_count()
        )

    def _on_scheduler_event(self, kind: str, **fields) -> None:
        registry = self._registry()
        if kind in ("cell_done", "cell_failed"):
            self._session_emit(
                "service.cell_done",
                job=fields.get("job_id", ""),
                cell=fields.get("cell", ""),
                ok=kind == "cell_done",
            )
            if registry is not None:
                status = "done" if kind == "cell_done" else "failed"
                registry.counter(
                    "repro_service_cells_total", status=status
                ).inc()
        elif kind == "job_cancelled":
            self._session_emit(
                "service.job_cancelled",
                job=fields.get("job_id", ""),
                key=fields.get("key", ""),
            )
            if registry is not None:
                registry.counter(
                    "repro_service_jobs_total", status="cancelled"
                ).inc()
            self._admitted_at.pop(fields.get("job_id", ""), None)
        elif kind in ("job_done", "job_failed"):
            self._session_emit(
                "service.job_done",
                job=fields.get("job_id", ""),
                key=fields.get("key", ""),
                state=fields.get("state", ""),
            )
            if registry is not None:
                registry.counter(
                    "repro_service_jobs_total", status=fields.get("state", "")
                ).inc()
            self._admitted_at.pop(fields.get("job_id", ""), None)
        elif kind == "retry":
            if registry is not None:
                registry.counter("repro_service_retries_total").inc()
        elif kind == "pool_rebuild":
            if registry is not None:
                registry.counter("repro_service_pool_rebuilds_total").inc()
        self._touch_gauges()

    # -- request dispatch ----------------------------------------------
    def _dispatch(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            return error_payload(CODE_BAD_REQUEST, "request must be an object")
        op = payload.get("op")
        handler = {
            "ping": self._op_ping,
            "submit": self._op_submit,
            "status": self._op_status,
            "result": self._op_result,
            "cancel": self._op_cancel,
            "jobs": self._op_jobs,
            "stats": self._op_stats,
            "drain": self._op_drain,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            return error_payload(CODE_BAD_REQUEST, f"unknown op {op!r}")
        return handler(payload)

    def _op_ping(self, payload: dict) -> dict:
        return {"ok": True, "pid": os.getpid(), "draining": self._draining}

    def _op_submit(self, payload: dict) -> dict:
        try:
            spec = validate_job_payload(payload.get("job"))
        except ValidationFailure as exc:
            self._count_reject(exc.code)
            return {"ok": False, "error": exc.payload()}
        if self._draining:
            self._count_reject(CODE_DRAINING)
            return error_payload(
                CODE_DRAINING, "daemon is draining; not admitting jobs"
            )
        injector = get_fault_injector()
        if injector is not None:
            # job-level fault site: an admission crash after validation
            # must reach the client as a structured internal error, and
            # a retry of the same key must succeed
            injector.maybe_raise(SITE_JOB_ADMIT, key=spec.key)
        with self._admission_lock:
            existing = self.journal.by_key(spec.key)
            if existing is not None:
                if existing.spec.fingerprint() == spec.fingerprint():
                    return {
                        "ok": True,
                        "id": existing.job_id,
                        "state": existing.state,
                        "deduplicated": True,
                    }
                self._count_reject(CODE_KEY_CONFLICT)
                return error_payload(
                    CODE_KEY_CONFLICT,
                    f"job key {spec.key!r} was already submitted with a "
                    "different specification",
                )
            active = len(self.journal.active_jobs())
            if active >= self.queue_limit:
                self._count_reject(CODE_QUEUE_FULL)
                return error_payload(
                    CODE_QUEUE_FULL,
                    f"admission queue is full ({active}/{self.queue_limit} "
                    "active jobs); retry after some finish",
                )
            if injector is not None:
                injector.maybe_raise(SITE_JOURNAL_IO, key=spec.key)
            record = JobRecord(job_id=f"job-{self.journal.next_seq():06d}", spec=spec)
            self.journal.admit(record)
        self._admitted_at[record.job_id] = time.monotonic()
        self.scheduler.submit(record)
        self._session_emit(
            "service.job_submitted",
            job=record.job_id,
            key=spec.key,
            cells=len(record.cells),
            deduplicated=False,
        )
        self._touch_gauges()
        return {
            "ok": True,
            "id": record.job_id,
            "state": record.state,
            "deduplicated": False,
        }

    def _count_reject(self, code: str) -> None:
        self._session_emit("service.job_rejected", code=code)
        registry = self._registry()
        if registry is not None:
            registry.counter("repro_service_rejects_total", code=code).inc()

    def _find(self, payload: dict) -> Optional[JobRecord]:
        job_id = payload.get("id")
        if job_id is not None:
            return self.journal.get(str(job_id))
        key = payload.get("key")
        if key is not None:
            return self.journal.by_key(str(key))
        return None

    def _status_with_deadline(self, record: JobRecord) -> dict:
        status = record.status_payload()
        status["deadline"] = record.spec.deadline
        exceeded = False
        if record.spec.deadline is not None:
            admitted = self._admitted_at.get(record.job_id)
            if admitted is not None:
                exceeded = time.monotonic() - admitted > record.spec.deadline
        status["deadline_exceeded"] = exceeded
        return status

    def _op_status(self, payload: dict) -> dict:
        record = self._find(payload)
        if record is None:
            return error_payload(CODE_NOT_FOUND, "no such job")
        return {"ok": True, "job": self._status_with_deadline(record)}

    def _op_result(self, payload: dict) -> dict:
        record = self._find(payload)
        if record is None:
            return error_payload(CODE_NOT_FOUND, "no such job")
        return {
            "ok": True,
            "job": self._status_with_deadline(record),
            "cells": record.cells,
        }

    def _op_cancel(self, payload: dict) -> dict:
        """Cancel a job by id or key.

        Queued jobs settle immediately; a running job's in-flight cells
        drain and are written off at the next cell boundary (the worker
        pool is never torn down for a cancellation).  Cancelling a job
        that is already terminal is a no-op acknowledged with its state.
        """
        record = self._find(payload)
        if record is None:
            return error_payload(CODE_NOT_FOUND, "no such job")
        if record.terminal:
            return {
                "ok": True,
                "id": record.job_id,
                "state": record.state,
                "cancelled": False,
            }
        accepted = self.scheduler.cancel(record.job_id)
        if not accepted:
            # not active in the scheduler (e.g. a drained daemon holds
            # it queued in the journal only): journal the cancel here
            record.cancel()
            self.journal.update(record)
            self._session_emit(
                "service.job_cancelled", job=record.job_id, key=record.spec.key
            )
            registry = self._registry()
            if registry is not None:
                registry.counter(
                    "repro_service_jobs_total", status="cancelled"
                ).inc()
        self._touch_gauges()
        return {
            "ok": True,
            "id": record.job_id,
            "state": record.state,
            "cancelled": True,
        }

    def _op_jobs(self, payload: dict) -> dict:
        return {
            "ok": True,
            "jobs": [
                self._status_with_deadline(record)
                for record in self.journal.jobs()
            ],
        }

    def _op_stats(self, payload: dict) -> dict:
        return {
            "ok": True,
            "queue_depth": self.scheduler.queue_depth(),
            "inflight": self.scheduler.inflight_count(),
            "active_jobs": self.scheduler.active_jobs(),
            "jobs_total": len(self.journal.jobs()),
            "draining": self._draining,
        }

    def _op_drain(self, payload: dict) -> dict:
        self._draining = True
        self.scheduler.drain()
        return {"ok": True, "draining": True}

    def _op_shutdown(self, payload: dict) -> dict:
        # only the ack here: _after_reply wakes serve_forever once the
        # ack has reached the client, so the drain never races it
        return {"ok": True, "stopping": True}

    def _after_reply(self, request: dict, response: dict) -> None:
        if request.get("op") == "shutdown" and response.get("ok"):
            self._stop_event.set()
