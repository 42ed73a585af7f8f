"""The daemon's request server: newline-delimited JSON over TCP.

One request is one JSON object on one line; one response is one JSON
line back.  Every response carries ``"ok"``: ``true`` with the result
fields, or ``false`` with a structured ``"error": {"code", "message"}``
— the server never writes a traceback to the wire, whatever the
handler does (defects are mapped to ``{"code": "internal"}``).

The server binds loopback on an ephemeral port and publishes its
address in ``<state>/endpoint.json`` (written atomically), which is how
``repro submit``/``repro jobs`` and :class:`repro.service.ServiceClient`
discover a running daemon.  The file is removed on graceful shutdown;
a stale file left by a SIGKILLed daemon is detected by the client's
connection failure and carries the dead daemon's pid for diagnosis.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
from typing import Callable, Optional, Tuple

__all__ = ["ApiServer", "error_payload", "read_endpoint", "ENDPOINT_FILE"]

ENDPOINT_FILE = "endpoint.json"

#: wire error codes (documented in docs/SERVICE.md)
CODE_BAD_REQUEST = "bad-request"
CODE_KEY_CONFLICT = "key-conflict"
CODE_QUEUE_FULL = "queue-full"
CODE_DRAINING = "draining"
CODE_NOT_FOUND = "not-found"
CODE_INTERNAL = "internal"


def error_payload(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def read_endpoint(state_dir: str) -> Optional[dict]:
    """The published endpoint of *state_dir*'s daemon, if any."""
    try:
        with open(
            os.path.join(state_dir, ENDPOINT_FILE), "r", encoding="utf-8"
        ) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        dispatch = self.server.dispatch  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            payload = None
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                response = error_payload(
                    CODE_BAD_REQUEST, f"invalid JSON: {exc}"
                )
            else:
                try:
                    response = dispatch(payload)
                except Exception as exc:
                    # the structured-error guarantee: a handler defect
                    # reaches the client as a payload, not a traceback
                    response = error_payload(
                        CODE_INTERNAL, f"{type(exc).__name__}: {exc}"
                    )
            try:
                self.wfile.write(
                    (json.dumps(response) + "\n").encode("utf-8")
                )
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            after_reply = self.server.after_reply  # type: ignore[attr-defined]
            if after_reply is not None and isinstance(payload, dict):
                after_reply(payload, response)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ApiServer:
    """The NDJSON request server plus its endpoint discovery file."""

    def __init__(
        self,
        state_dir: str,
        dispatch: Callable[[dict], dict],
        host: str = "127.0.0.1",
        port: int = 0,
        after_reply: Optional[Callable[[dict, dict], None]] = None,
    ) -> None:
        self.state_dir = state_dir
        self._server = _Server((host, port), _Handler)
        self._server.dispatch = dispatch  # type: ignore[attr-defined]
        #: called with (request, response) once a response is flushed
        #: to the client — e.g. to start a shutdown only after its ack
        self._server.after_reply = after_reply  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint_path(self) -> str:
        return os.path.join(self.state_dir, ENDPOINT_FILE)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-api",
            daemon=True,
        )
        self._thread.start()
        self._publish_endpoint()

    def _publish_endpoint(self) -> None:
        host, port = self.address
        payload = {"host": host, "port": port, "pid": os.getpid()}
        tmp_path = f"{self.endpoint_path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.endpoint_path)

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        try:
            os.remove(self.endpoint_path)
        except OSError:
            pass
