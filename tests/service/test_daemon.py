"""Daemon admission control, scheduling policy, and the wire contract.

Most of these tests drive :meth:`ServiceDaemon._dispatch` directly on a
daemon whose scheduler thread was never started: admitted jobs then
stay active forever, which makes admission-control outcomes
(idempotency, key conflicts, queue-full backpressure, draining)
deterministic and pool-free.  The end-to-end lifecycle (real worker
pool, real socket) lives in the ``slow``-marked class at the bottom.
"""

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.resilience.faults import (
    SITE_JOB_ADMIT,
    SITE_JOURNAL_IO,
    FaultPlan,
    FaultSpec,
    install_fault_plan,
)
from repro.service import ServiceClient, ServiceDaemon
from repro.service.client import ServiceUnavailable
from repro.service.api import ApiServer
from repro.service.journal import JobJournal
from repro.service.scheduler import CellScheduler


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def job_payload(key, **overrides):
    payload = {
        "key": key,
        "machines": ["pentium4"],
        "scenarios": ["adapt"],
        "metrics": ["running"],
        "population": 4,
        "generations": 1,
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def idle_daemon(tmp_path):
    """A daemon that admits and journals but never dispatches."""
    return ServiceDaemon(str(tmp_path / "state"), queue_limit=2)


def submit(daemon, key, **overrides):
    return daemon._dispatch({"op": "submit", "job": job_payload(key, **overrides)})


class TestAdmissionControl:
    def test_admission_journals_before_ack(self, idle_daemon):
        response = submit(idle_daemon, "alpha")
        assert response["ok"] and not response["deduplicated"]
        job_id = response["id"]
        # a fresh journal instance sees the job: it was on disk first
        twin = JobJournal(idle_daemon.state_dir)
        assert twin.get(job_id).spec.key == "alpha"

    def test_resubmission_same_spec_dedups(self, idle_daemon):
        first = submit(idle_daemon, "alpha")
        again = submit(idle_daemon, "alpha")
        assert again["ok"] and again["deduplicated"]
        assert again["id"] == first["id"]
        assert len(idle_daemon.journal.jobs()) == 1

    def test_resubmission_different_spec_is_a_conflict(self, idle_daemon):
        submit(idle_daemon, "alpha")
        conflict = submit(idle_daemon, "alpha", seed=99)
        assert not conflict["ok"]
        assert conflict["error"]["code"] == "key-conflict"
        # scheduling-only fields do NOT conflict: same results, same job
        relabelled = submit(idle_daemon, "alpha", priority=7)
        assert relabelled["ok"] and relabelled["deduplicated"]

    def test_queue_full_is_explicit_backpressure(self, idle_daemon):
        assert submit(idle_daemon, "one")["ok"]
        assert submit(idle_daemon, "two")["ok"]
        rejected = submit(idle_daemon, "three")
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "queue-full"
        assert "2/2" in rejected["error"]["message"]
        # backpressure, not a tarpit: dedup of an admitted key still works
        assert submit(idle_daemon, "one")["deduplicated"]

    def test_draining_rejects_new_work(self, idle_daemon):
        assert idle_daemon._dispatch({"op": "drain"})["draining"]
        rejected = submit(idle_daemon, "late")
        assert rejected["error"]["code"] == "draining"

    def test_invalid_job_is_a_structured_bad_request(self, idle_daemon):
        rejected = submit(idle_daemon, "bad", metrics=["latency"])
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "bad-request"
        assert "latency" in rejected["error"]["message"]
        assert len(idle_daemon.journal.jobs()) == 0

    def test_unknown_op_and_malformed_request(self, idle_daemon):
        assert idle_daemon._dispatch({"op": "fly"})["error"]["code"] == "bad-request"
        assert idle_daemon._dispatch([1, 2])["error"]["code"] == "bad-request"

    def test_status_and_result_lookup(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        by_id = idle_daemon._dispatch({"op": "status", "id": job_id})
        by_key = idle_daemon._dispatch({"op": "status", "key": "alpha"})
        assert by_id["job"]["id"] == by_key["job"]["id"] == job_id
        assert by_id["job"]["state"] == "queued"
        missing = idle_daemon._dispatch({"op": "status", "id": "job-999999"})
        assert missing["error"]["code"] == "not-found"
        result = idle_daemon._dispatch({"op": "result", "id": job_id})
        assert set(result["cells"]) == {"adapt:running@pentium4"}

    def test_stats_reflect_admissions(self, idle_daemon):
        submit(idle_daemon, "alpha")
        stats = idle_daemon._dispatch({"op": "stats"})
        assert stats["jobs_total"] == 1
        assert stats["queue_depth"] == 1
        assert stats["inflight"] == 0
        assert stats["draining"] is False

    def test_deadline_is_advisory_bookkeeping(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha", deadline=0.01)["id"]
        time.sleep(0.05)
        status = idle_daemon._dispatch({"op": "status", "id": job_id})["job"]
        assert status["deadline"] == 0.01
        assert status["deadline_exceeded"] is True
        assert status["state"] == "queued"  # never cancelled by a deadline


class TestAdmissionFaults:
    """Injected admission crashes must keep the API contract."""

    def plan(self, tmp_path, site):
        return FaultPlan(
            sites={site: FaultSpec(probability=1.0, max_fires=1)},
            seed=7,
            marker_dir=str(tmp_path / "markers"),
        )

    def roundtrip(self, api, payload):
        host, port = api.address
        with socket.create_connection((host, port), timeout=5.0) as conn:
            conn.sendall((json.dumps(payload) + "\n").encode())
            with conn.makefile("r") as reader:
                return json.loads(reader.readline())

    @pytest.mark.parametrize("site", [SITE_JOB_ADMIT, SITE_JOURNAL_IO])
    def test_admission_crash_is_internal_and_retryable(self, tmp_path, site):
        install_fault_plan(self.plan(tmp_path, site))
        daemon = ServiceDaemon(str(tmp_path / "state"), queue_limit=8)
        api = ApiServer(daemon.state_dir, daemon._dispatch)
        api.start()
        try:
            request = {"op": "submit", "job": job_payload("faulted")}
            crashed = self.roundtrip(api, request)
            assert not crashed["ok"]
            assert crashed["error"]["code"] == "internal"
            assert "Traceback" not in crashed["error"]["message"]
            # the job was never acked, so it must not be journalled ...
            assert daemon.journal.by_key("faulted") is None
            # ... and the client's retry of the same key succeeds
            retried = self.roundtrip(api, request)
            assert retried["ok"] and not retried["deduplicated"]
        finally:
            api.stop()


class TestApiServer:
    @pytest.fixture
    def served(self, tmp_path):
        def dispatch(payload):
            if payload.get("boom"):
                raise RuntimeError("handler defect")
            return {"ok": True, "echo": payload}

        api = ApiServer(str(tmp_path), dispatch)
        api.start()
        yield api
        api.stop()

    def lines(self, api, *raw_lines):
        host, port = api.address
        responses = []
        with socket.create_connection((host, port), timeout=5.0) as conn:
            with conn.makefile("rw") as stream:
                for raw in raw_lines:
                    stream.write(raw + "\n")
                    stream.flush()
                    responses.append(json.loads(stream.readline()))
        return responses

    def test_malformed_json_is_bad_request_and_nonfatal(self, served):
        broken, healthy = self.lines(served, "{not json", '{"op": "ping"}')
        assert broken["error"]["code"] == "bad-request"
        # the connection survives a bad line: NDJSON framing is per-line
        assert healthy["ok"]

    def test_handler_defect_never_writes_a_traceback(self, served):
        (response,) = self.lines(served, '{"boom": true}')
        assert response["error"]["code"] == "internal"
        assert "handler defect" in response["error"]["message"]
        assert "Traceback" not in json.dumps(response)

    def test_endpoint_lifecycle(self, tmp_path, served):
        endpoint = json.load(open(served.endpoint_path))
        assert (endpoint["host"], endpoint["port"]) == served.address
        assert endpoint["pid"] > 0


class TestStrideScheduling:
    """The dispatch policy, simulated without a pool (lock held calls)."""

    def make(self, tmp_path, quota=100):
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(
            str(tmp_path / "state"), journal, workers=1, quota=quota
        )
        return journal, scheduler

    def admit(self, journal, scheduler, key, job_id, **overrides):
        from repro.service.jobs import JobRecord, validate_job_payload

        payload = {
            "key": key,
            "machines": ["pentium4", "powerpc-g4"],
            "scenarios": ["adapt", "opt"],
            "metrics": ["running", "total", "balance"],
        }
        payload.update(overrides)
        record = JobRecord(job_id=job_id, spec=validate_job_payload(payload))
        journal.admit(record)
        scheduler.submit(record)
        return record

    def simulate_dispatches(self, scheduler, count):
        """Replay the scheduler's pick-advance cycle without executing."""
        picks = []
        for _ in range(count):
            with scheduler._cond:
                picked = scheduler._pick_next(time.monotonic())
                if picked is None:
                    break
                job, cell = picked
                cell.inflight = True
                job.inflight += 1
                job.pass_value += job.stride
                picks.append(job.record.job_id)
        return picks

    def test_dispatch_share_is_proportional_to_priority(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(journal, scheduler, "low", "job-000001", priority=1)
        self.admit(journal, scheduler, "high", "job-000002", priority=4)
        picks = self.simulate_dispatches(scheduler, 10)
        assert picks.count("job-000002") == 8
        assert picks.count("job-000001") == 2

    def test_equal_priority_ties_break_by_admission_order(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(journal, scheduler, "first", "job-000001")
        self.admit(journal, scheduler, "second", "job-000002")
        picks = self.simulate_dispatches(scheduler, 4)
        assert picks == ["job-000001", "job-000002"] * 2

    def test_quota_caps_one_job_and_capacity_flows_on(self, tmp_path):
        journal, scheduler = self.make(tmp_path, quota=2)
        self.admit(journal, scheduler, "wide", "job-000001", priority=50)
        self.admit(journal, scheduler, "narrow", "job-000002", priority=1)
        picks = self.simulate_dispatches(scheduler, 6)
        # the wide job's huge priority cannot occupy more than its quota
        # slots; the freed capacity flows to the narrow job, and once
        # both sit at quota nothing is runnable at all
        assert len(picks) == 4
        assert picks.count("job-000001") == 2
        assert picks.count("job-000002") == 2

    def test_backed_off_cells_are_not_runnable(self, tmp_path):
        journal, scheduler = self.make(tmp_path)
        self.admit(
            journal, scheduler, "only", "job-000001",
            machines=["pentium4"], scenarios=["adapt"], metrics=["running"],
        )
        job = scheduler._jobs["job-000001"]
        job.cells[0].ready_at = time.monotonic() + 60.0
        with scheduler._cond:
            assert scheduler._pick_next(time.monotonic()) is None

    def test_recovered_done_cells_are_not_requeued(self, tmp_path):
        from repro.service.scheduler import _cells_for

        journal, scheduler = self.make(tmp_path)
        record = self.admit(
            journal, scheduler, "half", "job-000001",
            machines=["pentium4"], scenarios=["adapt", "opt"],
            metrics=["running"],
        )
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        record.cells["opt:running@pentium4"] = {"state": "failed", "error": "x"}
        requeued = [cell.name for cell in _cells_for(record)]
        # done results stand; a failed cell gets a fresh attempt budget
        assert requeued == ["opt:running@pentium4"]


@pytest.mark.slow
class TestEndToEnd:
    """One real daemon: socket API, worker pool, journal, teardown."""

    def test_job_lifecycle_over_the_wire(self, tmp_path):
        state = str(tmp_path / "state")
        daemon = ServiceDaemon(state, workers=1, queue_limit=8)
        daemon.start()
        client = ServiceClient(state)
        try:
            client.wait_ready(timeout=10.0)
            submitted = client.submit(job_payload("e2e"))
            assert submitted["ok"], submitted
            job = client.wait_job(submitted["id"], timeout=120.0)
            assert job["state"] == "done"
            assert job["cells_done"] == job["cells"] == 1

            result = client.result(submitted["id"])
            cell = result["cells"]["adapt:running@pentium4"]
            assert cell["state"] == "done"
            assert cell["evaluations"] > 0
            assert isinstance(cell["tuned"]["fitness"], float)
            assert cell["tuned"]["params"]

            # a finished job still dedups: results are client-retrievable
            again = client.submit(job_payload("e2e"))
            assert again["deduplicated"] and again["id"] == submitted["id"]
        finally:
            daemon.stop()
        # graceful teardown removes discovery state and persists results
        assert not (tmp_path / "state" / "endpoint.json").exists()
        twin = JobJournal(state)
        assert twin.get(submitted["id"]).state == "done"


@pytest.mark.slow
class TestShutdownAck:
    """The ``shutdown`` op's ack reaches the client before the daemon
    process exits, every time — even an idle daemon, whose drain is
    fast enough to race the reply."""

    ROUNDS = 20

    def test_idle_daemon_acks_every_shutdown(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [REPO_SRC, env.get("PYTHONPATH")])
        )
        lost = []
        for round_no in range(self.ROUNDS):
            state = str(tmp_path / f"state-{round_no}")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--dir", state,
                 "--workers", "1"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                client = ServiceClient(state)
                client.wait_ready(timeout=60.0, poll=0.05)
                try:
                    ack = client.shutdown()
                except ServiceUnavailable as exc:
                    lost.append(f"round {round_no}: {exc}")
                else:
                    assert ack == {"ok": True, "stopping": True}
                assert proc.wait(timeout=60) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert lost == []


class TestCancellation:
    """The cancel op, pool-free: queued jobs settle immediately; the
    in-flight write-off path is driven through the scheduler's own
    boundary hooks (the slow e2e class covers the wire)."""

    def test_cancel_queued_job_is_immediate_and_journalled(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        response = idle_daemon._dispatch({"op": "cancel", "id": job_id})
        assert response["ok"] and response["cancelled"]
        assert response["state"] == "cancelled"
        record = idle_daemon.journal.get(job_id)
        assert record.state == "cancelled" and record.terminal
        # journalled before the ack: a fresh journal instance agrees
        twin = JobJournal(idle_daemon.state_dir)
        assert twin.get(job_id).state == "cancelled"
        # the scheduler dropped the job from its active set
        assert idle_daemon.scheduler.active_jobs() == 0
        with idle_daemon.scheduler._cond:
            assert idle_daemon.scheduler._pick_next(time.monotonic()) is None

    def test_cancel_by_key(self, idle_daemon):
        submit(idle_daemon, "alpha")
        response = idle_daemon._dispatch({"op": "cancel", "key": "alpha"})
        assert response["ok"] and response["cancelled"]

    def test_cancel_unknown_job_is_not_found(self, idle_daemon):
        response = idle_daemon._dispatch({"op": "cancel", "id": "job-999999"})
        assert not response["ok"]
        assert response["error"]["code"] == "not-found"

    def test_cancel_terminal_job_is_an_acknowledged_noop(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        record = idle_daemon.journal.get(job_id)
        record.cell_done("adapt:running@pentium4", {"fitness": 1.0}, 8)
        idle_daemon.journal.update(record)
        idle_daemon.scheduler._jobs.pop(job_id, None)
        response = idle_daemon._dispatch({"op": "cancel", "id": job_id})
        assert response["ok"] and not response["cancelled"]
        assert response["state"] == "done"

    def test_cancelled_job_stays_cancelled_after_recovery(self, idle_daemon):
        job_id = submit(idle_daemon, "alpha")["id"]
        idle_daemon._dispatch({"op": "cancel", "id": job_id})
        twin = JobJournal(idle_daemon.state_dir)
        # a restarted daemon must not resume a cancelled job's cells
        assert [r.job_id for r in twin.active_jobs()] == []

    def test_inflight_cell_is_written_off_at_the_boundary(self, tmp_path):
        events = []
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(
            str(tmp_path / "state"), journal, workers=1,
            events=lambda kind, **fields: events.append((kind, fields)),
        )
        from repro.service.jobs import JobRecord, validate_job_payload

        record = JobRecord(
            job_id="job-000001",
            spec=validate_job_payload(
                {
                    "key": "inflight",
                    "machines": ["pentium4"],
                    "scenarios": ["adapt", "opt"],
                    "metrics": ["running"],
                }
            ),
        )
        journal.admit(record)
        scheduler.submit(record)
        job = scheduler._jobs["job-000001"]
        flying = job.cells[0]
        flying.inflight = True
        job.inflight = 1

        assert scheduler.cancel("job-000001") is True
        # the queued sibling settled immediately; the in-flight cell is
        # still draining, so the job has not been finalized yet
        assert job.cells[1].settled and not flying.settled
        assert record.state == "cancelled"
        assert "job-000001" in scheduler._jobs

        # the cell boundary: _consume's bookkeeping then the result
        # landing, which must be written off, not journalled as done
        with scheduler._cond:
            flying.inflight = False
            job.inflight -= 1
        scheduler._record_success(job, flying, outcome=None)
        assert flying.settled
        assert record.cells[flying.name]["state"] == "cancelled"
        assert "job-000001" not in scheduler._jobs
        kinds = [kind for kind, _ in events]
        assert "cell_written_off" in kinds
        assert kinds.count("job_cancelled") == 1
        assert "cell_done" not in kinds

    def test_cancelled_job_cells_never_run_afterwards(self, tmp_path):
        journal = JobJournal(str(tmp_path / "state"))
        scheduler = CellScheduler(str(tmp_path / "state"), journal, workers=1)
        from repro.service.jobs import JobRecord, validate_job_payload

        record = JobRecord(
            job_id="job-000001",
            spec=validate_job_payload(
                {
                    "key": "soon-gone",
                    "machines": ["pentium4", "powerpc-g4"],
                    "scenarios": ["adapt"],
                    "metrics": ["running"],
                }
            ),
        )
        journal.admit(record)
        scheduler.submit(record)
        assert scheduler.cancel("job-000001") is True
        # nothing of the cancelled job is ever picked for dispatch again
        with scheduler._cond:
            assert scheduler._pick_next(time.monotonic()) is None
        assert scheduler.queue_depth() == 0


class TestShmHygiene:
    """Stale shared-memory segments are swept on daemon restart.

    A SIGKILLed daemon cannot unlink its published segments; the
    ``shm.json`` registry in the state dir lets its successor do it.
    """

    def test_stale_segments_swept_on_start(self, tmp_path):
        from repro.perf.shm import shared_memory_supported

        if not shared_memory_supported():
            pytest.skip("shared memory unavailable on this platform")
        import os

        import numpy as np

        from repro.perf.shm import SharedArraySegment

        state = tmp_path / "state"
        state.mkdir()
        orphan = SharedArraySegment.create(
            {"data": np.zeros(4, dtype=np.int64)}
        )
        name = orphan.name
        # simulate the SIGKILL: drop the handle without unlinking
        orphan.close()
        registry = state / "shm.json"
        registry.write_text(
            json.dumps({"segments": [name, "repro-never-existed"]})
        )

        journal = JobJournal(str(state))
        CellScheduler(str(state), journal, workers=1)

        with pytest.raises(FileNotFoundError):
            SharedArraySegment.attach(name, readonly=True)
        assert not registry.exists()

    def test_graceful_stop_clears_registry(self, tmp_path):
        state = tmp_path / "state"
        journal = JobJournal(str(state))
        scheduler = CellScheduler(str(state), journal, workers=1)
        scheduler.start()
        registry = state / "shm.json"
        assert registry.exists()
        scheduler.stop(wait_seconds=5.0)
        assert not registry.exists()

    def test_corrupt_registry_is_tolerated(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        (state / "shm.json").write_text("{not json")
        journal = JobJournal(str(state))
        CellScheduler(str(state), journal, workers=1)
        assert not (state / "shm.json").exists()
