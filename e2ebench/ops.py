"""One benchmark op in a fresh process: ``python e2ebench/ops.py SPEC``.

SPEC is a JSON file written by ``run.py``; the op writes its
measurements and outputs to ``spec["result"]``.  Every op kind first
does its set-up (interpreter, imports, kernel load, and for the
service a daemon that answers ``ping``), then records the monotonic
time of its first call into the timed operation, so the harness can
take ``setup_s`` from its own launch timestamp.

The op process makes itself a child subreaper, so orphaned grandchildren
(the service daemon's pool workers) are re-parented to it; it reaps
every descendant before reporting, which puts the CPU time and peak RSS
of the whole process tree into ``RUSAGE_CHILDREN``.

Op kinds:

``tune-cold``      generate one SPECjvm98 program set, then GA-tune
                   Opt:Bal and Adapt on pentium4, no store.
``campaign-fill``  the untimed cold campaign that fills a store tier.
``campaign-warm``  the same campaign against a copy of that tier.
``service``        a session of single-cell jobs against a fresh
                   ``repro serve --workers 2`` daemon (no jobs: a
                   set-up probe).
``cells``          ``execute_cell`` references for service jobs.
``reference``      ``run_reference`` fitness of tuned parameters.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36

#: GA budget of a tuned cell (the service's single-cell job size)
POPULATION = 8
GENERATIONS = 4

#: smaller GA budget of the campaign grid, so a run fits several inputs
CAMPAIGN_POPULATION = 6
CAMPAIGN_GENERATIONS = 2

#: status polling period of the service client (one ``jobs`` request)
POLL_S = 0.2


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):  # not Linux: children are still reaped
        pass


def _children() -> set:
    """Pids whose parent is this process."""
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    if int(handle.read().rsplit(")", 1)[1].split()[1]) == me:
                        found.add(int(entry))
            except (OSError, ValueError, IndexError):
                continue
    return found


def _tracker_pid():
    """The multiprocessing resource tracker, which lives until we exit."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    return getattr(getattr(tracker, "_resource_tracker", None), "_pid", None)


def _reap_all(keep=None, timeout: float = 60.0) -> bool:
    """Reap every descendant but *keep*; False if some outlived *timeout*."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return True
        if not _children() - {keep}:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)


def _stop_tracker() -> None:
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None and _tracker_pid() is not None:
        stop()


def _shm_names() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _proc_cpu(pid: int) -> float:
    """CPU seconds a live process has used so far (utime + stime)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _handles_sigterm(pid: int) -> bool:
    """Whether a live process has installed a SIGTERM handler."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("SigCgt:"):
                return bool(int(line.split()[1], 16) & (1 << (signal.SIGTERM - 1)))
    return False


def _mark_call(**extra) -> dict:
    """Measurements taken at the first call into the timed operation."""
    return dict(
        extra,
        t_call=time.monotonic(),
        cpu_call=_cpu_self(),
        cpu_children_call=_cpu_children(),
    )


def _ga_config(population: int = POPULATION, generations: int = GENERATIONS):
    """A GA budget built the way ``JobSpec.ga_config`` builds it."""
    from repro.ga.engine import GAConfig

    return GAConfig(population_size=population, generations=generations)


def _task(machine: str, scenario: str):
    """A balance tuning task named the way the service names its cells
    (the name keys the GA's random stream)."""
    from repro.arch import get_machine
    from repro.core.metrics import Metric
    from repro.core.tuner import TuningTask
    from repro.jvm.scenario import get_scenario

    return TuningTask(
        name=f"{scenario}:balance@{machine}",
        scenario=get_scenario(scenario),
        machine=get_machine(machine),
        metric=Metric.parse("balance"),
    )


def _tuned_fields(tuned) -> dict:
    """The result-determining fields of a tuned cell (no timings)."""
    return {
        "task": tuned.task_name,
        "params": list(tuned.params.as_tuple()),
        "fitness": tuned.fitness,
        "default_fitness": tuned.default_fitness,
        "evaluations": tuned.evaluations,
        "generations_run": tuned.generations_run,
    }


def _load_kernel() -> str:
    from repro.perf import native

    backend = native.get_backend()
    return backend.name if backend is not None else "numpy"


# ----------------------------------------------------------------------
def op_tune_cold(spec: dict) -> dict:
    from repro.core.tuner import InliningTuner
    from repro.workloads.suites import SPECJVM98

    backend = _load_kernel()
    config = _ga_config()
    tasks = [_task("pentium4", "opt"), _task("pentium4", "adapt")]
    out = _mark_call(backend=backend)
    programs = SPECJVM98.programs(seed=spec["workload_seed"])
    jobs, accel = [], []
    for task in tasks:  # both jobs are asked for at the call, served in turn
        tuner = InliningTuner(config)
        tuned = tuner.tune(task, programs)
        latency = time.monotonic() - out["t_call"]
        jobs.append(dict(_tuned_fields(tuned), latency_s=latency))
        accel.append(tuner.last_accelerator_stats or {})
    out["t_end"] = time.monotonic()
    out["cpu_end"] = _cpu_self()
    out["jobs"] = jobs
    out["method_lookups"] = sum(int(a.get("method_lookups", 0)) for a in accel)
    out["method_builds"] = sum(int(a.get("method_builds", 0)) for a in accel)
    out["evaluations"] = sum(job["evaluations"] for job in jobs)
    return out


def _campaign(spec: dict, progress=None):
    from repro.experiments.campaign import grid_tasks, run_campaign

    return run_campaign(
        grid_tasks(("pentium4", "powerpc-g4"), ("adapt", "opt"), ("balance",)),
        ga_config=_ga_config(CAMPAIGN_POPULATION, CAMPAIGN_GENERATIONS),
        store_path=spec["tier"],
        workload_seed=spec["workload_seed"],
        processes=2,
        progress=progress,
    )


def _tier_counters(path: str) -> dict:
    from repro.perf.storetier import StoreTier

    stats = StoreTier(path).stats()
    return {"hits": stats["hits"], "misses": stats["misses"]}


def op_campaign_fill(spec: dict) -> dict:
    result = _campaign(spec)
    jobs = [_tuned_fields(r.tuned) for r in result.results if r.tuned is not None]
    return {"ok": result.ok, "jobs": jobs}


def op_campaign_warm(spec: dict) -> dict:
    _load_kernel()
    before = _tier_counters(spec["tier"])
    done_at = {}

    def progress(line: str) -> None:
        if line.endswith(": done"):
            done_at[line[: -len(": done")]] = time.monotonic()

    out = _mark_call()
    result = _campaign(spec, progress)
    out["t_end"] = time.monotonic()
    out["cpu_end"] = _cpu_self()
    after = _tier_counters(spec["tier"])
    out["ok"] = result.ok
    out["jobs"] = []
    for cell in result.results:
        if cell.tuned is None:
            continue
        latency = done_at.get(cell.task_name, out["t_end"]) - out["t_call"]
        out["jobs"].append(dict(_tuned_fields(cell.tuned), latency_s=latency))
    totals = result.accelerator_totals()
    out["evaluations"] = result.total_evaluations
    out["retries"] = len(result.failures)
    out["method_lookups"] = int(totals.get("method_lookups", 0))
    out["method_builds"] = int(totals.get("method_builds", 0))
    out["tier_hits"] = after["hits"] - before["hits"]
    out["tier_misses"] = after["misses"] - before["misses"]
    return out


def op_service(spec: dict) -> dict:
    from repro.service.client import ServiceClient, ServiceUnavailable

    state_dir = spec["state_dir"]
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dir", state_dir, "--workers", "2"]
    )
    client = ServiceClient(state_dir)
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if client.ping().get("ok") and _handles_sigterm(daemon.pid):
                    break
            except ServiceUnavailable:
                pass
            if daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer ping")
            time.sleep(0.02)
        out = _mark_call(daemon_cpu_at_ready=_proc_cpu(daemon.pid))
        out.update(_session(client, spec["jobs"]))
        # SIGTERM is the daemon's documented graceful drain; the ack of
        # the ``shutdown`` op can be lost when an idle daemon exits first
        daemon.send_signal(signal.SIGTERM)
        if daemon.wait(timeout=120) != 0:
            raise RuntimeError(f"daemon exited with {daemon.returncode}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    out["t_end"] = time.monotonic()
    out["cpu_end"] = _cpu_self()
    if spec["jobs"]:
        tier = _tier_counters(os.path.join(state_dir, "tier"))
        out["tier_hits"], out["tier_misses"] = tier["hits"], tier["misses"]
    return out


def _session(client, entries) -> dict:
    """Closed loop with two jobs outstanding; resubmits ride along."""
    submitted, latency, ids, dedup = {}, {}, {}, []
    outstanding = set()
    queue = list(entries)
    while queue or outstanding:
        while queue and (len(outstanding) < 2 or queue[0].get("resubmit")):
            entry = queue.pop(0)
            job = {
                "key": entry["key"],
                "machines": [entry["machine"]],
                "scenarios": [entry["scenario"]],
                "metrics": ["balance"],
                "population": POPULATION,
                "generations": GENERATIONS,
                "workload_seed": entry["workload_seed"],
            }
            now = time.monotonic()
            response = client.submit(job)
            if not response.get("ok"):
                raise RuntimeError(f"submit refused: {response}")
            if entry.get("resubmit"):
                dedup.append(
                    {
                        "key": entry["key"],
                        "deduplicated": bool(response.get("deduplicated")),
                        "same_id": response.get("id") == ids.get(entry["key"]),
                    }
                )
                continue
            ids[entry["key"]] = response["id"]
            submitted[response["id"]] = now
            outstanding.add(response["id"])
        if not outstanding:
            continue
        time.sleep(POLL_S)
        states = {job["id"]: job["state"] for job in client.jobs()["jobs"]}
        now = time.monotonic()
        for job_id in list(outstanding):
            if states.get(job_id) in ("done", "failed", "cancelled"):
                latency[job_id] = now - submitted[job_id]
                outstanding.discard(job_id)
    jobs = []
    for key, job_id in ids.items():
        reply = client.result(job_id)
        cells = reply.get("cells", {})
        for name, cell in cells.items():
            tuned = cell.get("tuned") or {}
            jobs.append(
                {
                    "key": key,
                    "id": job_id,
                    "state": reply["job"]["state"],
                    "task": name,
                    "params": tuned.get("params"),
                    "fitness": tuned.get("fitness"),
                    "default_fitness": tuned.get("default_fitness"),
                    "evaluations": tuned.get("evaluations"),
                    "generations_run": tuned.get("generations_run"),
                    "latency_s": latency[job_id],
                }
            )
    stats = client.stats()
    return {
        "jobs": jobs,
        "dedup": dedup,
        "jobs_total": stats.get("jobs_total"),
        "evaluations": sum(job["evaluations"] or 0 for job in jobs),
    }


def op_cells(spec: dict) -> dict:
    from repro.experiments.campaign import CellRequest, execute_cell

    jobs = []
    for entry in spec["cells"]:
        outcome = execute_cell(
            CellRequest(
                task=_task(entry["machine"], entry["scenario"]),
                ga_config=_ga_config(),
                workload_seed=entry["workload_seed"],
            )
        )
        jobs.append(dict(_tuned_fields(outcome.tuned), key=entry["key"]))
    return {"jobs": jobs}


def op_reference(spec: dict) -> dict:
    """Fitness of each tuned genome recomputed on ``run_reference``."""
    from repro.core.metrics import geometric_mean, perf_value
    from repro.jvm.inlining import JIKES_DEFAULT_PARAMETERS, InliningParameters
    from repro.jvm.runtime import VirtualMachine
    from repro.workloads.suites import SPECJVM98

    jobs = []
    for entry in spec["checks"]:
        task = _task(entry["machine"], entry["scenario"])
        programs = SPECJVM98.programs(seed=entry["workload_seed"])
        vm = VirtualMachine(task.machine, task.scenario)
        params = InliningParameters.from_sequence(entry["params"])
        values = [
            perf_value(
                task.metric,
                vm.run_reference(program, params),
                vm.run_reference(program, JIKES_DEFAULT_PARAMETERS),
            )
            for program in programs
        ]
        jobs.append({"fitness": geometric_mean(values)})
    return {"jobs": jobs}


OPS = {
    "tune-cold": op_tune_cold,
    "campaign-fill": op_campaign_fill,
    "campaign-warm": op_campaign_warm,
    "service": op_service,
    "cells": op_cells,
    "reference": op_reference,
}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    _become_subreaper()
    shm_before = _shm_names()
    out = OPS[spec["kind"]](spec)
    out["reaped"] = _reap_all(keep=_tracker_pid())
    # before the resource tracker's exit-time sweep can hide a leak
    out["shm_left"] = sorted(_shm_names() - shm_before)
    _stop_tracker()
    out["reaped"] &= _reap_all()
    out["cpu_children_end"] = _cpu_children()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_rss, child_rss) / 1024.0
    out["hooks"] = ["e2etrace"] if "e2etrace" in sys.modules else []
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
