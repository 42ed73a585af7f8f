"""End-to-end benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tune-cold --seed 0 --seconds 20 --trace 0

The run sets up (kernel build, workload preparation, reference
results), runs one untimed warm-up op, then runs ops over a fixed list
of inputs derived from ``--seed`` until ``--seconds`` have passed and at
least one whole pass is done; only whole passes count.  Every op is a
fresh process (see ``ops.py``) and every output is checked.  The last
line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORK_DIR = ".e2ebench"
OP_TIMEOUT_S = 150.0
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-"
MACHINES = ("pentium4", "powerpc-g4")
SCENARIOS = ("adapt", "opt")


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


# ----------------------------------------------------------------------
# process hygiene
def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def _tagged_pids(tag: str) -> List[int]:
    """Live processes whose environment carries this op's tag."""
    needle = f"E2E_OP_TAG={tag}\0".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def _end_tagged(tag: str, reap: bool) -> int:
    """Give an op's processes 5 s to end, then kill them; returns how
    many were still running."""
    deadline = time.monotonic() + 5
    leftovers = _tagged_pids(tag)
    while leftovers and time.monotonic() < deadline:
        time.sleep(0.05)
        if reap:
            _reap_orphans()
        leftovers = _tagged_pids(tag)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while leftovers and _tagged_pids(tag) and time.monotonic() < deadline:
        _reap_orphans()
        time.sleep(0.05)
    return len(leftovers)


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _shm_names() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


# ----------------------------------------------------------------------
class Harness:
    """Launches op processes and keeps the run's books."""

    def __init__(self, root: str, name: str) -> None:
        self.root = root
        self.work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
        self.kernels = os.path.join(root, WORK_DIR, "kernels")
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self._serial = 0
        self._lock = threading.Lock()

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def _env(self, tag: str, trace_dir: Optional[str]) -> dict:
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src")]
        env.pop("E2E_TRACE_DIR", None)
        if trace_dir is not None:
            paths.append(os.path.join(HERE, "hook"))
            env["E2E_TRACE_DIR"] = trace_dir
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["E2E_OP_TAG"] = tag
        env["REPRO_KERNEL_CACHE"] = self.kernels
        env["REPRO_CACHE_DIR"] = self.path("cache")
        env["TMPDIR"] = self.path("tmp")
        return env

    def launch(
        self, kind: str, spec: dict, trace: bool = False, exclusive: bool = True
    ) -> Optional[dict]:
        """Run one op process; None (and a counted failure) on any fault.

        An *exclusive* op runs alone, so the harness may reap any orphan
        and attribute every new /dev/shm segment to it.
        """
        with self._lock:
            self._serial += 1
            serial = self._serial
            self.attempted += 1
        tag = f"{os.getpid()}-{serial}"
        op_dir = self.path(f"op-{serial}")
        os.makedirs(op_dir)
        trace_dir = os.path.join(op_dir, "trace") if trace else None
        spec = dict(spec, kind=kind, result=os.path.join(op_dir, "result.json"))
        spec_path = os.path.join(op_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        log_path = os.path.join(op_dir, "log.txt")
        shm_before = _shm_names()
        error = None
        with open(log_path, "wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "ops.py"), spec_path],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self._env(tag, trace_dir),
                cwd=self.root,
            )
            try:
                code = proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
                error = "timed out"
        if error is None and code != 0:
            error = f"exit code {code}"
        leftovers = _end_tagged(tag, reap=exclusive)
        if leftovers and error is None:
            error = f"{leftovers} process(es) left running"
        leaked = set()
        if exclusive:
            _reap_orphans()
            leaked = _shm_names() - shm_before
        for name in leaked:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
        if leaked and error is None:
            error = f"{len(leaked)} /dev/shm segment(s) leaked"
        result = None
        if error is None:
            with open(spec["result"], encoding="utf-8") as handle:
                result = json.load(handle)
            if not result.get("reaped", False):
                error = "op did not reap its process tree"
            elif result.get("shm_left"):
                error = f"/dev/shm segments left behind: {result['shm_left']}"
            elif not trace and result.get("hooks"):
                error = f"untraced op loaded tracing hooks {result['hooks']}"
            elif trace and "e2etrace" not in result.get("hooks", ()):
                error = "traced op did not load the tracing hook"
        if error is not None:
            with open(log_path, "rb") as handle:
                tail = handle.read()[-2000:].decode("utf-8", "replace")
            self.reject(f"{kind} op failed: {error}\n{tail}")
            return None
        result["launched"] = launched
        result["trace_dir"] = trace_dir
        return result

    def reject(self, message: str) -> None:
        """Count a failed op: it crashed or its output was wrong."""
        with self._lock:
            self.failed += 1
        print(f"e2ebench: {message}", file=sys.stderr)

    def parallel(self, kind: str, specs: List[dict]) -> List[Optional[dict]]:
        """Run independent helper ops two at a time (never timed)."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            replies = list(
                pool.map(lambda spec: self.launch(kind, spec, exclusive=False), specs)
            )
        _reap_orphans()
        return replies

    def build_kernel(self) -> None:
        """Compile the C kernel into the benchmark's own cache."""
        env = self._env(f"{os.getpid()}-build", None)
        code = (
            "from repro.perf import native\n"
            "backend = native.get_backend()\n"
            "print(backend.name if backend is not None else 'numpy')\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=self.root, check=True,
            capture_output=True, timeout=600,
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# measurements of one op
def op_measures(result: dict) -> dict:
    cpu = (result["cpu_end"] - result["cpu_call"]) + (
        result["cpu_children_end"] - result["cpu_children_call"]
    ) - result.get("daemon_cpu_at_ready", 0.0)
    return {
        "setup_s": result["t_call"] - result["launched"],
        "op_s": result["t_end"] - result["t_call"],
        "cpu_s": cpu,
        "peak_rss_mb": result["peak_rss_mb"],
        "jobs": len(result["jobs"]),
        "latency_p50_s": statistics.median(job["latency_s"] for job in result["jobs"]),
        "fitness_pct": [
            100.0 * job["fitness"] / job["default_fitness"] for job in result["jobs"]
        ],
    }


def _outputs(result: dict, simulated: bool = True) -> list:
    """The result-determining part of an op's jobs (for equality checks);
    without *simulated*, leave out how many genomes were simulated."""
    keys = ("task", "params", "fitness", "default_fitness", "generations_run")
    if simulated:
        keys += ("evaluations",)
    return [{k: job.get(k) for k in keys} for job in result["jobs"]]


# ----------------------------------------------------------------------
# workloads
class Workload:
    """One workload: its inputs, preparation, op and output checks."""

    name = ""

    def __init__(self, harness: Harness, seed: int) -> None:
        self.h = harness
        self.rng = random.Random(f"e2ebench:{self.name}:{seed}")
        self.inputs = self.derive_inputs()
        #: first checked outputs per input index; later passes must match
        self.expected: Dict[int, list] = {}

    def derive_inputs(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed set-up of the inputs (fill tiers, references)."""

    def run_op(self, index: int, trace: bool) -> Optional[dict]:
        raise NotImplementedError

    def check(self, index: int, result: dict) -> bool:
        """Workload-specific output checks of one op."""
        return True

    def finish(self) -> None:
        """Checks that need every op's output (run once, untimed)."""

    def warm_up(self) -> Optional[dict]:
        """One untimed op before timing (checked, not recorded)."""
        result = self.run_op(0, False)
        if result is not None and not self.check(0, result):
            return None
        return result

    def op(self, index: int, trace: bool = False) -> Optional[dict]:
        result = self.run_op(index, trace)
        if result is None:
            return None
        outputs = _outputs(result)
        if index in self.expected and self.expected[index] != outputs:
            self.h.reject(f"{self.name}: input {index} gave different outputs across passes")
            return None
        if not self.check(index, result):
            return None
        self.expected.setdefault(index, outputs)
        return result

    def setup_probes(self) -> List[float]:
        """Extra set-up-only measurements (default: none)."""
        return []


class TuneCold(Workload):
    """Cold ``InliningTuner.tune`` for Opt:Bal then Adapt (pentium4)."""

    name = "tune-cold"

    def derive_inputs(self) -> list:
        return self.rng.sample(range(1, 2**20), 8)

    def run_op(self, index: int, trace: bool) -> Optional[dict]:
        return self.h.launch("tune-cold", {"workload_seed": self.inputs[index]}, trace)

    def check(self, index: int, result: dict) -> bool:
        if [job["evaluations"] > 0 for job in result["jobs"]] != [True, True]:
            self.h.reject(f"tune-cold: input {index} ran no simulations")
            return False
        return True

    def finish(self) -> None:
        """Recompute every tuned fitness on ``run_reference``, bitwise."""
        specs = []
        for index, outputs in sorted(self.expected.items()):
            checks = [
                {
                    "machine": "pentium4",
                    "scenario": scenario,
                    "workload_seed": self.inputs[index],
                    "params": job["params"],
                }
                for scenario, job in zip(("opt", "adapt"), outputs)
            ]
            specs.append({"checks": checks})
        for (index, outputs), reply in zip(
            sorted(self.expected.items()), self.h.parallel("reference", specs)
        ):
            if reply is None:
                continue
            for job, ref in zip(outputs, reply["jobs"]):
                if job["fitness"] != ref["fitness"]:
                    self.h.reject(
                        f"tune-cold: input {index} {job['task']} fitness "
                        f"{job['fitness']!r} != run_reference {ref['fitness']!r}"
                    )


class CampaignWarm(Workload):
    """A 2x2 ``run_campaign`` against a copy of a tier it already filled."""

    name = "campaign-warm"

    def derive_inputs(self) -> list:
        return self.rng.sample(range(1, 2**20), 4)

    def prepare(self) -> None:
        self.filled = {}
        for index, seed in enumerate(self.inputs):
            tier = self.h.path(f"fill-{index}", "evals.tier")
            result = self.h.launch("campaign-fill", {"tier": tier, "workload_seed": seed})
            if result is None or not result["ok"]:
                raise BenchmarkError(f"campaign-warm: filling tier {index} failed")
            self.filled[index] = (tier, _outputs(result, simulated=False))

    def run_op(self, index: int, trace: bool) -> Optional[dict]:
        source, _ = self.filled[index]
        tier = self.h.path(f"warm-{index}", "evals.tier")
        shutil.rmtree(os.path.dirname(tier), ignore_errors=True)
        shutil.copytree(source, tier)
        try:
            return self.h.launch(
                "campaign-warm", {"tier": tier, "workload_seed": self.inputs[index]}, trace
            )
        finally:
            shutil.rmtree(os.path.dirname(tier), ignore_errors=True)

    def check(self, index: int, result: dict) -> bool:
        problems = []
        if not result["ok"] or _outputs(result, simulated=False) != self.filled[index][1]:
            problems.append("results differ from the campaign that filled the tier")
        if result["evaluations"] != 0:
            problems.append(f"{result['evaluations']} simulations on a warm tier")
        lookups = result["tier_hits"] + result["tier_misses"]
        if lookups == 0 or result["tier_hits"] != lookups:
            problems.append(f"store hit rate {result['tier_hits']}/{lookups} is not 1.0")
        if result["retries"]:
            problems.append(f"{result['retries']} supervised retries")
        for problem in problems:
            self.h.reject(f"campaign-warm: input {index}: {problem}")
        return not problems


class ServiceMixed(Workload):
    """Sessions of single-cell jobs against a fresh 2-worker daemon."""

    name = "service-mixed"
    #: jobs of the one session a pass makes
    JOBS = 8
    _sessions = 0  # state directories made so far

    def derive_inputs(self) -> list:
        seeds = self.rng.sample(range(1, 2**20), self.JOBS)
        shapes = [(m, s) for m in MACHINES for s in SCENARIOS]
        jobs = []
        for i, seed in enumerate(seeds):
            machine, scenario = shapes[i % len(shapes)]
            jobs.append(
                {
                    "key": f"{machine}-{scenario}-{seed}",
                    "machine": machine,
                    "scenario": scenario,
                    "workload_seed": seed,
                }
            )
        # resubmit two keys mid-session: the daemon must dedup them
        session = jobs[:4] + [dict(jobs[0], resubmit=True)] + jobs[4:]
        return [session + [dict(jobs[5], resubmit=True)]]

    def prepare(self) -> None:
        cells = [e for session in self.inputs for e in session if not e.get("resubmit")]
        halves = [{"cells": cells[0::2]}, {"cells": cells[1::2]}]
        self.reference = {}
        for reply in self.h.parallel("cells", halves):
            if reply is None:
                raise BenchmarkError("service-mixed: execute_cell references failed")
            for job in reply["jobs"]:
                key = job.pop("key")
                self.reference[key] = job

    def run_op(self, index: int, trace: bool, jobs: Optional[list] = None) -> Optional[dict]:
        self._sessions += 1
        state = self.h.path(f"state-{self._sessions}")
        jobs = self.inputs[index] if jobs is None else jobs
        try:
            result = self.h.launch("service", {"state_dir": state, "jobs": jobs}, trace)
        finally:
            shutil.rmtree(state, ignore_errors=True)
        if result is not None:
            result["entries"] = jobs
        return result

    def warm_up(self) -> Optional[dict]:
        """A two-job session: starts the pool, fills the page cache."""
        result = self.run_op(0, False, jobs=self.inputs[0][:2])
        if result is not None and not self.check(0, result):
            return None
        return result

    def check(self, index: int, result: dict) -> bool:
        problems = []
        unique = [e for e in result["entries"] if not e.get("resubmit")]
        if result["jobs_total"] != len(unique) or len(result["jobs"]) != len(unique):
            problems.append(f"{result['jobs_total']} jobs admitted, {len(unique)} expected")
        for job in result["jobs"]:
            reference = self.reference.get(job["key"])
            got = {k: job.get(k) for k in reference or {}}
            if job["state"] != "done" or got != reference:
                problems.append(f"job {job['key']} differs from its execute_cell reference")
        for dedup in result["dedup"]:
            if not (dedup["deduplicated"] and dedup["same_id"]):
                problems.append(f"resubmitted key {dedup['key']} did not return the original job")
        for problem in problems:
            self.h.reject(f"service-mixed: {problem}")
        return not problems

    def setup_probes(self) -> List[float]:
        samples = []
        for _ in range(2):
            result = self.run_op(0, False, jobs=[])
            if result is not None:
                samples.append(result["t_call"] - result["launched"])
        return samples


WORKLOADS = {cls.name: cls for cls in (TuneCold, CampaignWarm, ServiceMixed)}


# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def end_to_end(passes: List[List[dict]], probes: List[float]) -> Dict[str, float]:
    """Per-input medians over passes, then the mean over the input list.

    Every input weighs the same however many passes a run makes;
    ``setup_s`` is the median over every op and set-up probe.
    """
    per_input = list(zip(*passes))  # [input][pass] -> measures

    def med(key):
        return [statistics.median(m[key] for m in runs) for runs in per_input]

    cpu_s = med("cpu_s")
    jobs = sum(runs[0]["jobs"] for runs in per_input)
    setups = [m["setup_s"] for runs in per_input for m in runs] + probes
    fitness = [_mean(runs[0]["fitness_pct"]) for runs in per_input]
    return {
        "op_s": _mean(med("op_s")),
        "cpu_s": _mean(cpu_s),
        "peak_rss_mb": _mean(med("peak_rss_mb")),
        "setup_s": statistics.median(setups),
        "tuned_fitness_pct": _mean(fitness),
        "jobs_per_cpu_s": jobs / sum(cpu_s),
        "job_latency_p50_s": _mean(med("latency_p50_s")),
    }


E2E_UNITS = {
    "op_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "tuned_fitness_pct": "%",
    "jobs_per_cpu_s": "1/s",
    "job_latency_p50_s": "s",
}

#: per-layer metric -> unit; span-derived names are ``<span>.<field>``
LAYER_UNITS = {
    "workloads.programs.calls": "count",
    "workloads.programs.busy_s": "s",
    "fastcompile.compile.calls": "count",
    "fastcompile.compile.self_s": "s",
    "plancache.add.calls": "count",
    "plancache.add.self_s": "s",
    "plancache.match_many.self_s": "s",
    "plancache.load_arrays.calls": "count",
    "plancache.load_arrays.self_s": "s",
    "plancache.export_arrays.self_s": "s",
    "plancache.method_lookups": "count",
    "plancache.method_hit_rate": "ratio",
    "batch.run_generation.calls": "count",
    "batch.run_generation.self_s": "s",
    "adaptivekernel.resolve_missing.self_s": "s",
    "adaptivekernel.account.self_s": "s",
    "native.propagate.calls": "count",
    "native.propagate.busy_s": "s",
    "planshare.publisher_init.busy_s": "s",
    "planshare.merge.calls": "count",
    "planshare.merge.busy_s": "s",
    "planshare.publish.busy_s": "s",
    "planshare.persist.busy_s": "s",
    "storetier.get.calls": "count",
    "storetier.hit_rate": "ratio",
    "storetier.load_context.busy_s": "s",
    "storetier.record.calls": "count",
    "storetier.record.busy_s": "s",
    "storetier.compact.busy_s": "s",
    "shm.create.calls": "count",
    "shm.bytes_mapped": "bytes",
    "shm.attach.busy_s": "s",
    "ga.run.self_s": "s",
    "ga.evaluations": "count",
    "tuner.tune.busy_s": "s",
    "campaign.execute_cell.calls": "count",
    "campaign.execute_cell.busy_s": "s",
    "campaign.cell_wait_s": "s",
    "campaign.coordinator_self_s": "s",
    "supervisor.run_supervised.busy_s": "s",
    "supervisor.retries": "count",
    "service.admit.busy_s": "s",
    "service.journal_save.calls": "count",
    "service.journal_save.busy_s": "s",
    "service.cell_wait_s": "s",
    "service.api_ms": "ms",
    "service.worker_busy_frac": "ratio",
    "service.resubmits": "count",
    "service.dedup_hits": "count",
    "trace.op_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Per-op means of the layer numbers over the traced ops."""
    rows = []
    for result in traced:
        row = layers.summarize(layers.load_spans(result["trace_dir"]))
        op_s = result["t_end"] - result["t_call"]
        row["trace.op_s"] = op_s
        row["campaign.coordinator_self_s"] = row.get("campaign.run_campaign.self_s", 0.0)
        row["ga.evaluations"] = float(result.get("evaluations", 0))
        row["supervisor.retries"] = float(result.get("retries", 0))
        row["plancache.method_lookups"] = float(result.get("method_lookups", 0))
        row["_method_builds"] = float(result.get("method_builds", 0))
        row["_tier_hits"] = float(result.get("tier_hits", 0))
        row["_tier_lookups"] = float(result.get("tier_hits", 0) + result.get("tier_misses", 0))
        row["service.resubmits"] = float(len(result.get("dedup", ())))
        row["service.dedup_hits"] = float(sum(d["deduplicated"] for d in result.get("dedup", ())))
        workers_busy = row.get("campaign.execute_cell.busy_s", 0.0)
        row["service.worker_busy_frac"] = (
            workers_busy / (2.0 * op_s) if "daemon_cpu_at_ready" in result else 0.0
        )
        rows.append(row)
    metrics = {name: _mean(row.get(name, 0.0) for row in rows) for name in LAYER_UNITS}
    lookups = sum(row["plancache.method_lookups"] for row in rows)
    builds = sum(row["_method_builds"] for row in rows)
    metrics["plancache.method_hit_rate"] = 1.0 - builds / lookups if lookups else 0.0
    tier_lookups = sum(row["_tier_lookups"] for row in rows)
    tier_hits = sum(row["_tier_hits"] for row in rows)
    metrics["storetier.hit_rate"] = tier_hits / tier_lookups if tier_lookups else 0.0
    ratios = [
        (t["t_end"] - t["t_call"]) / (u["t_end"] - u["t_call"])
        for t, u in zip(traced, untraced)
    ]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0
    return metrics


def run_pass(workload: Workload, number: int, trace: bool):
    """One pass over the input list: ``(measures, untraced, traced)``,
    or None when an op failed (the pass then does not count).  A traced
    pass runs every input untraced and then traced."""
    measures, untraced, traced = [], [], []
    for index in range(len(workload.inputs)):
        plain = workload.op(index)
        if plain is None:
            return None
        measures.append(op_measures(plain))
        shown = " ".join(
            f"{k}={v:.4f}" for k, v in measures[-1].items() if isinstance(v, float)
        )
        print(f"e2ebench: pass {number} input {index}: {shown}", file=sys.stderr)
        if trace:
            with_hook = workload.op(index, trace=True)
            if with_hook is None:
                return None
            untraced.append(plain)
            traced.append(with_hook)
    return measures, untraced, traced


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchmarkError("run from the repository root: src/repro is missing")
    harness = Harness(root, args.workload)
    try:
        harness.build_kernel()
        workload = WORKLOADS[args.workload](harness, args.seed)
        workload.prepare()
        if workload.warm_up() is None:
            raise BenchmarkError(f"{args.workload}: warm-up op failed")
        passes, traced, untraced = [], [], []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            done = run_pass(workload, len(passes), args.trace)
            if done is None:
                break
            passes.append(done[0])
            untraced.extend(done[1])
            traced.extend(done[2])
        if not passes:
            raise BenchmarkError(f"{args.workload}: no whole pass completed")
        probes = [] if args.trace else workload.setup_probes()
        workload.finish()
        if args.trace:
            metrics = per_layer(traced, untraced)
            units = LAYER_UNITS
        else:
            metrics = end_to_end(passes, probes)
            units = E2E_UNITS
    finally:
        harness.cleanup()
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _become_subreaper()
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
