"""Per-layer numbers of one traced op, from the span files it left.

``hook/e2etrace.py`` writes one ``spans-<pid>.json`` per process of the
op tree.  For each span name this module derives

* ``calls``  — how many spans there were;
* ``busy_s`` — summed duration of the spans not nested in a span of the
  same name (so recursion is not counted twice);
* ``self_s`` — summed duration minus the duration of direct children;

and the cross-process waits: pool submit -> cell start
(``campaign.cell_wait_s``) and job admission -> cell start
(``service.cell_wait_s``), each the median over the op's cells.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict
from typing import Dict, List


def load_spans(trace_dir: str) -> List[dict]:
    """Every process's span list: ``[{"pid", "argv", "spans"}]``."""
    processes = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            processes.append(json.load(handle))
    return processes


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(processes: List[dict]) -> Dict[str, float]:
    """Layer totals of one op (all processes of its tree)."""
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    submits = defaultdict(list)
    admits = {}
    cell_starts = []
    api_ms = []
    shm_bytes = 0
    for process in processes:
        spans = process["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _thread, _key in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _thread, key) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                busy[name] += duration
            if name == "pool.submit" and key:
                submits[key].append(start)
            elif name == "service.journal_admit" and key:
                admits[key] = end
            elif name == "campaign.execute_cell" and key:
                cell_starts.append((key, start))
            elif name == "service.api":
                api_ms.append(duration * 1000.0)
            elif name in ("shm.create", "shm.attach") and key:
                shm_bytes += int(key)

    out: Dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = float(calls[name])
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_time[name]

    campaign_waits, service_waits = [], []
    for key, start in cell_starts:
        earlier = [t for t in submits.get(key, ()) if t <= start]
        job = key.rsplit("|", 1)[1]
        if job and job in admits:
            service_waits.append(start - admits[job])
        elif earlier:
            campaign_waits.append(start - max(earlier))
    out["campaign.cell_wait_s"] = _median(campaign_waits)
    out["service.cell_wait_s"] = _median(service_waits)
    out["service.api_ms"] = _median(api_ms)
    out["shm.bytes_mapped"] = float(shm_bytes)
    return out
