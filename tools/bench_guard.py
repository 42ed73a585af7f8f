#!/usr/bin/env python
"""Evaluation-throughput regression guard.

Runs the repository's headless speed measurements and fails when a
guarded speedup ratio regresses more than 20% against its committed
baseline:

* ``benchmarks/bench_evaluation_speed.py`` — one 50-genome generation
  over SPECjvm98 through the reference VM vs the ``repro.perf``
  accelerator.  Results in ``benchmarks/BENCH_evaluation.json``,
  baseline in ``benchmarks/BENCH_evaluation_baseline.json``, 5x
  acceptance floor (cold-cache plan compilation, which both legs
  share, caps the ratio; the arena-backed compile path lifted the cap
  enough to raise the floor from its original 4x, and the 20%
  regression window against the committed baseline is the tighter
  guard in practice).
* ``benchmarks/bench_batch_eval.py`` — the same generation through the
  memoized serial path vs generation-batched evaluation
  (``repro.perf.batch``), steady state.  Results in
  ``benchmarks/BENCH_batch.json``, baseline in
  ``benchmarks/BENCH_batch_baseline.json``, 2x acceptance floor.
* ``benchmarks/bench_adaptive_batch.py`` — the same generation under
  *Adapt* through the serial-adaptive batched path vs the vectorized
  adaptive kernel (``repro.perf.adaptivekernel``), steady-state
  accounting with warm plan caches.  Results in
  ``benchmarks/BENCH_adaptive.json``, baseline in
  ``benchmarks/BENCH_adaptive_baseline.json``, 2x acceptance floor.
* ``benchmarks/bench_native_kernel.py`` — the same generation under
  *Opt* through the batched evaluator pinned to the numpy rung vs
  pinned to the compiled kernel backend (``repro.perf.native``: the
  ``cc``-built C extension), steady-state
  propagation with warm plan caches.  Results in
  ``benchmarks/BENCH_native.json``, baseline in
  ``benchmarks/BENCH_native_baseline.json``, 2x acceptance floor.
  Needs a compiled backend (it raises without one) — hosts without a
  C compiler should run the other guards only.
* ``benchmarks/bench_blocked_kernel.py`` — the same *Opt* generation's
  propagation through the compiled backend dispatched one
  representative at a time vs one cache-blocked batched call
  (``opt_propagate_blocked``), warm plan caches.  Results in
  ``benchmarks/BENCH_blocked.json``, baseline in
  ``benchmarks/BENCH_blocked_baseline.json``, 1.3x acceptance floor.
  Needs a compiled backend, like the native guard.
* ``benchmarks/bench_store_tier.py`` — the sharded store tier
  (``repro.perf.storetier``) vs the single-file store: batched
  warm-start lookup against an 8-context store (indexed pack query vs
  full JSONL replay; ``speedup``, 5x floor) and 4-writer append
  throughput (private shards vs a single-writer merge funnel over the
  single-file store; ``append_speedup``, 2x floor).  Results in
  ``benchmarks/BENCH_store.json``, baseline in
  ``benchmarks/BENCH_store_baseline.json``.

The guarded figure is always the **speedup ratio**, not absolute
evals/sec: the ratio is a property of the code paths and survives CI
hosts of different speeds, while absolute throughput numbers only
compare within one machine.  Absolute numbers are still recorded in
the JSON for local inspection.

Exit status: 0 when every guard passes, 1 on regression, bitwise
mismatch, or a speedup below an acceptance floor.

Usage::

    python tools/bench_guard.py              # guard against baselines
    python tools/bench_guard.py --rebaseline # rewrite both baseline files
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

#: largest tolerated relative drop in a speedup ratio
MAX_REGRESSION = 0.20

#: the guarded measurements: (label, module, runner attr, result file,
#: baseline file, acceptance floor[, extra ratio floors]).  The
#: optional seventh element maps additional result keys to their own
#: acceptance floors — those ratios are guarded exactly like
#: ``speedup`` (floor + 20% regression window against the baseline)
GUARDS = (
    (
        "evaluation",
        "bench_evaluation_speed",
        "run_evaluation_speed",
        "BENCH_evaluation.json",
        "BENCH_evaluation_baseline.json",
        5.0,
    ),
    (
        "batch",
        "bench_batch_eval",
        "run_batch_eval",
        "BENCH_batch.json",
        "BENCH_batch_baseline.json",
        2.0,
    ),
    (
        "adaptive",
        "bench_adaptive_batch",
        "run_adaptive_batch",
        "BENCH_adaptive.json",
        "BENCH_adaptive_baseline.json",
        2.0,
    ),
    (
        "native",
        "bench_native_kernel",
        "run_native_kernel",
        "BENCH_native.json",
        "BENCH_native_baseline.json",
        2.0,
    ),
    (
        "blocked",
        "bench_blocked_kernel",
        "run_blocked_kernel",
        "BENCH_blocked.json",
        "BENCH_blocked_baseline.json",
        1.3,
    ),
    (
        "store",
        "bench_store_tier",
        "run_store_tier",
        "BENCH_store.json",
        "BENCH_store_baseline.json",
        5.0,
        {"append_speedup": 2.0},
    ),
)


def _measure(module_name: str, runner_name: str) -> dict:
    if os.path.join(REPO_ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    module = __import__(module_name)
    return getattr(module, runner_name)()


def _guard_one(label, module_name, runner_name, result_file, baseline_file,
               floor, rebaseline, extra_floors=None):
    """Run one measurement and return its list of failure strings."""
    result_path = os.path.join(BENCH_DIR, result_file)
    baseline_path = os.path.join(BENCH_DIR, baseline_file)
    ratios = {"speedup": floor}
    ratios.update(extra_floors or {})

    result = _measure(module_name, runner_name)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[{label}] wrote {os.path.relpath(result_path, REPO_ROOT)}")
    for ratio in ratios:
        print(f"[{label}] {ratio} {result[ratio]:.2f}x")

    failures = []
    if result["mismatched_fields"]:
        failures.append(
            f"[{label}] {result['mismatched_fields']} fields "
            "diverged between the compared paths"
        )
    for ratio, ratio_floor in ratios.items():
        if result[ratio] < ratio_floor:
            failures.append(
                f"[{label}] {ratio} {result[ratio]:.2f}x is below the "
                f"{ratio_floor:.1f}x acceptance floor (see the {label!r} "
                "entry in tools/bench_guard.py)"
            )

    if rebaseline:
        baseline = {
            "accelerator_stats": result["accelerator_stats"],
        }
        for ratio in ratios:
            baseline[ratio] = result[ratio]
        for key in result:
            if key.endswith("_per_sec"):
                baseline[key] = result[key]
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[{label}] rebaselined {os.path.relpath(baseline_path, REPO_ROOT)}")
    elif not os.path.exists(baseline_path):
        failures.append(
            f"[{label}] no baseline at {baseline_path}; "
            "run with --rebaseline to create one"
        )
    else:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        baseline_rel = os.path.relpath(baseline_path, REPO_ROOT)
        for ratio in ratios:
            if ratio not in baseline:
                continue
            floor_ratio = baseline[ratio] * (1.0 - MAX_REGRESSION)
            print(
                f"[{label}] baseline {ratio} {baseline[ratio]:.2f}x   "
                f"regression floor {floor_ratio:.2f}x   ({baseline_rel})"
            )
            if result[ratio] < floor_ratio:
                failures.append(
                    f"[{label}] {ratio} {result[ratio]:.2f}x regressed more "
                    f"than {MAX_REGRESSION:.0%} below the committed "
                    f"{baseline[ratio]:.2f}x in {baseline_rel} "
                    f"(allowed minimum {floor_ratio:.2f}x; rerun with "
                    "--rebaseline only for an intentional change)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="overwrite the committed baselines with this run's results",
    )
    parser.add_argument(
        "--only",
        choices=[g[0] for g in GUARDS],
        default=None,
        help="run a single guard instead of all of them",
    )
    args = parser.parse_args(argv)

    failures = []
    for guard in GUARDS:
        label, module_name, runner_name, result_file, baseline_file, floor = guard[:6]
        extra_floors = guard[6] if len(guard) > 6 else None
        if args.only is not None and label != args.only:
            continue
        failures.extend(
            _guard_one(
                label, module_name, runner_name,
                result_file, baseline_file, floor, args.rebaseline,
                extra_floors,
            )
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("bench guard passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
