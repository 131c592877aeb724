#!/usr/bin/env python3
"""Compare a perfsmoke run against the committed hot-path baseline.

Usage:
    python3 scripts/check_perf.py [CURRENT] [BASELINE]
    python3 scripts/check_perf.py --planner [CURRENT]
    python3 scripts/check_perf.py --simd [CURRENT]
    python3 scripts/check_perf.py --approx-topk [CURRENT]

CURRENT defaults to ./BENCH_hotpath.json (written by the `perfsmoke`
bench binary) and BASELINE to bench/baselines/hotpath.json. Every shape
is gated the same way, the count kernel's own leg (``count.pooled``)
included.

With ``--planner``, CURRENT defaults to ./BENCH_planner.json (written
by the `plannersweep` bench binary) and the check gates the adaptive
planner instead: in every grid cell, `--algo auto` must finish within
15% of the best *fixed* backend's simulated time. The sweep is
deterministic, so any excess regret is a planner (cost model) bug, not
noise.

With ``--approx-topk``, CURRENT defaults to ./BENCH_approx_topk.json
(written by the `recallsweep` bench binary). Two hard gates, both
deterministic (seeded data, simulated time): every cell's measured and
model-expected recall must meet the cell's target, and in every
large-k cell the approximate kernel must beat the exact fused top-k's
simulated time. Small-k cells that fail to beat exact only WARN — the
approximation is not expected to pay for its partition pass there.

With ``--simd``, CURRENT defaults to ./BENCH_simd.json (written by the
`simdsweep` bench binary). The deterministic properties hard-fail:
every leg must be bit-identical across dispatch levels, and the full
pipeline must produce the same answer *and* the same simulated time at
every level (SIMD is a wall-clock optimization only). Wall-clock
speedups are advisory — the count and filter legs are expected to
reach 4x over the per-element loop, but shortfalls only WARN
since wall time is noisy on shared runners.

Gating policy
-------------
The simulator is deterministic, so three of the recorded metrics are
bit-stable for a fixed seed / thread count / rep count:

* ``sim_ns``       — simulated GPU time,
* ``bytes_moved``  — global-memory traffic of every kernel,
* ``allocs``       — heap allocations while the query ran.

A >15% regression in any of those FAILS the check (exit 1): more
simulated time means the kernel schedule got worse, more bytes means a
kernel re-reads data it should not, and more allocations means the
zero-allocation hot path is eroding.

Wall-clock time is noisy on shared CI runners (we have measured >40%
run-to-run swings for identical binaries), so ``wall_mean_s``
regressions only WARN. The deterministic metrics are the contract;
wall time is the courtesy readout.

Improvements beyond 15% also WARN, as a nudge to refresh the baseline
so the ratchet keeps holding.
"""

import json
import sys

THRESHOLD = 0.15
HARD_METRICS = ("sim_ns", "bytes_moved", "allocs")
SOFT_METRICS = ("wall_mean_s",)

SHAPES = {
    "fig8": ("fresh", "pooled"),
    "fig9": ("fresh", "pooled"),
    "streaming": ("prefetch_off", "prefetch_on"),
    "count": ("pooled",),
}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def check_planner(argv):
    current_path = argv[2] if len(argv) > 2 else "BENCH_planner.json"
    current = load(current_path)

    failures = []
    if current.get("schema") != "plannersweep-v1":
        failures.append(f"unexpected schema {current.get('schema')!r}")

    cells = current.get("cells", [])
    if not cells:
        failures.append("no cells in sweep output")
    for cell in cells:
        tag = f"{cell.get('dist')}/{cell.get('type')}"
        auto = cell.get("auto_us")
        best = cell.get("best_us")
        if auto is None or best is None or best <= 0:
            failures.append(f"{tag}: missing auto_us/best_us")
            continue
        ratio = auto / best
        line = (
            f"{tag}: chose {cell.get('chosen')}, auto {auto:.1f}us vs "
            f"best fixed {best:.1f}us ({(ratio - 1) * 100:+.1f}%)"
        )
        if ratio > 1 + THRESHOLD:
            failures.append(line)
        else:
            print(f"OK    {line}")

    for f in failures:
        print(f"FAIL  {f}")
    if failures:
        print(f"\ncheck_perf --planner: {len(failures)} cell(s) over budget in {current_path}")
        return 1
    print(f"check_perf --planner: OK, {len(cells)} cell(s) within {THRESHOLD:.0%} of best fixed backend")
    return 0


def check_approx_topk(argv):
    current_path = argv[2] if len(argv) > 2 else "BENCH_approx_topk.json"
    current = load(current_path)

    failures = []
    warnings = []
    if current.get("schema") != "recallsweep-v1":
        failures.append(f"unexpected schema {current.get('schema')!r}")

    cells = current.get("cells", [])
    if not cells:
        failures.append("no cells in sweep output")
    for cell in cells:
        tag = f"{cell.get('dist')}/{cell.get('k_label')}/target={cell.get('target')}"
        target = cell.get("target")
        expected = cell.get("expected_recall")
        measured = cell.get("measured_recall")
        approx = cell.get("approx_us")
        exact = cell.get("exact_us")
        if None in (target, expected, measured, approx, exact) or approx <= 0:
            failures.append(f"{tag}: missing or degenerate fields")
            continue
        if expected < target:
            failures.append(
                f"{tag}: planner promised recall {expected:.4f} below target"
            )
        if measured < target:
            failures.append(
                f"{tag}: measured recall {measured:.4f} below target"
            )
        speedup = exact / approx
        line = (
            f"{tag}: measured {measured:.4f} (expected {expected:.4f}), "
            f"approx {approx:.1f}us vs exact {exact:.1f}us ({speedup:.2f}x)"
        )
        if speedup < 1.0 and cell.get("k_label") == "large-k":
            failures.append(f"{line} — approximation lost to exact at large k")
        elif speedup < 1.0:
            warnings.append(f"{line} [small-k: warn only]")
        else:
            print(f"OK    {line}")

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    if failures:
        print(
            f"\ncheck_perf --approx-topk: {len(failures)} failure(s) in {current_path}"
        )
        return 1
    print(
        f"check_perf --approx-topk: OK, {len(cells)} cell(s) met recall targets "
        f"({len(warnings)} warning(s))"
    )
    return 0


# Legs the SIMD sweep must show this wall speedup on (warn-only).
SIMD_TARGET_SPEEDUP = 4.0
SIMD_TARGET_LEGS = ("count", "filter")
SIMD_ALL_LEGS = ("count", "filter", "bipartition", "digitcount")


def check_simd(argv):
    current_path = argv[2] if len(argv) > 2 else "BENCH_simd.json"
    current = load(current_path)

    failures = []
    warnings = []
    if current.get("schema") != "simdsweep-v2":
        failures.append(f"unexpected schema {current.get('schema')!r}")

    legs = current.get("legs", {})
    for name in SIMD_ALL_LEGS:
        leg = legs.get(name)
        if leg is None:
            failures.append(f"legs.{name}: missing from sweep output")
            continue
        if leg.get("identical") is not True:
            failures.append(f"legs.{name}: dispatch levels are not bit-identical")
        speedup = leg.get("speedup")
        if speedup is None:
            failures.append(f"legs.{name}: missing speedup")
            continue
        line = f"legs.{name}: {current.get('widest')} vs per_element wall speedup {speedup:.2f}x"
        if name in SIMD_TARGET_LEGS and speedup < SIMD_TARGET_SPEEDUP:
            warnings.append(
                f"{line} < {SIMD_TARGET_SPEEDUP:.0f}x target [wall-clock: warn only]"
            )
        else:
            print(f"OK    {line}")

    pipe = current.get("pipeline")
    if pipe is None:
        failures.append("pipeline: missing from sweep output")
    else:
        if pipe.get("identical") is not True:
            failures.append("pipeline: scalar vs simd answer/sim-time mismatch")
        elif pipe.get("sim_ns_scalar") != pipe.get("sim_ns_simd"):
            failures.append(
                f"pipeline: sim_ns drifted under SIMD "
                f"({pipe.get('sim_ns_scalar')} -> {pipe.get('sim_ns_simd')})"
            )
        else:
            print(f"OK    pipeline: bit-identical, sim_ns {pipe.get('sim_ns_scalar')}")

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    if failures:
        print(f"\ncheck_perf --simd: {len(failures)} failure(s) in {current_path}")
        return 1
    print(f"check_perf --simd: OK ({len(warnings)} warning(s))")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--planner":
        return check_planner(argv)
    if len(argv) > 1 and argv[1] == "--simd":
        return check_simd(argv)
    if len(argv) > 1 and argv[1] == "--approx-topk":
        return check_approx_topk(argv)
    current_path = argv[1] if len(argv) > 1 else "BENCH_hotpath.json"
    baseline_path = argv[2] if len(argv) > 2 else "bench/baselines/hotpath.json"
    current = load(current_path)
    baseline = load(baseline_path)

    failures = []
    warnings = []

    if current.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: current {current.get('schema')!r} "
            f"vs baseline {baseline.get('schema')!r}"
        )

    for shape, legs in SHAPES.items():
        cur_shape = current.get(shape)
        base_shape = baseline.get(shape)
        if cur_shape is None or base_shape is None:
            failures.append(f"{shape}: missing from current or baseline")
            continue
        if cur_shape.get("n") != base_shape.get("n"):
            failures.append(
                f"{shape}: incomparable problem sizes "
                f"(current n={cur_shape.get('n')}, baseline n={base_shape.get('n')}; "
                f"run perfsmoke with the baseline's mode)"
            )
            continue
        for leg in legs:
            cur_leg = cur_shape.get(leg, {})
            base_leg = base_shape.get(leg, {})
            for metric in HARD_METRICS + SOFT_METRICS:
                cur = cur_leg.get(metric)
                base = base_leg.get(metric)
                if cur is None or base is None:
                    failures.append(f"{shape}.{leg}.{metric}: missing value")
                    continue
                if base == 0:
                    continue
                ratio = cur / base
                tag = f"{shape}.{leg}.{metric}"
                line = f"{tag}: {base} -> {cur} ({(ratio - 1) * 100:+.1f}%)"
                if ratio > 1 + THRESHOLD:
                    if metric in HARD_METRICS:
                        failures.append(line)
                    else:
                        warnings.append(f"{line} [wall-clock: warn only]")
                elif ratio < 1 - THRESHOLD:
                    warnings.append(f"{line} [improvement: consider refreshing baseline]")

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    if failures:
        print(f"\ncheck_perf: {len(failures)} regression(s) vs {baseline_path}")
        return 1
    print(f"check_perf: OK vs {baseline_path} ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
