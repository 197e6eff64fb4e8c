"""F16 — the end-to-end prep benchmark.  One command, two shapes:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json``'s driver calls).
    Last stdout line: ``{"correct", "attempted", "failed", "metrics"}``
    with every end-to-end metric (``--trace 0``) or every per-layer
    metric (``--trace 1``) by name, with its unit.

``python3 benchmarks/e2e/run.py --seed N [--runs R] [--trace 1]``
    The whole suite: every workload ``R`` times, seeds ``N … N+R-1``,
    order rotated each round so a noisy-neighbour burst spreads over
    all workloads.  Writes ``results/BENCH_F16_e2e.json`` (or
    ``BENCH_F16_layers.json`` + ``trace_F16.json`` when traced) for
    ``compare.py``.

Metric names, units and bounds are read from ``BENCHMARK.json`` — the
one place they are declared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import endtoend
import workloads as wl
from harness import (
    NOMINAL_CHUNK_S,
    RESULTS,
    ROOT,
    SRC,
    THREAD_PINS,
    Harness,
    Speed,
    host_cores,
    host_spin,
    quartiles,
)
from tracing import write_trace


def _bootstrap() -> None:
    """Make ``repro`` importable, with BLAS pinned before numpy loads
    (the traced run computes in this process).  The benchmark's modules
    that import ``repro`` are imported inside functions, after this —
    and never by the end-to-end run, whose process must stay small
    (see ``prepare.py``)."""
    if not (SRC / "repro" / "cli.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def conditions(args: argparse.Namespace, hosts: list) -> dict:
    """What the numbers were taken under; ``compare.py`` refuses two
    files that differ in anything but commit, seed and runs."""
    import numpy  # after the last run: this process was small until now
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "sizes": {"tiles": wl.FULL.tiles, "blocks": list(wl.FULL.blocks)},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cores": host_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        # The speed probe's chunk (harness.Speed) over all runs.
        "reference": {
            "nominal_s": NOMINAL_CHUNK_S,
            "fastest_s": min(h["fastest_s"] for h in hosts),
            "median_s": statistics.median(h["median_s"] for h in hosts),
            "samples": sum(h["samples"] for h in hosts),
        },
    }


def _end_to_end(h: Harness, workload, sizes, seed: int, seconds: float):
    """``--trace 0``: one timed set-up, then the measured window.
    Returns ``(values, failures, attempted, notes)``."""
    notes: dict = host_spin()
    if notes["host.spin_spread"] > 0.10:
        print(
            f"warning: host.spin_spread {notes['host.spin_spread']:.0%}"
            " > 10% — noisy host",
            file=sys.stderr,
        )
    speed = Speed()
    try:
        start = time.perf_counter()
        ctx = endtoend.set_up(h, workload, sizes, seed)
        end = time.perf_counter()
        window = endtoend.measure(ctx, seconds, speed)
    finally:
        speed.stop()
    endtoend.tear_down(h, ctx)
    # Set-up is children computing one after another (and the waits for
    # a server or daemons to finish importing): all of it is scaled.
    values = {"setup_s": (end - start) * speed.factor(start, end), **window.metrics}
    notes["raw"] = {"setup_raw_s": end - start, **window.raw}
    notes["ops"] = window.ops
    notes["host"] = speed.summary()
    print(f"as the clock read them: {notes['raw']}", file=sys.stderr)
    return values, window.failures, window.attempted, notes


def _traced(h: Harness, workload, sizes, seed: int, seconds: float):
    """``--trace 1``: the in-process per-layer run, same return shape."""
    import traced

    out = traced.run(h, workload, sizes, seed, seconds)
    notes = {
        "skipped": out.skipped,
        "spans": out.recorder.spans,
        "slowest_shards": out.slowest_shards,
        "service_jobs": out.samples,
        "host": out.host,
    }
    return out.metrics, out.failures, out.attempted, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """One run of one workload → the driver's result object, plus
    ``extra`` (spans, skipped metrics, notes) for the suite's files."""
    workload = wl.BY_NAME[name]
    names = declared()["per_layer" if trace else "end_to_end"]
    if host_cores() < workload.min_cores:
        print(
            f"warning: {name} wants {workload.min_cores} cores, host has "
            f"{host_cores()}: its numbers show no parallelism",
            file=sys.stderr,
        )
    h = Harness(name)
    affinity = os.sched_getaffinity(0)
    try:
        if workload.serial:
            # One process at a time: keep the ops and the speed probe
            # on one vCPU, so the probe sees the core the op sees.
            os.sched_setaffinity(0, {min(affinity)})
        values, failures, attempted, extra = (_traced if trace else _end_to_end)(
            h, workload, sizes, seed, seconds
        )
    except endtoend.SetupError as exc:
        # No measurable state: one failed attempt, no timings.
        values, failures, attempted, extra = {}, [str(exc)], 1, {}
    finally:
        os.sched_setaffinity(0, affinity)
        h.close()
    undeclared = sorted(set(values) - {m["name"] for m in names})
    if undeclared:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {undeclared}")
    for why in failures:
        print(f"failed op: {why}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in names
        },
        "extra": extra,
    }


def print_result(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, cell in result["metrics"].items():
        print(f"  {metric:34s} {cell['value']:14.6g} {cell['unit']}")


def run_suite(args: argparse.Namespace) -> int:
    """Every workload ``--runs`` times; results to ``results/``."""
    names = [w.name for w in wl.WORKLOADS]
    skipped = [
        w.name for w in wl.WORKLOADS if host_cores() < w.min_cores
    ]
    rows: dict = {n: {"runs": [], "attempted": 0, "failed": 0} for n in names}
    spans: list = []
    hosts: list = []
    for run in range(args.runs):
        shift = (args.seed + run) % len(names)
        for name in names[shift:] + names[:shift]:
            if name in skipped:
                continue
            result = run_workload(
                name, args.seed + run, args.seconds, bool(args.trace), wl.FULL
            )
            extra = result.pop("extra")
            spans.extend(extra.pop("spans", []))
            if "host" in extra:  # absent when set-up failed
                hosts.append(extra["host"])
            print_result(name, result)
            row = rows[name]
            row["runs"].append(
                {k: v["value"] for k, v in result["metrics"].items()}
            )
            row["attempted"] += result["attempted"]
            row["failed"] += result["failed"]
            row.setdefault("notes", []).append(extra)
    for name, row in rows.items():
        if name in skipped:
            row["skipped"] = "host has fewer cores than the workload needs"
            continue
        row["failed_share"] = row["failed"] / row["attempted"]
        row["metrics"] = {
            metric: quartiles([r[metric] for r in row["runs"]])
            for metric in row["runs"][0]
        }
        # The same runs as the clock read them: shown, never judged.
        raw = [note["raw"] for note in row["notes"] if "raw" in note]
        if raw:
            row["raw"] = {
                metric: quartiles([r[metric] for r in raw]) for metric in raw[0]
            }
    stem = "BENCH_F16_layers" if args.trace else "BENCH_F16_e2e"
    out_path = Path(args.out) if args.out else RESULTS / f"{stem}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    under = conditions(args, hosts)
    out_path.write_text(json.dumps({"conditions": under, "workloads": rows}, indent=1))
    print(f"wrote {out_path}")
    if args.trace:
        write_trace(RESULTS / "trace_F16.json", spans, {"conditions": under})
        print(f"wrote {RESULTS / 'trace_F16.json'}")
    return 1 if any(row.get("failed") for row in rows.values()) else 0


def write_golden() -> int:
    """Regenerate ``golden.json`` from a serial in-memory run of every
    reticle size and seed variant."""
    from endtoend import artifact_hashes
    from prepare import write_input
    from replay import run_pipeline
    from repro.core.recipe import PrepRecipe

    workload = wl.BY_NAME["reticle_inmem_serial"]
    golden = {}
    h = Harness("golden")
    try:
        for sizes in (wl.FULL, wl.MINI):
            for seed in range(len(wl.OFFSETS)):
                out = h.dir / f"{sizes.label}{seed}"
                out.mkdir()
                gds = out / "in.gds"
                write_input(workload.layout, sizes, seed, gds)
                result, _ = run_pipeline(PrepRecipe(**workload.knobs), gds, out / "a")
                golden[wl.golden_key(sizes, seed)] = {
                    **artifact_hashes(out / "a" / "out.ebj"),
                    "figures": result.fracture_report.figure_count,
                }
    finally:
        h.close()
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="suite mode: runs per workload")
    parser.add_argument("--out", help="suite mode: results file")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        return run_suite(args)
    if args.workload not in wl.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.BY_NAME)}")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), wl.FULL
    )
    result.pop("extra")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
