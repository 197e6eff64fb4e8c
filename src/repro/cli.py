"""Command-line interface: ``repro-ebl``.

Subcommands:

* ``prep`` — run the data-preparation pipeline on a GDSII file and print
  the fracture report and per-machine write-time estimates.
* ``stats`` — hierarchy statistics of a GDSII file.
* ``demo`` — run the pipeline on a built-in synthetic workload.
* ``work`` — run a distributed shard-worker daemon against a lease
  coordinator (see ``--dispatch distributed`` and :mod:`repro.dist`).
* ``serve`` — run the prep-as-a-service HTTP job server.

Bad inputs (invalid knob values, unknown workloads, unreadable files)
exit non-zero with a one-line ``error:`` message on stderr — never a
traceback — so smoke scripts and CI fail loudly and readably.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import Table
from repro.core.recipe import PrepRecipe, number_complaint
from repro.layout import generators
from repro.layout.stats import library_stats
from repro.layout.stream import open_layout_stream


_LAYOUT_FILE_HELP = "input layout file: GDSII stream, or CIF when named *.cif"


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 1 (or 0 for one worker per core)"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    why = number_complaint(value)
    if why:
        raise argparse.ArgumentTypeError(why)
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _recipe_from_args(args: argparse.Namespace) -> PrepRecipe:
    """The CLI options as a :class:`~repro.core.recipe.PrepRecipe` —
    the same value object the prep service builds its pipelines from,
    so HTTP and CLI runs share one construction path."""
    return PrepRecipe(
        fracture=args.fracture,
        max_shot=args.max_shot,
        pec=args.pec,
        pec_matrix=args.pec_matrix,
        pec_grid_cell=args.pec_grid_cell,
        energy=args.energy,
        dose=args.dose,
        workers=args.workers,
        field_size=args.field_size,
        hierarchy=args.hierarchy,
        machine=args.machine,
        address_unit=args.address_unit,
        shard_retries=args.shard_retries,
        shard_timeout=args.shard_timeout,
        dispatch=args.dispatch,
        workers_endpoint=args.workers_endpoint,
        streaming=args.stream,
    )


def _program_path(args: argparse.Namespace) -> Optional[str]:
    """Explicit machine-program path: ``--machine-output``, or derived
    from ``--output``.  ``None`` lets the pipeline derive its sanitized
    default from the job name."""
    if not args.machine:
        return None
    if args.machine_output:
        return args.machine_output
    if getattr(args, "output", None):
        from pathlib import Path

        return str(Path(args.output).with_suffix(f".{args.machine}.ebp"))
    return None


def _print_result(result, pec_matrix=None) -> None:
    job = result.job
    report = result.fracture_report
    print(f"job: {job.name}")
    stats = result.execution
    if stats is not None:
        for line in stats.lines():
            print(line)
    print(f"  digest:    {job.digest()}")
    print(f"  figures:   {report.figure_count}")
    print(f"  area:      {report.total_area:.2f} µm²")
    print(f"  density:   {job.pattern_density():.1%}")
    print(f"  slivers:   {report.sliver_fraction:.2%}")
    if result.corrected:
        lo, hi = job.dose_range()
        print(f"  dose range: {lo:.3f} – {hi:.3f}")
        if pec_matrix is not None:
            print(f"  pec matrix: {pec_matrix}")
    program = result.machine_program
    if program is not None:
        print(
            f"  machine:   {program.mode} program {program.path} "
            f"({program.segment_count} segments)"
        )
        if program.mode == "raster":
            detail = f"{program.run_count:,} runs / {program.line_count:,} lines"
        else:
            detail = f"{program.figure_count:,} shot records"
        print(
            f"    stream:   {program.stream_bytes:,} bytes exact "
            f"(estimate {program.estimate_bytes:,}), {detail}"
        )
        if stats is not None and stats.cache_enabled:
            print(
                f"    cache:    {program.cache_hits} hits, "
                f"{program.cache_misses} misses"
            )
        bd = program.breakdown
        print(
            f"    write:    exposure {bd.exposure:.3g} s + overhead "
            f"{bd.figure_overhead:.3g} s + stage {bd.stage:.3g} s + "
            f"cal {bd.calibration:.3g} s + data {bd.data_limited_extra:.3g} s "
            f"= {bd.total:.3g} s"
        )
        ch = program.channel
        verdict = f"LIMITED (x{ch.slowdown:.2f} slowdown)" if ch.limited else "ok"
        print(
            f"    channel:  {ch.required_rate / 1e6:.2f} MB/s required vs "
            f"{ch.channel_rate / 1e6:.2f} MB/s available ({verdict})"
        )
    table = Table(
        ["machine", "exposure [s]", "overhead [s]", "stage [s]", "total [s]"]
    )
    for name, bd in sorted(result.write_times.items()):
        table.add_row(
            [name, bd.exposure, bd.figure_overhead, bd.stage, bd.total]
        )
    print(table.render())


def _prepare_and_report(
    args: argparse.Namespace, source, name: Optional[str] = None
) -> int:
    """Build the recipe's pipeline, prepare ``source`` (streamed or
    resident, as the recipe says) and print the report."""
    recipe = _recipe_from_args(args)
    pipeline = recipe.build_pipeline(
        cache_dir=None if args.no_cache else args.cache_dir
    )
    result = recipe.prepare(
        pipeline,
        source,
        name=name,
        program_path=_program_path(args),
        job_path=args.output or None,
    )
    _print_result(result, pec_matrix=args.pec_matrix if args.pec else None)
    if args.output:
        print(
            f"wrote machine job file {args.output} "
            f"({result.job_bytes:,} bytes)"
        )
    return 0


def cmd_prep(args: argparse.Namespace) -> int:
    return _prepare_and_report(args, args.gdsii)


def cmd_stats(args: argparse.Namespace) -> int:
    with open_layout_stream(args.gdsii) as stream:
        library = stream.materialize()
    stats = library_stats(library)
    print(f"library: {library.name}")
    print(f"  cells:                {stats.cell_count}")
    print(f"  references:           {stats.reference_count}")
    print(f"  instances:            {stats.instance_count}")
    print(f"  depth:                {stats.depth}")
    print(f"  polygons (stored):    {stats.hierarchical_polygons}")
    print(f"  polygons (flat):      {stats.flat_polygons}")
    print(f"  compaction ratio:     {stats.compaction_ratio:.1f}x")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import create_server

    work_dir = Path(args.work_dir)
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = work_dir / "shard-cache"
    server = create_server(
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        work_dir=work_dir,
        concurrency=args.concurrency,
    )
    host, port = server.server_address[:2]
    print(f"prep service listening on http://{host}:{port}")
    print(f"  work dir:    {work_dir}")
    print(f"  shard cache: {cache_dir if cache_dir is not None else 'disabled'}")
    print(f"  concurrency: {args.concurrency} job(s)")
    print(
        "  endpoints:   POST /jobs · GET /jobs/{id} · "
        "GET /jobs/{id}/result · DELETE /jobs/{id} · "
        "GET /healthz /readyz /stats"
    )
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
    return 0


def cmd_work(args: argparse.Namespace) -> int:
    from repro.dist.protocol import parse_endpoint
    from repro.dist.worker import run_worker

    parse_endpoint(args.connect)
    return run_worker(
        args.connect, cache_dir=args.cache_dir, idle_exit=args.idle_exit
    )


def cmd_demo(args: argparse.Namespace) -> int:
    if args.workload == "full_reticle":
        # The out-of-core showcase: a tiles×tiles zone-plate mosaic,
        # sized by --tiles instead of baked into the workload table.
        source = generators.full_reticle(tiles=args.tiles)
    else:
        factory = generators.WORKLOADS.get(args.workload)
        if factory is None:
            print(
                f"unknown workload {args.workload!r}; choose from "
                f"{sorted(generators.WORKLOADS) + ['full_reticle']}",
                file=sys.stderr,
            )
            return 2
        source = factory()
    return _prepare_and_report(args, source, name=args.workload)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fracture", choices=["trapezoid", "vsb"], default="trapezoid",
        help="fracturing strategy",
    )
    parser.add_argument(
        "--max-shot", type=_positive_float, default=2.0,
        help="VSB maximum shot [µm]",
    )
    parser.add_argument(
        "--pec", action="store_true", help="apply iterative dose correction"
    )
    parser.add_argument(
        "--pec-matrix", choices=["dense", "sparse", "hybrid"],
        default="dense",
        help="exposure-operator backend for --pec: dense (exact), "
        "sparse (exact entries, CSR memory) or hybrid (exact forward "
        "term + FFT backscatter grid)",
    )
    parser.add_argument(
        "--pec-grid-cell", type=_positive_float, default=None, metavar="UM",
        help="backscatter grid cell [µm] for --pec-matrix hybrid "
        "(default: beta/4)",
    )
    parser.add_argument(
        "--energy", type=_positive_float, default=20.0,
        help="beam energy [keV]",
    )
    parser.add_argument(
        "--dose", type=_positive_float, default=1.0,
        help="base dose [µC/cm²]",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the prepared job as a binary machine job file",
    )
    parser.add_argument(
        "--workers", type=_worker_count, default=1, metavar="N",
        help="worker processes for the sharded execution engine "
        "(1 = serial, 0 = one per core; never changes the result)",
    )
    parser.add_argument(
        "--field-size", type=_positive_float, default=None, metavar="UM",
        help="writing-field pitch [µm] for layout sharding "
        "(default: process the layout as one shard)",
    )
    parser.add_argument(
        "--hierarchy", choices=["flat", "cells"], default="flat",
        help="hierarchical-source handling: flat (expand every "
        "placement, fracture per shard) or cells (fracture each cell "
        "once, replicate figures per placement — the array-reuse fast "
        "path)",
    )
    parser.add_argument(
        "--machine", choices=["raster", "vsb", "vector"], default=None,
        help="lower the prepared job into an on-disk machine program: "
        "raster (per-scanline RLE runs, exact stream size), vsb or "
        "vector (per-shot dose/flash records); prints the write-time "
        "breakdown and channel check",
    )
    parser.add_argument(
        "--address-unit", type=_positive_float, default=0.5, metavar="UM",
        help="raster address (pixel) pitch [µm] for --machine raster",
    )
    parser.add_argument(
        "--machine-output", metavar="FILE", default=None,
        help="machine program file (default: derived from --output or "
        "the job name, extension .<mode>.ebp)",
    )
    parser.add_argument(
        "--shard-retries", type=_nonneg_int, default=2, metavar="N",
        help="re-dispatch attempts per shard after a transient worker "
        "failure (crash, broken pool, OSError) before the run escalates "
        "(default: 2; results stay byte-identical across retries)",
    )
    parser.add_argument(
        "--shard-timeout", type=_positive_float, default=None, metavar="SEC",
        help="per-shard wall-clock budget; a shard exceeding it is "
        "treated as hung, the worker pool is recycled and the victim "
        "re-enqueued (default: wait forever)",
    )
    parser.add_argument(
        "--dispatch", choices=["local", "distributed"], default="local",
        help="shard scheduling: local (this process's pool) or "
        "distributed (lease shards to worker daemons on "
        "--workers-endpoint; byte-identical to local, with the local "
        "pool as the fallback rung)",
    )
    parser.add_argument(
        "--workers-endpoint", metavar="HOST:PORT", default=None,
        help="lease-coordinator endpoint for --dispatch distributed "
        "(workers connect with: repro-ebl work --connect HOST:PORT)",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="run out of core: read the layout through a cursor, keep "
        "only one shard window resident, spill shard results through "
        "the cache's blob store and assemble artifacts one shard at a "
        "time (byte-identical to the in-memory path)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed shard cache directory; repeat runs "
        "re-compute only shards whose inputs changed (results are "
        "byte-identical either way)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the shard cache even if --cache-dir is given",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-ebl",
        description="Electron-beam lithography data preparation toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prep = sub.add_parser("prep", help="prepare a layout file for writing")
    p_prep.add_argument("gdsii", help=_LAYOUT_FILE_HELP)
    _add_common(p_prep)
    p_prep.set_defaults(func=cmd_prep)

    p_stats = sub.add_parser("stats", help="hierarchy statistics of a layout file")
    p_stats.add_argument("gdsii", help=_LAYOUT_FILE_HELP)
    p_stats.set_defaults(func=cmd_stats)

    p_demo = sub.add_parser("demo", help="run on a built-in workload")
    p_demo.add_argument(
        "--workload", default="grating",
        help="workload name (see generators; 'full_reticle' is the "
        "sized out-of-core mosaic, see --tiles)",
    )
    p_demo.add_argument(
        "--tiles", type=_positive_int, default=10, metavar="N",
        help="mosaic edge for --workload full_reticle: an N×N array of "
        "zone-plate dies (default 10 → 100 dies)",
    )
    _add_common(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_work = sub.add_parser(
        "work", help="run a distributed shard-worker daemon"
    )
    p_work.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="lease-coordinator endpoint to pull shard work from",
    )
    p_work.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared shard-cache directory to store results in "
        "(idempotent: same key, same bytes)",
    )
    p_work.add_argument(
        "--idle-exit", type=_positive_float, default=None, metavar="SEC",
        help="exit after this long without work (default: run forever)",
    )
    p_work.set_defaults(func=cmd_work)

    p_serve = sub.add_parser(
        "serve", help="run the prep-as-a-service HTTP job server"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks a free port)",
    )
    p_serve.add_argument(
        "--work-dir", default=".prep-service", metavar="DIR",
        help="artifact root for job results",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared shard-cache directory "
        "(default: <work-dir>/shard-cache)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without a shared shard cache",
    )
    p_serve.add_argument(
        "--concurrency", type=int, default=2, metavar="N",
        help="maximum jobs running at once",
    )
    p_serve.set_defaults(func=cmd_serve)

    args = parser.parse_args(argv)
    if getattr(args, "machine_output", None) and not getattr(args, "machine", None):
        parser.error("--machine-output requires --machine")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad inputs and unworkable option combinations exit with a
        # clean one-liner, not a traceback — smoke scripts and CI grep
        # stderr, they don't parse stack frames.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
