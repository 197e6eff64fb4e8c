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
import importlib
import sys
from dataclasses import fields
from functools import partial
from typing import List, Optional

from repro.analysis.tables import Table
from repro.core.recipe import POSITIVE, PrepRecipe, flag_of, whole


_LAYOUT_FILE_HELP = "input layout file: GDSII stream, or CIF when named *.cif"

#: What a prep imports beyond this module, by its roots, and each module
#: a prep imports only where it is called (a CIF input, the cells door,
#: a fault plan, the process pool).  The long-lived ``serve`` and
#: ``work`` import it at start: their first job is timed like the rest,
#: and a pool they fork inherits it (README "Fork note").
_PREP_PATH = (
    "concurrent.futures.process",
    "repro.core.faults",
    "repro.core.hierarchical",
    "repro.core.pipeline",
    "repro.fracture.shots",
    "repro.layout.cif",
    "repro.machine.program",
    "repro.machine.raster",
    "repro.machine.vector",
    "repro.machine.vsb",
    "repro.pec.dose_iter",
)


def _load_prep_path() -> None:
    for name in _PREP_PATH:
        importlib.import_module(name)


def _recipe_from_args(args: argparse.Namespace) -> PrepRecipe:
    """The CLI options as a :class:`~repro.core.recipe.PrepRecipe` —
    the same value object the prep service builds its pipelines from,
    so HTTP and CLI runs share one construction path."""
    return PrepRecipe(**{f.name: getattr(args, f.name) for f in fields(PrepRecipe)})


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
    from repro.layout.stats import library_stats
    from repro.layout.stream import open_layout_stream

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

    _load_prep_path()
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
    from repro.dist.worker import run_worker

    _load_prep_path()
    return run_worker(args.connect, idle_exit=args.idle_exit)


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.layout import generators

    # full_reticle is the out-of-core showcase: a tiles×tiles zone-plate
    # mosaic, sized by --tiles instead of baked into the workload table.
    sized = {"full_reticle": partial(generators.full_reticle, tiles=args.tiles)}
    source = generators.workload(args.workload, sized)()
    return _prepare_and_report(args, source, name=args.workload)


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The recipe's knobs, as declared, plus the four file options."""
    for f in fields(PrepRecipe):
        kind, meta = f.metadata["kind"], f.metadata
        if kind.parse is None:
            options = {"action": "store_true"}
        else:
            options = {
                "type": kind.parse,
                "choices": kind.choices,
                "default": f.default,
                "metavar": meta["metavar"],
            }
        parser.add_argument(flag_of(f), dest=f.name, help=meta["help"], **options)
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the prepared job as a binary machine job file",
    )
    parser.add_argument(
        "--machine-output", metavar="FILE", default=None,
        help="machine program file (default: derived from --output or "
        "the job name, extension .<mode>.ebp)",
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


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-ebl`` argument parser, subcommands and all."""
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
        "--tiles", type=whole(1).parse, default=10, metavar="N",
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
        "--idle-exit", type=POSITIVE.parse, default=None, metavar="SEC",
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
        "--port", type=whole(0, high=65535).parse, default=8080,
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
        "--concurrency", type=whole(1).parse, default=2, metavar="N",
        help="maximum jobs running at once",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
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
