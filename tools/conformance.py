"""The conformance matrix: "same bytes in every mode", stated once.

A layout prepares to the same ``.ebj``/``.ebp`` bytes however it is run.
This module owns the three things that sentence needs and nothing else:

1. **the cell table** — :data:`COLUMNS` (a workload plus the *content*
   knobs, which are allowed to change bytes) crossed with the *execution
   axes* (:data:`AXES`) and the *doors* (:data:`DOORS`), which are not.
   Every :class:`~repro.core.recipe.PrepRecipe` field is classified as
   :data:`CONTENT` or :data:`EXECUTION`.  A combination that cannot run
   is listed with its reason (:func:`unsupported`), never silently
   absent; :func:`cover` is a deterministic all-pairs cover of the
   supported cells (every pair of axis values meets in some cell).
2. :func:`reference` — a column with every execution axis at its
   default — and :func:`run`, which takes one cell through its door and
   returns an :class:`Outcome` (``.ebj`` bytes, ``.ebp`` bytes, the job
   digest, the run's :class:`~repro.core.stats.ExecutionStats`).
3. :func:`verdict` — ``cmp``-equality of both artifacts (and of the
   job's exact-double digest) with the column's reference, equality of
   every run counter that is not an execution witness, of every field of
   a python-door cell's fracture report, and each axis
   value's *honesty witness* (a warm run hit every shard, a faulted run
   retried, a leased run was leased).

``tests/test_conformance.py`` runs the cover through the python door
(plus one cli and one service cell a column) in tier-1; as a script this
file runs the cli and service covers over real processes — two ``work``
daemons and one ``serve``, started and reaped here — prints one line per
cell and exits non-zero on the first differing byte::

    PYTHONPATH=src python tools/conformance.py

Adding a mode to the product is adding a value to an axis here.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import re
import shutil
import signal
import socket
import string
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.executor import shutdown_worker_pool
from repro.core.faults import FAULTS_ENV_VAR
from repro.core.recipe import PrepRecipe, check_rules, flag_of
from repro.core.stats import GROUPS, LINES, ExecutionStats, schema
from repro.dist import shutdown_coordinators
from repro.fracture.quality import FractureReport
from repro.layout import generators
from repro.layout.cell import Cell as LayoutCell
from repro.layout.cif import CifError, dumps_cif, loads_cif
from repro.layout.flatten import flatten_cell
from repro.layout.gdsii import dumps_gdsii, loads_gdsii
from repro.layout.library import Library
from repro.physics.psf import DoubleGaussianPSF

ROOT = Path(__file__).resolve().parent.parent

#: Recipe fields that may change artifact bytes: a column fixes them.
CONTENT = (
    "fracture", "max_shot", "pec", "pec_matrix", "pec_grid_cell", "energy",
    "dose", "field_size", "hierarchy", "machine", "address_unit",
)  # fmt: skip
#: Recipe fields that must not: the axes move three of them, the rest
#: stay at their defaults (``workers_endpoint`` follows ``dispatch``).
EXECUTION = (
    "workers", "shard_retries", "shard_timeout", "dispatch",
    "workers_endpoint", "streaming",
)  # fmt: skip

#: The execution axes; the first value of each is the reference's.
#: ``workers``/``streaming``/``dispatch`` are recipe fields, the other
#: three are how the run is set up around the recipe.
AXES: Dict[str, tuple] = {
    "workers": (1, 2),
    "streaming": (False, True),
    "dispatch": ("local", "distributed"),
    "cache": ("none", "cold", "warm"),
    "faults": ("clean", "transient", "kill_worker"),
    "source": ("resident", "gds", "cif"),
}
DOORS = ("python", "cli", "service")

#: ``REPRO_FAULTS`` of each ``faults`` value: (position, attempt) pairs
#: in the run's computed-work list — no clock, no RNG.
FAULTS = {
    "clean": None,
    "transient": '{"transient": [[0, 0]]}',
    "kill_worker": '{"kill_worker": [[1, 0]]}',
}


def _snapped(library: Library) -> Library:
    """``library`` as its own ``.gds`` file reads back (1 nm integers),
    so the resident source and the file source are one layout."""
    return loads_gdsii(dumps_gdsii(library))


#: The ``tests/golden`` pipeline's own PSF and pre-unioned overlaps,
#: neither of which a recipe can say.
_GOLDEN = dict(
    psf=DoubleGaussianPSF(alpha=0.2, beta=2.0, eta=0.74), overlap_policy="union"
)


@dataclass(frozen=True)
class Column:
    """One content column: a layout and the knobs that fix its bytes.

    ``workload`` is a built-in workload name (every door can name it) or
    a factory (the cli door then reads it from a file, the service
    cannot); ``arguments`` are pipeline constructor keywords no recipe
    describes, which confine the column to the python door.
    """

    name: str
    workload: object
    knobs: tuple
    arguments: tuple = ()

    @property
    def builtin(self) -> bool:
        return isinstance(self.workload, str)

    def layout(self) -> Library:
        if self.builtin:
            return generators.workload(self.workload)()
        return self.workload()

    def recipe(self, **execution) -> PrepRecipe:
        return PrepRecipe(**dict(self.knobs), **execution)

    def pipeline(self, **settings):
        """The column's pipeline — the python door's first half, also
        what fault-scenario tests start from.  ``settings`` named in
        :data:`EXECUTION` are recipe knobs; the rest are further
        pipeline constructor keywords (``cache_dir``, a fault plan,
        ``machine=None``) on top of the column's ``arguments``."""
        execution = {k: settings.pop(k) for k in EXECUTION if k in settings}
        return self.recipe(**execution).build_pipeline(
            **{**dict(self.arguments), **settings}
        )


def _column(name, workload, arguments=(), **knobs) -> Column:
    assert set(knobs) <= set(CONTENT), sorted(set(knobs) - set(CONTENT))
    return Column(
        name,
        workload,
        tuple(sorted(knobs.items())),
        tuple(sorted(dict(arguments).items())),
    )


def _golden_grating():
    return generators.grating(pitch=2.0, duty=0.5, lines=12, length=24.0)


def _golden_fzp_ring():
    return generators.fresnel_zone_plate(zones=6, points_per_arc=24)


def _golden_logic_cell():
    return generators.random_logic(
        chip_size=40.0, wire_width=1.0, target_density=0.15, seed=7
    )


def _fzp_pair():
    """Two golden zone-plate rings side by side: curved data with two
    shards to a field row, so a streamed window reaches the pool."""
    pair = LayoutCell("FZP_PAIR")
    pair.instantiate_array(_golden_fzp_ring().top_cell(), 2, 1, 50.0, 50.0)
    return _snapped(Library("FZP_PAIR_LIB").add(pair))


def _small_memory():
    return _snapped(generators.memory_array(words=4, bits=4, blocks=(2, 2)))


#: The content columns.  Layouts are small and overlap-free (the golden
#: logic cell is pre-unioned by its pipeline), so sharded runs are exact.
COLUMNS: Dict[str, Column] = {
    column.name: column
    for column in (
        _column("grating-raster", "grating", field_size=25.0, machine="raster"),
        _column(
            "fzp-pec-vsb", _fzp_pair,
            pec=True, field_size=10.0, machine="vsb",
        ),
        _column(
            "memory-cells-raster", _small_memory,
            pec=True, hierarchy="cells", field_size=10.0, machine="raster",
        ),
        _column(
            "checkerboard-sparse", "checkerboard",
            pec=True, pec_matrix="sparse", field_size=10.0, machine="vsb",
        ),
        _column(
            "grating-hybrid", "grating",
            pec=True, pec_matrix="hybrid", field_size=25.0, machine="vector",
        ),
        _column(
            "grating-vsb-fracture", _golden_grating,
            fracture="vsb", max_shot=1.5, field_size=10.0, machine="vsb",
        ),
        _column(
            "golden-grating", _golden_grating, _GOLDEN,
            pec=True, field_size=20.0, machine="raster",
        ),
        _column(
            "golden-fzp_ring", _golden_fzp_ring, _GOLDEN,
            pec=True, field_size=20.0, machine="vsb",
        ),
        _column(
            "golden-logic_cell", _golden_logic_cell, _GOLDEN,
            pec=True, field_size=20.0, machine="raster",
        ),
    )
}  # fmt: skip


class Cell(NamedTuple):
    """One cell of the table: a column, a door, a value on every axis."""

    column: Column
    door: str = DOORS[0]
    workers: int = AXES["workers"][0]
    streaming: bool = AXES["streaming"][0]
    dispatch: str = AXES["dispatch"][0]
    cache: str = AXES["cache"][0]
    faults: str = AXES["faults"][0]
    source: str = AXES["source"][0]

    def axes(self) -> tuple:
        return tuple(getattr(self, axis) for axis in AXES)

    def execution(self, endpoint: str = "127.0.0.1:1") -> dict:
        """The cell's execution knobs (``endpoint``: its fleet's)."""
        return dict(
            workers=self.workers,
            streaming=self.streaming,
            dispatch=self.dispatch,
            workers_endpoint=endpoint if self.dispatch == "distributed" else None,
        )

    def recipe(self, endpoint: str = "127.0.0.1:1") -> PrepRecipe:
        return self.column.recipe(**self.execution(endpoint))

    def __str__(self) -> str:
        settings = " ".join(f"{axis}={getattr(self, axis)}" for axis in AXES)
        return f"{self.column.name} {self.door}: {settings}"


# -- what cannot run, and why ------------------------------------------------


def _vertices(library: Library) -> list:
    flat = flatten_cell(library.top_cell())
    return [
        tuple(v.as_tuple() for v in polygon.vertices)
        for polygons in flat.values()
        for polygon in polygons
    ]


@functools.lru_cache(maxsize=None)
def _file_complaint(column: Column, source: str) -> Optional[str]:
    """Why ``column``'s layout is not the layout its ``source`` file
    holds (a file stores integers on its format's grid), if it is not."""
    library = column.layout()
    try:
        if source == "gds":
            back = loads_gdsii(dumps_gdsii(library))
        else:
            back = loads_cif(dumps_cif(library))
    except CifError as exc:
        return f".cif needs a 10 nm-grid layout ({exc})"
    if _vertices(back) != _vertices(library):
        grid = "1 nm" if source == "gds" else "10 nm"
        return f".{source} needs a {grid}-grid layout (vertices move on the way in)"
    return None


#: The combinations no recipe rejects but that still cannot run, first
#: match wins: ``(applies(cell), reason)``.  (``streaming`` × ``cells``
#: and the like are ``repro.core.recipe.RULES`` rows.)
_RULES: Tuple[Tuple[Callable[[Cell], bool], str], ...] = (
    (
        lambda c: bool(c.column.arguments) and c.door != "python",
        "overlap_policy='union' and a custom PSF are python-door arguments, "
        "not recipe options",
    ),
    (
        lambda c: c.door == "service"
        and not (c.column.builtin and c.source == "resident"),
        "the service door takes built-in workloads only",
    ),
    (
        lambda c: c.door == "service" and c.cache == "none",
        "a serve process shares one shard cache across its jobs",
    ),
    (
        lambda c: c.door == "service" and c.faults != "clean",
        "REPRO_FAULTS belongs to the serve process, not to one job",
    ),
    (
        lambda c: c.door == "service" and c.dispatch == "distributed",
        "a serve process keeps its coordinator's port bound, and the one "
        "fleet also serves the cli door",
    ),
    (
        lambda c: c.door == "cli" and c.source == "resident" and not c.column.builtin,
        "the cli door reads a layout file or names a built-in workload",
    ),
    (
        lambda c: c.faults == "kill_worker"
        and (c.workers < 2 or c.dispatch != "local"),
        "kill_worker needs a local pool (a serial run skips it; a leased "
        "shard would SIGKILL the shared work daemon)",
    ),
    (
        lambda c: c.faults != "clean" and c.cache == "warm",
        "a warm cache dispatches no shard, so a fault schedule never fires",
    ),
)


def unsupported(cell: Cell) -> Optional[str]:
    """Why ``cell`` cannot run, or ``None`` when it can: the recipe's
    own ``ValueError`` or, through the python door, a cross-knob rule
    the column's arguments break (``repro.core.recipe.RULES``), else the
    first matching rule, else what the layout's source file cannot
    hold."""
    try:
        cell.recipe()
        if cell.door == "python":  # no other door says the arguments
            check_rules(streaming=cell.streaming, **dict(cell.column.arguments))
    except ValueError as exc:
        return str(exc)
    for applies, reason in _RULES:
        if applies(cell):
            return reason
    if cell.source != "resident":
        return _file_complaint(cell.column, cell.source)
    return None


def cells(column: Column, door: str) -> Iterator[Cell]:
    """Every cell of ``column`` through ``door``, in table order."""
    for values in itertools.product(*AXES.values()):
        yield Cell(column, door, *values)


def _pairs(cell: Cell) -> set:
    settings = list(zip(AXES, cell.axes()))
    return set(itertools.combinations(settings, 2))


@functools.lru_cache(maxsize=None)
def cover(column: Column, door: str = "python") -> Tuple[Cell, ...]:
    """A deterministic all-pairs cover of ``column``'s supported cells
    through ``door``: every pair of axis values that meets in any
    supported cell meets in one of these.  Greedy — the cell covering
    the most still-uncovered pairs next, table order breaking ties."""
    candidates = [cell for cell in cells(column, door) if unsupported(cell) is None]
    uncovered = set().union(*map(_pairs, candidates)) if candidates else set()
    chosen: List[Cell] = []
    while uncovered:
        best = max(candidates, key=lambda cell: len(_pairs(cell) & uncovered))
        chosen.append(best)
        uncovered -= _pairs(best)
    return tuple(chosen)


def render() -> str:
    """The matrix as README shows it: axes, knob classes, columns and
    the generated list of what cannot run (markdown)."""
    lines = ["| execution axis | values (reference first) |", "|---|---|"]
    lines += [
        f"| `{axis}` | {', '.join(f'`{v}`' for v in values)} |"
        for axis, values in {**AXES, "door": DOORS}.items()
    ]
    lines += ["", "| recipe field | class |", "|---|---|"]
    lines += [
        f"| `{f.name}` (`{flag_of(f)}`) | "
        f"{'content' if f.name in CONTENT else 'execution'} |"
        for f in fields(PrepRecipe)
    ]
    lines += ["", "| column | layout | content knobs | cover (python/cli/service) |"]
    lines += ["|---|---|---|---|"]
    for column in COLUMNS.values():
        layout = column.workload if column.builtin else column.workload.__name__
        knobs = ", ".join(f"`{k}={v}`" for k, v in column.knobs)
        sizes = "/".join(str(len(cover(column, door))) for door in DOORS)
        lines.append(f"| `{column.name}` | {layout.strip('_')} | {knobs} | {sizes} |")
    listed: Dict[str, List[Cell]] = {}
    for column in COLUMNS.values():
        for door in DOORS:
            for cell in cells(column, door):
                why = unsupported(cell)
                if why is not None:
                    listed.setdefault(why, []).append(cell)
    lines += ["", "Unsupported (listed, not absent):", ""]
    for why, group in listed.items():
        shared = [
            f"{axis}={getattr(group[0], axis)}"
            for axis in ("door", *AXES)
            if len({getattr(cell, axis) for cell in group}) == 1
        ]
        columns = sorted({cell.column.name for cell in group})
        where = "every column" if len(columns) == len(COLUMNS) else ", ".join(columns)
        lines.append(
            f"- {len(group)} cells ({' '.join(shared) or 'mixed'}; {where}): {why}"
        )
    return "\n".join(lines)


# -- running a cell ----------------------------------------------------------


class Outcome(NamedTuple):
    """What a door hands back: both artifacts, the job's exact-double
    digest (artifacts store doses in milli-units; the digest sees the
    last ulp), the run's statistics and — through the python door, the
    only one that returns it whole — the fracture report."""

    ebj: bytes
    ebp: bytes
    digest: str
    stats: ExecutionStats
    report: Optional[FractureReport] = None


@contextlib.contextmanager
def _environ(name: str, value: Optional[str]):
    """``os.environ[name] = value`` (unset for ``None``) for the block."""
    before = os.environ.pop(name, None)
    if value is not None:
        os.environ[name] = value
    try:
        yield
    finally:
        os.environ.pop(name, None)
        if before is not None:
            os.environ[name] = before


def _source(cell: Cell, workdir: Path):
    """The cell's layout as its source axis says: the library, or the
    path of its ``.gds``/``.cif`` file (written once per column)."""
    if cell.source == "resident":
        return cell.column.layout()
    path = workdir / f"{cell.column.name}.{cell.source}"
    if not path.exists():
        if cell.source == "gds":
            path.write_bytes(dumps_gdsii(cell.column.layout()))
        else:
            path.write_text(dumps_cif(cell.column.layout()))
    return path


def _run_python(cell: Cell, workdir: Path, cache_dir, endpoint) -> Outcome:
    with _environ(FAULTS_ENV_VAR, FAULTS[cell.faults]):
        pipeline = cell.column.pipeline(
            cache_dir=cache_dir, **cell.execution(endpoint)
        )
    ebj, ebp = workdir / "out.ebj", workdir / "out.ebp"
    result = cell.recipe(endpoint).prepare(
        pipeline,
        _source(cell, workdir),
        name=cell.column.name,
        program_path=ebp,
        job_path=ebj,
    )
    return Outcome(
        ebj.read_bytes(),
        ebp.read_bytes(),
        result.job.digest(),
        result.execution,
        result.fracture_report,
    )


def recipe_argv(recipe: PrepRecipe) -> List[str]:
    """``recipe`` as CLI options, spelled by the schema."""
    argv: List[str] = []
    for f in fields(PrepRecipe):
        value = getattr(recipe, f.name)
        if value != f.default:
            argv.append(flag_of(f))
            if f.metadata["kind"].parse is not None:
                argv.append(str(value))
    return argv


def _subprocess_env(**extra: Optional[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != FAULTS_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.update({k: v for k, v in extra.items() if v is not None})
    return env


def _run_cli(cell: Cell, workdir: Path, cache_dir, endpoint) -> Outcome:
    source = _source(cell, workdir)
    if cell.source == "resident":
        command = ["demo", "--workload", cell.column.workload]
    else:
        command = ["prep", str(source)]
    ebj, ebp = workdir / "out.ebj", workdir / "out.ebp"
    cache = ["--no-cache"] if cache_dir is None else ["--cache-dir", str(cache_dir)]
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *command]
        + recipe_argv(cell.recipe(endpoint))
        + ["--output", str(ebj), "--machine-output", str(ebp), *cache],
        env=_subprocess_env(
            **{
                FAULTS_ENV_VAR: FAULTS[cell.faults],
                # A clean command is warning-clean; a faulted one warns
                # by design (a broken pool says so).
                "PYTHONWARNINGS": "error" if cell.faults == "clean" else None,
            }
        ),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{cell}: exit {done.returncode}\n{done.stderr}")
    digest = re.search(r"^  digest: +(\S+)$", done.stdout, re.MULTILINE).group(1)
    return Outcome(
        ebj.read_bytes(), ebp.read_bytes(), digest, stats_from_lines(done.stdout)
    )


def _http(url: str, payload: Optional[dict] = None) -> bytes:
    data = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if data else {}
    request = urllib.request.Request(url, data=data, headers=headers)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.read()


def _run_service(cell: Cell, url: str) -> Outcome:
    recipe = cell.recipe().to_dict()
    defaults = PrepRecipe().to_dict()
    payload = {k: v for k, v in recipe.items() if v != defaults[k]}
    view = json.loads(
        _http(f"{url}/jobs", {"workload": cell.column.workload, **payload})
    )
    deadline = time.monotonic() + 300
    while view["state"] not in ("done", "failed", "cancelled"):
        if time.monotonic() > deadline:
            raise RuntimeError(f"{cell}: job {view['id']} never finished")
        time.sleep(0.02)
        view = json.loads(_http(f"{url}/jobs/{view['id']}"))
    if view["state"] != "done":
        raise RuntimeError(f"{cell}: job {view['state']}: {view['error']}")
    result = f"{url}/jobs/{view['id']}/result"
    return Outcome(
        _http(result),
        _http(result + "?artifact=program"),
        view["result"]["digest"],
        stats_from_json(view["result"]["execution"]),
    )


def run(cell: Cell, workdir: Path, fleet: Optional["Fleet"] = None) -> Outcome:
    """Take ``cell`` through its door.  ``workdir`` holds its artifacts,
    source files and cache; ``fleet`` serves the distributed and service
    cells.  A ``cold`` cache starts empty; a ``warm`` one was filled by
    the column's *reference* run through the python door, so a warm cell
    also holds the cache keys to being the same in every mode."""
    why = unsupported(cell)
    if why is not None:
        raise ValueError(f"{cell}: {why}")
    workdir.mkdir(parents=True, exist_ok=True)
    if cell.door == "service":
        cache_dir = fleet.service_cache
    else:
        cache_dir = None if cell.cache == "none" else workdir / "cache"
    if cache_dir is not None:
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        if cell.cache == "warm":
            _run_python(Cell(cell.column), workdir, cache_dir, None)
    if cell.door == "service":
        return _run_service(cell, fleet.url)
    if cell.door == "cli" and cell.dispatch == "distributed":
        # The cli process is the coordinator: this one must not hold
        # the port — a python-door cell leaves its coordinator bound,
        # and pool workers forked since then hold the listening socket.
        shutdown_coordinators()
        shutdown_worker_pool()
    door = _run_python if cell.door == "python" else _run_cli
    return door(cell, workdir, cache_dir, fleet.endpoint if fleet else None)


@functools.lru_cache(maxsize=None)
def reference(column: Column) -> Outcome:
    """``column`` with every execution axis at its default, through the
    python door: what every other cell of the column must equal."""
    with tempfile.TemporaryDirectory(prefix="conformance-") as scratch:
        return run(Cell(column), Path(scratch))


# -- reading a door's statistics back ---------------------------------------

_STAT_TYPES = {f.name: type(f.default) for f in fields(ExecutionStats)}
_DIST_ORDER = list(ExecutionStats().select("group", "dist"))
#: The CLI block's derived texts (``ExecutionStats.lines``), as patterns.
_DERIVED = {
    "mode": r"(?P<mode>parallel|serial)",
    "hit_rate": r"\d+%",
    "evicted": r"(?:, (?P<cache_evictions>\d+) evicted)?",
    "spill": r"(?:(?P<shards_spilled>\d+) shards spilled "
    r"\((?P<spill_bytes>[\d,]+) bytes\)|no shards spilled)",
    "held": r"(?:, (?P<spill_fallbacks>\d+) held resident \(spill degraded\))?",
    "degraded": r"(?P<cache_degraded> \(cache degraded to read-only\))?",
}
#: What a line's presence says (the :data:`GROUPS` conditions, inverted).
_PRESENCE = {
    "hierarchy": ("hierarchy", "cells"),
    "cache": ("cache_enabled", True),
    "memory": ("streamed", True),
    "dist": ("dispatch", "distributed"),
}


def _line_pattern(template: str) -> "re.Pattern[str]":
    positional = iter(_DIST_ORDER)  # the dist line takes its group in order
    pattern = ""
    for literal, name, spec, _ in string.Formatter().parse(template):
        pattern += re.escape(literal)
        if name is not None:
            name = name or next(positional)
            digits = r"[\d,]+" if "," in spec else r"[^\s,()/]+"
            pattern += _DERIVED.get(name) or rf"(?P<{name}>{digits})"
    return re.compile(pattern + "$", re.MULTILINE)


_LINE_PATTERNS = [_line_pattern(template) for _, template in LINES]


def stats_from_lines(text: str) -> ExecutionStats:
    """The :class:`ExecutionStats` a CLI report was printed from: every
    :data:`~repro.core.stats.LINES` line read back, absent lines at the
    defaults their conditions imply."""
    stats = ExecutionStats()
    for pattern in _LINE_PATTERNS:
        match = pattern.search(text)
        if match is None:
            continue
        label = match.group(0).split(":")[0].strip()
        if label in _PRESENCE:
            setattr(stats, *_PRESENCE[label])
        for name, value in match.groupdict().items():
            if value is None:
                continue
            if name == "mode":
                stats.parallel = value == "parallel"
            elif _STAT_TYPES[name] is bool:
                setattr(stats, name, True)
            elif name == "field_size":
                stats.field_size = float(value)
            else:
                setattr(stats, name, int(value.replace(",", "")))
    return stats


def stats_from_json(view: dict) -> ExecutionStats:
    """The :class:`ExecutionStats` behind a service job's ``execution``
    object (:meth:`ExecutionStats.to_json`, inverted by the schema)."""
    found = {}
    for group, layout in schema(ExecutionStats).json.items():
        scope = view.get(group, {}) if GROUPS[group][0] else view
        found.update((name, scope[key]) for name, key in layout if key in scope)
    return ExecutionStats(**found)


# -- the verdict -------------------------------------------------------------

#: Run counters an execution axis is *meant* to move; every other field
#: of the ``run`` and ``cells`` groups must equal the reference's.
_EXECUTION_WITNESSES = {
    "workers", "parallel", "cache_enabled", "cache_hits", "cache_misses", "dispatch",
}  # fmt: skip
PARITY = tuple(
    name
    for group in ("run", "cells")
    for name in ExecutionStats().select("group", group)
    if name not in _EXECUTION_WITNESSES
)

#: Honesty witnesses: ``(claim, applies(cell), holds(stats))`` — a mode
#: that did not happen must not pass for one that did.
WITNESSES: Tuple[Tuple[str, Callable, Callable], ...] = (
    (
        "cache=none consults no cache",
        lambda c: c.cache == "none",
        lambda s: not s.cache_enabled,
    ),
    (
        "cache=cold misses every shard",
        lambda c: c.cache == "cold",
        lambda s: s.cache_enabled
        and (s.cache_hits, s.cache_misses) == (0, s.shard_count),
    ),
    (
        "cache=warm hits every shard",
        lambda c: c.cache == "warm",
        lambda s: (s.cache_hits, s.cache_misses) == (s.shard_count, 0),
    ),
    (
        "faults=clean reports no fault event",
        lambda c: c.faults == "clean",
        lambda s: s.fault_events == 0,
    ),
    (
        "faults=transient is retried (locally, or by a second lease)",
        lambda c: c.faults == "transient",
        lambda s: s.shard_retries >= 1 or s.leases_granted > s.shard_count,
    ),
    (
        "faults=kill_worker restarts the pool and retries (on more than one shard)",
        lambda c: c.faults == "kill_worker",
        lambda s: (s.pool_restarts >= 1 and s.shard_retries >= 1)
        or s.shard_count == 1,
    ),
    (
        "dispatch=local leases nothing",
        lambda c: c.dispatch == "local",
        lambda s: s.dispatch == "local" and s.leases_granted == 0,
    ),
    (
        "dispatch=distributed is leased, with no local fallback",
        lambda c: c.dispatch == "distributed" and c.cache != "warm",
        lambda s: s.dispatch == "distributed"
        and s.leases_granted >= 1
        and s.dist_local_fallbacks == 0,
    ),
    (
        "streaming=True spools windows and spills shards",
        lambda c: c.streaming,
        lambda s: s.streamed and s.stream_windows >= 1 and s.shards_spilled >= 1,
    ),
    (
        "streaming=False stays resident",
        lambda c: not c.streaming,
        lambda s: not s.streamed and s.stream_windows == 0,
    ),
    (
        "workers=2 computes in parallel (on more than one shard)",
        lambda c: c.workers == 2 and c.cache != "warm",
        lambda s: s.workers == 2 and (s.parallel or s.shard_count == 1),
    ),
    (
        "workers=1 on the local rung is serial",
        lambda c: c.workers == 1 and c.dispatch == "local",
        lambda s: not s.parallel,
    ),
)


def _first_difference(name: str, got: bytes, want: bytes) -> Optional[str]:
    if got == want:
        return None
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
        min(len(got), len(want)),
    )
    return f"{name} differs from the reference at byte {at} ({len(got)} vs {len(want)})"


def verdict(cell: Cell, outcome: Outcome) -> List[str]:
    """Everything wrong with ``outcome`` as a run of ``cell`` (empty:
    the cell is green)."""
    want = reference(cell.column)
    problems = [
        _first_difference(".ebj", outcome.ebj, want.ebj),
        _first_difference(".ebp", outcome.ebp, want.ebp),
    ]
    if outcome.digest != want.digest:
        problems.append(f"digest is {outcome.digest}, the reference's {want.digest}")
    for name in PARITY:
        got, expected = getattr(outcome.stats, name), getattr(want.stats, name)
        if got != expected:
            problems.append(f"{name} is {got!r}, the reference's is {expected!r}")
    if outcome.report is not None:
        for f in fields(FractureReport):
            got, expected = getattr(outcome.report, f.name), getattr(want.report, f.name)
            if got != expected:
                problems.append(
                    f"fracture_report.{f.name} is {got!r}, the reference's is {expected!r}"
                )
    for claim, applies, holds in WITNESSES:
        if applies(cell) and not holds(outcome.stats):
            problems.append(f"not honest: {claim} ({outcome.stats.to_json()})")
    return [problem for problem in problems if problem]


# -- the real-process fleet --------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Fleet:
    """Two ``work`` daemons polling one lease endpoint and one ``serve``,
    as real processes; a context manager that reaps all three however
    the block ends.  The coordinator is whoever dispatches (a cli
    process, or this one through the python door), so daemons start
    first and poll until it appears."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.endpoint = f"127.0.0.1:{_free_port()}"
        self.url = f"http://127.0.0.1:{_free_port()}"
        self.service_cache = self.workdir / "service" / "shard-cache"
        self._processes: List[subprocess.Popen] = []

    def _spawn(self, *argv: str) -> None:
        log = (self.workdir / f"fleet-{len(self._processes)}.log").open("w")
        with log:
            self._processes.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", *argv],
                    env=_subprocess_env(),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    start_new_session=True,  # one group to reap
                )
            )

    def __enter__(self) -> "Fleet":
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            for _ in range(2):
                # --idle-exit: a fleet orphaned by a SIGKILLed parent
                # drains away on its own.
                self._spawn("work", "--connect", self.endpoint, "--idle-exit", "600")
            self._spawn(
                "serve", "--port", self.url.rpartition(":")[2],
                "--work-dir", str(self.workdir / "service"),
            )  # fmt: skip
            deadline = time.monotonic() + 60
            while True:
                try:
                    _http(f"{self.url}/readyz")
                    return self
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError("serve never became ready")
                    time.sleep(0.05)
        except BaseException:
            self.__exit__(None, None, None)
            raise

    def __exit__(self, *exc_info) -> None:
        # SIGINT is the daemons' clean way out (a served job's worker
        # pool is joined on the way); whatever is left of a process
        # group after that — a hung leader, an orphaned pool worker —
        # is killed.
        for process in self._processes:
            process.send_signal(signal.SIGINT)
        for process in self._processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        self._processes.clear()


def main() -> int:
    """Run the cli and service covers over real processes."""
    started = time.monotonic()
    todo = [
        cell
        for column in COLUMNS.values()
        for door in ("cli", "service")
        for cell in cover(column, door)
    ]
    with tempfile.TemporaryDirectory(prefix="conformance-") as scratch:
        with Fleet(Path(scratch) / "fleet") as fleet:
            for ran, cell in enumerate(todo):
                began = time.monotonic()
                problems = verdict(cell, run(cell, Path(scratch) / str(ran), fleet))
                took = time.monotonic() - began
                print(f"{'FAIL' if problems else 'ok  '} {cell} ({took:.2f} s)")
                for problem in problems:
                    print(f"     {problem}")
                if problems:
                    return 1
    took = time.monotonic() - started
    print(f"{len(todo)} cells identical to their references in {took:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
