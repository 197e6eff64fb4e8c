"""A preparation recipe: the pipeline knobs as a validated value object.

The CLI and the prep service accept the same set of pipeline knobs
(fracturing strategy, PEC configuration, sharding, hierarchy handling,
machine-program export).  Both front-ends build their
:class:`~repro.core.pipeline.PreparationPipeline` through this one
module, so a job submitted over HTTP runs *the same code path* as the
identical CLI invocation — the byte-identity contract between the two
holds by construction, not by keeping two builders in sync.

A :class:`PrepRecipe` is a frozen dataclass: validation happens once at
construction with clean ``ValueError`` messages (the CLI turns them
into non-zero exits, the service into ``400`` responses), and the
recipe is hashable/comparable so callers can dedupe identical requests.

**The field list is the schema.**  Every field is declared through
:func:`knob` with a :class:`Kind` — one value rule plus one text parser
— and its CLI flag, metavar and help text.  Validation
(:func:`validate`), the ``prep``/``demo`` options (``cli._add_common``),
the service payload (:func:`from_mapping`), the checks at the
pipeline's constructor (:func:`check_knobs`) and the
README's option table are all read from the declarations: adding a
prep option is one ``knob(...)`` line plus the line that uses it.

**The rules that join knobs are rows.**  A combination of knob values
that cannot run is one :data:`RULES` row, with its one reason;
:func:`check_rules` applies them at every door (the recipe, the
pipeline's constructor and, for the rows a source decides, the body
both run doors share, before it reads the source), and the README
renders them under the option table.
"""

from __future__ import annotations

import json
import os
import sys
from argparse import ArgumentTypeError
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple, Union

#: Machine-program architectures (``repro.machine`` re-exports this).
MACHINE_MODES = ("raster", "vsb", "vector")

#: Exposure-operator backends (``repro.pec`` re-exports this).
MATRIX_MODES = ("dense", "sparse", "hybrid")

#: Environment variable carrying a JSON fault plan into CLI runs and
#: service jobs (see :meth:`repro.core.faults.FaultPlan.from_env`).
#: Here, not in ``repro.core.faults``, so a run without a plan never
#: imports the injector.
FAULTS_ENV_VAR = "REPRO_FAULTS"


def number_complaint(value, positive: bool = True) -> Optional[str]:
    """What is wrong with ``value`` as a numeric knob — ``"must be a
    number"``, ``"must be finite"``, ``"must be positive"`` (or
    ``"must be >= 0"`` with ``positive=False``) — or ``None`` when
    nothing is.

    The one rule every numeric knob is checked by (this recipe, the CLI
    options, the service's ``timeout``, ``RetryPolicy``, ``DistPolicy``
    and the shard planner's pitch): a real number, not a bool, not NaN
    or ±inf, and on the right side of zero.  Callers put the knob's name
    in front and raise their own error type.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    # NaN compares false; an int too large for a float fails here too.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        return "must be finite"
    if value < 0 or (positive and value == 0):
        return "must be positive" if positive else "must be >= 0"
    return None


class Kind(NamedTuple):
    """One sort of option value.

    ``rule`` maps a value to what is wrong with it (``None`` when
    nothing is); ``parse`` is the argparse ``type`` — text to a value
    the rule accepts, else ``ArgumentTypeError`` carrying the rule's
    complaint — and is ``None`` for an on/off flag; ``choices`` is the
    value set of a choice kind.
    """

    rule: Callable[[object], Optional[str]]
    parse: Optional[Callable[[str], object]] = None
    choices: Optional[Tuple[str, ...]] = None


def _parser(convert: Callable[[str], object], rule) -> Callable[[str], object]:
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text  # a str: the rule names the type it wanted
        why = rule(value)
        if why:
            raise ArgumentTypeError(why)
        return value

    return parse


def _or_none(kind: Kind) -> Kind:
    return kind._replace(
        rule=lambda value: None if value is None else kind.rule(value)
    )


def _instance(cls: type, noun: str) -> Callable[[object], Optional[str]]:
    return lambda value: None if isinstance(value, cls) else f"must be {noun}"


def whole(
    low: Optional[int] = None,
    below: Optional[str] = None,
    high: Optional[int] = None,
) -> Kind:
    """An integer kind: ``>= low`` and ``<= high`` where given
    (``below`` words the complaint)."""
    span = f">= {low}" if high is None else f"in {low}..{high}"

    def rule(value):
        if isinstance(value, bool) or not isinstance(value, int):
            return "must be an integer"
        if (low is not None and value < low) or (high is not None and value > high):
            return below or f"must be {span}"
        return None

    return Kind(rule, _parser(int, rule))


def choice(modes: Tuple[str, ...], optional: bool = False) -> Kind:
    """One of ``modes`` (or ``None``); argparse checks the text itself."""
    wanted = f"must be one of {modes}" + (" or None" if optional else "")

    def rule(value):
        if value in modes or (optional and value is None):
            return None
        return wanted

    return Kind(rule, str, modes)


POSITIVE = Kind(number_complaint, _parser(float, number_complaint))
OPTIONAL_POSITIVE = _or_none(POSITIVE)
INTEGER = whole()
COUNT = whole(0)
WORKER_COUNT = whole(0, "must be >= 1 (or 0 for one worker per core)")
FLAG = Kind(_instance(bool, "a bool"))
OPTIONAL_STRING = _or_none(Kind(_instance(str, "a string"), str))


def _endpoint(value) -> Optional[str]:
    from repro.dist.protocol import parse_endpoint  # only a set endpoint loads it

    try:
        parse_endpoint(value)
    except (AttributeError, TypeError, ValueError):  # not a str, or not host:port
        return "must be a host:port string"
    return None


OPTIONAL_ENDPOINT = _or_none(Kind(_endpoint, str))


def knob(
    default,
    kind: Kind,
    *,
    flag: Optional[str] = None,
    metavar: Optional[str] = None,
    help: str = "",
):
    """Declare one option: a dataclass field whose metadata is its
    schema.  ``flag`` overrides the CLI spelling (default: ``--`` + the
    field name with dashes)."""
    return field(
        default=default,
        metadata={"kind": kind, "flag": flag, "metavar": metavar, "help": help},
    )


def flag_of(knob_field) -> str:
    """The CLI flag of a :func:`knob` field."""
    return knob_field.metadata["flag"] or "--" + knob_field.name.replace("_", "-")


def require(kind: Kind, name: str, value, error=ValueError) -> None:
    """Raise ``error("<name> <complaint>, got <value>")`` unless
    ``value`` satisfies ``kind``'s rule."""
    why = kind.rule(value)
    if why:
        raise error(f"{name} {why}, got {value!r}")


def validate(obj, error=ValueError, quote: str = "") -> None:
    """Check every :func:`knob` field of a dataclass instance."""
    for f in fields(obj):
        if "kind" in f.metadata:
            name = quote + f.name + quote
            require(f.metadata["kind"], name, getattr(obj, f.name), error)


def json_object(text: str, what: str) -> dict:
    """Decode the JSON object a ``what`` (an env-var policy, a fault
    plan) is written as, or say why it is not one."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def from_mapping(cls, payload, what: str):
    """Build dataclass ``cls`` from a mapping, rejecting keys that are
    not its fields — the strict door behind every JSON/dict
    constructor (``what`` names a key in the error)."""
    known = [f.name for f in fields(cls) if not f.metadata.get("internal")]
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {what}(s): {', '.join(map(str, unknown))}; "
            f"valid {what}s are {', '.join(known)}"
        )
    return cls(**payload)


@dataclass(frozen=True)
class PrepRecipe:
    """Every pipeline knob of one preparation request.

    The ``prep``/``demo`` CLI options and the service payload keys are
    generated from these declarations; see
    :class:`~repro.core.pipeline.PreparationPipeline` for the semantics
    of each knob.  All values are validated at construction.
    """

    fracture: str = knob(
        "trapezoid", choice(("trapezoid", "vsb")), help="fracturing strategy"
    )
    max_shot: float = knob(2.0, POSITIVE, help="VSB maximum shot [µm]")
    pec: bool = knob(False, FLAG, help="apply iterative dose correction")
    pec_matrix: str = knob(
        "dense", choice(MATRIX_MODES),
        help="exposure-operator backend for --pec: dense (exact), "
        "sparse (exact entries, CSR memory) or hybrid (exact forward "
        "term + FFT backscatter grid)",
    )
    pec_grid_cell: Optional[float] = knob(
        None, OPTIONAL_POSITIVE, metavar="UM",
        help="backscatter grid cell [µm] for --pec-matrix hybrid "
        "(default: beta/4)",
    )
    energy: float = knob(20.0, POSITIVE, help="beam energy [keV]")
    dose: float = knob(1.0, POSITIVE, help="base dose [µC/cm²]")
    workers: int = knob(
        1, WORKER_COUNT, metavar="N",
        help="worker processes for the sharded execution engine "
        "(1 = serial, 0 = one per core; never changes the result)",
    )
    field_size: Optional[float] = knob(
        None, OPTIONAL_POSITIVE, metavar="UM",
        help="writing-field pitch [µm] for layout sharding "
        "(default: process the layout as one shard)",
    )
    hierarchy: str = knob(
        "flat", choice(("flat", "cells")),
        help="hierarchical-source handling: flat (expand every "
        "placement, fracture per shard) or cells (fracture each cell "
        "once, replicate figures per placement — the array-reuse fast "
        "path)",
    )
    machine: Optional[str] = knob(
        None, choice(MACHINE_MODES, optional=True),
        help="lower the prepared job into an on-disk machine program: "
        "raster (per-scanline RLE runs, exact stream size), vsb or "
        "vector (per-shot dose/flash records); prints the write-time "
        "breakdown and channel check",
    )
    address_unit: float = knob(
        0.5, POSITIVE, metavar="UM",
        help="raster address (pixel) pitch [µm] for --machine raster",
    )
    shard_retries: int = knob(
        2, COUNT, metavar="N",
        help="re-dispatch attempts per shard after a transient worker "
        "failure (crash, broken pool, OSError) before the run escalates "
        "(default: 2; results stay byte-identical across retries)",
    )
    shard_timeout: Optional[float] = knob(
        None, OPTIONAL_POSITIVE, metavar="SEC",
        help="per-shard wall-clock budget; a shard exceeding it is "
        "treated as hung, the worker pool is recycled and the victim "
        "re-enqueued (default: wait forever)",
    )
    dispatch: str = knob(
        "local", choice(("local", "distributed")),
        help="shard scheduling: local (this process's pool) or "
        "distributed (lease shards to worker daemons on "
        "--workers-endpoint; byte-identical to local, with the local "
        "pool as the fallback rung)",
    )
    workers_endpoint: Optional[str] = knob(
        None, OPTIONAL_ENDPOINT, metavar="HOST:PORT",
        help="lease-coordinator endpoint for --dispatch distributed "
        "(workers connect with: repro-ebl work --connect HOST:PORT)",
    )
    streaming: bool = knob(
        False, FLAG, flag="--stream",
        help="run out of core: read the layout through a cursor, keep "
        "only one shard window resident, spill shard results to a temp "
        "spool and assemble artifacts one shard at a time "
        "(byte-identical to the in-memory path)",
    )

    def __post_init__(self) -> None:
        validate(self)
        check_rules(**self.to_dict())

    def to_dict(self) -> dict:
        """The recipe as a plain JSON-serializable mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PrepRecipe":
        """Build a recipe from a mapping, rejecting unknown keys."""
        return from_mapping(cls, payload, "recipe option")

    def build_pipeline(self, **arguments):
        """Construct the pipeline this recipe describes.

        ``arguments`` are further
        :class:`~repro.core.pipeline.PreparationPipeline` keywords, each
        winning over the recipe's own: what a front-end sets around a
        recipe (``cache``/``cache_dir`` — an explicit cache, e.g. the
        service's shared one, wins over a directory — ``program_dir``,
        the ``progress`` callback, the run's ``deadline``) and what no
        recipe says (a custom ``psf``, ``overlap_policy``, a fault plan,
        ``machine=None`` for no program).  A pipeline's knobs are fixed
        at construction, so this is where they are all given.
        """
        from repro.core.ladder import RetryPolicy
        from repro.core.pipeline import PreparationPipeline
        from repro.machine.raster import RasterScanWriter
        from repro.machine.vector import VectorScanWriter
        from repro.machine.vsb import ShapedBeamWriter

        if self.fracture == "vsb":
            from repro.fracture.shots import ShotFracturer

            fracturer = ShotFracturer(max_shot=self.max_shot)
        else:
            from repro.fracture.trapezoidal import TrapezoidFracturer

            fracturer = TrapezoidFracturer()
        faults = None
        if os.environ.get(FAULTS_ENV_VAR):
            from repro.core.faults import FaultPlan

            faults = FaultPlan.from_env()
        corrector = psf = None
        if self.pec:
            from repro.pec.dose_iter import IterativeDoseCorrector
            from repro.physics.psf import psf_for

            psf = psf_for(self.energy)
            corrector = IterativeDoseCorrector(
                matrix_mode=self.pec_matrix, grid_cell=self.pec_grid_cell
            )
        described = dict(
            fracturer=fracturer,
            corrector=corrector,
            psf=psf,
            machines=[RasterScanWriter(), VectorScanWriter(), ShapedBeamWriter()],
            base_dose=self.dose,
            workers=self.workers,
            field_size=self.field_size,
            hierarchy=self.hierarchy,
            machine=self.machine,
            address_unit=self.address_unit,
            retry=RetryPolicy(
                max_attempts=self.shard_retries + 1,
                shard_timeout=self.shard_timeout,
            ),
            faults=faults,
            dispatch=self.dispatch,
            workers_endpoint=self.workers_endpoint,
        )
        return PreparationPipeline(**{**described, **arguments})

    def prepare(
        self,
        pipeline,
        source,
        name: Optional[str] = None,
        program_path: Optional[Union[str, Path]] = None,
        job_path: Optional[Union[str, Path]] = None,
    ):
        """Run ``source`` through ``pipeline`` the way this recipe
        selects, writing the ``.ebj`` job file to ``job_path`` if given.

        The one place the ``streaming`` flag picks a door for the CLI
        and the service alike: ``run_streaming`` (out of core) or
        ``run`` (resident), which share one body.  Both take
        the same sources (a layout file or stream, a library or cell,
        raw polygons) and outputs, check their rule rows before reading
        the source, and produce the same bytes.
        """
        door = pipeline.run_streaming if self.streaming else pipeline.run
        return door(source, name=name, program_path=program_path, job_path=job_path)


_KINDS = {f.name: f.metadata["kind"] for f in fields(PrepRecipe)}


def check_knobs(**values) -> None:
    """Check keyword values against the recipe knobs of the same names
    — the rule a Python door (the pipeline) applies to its own
    arguments, with the recipe's message."""
    for name, value in values.items():
        require(_KINDS[name], name, value)


#: The combinations of knob values that cannot run: ``(refused,
#: reason)``, where ``refused`` maps each knob the rule joins to its
#: refused value — ``None`` for an optional knob left unset, and for
#: the pipeline's ``corrector`` object, whether one is set.  The first
#: row whose entries a door's values all hold refuses them, so order
#: decides where rows overlap (streaming, cells and ``union`` together
#: match the last three).
RULES: Tuple[Tuple[dict, str], ...] = (
    ({"corrector": True, "psf": None}, "a corrector requires a PSF"),
    (
        {"dispatch": "distributed", "workers_endpoint": None},
        "dispatch='distributed' requires a workers_endpoint "
        "(host:port of the lease coordinator)",
    ),
    (
        {"streaming": True, "hierarchy": "cells"},
        "streaming=True requires hierarchy='flat': per-cell prefracture "
        "materializes the hierarchy, which defeats the out-of-core contract",
    ),
    (
        {"streaming": True, "overlap_policy": "union"},
        "overlap_policy='union' is incompatible with streamed execution (the "
        "global union needs the whole layout resident); pre-union the layout "
        "or use 'warn'/'ignore'",
    ),
    (
        {"hierarchy": "cells", "overlap_policy": "union"},
        "overlap_policy='union' is incompatible with pre-fractured figure shards "
        "(it would re-fracture the layout); use hierarchy='flat' or "
        "overlap_policy 'warn'/'ignore'",
    ),
)


def check_rules(**values) -> None:
    """Raise ``ValueError`` with the reason of the first :data:`RULES`
    row whose every entry ``values`` holds — a door passes the knob
    values it knows, and a row that reads a knob it does not pass
    cannot match."""
    for refused, reason in RULES:
        if refused.items() <= values.items():
            raise ValueError(reason)
