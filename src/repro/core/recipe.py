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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

FRACTURE_MODES = ("trapezoid", "vsb")
PEC_MATRIX_MODES = ("dense", "sparse", "hybrid")
HIERARCHY_MODES = ("flat", "cells")
MACHINE_MODES = ("raster", "vsb", "vector")
DISPATCH_MODES = ("local", "distributed")


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


@dataclass(frozen=True)
class PrepRecipe:
    """Every pipeline knob of one preparation request.

    Mirrors the ``prep``/``demo`` CLI options one-to-one; see
    :class:`~repro.core.pipeline.PreparationPipeline` for the semantics
    of each knob.  All values are validated at construction.
    """

    fracture: str = "trapezoid"
    max_shot: float = 2.0
    pec: bool = False
    pec_matrix: str = "dense"
    pec_grid_cell: Optional[float] = None
    energy: float = 20.0
    dose: float = 1.0
    workers: int = 1
    field_size: Optional[float] = None
    hierarchy: str = "flat"
    machine: Optional[str] = None
    address_unit: float = 0.5
    shard_retries: int = 2
    shard_timeout: Optional[float] = None
    dispatch: str = "local"
    workers_endpoint: Optional[str] = None
    streaming: bool = False

    def __post_init__(self) -> None:
        if self.fracture not in FRACTURE_MODES:
            raise ValueError(
                f"fracture must be one of {FRACTURE_MODES}, "
                f"got {self.fracture!r}"
            )
        if self.pec_matrix not in PEC_MATRIX_MODES:
            raise ValueError(
                f"pec_matrix must be one of {PEC_MATRIX_MODES}, "
                f"got {self.pec_matrix!r}"
            )
        if self.hierarchy not in HIERARCHY_MODES:
            raise ValueError(
                f"hierarchy must be one of {HIERARCHY_MODES}, "
                f"got {self.hierarchy!r}"
            )
        if self.machine is not None and self.machine not in MACHINE_MODES:
            raise ValueError(
                f"machine must be one of {MACHINE_MODES} or None, "
                f"got {self.machine!r}"
            )
        for name in ("max_shot", "energy", "dose", "address_unit"):
            why = number_complaint(getattr(self, name))
            if why:
                raise ValueError(f"{name} {why}, got {getattr(self, name)!r}")
        for name in ("pec_grid_cell", "field_size", "shard_timeout"):
            value = getattr(self, name)
            why = None if value is None else number_complaint(value)
            if why:
                raise ValueError(f"{name} {why}, got {value!r}")
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ValueError(f"workers must be an int, got {self.workers!r}")
        if self.workers < 0:
            raise ValueError(
                "workers must be >= 1 (or 0 for one worker per core), "
                f"got {self.workers!r}"
            )
        if not isinstance(self.pec, bool):
            raise ValueError(f"pec must be a bool, got {self.pec!r}")
        if isinstance(self.shard_retries, bool) or not isinstance(
            self.shard_retries, int
        ):
            raise ValueError(
                f"shard_retries must be an int, got {self.shard_retries!r}"
            )
        if self.shard_retries < 0:
            raise ValueError(
                f"shard_retries must be >= 0, got {self.shard_retries!r}"
            )
        if self.dispatch not in DISPATCH_MODES:
            raise ValueError(
                f"dispatch must be one of {DISPATCH_MODES}, "
                f"got {self.dispatch!r}"
            )
        if self.workers_endpoint is not None:
            from repro.dist.protocol import parse_endpoint

            if not isinstance(self.workers_endpoint, str):
                raise ValueError(
                    f"workers_endpoint must be a host:port string, "
                    f"got {self.workers_endpoint!r}"
                )
            parse_endpoint(self.workers_endpoint)
        if self.dispatch == "distributed" and self.workers_endpoint is None:
            raise ValueError(
                "dispatch='distributed' requires a workers_endpoint "
                "(host:port of the lease coordinator)"
            )
        if not isinstance(self.streaming, bool):
            raise ValueError(f"streaming must be a bool, got {self.streaming!r}")
        if self.streaming and self.hierarchy == "cells":
            raise ValueError(
                "streaming=True requires hierarchy='flat': per-cell "
                "prefracture materializes the hierarchy, which defeats "
                "the out-of-core contract"
            )

    def to_dict(self) -> dict:
        """The recipe as a plain JSON-serializable mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "PrepRecipe":
        """Build a recipe from a mapping, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown recipe option(s): {', '.join(unknown)}; "
                f"valid options are {', '.join(sorted(known))}"
            )
        return cls(**payload)

    def build_pipeline(
        self,
        cache=None,
        cache_dir: Optional[Union[str, Path]] = None,
        program_dir: Optional[Union[str, Path]] = None,
        progress=None,
        waiter=None,
    ):
        """Construct the pipeline this recipe describes.

        ``cache`` (an existing :class:`~repro.core.cache.ShardCache`,
        e.g. the service's shared one) wins over ``cache_dir``;
        ``progress`` is the per-shard completion callback threaded into
        the execution engine (see :mod:`repro.core.executor`);
        ``waiter`` is an optional
        :class:`~repro.core.executor.BackoffWaiter` making retry
        backoffs interruptible (the service's cancel/timeout path).
        """
        from repro.core.executor import RetryPolicy
        from repro.core.faults import FaultPlan
        from repro.core.pipeline import PreparationPipeline
        from repro.fracture.shots import ShotFracturer
        from repro.fracture.trapezoidal import TrapezoidFracturer
        from repro.machine.raster import RasterScanWriter
        from repro.machine.vector import VectorScanWriter
        from repro.machine.vsb import ShapedBeamWriter
        from repro.pec.dose_iter import IterativeDoseCorrector
        from repro.physics.psf import psf_for

        machines = [
            RasterScanWriter(),
            VectorScanWriter(),
            ShapedBeamWriter(),
        ]
        if self.fracture == "vsb":
            fracturer = ShotFracturer(max_shot=self.max_shot)
        else:
            fracturer = TrapezoidFracturer()
        corrector = None
        psf = None
        if self.pec:
            psf = psf_for(self.energy)
            corrector = IterativeDoseCorrector(
                matrix_mode=self.pec_matrix, grid_cell=self.pec_grid_cell
            )
        return PreparationPipeline(
            fracturer=fracturer,
            corrector=corrector,
            psf=psf,
            machines=machines,
            base_dose=self.dose,
            workers=self.workers,
            field_size=self.field_size,
            cache=cache,
            cache_dir=None if cache is not None else cache_dir,
            hierarchy=self.hierarchy,
            machine=self.machine,
            address_unit=self.address_unit,
            program_dir=program_dir,
            progress=progress,
            retry=RetryPolicy(
                max_attempts=self.shard_retries + 1,
                shard_timeout=self.shard_timeout,
            ),
            faults=FaultPlan.from_env(),
            dispatch=self.dispatch,
            workers_endpoint=self.workers_endpoint,
            waiter=waiter,
        )

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

        The one place the ``streaming`` flag picks a path for the CLI
        and the service alike: a streaming recipe runs out of core
        (``run_streaming`` reads a layout file through the cursor and
        streams the job file itself); otherwise a layout file path
        (``.gds`` or ``.cif``) is read to completion through the same
        cursor, the run is resident and the job file is written from
        the materialized job.  Both produce the same bytes;
        ``result.job_bytes`` is the job file's size either way.
        """
        if self.streaming:
            return pipeline.run_streaming(
                source, name=name, program_path=program_path, job_path=job_path
            )
        if isinstance(source, (str, Path)):
            from repro.layout.stream import open_layout_stream

            with open_layout_stream(source) as stream:
                source = stream.materialize()
        result = pipeline.run(source, name=name, program_path=program_path)
        if job_path is not None:
            from repro.core.jobfile import write_job

            result.job_bytes = write_job(result.job, job_path)
        return result
