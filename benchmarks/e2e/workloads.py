"""The six workloads: what each runs, on which input, and why.

Names are fixed — later issues cite them.  ``BENCHMARK.json`` repeats
the names and one-line reasons (``test_bench.py`` keeps the two in
step); the sizes and per-workload recipes live only here.

Sizes were cut from the issue's proposal (6×6 reticle, 5×5 memory
array) to 4×4 each so that one run — one set-up plus an 8 s window of
at least three ops — stays near 15 s on a quiet host: the driver makes
136 runs in under an hour, and the host can be 1.6× slower than quiet.
What dominates each workload is unchanged (README, "Traced shares").

This module imports nothing of the program under test: the end-to-end
run's measuring process must stay small (see ``prepare.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import HERE

#: Writing-field pitch of every CLI workload [µm]; also the die pitch of
#: the reticle, so one die is one shard.
FIELD = 100.0

#: ``--seed`` picks where the layout sits on the plane.  Shard plans
#: anchor at the layout's own lower-left corner, so a translation
#: changes every coordinate the program reads and every byte it writes
#: but not the amount of work — ten seeds give ten comparable runs.
OFFSETS = ((0.0, 0.0), (FIELD, 0.0), (0.0, FIELD), (FIELD, FIELD))


@dataclass(frozen=True)
class Sizes:
    """Input sizes: ``FULL`` is what the benchmark measures, ``MINI``
    what ``test_bench.py`` drives through the same code."""

    tiles: int
    blocks: Tuple[int, int]
    label: str


FULL = Sizes(tiles=4, blocks=(4, 4), label="full")
MINI = Sizes(tiles=2, blocks=(1, 1), label="mini")


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``knobs`` are ``PrepRecipe`` fields: the CLI argv (end-to-end run)
    and the in-process recipe (traced run) are both derived from them,
    so the two runs cannot drift apart.
    """

    name: str
    why: str
    layout: str = ""  # "reticle" | "memory" | "" (service: built-in)
    knobs: Dict[str, object] = field(default_factory=dict)
    cache: Optional[str] = None  # None | "cold" | "warm"
    fleet: int = 0  # persistent `repro.cli work` daemons
    min_cores: int = 1

    @property
    def serial(self) -> bool:
        """Never more than one busy process (the service is not: client
        and server overlap)."""
        return bool(self.layout) and self.min_cores == 1


_RETICLE = {"field_size": FIELD, "machine": "vsb"}
_MEMORY = {
    "pec": True,
    "pec_matrix": "dense",
    "hierarchy": "cells",
    "field_size": FIELD,
    "machine": "raster",
}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "reticle_inmem_serial",
        "single-threaded baseline on the flat FZP reticle: fracture kernel "
        "dominates; pool, stream, cache, PEC and dist do nothing",
        layout="reticle",
        knobs={**_RETICLE, "workers": 1},
    ),
    Workload(
        "reticle_stream_pool2",
        "same bytes through the cursor reader, window barrier, 2-process "
        "pool and blob spill: any difference from the baseline is stream+pool",
        layout="reticle",
        knobs={**_RETICLE, "workers": 2, "streaming": True},
        min_cores=2,
    ),
    Workload(
        "reticle_dist_fleet2",
        "same file leased to two persistent worker daemons: lease protocol, "
        "shard (de)serialisation and commit path; compute leaves the prep process",
        layout="reticle",
        knobs={**_RETICLE, "dispatch": "distributed"},
        fleet=2,
        min_cores=2,
    ),
    Workload(
        "memory_pec_cold",
        "dense-PEC-bound hierarchical memory array against an empty cache: "
        "all misses, all stores (cache write path), cells hierarchy, raster export",
        layout="memory",
        knobs=_MEMORY,
        cache="cold",
    ),
    Workload(
        "memory_pec_warm",
        "identical command against a filled cache (read path): fracture and "
        "PEC do nothing, so start-up, hashing, blob reads, model and export remain",
        layout="memory",
        knobs=_MEMORY,
        cache="warm",
    ),
    Workload(
        "svc_small_jobs",
        "one closed-loop client submitting small built-in recipes to a warm "
        "serve process: HTTP, queue, runner, job store and per-job fixed cost",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: The service workload's fixed recipe table (submission payloads).
#: Each is submitted once in set-up, so the timed window is warm.
SERVICE_RECIPES: Tuple[Dict[str, object], ...] = (
    {"workload": "grating", "machine": "vsb"},
    {"workload": "checkerboard", "fracture": "vsb"},
    {"workload": "contacts", "pec": True},
    {"workload": "logic", "pec": True, "pec_matrix": "hybrid"},
    {"workload": "serpentine", "pec": True, "pec_matrix": "sparse"},
    {"workload": "line_and_pad", "pec": True, "pec_matrix": "dense"},
)


def variant(seed: int) -> int:
    return seed % len(OFFSETS)


def service_sequence(seed: int, blocks: int) -> List[int]:
    """Recipe indices for the closed-loop client: ``blocks`` independent
    shuffles of the whole table, so every prefix is near-balanced and
    the median job is the same mix whatever the seed."""
    rng = random.Random(seed)
    order: List[int] = []
    for _ in range(blocks):
        block = list(range(len(SERVICE_RECIPES)))
        rng.shuffle(block)
        order.extend(block)
    return order


# -- the prep command ---------------------------------------------------------

_FLAG = {"streaming": "--stream"}


def prep_argv(
    workload: Workload,
    gds: Path,
    job_path: Path,
    cache_dir: Optional[Path] = None,
    endpoint: Optional[str] = None,
) -> List[str]:
    """``repro.cli`` arguments of one op of ``workload``."""
    argv = ["prep", str(gds), "--output", str(job_path)]
    for knob, value in workload.knobs.items():
        flag = _FLAG.get(knob, "--" + knob.replace("_", "-"))
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    if endpoint is not None:
        argv.extend(["--workers-endpoint", endpoint])
    if cache_dir is not None:
        argv.extend(["--cache-dir", str(cache_dir)])
    return argv


# -- committed golden ---------------------------------------------------------

GOLDEN_PATH = HERE / "golden.json"


def golden_key(sizes: Sizes, seed: int) -> str:
    return f"reticle:tiles={sizes.tiles}:variant={variant(seed)}"


def load_golden() -> Dict[str, Dict[str, object]]:
    """``{key: {"ebj": sha256, "ebp": sha256, "figures": n}}`` for the
    no-PEC reticle artifacts (integer geometry: the same bytes on every
    numpy build, unlike PEC's float doses)."""
    return json.loads(GOLDEN_PATH.read_text())
