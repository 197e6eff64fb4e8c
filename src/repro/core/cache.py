"""Persistent content-addressed shard-result cache.

Sharding the layout into writing-field work units makes a single run
fast; this module makes *repeat* runs nearly free.  Every shard is
identified by a canonical hash of everything that can influence its
result — the shard polygons, its field index, the fracturer / proximity
corrector / PSF configuration, and a schema salt — so a shard that
hashes to an already-computed key is never fractured or
proximity-corrected twice, the same way a conflict-avoiding code never
re-transmits an already-delivered difference class.

Guarantees
----------
* **Correctness**: the key covers the full shard input.  Perturbing any
  single parameter (a polygon vertex, the field index, a PSF range, a
  fracture grid) changes the key; equal inputs always collide on the
  same key.  Runtime state of correctors (convergence traces and other
  attributes named in a class's ``CACHE_VOLATILE``) is excluded, so a
  corrector that has already run hashes the same as a fresh one.
* **Determinism**: cached payloads store exact IEEE-754 doubles
  (:func:`repro.core.jobfile.dumps_shard_result`), so a warm run is
  byte-identical to a cold serial run.
* **Concurrency**: entries are written to a temporary file and
  published with an atomic :func:`os.replace`, so concurrent writers
  (process pools, parallel CI jobs sharing a cache directory) can never
  expose a torn entry.  Corrupt or truncated entries read as misses and
  are evicted.
* **Containment**: a store that fails degrades the rest of the run to
  read-only through the run's store policy,
  :class:`~repro.core.executor.ContainedStore`, which lives with the
  execution: a pipeline without a cache never loads this module.
"""

from __future__ import annotations

import hashlib
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro.core.jobfile import dumps_ring
from repro.fracture.base import ShotView, row_bytes
from repro.geometry.polygon import Polygon
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import FigureView, trapezoid_fields

# Re-exported: the name callers have always imported from here.
from repro.core.executor import CacheDegradedWarning as CacheDegradedWarning

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.executor import Shard, ShardResult

#: Bump when the shard-processing semantics or the payload format
#: change; old entries then miss instead of replaying stale results.
#: v2: correctors grew ``matrix_mode``/``grid_cell`` configuration (the
#: sparse/hybrid exposure-operator backends).
#: v3: machine-program segment blobs joined the store (their own key
#: family), and the raster RLE encoder's scanline membership became
#: half-open — pre-v3 entries must not be replayed against it.
#: v4: the fast kernel's exact range grew to 2**53 with vectorized
#: rational slabs, shard payloads grew the kernel fallback counters
#: (payload version 2), and zero-rendered-height slabs are dropped —
#: pre-v4 entries could replay trapezoids a v4 cold run would not
#: produce.  The fallback counters themselves stay OUT of the key: they
#: are run observability (``CACHE_VOLATILE`` on ``Fracturer``), not
#: configuration.
#: v5: program-segment keys cover the shard's ``(N, 7)`` shot block as
#: bytes (:func:`repro.fracture.base.row_bytes`) instead of walking its
#: ``Shot`` objects — a new key family; pre-v5 segment blobs would never
#: be found again, so every family misses once and the old entries age
#: out together.
CACHE_SCHEMA_VERSION = 5

_F64 = struct.Struct("!d")
_TRAPEZOID = struct.Struct("!6d")
#: A polygon hashes as the object it was when its one public slot,
#: ``vertices``, held a list of ``Point`` objects (``_update_object``'s
#: stream), so digests made then still match: ``_POLYGON`` around one
#: ``_POINT`` per vertex, each ``%s`` one ``_F64`` double.
_POLYGON = b"orepro.geometry.polygon.Polygon{s8:vertices=l%d:%s}"
_POINT = b"orepro.geometry.point.Point{s1:x=f%ss1:y=f%s}"


#: Framing of machine-program segment blobs in the store.
_BLOB_MAGIC = b"EBB1"
_BLOB_HEADER = struct.Struct(">4sI")


class CacheKeyError(TypeError):
    """Raised when a configuration object cannot be fingerprinted."""


# ---------------------------------------------------------------------------
# Canonical fingerprinting
# ---------------------------------------------------------------------------


def _update(h, obj) -> None:
    """Feed ``obj`` into hash ``h`` as a canonical type-tagged stream.

    Covers the primitives configuration objects are built from plus the
    figure types, and falls back to public-attribute introspection for
    strategy objects (fracturers, correctors).  Attributes whose name
    starts with ``_`` or appears in the class's ``CACHE_VOLATILE`` set
    are runtime state, not configuration, and are skipped.
    """
    if obj is None:
        h.update(b"N")
    elif obj is True:
        h.update(b"T")
    elif obj is False:
        h.update(b"F")
    elif isinstance(obj, int):
        h.update(b"i")
        h.update(str(obj).encode())
        h.update(b";")
    elif isinstance(obj, float):
        h.update(b"f")
        h.update(_F64.pack(obj))
    elif isinstance(obj, str):
        encoded = obj.encode()
        h.update(b"s")
        h.update(str(len(encoded)).encode())
        h.update(b":")
        h.update(encoded)
    elif isinstance(obj, bytes):
        h.update(b"b")
        h.update(str(len(obj)).encode())
        h.update(b":")
        h.update(obj)
    elif isinstance(obj, Trapezoid):
        h.update(b"Z")
        h.update(_TRAPEZOID.pack(*trapezoid_fields(obj)))
    elif isinstance(obj, Polygon):
        points = b"".join(
            _POINT % (_F64.pack(x), _F64.pack(y)) for x, y in obj.ring.tolist()
        )
        h.update(_POLYGON % (len(obj), points))
    elif isinstance(obj, np.generic):
        # Numpy scalars carry their value outside attribute
        # introspection; hash the equivalent Python value (type-tagged
        # with the numpy dtype so e.g. float32 sweeps stay distinct).
        h.update(b"n")
        h.update(obj.dtype.str.encode())
        _update(h, obj.item())
    elif isinstance(obj, (tuple, list)):
        h.update(b"l")
        h.update(str(len(obj)).encode())
        h.update(b":")
        for item in obj:
            _update(h, item)
    elif isinstance(obj, FigureView):
        # The bytes of the equivalent list — per figure "Z" + _TRAPEZOID
        # — as one buffer.
        image = obj.rows.astype(">f8").view(np.uint8).reshape(len(obj), 48)
        h.update(b"l%d:" % len(obj))
        h.update(np.insert(image, 0, ord("Z"), axis=1).tobytes())
    elif isinstance(obj, ShotView):
        _update(h, list(obj))
    elif isinstance(obj, (set, frozenset)):
        h.update(b"e")
        digests = sorted(fingerprint(item) for item in obj)
        _update(h, digests)
    elif isinstance(obj, dict):
        h.update(b"d")
        try:
            keys = sorted(obj)
        except TypeError as exc:  # unsortable keys have no canonical order
            raise CacheKeyError(
                f"cannot canonicalize dict keys of {obj!r}"
            ) from exc
        h.update(str(len(keys)).encode())
        h.update(b":")
        for key in keys:
            _update(h, key)
            _update(h, obj[key])
    else:
        _update_object(h, obj)


def _update_object(h, obj) -> None:
    """Fingerprint a strategy/config object by class + public attributes.

    Objects whose state is invisible to attribute introspection (no
    ``__dict__`` and no ``__slots__``, e.g. C-implemented value types)
    would silently collide on their class name alone, so they are
    rejected — a key that under-covers its input is a correctness bug,
    not a degraded mode.  Callable attributes are rejected for the same
    reason: two configs differing only in a stored callback must not
    share a key.
    """
    cls = type(obj)
    has_dict = hasattr(obj, "__dict__")
    if has_dict:
        names = sorted(obj.__dict__)
    else:
        slot_names = [
            name
            for klass in cls.__mro__
            for name in getattr(klass, "__slots__", ())
        ]
        if not slot_names:
            raise CacheKeyError(
                f"cannot fingerprint {cls.__module__}.{cls.__qualname__}: "
                "no __dict__ or __slots__ to derive the configuration from"
            )
        names = sorted(name for name in slot_names if hasattr(obj, name))
    h.update(b"o")
    h.update(f"{cls.__module__}.{cls.__qualname__}".encode())
    h.update(b"{")
    volatile = getattr(cls, "CACHE_VOLATILE", frozenset())
    for name in names:
        if name.startswith("_") or name in volatile:
            continue
        value = getattr(obj, name)
        if callable(value):
            raise CacheKeyError(
                f"cannot fingerprint callable attribute {name!r} of "
                f"{cls.__qualname__}; exclude it via CACHE_VOLATILE if "
                "it is not configuration"
            )
        _update(h, name)
        h.update(b"=")
        _update(h, value)
    h.update(b"}")


def fingerprint(obj) -> str:
    """Canonical SHA-256 hex digest of a configuration/geometry tree."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def shard_cache_key(
    shard: "Shard",
    fracturer,
    corrector=None,
    psf=None,
    salt: Union[int, str] = CACHE_SCHEMA_VERSION,
) -> str:
    """Content address of one shard's preparation result.

    The key is a SHA-256 over the canonical serialization of the shard
    polygons (each ring's ``EBS1`` record,
    :func:`repro.core.jobfile.dumps_ring`), the field index, the
    fracturer configuration, the proximity-corrector configuration (or
    ``None``), the PSF parameters (or ``None``), and a version salt.

    Pre-fractured shards (hierarchy-aware runs, ``shard.figures`` set)
    are keyed by their figures instead of polygons + fracturer: the
    figures *are* the full geometric input there — the fracturer never
    runs — and the distinct type tag keeps the two key families from
    ever colliding.
    """
    h = hashlib.sha256()
    if getattr(shard, "figures", None) is not None:
        _update(h, ("repro-shard-figures", salt))
        _update(h, shard.index)
        _update(h, shard.figures)
    else:
        _update(h, ("repro-shard", salt))
        _update(h, shard.index)
        # The stream every stored key was made from, so caches filled
        # before the rings had one serialized form still hit: "l{P}:",
        # then per ring "G{n}:" and the ring's record.
        h.update(b"l%d:" % len(shard.polygons))
        for polygon in shard.polygons:
            h.update(b"G%d:%s" % (len(polygon), dumps_ring(polygon)))
        _update(h, fracturer)
    _update(h, corrector)
    _update(h, psf)
    return h.hexdigest()


def program_segment_key(
    result: "ShardResult",
    spec,
    origin,
    base_dose: float,
    salt: Union[int, str, tuple] = CACHE_SCHEMA_VERSION,
) -> str:
    """Content address of one shard's lowered machine-program segment.

    A segment is a pure function of the shard's corrected shots (their
    exact block image), the machine spec (mode, address unit, record
    unit), the global address grid origin and the base dose; the
    distinct type tag keeps this key family from ever colliding with
    shard-result keys.
    """
    h = hashlib.sha256()
    _update(h, ("repro-shard-program", salt))
    _update(h, result.index)
    _update(h, spec)
    _update(h, (origin[0], origin[1]))
    _update(h, base_dose)
    _update(h, row_bytes(result.rows))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`ShardCache` instance.

    Attributes:
        hits: lookups answered from the store.
        misses: lookups that fell through to computation.
        stores: entries written.
        evictions: corrupt/unreadable entries dropped during lookup.
        write_errors: failed stores (read-only/full filesystem) —
            degraded to storing nothing, never to a crashed run.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ShardCache:
    """Content-addressed store of shard results under a directory tree.

    Entries live at ``<root>/<key[:2]>/<key[2:]>.ebc`` (two-character
    fan-out keeps directories small on million-entry caches).  The store
    is safe for concurrent writers: payloads are staged in a temp file
    in the root and published atomically via :func:`os.replace`, so a
    reader sees either nothing or a complete entry.

    Args:
        root: cache directory (created on first store; ``~`` expands).
        salt: extra user salt mixed into every shard key *on top of*
            :data:`CACHE_SCHEMA_VERSION` — change it to invalidate a
            directory wholesale without deleting files.  Schema bumps
            invalidate salted caches too.
    """

    SUFFIX = ".ebc"

    def __init__(
        self,
        root: Union[str, Path],
        salt: Union[int, str, None] = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.salt = salt
        self.stats = CacheStats()

    # -- keys and paths ---------------------------------------------------

    def key_for(self, shard, fracturer, corrector=None, psf=None) -> str:
        """Cache key of ``shard`` under this cache's salt."""
        return shard_cache_key(
            shard,
            fracturer,
            corrector=corrector,
            psf=psf,
            salt=(CACHE_SCHEMA_VERSION, self.salt),
        )

    def program_key_for(self, result, spec, origin, base_dose: float) -> str:
        """Cache key of one program segment under this cache's salt."""
        return program_segment_key(
            result,
            spec,
            origin,
            base_dose,
            salt=(CACHE_SCHEMA_VERSION, self.salt),
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of ``key`` (existing or not)."""
        return self.root / key[:2] / (key[2:] + self.SUFFIX)

    # -- lookup / store ---------------------------------------------------

    def lookup(self, key: str) -> Tuple[Optional["ShardResult"], bool]:
        """``(result, evicted)`` for ``key``: the stored result or
        ``None`` on a miss, and whether *this* lookup evicted a corrupt
        or truncated entry (which then counts as a miss).

        ``stats.evictions`` is shared by every run on this cache
        instance; the flag is what a run may attribute to itself.
        """
        from repro.core.jobfile import JobFileError, loads_shard_result

        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None, False
        try:
            result = loads_shard_result(data)
        except JobFileError:
            self.stats.misses += 1
            self.stats.evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None, True
        self.stats.hits += 1
        return result, False

    def get(self, key: str) -> Optional["ShardResult"]:
        """Return the stored result for ``key``, or ``None`` on a miss.

        Corrupt or truncated entries are evicted and count as misses.
        """
        return self.lookup(key)[0]

    def _publish(self, key: str, data: bytes) -> bool:
        """Stage ``data`` in the root and publish it under ``key`` with
        an atomic :func:`os.replace`; a failed write is counted in
        ``stats.write_errors``, cleaned up and reported as ``False``."""
        path = self.path_for(key)
        staging = self.root / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            staging.write_bytes(data)
            os.replace(staging, path)
        except OSError:
            self.stats.write_errors += 1
            try:
                staging.unlink()
            except OSError:
                pass
            return False
        self.stats.stores += 1
        return True

    def put(self, key: str, result: "ShardResult") -> bool:
        """Store ``result`` under ``key`` with an atomic publish.

        Write failures (read-only directory, full disk) are swallowed
        and counted in ``stats.write_errors`` — the cache must never
        turn a successfully computed run into a crash; it degrades to
        storing nothing.  Returns ``True`` when the entry was published
        so callers (the execution layer) can degrade the rest of their
        run to read-only mode after the first failure.
        """
        from repro.core.jobfile import dumps_shard_result

        return self._publish(key, dumps_shard_result(result))

    # -- machine-program segment blobs ------------------------------------

    def get_blob(self, key: str) -> Optional[bytes]:
        """Return the raw segment payload stored under ``key``, if any.

        Blobs are framed (magic + length) so truncated or foreign
        entries read as misses and are evicted, exactly like shard
        payloads.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        if len(data) >= _BLOB_HEADER.size:
            magic, length = _BLOB_HEADER.unpack_from(data, 0)
            if magic == _BLOB_MAGIC and len(data) == _BLOB_HEADER.size + length:
                self.stats.hits += 1
                return data[_BLOB_HEADER.size :]
        self.stats.misses += 1
        self.stats.evictions += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put_blob(self, key: str, payload: bytes) -> bool:
        """Store a raw segment payload with the atomic-publish contract.

        Returns ``True`` when the blob was published (same degradation
        contract as :meth:`put`).
        """
        return self._publish(
            key, _BLOB_HEADER.pack(_BLOB_MAGIC, len(payload)) + payload
        )

    # -- maintenance ------------------------------------------------------

    def entry_count(self) -> int:
        """Number of complete entries currently in the store."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob(f"??/*{self.SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in self.root.glob(f"??/*{self.SUFFIX}"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return (
            f"ShardCache({str(self.root)!r}, entries={self.entry_count()}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
