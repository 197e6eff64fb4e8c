"""Vectorized exact-integer scanline kernel.

A NumPy reimplementation of :mod:`repro.geometry.scanline` that produces
**bit-identical** trapezoids without creating a single
:class:`fractions.Fraction` in the hot loop.  The reference engine stays
as the oracle (``kernel="exact"`` on
:func:`repro.geometry.boolean.boolean_trapezoids`); this module is the
default (``kernel="fast"``).

Why exactness survives vectorization
------------------------------------
All coordinates are snapped to an int64 grid and bounded by
:data:`COORD_LIMIT` (= 2**53 database units — checked up front, with a
*counted* fallback to the reference engine beyond it; see
:class:`KernelFallbacks`).  The sweep itself runs on the snapped rings
moved so their minimum corner is the origin (see "Translated copies"
below), so in this section ``B`` is the largest *moved* coordinate,
``0 <= coord <= B <= 2 * COORD_LIMIT``.  Every x coordinate of an edge
at a slab boundary ``y = bn/bd`` (integer boundaries have ``bd = 1``;
boundaries created by edge/edge crossings are rational) is the
rational ::

    x = num / den
    num = x0*dy*bd + (bn - y0*bd)*dx
    den = dy*bd            (dy > 0, bd > 0)

and the sweep orders, folds and emits edges purely by that rational,
through one of three exact order embeddings chosen by ``B``:

* **Float key** (``B <= 2**24``, integer-bounded slabs).  Here ``num =
  x0*dy + (y - y0)*dx`` satisfies ``|num| <= 2*B**2 < 2**53`` (x at an
  in-range y lies between x0 and x1, so ``|num| = |x|*dy``) and ``den =
  dy <= 2**25``, so both are exactly representable float64 values and
  ``float64(num)/float64(den)`` is the correctly rounded quotient —
  exactly ``float(Fraction(num, den))``.  Writing ``num/den = q +
  r/den`` (floored division), the pair ``(q, float64(r/den))`` is an
  exact order embedding: two distinct fractions in [0, 1) with
  denominators <= 2**25 differ by at least 2**-50, which exceeds twice
  the 2**-54 rounding error, so their correctly rounded floats differ
  whenever the rationals do.
* **Multi-word int64 key** (``B <= 2**31 - 1``, integer-bounded slabs).
  ``|num| <= 2*B**2 < 2**63`` still fits int64 exactly — the
  intermediate products ``x0*dy`` and ``(y - y0)*dx`` may individually
  wrap, but int64 arithmetic is modular and the true sum is in range,
  so the computed sum is exact.  The key is ``q`` plus three 31-bit
  digit words of the fractional part ``r/dy``, each computed as
  ``(r << 31) // dy`` (no overflow: ``r < dy <= 2**32 - 2``).  The 93
  fractional bits exceed ``2 * bits(dy)``: two distinct fractions with
  denominators below 2**32 differ by more than 2**-64 > 2**-93, so
  truncation to 93 bits preserves both order and distinctness.
* **Big-integer key** (larger ``B`` on integer-bounded slabs, and *all*
  rational-bounded slabs).  ``num``/``den`` are computed in
  object-dtype arrays of Python ints — exact at any size.  The key is
  ``q`` (fits int64: ``|q| <= B + 1``) plus K adaptive
  :data:`_WORD_BITS`-bit digit words, with K chosen so that ``54*K >=
  2 * bits(max den)``; the same truncation argument applies.  Every
  coordinate delta is at most ``B``, so crossing denominators (a
  difference of two products of deltas) are at most ``2*B**2`` and
  ``dy`` at most ``B``: ``bits(den) <= 164`` and ``K <= 7`` always;
  :data:`_MAX_FRACTION_WORDS` (= 8) is a *counted* safety valve, not a
  reachable limit.

The sweep's output is exact: per candidate row its slab, the slab's
boundary ys ``bn/bd`` and four corner xs ``num/den``, all integers.
Emitted coordinates are those rationals moved back and correctly
rounded (:func:`_quotient`): where the moved values allow it, float64
division of exactly representable operands, else Python ints (CPython's
``int / int`` is correctly rounded) — both match
``float(Fraction(num, den))`` bit for bit.

Within a slab no two active edges cross (that is what slab boundaries
are for), so the reference order "by x at the slab's midline" equals
the lexicographic order by (x at bottom, x at top), and edges that
compare equal are collinear through the whole slab — the reference's
fold-equal-x transition semantics carry over unchanged.  Slabs bounded
by rational crossing ys go through the *same* vectorized sweep with
big-integer keys.  A key that would need more than
:data:`_MAX_FRACTION_WORDS` digit words (unreachable, see above) hands
the whole sweep back to the reference engine, as :data:`COORD_LIMIT`
does, and increments ``KernelFallbacks.rational_slab``.

Edge/edge crossings are *detected* with vectorized cross products
(bbox-pruned, strictly interior crossings only — crossings at edge
endpoints contribute no new slab boundary): int64 products are exact
for ``B <= 2**29`` (``8*B**2 < 2**63``); above that the pruned
candidate arrays are promoted to Python-int objects, keeping detection
exact at any accepted magnitude.  The few survivors are evaluated with
exact Python integers and deduplicated as reduced fractions — never as
floats, so crossing ys that would collide after rounding stay
distinct.

Ordering
--------
The sweep walks the (slab, edge) incidences in the lexicographic order
of ``(s,) + keys_lo + keys_hi``, fully equal rows (edges collinear
through the slab) in input order — what ``np.lexsort`` over those
arrays returns.  ``lexsort`` makes one stable pass per key array, least
significant first, and its passes over ``keys_hi`` almost never decide
anything: two edges share a slab *and* their x at its lower boundary
only where they meet at a vertex or coincide.  :func:`_sweep_order`
instead sorts once, stably, on ``(s, c)`` for a coarse double ``c`` of
the lower x (:func:`_order_by_pair`), then re-sorts only the rows whose
``(s, c)`` ties with a neighbour's: one ``lexsort`` of that subset on
``(s, c)`` and then the exact keys, which keeps every run of tied rows
where it is and orders it inside.

*The coarse key* has to be **weakly monotone** in the exact ``keys_lo``
order — ``x < x'`` implies ``c <= c'``; a tie is allowed, an inversion
is not.  Float-key regime: ``c = float64(q) + f``.  ``|q| <= 2**24 + 1``
and ``f`` in [0, 1) are exact doubles, so ``c`` is the real number ``q +
f`` rounded once, and rounding is monotone (``(2**24, 1 - 2**-53)`` and
``(2**24 + 1, 0.0)`` tie; nothing inverts).  Int64-word and big-integer
regimes: ``c = float64(q)`` — ``q`` is the most significant key and its
conversion is one rounding even at ``|q| = 2**54 + 1``.  A fraction word
is not added there: that is a second rounding (of the word, then of the
sum) at a magnitude where doubles are two apart, it would need its own
argument, and the ties ``float64(q)`` leaves are few.

*Why the result is ``lexsort``'s, stability included.*  Rows with
different ``(s, c)`` are ordered by the first sort as ``lexsort`` orders
them (monotonicity).  Rows with equal ``(s, c)`` are contiguous after
the first sort and hold the same positions in ``lexsort``'s order (a row
between two of them would have an ``(s, c)`` between two equal values),
so permuting them among those positions is all that is left.  The first
sort is stable, so a run is in input order; ``lexsort`` is stable, so
sorting the run by the exact keys leaves fully equal rows in input
order — ``lexsort``'s own tie-break.  A first sort that is not stable,
or a coarse key that inverts once, breaks this; the oracle test in
``tests/test_scanline_fast.py`` compares permutations, not sortedness.

*Measured.*  Rows re-sorted, of rows ordered: 20-zone plate (the F16
die) 0 of 37,444; 8x8 memory array 0 of 49,152; 2,000 slanted triangles
in one band 4,000 of 8,000 (the two lower edges of each meet at its
lowest vertex), the same at ``|coord| ~ 2**31``; the 1,000-cluster
crossing mesh 3,060 of 23,576 (integer slabs) and 12,036 of 601,342
(rational slabs).  The ordering step of the die: 9–13 ms as a five-key
``lexsort``, 1–2 ms now.

Merging
-------
The sweep cuts every figure at every foreign vertex y; the vertical
merge that undoes this (:func:`repro.geometry.scanline.merge_trapezoids`
— paper-facing: figure count drives the write-time models) folds a
40-zone plate's 74k rows into 4.7k figures.  :func:`merge_rows` does it
on the ``(N, 6)`` row array and the merged rows leave the kernel as they
are, inside a :class:`~repro.geometry.vertex_array.FigureView` — no
:class:`Trapezoid` exists unless a caller asks the view for one — and
reproduces the scalar merge exactly: same floats, same order.

*The join.*  The scalar merge pairs a lower figure with an upper one by
the dict key ``round(y, 9)`` and ``abs(dx) <= tol`` on both corners,
taking the first unconsumed candidate in input order.  On kernel output
a real continuation is *exactly* equal — adjacent slabs share the same
boundary float and the same rational x (``num_hi`` of slab k is
``num_lo`` of slab k+1) — so the pairing is an exact join on the
``(y, x_left, x_right)`` triple of every row's top edge against every
row's bottom edge, read off one sort of the 2N edges.  Three guards,
each a comparison of neighbours in that sort, make "within tolerance"
mean "equal" and every candidate unique; if one trips,
:func:`merge_rows` returns ``None``:

a. two distinct boundary ys no more than :data:`_LEVEL_GAP` apart
   (their rounded keys could collide);
b. at one y, two distinct left xs no more than ``tol`` apart, or two
   edges with the same left x whose distinct right xs are (the
   reference's own ``<=``) — a corner could match a neighbour it does
   not equal;
c. one triple held by three or more edges (figures meeting at a shared
   apex) — which lower meets which upper would depend on the
   reference's first-in-input-order rule.  Two edges holding a triple
   are either one lower and one upper, the candidate link, or nothing.

*The links.*  A candidate link is taken iff both side slopes continue
within ``tol`` — but ``_slopes_match`` compares the upper figure against
the *merged-so-far* figure, so whether a link holds depends on where its
chain started, and a reticle die has chains of over a thousand rows.
Instead of growing chains a row per round, every link is first predicted
from its two rows alone; each row's chain head then follows by pointer
doubling (``head = head[head]`` until stable, log₂ of the longest run);
and every link is re-evaluated against that head with the reference's
own float expressions (numpy float64 ``-``, ``/``, ``abs`` are the same
IEEE operations).  If the outcome equals the prediction it *is* the
greedy result, by induction up each chain: the lowest link's head is
trivially right, so its decision is right, so the next link's head is
right.  Otherwise the outcome becomes the prediction and the step
repeats — the lowest wrong link of every chain is corrected each time —
up to :data:`_MERGE_PASSES` times, then ``None``.  Kernel output rarely
needs a second pass; crossing-dense layouts, whose sub-grid slabs have
slopes that are mostly rounding noise, have needed up to four.

*The order.*  Chain heads, stably sorted by ``(y_bottom,
x_bottom_left)``, are the order the reference visits them in; a merged
row takes its bottom edge from the head and its top edge from the tail.

*The hand-back.*  On ``None`` the sweep builds the objects and runs the
scalar merge as before, and increments ``KernelFallbacks.scalar_merge``
— slower, never different.  No shipped workload trips a guard; random
self-intersecting polygons on a coarse grid, where many edges pass
through one lattice point, do about once in a hundred sweeps (guard c).

Translated copies
-----------------
A mask is one die stepped at a pitch, and a shard plan whose pitch is
the die's hands the kernel the same rings again and again, each time
moved by whole database units.  So the call is two steps.  The exact
sweep (:func:`_exact_sweep`) runs on the snapped rings moved by ``k`` =
their own minimum corner and yields its candidate rows as exact
integers (:class:`_Candidates`); every decision in it — crossings,
order, winding, which intervals are inside — is a comparison of exact
rationals and so does not change under a whole-dbu move.  The emission
(:func:`_emit`) divides ``(num + k*den)/den`` correctly rounded for the
call's own ``k``, scales by the grid, drops rows whose rendered height
is zero (a float test, so it is made per call) and hands the rows to
:func:`merge_rows`.  A float is never shifted: the rows of every call
are the ones a sweep of its own coordinates would give, bit for bit.

The process keeps one slot: the last exact sweep and its key (the moved
rings' bytes, the ring offsets, the number of group-A rings, the
operation and the fill rule — compared byte for byte).  A call whose
key matches skips the sweep; a miss sweeps and replaces the slot, so at
most one kept sweep and the one being built are alive.  The lookup
comes after the :data:`COORD_LIMIT` checks and a sweep that fell back is
never kept, so every :class:`KernelFallbacks` counter reads what a fresh
call counts.  The slot is module state, not content: nothing pickled,
fingerprinted or cache-keyed refers to it, its arrays are read-only, and
a forked pool worker or a ``work`` daemon keeps its own.  Two threads
may both miss and sweep; the slot is one reference, swapped whole.
On the F16 die (20 zones, 2,560 vertices) a kept sweep re-emits and
merges in ≈ 4 ms against ≈ 12–15 ms for a sweep, ≈ 3 ms of it
:func:`merge_rows`; a copy its plan serves (below) takes ≈ 1 ms, half
of it stacking and snapping the rings and building the key.

Merged copies
-------------
Every copy would still merge its rows — the F16 die's 18,722 into the
same 2,332 — and the merge decides on the copy's floats.  So the slot
holds a third entry, a *plan*, built on the first hit (never on a
sweep: a process that re-emits nothing pays nothing).  That call emits
and merges as any other — the *reference copy* — and the plan is read
off its merge's own internals (:class:`_Links`): the chain heads and
tails in output order, the join's margins and a reach per link.  A copy
the plan serves (:func:`_serve`) emits only the merged rows' ends —
``yb, xbl, xbr`` of each head and ``yt, xtl, xtr`` of its tail, through
:func:`_quotient` as :func:`_emit` would — and nothing else; any other
copy emits and merges as before.

*When a plan is kept.*  The reference merge settled on its first check;
no row was dropped for zero height; the sweep is one family of
integer-bounded slabs with int64 candidates (so emitted row ``r`` is
candidate ``r``); and every two neighbours of the merge's edge order
with equal floats hold equal rationals — exact levels, and for the xs
the same fraction (one edge through a boundary) or else equal order
keys (:func:`_keys_float`/:func:`_keys_int64`).  Equal rationals round
alike in every copy; this makes equal floats mean the same.

*The error bound.*  A copy's *magnitude* ``M`` is its largest
``|coordinate|`` times the grid.  An emitted coordinate is its exact
value (a rational times the grid) rounded twice, the quotient and the
product, so it is within ``e(M) = 2**-51 * M`` of it — twice the
``(2u + u**2) * M`` of the two roundings, ``u = 2**-53``, as long as
every coordinate is zero or a normal float (a plan needs ``grid >=
2**-960``).  Every margin and bound below is shifted by a relative
``2**-40`` in the safe direction, far more than its own float
arithmetic errs by.

*The join carries over.*  Apart from the slopes, :func:`merge_rows`
tests floats in one place: the sort of the 2N edges by level, left x
and right x, the guards on neighbouring gaps, and the links where all
three are equal.  Two distinct exact values at an exact distance ``G``
read ``d <= (G + 2 e_ref)(1 + u)`` apart in the reference copy and at
least ``(G - 2 e)(1 - u)`` apart in the copy.  So where the smallest
positive gap of each kind — between levels; between left xs at one
level; between right xs at one level and left x — exceeds its guard's
threshold (:data:`_LEVEL_GAP`, ``tol``) by more than ``2 (e_ref + e)``,
the copy keeps every distinct pair apart, in order and past the guard,
and every equal pair equal.  Its sort is the same permutation, no
guard trips, its candidate links are the same pairs, every row keeps a
positive height (none is dropped), and its chain heads sort by ``(yb,
xbl)`` in the same order.  The largest ``M`` for which this holds is the
plan's ``reach``.

*Certified links keep their decisions.*  A slope ``s = D/R`` whose
coordinates are each within ``e`` of exact, with ``e <= R * 2**-20``
(:data:`_RISE_SHARE`), is within ``2 (1 + |s|) e / R + 3u|s|`` of ``D/R``
exact, up to a factor ``1 + 2**-15``; a residual ``|s_chain - s_up|``
moves by the two slopes' errors and its own rounding.  Put in the
reference copy's floats (``P = 1 + |chain slope|``, ``Q = 1 + |upper
slope|``), the residual of any copy is within ``2.001 (P / rise + Q /
height) e + 9u (P + Q)`` of the exact one.  A test whose reference
residual is farther from ``tol`` than the two copies' bounds together
therefore comes out the same in both.  Each link has two tests, the
prediction (its two rows alone) and the final check (its chain from the
settled head), on two sides; a taken link needs both sides within
``tol``, a refused one one side certainly beyond.  The largest ``M`` at
which all of this holds is the link's reach; the plan keeps the reaches
sorted.

*Uncertified links are re-evaluated.*  For a copy of magnitude ``M``,
``searchsorted(link_reach, M)`` names the links whose reach does not
cover it.  Their head, lower and upper rows are emitted, and both tests
are made on them by :func:`_chain_slopes`, :func:`_up_slopes` and
:func:`_continues` — :func:`merge_rows`'s own float expressions, on
the copy's own floats.  If every decision agrees, ``M`` is below the
plan's ``reach`` and the copy is on the plan's grid (the slot's key
holds snapped integers, not the grid, and every margin above is in
layout units), the plan serves the copy; otherwise the copy is emitted
and merged.

*So the result is the copy's own.*  On a served copy, the prediction
:func:`merge_rows` would make is the reference's ``taken``, link for
link (certified, or re-evaluated); so its heads are the reference's; so
its first check, the same decisions again, agrees, and it stops after
one pass with the same links.  By the induction in "Merging" that is
the greedy result of the copy's own rows; the rows it would gather are
the ends the plan names, emitted as the same floats.  Bytes and
:class:`KernelFallbacks` (none) are what a cold call gives.

*Measured* on the F16 die: links 18,682; at the reticle's magnitudes
(140–540 µm) 20–220 of them are re-evaluated, and every copy is served.
The plan is 654 kB, 35 B a candidate row beside the kept sweep's 88 B;
building it costs ≈ 5 ms once, on top of the reference copy's ≈ 4 ms
(F12b: sweep 11.8 ms, plan-building re-emission 9.8 ms, served copy
0.9 ms).  A sweep with rational-bounded slabs, or with int64-overflowing
candidates (an extent beyond ``2**31 - 1`` dbu), keeps no plan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.scanline import DEFAULT_GRID, merge_trapezoids
from repro.geometry.trapezoid import Trapezoid
from repro.geometry.vertex_array import (
    FigureView,
    snap_stacked,
    stack_polygons,
    trapezoids_from_array,
)

#: Largest |coordinate| (in database units) the fast kernel accepts.
#: Beyond it a snapped value stops being exactly representable as
#: float64, which the emitted trapezoids rely on (below it the moved
#: coordinates the sweep keys on stay under 2**54, so ``q`` fits the
#: int64 sort key), so the caller falls back to the Fraction-based
#: reference engine — a counted event, not a silent one.
COORD_LIMIT = 1 << 53

#: Largest |coordinate| for the single-float fractional key (the
#: original kernel regime, kept unchanged for the dominant case).
_FLOAT_KEY_LIMIT = 1 << 24

#: Largest |coordinate| for pure-int64 key arithmetic
#: (``2*B**2 < 2**63`` requires ``B <= 2**31 - 1``).
_INT64_KEY_LIMIT = (1 << 31) - 1

#: Largest |coordinate| for int64 cross products in crossing detection
#: (``8*B**2 < 2**63`` requires ``B <= 2**30 - 1``; 2**29 keeps a 2x
#: margin).  Above it the pruned candidates use Python-int objects.
_CROSS_INT64_LIMIT = 1 << 29

#: Raw (pre-snap) scaled magnitude above which ``float -> int64`` is
#: undefined behaviour in NumPy; checked on the input floats *before*
#: snapping so oversized inputs fall back instead of wrapping.
_SNAP_SAFE_LIMIT = float(1 << 62)

#: Bits per big-integer fractional digit word (words must fit int64
#: with headroom: ``r << 54`` below ``den < 2**164`` stays a small
#: Python int; each emitted word is ``< 2**54``).
_WORD_BITS = 54

#: Safety valve: if a rational-slab key would need more digit words
#: than this, the sweep returns ``None`` and the caller runs the
#: reference engine (counted as a ``rational_slab`` fallback).
#: Unreachable by the bound in the module docstring (K <= 7).
_MAX_FRACTION_WORDS = 8


#: Two distinct boundary ys this close could share one of the scalar
#: merge's ``round(y, 9)`` keys; twice the rounding step is a safe margin
#: at every float magnitude.
_LEVEL_GAP = 2e-9

#: Passes over the link predictions :func:`merge_rows` tries before
#: handing the sweep back to the scalar merge (the F12 crossing mesh, the
#: most any kernel output has needed, takes four).
_MERGE_PASSES = 8


@dataclass
class KernelFallbacks:
    """Counters for every way the fast kernel can degrade.

    Attributes:
        coord_limit: sweeps abandoned to the reference engine because a
            coordinate exceeded :data:`COORD_LIMIT` (one count per
            abandoned sweep).
        rational_slab: sweeps handed back to the reference engine
            because a rational-slab key needed more than
            :data:`_MAX_FRACTION_WORDS` digit words (one count per
            sweep handed back; unreachable by construction, see module
            docstring).
        scalar_merge: sweeps whose rows were merged object by object by
            :func:`repro.geometry.scanline.merge_trapezoids` because
            :func:`merge_rows` declined them (one count per sweep; see
            "Merging" in the module docstring).
    """

    coord_limit: int = 0
    rational_slab: int = 0
    scalar_merge: int = 0

    def total(self) -> int:
        return self.coord_limit + self.rational_slab + self.scalar_merge

    def copy(self) -> "KernelFallbacks":
        return replace(self)

    def add(self, other: "KernelFallbacks") -> None:
        for counter in fields(self):
            mine = getattr(self, counter.name)
            setattr(self, counter.name, mine + getattr(other, counter.name))


_VECTOR_PREDICATES: Dict[str, Callable] = {
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "sub": lambda a, b: a & ~b,
    "xor": lambda a, b: a ^ b,
}


def _fill_vec(rule: str, w: np.ndarray) -> np.ndarray:
    if rule == "nonzero":
        return w != 0
    return (w & 1) == 1


# ---------------------------------------------------------------------------
# Edge table construction
# ---------------------------------------------------------------------------


def _edge_table(
    ints: np.ndarray, offsets: np.ndarray, groups: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Build the canonical scan-edge arrays from stacked snapped rings.

    Mirrors :func:`repro.geometry.scanline.edges_from_rings`: horizontal
    edges are dropped, rings with fewer than 3 vertices are skipped, the
    lower endpoint comes first and ``winding`` is +1 for originally
    upward edges.
    """
    counts = np.diff(offsets)
    total = int(offsets[-1])
    ring_id = np.repeat(np.arange(len(counts)), counts)
    nxt = np.arange(total, dtype=np.int64) + 1
    nonempty = counts > 0
    nxt[offsets[1:][nonempty] - 1] = offsets[:-1][nonempty]
    ax = ints[:, 0]
    ay = ints[:, 1]
    bx = ints[nxt, 0]
    by = ints[nxt, 1]
    keep = (counts >= 3)[ring_id] & (ay != by)
    ax, ay, bx, by = ax[keep], ay[keep], bx[keep], by[keep]
    up = ay < by
    x0 = np.where(up, ax, bx)
    y0 = np.where(up, ay, by)
    x1 = np.where(up, bx, ax)
    y1 = np.where(up, by, ay)
    winding = np.where(up, np.int64(1), np.int64(-1))
    group = groups[ring_id[keep]]
    return x0, y0, x1, y1, winding, group


# ---------------------------------------------------------------------------
# Crossing detection
# ---------------------------------------------------------------------------


#: Candidate edge pairs filtered per vectorized batch.  Bounds the
#: transient memory of crossing detection to a few tens of MB no matter
#: how many edges share a y band; the batches stream, so total work is
#: still one vectorized pass over the candidate set.
_PAIR_CHUNK = 1 << 20


def _iter_range_batches(j_lo: np.ndarray, cnt: np.ndarray, limit: int):
    """Yield ``(source_slice, ii_local, jj_positions)`` batches of the
    ragged candidate ranges ``[j_lo[k], j_lo[k] + cnt[k])``, each batch
    holding at most ``limit`` pairs (a single oversized source still
    yields one batch — ranges are never split)."""
    csum = np.cumsum(cnt)
    n = len(cnt)
    start = 0
    while start < n:
        prev = int(csum[start - 1]) if start else 0
        end = int(np.searchsorted(csum, prev + limit, side="left")) + 1
        end = max(end, start + 1)
        end = min(end, n)
        c = cnt[start:end]
        total = int(csum[end - 1]) - prev
        ii_local = np.repeat(np.arange(start, end, dtype=np.int64), c)
        base = np.concatenate(([0], np.cumsum(c)[:-1]))
        jj = np.arange(total, dtype=np.int64) - np.repeat(base, c)
        jj += np.repeat(j_lo[start:end], c)
        yield ii_local, jj
        start = end


def _strict_crossings(
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    wide: bool = False,
) -> Tuple[List[Fraction], np.ndarray]:
    """Exact ys of strictly interior edge/edge crossings.

    Only transversal crossings strictly inside *both* edges can create a
    slab boundary that is not already an edge-endpoint y; collinear
    overlaps and endpoint touches are skipped by construction.  Pair
    candidates come from a y-interval join with two prunes —
    vertical/vertical pairs are parallel and never cross, and x ranges
    must overlap — generated and filtered in bounded batches
    (:data:`_PAIR_CHUNK`) with exact cross products: int64 when
    coordinates stay within :data:`_CROSS_INT64_LIMIT`, Python-int
    objects (``wide=True``) beyond.  The rare survivors are evaluated in
    exact (unbounded) Python integers.

    Returns non-integer crossing ys as reduced fractions plus integer
    crossing ys as an int64 array.
    """
    n = len(x0)
    rational: List[Fraction] = []
    integral: List[int] = []
    if n < 2:
        return rational, np.empty(0, dtype=np.int64)
    slanted = x0 != x1
    if not bool(slanted.any()):
        # Manhattan data: every edge is vertical, crossings impossible.
        return rational, np.empty(0, dtype=np.int64)

    order = np.argsort(y0, kind="stable")
    sx0, sy0 = x0[order], y0[order]
    sx1, sy1 = x1[order], y1[order]
    s_slant = slanted[order]
    xmin = np.minimum(sx0, sx1)
    xmax = np.maximum(sx0, sx1)
    # For sorted position i, candidates are positions j in (i, hi[i]):
    # they start at or after y0[i] and strictly before y1[i].
    hi = np.searchsorted(sy0, sy1, side="left")
    slant_pos = np.nonzero(s_slant)[0]
    # Prefix count of slanted edges, for vertical-vs-slanted ranges.
    lo_s = np.searchsorted(slant_pos, np.arange(n) + 1, side="left")
    hi_s = np.searchsorted(slant_pos, hi, side="left")

    def process(ii: np.ndarray, jj: np.ndarray) -> None:
        ok = (xmax[ii] >= xmin[jj]) & (xmax[jj] >= xmin[ii])
        ii, jj = ii[ok], jj[ok]
        if len(ii) == 0:
            return
        d1x = sx1[ii] - sx0[ii]
        d1y = sy1[ii] - sy0[ii]
        d2x = sx1[jj] - sx0[jj]
        d2y = sy1[jj] - sy0[jj]
        px = sx0[jj] - sx0[ii]
        py = sy0[jj] - sy0[ii]
        if wide:
            # Deltas are exact in int64 (|delta| <= B <= 2**54); the
            # cross products below are not — promote to Python ints.
            d1x, d1y = d1x.astype(object), d1y.astype(object)
            d2x, d2y = d2x.astype(object), d2y.astype(object)
            px, py = px.astype(object), py.astype(object)
        denom = d1x * d2y - d1y * d2x
        t_num = px * d2y - py * d2x
        u_num = px * d1y - py * d1x
        sgn = np.sign(denom)
        dn = np.abs(denom)
        tn = t_num * sgn
        un = u_num * sgn
        strict = (denom != 0) & (tn > 0) & (tn < dn) & (un > 0) & (un < dn)
        for k in np.nonzero(strict)[0].tolist():
            # Exact arithmetic in Python ints: the numerator can exceed
            # int64 for large coordinates even under COORD_LIMIT.
            num = (
                int(sy0[ii[k]]) * int(denom[k])
                + int(t_num[k]) * int(d1y[k])
            )
            y = Fraction(num, int(denom[k]))
            if y.denominator == 1:
                integral.append(int(y))
            else:
                rational.append(y)

    idx = np.arange(n, dtype=np.int64)
    # Slanted i against every later overlapping j; vertical i against
    # later overlapping *slanted* j only.
    for i_src, j_lo, j_hi, via_slant in (
        (idx[s_slant], (idx + 1)[s_slant], hi[s_slant], False),
        (idx[~s_slant], lo_s[~s_slant], hi_s[~s_slant], True),
    ):
        cnt = np.maximum(j_hi - j_lo, 0)
        keep = cnt > 0
        i_src, j_lo, cnt = i_src[keep], j_lo[keep], cnt[keep]
        if len(i_src) == 0:
            continue
        for ii_local, jj in _iter_range_batches(j_lo, cnt, _PAIR_CHUNK):
            ii = i_src[ii_local]
            if via_slant:
                jj = slant_pos[jj]
            process(ii, jj)
    return rational, np.asarray(integral, dtype=np.int64)


# ---------------------------------------------------------------------------
# Order-embedding keys
# ---------------------------------------------------------------------------


def _keys_float(num: np.ndarray, dy: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(q, float64(r/dy))`` — exact for ``den <= 2**25`` (see docstring)."""
    q = num // dy
    r = num - q * dy
    f = r.astype(np.float64) / dy.astype(np.float64)
    return q, f


def _keys_int64(num: np.ndarray, dy: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(q, w1, w2, w3)`` with three 31-bit fraction digit words —
    exact for ``dy < 2**32`` (93 fractional bits >= 2 * bits(dy))."""
    q = num // dy
    r = num - q * dy
    words = [q]
    shift = np.int64(31)
    for _ in range(3):
        t = r << shift
        w = t // dy
        r = t - w * dy
        words.append(w)
    return tuple(words)


def _keys_object(
    num: np.ndarray, den: np.ndarray, den_bits: int
) -> Tuple[np.ndarray, ...]:
    """``(q, w1, .., wK)`` over Python-int arrays, K adaptive so that
    ``54*K >= 2 * den_bits`` — exact for denominators of any size.

    ``q`` and every digit word fit int64 (``|q| <= 2*COORD_LIMIT + 1``,
    ``w < 2**54``), so the emitted key arrays are plain int64 and the
    downstream sort never touches an object."""
    q = num // den
    r = num - q * den
    k_words = -(-2 * den_bits // _WORD_BITS)
    words = [q.astype(np.int64)]
    for _ in range(k_words):
        t = r << _WORD_BITS
        w = t // den
        r = t - w * den
        words.append(w.astype(np.int64))
    return tuple(words)


def _lex_compare(
    keys: Tuple[np.ndarray, ...], a_idx: np.ndarray, b_idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized lexicographic ``(a < b, a == b)`` over key rows."""
    lt = np.zeros(len(a_idx), dtype=bool)
    eq = np.ones(len(a_idx), dtype=bool)
    for k in keys:
        ka = k[a_idx]
        kb = k[b_idx]
        lt |= eq & (ka < kb)
        eq &= ka == kb
    return lt, eq


def _quotient(
    num: np.ndarray, den: np.ndarray, k: int, coord_max: int
) -> np.ndarray:
    """Correctly rounded ``(num + k*den) / den`` as float64: a local-frame
    rational moved back by the whole-dbu shift ``k``.

    ``coord_max`` bounds the moved coordinates.  Up to
    :data:`_INT64_KEY_LIMIT` the moved numerator is exact in int64
    (``|num + k*den| = |x|*dy <= 2*B**2 < 2**63``); up to
    :data:`_FLOAT_KEY_LIMIT` it and ``den`` are also exact doubles, so a
    float64 division is the correctly rounded one.  Otherwise Python
    ints divide, correctly rounded at any magnitude."""
    if num.dtype != object and coord_max <= _INT64_KEY_LIMIT:
        moved = num + k * den
        if coord_max <= _FLOAT_KEY_LIMIT:
            return moved.astype(np.float64) / den.astype(np.float64)
    else:
        moved = num.astype(object) + k * den.astype(object)
    return (moved.astype(object) / den.astype(object)).astype(np.float64)


# ---------------------------------------------------------------------------
# The vectorized sweep
# ---------------------------------------------------------------------------


def _order_by_pair(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """``np.lexsort((minor, major))`` as one stable sort on a complex key
    (complex numbers order by real part, then imaginary part).

    :func:`merge_rows` sorts what the sweep emitted slab by slab and left
    to right — already in order, or two interleaved sorted runs; one
    adaptive sort merges those in a single pass, where ``lexsort``'s
    pass per key, least significant first, scrambles them (4 ms against
    19 ms on the 148k edges of a 40-zone plate).  :func:`_sweep_order`
    sorts incidences that are grouped by edge, not by slab: there the
    gain is one pass instead of one per key.  Shuffled input costs the
    same either way.
    """
    key = np.empty(len(major), dtype=np.complex128)
    key.real = major
    key.imag = minor
    return np.argsort(key, kind="stable")


def _sweep_order(
    s: np.ndarray,
    keys_lo: Tuple[np.ndarray, ...],
    keys_hi: Tuple[np.ndarray, ...],
) -> np.ndarray:
    """``np.lexsort(reversed(keys_hi) + reversed(keys_lo) + (s,))`` — the
    same permutation, fully equal rows in input order included — as one
    stable sort on ``(slab, coarse x_lo)`` plus an exact re-sort of the
    rows that sort left tied.  See "Ordering" in the module docstring.
    """
    coarse = keys_lo[0].astype(np.float64)
    if keys_lo[1].dtype == np.float64:
        # Float-key regime: q and f are exact doubles, q + f rounds once.
        coarse += keys_lo[1]
    order = _order_by_pair(s, coarse)
    s, coarse = s[order], coarse[order]
    same = (s[1:] == s[:-1]) & (coarse[1:] == coarse[:-1])
    if same.any():
        tied = np.concatenate(([False], same)) | np.concatenate((same, [False]))
        rows = order[tied]
        exact = tuple(k[rows] for k in reversed(keys_lo + keys_hi))
        order[tied] = rows[np.lexsort(exact + (coarse[tied], s[tied]))]
    return order


def _sweep_block(
    e: np.ndarray,
    s: np.ndarray,
    winding: np.ndarray,
    group: np.ndarray,
    operation: str,
    fill_rule: str,
    keys_lo: Tuple[np.ndarray, ...],
    keys_hi: Tuple[np.ndarray, ...],
    num_lo: np.ndarray,
    den_lo: np.ndarray,
    num_hi: np.ndarray,
    den_hi: np.ndarray,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Sweep one family of slabs given exact per-boundary order keys.

    ``(e, s)`` are the (edge, slab) incidence rows of the family;
    ``keys_lo``/``keys_hi`` are the order-embedding key arrays for x at
    the lower/upper boundary and ``num/den`` the exact rational x.
    Returns ``(slab_ids, x_num, x_den)``: one candidate row per interior
    interval with width at one boundary at least, in slab order, its
    four corner xs (``TRAP_COLUMNS`` order) as exact numerators and
    denominators.
    """
    order = _sweep_order(s, keys_lo, keys_hi)
    e = e[order]
    s = s[order]
    keys_lo = tuple(k[order] for k in keys_lo)
    keys_hi = tuple(k[order] for k in keys_hi)
    num_lo = num_lo[order]
    num_hi = num_hi[order]
    den_lo = den_lo[order]
    den_hi = den_hi[order]

    n = len(e)
    new_slab = np.ones(n, dtype=bool)
    new_slab[1:] = s[1:] != s[:-1]
    new_group = new_slab.copy()
    for k in keys_lo + keys_hi:
        new_group[1:] |= k[1:] != k[:-1]

    w = winding[e]
    g = group[e]
    wa = np.cumsum(np.where(g == 0, w, 0))
    wb = np.cumsum(np.where(g == 1, w, 0))
    slab_start = np.nonzero(new_slab)[0]
    slab_len = np.diff(np.concatenate((slab_start, [n])))
    base_a = np.where(slab_start > 0, wa[slab_start - 1], 0)
    base_b = np.where(slab_start > 0, wb[slab_start - 1], 0)
    wa = wa - np.repeat(base_a, slab_len)
    wb = wb - np.repeat(base_b, slab_len)

    g_start = np.nonzero(new_group)[0]
    g_end = np.concatenate((g_start[1:] - 1, [n - 1]))
    inside = _VECTOR_PREDICATES[operation](
        _fill_vec(fill_rule, wa[g_end]), _fill_vec(fill_rule, wb[g_end])
    )
    g_slab = s[g_end]
    prev = np.empty_like(inside)
    prev[0] = False
    prev[1:] = inside[:-1]
    first_of_slab = np.ones(len(g_end), dtype=bool)
    first_of_slab[1:] = g_slab[1:] != g_slab[:-1]
    prev[first_of_slab] = False
    opens = inside & ~prev
    closes = prev & ~inside
    left = g_start[opens]
    right = g_end[closes]
    if len(left) != len(right):  # pragma: no cover - invariant guard
        raise AssertionError("unbalanced interior transitions")

    # Exact per-boundary comparisons right-vs-left via the order keys.
    lt0, eq0 = _lex_compare(keys_lo, right, left)
    lt1, eq1 = _lex_compare(keys_hi, right, left)
    kept = ~((lt0 | eq0) & (lt1 | eq1))
    left, right, lt0, lt1 = left[kept], right[kept], lt0[kept], lt1[kept]
    # Guard against coincident-edge inversions, as the reference does:
    # a right x left of the left one takes the left one (exact max).
    x_num, x_den = [], []  # xl0, xr0, xl1, xr1
    for num, den, lt in ((num_lo, den_lo, lt0), (num_hi, den_hi, lt1)):
        x_num += [num[left], np.where(lt, num[left], num[right])]
        x_den += [den[left], np.where(lt, den[left], den[right])]
    return s[left], tuple(x_num), tuple(x_den)


# ---------------------------------------------------------------------------
# The vertical merge, on rows
# ---------------------------------------------------------------------------


class _Links(NamedTuple):
    """What :func:`merge_rows` settled on before it gathers.

    ``columns``: the rows' columns (``TRAP_COLUMNS`` order).  ``order``:
    the sorted order of the 2N edges it joined (row ``r``'s top edge is
    ``r``, its bottom edge ``N + r``), and ``gaps`` the differences of
    neighbouring levels, left xs and right xs in it.  Each candidate
    link's ``lower`` and ``upper`` row, the upper row's slopes (``up``),
    the slopes of its two rows alone (``first``) and of its chain at the
    final heads (``last``), and whether it is ``taken``.  Every row's
    chain ``head``, the ``tol`` compared against, and whether the first
    check agreed with the prediction (``settled``)."""

    columns: np.ndarray
    order: np.ndarray
    gaps: Tuple[np.ndarray, np.ndarray, np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    up: Tuple[np.ndarray, ...]
    first: Tuple[np.ndarray, ...]
    last: Tuple[np.ndarray, ...]
    taken: np.ndarray
    head: np.ndarray
    tol: float
    settled: bool


def _up_slopes(columns: Sequence[np.ndarray], upper: np.ndarray):
    """``(height, left slope, right slope)`` of the upper rows."""
    yb, yt, xbl, xbr, xtl, xtr = columns
    height = yt[upper] - yb[upper]
    return (
        height,
        (xtl[upper] - xbl[upper]) / height,
        (xtr[upper] - xbr[upper]) / height,
    )


def _chain_slopes(
    columns: Sequence[np.ndarray], head: np.ndarray, lower: np.ndarray
):
    """``(rise, left slope, right slope)`` of the chains that start at
    ``head`` and end at ``lower``."""
    yb, yt, xbl, xbr, xtl, xtr = columns
    rise = yt[lower] - yb[head]
    return (
        rise,
        (xtl[lower] - xbl[head]) / rise,
        (xtr[lower] - xbr[head]) / rise,
    )


def _continues(chain, up, tol: float) -> np.ndarray:
    """``_slopes_match(chain, upper)`` in the reference's own float
    expressions (numpy float64 ``-``, ``/``, ``abs`` are the same IEEE
    operations): both sides' slopes within ``tol``."""
    return (np.abs(chain[1] - up[1]) <= tol) & (np.abs(chain[2] - up[2]) <= tol)


def _ends(links: _Links) -> Tuple[np.ndarray, np.ndarray]:
    """The merged rows' chain heads, in output order, and their tails."""
    n = len(links.head)
    yb, _, xbl = links.columns[:3]
    is_tail = np.ones(n, dtype=bool)
    is_tail[links.lower[links.taken]] = False
    tails = np.flatnonzero(is_tail)
    tail_of = np.empty(n, dtype=np.intp)
    tail_of[links.head[tails]] = tails
    heads = np.flatnonzero(links.head == np.arange(n))
    heads = heads[_order_by_pair(yb[heads], xbl[heads])]
    return heads, tail_of[heads]


# Python floats overflow to inf, and turn inf - inf into nan, without a
# word; the same operations must stay as quiet here.
@np.errstate(over="ignore", invalid="ignore")
def merge_rows(
    rows: np.ndarray, tol: float = 1e-9, found: Optional[list] = None
) -> Optional[np.ndarray]:
    """Array form of :func:`repro.geometry.scanline.merge_trapezoids`.

    ``rows`` is an ``(N, 6)`` float64 array in ``TRAP_COLUMNS`` order.
    Returns the merged rows — the same floats in the same order the
    scalar merge would produce from the same trapezoids — or ``None``
    when it cannot promise that (a guard tripped, or the link
    predictions did not settle within :data:`_MERGE_PASSES`); the caller
    then runs the scalar merge.  See "Merging" in the module docstring.
    When ``found`` is given, the :class:`_Links` of a merge that did not
    decline are appended to it (a kept sweep's plan is built from them;
    see "Merged copies").

    Raises:
        ValueError: the :class:`Trapezoid` constructor's own error for
            the first row it would have refused.
    """
    if len(rows) == 0:
        return rows
    links = _find_links(rows, tol)
    if links is None:
        return None
    if found is not None:
        found.append(links)
    heads, tails = _ends(links)
    yb, yt, xbl, xbr, xtl, xtr = links.columns
    return np.column_stack(
        (yb[heads], yt[tails], xbl[heads], xbr[heads], xtl[tails], xtr[tails])
    )


def _find_links(rows: np.ndarray, tol: float) -> Optional[_Links]:
    """The link-finding step of :func:`merge_rows`: its join, guards and
    passes over a non-empty row array; ``None`` where it declines."""
    n = len(rows)
    columns = np.ascontiguousarray(rows.T)
    yb, yt, xbl, xbr, xtl, xtr = columns
    invalid = (yt <= yb) | (xbr < xbl) | (xtr < xtl)
    if invalid.any():
        # Unmerged rows no longer pass through the constructor one by
        # one; let it refuse the first bad one in its own words.
        Trapezoid(*rows[int(invalid.argmax())])
    if not (tol >= 0.0 and np.isfinite(rows).all()):
        return None

    # Join every row's top edge (as a lower) to every row's bottom edge
    # (as an upper) on the exact (y, x_left, x_right) triple: sort the
    # 2N edges by it, lowers listed first so that the stable sort puts a
    # lower directly before the upper that continues it.
    level = np.concatenate((yt, yb))
    left = np.concatenate((xtl, xbl))
    right = np.concatenate((xtr, xbr))
    order = _order_by_pair(level, left)
    d_level = np.diff(level[order])
    d_left = np.diff(left[order])
    same_level = d_level == 0.0
    same_left = same_level & (d_left == 0.0)
    run = np.concatenate(([0], np.cumsum(~same_left)))
    order = order[_order_by_pair(run, right[order])]
    d_right = np.diff(right[order])
    same = same_left & (d_right == 0.0)
    if (
        ((d_level > 0.0) & (d_level <= _LEVEL_GAP)).any()
        or (same_level & (d_left > 0.0) & (d_left <= tol)).any()
        or (same_left & (d_right > 0.0) & (d_right <= tol)).any()
        or (same[1:] & same[:-1]).any()
    ):
        return None
    link = same & (order[:-1] < n) & (order[1:] >= n)
    lower = order[:-1][link]
    upper = order[1:][link] - n

    # Predict each link from its two rows alone, then check every link
    # against the chain the predictions imply: a set of links that
    # survives its own check is the greedy result.
    up = _up_slopes(columns, upper)
    first = _chain_slopes(columns, lower, lower)
    taken = _continues(first, up, tol)
    own = np.arange(n)
    for passes in range(_MERGE_PASSES):
        head = own.copy()
        head[upper[taken]] = lower[taken]
        while True:
            above = head[head]
            if np.array_equal(above, head):
                break
            head = above
        last = _chain_slopes(columns, head[lower], lower)
        checked = _continues(last, up, tol)
        if np.array_equal(checked, taken):
            break
        taken = checked
    else:
        return None
    return _Links(
        columns, order, (d_level, d_left, d_right), lower, upper, up, first,
        last, taken, head, tol, passes == 0,
    )


# ---------------------------------------------------------------------------
# The exact sweep, its one kept copy, and the emission
# ---------------------------------------------------------------------------


class _Candidates(NamedTuple):
    """One slab family's candidate rows, exact, in the local frame (the
    snapped rings moved to their own minimum corner), in slab order: the
    slab id; the y of the slab's lower and upper boundary as ``y_num /
    y_den`` (``y_den`` is ``None`` where every boundary is an integer);
    and the four corner xs as ``x_num / x_den``."""

    slab: np.ndarray
    y_num: Tuple[np.ndarray, np.ndarray]
    y_den: Optional[Tuple[np.ndarray, np.ndarray]]
    x_num: Tuple[np.ndarray, ...]
    x_den: Tuple[np.ndarray, ...]


class _Plan(NamedTuple):
    """How a kept sweep's rows merge, and how far that carries (see
    "Merged copies" in the module docstring).  ``heads``/``tails``: the
    candidate rows whose bottom/top edge each merged row takes, in
    output order.  ``reach``: the magnitude (largest ``|coordinate|``
    times ``grid``) below which the join and its guards are certain.
    ``link_reach``: per link, ascending, the magnitude below which its
    slope decisions are; ``spot`` (chain head, lower, upper row) and
    ``taken`` are in the same order."""

    grid: float
    tol: float
    reach: float
    heads: np.ndarray
    tails: np.ndarray
    link_reach: np.ndarray
    spot: np.ndarray
    taken: np.ndarray


#: The last sweep that did not fall back, as ``(key, candidates,
#: plan)``; the plan is ``None`` until one is built.  See "Translated
#: copies" and "Merged copies" in the module docstring.
_slot: Optional[
    Tuple[Optional[tuple], List[_Candidates], Optional[_Plan]]
] = None


def clear_sweep_slot() -> None:
    """Make the next call sweep anew; benches that time one input
    over and over call this before each repetition.

    The plan goes; the kept arrays stay until that sweep replaces them.
    Freed here, they would be the top of the heap: the allocator would
    hand the sweep's freed working memory back to the system with them,
    and the next sweep would fault it all in again (≈ 2,900 page faults
    a sweep of the F16 die, against ≈ 170 this way)."""
    global _slot
    if _slot is not None:
        _slot = (None, _slot[1], None)


def _exact_sweep(
    ints: np.ndarray,
    offsets: np.ndarray,
    rings_a: int,
    operation: str,
    fill_rule: str,
) -> Optional[List[_Candidates]]:
    """Sweep stacked snapped rings whose coordinates are all ``>= 0``
    (the first ``rings_a`` rings are group A, the rest group B) into
    exact candidate rows, one :class:`_Candidates` per slab family.
    Returns ``None`` when a rational-slab key would need more than
    :data:`_MAX_FRACTION_WORDS` digit words."""
    groups = (np.arange(len(offsets) - 1) >= rings_a).astype(np.int64)
    x0, y0, x1, y1, winding, group = _edge_table(ints, offsets, groups)
    if len(x0) == 0:
        return []
    coord_max = int(ints.max())

    rational_ys, int_cross = _strict_crossings(
        x0, y0, x1, y1, wide=coord_max > _CROSS_INT64_LIMIT
    )

    # -- slab boundaries ---------------------------------------------------
    # Sorted distinct ys (not np.unique: on numpy >= 2.3 it imports numpy.ma).
    ys = np.sort(np.concatenate([y0, y1, int_cross]))
    int_b = ys[np.append(True, ys[1:] != ys[:-1])]
    rats = sorted(set(rational_ys))
    n_int = len(int_b)
    n_rat = len(rats)
    n_bounds = n_int + n_rat
    if n_bounds < 2:
        return []
    if n_rat:
        rat_floor = np.asarray(
            [f.numerator // f.denominator for f in rats], dtype=np.int64
        )
        # Exact merge positions: a non-integer rational r precedes an
        # integer y iff floor(r) < y, and follows it iff floor(r) >= y.
        pos_int = np.arange(n_int) + np.searchsorted(rat_floor, int_b, "left")
        pos_rat = np.arange(n_rat) + np.searchsorted(int_b, rat_floor, "right")
        b_val = np.zeros(n_bounds, dtype=np.int64)
        b_isint = np.zeros(n_bounds, dtype=bool)
        b_val[pos_int] = int_b
        b_isint[pos_int] = True
        # Exact rational value bn/bd of every boundary.
        b_num = np.empty(n_bounds, dtype=object)
        b_den = np.empty(n_bounds, dtype=object)
        for k in range(n_int):
            i = pos_int[k]
            b_num[i] = int(int_b[k])
            b_den[i] = 1
        for k in range(n_rat):
            i = pos_rat[k]
            b_num[i] = rats[k].numerator
            b_den[i] = rats[k].denominator
    else:
        pos_int = np.arange(n_int)
        b_val = int_b
        b_isint = np.ones(n_bounds, dtype=bool)
        b_num = b_den = None

    # Edge -> slab range: spans slabs [index(y0), index(y1)).
    s0 = pos_int[np.searchsorted(int_b, y0)]
    s1 = pos_int[np.searchsorted(int_b, y1)]

    # -- incidences: one row per (slab, spanning edge) ---------------------
    span = s1 - s0
    m = int(span.sum())
    inc_edge = np.repeat(np.arange(len(x0), dtype=np.int64), span)
    base = np.concatenate(([0], np.cumsum(span)[:-1]))
    inc_slab = np.arange(m, dtype=np.int64) - np.repeat(base, span)
    inc_slab += np.repeat(s0, span)

    # Slabs with a rational boundary need big-integer keys; split them
    # into their own sweep family (slabs are never shared, so the two
    # families are independent and reassemble by slab id).
    e_rat = s_rat = None
    if n_rat:
        rational_slabs = ~(b_isint[:-1] & b_isint[1:])
        rmask = rational_slabs[inc_slab]
        e_rat = inc_edge[rmask]
        s_rat = inc_slab[rmask]
        inc_edge = inc_edge[~rmask]
        inc_slab = inc_slab[~rmask]

    families: List[_Candidates] = []

    # -- integer-bounded slabs ---------------------------------------------
    if len(inc_edge):
        e = inc_edge
        s = inc_slab
        dy = y1[e] - y0[e]
        dx = x1[e] - x0[e]
        lo = b_val[s]
        hi = b_val[s + 1]
        if coord_max <= _INT64_KEY_LIMIT:
            # Exact in int64: |num| <= 2*B**2 < 2**63 (intermediate
            # products may wrap, but int64 arithmetic is modular and
            # the true sum is in range, so the result is exact).
            num_lo = x0[e] * dy + (lo - y0[e]) * dx
            num_hi = x0[e] * dy + (hi - y0[e]) * dx
            if coord_max <= _FLOAT_KEY_LIMIT:
                keys_lo = _keys_float(num_lo, dy)
                keys_hi = _keys_float(num_hi, dy)
            else:
                keys_lo = _keys_int64(num_lo, dy)
                keys_hi = _keys_int64(num_hi, dy)
            den_lo = den_hi = dy
        else:
            dy_o = dy.astype(object)
            dx_o = dx.astype(object)
            x0_o = x0[e].astype(object)
            num_lo = x0_o * dy_o + (lo - y0[e]).astype(object) * dx_o
            num_hi = x0_o * dy_o + (hi - y0[e]).astype(object) * dx_o
            den_lo = den_hi = dy_o
            bits = int(dy.max()).bit_length()
            keys_lo = _keys_object(num_lo, dy_o, bits)
            keys_hi = _keys_object(num_hi, dy_o, bits)
        t, x_num, x_den = _sweep_block(
            e, s, winding, group, operation, fill_rule,
            keys_lo, keys_hi, num_lo, den_lo, num_hi, den_hi,
        )
        families.append(
            _Candidates(t, (b_val[t], b_val[t + 1]), None, x_num, x_den)
        )

    # -- rational-bounded slabs --------------------------------------------
    if e_rat is not None and len(e_rat):
        e = e_rat
        s = s_rat
        dy_o = (y1[e] - y0[e]).astype(object)
        dx_o = (x1[e] - x0[e]).astype(object)
        x0_o = x0[e].astype(object)
        y0_o = y0[e].astype(object)
        bn_lo = b_num[s]
        bd_lo = b_den[s]
        bn_hi = b_num[s + 1]
        bd_hi = b_den[s + 1]
        num_lo = x0_o * dy_o * bd_lo + (bn_lo - y0_o * bd_lo) * dx_o
        num_hi = x0_o * dy_o * bd_hi + (bn_hi - y0_o * bd_hi) * dx_o
        den_lo = dy_o * bd_lo
        den_hi = dy_o * bd_hi
        bits = int(max(den_lo.max(), den_hi.max())).bit_length()
        if -(-2 * bits // _WORD_BITS) > _MAX_FRACTION_WORDS:
            # Safety valve (unreachable by the docstring bound): hand the
            # whole sweep back to the reference engine, counted.
            return None
        keys_lo = _keys_object(num_lo, den_lo, bits)
        keys_hi = _keys_object(num_hi, den_hi, bits)
        t, x_num, x_den = _sweep_block(
            e, s, winding, group, operation, fill_rule,
            keys_lo, keys_hi, num_lo, den_lo, num_hi, den_hi,
        )
        families.append(
            _Candidates(
                t, (b_num[t], b_num[t + 1]), (b_den[t], b_den[t + 1]),
                x_num, x_den,
            )
        )

    for family in families:
        for array in (family.slab, *family.y_num, *(family.y_den or ()),
                      *family.x_num, *family.x_den):
            array.flags.writeable = False
    return families


def _column(
    family: _Candidates,
    column: int,
    at: Optional[np.ndarray],
    kx: int,
    ky: int,
    coord_max: int,
    grid: float,
) -> np.ndarray:
    """Column ``column`` (``TRAP_COLUMNS`` order) of ``family``'s
    candidate rows ``at`` (all of them for ``None``), moved back by the
    whole-dbu shift ``(kx, ky)`` and scaled by ``grid``.  ``coord_max``
    bounds the moved coordinates (see :func:`_quotient`)."""
    if column < 2:
        num, k = family.y_num[column], ky
        den = None if family.y_den is None else family.y_den[column]
    else:
        num, den, k = family.x_num[column - 2], family.x_den[column - 2], kx
    if at is not None:
        num = num[at]
        den = None if den is None else den[at]
    if den is None:
        # Integer boundaries: int64 is exact, and so is the double of a
        # moved y (|y| <= COORD_LIMIT).
        return (num + k).astype(np.float64) * grid
    return _quotient(num, den, k, coord_max) * grid


def _emit(
    family: _Candidates, kx: int, ky: int, coord_max: int, grid: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``family``'s candidate rows moved back by the whole-dbu shift
    ``(kx, ky)`` and scaled by ``grid``: ``(slab_ids, rows)`` of the rows
    kept, one ``(6,)`` float64 trapezoid row each."""
    y_lo, y_hi = (_column(family, c, None, kx, ky, coord_max, grid) for c in (0, 1))
    # A slab of sub-ulp exact height renders as zero height in layout
    # units and carries no area — drop it, as the reference does.
    keep = np.flatnonzero(y_hi > y_lo)
    xs = [_column(family, c, keep, kx, ky, coord_max, grid) for c in range(2, 6)]
    return family.slab[keep], np.column_stack((y_lo[keep], y_hi[keep], *xs))


# ---------------------------------------------------------------------------
# The merge plan of a kept sweep
# ---------------------------------------------------------------------------


#: An emitted coordinate is within this share of the copy's magnitude of
#: its exact value (twice the two roundings' ``2**-52``; "Merged copies").
_COORD_ERROR = 2.0**-51

#: A slope test is certified only while the coordinate error is at most
#: this share of both its rows' heights, where the bound is linear.
_RISE_SHARE = 2.0**-20

#: Relative slack on every margin and bound a plan is built from: far
#: above the few units of ``2**-53`` its own float arithmetic errs by.
_SLACK = 2.0**-40


def _gap_reach(gaps: np.ndarray, threshold: float, err: float) -> float:
    """Largest coordinate error of a copy that keeps every one of
    ``gaps`` (distinct neighbours of the reference copy, ``err`` its own
    coordinate error) above ``threshold``."""
    if not len(gaps):
        return np.inf
    gap = float(gaps.min())
    return (gap * (1 - _SLACK) - threshold * (1 + _SLACK)) / 2 - err * (1 + _SLACK)


def _decision_reach(chains, up, taken: np.ndarray, tol: float, err: float):
    """Per link, the largest coordinate error of a copy on which every
    slope test of ``chains`` against ``up`` (the reference copy's own
    slopes, ``err`` its coordinate error) still comes out ``taken``."""
    height = up[0]
    # Per side, a test within tol by ``gap`` holds while
    # 2.001 * (P / rise + Q / height) * (err + err') + 18u * (P + Q) < gap,
    # P = 1 + |chain slope| and Q = 1 + |upper slope|.
    q = [1.0 + np.abs(up[side]) for side in (1, 2)]
    q_height = [qs / height for qs in q]
    scale = (1 - _SLACK) / (2.001 * (1 + _SLACK))
    rounding = 18 * 2.0**-53 * (1 + _SLACK)
    err = err * (1 + _SLACK)
    out = None
    for chain in chains:
        rise = chain[0]
        reach, inside = [], []
        for side in (0, 1):
            p = 1.0 + np.abs(chain[side + 1])
            off = np.abs(chain[side + 1] - up[side + 1])
            gap = np.abs(off - tol) * scale - (p + q[side]) * rounding
            reach.append(gap / (p / rise + q_height[side]) - err)
            inside.append(off <= tol)
        # A taken link needs both sides within tol; a refused one, one
        # side certainly beyond it.
        refused = np.maximum(
            np.where(inside[0], -np.inf, reach[0]),
            np.where(inside[1], -np.inf, reach[1]),
        )
        decision = np.where(taken, np.minimum(*reach), refused)
        linear = np.minimum(rise, height) * _RISE_SHARE
        decision = np.where(err <= linear, np.minimum(decision, linear), -np.inf)
        out = decision if out is None else np.minimum(out, decision)
    return out


def _equal_rationals(
    order: np.ndarray,
    pairs: np.ndarray,
    num: np.ndarray,
    den: Optional[np.ndarray],
    keys: Callable,
) -> bool:
    """Whether the neighbours ``pairs`` of ``order`` each hold one
    rational ``num / den`` (integers where ``den`` is ``None``)."""
    num = num[order]
    same = num[1:] == num[:-1]
    if den is not None:
        # Mostly one edge continuing through a boundary: the same fraction.
        den = den[order]
        same &= den[1:] == den[:-1]
        rest = np.flatnonzero(pairs & ~same)
        if len(rest):
            below = keys(num[rest], den[rest])
            above = keys(num[rest + 1], den[rest + 1])
            same[rest] = np.logical_and.reduce(
                [a == b for a, b in zip(below, above)]
            )
    return bool(same[pairs].all())


@np.errstate(over="ignore", invalid="ignore")
def _plan(
    links: _Links,
    families: List[_Candidates],
    local_max: int,
    coord_max: int,
    grid: float,
) -> Optional[_Plan]:
    """The plan of a kept sweep from the :class:`_Links` of one copy's
    merge (the reference copy: ``coord_max`` its largest ``|coordinate|``),
    or ``None`` where "Merged copies" promises nothing."""
    family = families[0]
    if not (
        links.settled
        and len(families) == 1
        and len(links.head) == len(family.slab)  # row r is candidate r
        and family.y_den is None
        and family.x_num[0].dtype != object
        # Every emitted coordinate is zero or a normal float (a nonzero
        # one is at least 2**-32 dbu), as the error bound assumes.
        and grid >= 2.0**-960
    ):
        return None
    order, tol = links.order, links.tol
    err = coord_max * grid * _COORD_ERROR
    d_level, d_left, d_right = links.gaps
    same_level = d_level == 0.0
    same_left = same_level & (d_left == 0.0)
    same = same_left & (d_right == 0.0)

    # Equal floats of the reference copy are equal rationals: exact
    # levels, and the sweep's own order keys for the xs.
    keys = _keys_float if local_max <= _FLOAT_KEY_LIMIT else _keys_int64
    num, den = family.x_num, family.x_den
    if not (
        _equal_rationals(
            order, same_level, np.concatenate(family.y_num[::-1]), None, keys
        )
        and _equal_rationals(
            order, same_left, np.concatenate((num[2], num[0])),
            np.concatenate((den[2], den[0])), keys,
        )
        and _equal_rationals(
            order, same, np.concatenate((num[3], num[1])),
            np.concatenate((den[3], den[1])), keys,
        )
    ):
        return None
    joins = min(
        _gap_reach(d_level[d_level > 0.0], _LEVEL_GAP, err),
        _gap_reach(d_left[same_level & (d_left > 0.0)], tol, err),
        _gap_reach(d_right[same_left & (d_right > 0.0)], tol, err),
    )
    if not joins > err:
        return None

    taken = links.taken
    reach = _decision_reach((links.first, links.last), links.up, taken, tol, err)
    # Links of equal reach are doubted together, so any sort will do.
    by_reach = np.argsort(reach)
    heads, tails = _ends(links)
    to_magnitude = (1 - _SLACK) / _COORD_ERROR
    spot = np.column_stack((links.head[links.lower], links.lower, links.upper))
    plan = _Plan(
        grid,
        tol,
        joins * to_magnitude,
        heads,
        tails,
        np.maximum(reach[by_reach] * to_magnitude, 0.0),
        spot[by_reach],
        taken[by_reach],
    )
    for array in plan[3:]:
        array.flags.writeable = False
    return plan


@np.errstate(over="ignore", invalid="ignore")
def _serve(
    plan: _Plan,
    family: _Candidates,
    kx: int,
    ky: int,
    coord_max: int,
    grid: float,
) -> Optional[np.ndarray]:
    """The merged rows of the copy at ``(kx, ky)`` from ``plan``, or
    ``None`` where the plan cannot promise them (see "Merged copies")."""
    magnitude = coord_max * grid
    if grid != plan.grid or not magnitude < plan.reach:
        return None
    doubt = int(np.searchsorted(plan.link_reach, magnitude, side="right"))
    if doubt:
        # The links the bound leaves open: their three rows, emitted, and
        # both slope tests made on them as merge_rows makes them.
        rows = plan.spot[:doubt].ravel()
        columns = [_column(family, c, rows, kx, ky, coord_max, grid) for c in range(6)]
        head, lower, upper = np.arange(3 * doubt).reshape(doubt, 3).T
        up = _up_slopes(columns, upper)
        taken = plan.taken[:doubt]
        for start in (lower, head):
            chain = _chain_slopes(columns, start, lower)
            if not np.array_equal(_continues(chain, up, plan.tol), taken):
                return None
    ends = (plan.heads, plan.tails, plan.heads, plan.heads, plan.tails, plan.tails)
    return np.column_stack(
        [_column(family, c, ends[c], kx, ky, coord_max, grid) for c in range(6)]
    )


def sweep_trapezoids_fast(
    polys_a: Sequence[Polygon],
    polys_b: Sequence[Polygon],
    operation: str,
    fill_rule: str = "nonzero",
    grid: float = DEFAULT_GRID,
    merge: bool = True,
    fallbacks: Optional[KernelFallbacks] = None,
) -> Optional[Sequence[Trapezoid]]:
    """Vectorized boolean sweep; bit-identical to the reference engine.

    The figures come back as a
    :class:`~repro.geometry.vertex_array.FigureView` over the merged
    rows — no :class:`Trapezoid` is built unless the merge is handed
    back to the scalar one.  Returns ``None`` when the snapped coordinates exceed
    :data:`COORD_LIMIT` or a rational-slab key would exceed
    :data:`_MAX_FRACTION_WORDS` — the caller is expected to fall back to
    :func:`repro.geometry.scanline.sweep_trapezoids`.  When
    ``fallbacks`` is given, every degradation (either ``None`` return,
    or a merge that :func:`merge_rows` handed back to the scalar one)
    increments its counters.  A whole-dbu translation of the previous
    call's rings re-emits that call's kept sweep instead of sweeping
    again (see "Translated copies" in the module docstring): the same
    rows, the same counts.
    """
    global _slot
    polys_a = list(polys_a)
    polys_b = list(polys_b)
    coords_a, off_a = stack_polygons(polys_a)
    coords_b, off_b = stack_polygons(polys_b)
    peak = 0.0
    if coords_a.size:
        peak = float(np.abs(coords_a).max())
    if coords_b.size:
        peak = max(peak, float(np.abs(coords_b).max()))
    if not (peak / grid < _SNAP_SAFE_LIMIT):
        # Snapping would cast out-of-range floats to int64 (undefined);
        # such inputs are far beyond COORD_LIMIT regardless.  The check
        # also catches non-finite coordinates.
        if fallbacks is not None:
            fallbacks.coord_limit += 1
        return None
    ints_a, off_a = snap_stacked(coords_a, off_a, grid)
    ints_b, off_b = snap_stacked(coords_b, off_b, grid)
    ints = np.concatenate([ints_a, ints_b])
    coord_max = int(np.abs(ints).max()) if len(ints) else 0
    if coord_max > COORD_LIMIT:
        if fallbacks is not None:
            fallbacks.coord_limit += 1
        return None
    offsets = np.concatenate([off_a, off_a[-1] + off_b[1:]])
    corner = ints.min(axis=0) if len(ints) else np.zeros(2, dtype=np.int64)
    local = ints - corner
    rings_a = len(off_a) - 1
    key = (local.tobytes(), offsets.tobytes(), rings_a, operation, fill_rule)
    kept = _slot
    hit = kept is not None and kept[0] == key
    if hit:
        families, plan = kept[1], kept[2]
    else:
        families = _exact_sweep(local, offsets, rings_a, operation, fill_rule)
        if families is None:
            if fallbacks is not None:
                fallbacks.rational_slab += 1
            return None
        plan = None
        _slot = (key, families, None)
    if not families:
        return []

    # -- emit in slab order and merge, as rows ----------------------------
    kx, ky = (int(v) for v in corner)
    if merge and plan is not None:
        served = _serve(plan, families[0], kx, ky, coord_max, grid)
        if served is not None:
            return FigureView(served)
    blocks = [_emit(family, kx, ky, coord_max, grid) for family in families]
    all_rows = np.concatenate([b[1] for b in blocks])
    if len(blocks) > 1:
        all_ids = np.concatenate([b[0] for b in blocks])
        all_rows = all_rows[np.argsort(all_ids, kind="stable")]
    if merge:
        # The first re-emission of a kept sweep plans its merge.
        found = [] if hit and plan is None else None
        merged = merge_rows(all_rows, found=found)
        if merged is None:
            if fallbacks is not None:
                fallbacks.scalar_merge += 1
            return merge_trapezoids(trapezoids_from_array(all_rows))
        if found and _slot is kept:
            plan = _plan(found[0], families, int(local.max()), coord_max, grid)
            if plan is not None:
                _slot = (key, families, plan)
        all_rows = merged
    return FigureView(all_rows)
