"""Tests of the e2e benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of the tier-1
``testpaths``).  The miniature runs drive the real code paths — real
``repro.cli`` children, a real serve process, real worker daemons — on
a 2×2 reticle, a 1×1 memory block and the six service recipes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._bootstrap()

import compare  # noqa: E402
import endtoend  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from harness import Harness, Speed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = run.declared()


def span(id, parent, start, end, name="s"):
    return {"name": name, "layer": "l", "start": start, "end": end,
            "id": id, "parent": parent, "op": "op"}


def test_self_time_nested():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0)]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_overlapping_children_count_once():
    # Two parallel children covering [1, 6] together; one reaches past
    # the parent's end and is clipped.
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 5.0),
        span(2, 0, 3.0, 6.0),
        span(3, 0, 9.0, 12.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[3] == 3.0


def test_self_time_by_name_sums_per_op():
    spans = [span(0, None, 0.0, 4.0, "root"), span(1, 0, 0.0, 1.0, "a"),
             span(2, 0, 2.0, 3.0, "a")]
    spans.append({**span(3, None, 0.0, 9.0, "a"), "op": "other"})
    assert tracing.self_time_by_name(spans, op="op") == {"root": 2.0, "a": 2.0}


def test_recorder_nests_and_tags():
    rec = tracing.Recorder()
    with rec.op("one"):
        with rec.span("outer", "x") as outer:
            with rec.span("inner", "y") as inner:
                pass
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert {s["op"] for s in rec.spans} == {"one"}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_workload_table_matches_benchmark_json():
    assert [{"name": w.name, "why": w.why} for w in wl.WORKLOADS] == SPEC["workloads"]


def test_service_sequence_is_seeded_and_balanced():
    a, b = wl.service_sequence(1, 5), wl.service_sequence(2, 5)
    assert a == wl.service_sequence(1, 5) and a != b
    assert all(sorted(a[i:i + 6]) == list(range(6)) for i in range(0, 30, 6))


def test_golden_covers_every_size_and_variant():
    golden = wl.load_golden()
    for sizes in (wl.FULL, wl.MINI):
        for seed in range(len(wl.OFFSETS)):
            entry = golden[wl.golden_key(sizes, seed)]
            assert set(entry) == {"ebj", "ebp", "figures"}


def test_normalize_scales_only_the_busy_part():
    # A CLI op is all CPU: the whole wall-clock is scaled.
    assert Speed.normalize(4.0, 3.9, 0.5) == pytest.approx(0.1 + 3.9 * 0.5)
    # A pool of 2 burns more CPU than wall: never more than the wall.
    assert Speed.normalize(4.0, 6.0, 0.5) == pytest.approx(2.0)
    # A service job is part timers: they stay as the clock read them.
    assert Speed.normalize(0.34, 0.20, 1.5) == pytest.approx(0.14 + 0.30)


def test_speed_factor_is_nominal_over_the_mean_chunk_inside():
    from harness import NOMINAL_CHUNK_S

    speed = Speed()
    speed.stop()
    assert speed.samples and speed.summary()["samples"] == len(speed.samples)
    speed.samples = [(1.0, 0.001), (2.0, 0.002), (3.0, 0.003), (9.0, 0.009)]
    assert speed.factor(0.5, 3.5) == pytest.approx(NOMINAL_CHUNK_S / 0.002)
    # An interval between two samples takes the nearest one.
    assert speed.factor(3.9, 4.1) == pytest.approx(NOMINAL_CHUNK_S / 0.003)


def test_measuring_process_stays_small():
    """``peak_rss_mb`` cannot read below the measuring process's own
    peak (``ru_maxrss`` survives ``exec``), so the end-to-end run must
    import nothing of the program, and a trivial child must report far
    less than any op (the CLI's imports alone reach 120 MiB)."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import run, endtoend, harness;"
        "assert not {'numpy', 'scipy', 'repro'} & set(sys.modules), 'fat parent';"
        "h = harness.Harness('small');"
        "print(h.run_child([sys.executable, '-c', 'pass']).rss_mb); h.close()"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(HERE)],
        capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < 40.0


def conditions(**changes):
    base = {
        "sizes": {"tiles": 4, "blocks": [4, 4]}, "seconds": 8.0, "cores": 2,
        "python": "3", "numpy": "1", "scipy": "1", "thread_pins": {},
        "reference": {"nominal_s": 0.00066, "fastest_s": 0.00060},
    }
    return {"conditions": {**base, **changes}}


def test_compare_refuses_other_conditions():
    assert compare.incomparable(conditions(), conditions()) == []
    assert compare.incomparable(conditions(), conditions(numpy="2"))
    assert compare.incomparable(
        conditions(), conditions(sizes={"tiles": 2, "blocks": [1, 1]})
    )
    slower_host = {"nominal_s": 0.00066, "fastest_s": 0.00090}
    assert compare.incomparable(conditions(), conditions(reference=slower_host))


@pytest.fixture
def one_op(monkeypatch):
    """One op per run: the miniature checks plumbing, not steadiness."""
    monkeypatch.setattr(endtoend, "MIN_OPS", 1)


@pytest.mark.parametrize("name", [w.name for w in wl.WORKLOADS])
def test_miniature_prints_every_end_to_end_metric(name, one_op):
    result = run.run_workload(name, seed=3, seconds=0.1, trace=False, sizes=wl.MINI)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(cell["value"] > 0 for cell in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", [w.name for w in wl.WORKLOADS])
def test_miniature_replay_equals_pipeline_and_prints_every_layer_metric(name, one_op):
    # ``correct`` here means: the staged replay's artifacts — and the
    # serial / in-memory comparison runs' — are byte-equal to the
    # pipeline's (traced.py records any mismatch as a failure).
    result = run.run_workload(name, seed=3, seconds=0.5, trace=True, sizes=wl.MINI)
    assert result["correct"], result
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    spans = result["extra"]["spans"]
    assert spans and all(
        set(s) == {"name", "layer", "start", "end", "id", "parent", "op"}
        for s in spans
    )
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.startup_s"] > 0 and values["trace.coverage"] > 0
    if name == "memory_pec_cold":
        assert values["pec.correct_s"] > 0 and values["cache.misses"] > 0
    if name == "memory_pec_warm":
        assert values["pec.correct_s"] == 0 and values["cache.hit_ratio"] == 1.0
    if name == "reticle_inmem_serial":
        golden = wl.load_golden()[wl.golden_key(wl.MINI, 3)]
        assert values["fracture.figures"] == golden["figures"]


def test_failed_set_up_is_a_failed_result(monkeypatch):
    def broken(*args):
        raise endtoend.SetupError("no server")

    monkeypatch.setattr(endtoend, "set_up", broken)
    result = run.run_workload(
        "svc_small_jobs", seed=3, seconds=0.1, trace=False, sizes=wl.MINI
    )
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_dead_server_is_a_failed_op_not_a_dead_run():
    h = Harness("dead-server")
    try:
        ctx = endtoend.set_up(h, wl.BY_NAME["svc_small_jobs"], wl.MINI, seed=3)
        assert ctx.op(0).ok
        h.stop(ctx.server)
        sample = ctx.op(1)
        assert not sample.ok and sample.why
    finally:
        h.close()


def test_no_harness_leftovers():
    from harness import RESULTS

    assert not list(RESULTS.glob("run-*"))
