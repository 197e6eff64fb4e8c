"""Compare two suite result files: ``compare.py OLD.json NEW.json``.

One row per workload and end-to-end metric, each against the bound
``BENCHMARK.json`` fixes for it:

* ``ok`` — NEW's median is no worse than OLD's by more than the bound;
* ``REGRESSION`` — it is worse by more than the bound;
* ``unresolved`` — either side's runs are spread (inter-quartile range
  over median) wider than the bound, so the medians cannot tell.

Under each workload's judged rows the same runs are shown as the clock
read them (``raw``): for the reader, never judged — on this shared host
they spread wider than any bound.

Exits 1 on any regression or when NEW's ``failed_share`` is higher than
OLD's.  Exits 2, comparing nothing, when the two files were not taken
under the same conditions: input sizes, window, cores, Python, numpy
and scipy versions, thread pins and the speed probe's nominal constant
must be equal, and the fastest probe chunks of the two files must agree
within ``REFERENCE_TOLERANCE`` — normalized seconds from two classes of
host are not the same unit.  Run on two result files of one commit it
is the A/A check: every row should be ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from harness import ROOT

#: Conditions that must be equal for two files to be comparable.
SAME = ("sizes", "seconds", "cores", "python", "numpy", "scipy", "thread_pins")

#: How far the two files' fastest speed-probe chunks (``harness.Speed``)
#: may be apart.  One host's quiet moments repeat within a few per
#: cent; another class of host, or another Python build, is off by more.
REFERENCE_TOLERANCE = 0.25


def incomparable(old: dict, new: dict) -> List[str]:
    """Why the two files' numbers are not in the same unit (empty when
    they are)."""
    a, b = old["conditions"], new["conditions"]
    why = [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in SAME
        if a.get(key) != b.get(key)
    ]
    ref_a, ref_b = a["reference"], b["reference"]
    if ref_a["nominal_s"] != ref_b["nominal_s"]:
        why.append(
            f"reference nominal_s: {ref_a['nominal_s']} vs {ref_b['nominal_s']}"
        )
    fast, slow = sorted((ref_a["fastest_s"], ref_b["fastest_s"]))
    if slow / fast - 1.0 > REFERENCE_TOLERANCE:
        why.append(
            f"fastest probe chunk: {ref_a['fastest_s'] * 1e3:.3f} ms vs "
            f"{ref_b['fastest_s'] * 1e3:.3f} ms — not the same class of host"
        )
    return why


def compare(old: dict, new: dict, spec: dict) -> List[dict]:
    rows = []
    for name, new_row in new["workloads"].items():
        old_row = old["workloads"].get(name)
        if old_row is None or "skipped" in new_row or "skipped" in old_row:
            rows.append({"workload": name, "metric": "-", "verdict": "skipped"})
            continue
        for metric in spec["end_to_end"]:
            a = old_row["metrics"][metric["name"]]
            b = new_row["metrics"][metric["name"]]
            change = b["median"] / a["median"] - 1.0
            worse = change if metric["better"] == "lower" else -change
            if max(a["spread"], b["spread"]) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "old": a["median"],
                    "new": b["median"],
                    "change": change,
                    "spread_old": a["spread"],
                    "spread_new": b["spread"],
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
        for metric, b in new_row.get("raw", {}).items():
            a = old_row.get("raw", {}).get(metric)
            if a is not None:
                rows.append(
                    {
                        "workload": name,
                        "metric": metric,
                        "unit": "s",
                        "old": a["median"],
                        "new": b["median"],
                        "change": b["median"] / a["median"] - 1.0,
                        "spread_old": a["spread"],
                        "spread_new": b["spread"],
                        "verdict": "raw",
                    }
                )
        if new_row["failed_share"] > old_row["failed_share"]:
            verdict = "REGRESSION"
        else:
            verdict = "ok"
        rows.append(
            {
                "workload": name,
                "metric": "failed_share",
                "unit": "ratio",
                "old": old_row["failed_share"],
                "new": new_row["failed_share"],
                "verdict": verdict,
            }
        )
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':22s} {'metric':14s} {'old':>10s} {'new':>10s} "
        f"{'change':>8s} {'spread o/n':>13s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if "old" not in row:
            lines.append(f"{row['workload']:22s} {row['metric']:14s} {row['verdict']}")
            continue
        change = f"{row['change']:+.1%}" if "change" in row else ""
        spread = (
            f"{row['spread_old']:.1%}/{row['spread_new']:.1%}"
            if "spread_old" in row
            else ""
        )
        if "bound" in row:
            bound = f"{row['bound']:.0%}"
        else:
            bound = "0" if row["metric"] == "failed_share" else "-"
        lines.append(
            f"{row['workload']:22s} {row['metric']:14s} {row['old']:10.4g} "
            f"{row['new']:10.4g} {change:>8s} {spread:>13s} {bound:>6s}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    why = incomparable(old, new)
    if why:
        print("not comparable — taken under different conditions:", file=sys.stderr)
        for line in why:
            print(f"  {line}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(old, new, spec)
    print(render(rows))
    regressions = [r for r in rows if r["verdict"] == "REGRESSION"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(regressions)} regression(s), {len(unresolved)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
