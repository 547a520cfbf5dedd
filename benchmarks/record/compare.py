"""Compare two runs of the benchmark of record.

    python benchmarks/record/compare.py A B

``A`` (the parent) and ``B`` (the change) are run directories or their
``result.json`` files.  One row per (workload, end-to-end metric): both
medians with quartiles, the bound from ``metrics.py``, and a verdict:

``improved``    B's median is better by more than the bound *and* by
                more than A's own inter-quartile spread;
``regressed``   the same, worse;
``unresolved``  either side's spread is wider than the bound and the two
                sets of repeats overlap — nothing can be said;
``unchanged``   anything else.

When the spread is wider than the bound but every repeat of one side
beats every repeat of the other, the verdict follows the repeats.

The bounds in ``metrics.py`` are sized for runs of different seeds.  Two
runs of one seed are held to more:

* ``sim_time_ms`` repeats exactly, so its bound is 0: any worsening is
  ``regressed``;
* ``output_digest`` is a row of its own, ``regressed`` when the outputs
  differ;
* ``setup_s`` is judged on B's set-ups divided by A's, pair by pair
  (set-up *i* of both runs is built from the same derived seed, whose
  cost differs from set-up *j*'s by more than any bound).

``wall_per_cpu`` (wall seconds of each repeat over its CPU seconds, the
clock of record) is the row that shows added waiting: fsyncs, sleeps,
locks.  Exits non-zero on any ``regressed`` row or a higher failed share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, WORKLOADS, summarize

#: Share by which wall ÷ CPU seconds may grow; 1.0 on a quiet machine.
WALL_PER_CPU_BOUND = 0.10


def load(path):
    path = Path(path)
    if path.is_dir():
        path = path / "result.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def verdict(parent, change, better, bound):
    """Verdict and signed worsening (positive = worse) of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (change["median"] - parent["median"]) \
        / abs(parent["median"])
    spreads = [(row["q3"] - row["q1"]) / abs(row["median"])
               for row in (parent, change)]
    if max(spreads) > bound:
        ordered_parent = [sign * v for v in parent["values"]]
        ordered_change = [sign * v for v in change["values"]]
        if max(ordered_change) < min(ordered_parent):
            return "improved", worse
        if min(ordered_change) > max(ordered_parent):
            return "regressed", worse
        return "unresolved", worse
    beyond_spread = abs(change["median"] - parent["median"]) \
        > parent["q3"] - parent["q1"]
    if worse > bound and beyond_spread:
        return "regressed", worse
    if worse < -bound and beyond_spread:
        return "improved", worse
    return "unchanged", worse


def failed_share(document):
    return document["failed"] / document["attempted"]


def wall_per_cpu(document):
    return summarize(wall / cpu for wall, cpu
                     in zip(document["wall_s"], document["cpu_s"]))


def compare(parent, change):
    """Rows of the comparison table and whether B may land."""
    same_inputs = all(
        parent["provenance"][key] == change["provenance"][key]
        for key in ("seed", "scale"))
    rows = []
    for workload, _why in WORKLOADS:
        ours = parent["workloads"].get(workload, {})
        theirs = change["workloads"].get(workload, {})
        if "untraced" not in ours or "untraced" not in theirs:
            continue
        a, b = ours["untraced"], theirs["untraced"]
        for name, unit, better, bound in END_TO_END:
            row_a, row_b = a["end_to_end"][name], b["end_to_end"][name]
            judged_a, judged_b = row_a, row_b
            if same_inputs and name == "sim_time_ms":
                bound = 0.0
            if same_inputs and name == "setup_s":
                judged_a = summarize(1.0 for _ in row_a["values"])
                judged_b = summarize(
                    y / x for x, y in zip(row_a["values"],
                                          row_b["values"]))
            outcome, worse = verdict(judged_a, judged_b, better, bound)
            rows.append((workload, name, unit, row_a, row_b, bound,
                         worse, outcome))
        ratio_a, ratio_b = wall_per_cpu(a), wall_per_cpu(b)
        outcome, worse = verdict(ratio_a, ratio_b, "lower",
                                 WALL_PER_CPU_BOUND)
        rows.append((workload, "wall_per_cpu", "ratio", ratio_a, ratio_b,
                     WALL_PER_CPU_BOUND, worse, outcome))
        if failed_share(b) > failed_share(a):
            rows.append((workload, "failed_share", "ratio",
                         {"median": failed_share(a)},
                         {"median": failed_share(b)}, 0.0, 1.0,
                         "regressed"))
        if same_inputs:
            changed = a["digest"] != b["digest"]
            rows.append((workload, "output_digest", "sha256",
                         {"text": a["digest"][:12]},
                         {"text": b["digest"][:12]}, 0.0, float(changed),
                         "regressed" if changed else "unchanged"))
    return rows, all(row[-1] != "regressed" for row in rows)


def _cell(row):
    if "text" in row:
        return row["text"]
    if "q1" not in row:
        return f"{row['median']:.5g}"
    return f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    rows, acceptable = compare(parent, change)
    print(f"A = {parent['run_id']} ({parent['provenance']['commit']})")
    print(f"B = {change['run_id']} ({change['provenance']['commit']})")
    print(f"{'workload':<16} {'metric':<18} {'unit':<5} "
          f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
          f"{'bound':>6} {'worse by':>9}  verdict")
    for workload, name, unit, a, b, bound, worse, outcome in rows:
        print(f"{workload:<16} {name:<18} {unit:<5} {_cell(a):<34} "
              f"{_cell(b):<34} {bound:>6.2f} {worse:>+9.1%}  {outcome}")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
