"""Spread of one set of benchmark results, or the verdict between two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Result files are the JSONL records ``run.py --save`` appends; only untraced
records count. With one file it prints, per (workload, end-to-end metric),
the median, quartiles and their distance as a share of the median, against
the metric's bound. With two it pairs the runs of each workload in the order
they were made (run the two commits alternately, same seeds, same
``--seconds``) and prints both medians and quartiles, the ratio with its
base and a verdict:

    improved    the new side wins at least 9 of 10 pairs and the medians
                differ by more than the base's interquartile distance
    regressed   the new median is worse than the base's by more than the bound
    unresolved  the base's spread is wider than the bound and not every new
                run beats every base run
    unchanged   otherwise

Exit code 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> dict[str, list[dict]]:
    """Untraced full-size records of a result file, by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"] and not record.get("smoke"):
                runs[record["workload"]].append(record)
    return runs


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better: str, bound: float) -> dict:
    sign = -1.0 if better == "lower" else 1.0
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    gain = sign * (nmed - bmed)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        word = "improved"
    elif -gain > bound * abs(bmed):
        word = "regressed"
    elif spread(base) > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"base": (b1, bmed, b3), "new": (n1, nmed, n3),
            "ratio": nmed / bmed if bmed else float("inf"),
            "wins": wins, "pairs": len(pairs), "verdict": word}


def values_of(runs, name) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs]


def print_spreads(runs, spec) -> int:
    print(f"{'workload':<18} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  n")
    for workload, records in runs.items():
        for m in spec["end_to_end"]:
            values = values_of(records, m["name"])
            q1, med, q3 = quartiles(values)
            s = spread(values)
            mark = "" if s <= m["bound"] / 3 else (" (> bound/3)" if s <= m["bound"] else " WIDE")
            print(f"{workload:<18} {m['name']:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.4f} {m['bound']:>6}  {len(values)}{mark}")
    return 0


def print_verdicts(base_runs, new_runs, spec) -> int:
    regressed = False
    print(f"{'workload':<18} {'metric':<16} {'base median [q1, q3]':>38} "
          f"{'new median [q1, q3]':>38} {'new/base':>9} {'wins':>6}  verdict")
    for workload in base_runs:
        if workload not in new_runs:
            print(f"{workload:<18} (no runs in the new file)")
            continue
        for m in spec["end_to_end"]:
            v = verdict(values_of(base_runs[workload], m["name"]),
                        values_of(new_runs[workload], m["name"]), m["better"], m["bound"])
            regressed |= v["verdict"] == "regressed"
            b, n = v["base"], v["new"]
            print(f"{workload:<18} {m['name']:<16} "
                  f"{b[1]:>12.6g} [{b[0]:>10.6g}, {b[2]:>10.6g}] "
                  f"{n[1]:>12.6g} [{n[0]:>10.6g}, {n[2]:>10.6g}] "
                  f"{v['ratio']:>9.4f} {v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    if len(argv) == 1:
        return print_spreads(load_runs(argv[0]), spec)
    return print_verdicts(load_runs(argv[0]), load_runs(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
