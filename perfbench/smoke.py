"""Seconds-long check of the benchmark harness itself, at tiny sizes.

    python3 perfbench/smoke.py

It checks that BENCHMARK.json names exactly the metrics the harness
produces, that every workload runs correctly traced and untraced, that the
correctness gate fails loudly when a report row differs from the recorded
reference, that the compare verdicts follow their rule, and that a
directory without the program is refused. Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import harness
import tracing
from harness import BENCH_DIR, ROOT

WORK = ROOT / ".bench_work" / "smoke"
TINY = ("--smoke", "--seconds", "1")


def bench(*args, cwd=ROOT) -> tuple[int, dict | None, str]:
    """Run run.py from ``cwd``; returns exit code, result line (or None), stderr."""
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, last, done.stderr


def check(condition, message) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS),
          "BENCHMARK.json lists the tracer's per-layer metrics")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reference = WORK / "reference.json"
    for name in harness.WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, line, err = bench(*TINY, "--workload", name, "--seed", "5", "--trace", trace,
                                    "--reference", str(reference), "--record-reference")
            check(code == 0 and line and line["correct"] and line["failed"] == 0,
                  f"{name} --trace {trace} runs correctly {err.strip()[-300:]}")
            check(set(line["metrics"]) == {m["name"] for m in spec[section]},
                  f"{name} --trace {trace} prints every {section} metric")

    recorded = json.loads(reference.read_text(encoding="utf-8"))
    code, line, _ = bench(*TINY, "--workload", "rescore_4pt", "--seed", "5",
                          "--reference", str(reference))
    check(code == 0 and line["correct"], "a run matching the recorded rows passes")
    row = recorded["rescore_4pt"]["5"]["rows"][0]
    row[3] = row[3] * (1 + 1e-15) + 1e-300  # mae off by about one ulp
    reference.write_text(json.dumps(recorded), encoding="utf-8")
    code, line, err = bench(*TINY, "--workload", "rescore_4pt", "--seed", "5",
                            "--reference", str(reference))
    check(code == 1 and line and not line["correct"] and "INCORRECT: report row" in err,
          "a report row that differs from the reference fails the gate loudly")

    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    same = compare.verdict(base, [10.1, 10.0, 9.9, 10.2, 10.0], "lower", 0.15)
    faster = compare.verdict(base, [8.0, 8.1, 7.9, 8.2, 8.0], "lower", 0.15)
    slower = compare.verdict(base, [12.0, 12.1, 11.9, 12.2, 12.0], "lower", 0.15)
    noisy = compare.verdict([8.0, 12.0, 9.0, 11.0, 10.0], [9.5, 10.5, 11.5, 8.5, 10.5],
                            "lower", 0.15)
    check((same["verdict"], faster["verdict"], slower["verdict"], noisy["verdict"])
          == ("unchanged", "improved", "regressed", "unresolved"),
          "compare verdicts follow the 9-of-10 and interquartile rule")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = bench("--workload", "paper_default", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
    check(code != 0 and line is None, "a directory without the program is refused")

    shutil.rmtree(WORK, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
