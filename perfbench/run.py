"""hydrocast benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Set-up runs ``setups`` times, each in a
fresh interpreter (start, import, input generation and, for rescore_4pt,
select + train), and ``setup_s`` is their median. One worker process then
repeats the workload's timed pass for ``--seconds`` (at least three times) and
checks every pass. With ``--trace 1`` the passes alternate untraced and
traced, and the per-layer metrics come from the traced ones.

The last line of standard output is the JSON result. A run whose outputs are
wrong prints it with ``"correct": false`` and exits 1; a checkout without
the program exits 2 without a result.

Other modes:
    --save FILE           also append the full record (quartiles, env) to FILE
    --reference FILE      recorded report rows (default perfbench/reference.json)
    --record-reference    store this seed's report rows there, if none are recorded
    --smoke               tiny sizes, to check the harness itself (see smoke.py)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
from compare import quartiles
from harness import BENCH_DIR, ROOT, SRC, WORKLOADS

BUDGET_S = 170.0
SPEC_FILE = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the full record to this JSONL file")
    parser.add_argument("--reference", default=str(harness.REFERENCE_FILE),
                        help="recorded report rows per workload and seed")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--role", choices=("setup", "worker"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workload_of(args) -> harness.Workload:
    return harness.smoke_workload(args.workload) if args.smoke else WORKLOADS[args.workload]


def child(args) -> int:
    w, work = workload_of(args), Path(args.work)
    if args.role == "setup":
        harness.setup(w, args.seed, work)
    else:
        result = harness.worker(w, work, args.seconds, bool(args.trace))
        (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_child(args, role: str, work: Path, deadline: float) -> None:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before the {role}")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=harness.child_env(), timeout=remaining,
                              stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} did not finish within the {BUDGET_S:.0f} s budget") from None
    if done.returncode != 0:
        raise BenchError(f"{role} process exited {done.returncode}")


def git_stamp() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def end_to_end(setup_times, setup_scales, result) -> dict[str, list[float]]:
    """Samples of every end-to-end metric (single values for the exact ones),
    and of the unscaled times as information."""
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": [t * s for t, s in zip(setup_times, setup_scales)],
        "run_s": [p["wall"] * p["scale"] for p in passes],
        "cpu_s": [p["cpu"] * p["scale"] for p in passes],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "artifact_bytes": [passes[0]["artifact_bytes"]],
        "success_rate": [(attempted - failed) / attempted],
        "unscaled.setup_s": setup_times,
        "unscaled.run_s": [p["wall"] for p in passes],
        "unscaled.cpu_s": [p["cpu"] for p in passes],
        "unscaled.scale": [p["scale"] for p in passes],
    }


def per_layer(result) -> dict[str, list[float]]:
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    return {name: [layers[name] for layers in traced] for name in traced[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role:
        return child(args)
    if not (SRC / "hydrocast" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'hydrocast'} is missing", file=sys.stderr)
        return 2
    if not SPEC_FILE.is_file():
        print(f"perfbench: {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    w = workload_of(args)
    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_digests = [], set()
        calibrations = [harness.calibration_s()]
        for k in range(w.setups):
            start = time.perf_counter()
            run_child(args, "setup", work / f"setup{k}", deadline)
            setup_times.append(time.perf_counter() - start)
            calibrations.append(harness.calibration_s())
            setup_digests.add(harness.tree_digest(work / f"setup{k}")[0])
        setup_scales = harness.scales(calibrations)
        last = work / f"setup{w.setups - 1}"
        run_child(args, "worker", last, deadline)
        result = json.loads((last / "result.json").read_text(encoding="utf-8"))
        if args.trace and (last / "spans.jsonl").exists():
            shutil.copyfile(last / "spans.jsonl", ROOT / ".bench_work" / f"spans-{w.name}.jsonl")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    if len(setup_digests) != 1:
        problems.append("set-up runs produced different inputs or trained artifacts")
    reference = harness.load_reference(args.reference)
    status, differences = harness.compare_reference(w.name, args.seed, result["rows"], reference)
    problems += differences

    if args.trace:
        samples, section = per_layer(result), "per_layer"
    else:
        samples, section = end_to_end(setup_times, setup_scales, result), "end_to_end"
    env = {**result["env"], "git": git_stamp()}
    metrics, record = {}, {}
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {w.name} seed {args.seed}: {len(result['passes'])} passes, reference {status}, "
          f"best_pearson {result['best_pearson']}, digest {result['passes'][0]['digest'][:16]}")
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        unit = units.get(name, "s" if name.endswith("_s") else "ratio")
        if name in units:
            metrics[name] = {"value": med, "unit": unit}
        record[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "samples": values}
        print(f"# {name:<34} {med:>14.6g} {unit:<6} "
              f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values)}")
    missing = set(units) - set(metrics)
    if missing:
        print(f"perfbench: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)

    passes = result["passes"]
    line = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "smoke": args.smoke, "env": env,
                                 "reference": status, "digest": passes[0]["digest"],
                                 "best_pearson": result["best_pearson"],
                                 **line, "metrics": record}) + "\n")
    if args.record_reference and not problems and status == "none recorded":
        record_reference(args.reference, w.name, args.seed, result, passes[0]["digest"])
    print(json.dumps(line))
    return 0 if not problems else 1


def record_reference(path, workload: str, seed: int, result: dict, digest: str) -> None:
    reference = harness.load_reference(path)
    reference.setdefault(workload, {})[str(seed)] = {
        "rows": result["rows"],
        "best_pearson": result["best_pearson"],
        "digest": digest,
    }
    blocks = []
    for name in sorted(reference):
        seeds = sorted(reference[name].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in seeds)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    # one line per seed, so re-recording a seed is a one-line change
    Path(path).write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
