"""Workloads, set-up and the timed worker of the hydrocast benchmark.

The program under test is the checkout's own ``src/hydrocast``, driven
in-process through its documented entry point ``hydrocast.cli.main``.
Nothing here imports hydrocast at module level: ``run.py`` must be able to
report a missing program without a traceback.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

KINDS = ("rf", "knn", "svr", "lr", "mlp")

# On a shared host the speed of one core drifts by a quarter and more over
# minutes, and no statistic within one run removes that. Every end-to-end
# timing is therefore scaled by CAL_REF_S over the time calibration_s takes
# just before and just after the timed interval: it reads as seconds on a
# machine where that kernel takes CAL_REF_S (about its time on the 2-core
# Xeon the baseline was recorded on). The unscaled times are kept beside.
CAL_REF_S = 0.008
MASTER_SEED = "7"
NOISE_REL = "0.1"
MIN_PASSES = 3  # a median of at least three, and two to compare artifact trees
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# rescore_4pt keeps the paper's RF, KNN and LR, so its artifacts hold a
# 100-tree forest, but trains with light boosting, SVR and MLP settings.
RESCORE_CONFIG = {
    "boost": {"trees_per_stage": 10, "max_stages": 2},
    "learners": {"rf": {}, "knn": {}, "svr": {"epochs": 10}, "lr": {}, "mlp": {"epochs": 50}},
}


@dataclass(frozen=True)
class Workload:
    """One named job: what set-up generates and what the timed pass runs."""

    name: str
    points: tuple[str, ...]
    config: dict | None
    rescore: bool  # set-up also selects and trains; a pass evaluates and reports
    samples: int = 444
    setups: int = 5

    @property
    def point_arg(self) -> str:
        return ",".join(self.points)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's job: CART growth and the SVR's SGD dominate
        Workload("paper_default", ("p01", "p02"), None, rescore=False),
        # reads artifacts and predicts, fits nothing; set-up trains
        Workload("rescore_4pt", ("p01", "p02", "p03", "p04"), RESCORE_CONFIG, rescore=True,
                 setups=3),
    )
}

# Tiny sizes for the harness's own smoke run.
SMOKE_CONFIG = {
    "boost": {"trees_per_stage": 3, "max_stages": 1},
    "learners": {"rf": {"n_trees": 3}, "knn": {}, "svr": {"epochs": 2}, "lr": {},
                 "mlp": {"epochs": 5}},
}


def smoke_workload(name: str) -> Workload:
    return replace(WORKLOADS[name], points=WORKLOADS[name].points[:2], config=SMOKE_CONFIG,
                   samples=120, setups=2)


def child_env() -> dict:
    """Environment of every set-up and worker process: one BLAS thread."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def import_program():
    """Import the checkout's hydrocast (never an installed copy)."""
    sys.path.insert(0, str(SRC))
    import hydrocast.cli

    where = Path(hydrocast.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported hydrocast from {where}, not from {SRC}")
    return hydrocast.cli


@dataclass
class Paths:
    work: Path

    @property
    def data(self) -> Path:
        return self.work / "data.csv"

    @property
    def config(self) -> Path:
        return self.work / "config.json"

    @property
    def trained(self) -> Path:
        return self.work / "trained"


def stage_argv(w: Workload, paths: Paths, command: str, output: Path) -> list[str]:
    argv = [command, "--data", str(paths.data), "--output", str(output),
            "--seed", MASTER_SEED, "--points", w.point_arg]
    if w.config is not None:
        argv += ["--config", str(paths.config)]
    return argv


def pass_commands(w: Workload, paths: Paths, output: Path) -> list[list[str]]:
    if not w.rescore:
        return [stage_argv(w, paths, "run", output)]
    return [
        stage_argv(w, paths, "evaluate", output),
        ["report", "--output", str(output), "--format", "text"],
        ["report", "--output", str(output), "--format", "csv"],
    ]


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one hydrocast command in-process; returns exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total size."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


# ---------------------------------------------------------------- set-up


def setup(w: Workload, seed: int, work: Path) -> None:
    """Generate the inputs from the workload seed (and train, for rescoring)."""
    cli = import_program()
    paths = Paths(work)
    work.mkdir(parents=True, exist_ok=True)
    if w.config is not None:
        paths.config.write_text(json.dumps(w.config), encoding="utf-8")
    commands = [["synth", "--samples", str(w.samples), "--noise-rel", NOISE_REL,
                 "--seed", str(seed), "--points", w.point_arg, "--out", str(paths.data)]]
    if w.rescore:
        commands += [stage_argv(w, paths, "select", paths.trained),
                     stage_argv(w, paths, "train", paths.trained)]
    for argv in commands:
        code, err = call_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"set-up `hydrocast {argv[0]}` exited {code}: {err.strip()}")


# ---------------------------------------------------------------- worker


def read_report(output: Path) -> tuple[list[list], float]:
    """(point id, model, pearson, mae, std) rows of report.json, and the mean
    over points of the best model's Pearson."""
    from hydrocast.catalog import REFERENCE_POINTS

    ids = {(p.lon, p.lat): p.id for p in REFERENCE_POINTS}
    payload = json.loads((output / "report.json").read_text(encoding="utf-8"))
    rows = [[ids[(r["lon"], r["lat"])], r["model"], r["pearson"], r["mae"], r["std"]]
            for r in payload["rows"]]
    return rows, statistics.fmean(r["pearson"] for r in payload["rows"] if r["is_best"])


def check_rows(w: Workload, rows) -> list[str]:
    problems = []
    expected = {(p, k) for p in w.points for k in KINDS}
    present = {(r[0], r[1]) for r in rows}
    if present != expected:
        problems.append(f"report rows {sorted(present)} != expected {sorted(expected)}")
    for r in rows:
        if not all(math.isfinite(v) for v in r[2:]) or abs(r[2]) > 1.0 + 1e-9:
            problems.append(f"report row {r} is out of range")
    return problems


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibration_s(repeats: int = 5) -> float:
    """Median time of a fixed kernel with the workloads' kinds of work: argsort
    and cumsum over a few hundred values (CART), a pure-Python loop (SVR),
    csv parsing with float conversion (load_csv) and json.loads of a tree-node
    list (artifacts), each a few milliseconds."""
    import csv
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.random((400, 8)), rng.random(400)
    table = "\n".join(",".join(repr(v) for v in row) for row in rng.random((60, 90)).tolist())
    nodes = json.dumps([{"feature": i % 9, "threshold": v, "left": i, "right": i + 1}
                        for i, v in enumerate(rng.random(1200).tolist())])
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for k in range(100):
            np.cumsum(y[np.argsort(x[:, k % 8], kind="stable")]).argmin()
        total = 0
        for i in range(25_000):
            total += i % 7
        for row in csv.reader(io.StringIO(table)):
            [float(v) for v in row]
        json.loads(nodes)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scales(calibrations) -> list[float]:
    """CAL_REF_S over the mean calibration on each side of each timed interval."""
    return [2 * CAL_REF_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


@dataclass
class Pass:
    wall: float
    cpu: float
    traced: bool
    scale: float = 1.0
    digest: str = ""
    artifact_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: int = 0
    layers: dict = field(default_factory=dict)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def check_pass(w: Workload, p: Pass, output: Path, commands, results):
    """Fill in the pass's counts and digest; returns its problems and ``read_report``."""
    problems = []
    for argv, (code, err) in zip(commands, results):
        p.errors += sum(line.startswith("error [") for line in err.splitlines())
        if code != 0:
            problems.append(f"`hydrocast {argv[0]}` exited {code}: {err.strip()[:500]}")
    if (output / "errors.json").exists():
        problems.append("errors.json written")
    p.digest, p.artifact_bytes = tree_digest(output)
    p.attempted = p.failed = len(w.points) * len(KINDS)
    if not (output / "report.json").exists():
        return problems + ["no report.json"], None
    report = read_report(output)
    problems += check_rows(w, report[0])
    expected = {(point, kind) for point in w.points for kind in KINDS}
    p.failed -= len({(r[0], r[1]) for r in report[0]} & expected)
    return problems, report


def worker(w: Workload, work: Path, seconds: float, trace: bool) -> dict:
    """Timed passes over the set-up inputs, with the correctness checks.

    Passes run for ``seconds`` and at least MIN_PASSES times; with
    ``trace`` every second pass is traced.
    """
    cli = import_program()
    from tracing import Tracer, install, layer_metrics

    paths = Paths(work)
    tracer = Tracer()
    uninstall = install(tracer) if trace else None
    problems: list[str] = []
    passes: list[Pass] = []
    rows = best_pearson = None
    calibrations = []
    started = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(p.wall for p in passes) <= seconds
        ):
            index = len(passes)
            output = paths.trained if w.rescore else work / f"out{index}"
            commands = pass_commands(w, paths, output)
            gc.collect()
            calibrations.append(calibration_s())
            tracer.reset()
            tracer.enabled = trace and index % 2 == 1
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            results = [call_cli(cli, argv) for argv in commands]
            p = Pass(time.perf_counter() - t0, _cpu_seconds() - cpu0, tracer.enabled)
            tracer.enabled = False

            found, report = check_pass(w, p, output, commands, results)
            problems += [f"pass {index}: {problem}" for problem in found]
            if rows is None and report is not None:
                rows, best_pearson = report
            if p.traced:
                summary = tracer.summary()
                summary["pipeline.errors"] = p.errors
                untraced = statistics.median(q.wall for q in passes if not q.traced)
                p.layers = layer_metrics(summary, p.wall, untraced, tracer.root_seconds())
                tracer.dump(work / "spans.jsonl", index)
            passes.append(p)
            if not w.rescore:
                shutil.rmtree(output)
    finally:
        if uninstall is not None:
            uninstall()
    calibrations.append(calibration_s())
    for p, scale in zip(passes, scales(calibrations)):
        p.scale = scale

    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"artifact trees differ between passes: {digests}")
    rusage_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "passes": [vars(p) for p in passes],
        "rows": rows,
        "best_pearson": best_pearson,
        "peak_rss_mb": rusage_kb / 1024.0,
        "problems": problems,
        "env": environment(),
    }


def compare_reference(workload: str, seed: int, rows, reference: dict) -> tuple[str, list[str]]:
    """Check report rows against the recorded reference for this seed.

    Returns the status ("match", "none recorded") and the differences found.
    """
    recorded = reference.get(workload, {}).get(str(seed))
    if recorded is None:
        return "none recorded", []
    problems = []
    want = {(r[0], r[1]): r for r in recorded["rows"]}
    got = {(r[0], r[1]): r for r in rows or []}
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            problems.append(f"report row {key}: got {got.get(key)}, reference {want.get(key)}")
    return ("match" if not problems else "differs"), problems


def load_reference(path) -> dict:
    path = Path(path)
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
