"""netsirs benchmark: named workloads run through netsirs.cli.main in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; netsirs is imported from src/.
A run makes its inputs from the seed (perfbench/gen.py), times the set-up
of fresh processes, then runs whole passes over the workload's tasks, one
task at a time (closed loop, one client), until about S seconds of task
time are spent. Outputs are checked against numpy-only oracles outside
the timed region (perfbench/oracle.py), and every pass must write the
same bytes as the first.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(perfbench/spans.py), medians over traced passes for times and the first
traced pass for counts; spans go to .perfbench_run/ when the run ends.
The last line of stdout is the result JSON; the exit code is 0 when every
output was correct, 1 when an oracle rejected one, 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_MODEL = ROOT / "models" / "five_node.json"
SETUP_REPEATS = 7
TRAJ = {"dt": 0.01, "t_end": 100.0, "record_every": 1}
# largest |y(t_end) - y*| accepted for a five_node trajectory
SETTLE = 1e-6
SWEEP = {"scale_min": 0.05, "scale_max": 1.5, "steps": 30}
# each workload and its own rate; a task does Task.work units of it
RATES = {"trajectories": "rk4_steps_per_s", "sweep_n200": "sweep_rows_per_s",
         "analyses": "models_per_s"}
# fresh-process set-up: import netsirs and its CLI, then run one warm-up task
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import netsirs, netsirs.cli; "
              "sys.exit(netsirs.cli.main(sys.argv[2:]))")


@dataclass
class Task:
    name: str
    calls: list[list[str]]
    outputs: list[Path]
    work: int
    check: Callable[[str, list[bytes]], None]
    times: list[float] = field(default_factory=list)
    runs: int = 0
    first: tuple[str, list[bytes]] | None = None
    digest: str | None = None
    failed: int = 0
    error: str | None = None


def build_tasks(workload: str, inputs: Path, outdir: Path) -> list[Task]:
    """The tasks of one pass and, for each, the oracle of its outputs."""
    manifest = json.loads((inputs / "manifest.json").read_text())
    tasks = []
    if workload == "trajectories":
        model_path = inputs / manifest[0]["file"]
        m = oracle.Model.load(model_path)
        y_star = oracle.endemic_point(m)
        steps = int(round(TRAJ["t_end"] / TRAJ["dt"]))
        for k in range(gen.TRAJECTORY_STARTS):
            out = outdir / f"traj_{k}.csv"

            def check(text, files):
                oracle.check_trajectory_csv(m, files[0].decode(), TRAJ["dt"], steps, y_star, SETTLE)

            argv = ["simulate", "--model", str(model_path), "--init", str(inputs / f"init_{k}.json"),
                    "--dt", str(TRAJ["dt"]), "--t-end", str(TRAJ["t_end"]),
                    "--record-every", str(TRAJ["record_every"]), "--out", str(out)]
            tasks.append(Task(f"start_{k}", [argv], [out], steps, check))
    elif workload == "sweep_n200":
        model_path = inputs / manifest[0]["file"]
        m = oracle.Model.load(model_path)
        grid = np.linspace(SWEEP["scale_min"], SWEEP["scale_max"], SWEEP["steps"])
        out = outdir / "sweep.csv"

        def check(text, files):
            oracle.check_sweep_csv(m, files[0].decode(), grid)

        argv = ["sweep", "--model", str(model_path), "--scale-min", str(SWEEP["scale_min"]),
                "--scale-max", str(SWEEP["scale_max"]), "--steps", str(SWEEP["steps"]),
                "--out", str(out)]
        tasks.append(Task("sweep", [argv], [out], SWEEP["steps"], check))
    else:
        for entry in manifest:
            model_path = inputs / entry["file"]
            stem = model_path.stem
            eq_out, st_out = outdir / f"{stem}_eq.json", outdir / f"{stem}_stab.json"

            def check(text, files, model_path=model_path):
                m = oracle.Model.load(model_path)
                want = oracle.endemic_point(m)
                oracle.check_r0_text(m, text)
                oracle.check_equilibrium(m, json.loads(files[0]), want)
                oracle.check_stability(m, json.loads(files[1]), want)

            calls = [["r0", "--model", str(model_path)],
                     ["equilibrium", "--model", str(model_path), "--out", str(eq_out)],
                     ["stability", "--model", str(model_path), "--out", str(st_out)]]
            tasks.append(Task(stem, calls, [eq_out, st_out], 1, check))
    return tasks


def run_task(main, calls: list[list[str]]) -> tuple[float, int, str]:
    """One closed-loop task: its calls back to back, output captured."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            for argv in calls:
                code = main(argv)
                if code != 0:
                    break
        except Exception as exc:  # a crash is a failed task, not a failed benchmark
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue() + err.getvalue()


def record_outputs(task: Task, code: int, text: str) -> None:
    """Compare this pass's outputs with the first pass's, outside the timing."""
    task.runs += 1
    if code != 0:
        task.failed += 1
        task.error = task.error or f"exit {code}: {text.strip()[-300:]}"
        return
    missing = [p.name for p in task.outputs if not p.is_file()]
    if missing:
        task.failed += 1
        task.error = task.error or f"exit 0 but no {', '.join(missing)}"
        return
    files = [p.read_bytes() for p in task.outputs]
    digest = hashlib.sha256(text.encode() + b"".join(files)).hexdigest()
    if task.first is None:
        task.first, task.digest = (text, files), digest
    elif digest != task.digest:
        task.failed += 1
        task.error = task.error or "outputs differ from the first pass"


def run_passes(main, tasks: list[Task], seconds: float, tracer=None) -> list[dict]:
    """Whole passes until the task time spent is within half a pass of
    seconds. With a tracer, odd passes are traced. The last pass is an
    untraced one, and at least two are."""
    passes: list[dict] = []
    spent = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(spans.trace_points())
            main_fn = tracer.wrap("cli", main)
        else:
            main_fn = main
        wall = 0.0
        try:
            for task in tasks:
                if tracer is not None:
                    tracer.task = task.name
                for path in task.outputs:
                    path.unlink(missing_ok=True)
                elapsed, code, text = run_task(main_fn, task.calls)
                wall += elapsed
                if not traced:
                    task.times.append(elapsed)
                record_outputs(task, code, text)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"wall": wall, "traced": traced,
                       "spans": tracer.take() if traced else None})
        spent += wall
        plain = sum(not p["traced"] for p in passes)
        if plain >= 2 and not traced and seconds - spent < 0.5 * spent / len(passes):
            return passes


def check_outputs(tasks: list[Task]) -> None:
    for task in tasks:
        if task.first is None:
            continue
        try:
            task.check(*task.first)
        except (oracle.OracleError, KeyError, ValueError, TypeError, IndexError) as exc:
            task.failed = task.runs
            task.error = f"{type(exc).__name__}: {exc}"


def warmup_argv(outdir: Path) -> list[str]:
    return ["stability", "--model", str(REFERENCE_MODEL), "--out", str(outdir / "warmup.json")]


def setup_seconds(outdir: Path) -> float:
    """Median wall time of fresh processes that import netsirs.cli and run
    one warm-up task (stability on the reference model)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *warmup_argv(outdir)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-300:]}")
    return statistics.median(times)


def probe() -> float:
    """A fixed numpy workload, timed before and after each run to show host
    drift; a diagnostic, not a metric."""
    rng = np.random.default_rng(0)
    A = rng.random((200, 200))
    B = rng.random((5, 5))
    v = np.ones(5)
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvals(A)
    for _ in range(5000):
        v = B @ v
        v = v / v.sum()
    return time.perf_counter() - start


def machine() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ("NETSIRS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "env": {k: os.environ.get(k) for k in env}}


def end_to_end(workload: str, tasks: list[Task], setup: float) -> tuple[dict, dict]:
    """The metrics of BENCHMARK.json, plus the workload's own work rate
    and the sample counts behind the percentiles, for the report."""
    times = [t for task in tasks for t in task.times]
    busy = sum(times)
    work = sum(task.work * len(task.times) for task in tasks)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks_per_s": len(times) / busy,
        "task_p50_ms": 1e3 * statistics.median(times),
        "task_p90_ms": 1e3 * deciles[8],
    }
    extra = {RATES[workload]: work / busy, "samples": len(times),
             "beyond_p90": sum(t > deciles[8] for t in times)}
    return metrics, extra


def per_layer(passes: list[dict]) -> dict:
    traced = [spans.summarize(p["spans"]) for p in passes if p["traced"]]
    plain = [p["wall"] for p in passes if not p["traced"]]
    first = traced[0]
    out = {}
    for key, value in first.items():
        if key.endswith("_s") or key.endswith("us_per_step") or key.endswith("busy_over_wall"):
            out[key] = statistics.median(t[key] for t in traced)
        else:
            out[key] = value
            if any(t[key] != value for t in traced):
                raise RuntimeError(f"count {key} differs between traced passes")
    out["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in passes if p["traced"])
                                   / statistics.median(plain))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RATES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netsirs" / "cli.py").is_file() or not REFERENCE_MODEL.is_file():
        print(f"error: run from a netsirs checkout; {SRC / 'netsirs'} or "
              f"{REFERENCE_MODEL} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import netsirs.cli

    if not Path(netsirs.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: netsirs was imported from {netsirs.cli.__file__}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_run"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.make_inputs(args.workload, args.seed, work / "inputs", REFERENCE_MODEL)
        (work / "out").mkdir()
        tasks = build_tasks(args.workload, work / "inputs", work / "out")
        probe_before = probe()
        setup = setup_seconds(work / "out")
        run_task(netsirs.cli.main, [warmup_argv(work / "out")])
        tracer = spans.Tracer() if args.trace else None
        passes = run_passes(netsirs.cli.main, tasks, args.seconds, tracer)
        metrics, extra = end_to_end(args.workload, tasks, setup)
        probe_after = probe()
        check_outputs(tasks)
        if args.trace:
            layers = per_layer(passes)
            records = [r for i, p in enumerate(passes) if p["traced"]
                       for r in spans.to_records(p["spans"], i)]
            (base / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(records))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(t.runs for t in tasks)
    failed = sum(t.failed for t in tasks)
    for task in tasks:
        if task.error:
            print(f"FAIL {task.name}: {task.error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} tasks, {failed} failed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rate = RATES[args.workload]
    rows += [("fail_ratio", failed / attempted, "ratio"), (rate, extra[rate], "1/s")]
    for name, value, unit in rows:
        print(f"  {name:<18} {value:<12.6g} {unit}")
    print(f"  task percentiles over {extra['samples']} untraced tasks, "
          f"{extra['beyond_p90']} beyond p90")
    if args.trace:
        print(f"  tracing overhead: traced pass wall / untraced pass wall = "
              f"{layers['trace.overhead_ratio']:.4f}")
    print("record " + json.dumps({"machine": machine(), "probe_before_s": probe_before,
                                  "probe_after_s": probe_after,
                                  "pass_walls_s": [p["wall"] for p in passes]}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
