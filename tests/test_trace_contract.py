"""The benchmark's span tracer, perfbench/spans.py, wraps netsirs functions
under the names netsirs.cli looks up and reads its counts from their
arguments and results. These tests run it, unchanged, over the simulate,
sweep and stability commands and over one analyses task in-process, so
that a signature change that would break a traced benchmark run fails
here first."""

from __future__ import annotations

import ast
import importlib.util
import os
from pathlib import Path

import netsirs.cli
from netsirs import load_model, reproduction_number

ROOT = Path(__file__).resolve().parent.parent
FIVE_NODE = str(ROOT / "models" / "five_node.json")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names(spans) -> list[str]:
    return [span.name for span in spans]


def test_trace_points_fit_the_cli(tmp_path, capsys):
    spans = _load_spans()
    tracer = spans.Tracer()
    original = netsirs.cli.simulate
    tracer.install(spans.trace_points())
    try:
        main = tracer.wrap("cli", netsirs.cli.main)
        assert main(["simulate", "--model", FIVE_NODE, "--random", "3", "--lyapunov",
                     "--t-end", "1", "--out", str(tmp_path / "run.csv")]) == 0
        simulated = tracer.take()
        assert main(["sweep", "--model", FIVE_NODE, "--scale-min", "-0.5", "--scale-max", "1",
                     "--steps", "4", "--out", str(tmp_path / "sweep.csv")]) == 0
        swept = tracer.take()
        assert main(["stability", "--model", FIVE_NODE, "--out", str(tmp_path / "stab.json")]) == 0
        checked = tracer.take()
    finally:
        tracer.uninstall()
    assert netsirs.cli.simulate is original
    capsys.readouterr()

    # one Perron solve for all three --lyapunov starts, one span per start
    names = _names(simulated)
    assert names.count("spectral") == 1
    assert names.count("dynamics") == 3
    summary = spans.summarize(simulated)
    assert summary["dynamics.steps"] == 300
    runs = [tmp_path / f"run_{k:03d}.csv" for k in range(3)]
    assert summary["io.write_csv.bytes"] == sum(os.path.getsize(p) for p in runs)

    summary = spans.summarize(swept)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    failed = sum(1 for line in lines if line.split(",")[1] == "nan")
    assert summary["sweep.rows"] == len(lines) == 4
    assert failed > 0
    assert summary["sweep.failed_rows"] == failed
    assert summary["io.write_csv.bytes"] == os.path.getsize(tmp_path / "sweep.csv")

    names = _names(checked)
    assert names.count("cli") == 1
    assert names.count("stability.certificate") == 1
    assert "dynamics" not in names


def test_analyses_task_counts(tmp_path, capsys):
    # the three calls of one analyses task: each solves the Perron pair once,
    # and the traced sweeps are the ones the solver reports
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install(spans.trace_points())
    try:
        main = tracer.wrap("cli", netsirs.cli.main)
        per_command = []
        for argv in (["r0"], ["equilibrium", "--out", str(tmp_path / "eq.json")],
                     ["stability", "--out", str(tmp_path / "stab.json")]):
            assert main([argv[0], "--model", FIVE_NODE, *argv[1:]]) == 0
            per_command.append(tracer.take())
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for command in per_command:
        names = _names(command)
        assert names.count("cli") == 1
        assert names.count("spectral") == 1
    summary = spans.summarize([span for command in per_command for span in command])
    assert summary["cli.calls"] == 3
    assert summary["spectral.calls"] == 3
    sweeps = reproduction_number(load_model(FIVE_NODE))[1].iterations
    assert summary["spectral.sweeps"] == 3 * sweeps


_SHIM = "perfbench/spans.py wraps"


def test_shim_imports_name_only_trace_points():
    """An import kept only so that the tracer finds a name (marked noqa
    F401 with the note that spans.py wraps it) imports only names that
    trace_points() looks up in that module, so the shim goes with its
    trace point."""
    looked_up = {(module.__name__, attr) for module, attr, *_ in _load_spans().trace_points()}
    shims = []
    for path in sorted((ROOT / "src" / "netsirs").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if "noqa: F401" in text and _SHIM in text:
                module = f"netsirs.{path.stem}"
                shims += [(module, alias.asname or alias.name) for alias in node.names]
    assert shims
    assert set(shims) <= looked_up, sorted(set(shims) - looked_up)
