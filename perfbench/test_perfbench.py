"""Self-tests of the benchmark: generator determinism, and oracles that
accept the program's outputs and reject corrupted ones.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "models" / "five_node.json"
sys.path.insert(0, str(ROOT / "src"))

from netsirs.cli import main  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["trajectories", "sweep_n200", "analyses"])
def test_same_seed_same_bytes(tmp_path, workload):
    first = gen.make_inputs(workload, 7, tmp_path / "a", REFERENCE)
    gen.make_inputs(workload, 7, tmp_path / "b", REFERENCE)
    gen.make_inputs(workload, 8, tmp_path / "c", REFERENCE)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    for entry in first:
        model = json.loads((tmp_path / "a" / entry["file"]).read_text())
        assert entry["n"] == model["n"]
        assert entry["edges"] == np.count_nonzero(model["W"])


def test_generated_r0_hits_target(tmp_path):
    manifest = gen.make_inputs("analyses", 3, tmp_path, REFERENCE)
    kinds = {"sub": 0, "near": 0, "super": 0}
    for entry in manifest:
        m = oracle.Model.load(tmp_path / entry["file"])
        assert m.r0 == pytest.approx(entry["target_r0"], rel=1e-9)
        for kind, (lo, hi) in gen.R0_RANGES.items():
            kinds[kind] += lo <= entry["target_r0"] <= hi
    assert min(kinds.values()) >= len(manifest) // 5
    sizes = sorted(e["n"] for e in manifest)
    assert sizes[0] <= 6 and sizes[-1] >= 180


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    """r0, equilibrium and stability outputs of a supercritical model."""
    d = tmp_path_factory.mktemp("analysed")
    model = gen.random_model(np.random.default_rng(5), 12, 2.5, "m")
    gen.write_json(d / "m.json", model)
    text = _run(["r0", "--model", str(d / "m.json")])
    _run(["equilibrium", "--model", str(d / "m.json"), "--out", str(d / "eq.json")])
    _run(["stability", "--model", str(d / "m.json"), "--out", str(d / "st.json")])
    m = oracle.Model.load(d / "m.json")
    return (m, oracle.endemic_point(m), text, json.loads((d / "eq.json").read_text()),
            json.loads((d / "st.json").read_text()))


def test_oracle_accepts_program_outputs(analysed):
    m, want, text, eq, st = analysed
    oracle.check_r0_text(m, text)
    oracle.check_equilibrium(m, eq, want)
    oracle.check_stability(m, st, want)


def test_oracle_rejects_corrupted_r0(analysed):
    m, want, text, eq, st = analysed
    bad = json.loads(json.dumps(st))
    bad["r0"] *= 1.0 + 1e-5
    with pytest.raises(oracle.OracleError, match="r0"):
        oracle.check_stability(m, bad, want)
    printed = text.splitlines()[0]
    wrong = text.replace(printed, f"R0 = {float(printed.split()[-1]) + 1e-5:.6f}")
    with pytest.raises(oracle.OracleError, match="R0"):
        oracle.check_r0_text(m, wrong)


def test_oracle_rejects_corrupted_verdict_and_profile(analysed):
    m, want, text, eq, st = analysed
    bad = json.loads(json.dumps(st))
    bad["endemic"]["verdict"] = "Unstable"
    with pytest.raises(oracle.OracleError, match="verdict"):
        oracle.check_stability(m, bad, want)
    bad = json.loads(json.dumps(st))
    bad["dfe"]["verdict"] = "Stable"
    with pytest.raises(oracle.OracleError, match="verdict"):
        oracle.check_stability(m, bad, want)
    bad = json.loads(json.dumps(eq))
    bad["y_star"][0] *= 1.0 + 1e-6
    with pytest.raises(oracle.OracleError):
        oracle.check_equilibrium(m, bad, want)


def _corrupt_row(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_oracle_rejects_corrupted_trajectory_row(tmp_path):
    gen.make_inputs("trajectories", 2, tmp_path, REFERENCE)
    out = tmp_path / "t.csv"
    _run(["simulate", "--model", str(tmp_path / "five_node.json"), "--init",
          str(tmp_path / "init_0.json"), "--dt", "0.05", "--t-end", "100", "--out", str(out)])
    m = oracle.Model.load(tmp_path / "five_node.json")
    y_star = oracle.endemic_point(m)
    text = out.read_text()
    oracle.check_trajectory_csv(m, text, 0.05, 2000, y_star, 1e-6)
    with pytest.raises(oracle.OracleError, match="x \\+ y \\+ z"):
        oracle.check_trajectory_csv(m, _corrupt_row(text, 500, 1, "0.9"), 0.05, 2000, y_star, 1e-6)
    with pytest.raises(oracle.OracleError, match="left"):
        oracle.check_trajectory_csv(m, _corrupt_row(text, 7, 2, "-0.001"), 0.05, 2000, y_star, 1e-6)


def test_oracle_rejects_corrupted_sweep_row(tmp_path):
    model = gen.random_model(np.random.default_rng(9), 10, 3.0, "s")
    gen.write_json(tmp_path / "s.json", model)
    out = tmp_path / "s.csv"
    _run(["sweep", "--model", str(tmp_path / "s.json"), "--scale-min", "0.05",
          "--scale-max", "1.5", "--steps", "30", "--out", str(out)])
    m = oracle.Model.load(tmp_path / "s.json")
    grid = np.linspace(0.05, 1.5, 30)
    text = out.read_text()
    oracle.check_sweep_csv(m, text, grid)
    for column in range(1, 5):
        with pytest.raises(oracle.OracleError):
            oracle.check_sweep_csv(m, _corrupt_row(text, 20, column, "0.5"), grid)
    with pytest.raises(oracle.OracleError):
        oracle.check_sweep_csv(m, _corrupt_row(text, 25, 1, "nan"), grid)
