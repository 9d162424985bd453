"""Cost budgets: exact work counts that result objects already carry, on
the seed-1 inputs of the trajectories and analyses benchmark workloads
(perfbench/gen.py). Wall time on a shared host moves more than any bound
worth setting, while these counts move only when the program does. A
change that raises a count raises its budget here and says why."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import netsirs.equilibrium
from netsirs import (
    EndemicEquilibrium,
    IntegratorConfig,
    dfe_abscissa,
    endemic_certificate,
    load_initial,
    load_model,
    reproduction_number,
    simulate,
    solve_endemic,
)

ROOT = Path(__file__).resolve().parent.parent
FIVE_NODE = ROOT / "models" / "five_node.json"

# each count over the seed-1 inputs, one call per start or model, with the
# benchmark's trajectory settings (dt 0.01, t_end 100, every step recorded)
BUDGETS = {
    "RK4 steps": 44_129,  # of 80,000 configured: the runs settle
    "Perron solves": 750,  # SpectralResult.iterations
    "DFE bracket solves": 565,  # DfeAbscissa.iterations
    "equilibrium iterations": 1_478,  # EndemicEquilibrium.iterations
    "Newton-Fourier steps": 216,  # calls of _newton_fourier
}
# one dense eigensolve per certificate, one certificate per endemic model
EIGENSOLVES = 75


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counting(fn, calls):
    return lambda *args: calls.append(1) or fn(*args)


def test_benchmark_inputs_stay_within_their_cost_budgets(tmp_path, monkeypatch):
    gen = _load_gen()
    counts = dict.fromkeys(BUDGETS, 0)

    inputs = tmp_path / "trajectories"
    gen.make_inputs("trajectories", 1, inputs, FIVE_NODE)
    model = load_model(str(inputs / "five_node.json"))
    config = IntegratorConfig(dt=0.01, t_end=100.0, record_every=1)
    for k in range(gen.TRAJECTORY_STARTS):
        y0, z0 = load_initial(str(inputs / f"init_{k}.json"))
        counts["RK4 steps"] += simulate(model, y0, z0, config).steps

    inputs = tmp_path / "analyses"
    manifest = gen.make_inputs("analyses", 1, inputs, FIVE_NODE)
    newton, eigensolves = [], []
    monkeypatch.setattr(netsirs.equilibrium, "_newton_fourier",
                        _counting(netsirs.equilibrium._newton_fourier, newton))
    monkeypatch.setattr(np.linalg, "eigvals", _counting(np.linalg.eigvals, eigensolves))
    for entry in manifest:
        model = load_model(str(inputs / entry["file"]))
        _, spectral = reproduction_number(model)
        counts["Perron solves"] += spectral.iterations
        counts["DFE bracket solves"] += dfe_abscissa(model).iterations
        solved = solve_endemic(model, spectral=spectral)
        if isinstance(solved, EndemicEquilibrium):
            counts["equilibrium iterations"] += solved.iterations
            endemic_certificate(model, solved.y_star)
    counts["Newton-Fourier steps"] = len(newton)

    over = {name: (count, BUDGETS[name]) for name, count in counts.items()
            if count > BUDGETS[name]}
    assert not over, over
    assert len(eigensolves) == EIGENSOLVES
