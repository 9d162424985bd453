from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
import netsirs.cli
import netsirs.equilibrium
import netsirs.stability
import netsirs.sweep
from netsirs import (
    DimensionMismatchError,
    EndemicEquilibrium,
    IntegratorConfig,
    ModelInputError,
    SWEEP_HEADER,
    endemic_certificate,
    iterate_phi,
    jacobian_dfe,
    jacobian_endemic,
    load_initial,
    load_model,
    model_to_dict,
    reproduction_number,
    run_sweep,
    sample_initial_states,
    save_model,
    simulate,
    solve_endemic,
    spectral_abscissa,
    trajectory_header,
    validate_model,
    write_sweep_csv,
    write_trajectory_csv,
)


def _write_ref5(path, **fields) -> str:
    data = {
        "n": 5,
        "W": helpers.REF5_W,
        "gamma": helpers.REF5_GAMMA,
        "delta": helpers.REF5_DELTA,
        "name": "ref5",
        **fields,
    }
    path.write_text(json.dumps(data))
    return str(path)


FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")

# fields that load_model must reject with ModelInputError
_BAD_MODEL_FIELDS = ({"n": None}, {"name": 42}, {"n": 2.7}, {"n": True})

# valid JSON that is not an object
_NON_OBJECT_JSON = ("5", "[1, 2]", "null", '"model"')

# initial-condition fields that are not numeric vectors: an object, a
# string and a ragged list
_BAD_INITIAL_Y0 = ({"a": 1}, "abc", [[0.1], [0.1, 0.2]])


def _counting(fn):
    def counted(*args, **kwargs):
        counted.calls += 1
        return fn(*args, **kwargs)
    counted.calls = 0
    return counted


def _cli(*argv, env=None):
    # numpy warnings fail the command as they fail in-process tests
    full_env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "netsirs.cli", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_model_round_trip(tmp_path, ref5):
    path = tmp_path / "m.json"
    save_model(ref5, str(path))
    loaded = load_model(str(path))
    assert loaded.name == "ref5"
    assert np.array_equal(loaded.W, ref5.W)
    assert np.array_equal(loaded.gamma, ref5.gamma)
    assert np.array_equal(loaded.delta, ref5.delta)
    assert model_to_dict(loaded) == model_to_dict(ref5)


def test_load_model_error_cases(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelInputError):
        load_model(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2, "W": [[0, 1], [1, 0]], "gamma": [1, 1]}))
    with pytest.raises(ModelInputError):
        load_model(str(missing))
    shape = tmp_path / "shape.json"
    shape.write_text(
        json.dumps({"n": 3, "W": [[0, 1], [1, 0]], "gamma": [1, 1], "delta": [1, 1]})
    )
    with pytest.raises(DimensionMismatchError):
        load_model(str(shape))
    for fields in _BAD_MODEL_FIELDS:
        with pytest.raises(ModelInputError):
            load_model(_write_ref5(tmp_path / "fields.json", **fields))
    for text in _NON_OBJECT_JSON:
        bad.write_text(text)
        with pytest.raises(ModelInputError):
            load_model(str(bad))
    # an integral n loads whether JSON spells it 5 or 5.0
    assert load_model(_write_ref5(tmp_path / "float_n.json", n=5.0)).n == 5


def test_load_initial(tmp_path):
    path = tmp_path / "init.json"
    path.write_text(json.dumps({"y0": [0.1, 0.0], "z0": [0.0, 0.2]}))
    y0, z0 = load_initial(str(path))
    assert np.allclose(y0, [0.1, 0.0])
    assert np.allclose(z0, [0.0, 0.2])
    path.write_text(json.dumps({"y0": [0.1, 0.0]}))
    with pytest.raises(ModelInputError):
        load_initial(str(path))
    for text in _NON_OBJECT_JSON:
        path.write_text(text)
        with pytest.raises(ModelInputError):
            load_initial(str(path))
    for y0 in _BAD_INITIAL_Y0:
        path.write_text(json.dumps({"y0": y0, "z0": [0.0, 0.2]}))
        with pytest.raises(ModelInputError):
            load_initial(str(path))


def test_sample_initial_states_on_simplex():
    rng = np.random.default_rng(0)
    draws = sample_initial_states(4, 10, rng)
    assert len(draws) == 10
    for y0, z0 in draws:
        assert np.all(y0 >= 0.0) and np.all(z0 >= 0.0)
        assert np.all(y0 + z0 <= 1.0 + 1e-12)
        assert y0.max() > 0.0
    again = sample_initial_states(4, 10, np.random.default_rng(0))
    for (a, b), (c, d) in zip(draws, again):
        assert np.array_equal(a, c) and np.array_equal(b, d)


def test_trajectory_csv_format(tmp_path, out_regular3):
    assert trajectory_header(2, False) == "t,y_1,y_2,z_1,z_2,x_1,x_2"
    assert trajectory_header(1, True) == "t,y_1,z_1,x_1,V"
    traj = simulate(out_regular3, np.array([0.1, 0.0, 0.2]), np.zeros(3),
                    IntegratorConfig(dt=0.1, t_end=1.0, record_every=5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,z_1,z_2,z_3,x_1,x_2,x_3"
    assert len(lines) == 1 + len(traj)
    assert lines[1].split(",")[0] == "0"
    assert lines[1].split(",")[1] == "0.1"
    # 12 significant digits, shortest form
    assert format(0.1, ".12g") == "0.1"
    for cell in lines[2].split(","):
        assert len(cell.split(".")[-1]) <= 13


def test_sweep_rows_match_closed_form(tmp_path):
    m = helpers.out_regular(n=3, row_sum=2.0, gamma=1.0, delta=3.0)
    rows, failures = run_sweep(m, 0.25, 1.5, 6)
    assert failures == 0
    assert [row.scale for row in rows] == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    for row in rows:
        assert row.r0 == pytest.approx(2.0 * row.scale, abs=1e-8)
        expected = helpers.out_regular_y_star(row_sum=2.0 * row.scale, delta=3.0)
        if row.scale > 0.5:
            assert row.endemic_norm == pytest.approx(expected, abs=1e-9)
            assert row.endemic_abscissa < 0.0
        else:
            assert row.endemic_norm == 0.0
            assert np.isnan(row.endemic_abscissa)
        assert row.dfe_abscissa == pytest.approx(2.0 * row.scale - 1.0, abs=1e-8)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 7
    assert lines[1].endswith(",nan")


def test_sweep_is_deterministic():
    m = helpers.out_regular(n=3, row_sum=2.0)
    rows1, _ = run_sweep(m, 0.5, 2.0, 8)
    rows4, _ = run_sweep(m, 0.5, 2.0, 8)
    for a, b in zip(rows1, rows4):
        fields = [(a.scale, b.scale), (a.r0, b.r0), (a.endemic_norm, b.endemic_norm),
                  (a.dfe_abscissa, b.dfe_abscissa), (a.endemic_abscissa, b.endemic_abscissa)]
        for u, v in fields:
            assert u == v or (np.isnan(u) and np.isnan(v))


def test_sweep_solves_perron_pair_once(monkeypatch):
    m = helpers.ref5()
    counted = _counting(reproduction_number)
    monkeypatch.setattr(netsirs.sweep, "reproduction_number", counted)
    # s <= 0 fails validation; s = 0.0625 is subcritical (R0 = 0.546)
    rows, failures = run_sweep(m, -0.25, 1.0, 21)
    assert counted.calls == 1
    assert failures == 5
    for row in rows:
        fields = (row.r0, row.endemic_norm, row.dfe_abscissa, row.endemic_abscissa)
        if row.scale <= 0.0:
            assert all(np.isnan(v) for v in fields)
            continue
        ref = validate_model(row.scale * m.W, m.gamma, m.delta)
        r0, spectral = reproduction_number(ref)
        solved = solve_endemic(ref, spectral=spectral)
        if isinstance(solved, EndemicEquilibrium):
            norm = float(np.max(np.abs(solved.y_star)))
            endemic = spectral_abscissa(jacobian_endemic(ref, solved.y_star, solved.z_star))
        else:
            norm, endemic = 0.0, float("nan")
        expected = (r0, norm, spectral_abscissa(jacobian_dfe(ref)), endemic)
        assert fields == pytest.approx(expected, rel=1e-12, abs=0.0, nan_ok=True)
    assert any(row.endemic_norm == 0.0 for row in rows)


def test_sweep_rows_keep_their_error():
    rows, failures = run_sweep(load_model(FIVE_NODE), -0.5, 2.0, 41)
    assert failures == 9
    errors = {row.scale: row.error for row in rows if row.error is not None}
    negative = [scale for scale, error in errors.items() if error.startswith("NegativeEntryError: ")]
    assert len(negative) == 8 and all(scale < 0.0 for scale in negative)
    assert errors[0.0] == "ReducibleError: the support digraph of W is not strongly connected"
    assert len(errors) == failures
    for row in rows:
        assert (row.error is None) == (row.scale > 0.0)


# sha256 of `netsirs sweep` CSVs on five_node, recorded when solve_endemic
# gained Newton-Fourier steps. Against the plain Phi bracket only the
# endemic_norm of the rows at R0 = 1.31 (scale 0.15) and 1.09 (scale 0.125)
# moved, in the 12th digit; both values lie within 2e-13 of
# oracles.endemic_mpmath, as the old ones did
_SWEEP_GOLDEN = {
    "supercritical": (["0.05", "1.5", "30"], "30 rows, 0 warnings",
                      "a73883fb29f8d3c91fdcc2bab0c5948656063f6688acf9419617b29799e6c6a7"),
    "with_failures": (["-0.5", "2.0", "41"], "41 rows, 9 warnings",
                      "ce35d641f983be577ccb02371826a4befc59da4c9c363cd826f740687199b28d"),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_GOLDEN))
def test_cli_sweep_csv_bytes_are_pinned(tmp_path, capsys, name):
    (lo, hi, steps), summary, digest = _SWEEP_GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert netsirs.cli.main(["sweep", "--model", FIVE_NODE, "--scale-min", lo, "--scale-max", hi,
                             "--steps", steps, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({summary})\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_takes_one_dense_eigensolve_per_supercritical_row(monkeypatch):
    # the DFE abscissa comes from the Perron bracket; only the endemic
    # Jacobian of a supercritical row goes through a dense eigensolve
    counted = _counting(spectral_abscissa)
    eigvals = _counting(np.linalg.eigvals)
    monkeypatch.setattr(netsirs.sweep, "spectral_abscissa", counted)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    rows, failures = run_sweep(helpers.ref5(), -0.25, 1.0, 21)
    supercritical = sum(row.endemic_norm > 0.0 for row in rows)
    assert failures == 5
    assert 0 < supercritical < len(rows) - failures
    assert counted.calls == eigvals.calls == supercritical


@pytest.mark.parametrize("row_sum, calls", [(0.8, 0), (2.0, 1)])
def test_cli_stability_takes_one_dense_eigensolve_per_endemic_model(
        tmp_path, monkeypatch, capsys, row_sum, calls):
    path = tmp_path / "model.json"
    save_model(helpers.out_regular(n=3, row_sum=row_sum), str(path))
    counted = _counting(spectral_abscissa)
    eigvals = _counting(np.linalg.eigvals)
    monkeypatch.setattr(netsirs.stability, "spectral_abscissa", counted)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    assert netsirs.cli.main(["stability", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["endemic"] is not None) == (calls == 1)
    assert counted.calls == eigvals.calls == calls


def test_cli_stability_threshold_dfe_is_inconclusive(tmp_path, capsys):
    # R0 = 1 exactly: the DFE bracket closes at [0, 0], which touches 0
    path = tmp_path / "threshold.json"
    save_model(helpers.out_regular(n=2, row_sum=1.0), str(path))
    assert netsirs.cli.main(["stability", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dfe"] == {"abscissa": 0.0, "verdict": "Inconclusive"}


def test_cli_r0_output(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    res = _cli("r0", "--model", model_path)
    assert res.returncode == 0
    assert "R0 = 8.7433" in res.stdout
    assert "v_right:" in res.stdout


def test_cli_rejects_invalid_model(tmp_path):
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({
        "n": 2, "W": [[1.0, 1.0], [0.0, 1.0]], "gamma": [1, 1], "delta": [1, 1],
    }))
    res = _cli("r0", "--model", str(path))
    assert res.returncode == 1
    assert "error: ReducibleError" in res.stderr
    res = _cli("r0", "--model", str(tmp_path / "nope.json"))
    assert res.returncode == 1
    for fields in _BAD_MODEL_FIELDS:
        res = _cli("r0", "--model", _write_ref5(tmp_path / "fields.json", **fields))
        assert res.returncode == 1
        assert "error: ModelInputError" in res.stderr
    path.write_text("5")
    res = _cli("r0", "--model", str(path))
    assert res.returncode == 1
    assert "error: ModelInputError" in res.stderr
    for W, gamma, delta in helpers.OVERFLOW_MODELS:
        path.write_text(json.dumps({"n": 2, "W": W, "gamma": gamma, "delta": delta}))
        for command in ("r0", "equilibrium"):
            res = _cli(command, "--model", str(path))
            assert res.returncode == 1
            assert res.stderr.startswith("error: ModelInputError: ")
            assert res.stderr.count("\n") == 1


# each subcommand that takes --tol, with the arguments it needs besides
# --model, --tol and --out
_SUBCOMMAND_ARGS = {
    "r0": [],
    "equilibrium": [],
    "stability": [],
    "sweep": ["--scale-min", "0.5", "--scale-max", "1.5", "--steps", "3"],
}


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGS))
def test_cli_rejects_bad_tol(tmp_path, capsys, command, tol):
    out = tmp_path / "out"
    argv = [command, "--model", FIVE_NODE, "--tol", tol, *_SUBCOMMAND_ARGS[command]]
    if command != "r0":
        argv += ["--out", str(out)]
    assert netsirs.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ModelInputError: tol must be positive and finite, got {float(tol)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_library_rejects_bad_tol(tol):
    m = helpers.ref5()
    solved = solve_endemic(m)
    y, z = solved.y_star, solved.z_star
    calls = [
        lambda: reproduction_number(m, tol=tol),
        lambda: solve_endemic(m, tol=tol),
        lambda: iterate_phi(y, m.M, m.alpha, tol=tol),
        lambda: jacobian_endemic(m, y, z, tol=tol),
        lambda: endemic_certificate(m, y, z, tol=tol),
        lambda: run_sweep(m, 0.5, 1.5, 3, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ModelInputError, match="^tol must be positive and finite"):
            call()


def test_cli_simulate_has_no_tol_flag(tmp_path, capsys):
    # simulate has no solver tolerance, so the parser rejects the flag
    assert netsirs.cli.main(["simulate", "--model", FIVE_NODE, "--random", "1", "--t-end", "0.1",
                             "--tol", "1e-3", "--out", str(tmp_path / "run.csv")]) == 1
    assert capsys.readouterr().err == "error: ModelInputError: unrecognized arguments: --tol 1e-3\n"
    assert list(tmp_path.iterdir()) == []


# argv without --out, and the start of the line main reports for it after
# "error: "; the parser's own errors, the library's checks and numpy's
# refusal of an impossible allocation leave the same way
_BAD_INPUT = {
    "unknown flag": (["r0", "--model", FIVE_NODE, "--bogus", "1"],
                     "ModelInputError: unrecognized arguments: --bogus 1"),
    "missing model": (["sweep", "--scale-min", "0.5", "--scale-max", "1.5", "--steps", "3"],
                      "ModelInputError: the following arguments are required: --model"),
    "steps abc": (["sweep", "--model", FIVE_NODE, "--scale-min", "0.5", "--scale-max", "1.5",
                   "--steps", "abc"], "ModelInputError: argument --steps: invalid int value: 'abc'"),
    "scale-min -inf": (["sweep", "--model", FIVE_NODE, "--scale-min", "-inf", "--scale-max", "1.5",
                        "--steps", "3"], "ModelInputError: scale bounds must be finite, got -inf"),
    "dt -inf": (["simulate", "--model", FIVE_NODE, "--random", "1", "--dt", "-inf"],
                "ModelInputError: dt must be positive and finite"),
    "simulate too many rows": (["simulate", "--model", FIVE_NODE, "--random", "1", "--dt", "1e-9",
                                "--t-end", "1e6"], "MemoryError: Unable to allocate"),
    "sweep too many steps": (["sweep", "--model", FIVE_NODE, "--scale-min", "0.1", "--scale-max",
                              "1", "--steps", "1000000000000000"], "MemoryError: Unable to allocate"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUT))
def test_cli_bad_input_exits_one(tmp_path, capsys, case):
    argv, message = _BAD_INPUT[case]
    assert netsirs.cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_reads_negative_float_as_value(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    argv = ["sweep", "--model", FIVE_NODE, "--scale-max", "1.5", "--steps", "4"]
    assert netsirs.cli.main([*argv, "--scale-min", "-1e-3", "--out", str(spaced)]) == 0
    assert netsirs.cli.main([*argv, "--scale-min=-1e-3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv", [["stability", "--seed", "-1"],
                                  ["simulate", "--random", "2", "--seed", "-5"]])
def test_cli_rejects_negative_seed_before_any_work(tmp_path, capsys, monkeypatch, argv):
    loads = _counting(load_model)
    monkeypatch.setattr(netsirs.cli, "load_model", loads)
    command, *flags = argv
    out = tmp_path / "out"
    assert netsirs.cli.main([command, "--model", FIVE_NODE, *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ModelInputError: --seed must be at least 0, got {flags[-1]}\n"
    assert loads.calls == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """main keeps one parser per process; no value leaks from one call's
    Namespace into the next, and the output is that of a fresh process."""
    builds = _counting(netsirs.cli.build_parser)
    monkeypatch.setattr(netsirs.cli, "build_parser", builds)
    netsirs.cli._parser.cache_clear()
    first, second = tmp_path / "A.json", tmp_path / "B.json"
    assert netsirs.cli.main(["equilibrium", "--model", FIVE_NODE, "--out", str(first)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {first}\n")
    assert netsirs.cli.main(["equilibrium", "--model", FIVE_NODE]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert sorted(tmp_path.iterdir()) == [first]
    assert netsirs.cli.main(["stability", "--model", FIVE_NODE, "--bogus", "1"]) == 1
    assert capsys.readouterr().err == "error: ModelInputError: unrecognized arguments: --bogus 1\n"
    assert netsirs.cli.main(["stability", "--model", FIVE_NODE, "--out", str(second)]) == 0
    assert builds.calls == 1

    fresh = tmp_path / "fresh"
    fresh.mkdir()
    res = _cli("stability", "--model", FIVE_NODE, "--out", str(fresh / "B.json"))
    assert res.returncode == 0
    assert second.read_bytes() == (fresh / "B.json").read_bytes()
    assert sorted(tmp_path.iterdir()) == [first, second, fresh]


def test_cli_simulate_rejects_negative_random(tmp_path, capsys):
    assert netsirs.cli.main(["simulate", "--model", FIVE_NODE, "--random", "-3",
                             "--out", str(tmp_path / "run.csv")]) == 1
    assert capsys.readouterr().err == "error: ModelInputError: --random must be at least 0, got -3\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", [["--t-end", "inf"], ["--t-end", "1e300", "--dt", "1e-300"]])
def test_cli_simulate_rejects_non_finite_step_count(tmp_path, capsys, steps):
    assert netsirs.cli.main(["simulate", "--model", FIVE_NODE, "--random", "1", *steps,
                             "--out", str(tmp_path / "run.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_solver_failure_exits_two(tmp_path):
    # a step size far too large for the contact strength blows up the
    # integration, which is a numerical failure, not bad input
    m = helpers.out_regular(n=3, row_sum=100.0)
    path = tmp_path / "stiff.json"
    save_model(m, str(path))
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"y0": [0.3, 0.2, 0.1], "z0": [0.0, 0.0, 0.0]}))
    res = _cli("simulate", "--model", str(path), "--init", str(init),
               "--dt", "1.0", "--t-end", "10", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "SimplexViolationError" in res.stderr


def test_cli_equilibrium_report(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    report = tmp_path / "eq.json"
    res = _cli("equilibrium", "--model", model_path, "--out", str(report))
    assert res.returncode == 0
    assert "y_star:" in res.stdout
    data = json.loads(report.read_text())
    assert data["r0"] == pytest.approx(helpers.REF5_R0, abs=1e-4)
    assert len(data["y_star"]) == 5
    total = np.array(data["y_star"]) + np.array(data["z_star"]) + np.array(data["x_star"])
    assert np.allclose(total, 1.0, atol=1e-9)


_REF5_EQUILIBRIUM_STDOUT = """\
R0 = 8.743346
y_star: [0.219530706149, 0.16224723877, 0.151089519968, 0.0711378354945, 0.27502757572]
z_star: [0.731769020495, 0.405618096925, 0.755447599841, 0.711378354945, 0.458379292867]
x_star: [0.0487002733564, 0.432134664306, 0.0934628801904, 0.217483809561, 0.266593131412]
iterations: 16
residual: 3.799e-13
bracket_gap: 9.746e-13
wrote {out}
"""

_REF5_EQUILIBRIUM_JSON = """\
{
  "r0": 8.74334622841763,
  "y_star": [
    0.21953070614851508,
    0.16224723876981792,
    0.151089519968273,
    0.07113783549447134,
    0.2750275757203625
  ],
  "z_star": [
    0.7317690204950503,
    0.4056180969245448,
    0.755447599841365,
    0.7113783549447134,
    0.45837929286727086
  ],
  "x_star": [
    0.048700273356434565,
    0.43213466430563724,
    0.09346288019036197,
    0.21748380956081526,
    0.2665931314123666
  ],
  "iterations": 16,
  "residual": 3.7991831902672857e-13,
  "bracket_gap": 9.745537710159624e-13
}
"""


def test_cli_equilibrium_solves_r0_once(tmp_path, monkeypatch, capsys):
    model_path = _write_ref5(tmp_path / "ref5.json")
    out = tmp_path / "eq.json"
    counted = _counting(reproduction_number)
    monkeypatch.setattr(netsirs.cli, "reproduction_number", counted)
    monkeypatch.setattr(netsirs.equilibrium, "reproduction_number", counted)
    assert netsirs.cli.main(["equilibrium", "--model", model_path, "--out", str(out)]) == 0
    assert counted.calls == 1
    assert capsys.readouterr().out == _REF5_EQUILIBRIUM_STDOUT.format(out=out)
    assert out.read_text() == _REF5_EQUILIBRIUM_JSON


def test_cli_equilibrium_subcritical(tmp_path):
    sub = helpers.out_regular(n=3, row_sum=0.8)
    path = tmp_path / "sub.json"
    save_model(sub, str(path))
    res = _cli("equilibrium", "--model", str(path))
    assert res.returncode == 0
    assert "NoEndemic (R0 = 0.800000)" in res.stdout


def test_cli_equilibrium_near_threshold(tmp_path, capsys):
    # five_node rescaled to R0 = 1 + 1e-6 used to exit 2 with NoConvergenceError
    model = load_model(FIVE_NODE)
    r0, _ = reproduction_number(model)
    path = tmp_path / "near.json"
    save_model(validate_model(model.W * ((1.0 + 1e-6) / r0), model.gamma, model.delta), str(path))
    out = tmp_path / "eq.json"
    assert netsirs.cli.main(["equilibrium", "--model", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert 0.0 < min(data["y_star"]) and max(data["y_star"]) < 1e-6
    assert data["bracket_gap"] <= 1e-12


def test_cli_simulate_single_and_multi(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "y0": [0.1, 0.0, 0.2, 0.0, 0.0],
        "z0": [0.0, 0.1, 0.0, 0.0, 0.0],
    }))
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", model_path, "--init", str(init),
               "--t-end", "1.0", "--record-every", "10", "--out", str(out))
    assert res.returncode == 0
    assert f"wrote {out}" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t,y_1,y_2,y_3,y_4,y_5,z_1,z_2,z_3,z_4,z_5,x_1,x_2,x_3,x_4,x_5"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.1" and first[11] == "0.9"

    multi = tmp_path / "multi.csv"
    res = _cli("simulate", "--model", model_path, "--random", "3", "--seed", "5",
               "--t-end", "1.0", "--record-every", "10", "--out", str(multi))
    assert res.returncode == 0
    for k in range(3):
        assert (tmp_path / f"multi_{k:03d}.csv").exists()
    assert not multi.exists()

    # exactly one initial-condition source must be given
    res = _cli("simulate", "--model", model_path, "--out", str(out))
    assert res.returncode == 1
    res = _cli("simulate", "--model", model_path, "--init", str(init),
               "--random", "2", "--out", str(out))
    assert res.returncode == 1


def test_cli_simulate_rejects_nan_initial(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"y0": [float("nan"), 0.1, 0.0, 0.0, 0.0],
                                "z0": [0.0] * 5}))
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", model_path, "--init", str(init), "--out", str(out))
    assert res.returncode == 1
    assert "error: InvalidInitialError" in res.stderr
    assert not out.exists()


def test_cli_simulate_rejects_non_object_initial(tmp_path):
    init = tmp_path / "init.json"
    out = tmp_path / "run.csv"
    texts = ["5", *(json.dumps({"y0": y0, "z0": [0.0] * 5}) for y0 in _BAD_INITIAL_Y0)]
    for text in texts:
        init.write_text(text)
        res = _cli("simulate", "--model", FIVE_NODE, "--init", str(init), "--out", str(out))
        assert res.returncode == 1
        assert "error: ModelInputError" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


def test_cli_simulate_aborts_at_first_bad_record(tmp_path):
    # dt = 5 is far too large for five_node. With every step recorded the
    # run must stop at the first step, before the state overflows and
    # numpy warns about it.
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", FIVE_NODE, "--random", "1",
               "--dt", "5", "--t-end", "500", "--out", str(out))
    assert res.returncode == 2
    assert "RuntimeWarning" not in res.stderr
    assert res.stderr == ("error: SimplexViolationError: state left the simplex "
                          "at t = 5; reduce dt\n")
    assert not out.exists()


def test_cli_simulate_flags_nan_between_records(tmp_path):
    # the state leaves the simplex at t = 2, far from any recorded row;
    # the unrecorded step must fail the simplex check there, before the
    # run goes on to overflow and numpy warns about it
    model_path = _write_ref5(tmp_path / "ref5.json")
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"y0": [0.1, 0.0, 0.2, 0.0, 0.0], "z0": [0.0] * 5}))
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", model_path, "--init", str(init),
               "--dt", "1.0", "--t-end", "400", "--record-every", "1000000000",
               "--out", str(out))
    assert res.returncode == 2
    assert "RuntimeWarning" not in res.stderr
    assert res.stderr == ("error: SimplexViolationError: state left the simplex "
                          "at t = 2; reduce dt\n")
    assert not out.exists()
    # with every step recorded the run stops at the same step
    res = _cli("simulate", "--model", model_path, "--init", str(init),
               "--dt", "1.0", "--t-end", "400", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.endswith("at t = 2; reduce dt\n")


def test_cli_simulate_is_deterministic(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        res = _cli("simulate", "--model", model_path, "--random", "2", "--seed", "9",
                   "--t-end", "2.0", "--record-every", "20", "--out", str(out))
        assert res.returncode == 0
        outs.append(b"".join(
            (tmp_path / f"{tag}_{k:03d}.csv").read_bytes() for k in range(2)
        ))
    assert outs[0] == outs[1]


_GOLDEN_INIT = {"y0": [0.1, 0.0, 0.2, 0.05, 0.0], "z0": [0.0, 0.1, 0.0, 0.3, 0.0]}

# sha256 of every CSV `netsirs simulate` writes on five_node, recorded
# from the code before the RK4 loop and the CSV writer were rewritten for
# speed. "ragged" takes 101 steps, which --record-every 3 does not divide,
# so its last row is the final step recorded on its own; "init" has 2,501
# rows, more than two write chunks. "lyapunov" was re-recorded when v_left
# came to be solved to rounding by shifted inverse iteration: V moved at
# the 12th digit in 7 of 44 rows, closer to an mpmath left eigenvector
# (largest |V - V_exact| 8.1e-13 before, 6.2e-13 after).
_SIMULATE_GOLDEN = {
    "random": (
        ["--random", "2", "--seed", "9", "--t-end", "2", "--record-every", "20"],
        ["7a5c80b099e90edbfcc6be5a03647f9ae3801a9cbfca13617cd4fa1f3024214f",
         "e5cf2988aa723d4becd78384d0ce86fdb0f16121eef7043021be3756363a68c2"],
    ),
    "lyapunov": (
        ["--random", "1", "--seed", "4", "--t-end", "3", "--record-every", "7", "--lyapunov"],
        ["1b20ddb6616dc52fd016933543ec931e94a866342f385dcf751182217b1d970d"],
    ),
    "ragged": (
        ["--random", "1", "--seed", "5", "--t-end", "1.01", "--record-every", "3"],
        ["abe0f2867d90d8fb06ded74ebb886003cd157d5cd9793a44223892a1cf251f69"],
    ),
    "init": (
        ["--init", "{init}", "--t-end", "25", "--record-every", "1"],
        ["c91f23d2173899911f0bbecbf627a6f77352d247b6a261902a90d05705910633"],
    ),
}


@pytest.mark.parametrize("name", sorted(_SIMULATE_GOLDEN))
def test_cli_simulate_csv_bytes_are_pinned(tmp_path, capsys, name):
    argv, digests = _SIMULATE_GOLDEN[name]
    init = tmp_path / "init.json"
    init.write_text(json.dumps(_GOLDEN_INIT))
    argv = [arg.format(init=init) for arg in argv]
    out = tmp_path / f"{name}.csv"
    assert netsirs.cli.main(["simulate", "--model", FIVE_NODE, *argv, "--out", str(out)]) == 0
    paths = [out] if len(digests) == 1 else [
        tmp_path / f"{name}_{k:03d}.csv" for k in range(len(digests))
    ]
    assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == digests
    if name == "ragged":
        assert out.read_text().splitlines()[-1].startswith("1.01,")


def test_cli_stability_report(tmp_path):
    model_path = _write_ref5(tmp_path / "ref5.json")
    report = tmp_path / "stab.json"
    res = _cli("stability", "--model", model_path, "--out", str(report))
    assert res.returncode == 0
    data = json.loads(report.read_text())
    assert data["dfe"]["verdict"] == "Unstable"
    assert data["endemic"]["verdict"] == "Stable"
    assert data["endemic"]["eta"] == pytest.approx(0.1)
    assert data["endemic"]["abscissa"] < 0.0
    assert len(data["endemic"]["gershgorin"]) == 37
    sample = data["endemic"]["gershgorin"][0]
    assert set(sample) == {"lambda", "all_disks_left", "min_margin"}


def test_cli_stability_subcritical_has_no_endemic_block(tmp_path):
    sub = helpers.out_regular(n=3, row_sum=0.8)
    path = tmp_path / "sub.json"
    save_model(sub, str(path))
    res = _cli("stability", "--model", str(path))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["endemic"] is None
    assert data["dfe"]["verdict"] == "Stable"


@pytest.mark.parametrize("bounds", [("nan", "1.0"), ("0.5", "inf"), ("-inf", "1.0")])
def test_cli_sweep_rejects_non_finite_scale(tmp_path, capsys, bounds):
    out = tmp_path / "sweep.csv"
    assert netsirs.cli.main(["sweep", "--model", FIVE_NODE, f"--scale-min={bounds[0]}",
                             f"--scale-max={bounds[1]}", "--steps", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ModelInputError: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# JSON entries that numpy would coerce to numbers: (model fields,
# initial-condition file or None for --random 1)
_NON_NUMBER_JSON = {
    "W strings": ({"W": [[str(v) for v in row] for row in helpers.REF5_W]}, None),
    "n string": ({"n": "5"}, None),
    "gamma booleans": ({"gamma": [True] * 5}, None),
    "delta strings": ({"delta": [str(v) for v in helpers.REF5_DELTA]}, None),
    "y0 strings": ({}, {"y0": ["0.1"] * 5, "z0": [0.0] * 5}),
    "z0 booleans": ({}, {"y0": [0.1] * 5, "z0": [False] * 5}),
    # numpy reads a boolean among numbers as 0 or 1
    "W mixed booleans": ({"W": [[3.0, True, 4.0, 1.0, 8.0]] + helpers.REF5_W[1:]}, None),
    "gamma mixed booleans": ({"gamma": [1, True, 1, 1, 1]}, None),
    "delta mixed booleans": ({"delta": [0.3, 0.4, 0.2, 0.1, False]}, None),
    "y0 mixed booleans": ({}, {"y0": [0.1, True, 0.1, 0.1, 0.1], "z0": [0.0] * 5}),
    "z0 mixed booleans": ({}, {"y0": [0.1] * 5, "z0": [0.0, False, 0.0, 0.0, 0.0]}),
}


@pytest.mark.parametrize("case", sorted(_NON_NUMBER_JSON))
def test_cli_rejects_non_numbers_in_json(tmp_path, capsys, case):
    fields, initial = _NON_NUMBER_JSON[case]
    argv = ["simulate", "--model", _write_ref5(tmp_path / "model.json", **fields),
            "--t-end", "0.1", "--out", str(tmp_path / "run.csv")]
    if initial is None:
        argv += ["--random", "1"]
    else:
        (tmp_path / "init.json").write_text(json.dumps(initial))
        argv += ["--init", str(tmp_path / "init.json")]
    inputs = sorted(tmp_path.iterdir())
    assert netsirs.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ModelInputError: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == inputs


def test_load_model_reads_true_outside_the_numbers(tmp_path):
    """A true or false in the text only starts the boolean scan."""
    path = _write_ref5(tmp_path / "model.json", name="true or false")
    assert load_model(path).name == "true or false"
    assert np.array_equal(load_model(path).W, helpers.ref5().W)


def _five_node_in_time_unit(tmp_path, c: float) -> str:
    """five_node with W, gamma and delta multiplied by c, the same model
    with time measured in units 1/c as long."""
    with open(FIVE_NODE) as fh:
        data = json.load(fh)
    for key in ("gamma", "delta"):
        data[key] = [c * v for v in data[key]]
    data["W"] = [[c * v for v in row] for row in data["W"]]
    path = tmp_path / f"five_node_x{c:g}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("c", [365.0, 1e3, 1e4])
def test_cli_stability_verdicts_do_not_depend_on_the_time_unit(tmp_path, capsys, c):
    assert netsirs.cli.main(["stability", "--model", FIVE_NODE]) == 0
    base = json.loads(capsys.readouterr().out)
    assert netsirs.cli.main(["stability", "--model", _five_node_in_time_unit(tmp_path, c)]) == 0
    scaled = json.loads(capsys.readouterr().out)
    assert scaled["dfe"]["verdict"] == base["dfe"]["verdict"] == "Unstable"
    assert scaled["endemic"]["verdict"] == base["endemic"]["verdict"] == "Stable"
    assert scaled["endemic"]["eta"] == pytest.approx(c * base["endemic"]["eta"], rel=1e-9)
    assert np.max(np.abs(np.subtract(scaled["endemic"]["y_star"],
                                     base["endemic"]["y_star"]))) <= 1e-12


@pytest.mark.parametrize("c", [365.0, 1e3, 1e4])
def test_cli_sweep_rows_do_not_depend_on_the_time_unit(tmp_path, capsys, c):
    argv = ["--scale-min", "0.05", "--scale-max", "2.0", "--steps", "41",
            "--out", str(tmp_path / "sweep.csv")]
    for model in (FIVE_NODE, _five_node_in_time_unit(tmp_path, c)):
        assert netsirs.cli.main(["sweep", "--model", model, *argv]) == 0
        assert capsys.readouterr().out.endswith("(41 rows, 0 warnings)\n")


def test_runtime_imports_no_test_only_package():
    """The library and its CLI run on numpy alone."""
    code = ("import sys, netsirs, netsirs.cli; print(' '.join(name for name in "
            "('scipy', 'hypothesis', 'mpmath', 'pytest') if name in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n"


def test_cli_sweep(tmp_path):
    m = helpers.out_regular(n=3, row_sum=2.0, gamma=1.0, delta=3.0)
    path = tmp_path / "reg.json"
    save_model(m, str(path))
    out = tmp_path / "sweep.csv"
    res = _cli("sweep", "--model", str(path), "--scale-min", "0.25",
               "--scale-max", "1.5", "--steps", "6", "--out", str(out))
    assert res.returncode == 0
    assert f"wrote {out} (6 rows, 0 warnings)" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    row = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert float(row["scale"]) == 1.0
    assert float(row["r0"]) == pytest.approx(2.0, abs=1e-8)
    assert float(row["endemic_norm"]) == pytest.approx(0.375, abs=1e-9)
