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
import netsirs.sweep
from netsirs import (
    DimensionMismatchError,
    EndemicEquilibrium,
    IntegratorConfig,
    ModelInputError,
    SWEEP_HEADER,
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


def _counting(fn):
    def counted(*args, **kwargs):
        counted.calls += 1
        return fn(*args, **kwargs)
    counted.calls = 0
    return counted


def _cli(*argv, env=None):
    full_env = dict(os.environ)
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


def test_sweep_thread_cap_is_deterministic(monkeypatch):
    m = helpers.out_regular(n=3, row_sum=2.0)
    monkeypatch.setenv("NETSIRS_THREADS", "1")
    rows1, _ = run_sweep(m, 0.5, 2.0, 8)
    monkeypatch.setenv("NETSIRS_THREADS", "4")
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
    init.write_text("5")
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", FIVE_NODE, "--init", str(init), "--out", str(out))
    assert res.returncode == 1
    assert "error: ModelInputError" in res.stderr
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
    # the run overflows to NaN between the first and the last recorded
    # row; the final recorded state must fail the simplex check
    model_path = _write_ref5(tmp_path / "ref5.json")
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"y0": [0.1, 0.0, 0.2, 0.0, 0.0], "z0": [0.0] * 5}))
    out = tmp_path / "run.csv"
    res = _cli("simulate", "--model", model_path, "--init", str(init),
               "--dt", "1.0", "--t-end", "400", "--record-every", "1000000000",
               "--out", str(out))
    assert res.returncode == 2
    assert "error: SimplexViolationError" in res.stderr
    assert not out.exists()


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
# rows, more than two write chunks.
_SIMULATE_GOLDEN = {
    "random": (
        ["--random", "2", "--seed", "9", "--t-end", "2", "--record-every", "20"],
        ["7a5c80b099e90edbfcc6be5a03647f9ae3801a9cbfca13617cd4fa1f3024214f",
         "e5cf2988aa723d4becd78384d0ce86fdb0f16121eef7043021be3756363a68c2"],
    ),
    "lyapunov": (
        ["--random", "1", "--seed", "4", "--t-end", "3", "--record-every", "7", "--lyapunov"],
        ["8189549f76fe7ae92adf5db4289c8a29e71db38805c508bd74f50e974f9b2a33"],
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


def test_cli_sweep(tmp_path):
    m = helpers.out_regular(n=3, row_sum=2.0, gamma=1.0, delta=3.0)
    path = tmp_path / "reg.json"
    save_model(m, str(path))
    out = tmp_path / "sweep.csv"
    res = _cli("sweep", "--model", str(path), "--scale-min", "0.25",
               "--scale-max", "1.5", "--steps", "6", "--out", str(out),
               env={"NETSIRS_THREADS": "2"})
    assert res.returncode == 0
    assert f"wrote {out} (6 rows, 0 warnings)" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    row = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert float(row["scale"]) == 1.0
    assert float(row["r0"]) == pytest.approx(2.0, abs=1e-8)
    assert float(row["endemic_norm"]) == pytest.approx(0.375, abs=1e-9)
