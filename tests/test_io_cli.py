from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import netsirs.cli
import netsirs.io
import netsirs.equilibrium
import netsirs.stability
import netsirs.sweep
import oracles
from netsirs import (
    INCONCLUSIVE,
    STABLE,
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
    lyapunov_value,
    reproduction_number,
    run_sweep,
    sample_initial_states,
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
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

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


def _child_env(**extra) -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, so a child
    process imports the netsirs under test, installed or not."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _cli(*argv):
    # numpy warnings fail the command as they fail in-process tests
    return subprocess.run(
        [sys.executable, "-m", "netsirs.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(PYTHONWARNINGS="error::RuntimeWarning"),
    )


def test_model_round_trip(tmp_path, ref5):
    path = tmp_path / "m.json"
    helpers.save_model(ref5, str(path))
    loaded = load_model(str(path))
    assert loaded.name == "ref5"
    assert np.array_equal(loaded.W, ref5.W)
    assert np.array_equal(loaded.gamma, ref5.gamma)
    assert np.array_equal(loaded.delta, ref5.delta)


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


@pytest.mark.parametrize("n, count, seed", [(5, 8, 0), (1, 50, 3), (200, 7, 9)])
def test_sample_initial_states_is_one_draw_of_the_per_start_draws(n, count, seed):
    """One (count, n, 2) draw gives the starts that count successive
    (n, 2) draws, each sorted and redrawn while its y0 is all zero, gave
    before, bit for bit, and so the same --random CSV bytes."""
    rng = np.random.default_rng(seed)
    per_start = []
    while len(per_start) < count:
        u = np.sort(rng.random((n, 2)), axis=1)
        if np.any(u[:, 1] - u[:, 0] > 0.0):
            per_start.append((u[:, 1] - u[:, 0], 1.0 - u[:, 1]))
    draws = sample_initial_states(n, count, np.random.default_rng(seed))
    assert len(draws) == count
    for (y0, z0), (y1, z1) in zip(draws, per_start):
        assert y0.tobytes() == y1.tobytes() and z0.tobytes() == z1.tobytes()


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


# a NaN whose payload differs from np.nan's: the same "nan" text, other bytes
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
_CELLS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1e300,
                          np.inf, -np.inf, np.nan, _NAN_PAYLOAD]) | st.floats()
# the rows of a trailing run: none, a few, or around one and two chunk boundaries
_CHUNK = netsirs.io.CSV_CHUNK_ROWS
_RUN_ROWS = st.integers(0, 4) | st.integers(_CHUNK - 3, _CHUNK + 3) \
    | st.integers(2 * _CHUNK - 3, 2 * _CHUNK + 3)


@st.composite
def _tables(draw):
    """A table of 1-6 columns: a few drawn rows, then a run of copies of
    one drawn [y z x] row, one cell of which may hold the other zero or
    the other NaN in one row of the run, so that the run breaks there."""
    cols = draw(st.integers(1, 6))
    row = st.lists(_CELLS, min_size=cols - 1, max_size=cols - 1)
    head = draw(st.lists(row, max_size=4))
    run = draw(_RUN_ROWS)
    body = np.array(head + [draw(row)] * run, dtype=float).reshape(len(head) + run, cols - 1)
    twin = draw(st.sampled_from([None, (0.0, -0.0), (-0.0, 0.0), (np.nan, _NAN_PAYLOAD)]))
    if twin is not None and cols > 1 and run > 1:
        col = draw(st.integers(0, cols - 2))
        body[len(head):, col] = twin[0]
        body[len(head) + draw(st.integers(0, run - 2)), col] = twin[1]
    t = np.arange(body.shape[0]) * draw(st.sampled_from([0.01, 1.0, -0.5, np.nan]))
    return np.column_stack((t, body))


@settings(deadline=None, max_examples=200)
@given(_tables())
def test_write_table_matches_plain_csv(table):
    """The trailing run of rows equal to the last row after column 0 is
    formatted once; the file has the bytes of formatting every cell, for
    0- and 1-row and 1-column tables, -0.0 or another NaN inside the run,
    and runs across the chunk boundary."""
    header = ",".join(f"c{k}" for k in range(table.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        fast, plain = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "plain.csv")
        netsirs.io._write_table(fast, header, table)
        oracles.csv_plain(plain, header, table)
        with open(fast, "rb") as a, open(plain, "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("every", [1, 7])
def test_settled_trajectory_csv_with_lyapunov_matches_plain_csv(tmp_path, every):
    """A five_node run to t = 100 settles near t = 56, so about 45% of its
    rows, V included, are the last row's; the CSV is still the plain one."""
    model = load_model(FIVE_NODE)
    traj = simulate(model, np.array(_GOLDEN_INIT["y0"]), np.array(_GOLDEN_INIT["z0"]),
                    IntegratorConfig(dt=0.01, t_end=100.0, record_every=every))
    V = lyapunov_value(model, traj.y, reproduction_number(model)[1])
    table = np.column_stack((traj.table, V))
    settled = table[-len(table) // 3:, 1:]
    assert np.array_equal(settled, np.broadcast_to(table[-1, 1:], settled.shape))
    fast, plain = tmp_path / "fast.csv", tmp_path / "plain.csv"
    write_trajectory_csv(traj, str(fast), lyapunov=V)
    oracles.csv_plain(str(plain), trajectory_header(model.n, True), table)
    assert fast.read_bytes() == plain.read_bytes()


def test_sweep_rows_match_closed_form(tmp_path):
    m = helpers.out_regular(n=3, row_sum=2.0, gamma=1.0, delta=3.0)
    rows, failures = run_sweep(m, 0.25, 1.5, 6)
    # the row at s = 0.5 has R0 = 1 exactly: a near-threshold warning, not a failure
    assert failures == 1
    assert all(row.error is None for row in rows)
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
            endemic = spectral_abscissa(jacobian_endemic(ref, solved.y_star))
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


_STALL = "NoConvergenceError: equilibrium bracket stalled 2.776e-17 wide, above tol = 1.000e-17"


def test_sweep_row_keeps_the_stall_reason():
    # at tol 1e-17 the five_node bracket stalls at the rounding floor
    rows, failures = run_sweep(load_model(FIVE_NODE), 1.0, 1.0, 1, tol=1e-17)
    (row,) = rows
    assert failures == 1 and row.scale == 1.0
    assert np.all(np.isnan([row.r0, row.endemic_norm, row.dfe_abscissa, row.endemic_abscissa]))
    assert row.error.startswith(_STALL)


def test_sweep_warns_where_the_dense_endemic_abscissa_is_not_negative():
    """At scale 1e300 the five_node endemic abscissa comes out +9.1e282,
    inside the eigensolve's rounding (||J|| eps ~ 1e284). The certificate
    calls that route failed, so the sweep counts the row as a warning and
    writes it as computed."""
    model = load_model(FIVE_NODE)
    rows, warnings = run_sweep(model, 1e300, 1e300, 1)
    (row,) = rows
    assert warnings == 1 and row.error is None
    assert row.endemic_abscissa > 0.0
    scaled = validate_model(1e300 * model.W, model.gamma, model.delta)
    cert = endemic_certificate(scaled, solve_endemic(scaled).y_star)
    assert cert.reason == "dense abscissa >= 0"


@pytest.mark.parametrize("command", ["equilibrium", "stability"])
def test_cli_stalled_bracket_exits_two_at_once(capsys, command):
    """At --tol 1e-17 the five_node bracket rows swap one component
    between two floats an ulp apart from about iteration 24 on. The run
    stops when that state recurs, in well under a second, where it used
    to run all PHI_MAX_ITER iterations (about 100 s)."""
    start = time.perf_counter()
    assert netsirs.cli.main([command, "--model", FIVE_NODE, "--tol", "1e-17"]) == 2
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {_STALL}, after ")


def test_cli_r0_stalled_bracket_exits_two_at_once(capsys):
    """At --tol 1e-17 and 1e-16, below the rounding floor, the five_node
    Perron bracket stalls 2.0e-16 wide relative to R0 and its state
    recurs, so r0 exits 2 with one line naming the width and tol before
    the 50-solve cap. The shift floor (n + 1) eps s keeps every solve
    nonsingular and positive at such a tol."""
    for tol in ("1e-17", "1e-16"):
        start = time.perf_counter()
        assert netsirs.cli.main(["r0", "--model", FIVE_NODE, "--tol", tol]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert captured.err == line + "\n"
        match = re.fullmatch(r"error: NoConvergenceError: Perron bracket \[\S+, \S+\] stalled \S+ "
                             rf"wide, above tol = {float(tol):.3e}, after (\d+) solves: its "
                             r"state repeats at the rounding floor", line)
        assert match and int(match[1]) < 50


def test_cli_names_a_short_rate_vector(tmp_path, capsys):
    # validate_model alone judges the rate vectors once W fits n
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "W": [[0, 1], [1, 0]], "gamma": [1], "delta": [1, 1]}))
    assert netsirs.cli.main(["r0", "--model", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: DimensionMismatchError: rate vectors must have shape (2,), got (1,) and (2,)\n")


# sha256 of `netsirs sweep` CSVs on five_node, re-recorded when
# solve_endemic began to take Newton-Fourier steps to the end once Phi is
# slow. Only endemic_norm moved, by one in the 12th digit, at scale 0.15
# of the first grid and 0.125 of the second; y* moved at those scales and
# at 0.2 and 0.1875, and at each it lies within its bracket_gap of the
# 60-digit root (oracles.endemic_mpmath)
_SWEEP_GOLDEN = {
    "supercritical": (["0.05", "1.5", "30"], "30 rows, 0 warnings",
                      "42ad06799311cbfd224da1d0c524471bc57de3720d4f991a8397473ff72ea7f7"),
    "with_failures": (["-0.5", "2.0", "41"], "41 rows, 9 warnings",
                      "db063d033dfff3b64165395170f1b3aea945aab5653f7d0b2de3d6d145503977"),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_GOLDEN))
def test_cli_sweep_csv_bytes_are_pinned(tmp_path, capsys, name):
    (lo, hi, steps), summary, digest = _SWEEP_GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert netsirs.cli.main(["sweep", "--model", FIVE_NODE, "--scale-min", lo, "--scale-max", hi,
                             "--steps", steps, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({summary})\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# five_node with W scaled to R0 = 0.5, the no-endemic case; the factor is
# 0.5 / R0 rounded to 10 digits, so the file does not depend on an R0 solve
_SUBCRITICAL_SCALE = 0.05718634341

# sha256 of the stdout and the --out JSON of the analysis commands. The
# five_node equilibrium and stability pins were re-recorded when the
# equilibrium bracket began to start from the two rows on the Perron ray:
# y*, z*, x* and the endemic abscissa and disk margins moved in their last
# digits, with y* and x* within 3.0e-13 and 1.8e-13 relative of a
# 60-digit root (4.6e-13 and 2.9e-13 before). The stability pin was
# re-recorded again when the Jacobian and the disk margins began to take
# x* = gamma y* / (W y*): the abscissa went from -0.5862277906181773 to
# -0.5862277906182263, 8.8e-15 off the 60-digit one (5.8e-14 before), and
# the margins moved by at most 1.5e-12 relative, to within 4.2e-13
# relative of the 60-digit margins (1.7e-12 before).
# equilibrium stdout leaves out its "wrote <path>" line, the one line that
# names the path; r0 and stability write no other path.
_ANALYSIS_GOLDEN = {
    ("five_node", "r0"): (
        "af7746b2631f78126e0ead223bdffedec6420403207f94f0327fddc841712ada", None),
    ("five_node", "equilibrium"): (
        "a6b8f4c15408ca552bbe277632b5afa62cdb31a84653ea52b46de7875768e354",
        "5e26fafb29d62afdc907b18e65cb04105a4e993dcd87af565244e4a7155e297c"),
    ("five_node", "stability"): (
        "503a9e96d07fd386373d59c8bd06ba9a1cc387b326776552e11a00305c8e12b3",
        "503a9e96d07fd386373d59c8bd06ba9a1cc387b326776552e11a00305c8e12b3"),
    ("subcritical", "r0"): (
        "17b27b7d5017e1d691978be65ca9853027e24a09652c9a11f4b4eafeb1fa4ab3", None),
    ("subcritical", "equilibrium"): (
        "b5227d675e51f54bc17fd5c19ec11f56b27279255cb3572a2fa74d076bb57c18",
        "5d885606b77be065ddfba5082d993578f2c2c2ef27474c81d99bbdc022bd8a9c"),
    ("subcritical", "stability"): (
        "d6caa09d627abe8067cc75caaa22e53d0d58005b65fab1c1ab530e308cdab854",
        "d6caa09d627abe8067cc75caaa22e53d0d58005b65fab1c1ab530e308cdab854"),
}


def _analysis_model(tmp_path, name: str) -> str:
    if name == "five_node":
        return FIVE_NODE
    with open(FIVE_NODE) as fh:
        data = json.load(fh)
    data["W"] = [[_SUBCRITICAL_SCALE * v for v in row] for row in data["W"]]
    path = tmp_path / "five_node_subcritical.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name,command", sorted(_ANALYSIS_GOLDEN))
def test_cli_analysis_bytes_are_pinned(tmp_path, capsys, name, command):
    stdout_digest, json_digest = _ANALYSIS_GOLDEN[name, command]
    argv = [command, "--model", _analysis_model(tmp_path, name)]
    out = tmp_path / f"{command}.json"
    if json_digest is not None:
        argv += ["--out", str(out)]
    assert netsirs.cli.main(argv) == 0
    text = capsys.readouterr().out
    if command == "equilibrium":
        text = text.removesuffix(f"wrote {out}\n")
    assert hashlib.sha256(text.encode()).hexdigest() == stdout_digest
    if json_digest is not None:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest


def test_sweep_takes_one_dense_eigensolve_per_supercritical_row(monkeypatch):
    # the DFE abscissa comes from the Perron bracket; only the endemic
    # Jacobian of a supercritical row goes through a dense eigensolve
    counted = _counting(spectral_abscissa)
    eigvals = _counting(np.linalg.eigvals)
    monkeypatch.setattr(netsirs.stability, "spectral_abscissa", counted)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    rows, failures = run_sweep(helpers.ref5(), -0.25, 1.0, 21)
    supercritical = sum(row.endemic_norm > 0.0 for row in rows)
    assert failures == 5
    assert 0 < supercritical < len(rows) - failures
    assert counted.calls == eigvals.calls == supercritical


@pytest.mark.parametrize("grid", [(0.05, 1.5, 30), (-0.5, 2.0, 41), (1e300, 1e307, 2)])
def test_sweep_warns_where_stability_gives_no_verdict(tmp_path, capsys, grid):
    """A sweep row warns exactly when stability on the model rescaled to
    that row is not decisive: it fails, its DFE verdict is Inconclusive
    (near threshold) or its endemic verdict is not Stable. stability
    exits non-zero on every model whose row failed."""
    model = load_model(FIVE_NODE)
    rows, warnings = run_sweep(model, *grid)
    undecided = 0
    for row in rows:
        path, out = tmp_path / "model.json", tmp_path / "stability.json"
        with np.errstate(over="ignore"):
            W = row.scale * model.W
        path.write_text(json.dumps({"n": model.n, "W": W.tolist(), "gamma": model.gamma.tolist(),
                                    "delta": model.delta.tolist()}))
        out.unlink(missing_ok=True)
        code = netsirs.cli.main(["stability", "--model", str(path), "--out", str(out)])
        capsys.readouterr()
        if row.error is not None:
            assert code != 0, row
            undecided += 1
            continue
        assert code == 0, row
        report = json.loads(out.read_text())
        endemic = report["endemic"] or {}
        undecided += report["dfe"]["verdict"] == INCONCLUSIVE
        undecided += endemic.get("verdict", STABLE) != STABLE
    assert warnings == undecided


@pytest.mark.parametrize("row_sum, calls", [(0.8, 0), (2.0, 1)])
def test_cli_stability_takes_one_dense_eigensolve_per_endemic_model(
        tmp_path, monkeypatch, capsys, row_sum, calls):
    path = tmp_path / "model.json"
    helpers.save_model(helpers.out_regular(n=3, row_sum=row_sum), str(path))
    counted = _counting(spectral_abscissa)
    eigvals = _counting(np.linalg.eigvals)
    monkeypatch.setattr(netsirs.stability, "spectral_abscissa", counted)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    assert netsirs.cli.main(["stability", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["endemic"] is not None) == (calls == 1)
    assert counted.calls == eigvals.calls == calls


def test_cli_stability_threshold_dfe_is_inconclusive(tmp_path, capsys):
    # R0 = 1 exactly lies in the threshold band, and the DFE bracket
    # closes at [0, 0]
    path = tmp_path / "threshold.json"
    helpers.save_model(helpers.out_regular(n=2, row_sum=1.0), str(path))
    assert netsirs.cli.main(["stability", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dfe"] == {"abscissa": 0.0, "verdict": "Inconclusive",
                             "reason": "near threshold"}


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


@pytest.mark.parametrize("command, functions", [
    ("r0", [reproduction_number]),
    ("equilibrium", [solve_endemic]),
    ("stability", [solve_endemic, endemic_certificate]),
    ("sweep", [run_sweep]),
])
def test_cli_tol_defaults_to_the_library_default(command, functions):
    argv = [command, "--model", FIVE_NODE, *_SUBCOMMAND_ARGS[command]]
    if command == "sweep":
        argv += ["--out", "sweep.csv"]
    tol = netsirs.cli.build_parser().parse_args(argv).tol
    for function in functions:
        assert tol == inspect.signature(function).parameters["tol"].default


def _single_population(tmp_path, w: float) -> str:
    path = tmp_path / f"single_{w}.json"
    path.write_text(json.dumps({"n": 1, "W": [[w]], "gamma": [0.5], "delta": [0.25]}))
    return str(path)


def test_cli_single_population_through_every_command(tmp_path, capsys):
    """The homogeneous SIRS model: R0 = W / gamma = 4, alpha = 2,
    y* = (1 - 1/R0) / (1 + alpha), z* = alpha y* and x* = 1 / R0. The
    endemic Jacobian is 2x2 with eigenvalues of real part -0.375."""
    model = _single_population(tmp_path, 2.0)
    y, z, x = 0.25, 0.5, 0.25
    assert netsirs.cli.main(["r0", "--model", model]) == 0
    assert capsys.readouterr().out.startswith("R0 = 4.000000\n")

    report = tmp_path / "equilibrium.json"
    assert netsirs.cli.main(["equilibrium", "--model", model, "--out", str(report)]) == 0
    capsys.readouterr()
    point = json.loads(report.read_text())
    for key, value in (("y_star", y), ("z_star", z), ("x_star", x)):
        assert point[key] == [pytest.approx(value, abs=1e-12)]

    assert netsirs.cli.main(["stability", "--model", model]) == 0
    stability = json.loads(capsys.readouterr().out)
    assert stability["dfe"]["verdict"] == "Unstable"
    assert stability["endemic"]["verdict"] == "Stable"
    assert stability["endemic"]["abscissa"] == pytest.approx(-0.375, abs=1e-12)

    sweep = tmp_path / "sweep.csv"
    assert netsirs.cli.main(["sweep", "--model", model, "--scale-min", "0", "--scale-max", "1",
                             "--steps", "5", "--out", str(sweep)]) == 0
    assert capsys.readouterr().out == f"wrote {sweep} (5 rows, 2 warnings)\n"

    run = tmp_path / "run.csv"
    assert netsirs.cli.main(["simulate", "--model", model, "--random", "1", "--t-end", "200",
                             "--out", str(run)]) == 0
    capsys.readouterr()
    t_end, y_end, z_end, x_end = map(float, run.read_text().splitlines()[-1].split(","))
    assert t_end == 200.0
    assert abs(y_end - y) < 1e-6 and abs(z_end - z) < 1e-6 and abs(x_end - x) < 1e-6


@pytest.mark.parametrize("command", sorted([*_SUBCOMMAND_ARGS, "simulate"]))
def test_cli_single_population_without_self_loop_is_reducible(tmp_path, capsys, command):
    extra = {**_SUBCOMMAND_ARGS, "simulate": ["--random", "1"]}[command]
    argv = [command, "--model", _single_population(tmp_path, 0.0), *extra]
    if command in ("simulate", "sweep"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert netsirs.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ReducibleError: ")


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_library_rejects_bad_tol(tol):
    m = helpers.ref5()
    y = solve_endemic(m).y_star
    calls = [
        lambda: reproduction_number(m, tol=tol),
        lambda: solve_endemic(m, tol=tol),
        lambda: iterate_phi(y, m.M, m.alpha, tol=tol),
        lambda: jacobian_endemic(m, y, tol=tol),
        lambda: endemic_certificate(m, y, tol=tol),
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
    "sweep steps 0": (["sweep", "--model", FIVE_NODE, "--scale-min", "0.5", "--scale-max", "1.5",
                       "--steps", "0"], "ModelInputError: steps must be at least 1, got 0"),
    "simulate init and random": (["simulate", "--model", FIVE_NODE, "--init", "init.json",
                                  "--random", "2"],
                                 "ModelInputError: pass exactly one of --init PATH or --random K"),
    "simulate no start": (["simulate", "--model", FIVE_NODE],
                          "ModelInputError: pass exactly one of --init PATH or --random K"),
    "stability seed": (["stability", "--model", FIVE_NODE, "--seed", "0"],
                       "ModelInputError: unrecognized arguments: --seed 0"),
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


@pytest.mark.parametrize("command", ["equilibrium", "stability"])
def test_cli_unwritable_out_leaves_stdout_empty(tmp_path, capsys, command):
    """The report file is written before stdout, so a failed --out exits 1
    with its one error line and prints nothing of the report."""
    out = tmp_path / "missing" / "report.json"
    assert netsirs.cli.main([command, "--model", FIVE_NODE, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_reads_negative_float_as_value(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    argv = ["sweep", "--model", FIVE_NODE, "--scale-max", "1.5", "--steps", "4"]
    assert netsirs.cli.main([*argv, "--scale-min", "-1e-3", "--out", str(spaced)]) == 0
    assert netsirs.cli.main([*argv, "--scale-min=-1e-3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


_SIMULATE_FLAG_ERRORS = [
    (["--random", "2", "--seed", "-5"], "--seed must be at least 0, got -5"),
    (["--random", "-1"], "--random must be at least 1, got -1"),
    (["--random", "0"], "--random must be at least 1, got 0"),
    (["--random", "0", "--init", FIVE_NODE], "--random must be at least 1, got 0"),
    (["--random", "2", "--init", FIVE_NODE], "pass exactly one of --init PATH or --random K"),
    ([], "pass exactly one of --init PATH or --random K"),
    (["--random", "2", "--record-every", "0"], "record_every must be a positive integer, got 0"),
    (["--random", "2", "--dt", "0.06", "--t-end", "0.1"],
     "t_end = 0.1 is not a whole number of steps of dt = 0.06 (t_end / dt = 1.66666666667)"),
    (["--init", "missing.json", "--dt", "-1"], "dt must be positive and finite"),
]


def test_cli_rejects_negative_seed_before_any_work(tmp_path, capsys, monkeypatch):
    # simulate judges each of its flags before it reads the model
    loads = _counting(load_model)
    monkeypatch.setattr(netsirs.cli, "load_model", loads)
    out = tmp_path / "out"
    for flags, message in _SIMULATE_FLAG_ERRORS:
        assert netsirs.cli.main(["simulate", "--model", FIVE_NODE, *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ModelInputError: {message}\n"
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
    assert capsys.readouterr().err == "error: ModelInputError: --random must be at least 1, got -3\n"
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
    helpers.save_model(m, str(path))
    init = tmp_path / "init.json"
    init.write_text(json.dumps({"y0": [0.3, 0.2, 0.1], "z0": [0.0, 0.0, 0.0]}))
    res = _cli("simulate", "--model", str(path), "--init", str(init),
               "--dt", "1.0", "--t-end", "10", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "SimplexViolationError" in res.stderr


_OVERFLOWS = {
    # W ~ 1e150: a stage overflows inside the first step
    "simulate at W x 1e150": (
        ["simulate", "--random", "1", "--t-end", "1"], 1e150, 2, "",
        "error: SimplexViolationError: state left the simplex at t = 0.01; reduce dt\n"),
    # scale * W overflows to inf on two rows, which validate_model rejects
    "sweep to 1e308": (["sweep", "--scale-min", "0", "--scale-max", "1e308", "--steps", "3"],
                       1.0, 0, "wrote {out} (3 rows, 3 warnings)\n", ""),
    # B x overflows in the Perron bracket of the DFE abscissa at 1e307; at
    # 1e300 the dense endemic abscissa is not negative
    "sweep to 1e307": (["sweep", "--scale-min", "1e300", "--scale-max", "1e307", "--steps", "2"],
                       1.0, 0, "wrote {out} (2 rows, 2 warnings)\n", ""),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_cli_overflow_leaves_only_its_error_line(tmp_path, capsys, case):
    """An overflow the library turns into a named error or a failed row
    reaches stderr only as that error's one line, with no numpy warning,
    also under the RuntimeWarning-as-error filter of pyproject.toml."""
    argv, factor, code, stdout, stderr = _OVERFLOWS[case]
    model = load_model(FIVE_NODE)
    path, out = tmp_path / "model.json", tmp_path / "out.csv"
    helpers.save_model(validate_model(factor * model.W, model.gamma, model.delta), path)
    assert netsirs.cli.main([*argv, "--model", str(path), "--out", str(out)]) == code
    assert capsys.readouterr() == (stdout.format(out=out), stderr)


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
y_star: [0.219530706149, 0.16224723877, 0.151089519968, 0.0711378354945, 0.275027575721]
z_star: [0.731769020495, 0.405618096926, 0.755447599842, 0.711378354945, 0.458379292868]
x_star: [0.0487002733561, 0.432134664304, 0.0934628801899, 0.21748380956, 0.266593131412]
iterations: 16
residual: 2.481e-13
bracket_gap: 1.582e-13
wrote {out}
"""

_REF5_EQUILIBRIUM_JSON = """\
{
  "r0": 8.74334622841763,
  "y_star": [
    0.21953070614858528,
    0.16224723877022468,
    0.15108951996834502,
    0.07113783549453083,
    0.27502757572059744
  ],
  "z_star": [
    0.7317690204952843,
    0.4056180969255617,
    0.7554475998417252,
    0.7113783549453083,
    0.45837929286766244
  ],
  "x_star": [
    0.048700273356098854,
    0.4321346643039655,
    0.09346288018988289,
    0.2174838095600781,
    0.2665931314116557
  ],
  "iterations": 16,
  "residual": 2.480509680639799e-13,
  "bracket_gap": 1.5823453658470044e-13
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


def _equilibrium_agreement_models(tmp_path) -> list[str]:
    """The log-uniform family at d = 4, then five_node rescaled to R0 =
    0.5 (below the threshold) and to 1 + 1e-10 and 1 + 1e-6 (near it, on
    either side of R0_TOL)."""
    models = [validate_model(*draw) for draw in helpers.log_uniform_family(4)]
    five_node = load_model(FIVE_NODE)
    r0, _ = reproduction_number(five_node)
    models += [validate_model(five_node.W * (target / r0), five_node.gamma, five_node.delta)
               for target in (0.5, 1.0 + 1e-10, 1.0 + 1e-6)]
    paths = [str(tmp_path / f"model_{index:02d}.json") for index in range(len(models))]
    for model, path in zip(models, paths):
        helpers.save_model(model, path)
    return paths


def test_cli_equilibrium_stdout_and_json_agree(tmp_path, capsys):
    """equilibrium's stdout states its --out JSON: after R0 = %.6f, one
    key: value line per JSON key after r0, in order, each value formatted
    as README.md states; NoEndemic models print the one NoEndemic line."""
    out = tmp_path / "eq.json"
    branches = set()
    for path in _equilibrium_agreement_models(tmp_path):
        assert netsirs.cli.main(["equilibrium", "--model", path, "--out", str(out)]) == 0
        *lines, wrote = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote {out}"
        data = json.loads(out.read_text())
        if data.get("no_endemic"):
            branches.add("near" if data["near_threshold"] else "below")
            assert list(data) == ["r0", "no_endemic", "near_threshold"]
            tail = " [near threshold]" if data["near_threshold"] else ""
            assert lines == [f"NoEndemic (R0 = {data['r0']:.6f}){tail}"]
            continue
        branches.add("endemic")
        expected = [f"R0 = {data.pop('r0'):.6f}"]
        for key, value in data.items():
            if isinstance(value, list):
                value = "[" + ", ".join(format(v, ".12g") for v in value) + "]"
            elif isinstance(value, float):
                value = format(value, ".3e")
            expected.append(f"{key}: {value}")
        assert lines == expected
        assert list(data) == ["y_star", "z_star", "x_star", "iterations", "residual",
                              "bracket_gap"]
    assert branches == {"endemic", "below", "near"}


def test_cli_equilibrium_subcritical(tmp_path):
    sub = helpers.out_regular(n=3, row_sum=0.8)
    path = tmp_path / "sub.json"
    helpers.save_model(sub, str(path))
    res = _cli("equilibrium", "--model", str(path))
    assert res.returncode == 0
    assert "NoEndemic (R0 = 0.800000)" in res.stdout


def test_cli_equilibrium_near_threshold(tmp_path, capsys):
    # five_node rescaled to R0 = 1 + 1e-6 used to exit 2 with NoConvergenceError
    model = load_model(FIVE_NODE)
    r0, _ = reproduction_number(model)
    path = tmp_path / "near.json"
    helpers.save_model(validate_model(model.W * ((1.0 + 1e-6) / r0), model.gamma, model.delta), str(path))
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
# (largest |V - V_exact| 8.1e-13 before, 6.2e-13 after). "settled" and
# "random_settled" were recorded from the loop that integrated every step,
# and run past the step where each start settles (the golden init at
# t = 55.84, the two random starts at about 56.2 and 55.2), so they pin the
# rows that simulate fills without integrating.
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
    "settled": (
        ["--init", "{init}", "--t-end", "100", "--record-every", "1"],
        ["6b5b7944b6649896e9c50d4323a69f044ba2fc90753896aff971437b223709f7"],
    ),
    "random_settled": (
        ["--random", "2", "--seed", "9", "--t-end", "120", "--record-every", "7", "--lyapunov"],
        ["ac3007655234546e1076a82429d4f32b6a8ed608c986520a687f77fdb38f8de3",
         "55b0091c73c5ea408428230ad1eaf61da8ea863a73642f3a0cc08a3005eeef10"],
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
    helpers.save_model(sub, str(path))
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


@pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
def test_run_sweep_rejects_a_steps_that_is_not_an_integer(monkeypatch, steps):
    # judged as IntegratorConfig judges record_every, before the Perron solve
    solves = _counting(reproduction_number)
    monkeypatch.setattr(netsirs.sweep, "reproduction_number", solves)
    model = load_model(FIVE_NODE)
    with pytest.raises(ModelInputError, match="^steps must be an integer, got "):
        run_sweep(model, 0.5, 1.5, steps)
    assert solves.calls == 0
    assert len(run_sweep(model, 0.5, 1.5, np.int64(2))[0]) == 2


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


def test_cli_names_a_boolean_in_a_three_dimensional_w(tmp_path, capsys):
    # the scan covers every entry at any depth, so the boolean is named
    # before the shape of W is judged
    path = _write_ref5(tmp_path / "model.json", W=[[[1.0, True]]])
    assert netsirs.cli.main(["r0", "--model", path]) == 1
    assert capsys.readouterr().err == (
        f"error: ModelInputError: model file {path} field 'W' must hold JSON numbers only, "
        "got a boolean entry\n")


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


# at c = 1e9 and 1e12 eta = min delta is large, and the boundary shift of
# the disk samples, inset by 1e-6 max(1, eta), stays clear of -delta_i
@pytest.mark.parametrize("c", [365.0, 1e3, 1e4, 1e9, 1e12])
def test_cli_stability_verdicts_do_not_depend_on_the_time_unit(tmp_path, capsys, c):
    assert netsirs.cli.main(["stability", "--model", FIVE_NODE]) == 0
    base = json.loads(capsys.readouterr().out)
    assert netsirs.cli.main(["stability", "--model", _five_node_in_time_unit(tmp_path, c)]) == 0
    scaled = json.loads(capsys.readouterr().out)
    assert scaled["dfe"]["verdict"] == base["dfe"]["verdict"] == "Unstable"
    assert scaled["endemic"]["verdict"] == base["endemic"]["verdict"] == "Stable"
    assert scaled["endemic"]["eta"] == pytest.approx(c * base["endemic"]["eta"], rel=1e-9)
    for abscissa in (lambda r: r["dfe"]["abscissa"], lambda r: r["endemic"]["abscissa"]):
        assert abscissa(scaled) == pytest.approx(c * abscissa(base), rel=1e-9)
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
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n"


def test_cli_sweep(tmp_path):
    m = helpers.out_regular(n=3, row_sum=2.0, gamma=1.0, delta=3.0)
    path = tmp_path / "reg.json"
    helpers.save_model(m, str(path))
    out = tmp_path / "sweep.csv"
    res = _cli("sweep", "--model", str(path), "--scale-min", "0.25",
               "--scale-max", "1.5", "--steps", "6", "--out", str(out))
    assert res.returncode == 0
    # the row at s = 0.5 has R0 = 1 exactly and counts as a near-threshold warning
    assert f"wrote {out} (6 rows, 1 warnings)" in res.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    row = dict(zip(lines[0].split(","), lines[4].split(",")))
    assert float(row["scale"]) == 1.0
    assert float(row["r0"]) == pytest.approx(2.0, abs=1e-8)
    assert float(row["endemic_norm"]) == pytest.approx(0.375, abs=1e-9)


# JSON trees: nested lists and objects over null, booleans, integers up
# to 1e30, floats (NaN and infinities included) and short strings
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=30,
)
# the shape each field must have; "name" must be a string or null, "n" the
# number 5
_FIELD_SHAPES = {"W": (5, 5), "gamma": (5,), "delta": (5,), "y0": (5,), "z0": (5,)}


def _fits(tree, field: str) -> bool:
    """Whether tree has the type and shape that field needs, so that only
    its values can make the run fail."""
    if field == "name":
        return tree is None or isinstance(tree, str)
    if field == "n":
        return not isinstance(tree, bool) and isinstance(tree, (int, float)) and tree == 5

    def fits(node, shape):
        if not shape:
            return not isinstance(node, bool) and isinstance(node, (int, float))
        return (isinstance(node, list) and len(node) == shape[0]
                and all(fits(item, shape[1:]) for item in node))

    return fits(tree, _FIELD_SHAPES[field])


def _run_fuzzed(argv: list[str]) -> int:
    """main on argv, output captured; an exception escaping main fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = netsirs.cli.main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and err.getvalue().endswith("\n")
    return code


def _fuzz_both_files(model: object, initial: object) -> tuple[int, int]:
    """Exit codes of `r0 --model` on model and of a short `simulate
    --init` run on model and initial, written as JSON files."""
    with tempfile.TemporaryDirectory() as tmp:
        model_path, init_path = os.path.join(tmp, "model.json"), os.path.join(tmp, "init.json")
        with open(model_path, "w") as fh:
            json.dump(model, fh)
        with open(init_path, "w") as fh:
            json.dump(initial, fh)
        r0_code = _run_fuzzed(["r0", "--model", model_path])
        sim_code = _run_fuzzed(["simulate", "--model", model_path, "--init", init_path,
                                "--t-end", "0.1", "--out", os.path.join(tmp, "run.csv")])
    return r0_code, sim_code


@settings(deadline=None, max_examples=150)
@given(_JSON_TREES, st.booleans())
def test_cli_survives_fuzzed_json_files(tree, as_model):
    """A whole JSON tree as the model or the initial-condition file never
    gets past the loaders."""
    with open(FIVE_NODE) as fh:
        model = json.load(fh)
    r0_code, sim_code = _fuzz_both_files(tree, _GOLDEN_INIT) if as_model else \
        _fuzz_both_files(model, tree)
    if as_model:
        assert r0_code == sim_code == 1
    else:
        assert r0_code == 0
        may_run = isinstance(tree, dict) and {"y0", "z0"} <= tree.keys()
        assert sim_code == 1 or may_run


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["n", "W", "gamma", "delta", "name", "y0", "z0"]), _JSON_TREES)
def test_cli_survives_fuzzed_json_fields(field, tree):
    """A JSON tree as one field of an otherwise valid five_node model or
    initial-condition file; a wrong type or shape exits 1."""
    with open(FIVE_NODE) as fh:
        model = json.load(fh)
    initial = dict(_GOLDEN_INIT)
    (initial if field in ("y0", "z0") else model)[field] = tree
    r0_code, sim_code = _fuzz_both_files(model, initial)
    if not _fits(tree, field):
        assert sim_code == 1
        assert r0_code == (0 if field in ("y0", "z0") else 1)
