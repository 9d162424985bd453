"""The paper's threshold theorem as properties of the command outputs.

Below R0 = 1 the infection-free state is stable and there is no endemic
state; above it the infection-free state is unstable and the unique
endemic equilibrium is asymptotically stable. The computed r0 - 1 puts a
model in one of three states, below, near (|r0 - 1| <= R0_TOL) or above,
and r0, equilibrium, stability and a one-row sweep must report the same
one. A command may fail, but only with exit 2 and its reason, never with
a verdict the theorem rules out or a NaN under exit 0.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
import netsirs
import oracles
from netsirs import (
    INCONCLUSIVE,
    R0_TOL,
    STABLE,
    UNSTABLE,
    NumericalError,
    dfe_abscissa,
    endemic_certificate,
    load_model,
    reproduction_number,
    run_sweep,
    solve_endemic,
    validate_model,
)
from netsirs.cli import main

FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")
NEAR = {"no_endemic": True, "near_threshold": True}


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _state(r0: float) -> str:
    excess = r0 - 1.0
    return "below" if excess < -R0_TOL else "near" if excess <= R0_TOL else "above"


def _finite(tree) -> bool:
    if isinstance(tree, dict):
        return all(_finite(v) for v in tree.values())
    if isinstance(tree, list):
        return all(_finite(v) for v in tree)
    return not isinstance(tree, float) or math.isfinite(tree)


def _states(path: str, tmp) -> tuple[dict[str, tuple[str, float]], list[str], str | None]:
    """Run r0, equilibrium, stability and a one-row sweep on the model file
    at path. Assert that every failure exits 2 with one error line naming
    a numerical error, and that every output of exit 0 is finite where its
    format allows and matches the theorem. Returns, for each command that
    exited 0 other than r0, the state it reports and the R0 it names, the
    commands that failed, and the endemic verdict stability wrote, or None
    where it wrote none."""
    eq_json, csv = tmp / "equilibrium.json", tmp / "sweep.csv"
    runs = {
        "r0": _run("r0", "--model", path),
        "equilibrium": _run("equilibrium", "--model", path, "--out", str(eq_json)),
        "stability": _run("stability", "--model", path),
        "sweep": _run("sweep", "--model", path, "--scale-min", "1", "--scale-max", "1",
                      "--steps", "1", "--out", str(csv)),
    }
    states = {}
    verdict = None
    failed = [name for name, (code, _, _) in runs.items() if code != 0]
    for name, (code, out, err) in runs.items():
        if code != 0:
            assert code == 2 and out == "", (name, code, out)
            failed = re.fullmatch(r"error: (\w+): .+\n", err)
            assert failed, err
            assert issubclass(getattr(netsirs, failed.group(1)), NumericalError)
            continue
        assert err == ""
        if name == "r0":
            assert "nan" not in out and "inf" not in out
            printed = out.splitlines()[0]
        elif name == "equilibrium":
            report = json.loads(eq_json.read_text())
            assert _finite(report)
            if "no_endemic" in report:
                state = "near" if report["near_threshold"] else "below"
                tail = " [near threshold]" if state == "near" else ""
                assert out == f"NoEndemic (R0 = {report['r0']:.6f}){tail}\nwrote {eq_json}\n"
            else:
                state = "above"
                assert min(report["y_star"]) > 0.0 and min(report["x_star"]) >= 0.0
            states[name] = (state, report["r0"])
        elif name == "stability":
            report = json.loads(out)
            assert _finite(report)
            dfe, endemic = report["dfe"], report["endemic"]
            # one state gives the DFE verdict and the endemic block
            if endemic is None:
                state = "below"
                assert dfe == {"abscissa": dfe["abscissa"], "verdict": STABLE}
            elif endemic == NEAR:
                state = "near"
                assert dfe == {"abscissa": dfe["abscissa"], "verdict": INCONCLUSIVE,
                               "reason": "near threshold"}
            else:
                state = "above"
                assert dfe == {"abscissa": dfe["abscissa"], "verdict": UNSTABLE}
                verdict = endemic["verdict"]
                assert verdict in (STABLE, INCONCLUSIVE)
            states[name] = (state, report["r0"])
        else:
            header, row = csv.read_text().splitlines()
            scale, r0, norm, dfe, endemic = (float(v) for v in row.split(","))
            if math.isnan(r0):
                # a failed row is NaN throughout and counted
                assert out == f"wrote {csv} (1 rows, 1 warnings)\n"
                continue
            assert math.isfinite(dfe)
            if norm > 0.0:
                assert math.isfinite(endemic) and out == f"wrote {csv} (1 rows, 0 warnings)\n"
                state = "above"
            else:
                assert norm == 0.0 and math.isnan(endemic)
                near = out == f"wrote {csv} (1 rows, 1 warnings)\n"
                assert near or out == f"wrote {csv} (1 rows, 0 warnings)\n"
                state = "near" if near else "below"
            states[name] = (state, r0)
    # every command solves the same Perron pair, so all name the same R0;
    # the sweep writes it as "%.12g"
    exact = {r0 for name, (_, r0) in states.items() if name != "sweep"}
    assert len(exact) <= 1, states
    if runs["r0"][0] == 0:
        assert all(printed == f"R0 = {r:.6f}" for r in exact)
    for name, (state, r0) in states.items():
        if name == "sweep":
            assert all(format(r, ".12g") == format(r0, ".12g") for r in exact)
        else:
            assert state == _state(r0), (name, state, r0)
    assert len({state for state, _ in states.values()}) <= 1, states
    return states, failed, verdict


@pytest.mark.parametrize("d, above, below", [(2, 37, 3), (4, 38, 2), (6, 38, 2), (10, 39, 1)])
def test_theorem_holds_on_the_log_uniform_family(tmp_path, d, above, below):
    """The 40 draws at d, with rates spanning up to 10^+-10: every command
    exits 0 on every draw, stability places the counts given above and
    below the band, and every draw above it is Stable, as the theorem
    says. At d = 10, draws 0 and 17 turned Inconclusive on the last bits
    of y* while the disk margins were formed as -Re H_kk - R_k, which
    cancels."""
    counts = collections.Counter()
    path = str(tmp_path / "model.json")
    for index, (W, gamma, delta) in enumerate(helpers.log_uniform_family(d)):
        helpers.save_model(validate_model(W, gamma, delta), path)
        states, failed, verdict = _states(path, tmp_path)
        assert failed == []
        counts[states["stability"][0]] += 1
        assert verdict == (STABLE if states["stability"][0] == "above" else None), index
    assert counts == {"above": above, "below": below}


def test_stability_closes_the_dfe_bracket_of_a_draw_spanning_decades(tmp_path):
    """Draw 12 at d = 4: its DFE bracket, measured against the scale its
    own ratios round on, closes right of 0, and stability exits 0 with the
    DFE verdict of a supercritical model."""
    path = tmp_path / "model.json"
    model = validate_model(*helpers.log_uniform_family(4)[12])
    helpers.save_model(model, str(path))
    code, out, err = _run("stability", "--model", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["r0"] > 1.0 and report["dfe"]["verdict"] == UNSTABLE
    assert helpers.dfe_side(dfe_abscissa(model)) == 1


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([(d, draw) for d in (2, 4, 6, 10) for draw in range(40)]))
@example((10, 17))
def test_r0_and_endemic_state_match_mpmath_on_the_log_uniform_family(case):
    """R0 lies within tol max(1, R0) of a 50-digit root, and above the band
    y* and x* lie within 1e-8 relative of the 50-digit equilibrium, component
    by component. Draw 17 at d = 10 (R0 = 1.0006) is ill conditioned: its
    y* lies 4.2e-12 off at a componentwise defect of 1e-12 (1.6e-9 while its
    bracket closed at Phi's linear rate)."""
    d, draw = case
    model = validate_model(*helpers.log_uniform_family(d)[draw])
    r0, spectral = reproduction_number(model)
    assert abs(r0 - oracles.r0_mpmath(model)) <= 1e-10 * max(1.0, r0)
    if r0 - 1.0 <= R0_TOL:
        return
    solved = solve_endemic(model, spectral=spectral)
    y = oracles.endemic_mpmath(model)
    # x = y / (M y) holds at the root and loses no digits in floats
    x = y / (model.M @ y)
    assert np.max(np.abs(solved.y_star / y - 1.0)) <= 1e-8
    assert np.all(solved.x_star > 0.0)
    assert np.max(np.abs(solved.x_star / x - 1.0)) <= 1e-8


def _five_node_at(r0_target: float):
    model = load_model(FIVE_NODE)
    r0, _ = reproduction_number(model)
    return validate_model(model.W * (r0_target / r0), model.gamma, model.delta)


@pytest.mark.parametrize("excess, row", [(1e-10, "1,1.0000000001,0,9.99982285125e-11,nan"),
                                         (-1e-10, "1,0.9999999999,0,-1.00001869577e-10,nan")])
def test_five_node_inside_the_band(tmp_path, excess, row):
    # one state on both sides of R0 = 1: stability writes DFE Inconclusive,
    # with its reason, beside the near marker, equilibrium prints [near
    # threshold], the sweep counts its row as a warning and writes it; the
    # DFE abscissa in it lies within 1.9e-15 of a 60-digit root of
    # s(W - [gamma])
    path = str(tmp_path / "model.json")
    helpers.save_model(_five_node_at(1.0 + excess), path)
    states, failed, _ = _states(path, tmp_path)
    assert failed == [] and set(states) == {"equilibrium", "stability", "sweep"}
    assert {state for state, _ in states.values()} == {"near"}
    report = json.loads(_run("stability", "--model", path)[1])
    assert (report["dfe"]["verdict"], report["dfe"]["reason"], report["endemic"]) == (
        INCONCLUSIVE, "near threshold", NEAR)
    assert _run("equilibrium", "--model", path)[1] == "NoEndemic (R0 = 1.000000) [near threshold]\n"
    csv = tmp_path / "sweep.csv"
    assert _run("sweep", "--model", path, "--scale-min", "1", "--scale-max", "1", "--steps", "1",
                "--out", str(csv))[1] == f"wrote {csv} (1 rows, 1 warnings)\n"
    assert csv.read_text().splitlines()[1] == row


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.none(), st.tuples(st.integers(1, 30), st.integers(0, 2**32 - 1))),
       st.floats(-13.0, -6.0), st.sampled_from([1.0, -1.0]))
def test_commands_agree_on_the_threshold_state_near_r0_one(tmp_path_factory, base, decades, sign):
    """five_node (base None) or a random strongly connected model with
    n <= 30, rescaled through W to R0 = 1 + excess."""
    excess = sign * 10.0 ** decades
    if base is None:
        model = _five_node_at(1.0 + excess)
    else:
        n, seed = base
        model = helpers.random_supercritical(np.random.default_rng(seed), n, 1.0)
        r0, _ = reproduction_number(model)
        model = validate_model(model.W * ((1.0 + excess) / r0), model.gamma, model.delta)
    tmp = tmp_path_factory.mktemp("band")
    path = str(tmp / "model.json")
    helpers.save_model(model, path)
    states, failed, _ = _states(path, tmp)
    assert failed == [] and set(states) == {"equilibrium", "stability", "sweep"}
    # r0 is computed to about 1e-15, far inside the distance from the band's edges
    if abs(abs(excess) - R0_TOL) > 1e-12:
        want = _state(1.0 + excess)
        assert {state for state, _ in states.values()} == {want}
    # the certified DFE bracket never lies on the wrong side of 0, and
    # outside the band it lies on the side the DFE verdict names
    side = helpers.dfe_side(dfe_abscissa(model))
    assert side in (0, 1 if excess > 0.0 else -1)
    if _state(states["stability"][1]) != "near":
        assert side == (1 if excess > 0.0 else -1)


_TIME_UNIT_MODELS = ("five_node", (11, 4, 3.3), (12, 7, 1.7))


@functools.cache
def _analysis(which, c: float = 1.0):
    """R0, the DFE abscissa, y*, the endemic certificate and a sweep of the
    model which, five_node or random_supercritical(default_rng(seed), n,
    r0) for which = (seed, n, r0), with W, gamma and delta multiplied by c,
    the model in time units 1/c as long."""
    if which == "five_node":
        model = load_model(FIVE_NODE)
    else:
        seed, n, r0 = which
        model = helpers.random_supercritical(np.random.default_rng(seed), n, r0)
    model = validate_model(c * model.W, c * model.gamma, c * model.delta)
    r0, spectral = reproduction_number(model)
    equilibrium = solve_endemic(model, spectral=spectral)
    certificate = endemic_certificate(model, equilibrium.y_star, equilibrium.z_star)
    rows, warnings = run_sweep(model, -0.1, 1.0, 12)
    failed = [row.error and row.error.split(":")[0] for row in rows]
    return r0, dfe_abscissa(model), equilibrium.y_star, certificate, failed, warnings


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(_TIME_UNIT_MODELS), st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e))
@example("five_node", 1e9)
@example("five_node", 1e12)
@example((11, 4, 3.3), 1e12)
@example((12, 7, 1.7), 1e9)
def test_outputs_do_not_depend_on_the_time_unit(which, c):
    """R0 and y* are dimensionless: they move by rounding only, since
    c W / c gamma need not round to W / gamma. Rates, hence abscissas and
    eta, scale by c; the endemic verdict, the side of 0 the DFE bracket
    lies on and the sweep's failed rows stay."""
    r0, dfe, y_star, certificate, failed, warnings = _analysis(which)
    r0_c, dfe_c, y_star_c, certificate_c, failed_c, warnings_c = _analysis(which, c)
    assert abs(r0_c / r0 - 1.0) <= 1e-12
    assert np.max(np.abs(y_star_c / y_star - 1.0)) <= 1e-12
    assert certificate_c.verdict == certificate.verdict
    assert helpers.dfe_side(dfe_c) == helpers.dfe_side(dfe) == 1
    for scaled, base in ((dfe_c.abscissa, dfe.abscissa),
                         (certificate_c.spectral_abscissa, certificate.spectral_abscissa),
                         (certificate_c.eta, certificate.eta)):
        assert scaled == pytest.approx(c * base, rel=1e-9)
    assert (failed_c, warnings_c) == (failed, warnings)
