"""Command-line interface.

Subcommands: r0, equilibrium, simulate, stability, sweep. Exit codes:
0 on success, 1 on input or validation errors (bad flags and outputs too
large to allocate included), 2 on numerical failures. Either error leaves
as one line on stderr, "error: <ErrorType>: <message>".
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .equilibrium import EndemicEquilibrium, solve_endemic
from .errors import ModelInputError, NumericalError
from .dynamics import IntegratorConfig, simulate
from .io import (
    load_initial,
    load_model,
    sample_initial_states,
    write_sweep_csv,
    write_trajectory_csv,
)
from .spectral import reproduction_number
from .stability import (INCONCLUSIVE, STABLE, UNSTABLE, dfe_abscissa,
                        endemic_certificate, lyapunov_value)
from .stability import jacobian_dfe, spectral_abscissa  # noqa: F401  (perfbench/spans.py wraps these names)
from .sweep import run_sweep


def _vec(v: list) -> str:
    return "[" + ", ".join(format(x, ".12g") for x in v) + "]"


def _text(r0: float, record: dict) -> str:
    """R0 = %.6f, then one "key: value" line per entry of record: vectors
    through _vec, counts as integers, other numbers as %.3e."""
    lines = [f"R0 = {r0:.6f}"]
    for key, value in record.items():
        spec = "d" if isinstance(value, int) else ".3e"
        lines.append(f"{key}: {_vec(value) if isinstance(value, list) else format(value, spec)}")
    return "\n".join(lines)


def _point(solved: EndemicEquilibrium) -> dict:
    return {key: getattr(solved, key).tolist() for key in ("y_star", "z_star", "x_star")}


def _save(path: str | None, report: dict) -> str:
    """The report as indented JSON, written to path when one is given. The
    caller prints only after, so a failed write leaves stdout empty."""
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def cmd_r0(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    r0, spectral = reproduction_number(model, tol=args.tol)
    print(_text(r0, {"iterations": spectral.iterations, "residual": spectral.residual,
                     "v_right": spectral.v_right.tolist(), "v_left": spectral.v_left.tolist()}))
    return 0


def cmd_equilibrium(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    r0, spectral = reproduction_number(model)
    solved = solve_endemic(model, tol=args.tol, spectral=spectral)
    if isinstance(solved, EndemicEquilibrium):
        record = {**_point(solved), "iterations": solved.iterations,
                  "residual": solved.residual, "bracket_gap": solved.bracket_gap}
        report, text = {"r0": r0, **record}, _text(r0, record)
    else:
        tail = " [near threshold]" if solved.near_threshold else ""
        text = f"NoEndemic (R0 = {solved.r0:.6f}){tail}"
        report = {"r0": solved.r0, "no_endemic": True, "near_threshold": solved.near_threshold}
    if args.out:
        _save(args.out, report)
        text += f"\nwrote {args.out}"
    print(text)
    return 0


def _suffixed(path: str, index: int) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}_{index:03d}{ext or '.csv'}"


def cmd_simulate(args: argparse.Namespace) -> int:
    # every flag is judged before any work; numpy's message on a seed names no flag
    if args.seed < 0:
        raise ModelInputError(f"--seed must be at least 0, got {args.seed}")
    if args.random is not None and args.random < 1:
        raise ModelInputError(f"--random must be at least 1, got {args.random}")
    if (args.init is None) == (args.random is None):
        raise ModelInputError("pass exactly one of --init PATH or --random K")
    config = IntegratorConfig(dt=args.dt, t_end=args.t_end,
                              record_every=args.record_every)
    model = load_model(args.model)
    if args.init is not None:
        starts = [load_initial(args.init)]
    else:
        rng = np.random.default_rng(args.seed)
        starts = sample_initial_states(model.n, args.random, rng)
    spectral = reproduction_number(model)[1] if args.lyapunov else None
    for index, (y0, z0) in enumerate(starts):
        trajectory = simulate(model, y0, z0, config)
        path = args.out if len(starts) == 1 else _suffixed(args.out, index)
        values = None if spectral is None else lyapunov_value(model, trajectory.y, spectral)
        write_trajectory_csv(trajectory, path, values)
        print(f"wrote {path}")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    """The DFE verdict is solve_endemic's threshold state of R0."""
    model = load_model(args.model)
    r0, spectral = reproduction_number(model)
    dfe = {"abscissa": dfe_abscissa(model).abscissa, "verdict": STABLE}
    report = {"r0": r0, "spectral": {"lambda": spectral.lam, "iterations": spectral.iterations,
                                     "residual": spectral.residual},
              "dfe": dfe, "endemic": None}
    solved = solve_endemic(model, tol=args.tol, spectral=spectral)
    if isinstance(solved, EndemicEquilibrium):
        dfe["verdict"] = UNSTABLE
        certificate = endemic_certificate(model, solved.y_star, tol=args.tol)
        report["endemic"] = {
            **_point(solved),
            "eta": certificate.eta,
            "abscissa": certificate.spectral_abscissa,
            "gershgorin": [
                {"lambda": [s.lam.real, s.lam.imag],
                 "all_disks_left": s.all_disks_left,
                 "min_margin": s.min_margin}
                for s in certificate.gershgorin_samples
            ],
            "verdict": certificate.verdict,
            **({"reason": certificate.reason} if certificate.reason else {}),
        }
    elif solved.near_threshold:
        dfe.update(verdict=INCONCLUSIVE, reason="near threshold")
        report["endemic"] = {"no_endemic": True, "near_threshold": True}
    print(_save(args.out, report))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    rows, warnings = run_sweep(model, args.scale_min, args.scale_max,
                               args.steps, tol=args.tol)
    write_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows, {warnings} warnings)")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ModelInputError where argparse would
    print a usage block and exit 2, and that reads any argument that
    parses as a float (-1e-3, -inf, -nan) as a value, never as a flag, so
    the library judges such values."""

    def error(self, message: str):
        raise ModelInputError(message)

    def _parse_optional(self, arg_string: str):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netsirs",
        description="Network SIRS epidemic model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, tol: float | None = 1e-12) -> None:
        p.add_argument("--model", required=True, help="model JSON file")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="solver tolerance")

    p = sub.add_parser("r0", help="reproduction number and Perron eigenpair")
    common(p, tol=1e-10)
    p.set_defaults(func=cmd_r0)

    p = sub.add_parser("equilibrium", help="endemic equilibrium, if any")
    common(p)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="integrate trajectories to CSV")
    common(p, tol=None)
    p.add_argument("--init", help="initial-condition JSON file")
    p.add_argument("--random", type=int, metavar="K",
                   help="draw K random initial conditions instead of --init")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--lyapunov", action="store_true",
                   help="append the Lyapunov value column V")
    p.add_argument("--out", required=True, help="output CSV path (indexed per start)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="stability certificate as JSON")
    common(p)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("sweep", help="scale W over a grid and tabulate")
    common(p)
    p.add_argument("--scale-min", type=float, required=True)
    p.add_argument("--scale-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use. parse_args leaves
    it unchanged and returns a fresh Namespace on every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, MemoryError, NumericalError) as exc:
        # ModelInputError is a ValueError; OSError covers unreadable or
        # unwritable files, MemoryError an output too large to allocate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())
