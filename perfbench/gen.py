"""Seeded benchmark inputs, made with numpy alone (netsirs is never called).

A generated model is a ring plus up to 8 random in-edges per row, with
rates drawn from fixed ranges and W rescaled so that the spectral radius
of M = [gamma]^-1 W, taken with numpy.linalg.eigvals, hits a target R0.
The same seed writes byte-identical model and initial-condition files.
Every workload also writes manifest.json: one entry per model with its
file, n, edge count and target R0 (null for the reference model).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

IN_EDGES = 8
TRAJECTORY_STARTS = 8
SWEEP_N = 200
SWEEP_R0 = 3.0
ANALYSES_MODELS = 100
ANALYSES_N = (5, 200)
# R0 classes cycle through this pattern over the size strata, so every
# class spans the whole size range and the mix is the same for every seed
R0_PATTERN = ("sub", "near", "super", "super")
R0_RANGES = {"sub": (0.3, 0.95), "near": (1.02, 1.1), "super": (1.2, 8.0)}


def random_model(rng: np.random.Generator, n: int, target_r0: float, name: str) -> dict:
    """A strongly connected model dict with rho([gamma]^-1 W) = target_r0."""
    W = np.zeros((n, n))
    rows = np.arange(n)
    W[rows, (rows - 1) % n] = rng.uniform(0.5, 1.5, n)
    for i in range(n):
        cols = rng.choice(n, size=min(IN_EDGES, n), replace=False)
        W[i, cols] += rng.uniform(0.1, 1.0, cols.size)
    gamma = rng.uniform(0.5, 1.5, n)
    delta = rng.uniform(0.1, 1.0, n)
    r0 = float(np.max(np.abs(np.linalg.eigvals(W / gamma[:, None]))))
    # a scale rounded to 10 digits keeps the files independent of the last
    # bits of the eigensolve, which can differ between BLAS builds
    W = W * float(f"{target_r0 / r0:.10g}")
    return {"n": n, "W": W.tolist(), "gamma": gamma.tolist(),
            "delta": delta.tolist(), "name": name}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n")


def _entry(path: Path, model: dict, target_r0: float | None) -> dict:
    edges = int(np.count_nonzero(np.asarray(model["W"])))
    return {"file": path.name, "n": model["n"], "edges": edges, "target_r0": target_r0}


def random_start(rng: np.random.Generator, n: int) -> dict:
    """Uniform draw from each population's simplex, as (y0, z0) spacings."""
    u = np.sort(rng.random((n, 2)), axis=1)
    return {"y0": (u[:, 1] - u[:, 0]).tolist(), "z0": (1.0 - u[:, 1]).tolist()}


def make_inputs(workload: str, seed: int, out: Path, reference: Path) -> list[dict]:
    """Write the inputs of one workload into out and return its manifest.

    reference is the five-population model file shipped with the package,
    copied byte for byte.
    """
    rng = np.random.default_rng([seed, sum(workload.encode())])
    out.mkdir(parents=True, exist_ok=True)
    manifest: list[dict] = []
    if workload == "trajectories":
        path = out / "five_node.json"
        path.write_bytes(reference.read_bytes())
        model = json.loads(path.read_text())
        manifest.append(_entry(path, model, None))
        for k in range(TRAJECTORY_STARTS):
            write_json(out / f"init_{k}.json", random_start(rng, model["n"]))
    elif workload == "sweep_n200":
        path = out / "sweep_model.json"
        model = random_model(rng, SWEEP_N, SWEEP_R0, "sweep_n200")
        write_json(path, model)
        manifest.append(_entry(path, model, SWEEP_R0))
    elif workload == "analyses":
        lo, hi = (math.log(v) for v in ANALYSES_N)
        for i in range(ANALYSES_MODELS):
            # one log-uniform size per stratum keeps the size mix fixed
            frac = (i + rng.random()) / ANALYSES_MODELS
            n = int(round(math.exp(lo + frac * (hi - lo))))
            kind = R0_PATTERN[i % len(R0_PATTERN)]
            a, b = R0_RANGES[kind]
            target = float(math.exp(rng.uniform(math.log(a), math.log(b))))
            path = out / f"model_{i:03d}.json"
            model = random_model(rng, n, target, f"analyses_{i:03d}")
            write_json(path, model)
            manifest.append(_entry(path, model, target))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    write_json(out / "manifest.json", manifest)
    return manifest
