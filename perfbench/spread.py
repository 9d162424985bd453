"""Run the benchmark several times per workload and report each metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workloads analyses sweep_n200 --seeds 1 2 3 4 5
        [--trace 0|1] [--seconds S] [--json OUT]

Seconds default to run_seconds of BENCHMARK.json. Run from the checkout
root, like run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
               "machine": None, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = next(line for line in lines if line.startswith("record "))
            summary["machine"] = json.loads(record[len("record "):])["machine"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, run wall {min(walls):.1f}-{max(walls):.1f} s", flush=True)
        summary["workloads"][workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary["workloads"][workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
            bound = bounds.get(name)
            note = f"  bound {bound}, spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {name:<34} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{note}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
