"""Run-to-run spread of the benchmark, the way its acceptance is judged.

    python3 perfbench/spread.py --seeds 10 [--workloads glap_cell,pabfd_cell] [--out FILE]

Runs ``run.py --trace 0`` once per seed (seeds 1..N) on each workload,
then reports, for every end-to-end metric, the median and quartiles of
its N values (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound from BENCHMARK.json.
A spread above a third of its bound is flagged (``setup_s`` is
reported but not judged).  ``--trace 1`` adds one traced run per
workload at the first seed, so the output holds every metric, and one
cell run with both the spans and the ``PhaseProfiler`` to compare them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import run_child  # noqa: E402
from spans import cross_check  # noqa: E402
from workloads import repetition_seed  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "seconds": args.seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "workloads": {},
    }
    steady = True
    for name in args.workloads.split(","):
        t0 = time.perf_counter()
        runs = [run(name, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = {"run_s_mean": (time.perf_counter() - t0) / len(runs), "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            judged = metric != "setup_s"
            ok = not judged or spread <= bound / 3
            steady &= ok
            entry["end_to_end"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values,
            }
            flag = "" if ok else "  <-- above bound/3"
            print(f"{name:14s} {metric:20s} median {med:12.6g} spread {spread:7.4f} "
                  f"bound {bound:5.2f}{flag}")
        if args.trace:
            traced = run(name, summary["seeds"][0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            both = run_child(
                name, repetition_seed(summary["seeds"][0], 0), traced=True, timeout=170,
                profile=True,
            )
            entry["profiler_crosscheck"] = cross_check(both)
        summary["workloads"][name] = entry
        print(f"{name}: {entry['run_s_mean']:.1f} s per run", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
