"""The paper-cell benchmark: one simulation cell per workload.

    python3 perfbench/run.py --workload glap_cell --seed 2016 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both passes

Each run repeats one workload's cell, every time in a fresh child
process (``cell.py``) so that peak RSS is per cell, until ``--seconds``
would be exceeded by the next pass.  A pass runs one cell of each of
the workload's root seeds, derived from ``--seed`` (see
``workloads.py``); a run makes at least ``MIN_PASSES`` passes, so the
cells of one seed, which do identical work, spread over the whole run.
Cells run one after another; there is no worker pool.

``--trace 0`` runs untraced cells and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced cells and reports the
per-layer metrics of the traced ones; the untraced cells give the
tracing overhead and the traced/untraced digest comparison.

Host time, corrected for host speed.  On a shared host the speed of
each vCPU swings by 30-60 % within seconds and from minute to minute.
So every untraced cell cuts its run into segments at the boundaries it
timestamps (set-up, each warmup round, each evaluation round, the tail)
and times a fixed pure-Python probe at each boundary
(``cell.host_probe``), outside the segments.  A segment's *reference
time* is its host time scaled by ``REFERENCE_PROBE_S`` over the mean of
its two adjacent probes: the time it would have taken on a host that
runs the probe in exactly 100 microseconds.  Per segment the run keeps
the least reference time over the cells of one seed; the ``*_ref_s``
metrics add these up and average them over the seeds, and the round
percentiles pool the evaluation rounds of all seeds.  ``setup_s`` is the
median over the cells of the set-up segment's reference time.  The raw
host seconds of the same cells are the per-layer ``bench.cell_wall_s``,
the probe's median is ``bench.host_probe_us``.

Correctness: every cell checks the data-centre invariants on its final
state, and all cells of one seed must produce the same bit-exact
``RunResult`` digest -- which must also equal the digest committed in
``digests.json`` for the default and the held-out seed.  A failed cell
counts into ``failed``; any failure makes the run exit 1.

``sim_*`` metrics are simulated outcomes, identical on every run of one
seed, averaged over the run's seeds.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Passes over the root seeds per ``--trace 0`` run, at least.
MIN_PASSES = 3
#: Host-probe time that reference times are scaled to.
REFERENCE_PROBE_S = 100e-6
#: No run outlives this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS: Dict[str, str] = {
    "cell_ref_s": "s",
    "setup_s": "s",
    "warmup_ref_s": "s",
    "eval_ref_s": "s",
    "eval_round_ref_ms_p50": "ms",
    "eval_round_ref_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "sim_migrations": "count",
    "sim_energy_kwh": "kWh",
}


def run_child(workload: str, seed: int, traced: bool, timeout: float, profile: bool = False) -> dict:
    """Run one cell in a fresh process; returns its report (``ok`` False
    when it failed for any reason)."""
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if profile:
        cmd.append("--profile")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"cell timed out after {timeout:.0f} s", "proc_s": timeout}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = {"ok": False}
    if proc.returncode != 0 or not out.get("ok"):
        out["ok"] = False
        out.setdefault("error", f"exit code {proc.returncode}")
        sys.stderr.write(proc.stderr[-4000:])
    out["proc_s"] = time.perf_counter() - t0
    return out


def run_cells(workload, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Passes until the next would overrun ``seconds``.

    Traced runs alternate untraced and traced cells of the first root
    seed and always end on a complete pair.
    """
    from workloads import repetition_seed

    start = time.perf_counter()
    cells: List[dict] = []
    step = 2 if trace else workload.seeds_per_run
    minimum = 2 if trace else MIN_PASSES * step
    while True:
        for i in range(step):
            rep = 0 if trace else i
            left = HARD_LIMIT_S - (time.perf_counter() - start)
            cells.append(run_child(
                workload.name, repetition_seed(seed, rep), traced=trace and i == 1, timeout=left
            ))
        elapsed = time.perf_counter() - start
        next_s = sum(c["proc_s"] for c in cells[-step:])
        if elapsed + next_s > HARD_LIMIT_S:
            break
        if len(cells) >= minimum and elapsed + next_s > seconds:
            break
    return cells


def check_cells(workload: str, cells: List[dict]) -> int:
    """Mark cells whose digest disagrees; returns the number failed.

    A cell must match the committed digest of its seed when there is
    one, and otherwise the first cell of the same seed (traced and
    untraced alike).
    """
    reference = dict(_load_digests().get(workload, {}))
    for c in cells:
        if not c["ok"]:
            continue
        expected = reference.setdefault(str(c["seed"]), c["digest"])
        if c["digest"] != expected:
            c["ok"] = False
            c["error"] = f"seed {c['seed']}: digest {c['digest'][:12]} != {expected[:12]}"
            print(f"{workload}: {c['error']}", file=sys.stderr)
    return sum(1 for c in cells if not c["ok"])


def _load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def record_digests(workload: str, cells: List[dict]) -> None:
    """Commit the digest of each seed's first good cell as its reference."""
    digests = _load_digests()
    for c in cells:
        if c["ok"]:
            digests.setdefault(workload, {})[str(c["seed"])] = c["digest"]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def reference_segments(cell: dict) -> List[float]:
    """The cell's segments in reference time: each scaled by
    ``REFERENCE_PROBE_S`` over the mean of the probes on either side."""
    probes = cell["probe_s"]
    return [
        seg * REFERENCE_PROBE_S * 2 / (probes[i] + probes[i + 1])
        for i, seg in enumerate(cell["segments_s"])
    ]


def end_to_end(cells: List[dict]) -> Tuple[Dict[str, float], int]:
    """End-to-end metrics over the untraced cells, and the number of
    evaluation rounds the round percentiles are taken over."""
    good = [c for c in cells if c["ok"] and not c["traced"]]
    phases = good[0]["segment_phases"]
    by_seed: Dict[int, List[dict]] = {}
    for c in good:
        by_seed.setdefault(c["seed"], []).append(c)
    # The cells of one seed do identical work: keep each segment's least
    # reference time.
    fastest = [
        [min(times) for times in zip(*(reference_segments(c) for c in group))]
        for group in by_seed.values()
    ]

    def phase_s(segments: List[float], name: str) -> List[float]:
        return [t for t, phase in zip(segments, phases) if phase == name]

    rounds = [t * 1e3 for seg in fastest for t in phase_s(seg, "eval")]
    out = {
        "cell_ref_s": statistics.fmean(sum(seg) for seg in fastest),
        "setup_s": statistics.median(reference_segments(c)[0] for c in good),
        "warmup_ref_s": statistics.fmean(sum(phase_s(seg, "warmup")) for seg in fastest),
        "eval_ref_s": statistics.fmean(sum(phase_s(seg, "eval")) for seg in fastest),
        "eval_round_ref_ms_p50": percentile(rounds, 50),
        "eval_round_ref_ms_p90": percentile(rounds, 90),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good),
    }
    # Simulated outcomes, identical across the cells of one seed: the
    # mean over the seeds.
    for key in good[0]["sim"]:
        out[key] = statistics.fmean(group[0]["sim"][key] for group in by_seed.values())
    return out, len(rounds)


def per_layer(cells: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced cells."""
    traced = [c for c in cells if c["ok"] and c["traced"]]
    untraced = [c for c in cells if c["ok"] and not c["traced"]]
    out = {
        key: statistics.median(c["layers"][key] for c in traced)
        for key in traced[0]["layers"]
    }
    untraced_wall_s = statistics.median(c["cell_wall_s"] for c in untraced)
    out["bench.trace_overhead_ratio"] = statistics.median(
        c["cell_wall_s"] for c in traced
    ) / untraced_wall_s
    out["bench.cell_wall_s"] = untraced_wall_s
    out["bench.host_probe_us"] = 1e6 * statistics.median(
        p for c in untraced for p in c["probe_s"]
    )
    out["bench.failed_share"] = sum(1 for c in cells if not c["ok"]) / len(cells)
    return out


def count_mismatches(cells: List[dict]) -> List[str]:
    """Count metrics that differ between traced cells of one seed."""
    from spans import PER_LAYER_UNITS

    traced = [c for c in cells if c["ok"] and c["traced"]]
    counts = [k for k, (unit, _) in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]
    return [
        k for k in counts if k in traced[0]["layers"] and len({c["layers"][k] for c in traced}) > 1
    ] if traced else []


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, record: bool = False
) -> Tuple[Dict[str, float], int, int]:
    """One workload's metrics, cells attempted, cells failed."""
    from workloads import WORKLOADS

    cells = run_cells(WORKLOADS[workload], seed, seconds, trace)
    if record:
        record_digests(workload, cells)
    failed = check_cells(workload, cells)
    for c in cells:
        state = "ok" if c["ok"] else f"FAILED {c.get('error', '')}"
        wall = c.get("cell_wall_s", float("nan"))
        print(f"{workload}: cell seed {c.get('seed')} traced {int(c.get('traced', 0))} "
              f"wall {wall:.3f} s {state}")
    metrics: Dict[str, float] = {}
    good_untraced = [c for c in cells if c["ok"] and not c["traced"]]
    good_traced = [c for c in cells if c["ok"] and c["traced"]]
    if trace and good_traced and good_untraced:
        drift = count_mismatches(cells)
        if drift:
            print(f"{workload}: counts differ between traced cells: {drift}", file=sys.stderr)
            failed += 1
        metrics = per_layer(cells)
    elif not trace and good_untraced:
        metrics, n_rounds = end_to_end(cells)
        print(
            f"{workload}: {len(good_untraced)} cells, eval_round_ref_ms percentiles over "
            f"{n_rounds} rounds"
        )
    return metrics, len(cells), failed


def units(trace: bool) -> Dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    from spans import PER_LAYER_UNITS

    return {k: unit for k, (unit, _) in PER_LAYER_UNITS.items()}


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--trace", choices=["0", "1", "both"], default="both",
        help="0: end-to-end metrics; 1: per-layer metrics; both: one after the other",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this seed's run digests in digests.json (after a change that is "
        "meant to alter simulated outcomes)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]
    prefix = len(names) > 1 or len(modes) > 1
    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        for trace in modes:
            values, n, bad = run_workload(name, args.seed, args.seconds, trace, args.record_digests)
            attempted += n
            failed += bad
            unit_of = units(trace)
            for key, value in values.items():
                label = f"{name}/{key}" if prefix else key
                metrics[label] = {"value": value, "unit": unit_of[key]}
                print(f"  {label:58s} {value:>16.6g} {unit_of[key]}")
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
