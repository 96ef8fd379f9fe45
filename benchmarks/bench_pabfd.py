"""PABFD control-pass scale receipt: pass and monitoring cost at 500-2000 PMs.

Drives the central PABFD controller directly on paper-scale cells
(500/1000/2000 PMs at a VM:PM ratio of 4, Google-like demand, random
initial placement): ``WARMUP_ROUNDS`` rounds of monitoring only, which
fill the 30-sample MAD windows, then ``PASSES`` control passes, one
every ``control_period_rounds`` (6) evaluation rounds, exactly as
``run_policy`` sequences them.  Each round's ``controller.step`` is timed:

* a step at a control point is one **control pass** (thresholds, shed,
  place, drain; its round's monitoring included);
* every other step is one **record_histories** call.

Running this module (``pytest benchmarks/bench_pabfd.py`` or
``python benchmarks/bench_pabfd.py``) writes
``benchmarks/results/BENCH_pabfd.json`` (glap-bench schema) and asserts
the 2000-PM budgets: every pass within 1 s, monitoring within 2 ms per
round.  Timings are seconds; alongside them the artifact pins each
cell's migration and switch-off counts, so the perf-smoke gate also
catches any change in the decisions::

    glap bench-compare benchmarks/baselines/pabfd_baseline.json \\
        benchmarks/results/BENCH_pabfd.json --tolerance 2.0
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.baselines.pabfd import PabfdConfig, PabfdController
from repro.datacenter.cluster import DataCenter
from repro.obs.summary import sweep_summary, write_summary
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_pabfd.json"

SIZES = (500, 1000, 2000)
RATIO = 4
WARMUP_ROUNDS = 30
PASSES = 3
SEED = 2016
#: Budgets at the largest cell.
PASS_BUDGET_S = 1.0
RECORD_BUDGET_S = 0.002


def run_cell(n_pms: int) -> Dict[str, object]:
    """Warm up, run PASSES control passes; per-step seconds by kind."""
    config = PabfdConfig()
    eval_rounds = PASSES * config.control_period_rounds
    n_vms = n_pms * RATIO
    rounds = WARMUP_ROUNDS + eval_rounds
    trace = GoogleLikeTraceGenerator(
        GoogleTraceParams(rounds_per_day=rounds)
    ).generate(n_vms, rounds, np.random.default_rng(SEED))
    dc = DataCenter(n_pms, n_vms, trace)
    dc.place_randomly(np.random.default_rng(SEED + 1))
    sim = Simulation(
        [Node(pm.pm_id, payload=pm) for pm in dc.pms], np.random.default_rng(SEED + 2)
    )
    controller = PabfdController(dc, config)
    record_s: List[float] = []
    pass_s: List[float] = []
    gc.collect()
    gc.disable()
    try:
        for r in range(rounds):
            if r == WARMUP_ROUNDS:
                controller.enabled = True
            dc.advance_round()
            passes_before = controller.control_passes
            t0 = time.perf_counter()
            controller.step(sim)
            elapsed = time.perf_counter() - t0
            if controller.control_passes != passes_before:
                pass_s.append(elapsed)
            else:
                record_s.append(elapsed)
    finally:
        gc.enable()
    return {
        "pass_s": pass_s,
        "record_s": record_s,
        "migrations": dc.migration_count(),
        "switch_offs": controller.switch_offs,
    }


def collect() -> Dict[str, object]:
    """Measure every cell, build the glap-bench summary dict."""
    t_start = time.perf_counter()
    timings: Dict[str, Dict[str, float]] = {}
    metrics: Dict[str, float] = {}
    for n_pms in SIZES:
        cell = run_cell(n_pms)
        passes, records = cell["pass_s"], cell["record_s"]
        timings[f"n{n_pms}/control_pass_p50"] = {
            "total_s": float(np.median(passes)), "calls": len(passes)
        }
        timings[f"n{n_pms}/control_pass_max"] = {
            "total_s": float(np.max(passes)), "calls": len(passes)
        }
        timings[f"n{n_pms}/record_histories"] = {
            "total_s": float(np.median(records)), "calls": len(records)
        }
        metrics[f"n{n_pms}/migrations"] = cell["migrations"]
        metrics[f"n{n_pms}/switch_offs"] = cell["switch_offs"]
    return sweep_summary(
        {
            "bench": "pabfd-control-pass",
            "sizes": list(SIZES),
            "ratio": RATIO,
            "warmup_rounds": WARMUP_ROUNDS,
            "passes": PASSES,
            "seed": SEED,
        },
        timings,
        metrics,
        wall_s=time.perf_counter() - t_start,
    )


def test_pabfd_pass_receipt():
    summary = collect()
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    write_summary(summary, RESULTS_PATH)
    phases = summary["timings"]["phases"]
    for n_pms in SIZES:
        print(
            f"{n_pms} PMs: pass p50 "
            f"{phases[f'n{n_pms}/control_pass_p50']['total_s'] * 1e3:.0f} ms, max "
            f"{phases[f'n{n_pms}/control_pass_max']['total_s'] * 1e3:.0f} ms, "
            f"record_histories "
            f"{phases[f'n{n_pms}/record_histories']['total_s'] * 1e3:.2f} ms/round"
        )
    largest = max(SIZES)
    assert phases[f"n{largest}/control_pass_max"]["total_s"] <= PASS_BUDGET_S
    assert phases[f"n{largest}/record_histories"]["total_s"] <= RECORD_BUDGET_S


if __name__ == "__main__":
    test_pabfd_pass_receipt()
