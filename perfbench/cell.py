"""Run one benchmark cell in this process and print what it measured.

    python3 perfbench/cell.py --workload glap_cell --seed 2016 [--traced] [--profile]

The cell goes through the public API only: ``build_trace`` makes the
workload's trace from its trace seed, ``run_policy`` runs warmup and
evaluation from the root seed ``--seed``.  Untraced, the cell timestamps only the once-per-run
boundaries (start, end of ``policy.attach``, end of
``policy.end_warmup``, return of ``run_policy``) and the once-per-round
ones (end of each warmup ``policy.step``, each ``round_hook``).  At
every boundary it also times :func:`host_probe`, a fixed piece of pure
Python, outside the segments it measures; the caller uses the probe to
correct each segment for the host's speed at that moment.
``--traced`` installs the outside-in spans of :mod:`spans` first and
runs no probe; ``--profile`` passes a ``PhaseProfiler`` to
``run_policy`` so the two instruments can be compared.

Every cell checks its own output: the final state must pass
``check_datacenter_invariants`` and the run's bit-exact digest is
reported for the caller to compare.  The last stdout line is one JSON
object; on failure it has ``"ok": false`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

__all__ = ["digest_run", "run_cell"]


def digest_run(result) -> dict:
    """A bit-exact fingerprint of a RunResult: scalars as ``float.hex``,
    each series as the sha256 of its buffer (the golden suite's shape)."""
    import numpy as np

    def hx(x: float) -> str:
        return float(x).hex()

    out = {
        "policy": result.policy,
        "seed": result.seed,
        "slavo": hx(result.slavo),
        "slalm": hx(result.slalm),
        "slav": hx(result.slav),
        "total_migrations": int(result.total_migrations),
        "migration_energy_j": hx(result.migration_energy_j),
        "dc_energy_j": hx(result.dc_energy_j),
        "final_active": int(result.final_active),
        "final_overloaded": int(result.final_overloaded),
        "bfd_baseline_pms": int(result.bfd_baseline_pms),
        "extras": {k: hx(v) for k, v in sorted(result.extras.items())},
    }
    for name in sorted(result.series):
        arr = np.ascontiguousarray(result.series[name])
        sha = hashlib.sha256(arr.tobytes()).hexdigest()
        out[f"series/{name}"] = f"{arr.dtype}{list(arr.shape)}:{sha}"
    return out


def _q_gauges(policy) -> dict:
    """Q-map size and convergence across GLAP's nodes (0 for others)."""
    models = getattr(policy, "models", None)
    if not models:
        return {"q_entries_mean": 0.0, "q_cosine": 0.0}
    import numpy as np
    from repro.core.convergence import mean_pairwise_cosine

    ordered = [models[nid] for nid in sorted(models)]
    return {
        "q_entries_mean": float(np.mean([m.total_entries() for m in ordered])),
        "q_cosine": mean_pairwise_cosine(ordered, rng=np.random.default_rng(0), max_pairs=300),
    }


def host_probe() -> float:
    """Seconds the host takes, right now, for a fixed piece of pure
    Python: the best of three runs of a ~0.1 ms loop."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(1500):
            total += i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


def run_cell(workload_name: str, seed: int, traced: bool, profile: bool, workdir: Path) -> dict:
    from workloads import WORKLOADS
    from repro.experiments import runner
    from repro.simulator.observer import check_datacenter_invariants

    workload = WORKLOADS[workload_name]
    log = None
    if traced:
        from spans import SpanLog, install

        log = SpanLog()
        install(log)
    profiler = None
    if profile:
        from repro.obs.profiler import PhaseProfiler

        profiler = PhaseProfiler()

    scenario = workload.scenario()
    policy = runner.make_policy(workload.policy)
    clock = time.perf_counter
    final: dict = {}
    gauges: dict = {}
    gauge_s = 0.0
    warming = True

    attach = policy.attach if log is None else log.wrap(policy.attach, "experiments.attach")
    end_warmup = policy.end_warmup
    step = policy.step

    # Every timestamped boundary ends one segment of the cell (at cuts[i],
    # labelled phases[i] by the phase it ends) and starts the next at
    # resumes[i], after the host probe (untraced cells only) has run.
    cuts: list = []
    resumes: list = []
    phases: list = []
    probes: list = []

    def cut(phase: str) -> None:
        cuts.append(clock())
        phases.append(phase)
        if log is None:
            probes.append(host_probe())
        resumes.append(clock())

    def attach_marked(*args):
        attach(*args)
        cut("setup")

    def end_warmup_marked(*args):
        nonlocal gauge_s, warming
        end_warmup(*args)
        cut("warmup")
        warming = False
        if log is not None:
            gauges.update(_q_gauges(policy))
            gauge_s = clock() - resumes[-1]

    def step_marked(*args):
        step(*args)
        if warming:
            cut("warmup")

    def round_hook(r, dc, sim):
        cut("eval")
        final["dc"], final["sim"] = dc, sim

    policy.attach = attach_marked
    policy.end_warmup = end_warmup_marked
    policy.step = step_marked
    ckpt_kwargs = {}
    if workload.checkpoint_every is not None:
        ckpt_kwargs = {
            "checkpoint_every": workload.checkpoint_every,
            "checkpoint_path": workdir / "cell.ckpt.json",
        }

    cut("start")
    if log is None:
        trace = runner.build_trace(scenario, workload.trace_seed)
    else:
        span = log.open("traces.build")
        trace = runner.build_trace(scenario, workload.trace_seed)
        log.close(span)
    result = runner.run_policy(
        scenario, policy, seed, round_hook=round_hook, trace=trace, profiler=profiler, **ckpt_kwargs
    )
    cut("tail")
    if log is not None:
        log.close(log.result_span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    dc, sim = final["dc"], final["sim"]
    check_datacenter_invariants(dc, sim)
    digest = hashlib.sha256(
        json.dumps(digest_run(result), sort_keys=True).encode()
    ).hexdigest()
    # One segment per warmup round plus end_warmup, one per eval round.
    expected = {"setup": 1, "warmup": scenario.warmup_rounds + 1, "eval": scenario.rounds}
    seen = {phase: phases.count(phase) for phase in expected}
    if seen != expected:
        raise RuntimeError(f"segments per phase {seen}, expected {expected}")

    segments = [end - start for start, end in zip(resumes, cuts[1:])]
    out = {
        "ok": True,
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "digest": digest,
        "cell_wall_s": sum(segments) - gauge_s,
        "segments_s": segments,
        "segment_phases": phases[1:],
        "probe_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "sim": {
            "sim_migrations": float(result.total_migrations),
            "sim_energy_kwh": result.dc_energy_j / 3.6e6,
        },
    }
    if log is not None:
        from spans import layer_metrics

        cons = getattr(policy, "phase_protocol", None)
        cons = cons.consolidation if cons is not None else None
        attempted = accepted = 0
        if cons is not None:
            accepted = cons.migrations_done
            attempted = accepted + cons.rejections_by_q_in + cons.rejections_by_capacity
        stats = sim.network.stats
        extra = {
            "trace_bytes": trace.data.nbytes,
            "messages_sent": stats.messages_sent,
            "messages_dropped": stats.messages_dropped,
            "network_bytes": stats.bytes_sent,
            "consolidation_attempted": attempted,
            "consolidation_accepted": accepted,
            "traced_wall_s": out["cell_wall_s"],
            "slav": result.slav,
            **gauges,
        }
        out["layers"] = layer_metrics(log, extra)
        out["spans"] = log.totals()
        log.save(str(workdir.parent / "spans" / f"{workload_name}-seed{seed}.npz"))
    if profiler is not None:
        out["profile"] = profiler.breakdown()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    workdir = ROOT / ".perfbench" / "work" / f"cell-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = run_cell(args.workload, args.seed, args.traced, args.profile, workdir)
    except Exception as exc:  # the cell's boundary: report, never hang
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": repr(exc)}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
