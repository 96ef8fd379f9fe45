"""The benchmark's own checks.

    python3 -m pytest perfbench -q        # about two minutes on 2 cores

* Every count metric repeats exactly across two traced cells of one
  seed, and traced digests equal the committed untraced ones.
* The outside-in spans agree with the program's own ``PhaseProfiler``
  on the layers both instruments see.
* The committed digests hold for the held-out seed too.
* Reference times cancel the host's speed and keep each segment's
  fastest cell.
* Without the program's source the command fails and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import REFERENCE_PROBE_S, _load_digests, end_to_end, run_child  # noqa: E402
from spans import PER_LAYER_UNITS, cross_check  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, repetition_seed  # noqa: E402

#: Metrics that must repeat exactly: counts, bytes and simulated outcomes.
EXACT_METRICS = [
    k for k, (unit, _) in PER_LAYER_UNITS.items() if unit in ("count", "bytes")
] + ["sim_slav", "core.convergence.q_cosine"]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    name = request.param
    seed = repetition_seed(DEFAULT_SEED, 0)
    first = run_child(name, seed, traced=True, timeout=170, profile=True)
    second = run_child(name, seed, traced=True, timeout=170)
    assert first["ok"] and second["ok"], (first.get("error"), second.get("error"))
    return name, first, second


def test_counts_repeat_exactly(traced_pair):
    name, first, second = traced_pair
    for key in EXACT_METRICS:
        assert first["layers"][key] == second["layers"][key], key
    assert first["sim"] == second["sim"]


def test_traced_digest_matches_committed(traced_pair):
    name, first, second = traced_pair
    reference = _load_digests()[name][str(repetition_seed(DEFAULT_SEED, 0))]
    assert first["digest"] == second["digest"] == reference


def test_spans_agree_with_phase_profiler(traced_pair):
    name, profiled, _ = traced_pair
    rows = cross_check(profiled)
    assert rows
    for row in rows:
        assert row["span_calls"] == row["profiler_calls"], row
        assert abs(row["span_s"] - row["profiler_s"]) <= 0.05 * row["profiler_s"] + 0.005, row


def test_reference_time_keeps_fastest_segment():
    phases = ["setup", "warmup", "warmup", "eval", "eval", "tail"]

    def cell(slowdown, probe_slowdown):
        return {
            "ok": True, "traced": False, "seed": 7, "segment_phases": phases,
            "segments_s": [slowdown * s for s in (0.1, 0.2, 0.05, 0.01, 0.03, 0.02)],
            "probe_s": [probe_slowdown * REFERENCE_PROBE_S] * 7,
            "peak_rss_mb": 50.0, "sim": {"sim_migrations": 3.0},
        }

    # The second cell ran on a host half as fast: same reference time.
    # The third was slowed by something the probe did not see.
    out, n_rounds = end_to_end([cell(1, 1), cell(2, 2), cell(1.5, 1)])
    assert n_rounds == 2
    assert out["cell_ref_s"] == pytest.approx(0.41)
    assert out["setup_s"] == pytest.approx(0.1)
    assert out["warmup_ref_s"] == pytest.approx(0.25)
    assert out["eval_ref_s"] == pytest.approx(0.04)
    assert out["eval_round_ref_ms_p50"] == pytest.approx(20.0)
    assert out["sim_migrations"] == 3.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_digest(name):
    seed = repetition_seed(HELD_OUT_SEED, 0)
    cell = run_child(name, seed, traced=False, timeout=170)
    assert cell["ok"], cell.get("error")
    assert cell["digest"] == _load_digests()[name][str(seed)]


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "pabfd_cell", "--seed", "1", "--seconds", "5",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
