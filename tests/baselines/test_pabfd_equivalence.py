"""Differential equivalence: the array PABFD pass vs the per-object oracle.

Two copies of one cell, on the same datacenter backend, are driven
round by round: one by :class:`repro.baselines.pabfd.PabfdController`,
one by the frozen per-object controller in ``_pabfd_reference.py``.
After every round they must agree exactly: the migration sequence
``(round, vm, src, dst)``, every host's membership order, the sleep set,
every history window, and ``switch_offs`` / ``wake_ups``.

The cells are drawn to reach the corners where an array rewrite can
drift: demand levels from a small set (hosts tie on load and on power
increase), empty active hosts, sleeping hosts to wake, windows longer
than the run (short histories, thresholds of 1.0), windows shorter than
it (a wrapped ring buffer), and a checkpoint round-trip of the array
controller mid-window.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.pabfd import PabfdConfig, PabfdController, PabfdPolicy
from repro.datacenter.cluster import DataCenter
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.base import ArrayTrace
from tests.baselines._pabfd_reference import PabfdController as ReferenceController

#: Demand fractions of the "tied" cells: few levels, so many hosts carry
#: identical loads and candidate hosts tie on power increase.
LEVELS = np.array([0.05, 0.2, 0.4, 0.6, 0.9, 1.0])


def make_trace(n_vms: int, n_rounds: int, seed: int, tied: bool) -> ArrayTrace:
    rng = np.random.default_rng(seed)
    if tied:
        data = rng.choice(LEVELS, size=(n_vms, n_rounds, 2))
    else:
        data = rng.uniform(0.0, 1.0, size=(n_vms, n_rounds, 2))
    return ArrayTrace(data)


def make_copy(backend, trace, hosts, n_pms, asleep):
    """One copy of the cell: a placed data centre and its simulation."""
    dc = DataCenter(n_pms, trace.n_vms, trace, backend=backend)
    dc.apply_placement(hosts)
    sim = Simulation(
        [Node(pm.pm_id, payload=pm) for pm in dc.pms], np.random.default_rng(0)
    )
    for pm_id in asleep:
        dc.pm(pm_id).asleep = True
        sim.node(pm_id).sleep()
    return dc, sim


def round_trip(ctl: PabfdController, config: PabfdConfig) -> PabfdController:
    """The controller after a JSON checkpoint round-trip of its policy."""
    policy = PabfdPolicy(config)
    policy.controller = ctl
    state = json.loads(json.dumps(policy.state_dict()))
    restored = PabfdPolicy(config)
    restored.controller = PabfdController(ctl.dc, config)
    restored.load_state_dict(state)
    assert restored.state_dict() == state
    return restored.controller


def moves(dc: DataCenter):
    return [(m.round_index, m.vm_id, m.src_pm, m.dst_pm) for m in dc.migrations]


def assert_same(dc, ctl, ref_dc, ref):
    assert moves(dc) == moves(ref_dc)
    np.testing.assert_array_equal(dc.awake_mask(), ref_dc.awake_mask())
    for pm, ref_pm in zip(dc.pms, ref_dc.pms):
        assert [v.vm_id for v in pm.vms] == [v.vm_id for v in ref_pm.vms]
        assert ctl.history(pm.pm_id) == list(ref._history[pm.pm_id])
    assert (ctl.switch_offs, ctl.wake_ups) == (ref.switch_offs, ref.wake_ups)


def run_cell(
    *,
    backend: str = "columnar",
    n_pms: int = 8,
    n_vms: int = 24,
    used_pms: int = 6,
    n_asleep: int = 1,
    seed: int = 0,
    tied: bool = True,
    rounds: int = 24,
    warmup: int = 6,
    window: int = 30,
    period: int = 2,
    max_evictions: int = 10,
    allow_wake_ups: bool = False,
    checkpoint_round: int = -1,
) -> PabfdController:
    """Drive both controllers over one cell; returns the array one.

    VMs start on the first ``used_pms`` hosts; of the empty rest, the
    last ``n_asleep`` start asleep and the others are empty but active.
    """
    trace = make_trace(n_vms, rounds, seed, tied)
    hosts = np.random.default_rng(seed + 1).integers(0, used_pms, size=n_vms)
    asleep = range(n_pms - n_asleep, n_pms)
    config = PabfdConfig(
        history_window=window,
        control_period_rounds=period,
        max_evictions_per_host=max_evictions,
        allow_wake_ups=allow_wake_ups,
    )
    dc, sim = make_copy(backend, trace, hosts, n_pms, asleep)
    ref_dc, ref_sim = make_copy(backend, trace, hosts, n_pms, asleep)
    ctl = PabfdController(dc, config)
    ref = ReferenceController(ref_dc, config)
    for r in range(rounds):
        dc.advance_round()
        ref_dc.advance_round()
        if r == warmup:
            ctl.enabled = ref.enabled = True
        if r == checkpoint_round:
            ctl = round_trip(ctl, config)
        ctl.step(sim)
        ref.step(ref_sim)
        assert_same(dc, ctl, ref_dc, ref)
    assert ctl.control_passes == max(0, rounds - warmup) // period
    assert ctl.drains_failed <= ctl.drains_attempted
    assert ctl.placements_failed <= ctl.vms_shed
    return ctl


BACKENDS = ["columnar", "object"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestPinnedCells:
    """Cells pinned to reach each corner at least once."""

    def test_ties_and_empty_active_hosts(self, backend):
        ctl = run_cell(backend=backend, n_pms=10, used_pms=5, n_asleep=0)
        assert ctl.vms_shed > 0 and ctl.switch_offs > 0

    def test_wake_ups_give_short_histories(self, backend):
        ctl = run_cell(
            backend=backend, n_pms=8, n_vms=36, used_pms=5, n_asleep=3,
            allow_wake_ups=True, period=1, window=8,
        )
        assert ctl.wake_ups > 0

    def test_no_wake_ups_leaves_placements_failed(self, backend):
        ctl = run_cell(
            backend=backend, n_pms=6, n_vms=36, used_pms=5, n_asleep=1,
            period=1, window=8,
        )
        assert ctl.wake_ups == 0 and ctl.placements_failed > 0

    def test_short_windows_and_mid_window_checkpoint(self, backend):
        # A window of 30 never fills in 20 rounds: thresholds are 1.0
        # until 3 samples exist, then come from partial windows.
        run_cell(backend=backend, rounds=20, warmup=1, window=30, checkpoint_round=9)

    def test_wrapped_ring_checkpoint(self, backend):
        run_cell(backend=backend, rounds=30, window=4, tied=False, checkpoint_round=13)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    backend=st.sampled_from(BACKENDS),
    n_pms=st.integers(2, 12),
    ratio=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    tied=st.booleans(),
    window=st.integers(1, 12),
    period=st.integers(1, 3),
    max_evictions=st.integers(1, 4),
    allow_wake_ups=st.booleans(),
    data=st.data(),
)
def test_random_cells_match_the_oracle(
    backend, n_pms, ratio, seed, tied, window, period, max_evictions,
    allow_wake_ups, data,
):
    used_pms = data.draw(st.integers(1, n_pms), label="used_pms")
    n_asleep = data.draw(st.integers(0, n_pms - used_pms), label="n_asleep")
    rounds = data.draw(st.integers(4, 20), label="rounds")
    run_cell(
        backend=backend,
        n_pms=n_pms,
        n_vms=n_pms * ratio,
        used_pms=used_pms,
        n_asleep=n_asleep,
        seed=seed,
        tied=tied,
        rounds=rounds,
        warmup=data.draw(st.integers(0, rounds - 1), label="warmup"),
        window=window,
        period=period,
        max_evictions=max_evictions,
        allow_wake_ups=allow_wake_ups,
        checkpoint_round=data.draw(st.integers(-1, rounds - 1), label="checkpoint"),
    )
