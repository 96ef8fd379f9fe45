"""Differential equivalence: columnar store vs per-object reference.

Two data centres — one on the ``object`` backend, one on ``columnar`` —
are driven through identical randomised action sequences (demand rounds,
migrations, sleep/wake, crash-detach/respawn, direct monitor samples,
accounting resets) and compared *bit-exactly* after every step:
utilisation matrices, per-PM demand vectors, overload sets,
eviction-candidate scores, SLA accounting, monitor state, and the
verdict of the invariant checker.

This suite is the license for every whole-array rewrite in
``repro.datacenter.columnar``: if a vectorised op ever reorders a float
accumulation or lets a view go stale, some generated sequence here
diverges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.states import pm_state, vm_action
from repro.datacenter.cluster import DataCenter
from repro.simulator.observer import InvariantViolation, check_datacenter_invariants
from tests.conftest import make_trace

N_ROUNDS = 24


def make_pair(n_pms: int, n_vms: int, seed: int):
    """Object- and columnar-backed data centres with identical state."""
    trace = make_trace(n_vms, N_ROUNDS, seed)
    obj = DataCenter(n_pms, n_vms, trace, backend="object")
    col = DataCenter(n_pms, n_vms, trace, backend="columnar")
    obj.place_randomly(np.random.default_rng(seed))
    col.place_randomly(np.random.default_rng(seed))
    return obj, col


def eviction_scores(dc: DataCenter):
    """Per-PM eviction-candidate data, via each backend's natural path.

    For every PM: the per-VM action codes in membership order, the
    distinct actions in first-seen order (what ``pi_out`` is offered),
    and for each distinct action the ``(memory demand, vm_id)``-minimal
    VM (what ``findVM`` would evict).
    """
    out = []
    store = dc.store
    for pm in dc.pms:
        if store is not None:
            idx = store.member_index(pm.pm_id)
            codes = [int(c) for c in store.vm_action_codes(idx, use_average=True)]
            ids = [int(v) for v in idx]
        else:
            codes = [vm_action(vm, use_average=True) for vm in pm.vms]
            ids = [vm.vm_id for vm in pm.vms]
        first_seen = list(dict.fromkeys(codes))
        chosen = {}
        for action in first_seen:
            group = [dc.vm(v) for v, c in zip(ids, codes) if c == action]
            best = min(group, key=lambda v: (v.current_demand_abs()[1], v.vm_id))
            chosen[action] = best.vm_id
        out.append((codes, first_seen, chosen))
    return out


def invariant_verdict(dc: DataCenter):
    try:
        check_datacenter_invariants(dc)
        return None
    except InvariantViolation:
        return "violation"


def assert_equivalent(obj: DataCenter, col: DataCenter) -> None:
    # Structure: placement array and per-PM membership order.
    np.testing.assert_array_equal(obj.placement(), col.placement())
    for po, pc in zip(obj.pms, col.pms):
        assert [v.vm_id for v in po.vms] == [v.vm_id for v in pc.vms]
        assert po.asleep == pc.asleep

    # Monitor state, bit for bit.
    np.testing.assert_array_equal(obj._cur, col.store.cur)
    np.testing.assert_array_equal(obj._avg, col.store.avg)
    assert [v.monitor.count for v in obj.vms] == [v.monitor.count for v in col.vms]

    # Aggregate views, bit for bit.
    for use_average in (False, True):
        np.testing.assert_array_equal(
            obj.utilization_matrix(use_average=use_average),
            col.utilization_matrix(use_average=use_average),
        )
        np.testing.assert_array_equal(
            obj.pm_demand_matrix(use_average=use_average),
            col.pm_demand_matrix(use_average=use_average),
        )
        np.testing.assert_array_equal(
            obj.pm_demand_matrix(use_average=use_average, member_order=True),
            col.pm_demand_matrix(use_average=use_average, member_order=True),
        )
    np.testing.assert_array_equal(obj.cpu_utilizations(), col.cpu_utilizations())
    np.testing.assert_array_equal(obj.awake_mask(), col.awake_mask())
    assert obj.overloaded_count() == col.overloaded_count()
    assert obj.active_count() == col.active_count()

    # Per-PM views, overload set and state codes.
    placed = set(int(h) for h in obj.placement() if h >= 0)
    for po, pc in zip(obj.pms, col.pms):
        for use_average in (False, True):
            np.testing.assert_array_equal(
                po.demand_vector(use_average=use_average),
                pc.demand_vector(use_average=use_average),
            )
        assert po.is_overloaded() == pc.is_overloaded()
        assert po.cpu_utilization() == pc.cpu_utilization()
        assert po.total_utilization() == pc.total_utilization()
        assert pm_state(po, use_average=True) == pm_state(pc, use_average=True)
    assert placed == set(int(h) for h in col.placement() if h >= 0)

    # Eviction-candidate scoring (the findVM components).
    assert eviction_scores(obj) == eviction_scores(col)

    # SLA accounting.
    assert [p.active_seconds for p in obj.pms] == [p.active_seconds for p in col.pms]
    assert [p.saturated_seconds for p in obj.pms] == [
        p.saturated_seconds for p in col.pms
    ]
    assert [v.cpu_requested_mips_s for v in obj.vms] == [
        v.cpu_requested_mips_s for v in col.vms
    ]
    assert [v.cpu_degraded_mips_s for v in obj.vms] == [
        v.cpu_degraded_mips_s for v in col.vms
    ]
    assert [v.migrations for v in obj.vms] == [v.migrations for v in col.vms]

    # The invariant checker reaches the same verdict on both layouts.
    assert invariant_verdict(obj) == invariant_verdict(col)


def apply_action(dc: DataCenter, action) -> object:
    """Apply one action; returns the exception *type* it raised (or None)
    so both backends can be required to fail identically."""
    kind = action[0]
    try:
        if kind == "advance":
            if dc.current_round + 1 < N_ROUNDS:
                dc.advance_round()
        elif kind == "migrate":
            _, vm_i, dst_i = action
            dc.migrate(vm_i % dc.n_vms, dst_i % dc.n_pms)
        elif kind == "sleep":
            dc.pm(action[1] % dc.n_pms).asleep = True
        elif kind == "wake":
            dc.pm(action[1] % dc.n_pms).asleep = False
        elif kind == "detach":
            vm = dc.vm(action[1] % dc.n_vms)
            if vm.host_id is not None:
                dc.pm(vm.host_id).remove_vm(vm.vm_id)
        elif kind == "respawn":
            _, vm_i, pm_i = action
            vm = dc.vm(vm_i % dc.n_vms)
            if vm.host_id is None:
                dc.pm(pm_i % dc.n_pms).add_vm(vm)
        elif kind == "observe":
            _, vm_i, cpu, mem = action
            dc.vm(vm_i % dc.n_vms).observe_demand(
                np.array([cpu, mem]), dc.round_seconds
            )
        elif kind == "reset":
            dc.reset_accounting()
        else:  # pragma: no cover - strategy bug
            raise AssertionError(f"unknown action {kind}")
    except (ValueError, KeyError, RuntimeError) as exc:
        return type(exc)
    return None


fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)

actions = st.one_of(
    st.tuples(st.just("advance")),
    st.tuples(st.just("migrate"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("sleep"), st.integers(0, 63)),
    st.tuples(st.just("wake"), st.integers(0, 63)),
    st.tuples(st.just("detach"), st.integers(0, 63)),
    st.tuples(st.just("respawn"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("observe"), st.integers(0, 63), fractions, fractions),
    st.tuples(st.just("reset")),
)


class TestDifferentialEquivalence:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_pms=st.integers(min_value=2, max_value=8),
        ratio=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**20),
        sequence=st.lists(actions, min_size=1, max_size=30),
    )
    def test_random_action_sequences(self, n_pms, ratio, seed, sequence):
        obj, col = make_pair(n_pms, n_pms * ratio, seed)
        assert_equivalent(obj, col)
        for action in sequence:
            assert apply_action(obj, action) == apply_action(col, action), (
                f"backends disagreed on the outcome of {action}"
            )
            assert_equivalent(obj, col)

    def test_canned_torture_sequence(self):
        """A deterministic dense sequence (fast tier-1 smoke even when
        hypothesis picks easy cases)."""
        obj, col = make_pair(5, 15, seed=3)
        sequence = [
            ("advance",),
            ("migrate", 0, 1),
            ("migrate", 0, 1),  # same dst again -> both must raise
            ("detach", 2),
            ("sleep", 4),
            ("advance",),
            ("respawn", 2, 3),
            ("wake", 4),
            ("observe", 7, 0.9, 0.25),
            ("migrate", 7, 4),
            ("reset",),
            ("advance",),
            ("migrate", 11, 2),
            ("sleep", 1),
            ("migrate", 5, 1),  # asleep destination -> both must raise
            ("advance",),
        ]
        for action in sequence:
            assert apply_action(obj, action) == apply_action(col, action)
            assert_equivalent(obj, col)


class TestWholeRunDigests:
    """End-to-end: full policy runs must produce identical bit-exact
    digests on both backends (the golden fixture is the arbiter)."""

    @pytest.mark.parametrize("policy_name", ["GLAP", "PABFD"])
    def test_object_backend_matches_golden(self, policy_name, monkeypatch):
        import json

        from tests.golden.test_golden_runs import GOLDEN_PATH, compute_digest

        monkeypatch.setenv("GLAP_DC_BACKEND", "object")
        digest = compute_digest(policy_name, "clean")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert digest == golden[f"{policy_name}/clean"], (
            "object-backend run diverged from the golden fixture the "
            "columnar backend produces — the two layouts are no longer "
            "bit-identical"
        )

    def test_chaos_run_matches_on_both_backends(self, monkeypatch):
        import json

        from tests.golden.test_golden_runs import GOLDEN_PATH, compute_digest

        monkeypatch.setenv("GLAP_DC_BACKEND", "object")
        digest = compute_digest("GLAP", "chaos")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert digest == golden["GLAP/chaos"]
