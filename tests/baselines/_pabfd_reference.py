"""The per-object PABFD controller, frozen as a differential oracle.

This is the controller as it was before the control pass moved onto
per-pass arrays: every candidate host re-runs the MAD threshold and
re-sums its VMs' demand, for every VM being placed.  It is slow but
obviously faithful to Beloglazov & Buyya's pass, and
``test_pabfd_equivalence.py`` asserts that the array pass makes exactly
the same decisions.  The class body is kept verbatim; it uses the 1-D
path of ``mad_upper_threshold``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.baselines.pabfd import PabfdConfig
from repro.baselines.thresholds import mad_upper_threshold
from repro.datacenter.cluster import DataCenter
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.power import LinearPowerModel
from repro.datacenter.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation

__all__ = ["PabfdController"]


class PabfdController:
    """The central manager: global view, per-round consolidation pass."""

    def __init__(
        self,
        dc: DataCenter,
        config: PabfdConfig,
        power_model: Optional[LinearPowerModel] = None,
    ) -> None:
        self.dc = dc
        self.config = config
        self.power_model = power_model if power_model is not None else LinearPowerModel()
        self._history: Dict[int, Deque[float]] = {
            pm.pm_id: deque(maxlen=config.history_window) for pm in dc.pms
        }
        self.enabled = False
        self.wake_ups = 0
        self.switch_offs = 0
        self._rounds_seen = 0

    # -- per-round hooks -------------------------------------------------------

    def record_histories(self) -> None:
        """Monitoring runs every round, even before consolidation starts."""
        for pm in self.dc.pms:
            if not pm.asleep:
                self._history[pm.pm_id].append(pm.cpu_utilization())

    def step(self, sim: "Simulation") -> None:
        """Monitoring every round; a consolidation pass only at control
        points (every ``control_period_rounds`` rounds)."""
        self.record_histories()
        if not self.enabled:
            return
        self._rounds_seen += 1
        if self._rounds_seen % self.config.control_period_rounds != 0:
            return
        to_place = self._shed_overloaded()
        self._place(to_place, sim)
        self._drain_underloaded(sim)

    # -- thresholds ----------------------------------------------------------------

    def threshold_of(self, pm_id: int) -> float:
        return mad_upper_threshold(
            list(self._history[pm_id]),
            safety=self.config.safety,
            floor=self.config.threshold_floor,
        )

    # -- phase 1: overload detection + MMT selection -----------------------------------

    def _shed_overloaded(self) -> List[VirtualMachine]:
        shed: List[VirtualMachine] = []
        for pm in self.dc.active_pms():
            threshold = self.threshold_of(pm.pm_id)
            # ">=" matters: a host pinned at exactly 100% has MAD 0 and a
            # threshold of 1.0; strict ">" would never relieve it.
            if pm.cpu_utilization() < threshold:
                continue
            # Minimum Migration Time: smallest memory demand first.
            candidates = sorted(
                pm.vms, key=lambda v: (v.current_demand_abs()[1], v.vm_id)
            )
            projected = pm.cpu_utilization()
            evicted = 0
            for vm in candidates:
                if projected < threshold or evicted >= self.config.max_evictions_per_host:
                    break
                projected -= vm.cpu_demand_mips() / pm.spec.cpu_mips
                shed.append(vm)
                evicted += 1
        return shed

    # -- phase 2: power-aware BFD placement --------------------------------------------

    def _power_increase(self, pm: PhysicalMachine, vm: VirtualMachine) -> float:
        u_now = pm.cpu_utilization()
        u_after = min(1.0, u_now + vm.cpu_demand_mips() / pm.spec.cpu_mips)
        return self.power_model.power(u_after) - self.power_model.power(u_now)

    def _fits_below_threshold(self, pm: PhysicalMachine, vm: VirtualMachine) -> bool:
        if not pm.fits(vm):
            return False
        u_after = (
            sum(v.cpu_demand_mips() for v in pm.vms) + vm.cpu_demand_mips()
        ) / pm.spec.cpu_mips
        # Strictly below the threshold: filling to exactly 1.0 would
        # place the receiver straight into overload.
        return u_after < self.threshold_of(pm.pm_id)

    def _choose_host(
        self, vm: VirtualMachine, exclude: int
    ) -> Optional[PhysicalMachine]:
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            if self._fits_below_threshold(pm, vm):
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None

    def _place(self, vms: List[VirtualMachine], sim: "Simulation") -> None:
        # Decreasing CPU demand — the "D" of PABFD.
        for vm in sorted(
            vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)
        ):
            src = vm.host_id
            assert src is not None
            host = self._choose_host(vm, exclude=src)
            if host is None and self.config.allow_wake_ups:
                host = self._wake_one(sim)
            if host is not None and host.pm_id != src:
                self.dc.migrate(vm.vm_id, host.pm_id)
            # else: nowhere to go — the VM stays; the host remains overloaded.

    def _wake_one(self, sim: "Simulation") -> Optional[PhysicalMachine]:
        """Centralised privilege: reactivate one sleeping host."""
        for pm in self.dc.pms:
            if pm.asleep:
                pm.asleep = False
                sim.wake(pm.pm_id)
                self._history[pm.pm_id].clear()
                self.wake_ups += 1
                return pm
        return None

    # -- phase 3: underload draining ----------------------------------------------------

    def _drain_underloaded(self, sim: "Simulation") -> None:
        """Beloglazov's underload pass: repeatedly drain the least
        utilised host until a drain fails (no feasible full placement)."""
        drained: set = set()
        while True:
            active = [
                pm for pm in self.dc.active_pms()
                if not pm.is_empty and pm.pm_id not in drained
            ]
            if len(active) <= 1:
                return
            source = min(active, key=lambda pm: (pm.cpu_utilization(), pm.pm_id))
            if not self._drain_one(source, sim):
                return
            drained.add(source.pm_id)

    def _drain_one(self, source: PhysicalMachine, sim: "Simulation") -> bool:
        """Plan a full drain of ``source``; abort (placing nothing)
        unless every VM fits.  Returns True when the host was emptied."""
        plan: List[Tuple[int, int]] = []
        placed_load: Dict[int, float] = {}
        for vm in sorted(source.vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)):
            host = self._choose_host_with_extra(vm, source.pm_id, placed_load)
            if host is None:
                return False
            plan.append((vm.vm_id, host.pm_id))
            placed_load[host.pm_id] = placed_load.get(host.pm_id, 0.0) + vm.cpu_demand_mips()
        for vm_id, host_id in plan:
            self.dc.migrate(vm_id, host_id)
        if source.is_empty:
            source.asleep = True
            node = sim.node(source.pm_id)
            if node.is_up:
                node.sleep()
            self.switch_offs += 1
            if sim.tracer.enabled:
                sim.tracer.emit("pm_sleep", sim.round_index, source.pm_id)
            return True
        return False

    def _choose_host_with_extra(
        self, vm: VirtualMachine, exclude: int, placed_load: Dict[int, float]
    ) -> Optional[PhysicalMachine]:
        """Like _choose_host but accounts for load already planned onto
        hosts during this drain (the migrations have not executed yet)."""
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            extra = placed_load.get(pm.pm_id, 0.0)
            u_after = (
                sum(v.cpu_demand_mips() for v in pm.vms) + extra + vm.cpu_demand_mips()
            ) / pm.spec.cpu_mips
            mem_after = (
                pm.demand_vector()[1] + vm.current_demand_abs()[1]
            ) / pm.spec.mem_mb
            if u_after < self.threshold_of(pm.pm_id) and mem_after <= 1.0:
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None
