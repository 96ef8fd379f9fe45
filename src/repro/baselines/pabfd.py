"""PABFD baseline — centralised Power-Aware Best Fit Decreasing.

Beloglazov & Buyya (CCPE 2012), as configured by the paper: "a
centralized server periodically monitors resources usage of PMs and
using global information makes consolidation decisions.  It calculates
[the] upper threshold by offline statistical analysis of historical data
... The Median Absolute Deviation (MAD) is used as an estimator."

Per round the central controller:

1. records every PM's CPU utilisation into its history window;
2. **overload detection** — a host whose CPU utilisation exceeds its
   MAD-adaptive threshold sheds VMs chosen by Minimum Migration Time
   (smallest memory first — cheapest to move) until it projects below
   the threshold;
3. **underload detection** — the least-utilised active host is drained
   entirely if all its VMs can be placed elsewhere, then switched off;
4. **placement** — Power-Aware BFD: VMs sorted by decreasing CPU demand,
   each placed on the active host with the least power increase that
   fits and stays below its threshold; being centralised, PABFD may wake
   sleeping hosts when nothing else fits (the distributed protocols
   cannot).

Steps 2-4 run only at control points, on per-host arrays built once per
pass (see :class:`PabfdController` and DESIGN.md §5d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import ConsolidationPolicy
from repro.baselines.thresholds import mad_upper_threshold
from repro.datacenter.cluster import DataCenter
from repro.datacenter.power import LinearPowerModel
from repro.datacenter.resources import CPU, MEM
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.util.rng import RngStreams

__all__ = ["PabfdConfig", "PabfdController", "PabfdPolicy", "COUNTERS"]

#: The controller's decision counters, in telemetry order.  All are
#: cumulative over the run and ride in checkpoints.
COUNTERS = (
    "switch_offs",
    "wake_ups",
    "control_passes",
    "hosts_over_threshold",
    "vms_shed",
    "placements_failed",
    "drains_attempted",
    "drains_failed",
)


@dataclass(frozen=True)
class PabfdConfig:
    """PABFD knobs (defaults follow Beloglazov & Buyya's MAD variant)."""

    safety: float = 2.58
    history_window: int = 30
    threshold_floor: float = 0.5
    #: Upper bound on VMs shed from one overloaded host per round.
    max_evictions_per_host: int = 10
    #: The central manager runs "periodically" (Beloglazov: every 5
    #: simulated minutes); with 2-minute rounds that is one control pass
    #: every few rounds.  Overloads persist between control points —
    #: the latency cost of centralisation.
    control_period_rounds: int = 6
    #: Whether the centralised manager may reactivate sleeping hosts.
    #: Beloglazov's original system can; the paper's PeerSim
    #: reimplementation evidently could not (its PABFD packs *below* the
    #: BFD baseline with 58% of PMs overloaded — impossible if overload
    #: relief could reopen capacity), so the reproduction defaults to
    #: False.  Flip for the "PABFD with host reactivation" ablation.
    allow_wake_ups: bool = False

    def __post_init__(self) -> None:
        check_positive(self.safety, "safety")
        check_positive(self.history_window, "history_window")
        check_fraction(self.threshold_floor, "threshold_floor")
        check_positive(self.max_evictions_per_host, "max_evictions_per_host")
        check_positive(self.control_period_rounds, "control_period_rounds")


class PabfdController:
    """The central manager: global view, per-round consolidation pass.

    A control pass works on per-host arrays built once per pass, not on
    per-object scans:

    * ``_thr`` — every host's MAD threshold, one vectorised call per pass
      (histories only change in :meth:`record_histories`);
    * ``_cpu`` / ``_mem`` — every host's demand in MIPS / MB.  Each
      value is the sequential sum of the host's VMs in membership
      insertion order, which is exactly ``pm.demand_vector()`` and
      ``pm.cpu_utilization()`` (a ``vm_id``-order ``bincount`` differs in
      the last bits once migrations have reordered a host).  After a
      migration only the source and destination entries change:
      appending a VM extends the destination's sum exactly, and the
      source is re-summed;
    * ``_util``, ``_power``, ``_count``, ``_active`` — capped CPU
      utilisation, power draw at it, VM count and awake flag, kept
      current with the loads.

    Host choice is one masked argmin over the power increase of the
    ``pm_id``-ordered candidates; ``np.argmin`` returns the first
    minimum, so ties go to the lowest ``pm_id``.  Every migration still
    goes through ``dc.migrate``.
    """

    def __init__(
        self,
        dc: DataCenter,
        config: PabfdConfig,
        power_model: Optional[LinearPowerModel] = None,
    ) -> None:
        self.dc = dc
        self.config = config
        self.power_model = power_model if power_model is not None else LinearPowerModel()
        n, window = dc.n_pms, config.history_window
        # CPU-utilisation histories as a ring buffer, one row per host.
        # NaN marks an empty slot, so the matrix is the threshold input
        # as it stands; _fill counts a row's samples, _cursor is its next
        # slot.
        self._ring = np.full((n, window), np.nan)
        self._fill = np.zeros(n, dtype=np.int64)
        self._cursor = np.zeros(n, dtype=np.int64)
        self.enabled = False
        self._rounds_seen = 0
        self.switch_offs = 0
        self.wake_ups = 0
        self.control_passes = 0
        self.hosts_over_threshold = 0
        self.vms_shed = 0
        self.placements_failed = 0
        self.drains_attempted = 0
        self.drains_failed = 0
        cap = np.array([pm.spec.capacity_vector() for pm in dc.pms])
        self._cpu_cap, self._mem_cap = cap[:, CPU].copy(), cap[:, MEM].copy()
        # The per-pass arrays (see the class docstring) are built by
        # _begin_pass.

    def counters(self) -> Dict[str, int]:
        """The cumulative decision counters, in :data:`COUNTERS` order."""
        return {name: getattr(self, name) for name in COUNTERS}

    # -- histories -------------------------------------------------------------

    def record_histories(self) -> None:
        """Monitoring runs every round, even before consolidation starts:
        every awake host appends its CPU utilisation to its window."""
        dc = self.dc
        demand = dc.pm_cpu_demand_mips(member_order=True)
        util = np.minimum(demand / self._cpu_cap, 1.0)
        rows = np.flatnonzero(dc.awake_mask())
        window = self.config.history_window
        self._ring[rows, self._cursor[rows]] = util[rows]
        self._cursor[rows] = (self._cursor[rows] + 1) % window
        self._fill[rows] = np.minimum(self._fill[rows] + 1, window)

    def history(self, pm_id: int) -> List[float]:
        """Host ``pm_id``'s CPU-utilisation window, oldest sample first."""
        fill = int(self._fill[pm_id])
        slots = (self._cursor[pm_id] - fill + np.arange(fill)) % self.config.history_window
        return self._ring[pm_id, slots].tolist()

    def load_history(self, pm_id: int, values: Sequence[float]) -> None:
        """Replace host ``pm_id``'s window by ``values`` (oldest first; only
        the last ``history_window`` are kept)."""
        kept = [float(v) for v in values][-self.config.history_window:]
        self._clear_history(pm_id)
        self._ring[pm_id, : len(kept)] = kept
        self._fill[pm_id] = len(kept)
        self._cursor[pm_id] = len(kept) % self.config.history_window

    def _clear_history(self, pm_id: int) -> None:
        self._ring[pm_id] = np.nan
        self._fill[pm_id] = 0
        self._cursor[pm_id] = 0

    def threshold_of(self, pm_id: int) -> float:
        """Host ``pm_id``'s MAD threshold from its current window."""
        return float(
            mad_upper_threshold(
                self.history(pm_id),
                safety=self.config.safety,
                floor=self.config.threshold_floor,
            )
        )

    # -- the control pass ------------------------------------------------------

    def step(self, sim: "Simulation") -> None:
        """Monitoring every round; a consolidation pass only at control
        points (every ``control_period_rounds`` rounds)."""
        self.record_histories()
        if not self.enabled:
            return
        self._rounds_seen += 1
        if self._rounds_seen % self.config.control_period_rounds != 0:
            return
        self._begin_pass()
        to_place = self._shed_overloaded()
        self._place(to_place, sim)
        self._drain_underloaded(sim)

    def _begin_pass(self) -> None:
        """Build the per-pass arrays from the data centre and histories."""
        dc = self.dc
        self.control_passes += 1
        vm_load = dc.vm_demand_matrix()
        self._vm_cpu = vm_load[:, CPU].copy()
        self._vm_mem = vm_load[:, MEM].copy()
        load = dc.pm_demand_matrix(member_order=True)
        self._cpu = load[:, CPU].copy()
        self._mem = load[:, MEM].copy()
        self._util = np.minimum(self._cpu / self._cpu_cap, 1.0)
        self._power = self.power_model.power_array(self._util)
        hosts = dc.placement()
        self._count = np.bincount(hosts[hosts >= 0], minlength=dc.n_pms)
        self._active = dc.awake_mask()
        # A sleeping host keeps 1.0, the threshold of the empty window it
        # has once woken.
        self._thr = np.ones(dc.n_pms)
        self._thr[self._active] = mad_upper_threshold(
            self._ring[self._active],
            safety=self.config.safety,
            floor=self.config.threshold_floor,
        )

    def _members(self, pm_id: int) -> List[int]:
        return [vm.vm_id for vm in self.dc.pm(pm_id).vms]

    def _migrate(self, vm_id: int, src: int, dst: int) -> None:
        """``dc.migrate`` plus the refresh of the two affected rows."""
        self.dc.migrate(vm_id, dst)
        self._cpu[dst] += self._vm_cpu[vm_id]
        self._mem[dst] += self._vm_mem[vm_id]
        self._cpu[src], self._mem[src] = self.dc.pm(src).demand_vector()
        self._count[src] -= 1
        self._count[dst] += 1
        rows = [src, dst]
        self._util[rows] = np.minimum(self._cpu[rows] / self._cpu_cap[rows], 1.0)
        self._power[rows] = self.power_model.power_array(self._util[rows])

    # -- phase 1: overload detection + MMT selection ---------------------------

    def _shed_overloaded(self) -> List[int]:
        # ">=" matters: a host pinned at exactly 100% has MAD 0 and a
        # threshold of 1.0; strict ">" would never relieve it.
        over = np.flatnonzero(self._active & (self._util >= self._thr))
        self.hosts_over_threshold += int(over.size)
        cpu, mem = self._vm_cpu, self._vm_mem
        shed: List[int] = []
        for pm_id in over.tolist():
            threshold = self._thr[pm_id]
            # Minimum Migration Time: smallest memory demand first.
            candidates = sorted(self._members(pm_id), key=lambda v: (mem[v], v))
            projected = self._util[pm_id]
            for evicted, vm_id in enumerate(candidates):
                if projected < threshold or evicted >= self.config.max_evictions_per_host:
                    break
                projected -= cpu[vm_id] / self._cpu_cap[pm_id]
                shed.append(vm_id)
        self.vms_shed += len(shed)
        return shed

    # -- phase 2: power-aware BFD placement ------------------------------------

    def _choose_host(
        self, vm_id: int, exclude: int, planned: Optional[np.ndarray] = None
    ) -> Optional[int]:
        """The active host other than ``exclude`` with the least power
        increase (ties: lowest ``pm_id``) that takes ``vm_id`` strictly
        below its threshold, or None.

        Without ``planned`` the host must also fit the VM in every
        resource.  With it (a drain plan), ``planned`` adds the CPU load
        already planned onto each host and memory is checked as a ratio.
        """
        vm_cpu = self._vm_cpu[vm_id]
        cpu_after = (self._cpu if planned is None else self._cpu + planned) + vm_cpu
        mem_after = self._mem + self._vm_mem[vm_id]
        # Strictly below the threshold: filling to exactly 1.0 would
        # place the receiver straight into overload.
        ok = self._active & (cpu_after / self._cpu_cap < self._thr)
        if planned is None:
            ok &= (cpu_after <= self._cpu_cap) & (mem_after <= self._mem_cap)
        else:
            ok &= mem_after / self._mem_cap <= 1.0
        ok[exclude] = False
        hosts = np.flatnonzero(ok)
        if hosts.size == 0:
            return None
        u_after = np.minimum(1.0, self._util[hosts] + vm_cpu / self._cpu_cap[hosts])
        increase = self.power_model.power_array(u_after) - self._power[hosts]
        return int(hosts[np.argmin(increase)])

    def _place(self, vms: List[int], sim: "Simulation") -> None:
        # Decreasing CPU demand — the "D" of PABFD.
        cpu = self._vm_cpu
        for vm_id in sorted(vms, key=lambda v: (-cpu[v], v)):
            src = self.dc.vm(vm_id).host_id
            assert src is not None
            dst = self._choose_host(vm_id, exclude=src)
            if dst is None and self.config.allow_wake_ups:
                dst = self._wake_one(sim)
            if dst is None:
                # Nowhere to go: the VM stays; the host remains overloaded.
                self.placements_failed += 1
            elif dst != src:
                self._migrate(vm_id, src, dst)

    def _wake_one(self, sim: "Simulation") -> Optional[int]:
        """Centralised privilege: reactivate one sleeping host."""
        asleep = np.flatnonzero(~self._active)
        if asleep.size == 0:
            return None
        pm_id = int(asleep[0])
        self.dc.pm(pm_id).asleep = False
        sim.wake(pm_id)
        self._clear_history(pm_id)
        self._active[pm_id] = True
        self.wake_ups += 1
        return pm_id

    # -- phase 3: underload draining -------------------------------------------

    def _drain_underloaded(self, sim: "Simulation") -> None:
        """Beloglazov's underload pass: repeatedly drain the least
        utilised non-empty active host (ties: lowest ``pm_id``) until a
        drain fails (no feasible full placement).  A drained host is
        asleep, so it is never picked again."""
        while True:
            candidates = self._active & (self._count > 0)
            if np.count_nonzero(candidates) <= 1:
                return
            source = int(np.argmin(np.where(candidates, self._util, np.inf)))
            self.drains_attempted += 1
            if not self._drain_one(source, sim):
                self.drains_failed += 1
                return

    def _drain_one(self, source: int, sim: "Simulation") -> bool:
        """Plan a full drain of ``source``; abort (placing nothing)
        unless every VM fits.  Returns True when the host was emptied.

        The plan tracks only the *CPU* load it has already placed on each
        receiver (``planned``).  Two known deviations follow, kept because
        fixing them moves every PABFD result: a plan can put several VMs
        on one receiver whose memory each fits alone but not together, so
        the receiver ends over its memory capacity; and the power increase
        that ranks receivers ignores the planned load.
        """
        cpu = self._vm_cpu
        planned = np.zeros(self.dc.n_pms)
        plan: List[Tuple[int, int]] = []
        for vm_id in sorted(self._members(source), key=lambda v: (-cpu[v], v)):
            dst = self._choose_host(vm_id, exclude=source, planned=planned)
            if dst is None:
                return False
            plan.append((vm_id, dst))
            planned[dst] += cpu[vm_id]
        for vm_id, dst in plan:
            self._migrate(vm_id, source, dst)
        self.dc.pm(source).asleep = True
        self._active[source] = False
        node = sim.node(source)
        if node.is_up:
            node.sleep()
        self.switch_offs += 1
        if sim.tracer.enabled:
            sim.tracer.emit("pm_sleep", sim.round_index, source)
        return True


class PabfdPolicy(ConsolidationPolicy):
    """PABFD wired onto a simulation (a controller, no node protocols)."""

    name = "PABFD"

    def __init__(self, config: Optional[PabfdConfig] = None) -> None:
        self.config = config if config is not None else PabfdConfig()
        self.controller: Optional[PabfdController] = None

    def attach(self, dc: DataCenter, sim: "Simulation", streams: "RngStreams",
               warmup_rounds: int) -> None:
        controller = self.controller = PabfdController(dc, self.config)
        if sim.telemetry.enabled:
            sim.telemetry.register_counters(
                "pabfd",
                lambda: {k: float(v) for k, v in controller.counters().items()},
            )

    def end_warmup(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.controller is not None, "attach() must run first"
        self.controller.enabled = True

    def step(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.controller is not None, "attach() must run first"
        self.controller.step(sim)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        assert self.controller is not None
        ctl = self.controller
        return {
            "histories": {str(pm.pm_id): ctl.history(pm.pm_id) for pm in ctl.dc.pms},
            "enabled": ctl.enabled,
            "rounds_seen": ctl._rounds_seen,
            **ctl.counters(),
        }

    def load_state_dict(self, state: dict) -> None:
        assert self.controller is not None
        ctl = self.controller
        for pm_id_str, values in state["histories"].items():
            ctl.load_history(int(pm_id_str), values)
        ctl.enabled = bool(state["enabled"])
        ctl._rounds_seen = int(state["rounds_seen"])
        # Checkpoints written before the decision counters existed carry
        # only switch_offs and wake_ups.
        for name in COUNTERS:
            setattr(ctl, name, int(state.get(name, 0)))
