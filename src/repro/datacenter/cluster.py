"""The data centre: PM/VM populations, placement and migration plumbing.

:class:`DataCenter` owns every PM and VM, performs the initial random
VM→PM mapping (identical across policies for a fair comparison, per the
paper's section V-A), refreshes demands from a trace each round, and is
the single chokepoint through which *all* policies migrate VMs — so
migration counting, energy and SLA accounting are uniform across GLAP
and the baselines.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.migration import MigrationModel, MigrationRecord
from repro.datacenter.pm import PhysicalMachine
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.datacenter.resources import (
    CPU,
    EC2_MICRO,
    HP_PROLIANT_ML110_G5,
    MachineSpec,
    N_RESOURCES,
)
from repro.datacenter.vm import VirtualMachine
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - break the traces<->datacenter cycle
    from repro.traces.base import TraceSource

__all__ = ["DataCenter", "default_backend", "BACKENDS"]

#: Supported state layouts.  ``columnar`` is the struct-of-arrays store
#: (the default, and the only one that scales past a few thousand PMs);
#: ``object`` is the original per-object layout, kept as the reference
#: implementation the differential equivalence suite compares against.
BACKENDS = ("columnar", "object")


def default_backend() -> str:
    """The backend used when ``DataCenter(backend=None)``.

    Overridable via the ``GLAP_DC_BACKEND`` environment variable, which
    exists so the whole test suite (goldens included) can be replayed on
    the object path without touching call sites.
    """
    env = os.environ.get("GLAP_DC_BACKEND", "").strip().lower()
    if not env:
        return "columnar"
    if env not in BACKENDS:
        raise ValueError(
            f"GLAP_DC_BACKEND={env!r} not recognised; expected one of {BACKENDS}"
        )
    return env


class DataCenter:
    """PMs + VMs + trace + migration accounting.

    Parameters
    ----------
    n_pms:
        Number of physical machines.
    n_vms:
        Number of virtual machines (paper: ``ratio * n_pms``).
    trace:
        Source of per-VM demand fractions per round.
    round_seconds:
        Simulated wall-clock duration of one round (paper: 120 s).
    pm_spec / vm_spec:
        Hardware models.
    migration_model:
        Cost model shared by every policy.
    backend:
        State layout — ``"columnar"`` (struct-of-arrays store, default)
        or ``"object"`` (per-object reference path).  ``None`` resolves
        via :func:`default_backend`.  Both layouts are bit-identical;
        the differential suite in ``tests/datacenter`` pins that.
    """

    def __init__(
        self,
        n_pms: int,
        n_vms: int,
        trace: "TraceSource",
        round_seconds: float = 120.0,
        pm_spec: MachineSpec = HP_PROLIANT_ML110_G5,
        vm_spec: MachineSpec = EC2_MICRO,
        migration_model: Optional[MigrationModel] = None,
        backend: Optional[str] = None,
    ) -> None:
        if n_pms <= 0:
            raise ValueError(f"n_pms must be > 0, got {n_pms}")
        if n_vms <= 0:
            raise ValueError(f"n_vms must be > 0, got {n_vms}")
        if trace.n_vms < n_vms:
            raise ValueError(
                f"trace provides {trace.n_vms} VM series but {n_vms} VMs requested"
            )
        self.backend = backend if backend is not None else default_backend()
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        self.round_seconds = check_positive(round_seconds, "round_seconds")
        #: The struct-of-arrays state store (``None`` on the object
        #: backend).  All hot-path array access goes through it; the
        #: ``pms`` / ``vms`` lists then hold flyweight views whose
        #: attributes are properties into the same arrays.
        self.store: Optional[ColumnarStore]
        self.pms: List[PhysicalMachine]
        self.vms: List[VirtualMachine]
        if self.backend == "columnar":
            self.store = ColumnarStore(n_pms, n_vms, pm_spec=pm_spec, vm_spec=vm_spec)
            self.pms = list(self.store.pms)
            self.vms = list(self.store.vms)
            # The demand matrices ARE the store's columns; monitors
            # alias their rows by construction, no bind() needed.
            self._cur = self.store.cur
            self._avg = self.store.avg
            self._vm_cap = self.store.vm_cap
            self._pm_cap = self.store.pm_cap
            self._vm_cpu_mips = self.store.vm_cpu_mips
            self._pm_cpu_mips = self.store.pm_cpu_mips
        else:
            self.store = None
            self.pms = [PhysicalMachine(i, pm_spec) for i in range(n_pms)]
            self.vms = [VirtualMachine(i, vm_spec) for i in range(n_vms)]
            # Columnar demand state: every VM monitor's current/average
            # row is a view into these matrices, so one vectorised
            # assignment per round refreshes all monitors at once
            # (advance_round) and the aggregate views reduce to
            # bincount/matrix ops instead of per-object Python loops.
            self._cur = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
            self._avg = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
            for i, vm in enumerate(self.vms):
                vm.monitor.bind(self._cur[i], self._avg[i])
            self._vm_cap = np.vstack([vm.spec.capacity_vector() for vm in self.vms])
            self._pm_cap = np.vstack([pm.spec.capacity_vector() for pm in self.pms])
            self._vm_cpu_mips = self._vm_cap[:, CPU].copy()
            self._pm_cpu_mips = self._pm_cap[:, CPU].copy()
        self._pm_by_id: Dict[int, PhysicalMachine] = {p.pm_id: p for p in self.pms}
        self._vm_by_id: Dict[int, VirtualMachine] = {v.vm_id: v for v in self.vms}
        self.trace = trace
        self.migration_model = (
            migration_model if migration_model is not None else MigrationModel()
        )
        self.migrations: List[MigrationRecord] = []
        self.current_round = -1  # no demand observed yet
        #: Structured event tracer (no-op by default; the runner installs
        #: a real one for `--trace` runs).  Never consumes randomness.
        self.tracer: Tracer = NULL_TRACER

    # -- lookups ----------------------------------------------------------

    def pm(self, pm_id: int) -> PhysicalMachine:
        try:
            return self._pm_by_id[pm_id]
        except KeyError:
            raise KeyError(f"no PM {pm_id}") from None

    def vm(self, vm_id: int) -> VirtualMachine:
        try:
            return self._vm_by_id[vm_id]
        except KeyError:
            raise KeyError(f"no VM {vm_id}") from None

    @property
    def n_pms(self) -> int:
        return len(self.pms)

    @property
    def n_vms(self) -> int:
        return len(self.vms)

    # -- initial placement ---------------------------------------------------

    def place_randomly(self, rng: np.random.Generator) -> None:
        """Uniform random initial VM→PM mapping (paper section V-A).

        The mapping respects nothing but randomness — overcommitted PMs at
        round 0 are possible and give consolidation something to fix.
        """
        if any(not pm.is_empty for pm in self.pms):
            raise RuntimeError("place_randomly called on a non-empty data centre")
        hosts = rng.integers(0, self.n_pms, size=self.n_vms)
        self.apply_placement(hosts)

    def apply_placement(self, hosts: Sequence[int]) -> None:
        """Install an explicit VM→PM mapping (index = vm_id, value = pm_id).

        Used to replay the *same* initial mapping across all policies.
        """
        if len(hosts) != self.n_vms:
            raise ValueError(f"expected {self.n_vms} host ids, got {len(hosts)}")
        if self.store is not None and not np.any(self.store.host >= 0):
            # Vectorised install on an empty store; membership order is
            # ascending vm_id per PM, exactly as the loop below builds it.
            self.store.apply_placement(np.asarray(hosts, dtype=np.int64))
            return
        for vm, host in zip(self.vms, hosts):
            if vm.host_id is not None:
                self.pm(vm.host_id).remove_vm(vm.vm_id)
            self.pm(int(host)).add_vm(vm)

    def placement(self) -> np.ndarray:
        """Current VM→PM mapping as an array (``-1`` if unplaced)."""
        if self.store is not None:
            return self.store.host.copy()
        return np.array(
            [vm.host_id if vm.host_id is not None else -1 for vm in self.vms],
            dtype=np.int64,
        )

    # -- per-round demand refresh ------------------------------------------------

    def advance_round(self) -> int:
        """Move to the next trace round: refresh all VM demands, accrue
        PM active/saturated time.  Returns the new round index.

        The demand refresh is a single vectorised update of the shared
        demand matrices all VM monitors are bound to; the per-VM Python
        loop only bumps scalar bookkeeping.
        """
        self.current_round += 1
        demands = np.asarray(
            self.trace.demands_at(self.current_round), dtype=np.float64
        )[: self.n_vms]
        if demands.shape != (self.n_vms, N_RESOURCES):
            raise ValueError(
                f"trace returned demand shape {demands.shape}, expected "
                f"({self.n_vms}, {N_RESOURCES})"
            )
        if np.any(demands < 0.0) or np.any(demands > 1.0):
            raise ValueError("demand fractions must be in [0, 1]")
        if self.store is not None:
            # Whole-array round update: monitors, SLALM accrual and
            # SLAVO accounting in a handful of vector ops, element-wise
            # identical to the object path below.
            self.store.advance_round_update(demands, self.round_seconds)
            return self.current_round
        # The paper's {c, v} piggyback update, for every monitor at once:
        # v' = (c*v + d) / (c + 1).  Counts are gathered (not assumed
        # uniform) so directly-observed monitors stay correct.
        counts = np.fromiter(
            (vm.monitor.count for vm in self.vms), dtype=np.float64, count=self.n_vms
        )[:, None]
        self._avg[:] = (counts * self._avg + demands) / (counts + 1.0)
        self._cur[:] = demands
        # Requested CPU accrual (the SLALM C_r term), same op order as the
        # scalar path: (d * mips) * round_seconds.
        cpu_req = (demands[:, CPU] * self._vm_cpu_mips) * self.round_seconds
        for vm, inc in zip(self.vms, cpu_req):
            vm.monitor.count += 1
            vm.cpu_requested_mips_s += float(inc)
        pm_cpu = self.pm_cpu_demand_mips()
        for pm in self.pms:
            if not pm.asleep:
                pm.account_round(self.round_seconds, float(pm_cpu[pm.pm_id]))
        return self.current_round

    # -- migration (the single chokepoint) ------------------------------------------

    def migrate(self, vm_id: int, dst_pm_id: int) -> MigrationRecord:
        """Live-migrate a VM to ``dst_pm_id`` with full cost accounting.

        Raises if the VM is unplaced, the destination is the source, or
        the destination is asleep (policies must wake PMs explicitly).
        """
        vm = self.vm(vm_id)
        if vm.host_id is None:
            raise RuntimeError(f"VM {vm_id} is not placed")
        src = self.pm(vm.host_id)
        dst = self.pm(dst_pm_id)
        if dst.pm_id == src.pm_id:
            raise ValueError(f"VM {vm_id}: destination equals source PM {src.pm_id}")
        if dst.asleep:
            raise RuntimeError(f"destination PM {dst.pm_id} is asleep")

        record = self.migration_model.cost_of(self.current_round, vm, src, dst)
        src.remove_vm(vm.vm_id)
        dst.add_vm(vm)
        vm.record_migration_degradation(record.degraded_mips_s)
        self.migrations.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "migration",
                self.current_round,
                src.pm_id,
                vm=vm.vm_id,
                dst=dst.pm_id,
                energy_j=record.energy_j,
                duration_s=record.duration_s,
            )
        return record

    def reset_accounting(self) -> None:
        """Zero SLA and migration accounting (between warmup and
        evaluation) without touching placement, demand or sleep state."""
        self.migrations.clear()
        if self.store is not None:
            self.store.reset_accounting()
            return
        for pm in self.pms:
            pm.active_seconds = 0.0
            pm.saturated_seconds = 0.0
        for vm in self.vms:
            vm.cpu_requested_mips_s = 0.0
            vm.cpu_degraded_mips_s = 0.0
            vm.migrations = 0

    # -- aggregate views -----------------------------------------------------------

    def active_pms(self) -> List[PhysicalMachine]:
        if self.store is not None:
            pms = self.pms
            return [pms[i] for i in np.flatnonzero(~self.store.pm_asleep)]
        return [pm for pm in self.pms if not pm.asleep]

    def active_count(self) -> int:
        if self.store is not None:
            return int(np.count_nonzero(~self.store.pm_asleep))
        return sum(1 for pm in self.pms if not pm.asleep)

    def awake_mask(self) -> np.ndarray:
        """Boolean (n_pms,) array: True where the PM is awake (a fresh
        array each call — safe for callers to mask/index with)."""
        if self.store is not None:
            return self.store.awake_mask()
        return np.fromiter(
            (not pm.asleep for pm in self.pms), dtype=bool, count=self.n_pms
        )

    def vm_demand_matrix(self) -> np.ndarray:
        """(n_vms, N_RESOURCES) current absolute demand ([MIPS, MB]) per
        VM; row ``v`` equals ``vm(v).current_demand_abs()``.  Read-only."""
        out = self._cur * self._vm_cap
        out.setflags(write=False)
        return out

    def member_matrix(self) -> np.ndarray:
        """(n_pms, k_max) VM ids per PM in membership insertion order,
        padded with -1 (``k_max`` is the largest VM count on one PM)."""
        if self.store is not None:
            rows: Sequence[Sequence[int]] = self.store.members
        else:
            rows = [[vm.vm_id for vm in pm.vms] for pm in self.pms]
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=self.n_pms)
        out = np.full((self.n_pms, int(counts.max())), -1, dtype=np.intp)
        # A row-major boolean assignment fills each row's first slots.
        out[np.arange(out.shape[1]) < counts[:, None]] = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.intp, count=int(counts.sum())
        )
        return out

    def _sum_in_member_order(self, per_vm: np.ndarray) -> np.ndarray:
        """Per-PM sums of per-VM values (indexed by vm_id), each PM's VMs
        added one at a time in membership insertion order."""
        padded = np.zeros((self.n_vms + 1,) + per_vm.shape[1:], dtype=np.float64)
        padded[:-1] = per_vm
        out = np.zeros((self.n_pms,) + per_vm.shape[1:], dtype=np.float64)
        # Padding slots (-1) read the zero row and x + 0.0 == x, so column
        # by column every row accumulates exactly its own VMs, in order.
        for column in np.ascontiguousarray(self.member_matrix().T):
            out += np.take(padded, column, axis=0)
        return out

    def pm_demand_matrix(
        self, *, use_average: bool = False, member_order: bool = False
    ) -> np.ndarray:
        """(n_pms, N_RESOURCES) absolute demand ([MIPS, MB]) aggregated
        per host PM, uncapped; sleep state is ignored (a sleeping PM's
        hosted VMs still show up, as in ``PhysicalMachine.demand_vector``).

        By default each PM's VMs are summed in ``vm_id`` order.
        ``member_order=True`` sums them sequentially in membership
        insertion order instead, the order ``PhysicalMachine.demand_vector``
        and ``cpu_utilization`` use, so every row equals that PM's
        ``demand_vector()`` bit for bit.  The two orders differ in the
        last bits once migrations have reordered a PM's membership.

        Returned read-only: it is a derived snapshot, and freezing it
        guarantees a caller mutating its copy of "the utilisations"
        cannot silently corrupt simulator state.
        """
        if member_order:
            frac = self._avg if use_average else self._cur
            out = self._sum_in_member_order(frac * self._vm_cap)
            out.setflags(write=False)
            return out
        if self.store is not None:
            out = self.store.pm_demand_matrix(use_average=use_average)
            out.setflags(write=False)
            return out
        frac = self._avg if use_average else self._cur
        abs_demand = frac * self._vm_cap
        hosts = self.placement()
        placed = hosts >= 0
        h = hosts[placed]
        out = np.empty((self.n_pms, N_RESOURCES), dtype=np.float64)
        for r in range(N_RESOURCES):
            out[:, r] = np.bincount(
                h, weights=abs_demand[placed, r], minlength=self.n_pms
            )
        out.setflags(write=False)
        return out

    def pm_cpu_demand_mips(self, *, member_order: bool = False) -> np.ndarray:
        """(n_pms,) aggregate current CPU demand in MIPS, uncapped.
        ``member_order`` as in :meth:`pm_demand_matrix`."""
        if member_order:
            return self._sum_in_member_order(self._cur[:, CPU] * self._vm_cpu_mips)
        if self.store is not None:
            return self.store.pm_cpu_demand_mips()
        hosts = self.placement()
        placed = hosts >= 0
        return np.bincount(
            hosts[placed],
            weights=self._cur[placed, CPU] * self._vm_cpu_mips[placed],
            minlength=self.n_pms,
        )

    def cpu_utilizations(self) -> np.ndarray:
        """(n_pms,) current CPU utilisation fractions, capped at 1
        (vectorised counterpart of ``PhysicalMachine.cpu_utilization``).
        Returned read-only — see :meth:`pm_demand_matrix`."""
        u = self.pm_cpu_demand_mips() / self._pm_cpu_mips
        np.minimum(u, 1.0, out=u)
        u.setflags(write=False)
        return u

    def overloaded_count(self) -> int:
        u = self.pm_demand_matrix() / self._pm_cap
        overloaded = np.any(u >= 1.0, axis=1)
        return int(np.count_nonzero(overloaded & self.awake_mask()))

    def utilization_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_pms, N_RESOURCES) utilisation snapshot; sleeping PMs are 0.
        Returned read-only — see :meth:`pm_demand_matrix`."""
        u = self.pm_demand_matrix(use_average=use_average) / self._pm_cap
        np.minimum(u, 1.0, out=u)
        u[~self.awake_mask()] = 0.0
        u.setflags(write=False)
        return u

    def total_migration_energy_j(self) -> float:
        return float(sum(m.energy_j for m in self.migrations))

    def migration_count(self) -> int:
        return len(self.migrations)

    def __repr__(self) -> str:
        return (
            f"DataCenter(pms={self.n_pms}, vms={self.n_vms}, "
            f"round={self.current_round}, migrations={len(self.migrations)})"
        )
