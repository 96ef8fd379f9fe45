"""Columnar (struct-of-arrays) data-centre state.

:class:`ColumnarStore` holds *every* piece of mutable PM/VM state as
NumPy arrays keyed by PM/VM index — demand fractions, monitor counts,
placement, sleep flags, SLA accounting — plus per-PM VM membership as
insertion-ordered index lists (exportable as CSR arrays via
:meth:`ColumnarStore.csr`).  The familiar
:class:`~repro.datacenter.pm.PhysicalMachine` /
:class:`~repro.datacenter.vm.VirtualMachine` objects become *thin
views*: subclasses whose attributes are properties into the store, so
every existing protocol, baseline and metric reads and writes the same
arrays the vectorised round path operates on.

Bit-exactness contract (pinned by the differential equivalence suite in
``tests/datacenter/test_columnar_equivalence.py`` and the golden
digests): the store reproduces the object path's float operations in
the *same order*.

* A PM's demand vector is the row-sequential sum of its VMs' absolute
  demands **in membership insertion order** — ``(k, R)`` ``sum(axis=0)``
  accumulates lanes sequentially (no pairwise summation on strided
  reductions), matching the object path's ``total += vm_demand`` loop
  bit for bit.
* Whole-datacentre per-PM aggregation uses ``np.bincount`` over the
  host column, which also sums sequentially in VM-id order — the exact
  op the object path already used for its aggregate views.
* Scalar bookkeeping updates (``+= x``) are element-wise, so the
  vectorised form performs the identical IEEE operation per element.

Index-stability rules: PM index == ``pm_id`` and VM index == ``vm_id``
forever — machines are never compacted or renumbered, so a view object,
a trace event and a checkpoint row all agree on identity.  Membership
lists are the single structural truth; the ``host`` column is its
inverted index and the two are kept coherent by ``add_vm``/``remove_vm``
(the vectorised invariant check re-verifies the coherence every round).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.datacenter.monitor import VmMonitor
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.resources import (
    CPU,
    EC2_MICRO,
    HP_PROLIANT_ML110_G5,
    MachineSpec,
    N_RESOURCES,
)
from repro.datacenter.vm import VirtualMachine

__all__ = [
    "ColumnarStore",
    "ColumnarVmMonitor",
    "ColumnarVirtualMachine",
    "ColumnarPhysicalMachine",
]

_EMPTY_INDEX = np.empty(0, dtype=np.intp)

class ColumnarStore:
    """All mutable data-centre state, one array per column.

    Arrays are owned by the store; the PM/VM view objects in
    :attr:`pms` / :attr:`vms` are flyweights created once at
    construction.  Demand matrices are exposed writable to the views
    (monitor rows alias them); external read access goes through the
    :class:`~repro.datacenter.cluster.DataCenter`'s read-only
    properties.
    """

    __slots__ = (
        "n_pms",
        "n_vms",
        "pm_spec",
        "vm_spec",
        "cur",
        "avg",
        "monitor_count",
        "vm_cap",
        "pm_cap",
        "vm_cpu_mips",
        "pm_cpu_mips",
        "host",
        "pm_asleep",
        "pm_active_seconds",
        "pm_saturated_seconds",
        "vm_cpu_requested",
        "vm_cpu_degraded",
        "vm_migrations",
        "members",
        "_member_index",
        "pms",
        "vms",
        "_scr_cnt",
        "_scr_vms2",
        "_scr_vms",
        "_scr_vms_b",
        "_scr_pm_bool",
        "_scr_pm_bool2",
    )

    def __init__(
        self,
        n_pms: int,
        n_vms: int,
        pm_spec: MachineSpec = HP_PROLIANT_ML110_G5,
        vm_spec: MachineSpec = EC2_MICRO,
    ) -> None:
        if n_pms <= 0:
            raise ValueError(f"n_pms must be > 0, got {n_pms}")
        if n_vms <= 0:
            raise ValueError(f"n_vms must be > 0, got {n_vms}")
        self.n_pms = int(n_pms)
        self.n_vms = int(n_vms)
        self.pm_spec = pm_spec
        self.vm_spec = vm_spec

        # Demand fractions (VM-spec relative), the monitors' backing rows.
        self.cur = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        self.avg = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        self.monitor_count = np.zeros(n_vms, dtype=np.int64)

        # Capacities (per machine so heterogeneous fleets stay possible).
        self.vm_cap = np.tile(vm_spec.capacity_vector(), (n_vms, 1))
        self.pm_cap = np.tile(pm_spec.capacity_vector(), (n_pms, 1))
        self.vm_cpu_mips = self.vm_cap[:, CPU].copy()
        self.pm_cpu_mips = self.pm_cap[:, CPU].copy()

        # Placement: host column (-1 = unplaced) + per-PM insertion-ordered
        # membership lists, with a lazily-built ndarray cache per PM.
        self.host = np.full(n_vms, -1, dtype=np.int64)
        self.members: List[List[int]] = [[] for _ in range(n_pms)]
        self._member_index: List[Optional[np.ndarray]] = [_EMPTY_INDEX] * n_pms

        # PM power / SLAVO state.
        self.pm_asleep = np.zeros(n_pms, dtype=bool)
        self.pm_active_seconds = np.zeros(n_pms, dtype=np.float64)
        self.pm_saturated_seconds = np.zeros(n_pms, dtype=np.float64)

        # VM SLA state.
        self.vm_cpu_requested = np.zeros(n_vms, dtype=np.float64)
        self.vm_cpu_degraded = np.zeros(n_vms, dtype=np.float64)
        self.vm_migrations = np.zeros(n_vms, dtype=np.int64)

        # Round-update scratch (never checkpointed, never read between
        # calls) so the per-round hot path allocates nothing.
        self._scr_cnt = np.empty((n_vms, 1), dtype=np.float64)
        self._scr_vms2 = np.empty((n_vms, N_RESOURCES), dtype=np.float64)
        self._scr_vms = np.empty(n_vms, dtype=np.float64)
        self._scr_vms_b = np.empty(n_vms, dtype=bool)
        self._scr_pm_bool = np.empty(n_pms, dtype=bool)
        self._scr_pm_bool2 = np.empty(n_pms, dtype=bool)

        # The thin views (flyweights, one per machine, created once).
        self.pms: List[ColumnarPhysicalMachine] = [
            ColumnarPhysicalMachine(self, i) for i in range(n_pms)
        ]
        self.vms: List[ColumnarVirtualMachine] = [
            ColumnarVirtualMachine(self, i) for i in range(n_vms)
        ]

    # -- membership --------------------------------------------------------

    def member_index(self, pm_id: int) -> np.ndarray:
        """The PM's member VM ids as an ndarray, in insertion order.

        Cached until the membership changes; the cache is what keeps the
        per-exchange utilisation views cheap.
        """
        idx = self._member_index[pm_id]
        if idx is None:
            idx = np.asarray(self.members[pm_id], dtype=np.intp)
            self._member_index[pm_id] = idx
        return idx

    def add_member(self, pm_id: int, vm_id: int) -> None:
        """Append ``vm_id`` to the PM's membership (no admission checks —
        the view's ``add_vm`` performs the object path's validation)."""
        self.members[pm_id].append(vm_id)
        self._member_index[pm_id] = None
        self.host[vm_id] = pm_id

    def remove_member(self, pm_id: int, vm_id: int) -> None:
        """Drop ``vm_id`` from the PM's membership, preserving the
        relative order of the remaining VMs (list semantics match the
        object path's ordered-dict removal)."""
        self.members[pm_id].remove(vm_id)
        self._member_index[pm_id] = None
        self.host[vm_id] = -1

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Membership as CSR arrays ``(indptr, indices)``.

        ``indices[indptr[p]:indptr[p + 1]]`` are PM ``p``'s VM ids in
        insertion order.  Built on demand — the analytics and invariant
        layers consume this; the hot path uses the per-PM caches.
        """
        counts = np.fromiter(
            (len(m) for m in self.members), dtype=np.int64, count=self.n_pms
        )
        indptr = np.zeros(self.n_pms + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.intp)
        pos = 0
        for m in self.members:
            k = len(m)
            indices[pos : pos + k] = m
            pos += k
        return indptr, indices

    def apply_placement(self, hosts: np.ndarray) -> None:
        """Install a full VM→PM mapping on an empty store, vectorised.

        Membership order matches the object path exactly: VMs are
        assigned in ascending ``vm_id`` order, so each PM's list is its
        VMs in id order (``argsort(kind="stable")`` preserves that).
        """
        if np.any(self.host >= 0):
            raise RuntimeError("apply_placement on a non-empty store")
        hosts = np.asarray(hosts, dtype=np.int64)
        if hosts.shape != (self.n_vms,):
            raise ValueError(
                f"expected {self.n_vms} host ids, got shape {hosts.shape}"
            )
        if np.any(hosts < 0) or np.any(hosts >= self.n_pms):
            raise ValueError("host ids out of range")
        self.host[:] = hosts
        order = np.argsort(hosts, kind="stable")
        counts = np.bincount(hosts, minlength=self.n_pms)
        splits = np.cumsum(counts)[:-1]
        for pm_id, group in enumerate(np.split(order, splits)):
            self.members[pm_id] = [int(v) for v in group]
            self._member_index[pm_id] = group.astype(np.intp, copy=False)

    def load_placement(self, rows: List[List[int]]) -> None:
        """Install recorded per-PM membership rows wholesale (checkpoint
        restore).  Each row's order is preserved — it is the recorded
        float-summation order — and the host column is rebuilt from the
        rows after validating that they cover every VM exactly once."""
        if len(rows) != self.n_pms:
            raise ValueError(
                f"expected {self.n_pms} placement rows, got {len(rows)}"
            )
        counts = np.fromiter((len(r) for r in rows), dtype=np.int64, count=self.n_pms)
        flat = [int(v) for row in rows for v in row]
        indices = np.asarray(flat, dtype=np.intp)
        if indices.size != self.n_vms or np.any(
            np.bincount(indices, minlength=self.n_vms) != 1
        ):
            raise ValueError(
                "placement rows must cover every VM exactly once"
            )
        self.host[indices] = np.repeat(
            np.arange(self.n_pms, dtype=np.int64), counts
        )
        pos = 0
        for pm_id, k in enumerate(counts):
            self.members[pm_id] = flat[pos : pos + int(k)]
            self._member_index[pm_id] = indices[pos : pos + int(k)]
            pos += int(k)

    # -- per-PM views (sequential float order, see module docstring) -------

    def pm_demand_vector(self, pm_id: int, *, use_average: bool = False) -> np.ndarray:
        """Aggregate absolute demand of the PM's VMs, uncapped.

        Bit-identical to the object path's insertion-order ``+=`` loop.
        """
        idx = self.member_index(pm_id)
        if idx.size == 0:
            return np.zeros(N_RESOURCES, dtype=np.float64)
        frac = self.avg if use_average else self.cur
        return (frac[idx] * self.vm_cap[idx]).sum(axis=0)

    def pm_cpu_utilization(self, pm_id: int) -> float:
        """Current CPU utilisation fraction of one PM, capped at 1."""
        demand = float(self.pm_demand_vector(pm_id)[CPU])
        return min(1.0, demand / float(self.pm_cpu_mips[pm_id]))

    # -- whole-array aggregates --------------------------------------------

    def pm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_pms, N_RESOURCES) absolute demand aggregated per host PM,
        uncapped, sleeping PMs included (their VMs still show up)."""
        frac = self.avg if use_average else self.cur
        abs_demand = frac * self.vm_cap
        placed = self.host >= 0
        h = self.host[placed]
        out = np.empty((self.n_pms, N_RESOURCES), dtype=np.float64)
        for r in range(N_RESOURCES):
            out[:, r] = np.bincount(
                h, weights=abs_demand[placed, r], minlength=self.n_pms
            )
        return out

    def pm_cpu_demand_mips(self) -> np.ndarray:
        """(n_pms,) aggregate current CPU demand in MIPS, uncapped."""
        placed = self.host >= 0
        return np.bincount(
            self.host[placed],
            weights=self.cur[placed, CPU] * self.vm_cpu_mips[placed],
            minlength=self.n_pms,
        )

    def awake_mask(self) -> np.ndarray:
        """Boolean (n_pms,): True where the PM is awake (fresh array)."""
        return ~self.pm_asleep

    # -- the vectorised round update ---------------------------------------

    def advance_round_update(self, demands: np.ndarray, round_seconds: float) -> None:
        """Fold one round of demand samples into every column at once.

        Performs, element-wise in the object path's op order: the
        monitors' ``{c, v}`` piggyback update, the per-VM requested-CPU
        accrual, and the per-PM active/saturated time accounting.
        """
        # {c, v} piggyback:  avg' = (c*avg + d) / (c + 1), through scratch
        # buffers — the op sequence (multiply, add, divide) is exactly the
        # expression's, so the result is bit-identical with zero allocation.
        counts = self._scr_cnt
        np.copyto(counts, self.monitor_count[:, None], casting="unsafe")
        acc = np.multiply(counts, self.avg, out=self._scr_vms2)
        np.add(acc, demands, out=acc)
        np.add(counts, 1.0, out=counts)
        np.divide(acc, counts, out=self.avg)
        self.cur[:] = demands
        self.monitor_count += 1
        # Per-VM absolute CPU demand, computed once and reused for both
        # the requested-MIPS accrual and the per-PM saturation test
        # (elementwise product, so multiply-then-gather == gather-then-
        # multiply bitwise).
        prod = np.multiply(demands[:, CPU], self.vm_cpu_mips, out=self._scr_vms)
        self.vm_cpu_requested += prod * round_seconds
        placed = np.greater_equal(self.host, 0, out=self._scr_vms_b)
        if placed.all():
            pm_cpu = np.bincount(self.host, weights=prod, minlength=self.n_pms)
        else:
            pm_cpu = np.bincount(
                self.host[placed], weights=prod[placed], minlength=self.n_pms
            )
        awake = np.logical_not(self.pm_asleep, out=self._scr_pm_bool)
        np.add(
            self.pm_active_seconds,
            round_seconds,
            out=self.pm_active_seconds,
            where=awake,
        )
        saturated = np.greater_equal(pm_cpu, self.pm_cpu_mips, out=self._scr_pm_bool2)
        saturated &= awake
        np.add(
            self.pm_saturated_seconds,
            round_seconds,
            out=self.pm_saturated_seconds,
            where=saturated,
        )

    def reset_accounting(self) -> None:
        """Zero the SLA accounting columns (placement/demand untouched)."""
        self.pm_active_seconds[:] = 0.0
        self.pm_saturated_seconds[:] = 0.0
        self.vm_cpu_requested[:] = 0.0
        self.vm_cpu_degraded[:] = 0.0
        self.vm_migrations[:] = 0

    # -- eviction-candidate scoring (consolidation hot path) ---------------

    def vm_action_codes(self, idx: np.ndarray, *, use_average: bool = True) -> np.ndarray:
        """State/action codes for the given VM ids, vectorised.

        Matches :func:`repro.core.states.state_code_fast` exactly: the
        level thresholds are left-open/right-closed (``searchsorted``
        side="left" over the upper bounds), with ``x >= 1.0`` pinned to
        the Overload level.  Demand fractions are the VM-spec-relative
        monitor rows, as in :func:`repro.core.states.vm_action`.
        """
        from repro.core.states import LEVEL_THRESHOLDS, N_LEVELS

        frac = self.avg if use_average else self.cur
        u = frac[idx]
        levels = np.searchsorted(LEVEL_THRESHOLDS, u, side="left")
        levels[u >= 1.0] = N_LEVELS - 1
        return levels[:, 0] * N_LEVELS + levels[:, 1]


class ColumnarVmMonitor(VmMonitor):
    """A monitor whose rows alias the store's demand matrices and whose
    sample count lives in the store's ``monitor_count`` column."""

    __slots__ = ("_store", "_index")

    def __init__(self, store: ColumnarStore, index: int) -> None:
        self._store = store
        self._index = index
        # The slot attributes alias the store rows directly — identical
        # to the bound-monitor arrangement of the object path.
        self.current = store.cur[index]
        self.average = store.avg[index]

    @property  # type: ignore[override]
    def count(self) -> int:
        return int(self._store.monitor_count[self._index])

    @count.setter
    def count(self, value: int) -> None:
        self._store.monitor_count[self._index] = value


class ColumnarVirtualMachine(VirtualMachine):
    """A VM whose scalar state is columns of a :class:`ColumnarStore`."""

    __slots__ = ("store", "index")

    def __init__(self, store: ColumnarStore, index: int) -> None:
        self.store = store
        self.index = index
        self.vm_id = index
        self.spec = store.vm_spec
        self.monitor = ColumnarVmMonitor(store, index)

    @property  # type: ignore[override]
    def host_id(self) -> Optional[int]:
        h = self.store.host[self.index]
        return None if h < 0 else int(h)

    @host_id.setter
    def host_id(self, value: Optional[int]) -> None:
        self.store.host[self.index] = -1 if value is None else int(value)

    @property  # type: ignore[override]
    def cpu_requested_mips_s(self) -> float:
        return float(self.store.vm_cpu_requested[self.index])

    @cpu_requested_mips_s.setter
    def cpu_requested_mips_s(self, value: float) -> None:
        self.store.vm_cpu_requested[self.index] = value

    @property  # type: ignore[override]
    def cpu_degraded_mips_s(self) -> float:
        return float(self.store.vm_cpu_degraded[self.index])

    @cpu_degraded_mips_s.setter
    def cpu_degraded_mips_s(self, value: float) -> None:
        self.store.vm_cpu_degraded[self.index] = value

    @property  # type: ignore[override]
    def migrations(self) -> int:
        return int(self.store.vm_migrations[self.index])

    @migrations.setter
    def migrations(self, value: int) -> None:
        self.store.vm_migrations[self.index] = value


class ColumnarPhysicalMachine(PhysicalMachine):
    """A PM whose state is columns of a :class:`ColumnarStore`.

    Utilisation/overload/fits logic is inherited from
    :class:`~repro.datacenter.pm.PhysicalMachine` — only the storage
    (VM set, sleep flag, SLAVO accumulators) is redirected to the store,
    so the two implementations cannot drift semantically.
    """

    __slots__ = ("store", "index")

    def __init__(self, store: ColumnarStore, index: int) -> None:
        self.store = store
        self.index = index
        self.pm_id = index
        self.spec = store.pm_spec

    # -- redirected scalar state -------------------------------------------

    @property  # type: ignore[override]
    def asleep(self) -> bool:
        return bool(self.store.pm_asleep[self.index])

    @asleep.setter
    def asleep(self, value: bool) -> None:
        self.store.pm_asleep[self.index] = value

    @property  # type: ignore[override]
    def active_seconds(self) -> float:
        return float(self.store.pm_active_seconds[self.index])

    @active_seconds.setter
    def active_seconds(self, value: float) -> None:
        self.store.pm_active_seconds[self.index] = value

    @property  # type: ignore[override]
    def saturated_seconds(self) -> float:
        return float(self.store.pm_saturated_seconds[self.index])

    @saturated_seconds.setter
    def saturated_seconds(self, value: float) -> None:
        self.store.pm_saturated_seconds[self.index] = value

    # -- redirected VM set --------------------------------------------------

    @property
    def vms(self) -> List[VirtualMachine]:
        store = self.store
        return [store.vms[v] for v in store.members[self.index]]

    @property
    def vm_count(self) -> int:
        return len(self.store.members[self.index])

    @property
    def is_empty(self) -> bool:
        return not self.store.members[self.index]

    def has_vm(self, vm_id: int) -> bool:
        return 0 <= vm_id < self.store.n_vms and int(self.store.host[vm_id]) == self.index

    def add_vm(self, vm: VirtualMachine) -> None:
        if self.has_vm(vm.vm_id):
            raise ValueError(f"VM {vm.vm_id} already on PM {self.pm_id}")
        if vm.host_id is not None:
            raise ValueError(
                f"VM {vm.vm_id} still assigned to PM {vm.host_id}; remove it first"
            )
        self.store.add_member(self.index, vm.vm_id)

    def remove_vm(self, vm_id: int) -> VirtualMachine:
        if not self.has_vm(vm_id):
            raise KeyError(f"VM {vm_id} not on PM {self.pm_id}")
        self.store.remove_member(self.index, vm_id)
        return self.store.vms[vm_id]

    # -- redirected utilisation views ---------------------------------------

    def demand_vector(self, *, use_average: bool = False) -> np.ndarray:
        return self.store.pm_demand_vector(self.index, use_average=use_average)

    def cpu_utilization(self) -> float:
        return self.store.pm_cpu_utilization(self.index)

    def account_round(
        self, round_seconds: float, cpu_demand_mips: Optional[float] = None
    ) -> None:
        if cpu_demand_mips is None:
            cpu_demand_mips = float(self.demand_vector()[CPU])
        super().account_round(round_seconds, cpu_demand_mips)

    def __repr__(self) -> str:
        return (
            f"ColumnarPhysicalMachine(id={self.pm_id}, "
            f"vms={sorted(self.store.members[self.index])}, asleep={self.asleep})"
        )
