"""Tests for repro.datacenter.cluster — the DataCenter."""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter

from tests.conftest import make_constant_trace, make_datacenter, make_trace


class TestConstruction:
    def test_populations(self):
        dc = make_datacenter(n_pms=5, n_vms=12, advance=False)
        assert dc.n_pms == 5 and dc.n_vms == 12

    def test_trace_too_small_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DataCenter(5, 100, make_trace(10, 5))

    def test_invalid_sizes_rejected(self):
        trace = make_trace(10, 5)
        with pytest.raises(ValueError):
            DataCenter(0, 5, trace)
        with pytest.raises(ValueError):
            DataCenter(5, 0, trace)

    def test_lookup_errors(self):
        dc = make_datacenter(advance=False)
        with pytest.raises(KeyError):
            dc.pm(999)
        with pytest.raises(KeyError):
            dc.vm(999)


class TestPlacement:
    def test_random_placement_places_all(self):
        dc = make_datacenter(advance=False)
        assert all(vm.host_id is not None for vm in dc.vms)
        assert sum(pm.vm_count for pm in dc.pms) == dc.n_vms

    def test_placement_array_roundtrip(self):
        dc = make_datacenter(advance=False)
        mapping = dc.placement()
        dc2 = DataCenter(dc.n_pms, dc.n_vms, dc.trace)
        dc2.apply_placement(mapping)
        np.testing.assert_array_equal(dc2.placement(), mapping)

    def test_same_seed_same_placement(self):
        a = make_datacenter(seed=3, advance=False).placement()
        b = make_datacenter(seed=3, advance=False).placement()
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_placement(self):
        a = make_datacenter(seed=3, advance=False).placement()
        b = make_datacenter(seed=4, advance=False).placement()
        assert not np.array_equal(a, b)

    def test_double_random_placement_rejected(self):
        dc = make_datacenter(advance=False)
        with pytest.raises(RuntimeError):
            dc.place_randomly(np.random.default_rng(0))

    def test_apply_placement_wrong_length(self):
        dc = make_datacenter(advance=False)
        with pytest.raises(ValueError):
            dc.apply_placement([0, 1])


class TestRounds:
    def test_advance_updates_demands(self):
        dc = make_datacenter(advance=False)
        assert dc.advance_round() == 0
        assert all(vm.monitor.count == 1 for vm in dc.vms)
        dc.advance_round()
        assert all(vm.monitor.count == 2 for vm in dc.vms)

    def test_advance_accounts_active_time(self):
        dc = make_datacenter(advance=False)
        dc.advance_round()
        assert all(pm.active_seconds == 120.0 for pm in dc.pms)

    def test_sleeping_pm_accrues_no_time(self):
        dc = make_datacenter(advance=False)
        dc.pms[0].asleep = True
        dc.advance_round()
        assert dc.pms[0].active_seconds == 0.0

    def test_demands_follow_trace(self):
        trace = make_constant_trace(6, 4, cpu=0.42, mem=0.17)
        dc = DataCenter(3, 6, trace)
        dc.place_randomly(np.random.default_rng(0))
        dc.advance_round()
        for vm in dc.vms:
            np.testing.assert_allclose(vm.monitor.current, [0.42, 0.17])


class TestMigrate:
    def test_migrate_moves_and_records(self):
        dc = make_datacenter()
        vm = dc.vms[0]
        src = vm.host_id
        dst = (src + 1) % dc.n_pms
        record = dc.migrate(vm.vm_id, dst)
        assert vm.host_id == dst
        assert not dc.pm(src).has_vm(vm.vm_id)
        assert dc.pm(dst).has_vm(vm.vm_id)
        assert dc.migration_count() == 1
        assert record.src_pm == src and record.dst_pm == dst

    def test_migrate_accrues_vm_degradation(self):
        dc = make_datacenter()
        vm = dc.vms[0]
        dc.migrate(vm.vm_id, (vm.host_id + 1) % dc.n_pms)
        assert vm.migrations == 1
        assert vm.cpu_degraded_mips_s >= 0.0

    def test_migrate_to_source_rejected(self):
        dc = make_datacenter()
        vm = dc.vms[0]
        with pytest.raises(ValueError):
            dc.migrate(vm.vm_id, vm.host_id)

    def test_migrate_to_sleeping_rejected(self):
        dc = make_datacenter()
        vm = dc.vms[0]
        dst = (vm.host_id + 1) % dc.n_pms
        dc.pm(dst).asleep = True
        with pytest.raises(RuntimeError):
            dc.migrate(vm.vm_id, dst)

    def test_energy_totals_accumulate(self):
        dc = make_datacenter()
        for vm in dc.vms[:3]:
            dc.migrate(vm.vm_id, (vm.host_id + 1) % dc.n_pms)
        assert dc.total_migration_energy_j() == pytest.approx(
            sum(m.energy_j for m in dc.migrations)
        )


class TestAggregates:
    def test_active_count(self):
        dc = make_datacenter()
        assert dc.active_count() == dc.n_pms
        dc.pms[0].asleep = True
        assert dc.active_count() == dc.n_pms - 1
        assert len(dc.active_pms()) == dc.n_pms - 1

    def test_overloaded_count_excludes_sleeping(self):
        trace = make_constant_trace(20, 4, cpu=1.0, mem=0.1)
        dc = DataCenter(2, 20, trace)
        dc.apply_placement([0] * 20)  # all on PM 0 -> overloaded
        dc.advance_round()
        assert dc.overloaded_count() == 1
        dc.pms[0].asleep = True  # hypothetically
        assert dc.overloaded_count() == 0

    def test_utilization_matrix_shape_and_sleep(self):
        dc = make_datacenter()
        dc.pms[2].asleep = True
        matrix = dc.utilization_matrix()
        assert matrix.shape == (dc.n_pms, 2)
        np.testing.assert_array_equal(matrix[2], [0.0, 0.0])

    def test_reset_accounting(self):
        dc = make_datacenter()
        vm = dc.vms[0]
        dc.migrate(vm.vm_id, (vm.host_id + 1) % dc.n_pms)
        dc.advance_round()
        dc.reset_accounting()
        assert dc.migration_count() == 0
        assert all(pm.active_seconds == 0.0 for pm in dc.pms)
        assert all(v.cpu_requested_mips_s == 0.0 for v in dc.vms)
        assert all(v.migrations == 0 for v in dc.vms)
        # Placement and demand state untouched.
        assert vm.host_id is not None
        assert all(v.monitor.count == 2 for v in dc.vms)


@pytest.mark.parametrize("backend", ["columnar", "object"])
class TestMemberOrderViews:
    """The insertion-order views PABFD's control pass is built on."""

    def make_shuffled(self, backend):
        # Migrations append to the destination and cut from the middle of
        # the source, so membership order stops being vm_id order.
        trace = make_trace(60, 4, seed=3)
        dc = DataCenter(6, 60, trace, backend=backend)
        dc.place_randomly(np.random.default_rng(3))
        dc.advance_round()
        rng = np.random.default_rng(4)
        for vm_id in rng.permutation(60)[:40]:
            dst = (dc.vm(int(vm_id)).host_id + int(rng.integers(1, 6))) % 6
            dc.migrate(int(vm_id), dst)
        return dc

    def test_member_matrix_rows_are_membership_order(self, backend):
        dc = self.make_shuffled(backend)
        members = dc.member_matrix()
        for pm, row in zip(dc.pms, members):
            ids = [v.vm_id for v in pm.vms]
            assert row.tolist() == ids + [-1] * (members.shape[1] - len(ids))

    def test_member_order_rows_equal_demand_vector_bitwise(self, backend):
        dc = self.make_shuffled(backend)
        demand = dc.pm_demand_matrix(member_order=True)
        assert not demand.flags.writeable
        for pm in dc.pms:
            np.testing.assert_array_equal(demand[pm.pm_id], pm.demand_vector())
            assert min(1.0, demand[pm.pm_id, 0] / pm.spec.cpu_mips) == pm.cpu_utilization()

    def test_per_vm_demand_view(self, backend):
        dc = self.make_shuffled(backend)
        per_vm = dc.vm_demand_matrix()
        assert not per_vm.flags.writeable
        for vm in dc.vms:
            np.testing.assert_array_equal(per_vm[vm.vm_id], vm.current_demand_abs())
