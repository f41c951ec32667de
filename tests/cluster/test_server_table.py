"""ServerTable ↔ Server row-view invariants.

The cloud owns one columnar :class:`ServerTable` (row ≡ slot); every
:class:`Server` (and its two :class:`BandwidthBudget` handles) is a
thin view onto one row.  These tests pin the view contract: mutations
through the object API land in the columns the cloud's vector views
read, registration adopts a detached server's state, removal detaches
the view and compacts the table, and surviving views follow the slot
shift.
"""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import BandwidthBudget, ServerTable, make_server
from repro.cluster.topology import Cloud


def small_cloud(n=4, **kwargs):
    cloud = Cloud()
    for i in range(n):
        cloud.add_servers([
            make_server(i, Location(i % 2, 0, 0, 0, 0, i // 2),
                        storage_capacity=1000, **kwargs)
        ])
    return cloud


class TestAdoption:
    def test_detached_server_owns_private_row(self):
        server = make_server(0, Location(0, 0, 0, 0, 0, 0),
                             storage_capacity=500, monthly_rent=42.0)
        server.allocate_storage(123)
        assert server.storage_used == 123
        assert server.monthly_rent == 42.0

    def test_add_server_adopts_state_into_cloud_columns(self):
        server = make_server(0, Location(0, 0, 0, 0, 0, 0),
                             storage_capacity=500, monthly_rent=42.0,
                             confidence=0.75)
        server.allocate_storage(100)
        server.replication_budget.reserve(7)
        cloud = Cloud()
        cloud.add_servers([server])
        assert cloud.server(0) is server
        assert cloud.storage_used_vector().tolist() == [100]
        assert cloud.monthly_rent_vector().tolist() == [42.0]
        assert cloud.confidence_vector().tolist() == [0.75]
        assert cloud.budget_available_vector("replication").tolist() == [
            server.replication_budget.capacity - 7
        ]

    def test_view_writes_after_adoption_hit_the_shared_table(self):
        cloud = small_cloud(2)
        cloud.server(1).allocate_storage(250)
        cloud.server(1).record_queries(3.5)
        assert cloud.storage_used_vector().tolist() == [0, 250]
        assert cloud.queries_vector().tolist() == [0.0, 3.5]
        assert cloud.total_storage_used == 250


class TestBudgetColumns:
    def test_budget_views_and_vectors_agree(self):
        cloud = small_cloud(3)
        cloud.server(1).replication_budget.reserve(1000)
        cloud.server(2).migration_budget.reserve(500)
        rep = cloud.budget_available_vector("replication")
        mig = cloud.budget_available_vector("migration")
        for slot, sid in enumerate(cloud.server_ids):
            server = cloud.server(sid)
            assert rep[slot] == server.replication_budget.available
            assert mig[slot] == server.migration_budget.available

    def test_budget_reassignment_rebinds_to_columns(self):
        # The engine's _apply_budgets path: assign a fresh budget, then
        # both the assigned handle and the column must track reserves.
        cloud = small_cloud(1)
        budget = BandwidthBudget(2_000)
        cloud.server(0).replication_budget = budget
        assert cloud.budget_available_vector("replication").tolist() == [2_000]
        budget.reserve(300)
        assert cloud.server(0).replication_budget.available == 1_700
        assert cloud.budget_available_vector("replication").tolist() == [1_700]

    def test_budget_cannot_alias_two_servers(self):
        cloud = small_cloud(2)
        budget = BandwidthBudget(2_000)
        cloud.server(0).replication_budget = budget
        with pytest.raises(ValueError):
            cloud.server(1).replication_budget = budget
        # Re-assigning the same binding is idempotent, not an error.
        cloud.server(0).replication_budget = budget

    def test_begin_epoch_is_one_column_reset(self):
        cloud = small_cloud(3)
        for sid in cloud.server_ids:
            cloud.server(sid).record_queries(2.0)
            cloud.server(sid).replication_budget.reserve(10)
            cloud.server(sid).migration_budget.reserve(5)
        cloud.begin_epoch()
        assert not cloud.queries_vector().any()
        assert (
            cloud.budget_available_vector("replication")
            == cloud.server(0).replication_budget.capacity
        ).all()
        assert cloud.server(1).migration_budget.used == 0

    def test_unknown_budget_kind_rejected(self):
        with pytest.raises(ValueError):
            small_cloud(1).budget_available_vector("bogus")


class TestFailureAndRentColumns:
    def test_fail_and_restore_flow_through_alive_column(self):
        cloud = small_cloud(3)
        cloud.server(1).fail()
        assert cloud.alive_vector().tolist() == [True, False, True]
        cloud.server(1).restore()
        assert cloud.alive_vector().all()

    def test_rent_and_capacity_columns_match_views(self):
        cloud = Cloud()
        for i, rent in enumerate((100.0, 125.0, 80.0)):
            cloud.add_servers([
                make_server(i, Location(0, 0, 0, 0, 0, i),
                            storage_capacity=1000 * (i + 1),
                            monthly_rent=rent)
            ])
        assert cloud.monthly_rent_vector().tolist() == [100.0, 125.0, 80.0]
        assert cloud.capacity_vector().tolist() == [1000, 2000, 3000]
        assert cloud.query_capacity_vector().tolist() == [1_000_000] * 3

    def test_vectors_are_fresh_copies(self):
        cloud = small_cloud(2)
        rents = cloud.monthly_rent_vector()
        rents[0] = -1.0
        assert cloud.monthly_rent_vector()[0] == 100.0
        alive = cloud.alive_vector()
        alive[0] = False
        assert cloud.alive_vector().all()


class TestCompactionAfterDeath:
    def test_removal_compacts_and_surviving_views_follow(self):
        cloud = small_cloud(4)
        cloud.server(2).allocate_storage(300)
        cloud.server(3).replication_budget.reserve(77)
        survivor3 = cloud.server(3)
        cloud.remove_server(1)
        # Slots shifted left past the gap; the table mirrors them.
        assert cloud.server_ids == [0, 2, 3]
        assert cloud.storage_used_vector().tolist() == [0, 300, 0]
        assert survivor3 is cloud.server(3)
        assert survivor3.replication_budget.used == 77
        assert cloud.budget_available_vector("replication")[2] == (
            survivor3.replication_budget.capacity - 77
        )
        # Writes through a shifted view land in its new row.
        survivor3.allocate_storage(10)
        assert cloud.storage_used_vector().tolist() == [0, 300, 10]

    def test_removed_server_detaches_with_final_state(self):
        cloud = small_cloud(3)
        cloud.server(1).allocate_storage(400)
        gone = cloud.remove_server(1)
        assert not gone.alive
        assert gone.storage_used == 400
        # The detached view no longer aliases the cloud table.
        assert cloud.storage_used_vector().tolist() == [0, 0]
        assert len(cloud.table) == 2

    def test_slot_lookup_tracks_membership(self):
        cloud = small_cloud(4)
        lookup = cloud.slot_lookup()
        for sid in cloud.server_ids:
            assert lookup[sid] == cloud.slot(sid)
        cloud.remove_server(0)
        lookup = cloud.slot_lookup()
        assert lookup[0] == -1
        for sid in cloud.server_ids:
            assert lookup[sid] == cloud.slot(sid)


class TestTableMechanics:
    # Growth, shift-removal and fill mechanics are the shared column
    # core's job and are pinned once in tests/core/test_columns.py;
    # here only the table's own bookkeeping on top of them.

    def test_remove_tracks_length(self):
        table = ServerTable()
        for value in (10, 20, 30):
            row = table.append_blank()
            table.storage_used[row] = value
        table.remove(1)
        assert len(table) == 2
        assert table.storage_used[:2].tolist() == [10, 30]
        with pytest.raises(ValueError):
            table.remove(5)

    def test_record_queries_at_matches_scalar_adds(self):
        cloud = small_cloud(3)
        cloud.record_queries_at(
            np.array([0, 2]), np.array([1.5, 2.25])
        )
        assert cloud.queries_vector().tolist() == [1.5, 0.0, 2.25]
        with pytest.raises(ValueError):
            cloud.record_queries_at(np.array([0]), np.array([-1.0]))
