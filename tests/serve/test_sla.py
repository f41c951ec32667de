"""Unit tests for the per-tenant SLA ledger."""

import pytest

from repro.serve.sla import SLA_READ_MS, SLA_WRITE_MS, SlaLedger

SLOW_READ = SLA_READ_MS + 1.0


class TestPolicy:
    def test_targets_per_kind(self):
        """Each kind has its own target: a latency past the read target
        but inside the write target violates only as a read."""
        assert SLA_READ_MS < SLOW_READ < SLA_WRITE_MS
        ledger = SlaLedger()
        assert ledger.record(0, 0, "get", SLOW_READ, ok=True)
        assert not ledger.record(0, 0, "put", SLOW_READ, ok=True)
        assert ledger.record(0, 0, "put", SLA_WRITE_MS + 1.0, ok=True)


class TestLedger:
    def make(self):
        return SlaLedger()

    def test_fast_request_meets_sla(self):
        ledger = self.make()
        assert not ledger.record(0, 0, "get", SLA_READ_MS - 0.1, ok=True)
        assert ledger.read_violations == 0

    def test_slow_request_violates(self):
        ledger = self.make()
        assert ledger.record(0, 0, "get", SLA_READ_MS + 0.1, ok=True)
        assert ledger.read_violations == 1

    def test_failure_always_violates(self):
        """Unavailability is the worst latency: ok=False violates even
        when the (timeout-bounded) latency sits under the target."""
        ledger = self.make()
        assert ledger.record(0, 0, "put", 1.0, ok=False)
        assert ledger.write_violations == 1

    def test_epoch_deltas(self):
        ledger = self.make()
        ledger.record(0, 0, "get", SLOW_READ, ok=True)
        ledger.begin_epoch()
        assert ledger.epoch_counts() == (0, 0)
        ledger.record(0, 0, "get", SLOW_READ, ok=True)
        ledger.record(0, 0, "put", SLA_WRITE_MS + 1.0, ok=True)
        assert ledger.epoch_counts() == (1, 1)
        ledger.begin_epoch()
        assert ledger.epoch_counts() == (0, 0)

    def test_tenant_view_attainment(self):
        ledger = self.make()
        for __ in range(3):
            ledger.record(0, 0, "get", 10.0, ok=True)
        ledger.record(0, 0, "get", SLOW_READ, ok=True)
        ledger.record(1, 2, "put", 10.0, ok=True)
        view = ledger.tenant_view()
        assert view[(0, 0)]["requests"] == 4
        assert view[(0, 0)]["read_violations"] == 1
        assert view[(0, 0)]["attainment"] == pytest.approx(0.75)
        assert view[(1, 2)]["attainment"] == pytest.approx(1.0)

    def test_tenant_view_sorted(self):
        ledger = self.make()
        ledger.record(1, 1, "get", 1.0, ok=True)
        ledger.record(0, 0, "get", 1.0, ok=True)
        assert list(ledger.tenant_view()) == [(0, 0), (1, 1)]
