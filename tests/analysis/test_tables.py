"""Unit tests for claim tables."""

import pytest

from repro.analysis.tables import Claim, ClaimTable, TableError


class TestClaim:
    def test_verdicts(self):
        assert Claim("f2", "x", "y", True).verdict == "REPRODUCED"
        assert Claim("f2", "x", "y", False).verdict == "DIVERGED"


class TestClaimTable:
    def test_add_and_all_hold(self):
        table = ClaimTable()
        table.add("fig2", "converges", "converged at epoch 7", True)
        table.add("fig3", "flat totals", "spread 1.2%", True)
        assert table.all_hold

    def test_all_hold_false(self):
        table = ClaimTable()
        table.add("fig2", "converges", "diverged", False)
        assert not table.all_hold

    def test_all_hold_empty_rejected(self):
        with pytest.raises(TableError):
            ClaimTable().all_hold

    def test_render_contains_claims(self):
        table = ClaimTable()
        table.add("fig4", "balanced", "jain 0.98", True)
        out = table.render()
        assert "fig4" in out and "REPRODUCED" in out

    def test_render_empty(self):
        assert ClaimTable().render() == "(no claims)"

    def test_render_header_and_both_verdicts(self):
        table = ClaimTable()
        table.add("fig5", "no losses", "0 failures", True)
        table.add("fig3", "flat totals", "spread 9%", False)
        out = table.render()
        header = out.splitlines()[0]
        for column in ("experiment", "paper claim", "measured", "verdict"):
            assert column in header
        assert "REPRODUCED" in out and "DIVERGED" in out
