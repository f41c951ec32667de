"""The public API surface: what README and examples rely on."""

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_core_entry_points_exported(self):
        for name in (
            "Simulation",
            "SimConfig",
            "compile_spec",
            "paper_spec",
            "slashdot_spec",
            "saturation_spec",
            "KVStore",
            "QuorumKVStore",
            "Level",
            "Router",
            "RingSet",
            "ReplicaCatalog",
            "EconomicPolicy",
            "PriceBoard",
            "RentModel",
            "availability",
            "paper_thresholds",
            "diversity",
            "fig3_schedule",
            "load_balance_index",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.cli
        import repro.cluster
        import repro.core
        import repro.ring
        import repro.sim
        import repro.store
        import repro.workload
