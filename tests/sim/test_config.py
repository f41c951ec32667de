"""Unit tests for scenario configuration."""

import dataclasses

import pytest

from repro.cluster.server import GB, MB
from repro.core.availability import paper_thresholds
from repro.sim.config import (
    AppConfig,
    ConfigError,
    InsertConfig,
    RingConfig,
    SimConfig,
    scaled_paper_layout,
)
from repro.sim.scenario import ConstraintsSpec, SpecError, compile_spec
from repro.sim.specs import paper_spec, saturation_spec, slashdot_spec


class TestRingConfig:
    def test_defaults_match_paper(self):
        ring = RingConfig(ring_id=0, threshold=20.0, target_replicas=2)
        assert ring.partitions == 200
        assert ring.partition_capacity == 256 * MB

    def test_validation(self):
        with pytest.raises(ConfigError):
            RingConfig(ring_id=0, threshold=-1, target_replicas=2)
        with pytest.raises(ConfigError):
            RingConfig(ring_id=0, threshold=1, target_replicas=0)
        with pytest.raises(ConfigError):
            RingConfig(
                ring_id=0, threshold=1, target_replicas=1,
                partition_capacity=10, initial_partition_size=11,
            )


class TestAppConfig:
    def test_needs_rings(self):
        with pytest.raises(ConfigError):
            AppConfig(app_id=0, name="a", query_share=1.0, rings=())

    def test_duplicate_ring_ids(self):
        ring = RingConfig(ring_id=0, threshold=1, target_replicas=1)
        with pytest.raises(ConfigError):
            AppConfig(
                app_id=0, name="a", query_share=1.0, rings=(ring, ring)
            )


def numbers(config):
    """The §III-A / Fig. 4 / Fig. 5 figures a compiled config carries."""
    rings = [app.rings[0] for app in config.apps]
    return {
        "servers": config.layout.total_servers,
        "partitions": [r.partitions for r in rings],
        "replicas": [r.target_replicas for r in rings],
        "thresholds": [r.threshold for r in rings],
        "rings": [r.ring_id for r in rings],
        "partition_mb": [
            (r.initial_partition_size // MB, r.partition_capacity // MB)
            for r in rings
        ],
        "shares": [app.query_share for app in config.apps],
        "disk_gb": config.server_storage / GB,
        "budgets_mb": (config.replication_budget // MB,
                       config.migration_budget // MB),
        "rates": [config.rate_profile(e) for e in (0, 100, 125, 375)],
        "inserts": config.inserts and (
            config.inserts.rate, config.inserts.object_size,
            config.inserts.start_epoch, config.inserts.routing,
        ),
        "alpha": config.rent_model.alpha,
        "policy": (config.policy.hysteresis, config.policy.migration_margin,
                   config.policy.storage_headroom),
        "horizon": (config.epochs, config.seed),
    }


TH = paper_thresholds()
BASE = {
    "servers": 200,
    "partitions": [200, 200, 200],
    "replicas": [2, 3, 4],
    "thresholds": [TH[2], TH[3], TH[4]],
    "rings": [0, 1, 2],
    "partition_mb": [(96, 256)] * 3,
    "shares": [4 / 7, 2 / 7, 1 / 7],
    "disk_gb": 5.0,
    "budgets_mb": (300, 100),
    "rates": [3000.0] * 4,
    "inserts": None,
    "alpha": 1.0,
    "policy": (3, 0.05, 0.1),
    "horizon": (100, 0),
}


class TestPaperTemplates:
    """No factory states the paper's parameters any more: the three
    spec templates do, and this table pins what they compile to."""

    @pytest.mark.parametrize("template,expected", [
        (paper_spec, BASE),
        (slashdot_spec, {
            **BASE,
            "rates": [3000.0, 3000.0, 183000.0, 3000.0],
            "horizon": (400, 0),
        }),
        (saturation_spec, {
            **BASE,
            "partition_mb": [(32, 256)] * 3,
            "disk_gb": 2.0,
            "inserts": (2000, 500 * 1024, 0, "keyspace"),
            "alpha": 8.0,
            "policy": (2, 0.02, 0.05),
            "horizon": (300, 0),
        }),
    ], ids=["III-A", "fig4", "fig5"])
    def test_template_compiles_to_the_papers_numbers(self, template,
                                                      expected):
        assert numbers(compile_spec(template()).config) == expected

    def test_slashdot_profile_ramps_and_decays(self):
        profile = compile_spec(slashdot_spec()).config.rate_profile
        assert 3000.0 < profile(110) < profile(120) < 183000.0
        assert 183000.0 > profile(200) > profile(300) > 3000.0


class TestSimConfig:
    def test_partitions_and_initial_size_lower_onto_every_ring(self):
        spec = dataclasses.replace(
            paper_spec(),
            constraints=ConstraintsSpec(partitions=10, initial_size=1000),
        )
        rings = [
            ring for app in compile_spec(spec).config.apps
            for ring in app.rings
        ]
        assert len(rings) == 3
        assert {(r.partitions, r.initial_partition_size)
                for r in rings} == {(10, 1000)}

    def test_app_lookup(self):
        cfg = compile_spec(paper_spec()).config
        assert cfg.app(1).name == "app-2"
        with pytest.raises(ConfigError):
            cfg.app(7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(apps=())
        with pytest.raises(SpecError):
            paper_spec(epochs=0)

    def test_duplicate_app_ids(self):
        apps = compile_spec(paper_spec()).config.apps
        with pytest.raises(ConfigError):
            SimConfig(apps=(apps[0], apps[0]))

    def test_insert_config_validation(self):
        with pytest.raises(ConfigError):
            InsertConfig(rate=-1)
        with pytest.raises(ConfigError):
            InsertConfig(object_size=0)


class TestScaledLayout:
    def test_known_scales_match_server_counts(self):
        assert scaled_paper_layout(1).total_servers == 200
        assert scaled_paper_layout(10).total_servers == 2000
        assert scaled_paper_layout(100).total_servers == 20000

    def test_geography_skeleton_is_preserved(self):
        for scale in (1, 10, 100, 3):
            layout = scaled_paper_layout(scale)
            assert layout.countries == 10
            assert layout.datacenters_per_country == 2
            assert layout.total_servers == 200 * scale

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            scaled_paper_layout(0)
