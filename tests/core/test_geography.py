"""Tests for geography-aware settlement and placement (eq. 4 end-to-end)."""

import numpy as np
import pytest

from repro.cluster.location import Location, diversity
from repro.cluster.topology import CloudLayout
from repro.core.policy import EconomicPolicy
from repro.sim.config import AppConfig, RingConfig, SimConfig
from repro.sim.engine import Simulation
from repro.workload.clients import hotspot, uniform_geography

LAYOUT = CloudLayout(
    countries=4,
    countries_per_continent=1,  # four separate continents
    datacenters_per_country=1,
    rooms_per_datacenter=1,
    racks_per_room=1,
    servers_per_rack=6,
)  # 24 servers

HOT_COUNTRY = 2


def geo_config(geography, epochs=25, seed=0):
    return SimConfig(
        layout=LAYOUT,
        apps=(
            AppConfig(
                app_id=0, name="regional", query_share=1.0,
                geography=geography,
                rings=(
                    RingConfig(
                        ring_id=0, threshold=20.0, target_replicas=2,
                        partitions=8, partition_capacity=10_000,
                        initial_partition_size=1000,
                    ),
                ),
            ),
        ),
        epochs=epochs,
        seed=seed,
        server_storage=100_000,
        server_query_capacity=200,
        replication_budget=20_000,
        migration_budget=8_000,
        base_rate=400.0,
        policy=EconomicPolicy(hysteresis=2),
    )


def mean_client_distance(sim, client):
    """Mean diversity from the hot client site to the closest replica."""
    total, n = 0.0, 0
    for pid in sim.catalog.partitions():
        replicas = sim.catalog.servers_of(pid)
        best = min(
            diversity(client, sim.cloud.server(sid).location)
            for sid in replicas
        )
        total += best
        n += 1
    return total / n


class TestGeographyAwarePlacement:
    def test_replicas_gravitate_toward_hot_country(self):
        client = Location(HOT_COUNTRY, 0, 0, 0, 0, 0)
        hot = Simulation(
            geo_config(hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9))
        )
        hot.run()
        flat = Simulation(geo_config(uniform_geography()))
        flat.run()
        assert mean_client_distance(hot, client) <= mean_client_distance(
            flat, client
        )

    def test_hot_country_hosts_replicas(self):
        """With 90% of clients in one country, (almost) every partition
        keeps a replica close to it."""
        sim = Simulation(
            geo_config(hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9))
        )
        sim.run()
        client = Location(HOT_COUNTRY, 0, 0, 0, 0, 0)
        assert mean_client_distance(sim, client) < 40  # mostly local-ish

    def test_sla_maintained_under_geography(self):
        sim = Simulation(
            geo_config(hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9))
        )
        log = sim.run()
        assert log.last.unsatisfied_partitions == 0


class TestGeographyAwareSettlement:
    def test_close_replicas_serve_more_queries(self):
        sim = Simulation(
            geo_config(hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9),
                       epochs=20)
        )
        sim.run()
        client = Location(HOT_COUNTRY, 0, 0, 0, 0, 0)
        near_queries, far_queries = 0.0, 0.0
        for server in sim.cloud:
            if diversity(client, server.location) < 32:
                near_queries += server.queries_this_epoch
            else:
                far_queries += server.queries_this_epoch
        assert near_queries > far_queries

    def test_uniform_split_unchanged(self):
        """Uniform geography keeps the equal-share settlement."""
        sim = Simulation(geo_config(uniform_geography(), epochs=5))
        sim.run()
        # g_of_app must be None for the uniform app (fast path).
        assert sim._g_of_app[0] is None
