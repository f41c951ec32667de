"""The declarative scenario engine: validation, compile, round-trip.

Three layers of guarantees:

* **validation** — malformed specs fail loudly at construction or
  ``from_dict`` time (unknown keys anywhere in the tree, overlapping
  surge phases, negative budgets, impossible tiers);
* **compilation** — ``compile_spec`` is deterministic, and every tier
  that hides or renames runtime fields (confidence, geography, events,
  chaos) lowers onto exactly the runtime objects a hand-built run
  would use (inlined here as ground truth — config equality implies
  byte-identical frame streams without re-running them);
* **serialization** — every registry spec and sampled spec round-trips
  losslessly through ``to_dict``/``from_dict`` and JSON, and the JSON
  text itself is fenced: ``to_json()`` of every registry spec and
  benchmark workload hashes to a pinned digest, and each frozen
  workload file reads back as itself minus its ``RETIRED`` keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.cluster.events import (
    AddServers,
    EventSchedule,
    RemoveServers,
    ScopedOutage,
    fig3_schedule,
)
from repro.net.model import FULL_FABRIC_MAX_NODES, NetConfig
from repro.sim import specs
from repro.sim.chaos import random_fault_schedule
from repro.sim.config import DataPlaneConfig, ServingConfig
from repro.sim.scenario import (
    ChaosSpec,
    ConstraintsSpec,
    Diurnal,
    FailureSpec,
    FlashCrowd,
    FlowsSpec,
    GeoSpec,
    JoinWave,
    LeaveWave,
    OperationsSpec,
    RETIRED,
    ScenarioEntry,
    ScenarioSpec,
    SpecError,
    StructureSpec,
    TenantSpec,
    TierSpec,
    compile_spec,
    load_spec,
)
from repro.sim.seeds import RngStreams
from repro.sim.specs import paper_spec
from repro.workload.clients import hotspot, mixture
from tests.spec_samplers import sample_chaos_spec, sample_spec

REPO = Path(__file__).parents[2]
WORKLOADS = sorted((REPO / "benchmarks/e2e/workloads").glob("*.json"))
JSON_FENCE = json.loads(
    (REPO / "tests/integration/golden/spec_json_sha256.json").read_text()
)


#: Where each class with retired keys sits in the JSON tree.
SECTION_OF = {
    EconomicPolicy: ("constraints", "policy"),
    RentModel: ("constraints", "economy"),
    NetConfig: ("failure", "net"),
    DataPlaneConfig: ("flows", "traffic"),
    ServingConfig: ("flows", "serving"),
    FlowsSpec: ("flows",),
}

#: The overlay knobs that became constants, at their one value (the old
#: default) and a value each refuses.
STORE_KNOBS = {
    "value_size": (64, 32),
    "hint_ttl": (32, 0),
    "hint_base_delay": (1, 2),
    "hint_backoff_cap": (8, 16),
    "anti_entropy_partitions": (8, 0),
    "anti_entropy_bytes": (1 << 20, 1 << 10),
    "read_repair": (True, False),
}
OVERLAY_KNOBS = {
    DataPlaneConfig: dict(
        STORE_KNOBS, level=("quorum", "all"), read_fraction=(0.6, 0.5),
    ),
    ServingConfig: dict(
        STORE_KNOBS,
        epoch_ms=(1000.0, 500.0),
        timeout_penalty_ms=(250.0, 100.0),
        sla_read_ms=(250.0, 60.0),
        sla_write_ms=(400.0, 150.0),
    ),
}
#: The core-config fields that became constants (or, ``delay_max``,
#: went), likewise.
CORE_KNOBS = {
    EconomicPolicy: dict(revenue_per_query=(0.01, 0.02),
                         repair_iterations=(8, 2)),
    RentModel: dict(beta=(1.0, 3.0)),
    NetConfig: dict(fanout=(3, 2), delay_max=(0, 1)),
    FlowsSpec: dict(popularity_shape=(1.0, 0), popularity_scale=(50.0, 25.0)),
}

#: Per ``RETIRED`` row: the value it loads at, a value it refuses (with
#: the message it has always had) and a wrong-typed value.
RETIRED_ROWS = {
    (EconomicPolicy, "rent_weight"): (
        1.0, 0.5, "^policy: rent_weight must be", "1.0"),
    (EconomicPolicy, "max_replicas"): (
        None, 2, "^policy: max_replicas must be", "null"),
    (RentModel, "normalize_by_usage"): (
        False, True, "^economy: normalize_by_usage must be", "false"),
    (NetConfig, "fabric"): ("full", "counting", "FULL_FABRIC_MAX_NODES", 1),
    (NetConfig, "suspect_rounds"): (
        4, 10, "^net: need 1 <= suspect_rounds < dead_rounds", "4"),
    **{
        (cls, key): (accepted, refused,
                     f"^{SECTION_OF[cls][-1]}: {key} must be "
                     f"{json.dumps(accepted)} ",
                     1 if isinstance(accepted, str) else str(accepted))
        for cls, knobs in {**OVERLAY_KNOBS, **CORE_KNOBS}.items()
        for key, (accepted, refused) in knobs.items()
    },
}


def paper_config(**kwargs):
    return compile_spec(paper_spec(**kwargs)).config


def with_section(cls, section):
    """A bare spec's JSON form with ``cls``'s section set to ``section``."""
    for name in reversed(SECTION_OF[cls]):
        section = {name: section}
    return {"name": "x", **section}


def section_of(cls, data):
    """``cls``'s section of a spec's JSON form (None when it is unset)."""
    for name in SECTION_OF[cls]:
        data = data[name]
    return data


class TestValidation:
    @pytest.mark.parametrize("data,names", [
        # unknown keys, at every nesting level
        ({"bogus": 1}, "ScenarioSpec"),
        ({"structure": {"warp": 9}}, "StructureSpec"),
        ({"structure": {"layout": {"moons": 2}}}, "CloudLayout"),
        ({"flows": {"serving": {"threads": 4}}}, "ServingConfig"),
        ({"constraints": {"tenants": [{
            "name": "t", "share": 1.0,
            "tiers": [{"replicas": 2, "quorum_size": 3}],
        }]}}, "TierSpec"),
        ({"constraints": {"tenants": [{
            "name": "t", "share": 1.0, "tiers": [{"replicas": 2}],
            "geography": {"kind": "mixture",
                          "components": [[{"planet": 1}, 0.5]]},
        }]}}, "GeoSpec"),
        ({"failure": {"net": {"partitions": [
            {"start": 1, "heal": 2, "width": 3},
        ]}}}, "NetPartition"),
        ({"failure": {"events": [
            {"kind": "join", "epoch": 1, "count": 1, "colour": "red"},
        ]}}, "JoinWave"),
        # wrong section shapes
        ({"flows": []}, "FlowsSpec"),
        ({"flows": {"surges": {"spike_epoch": 1}}}, "FlowsSpec"),
        ({"flows": {"surges": [[1, 2]]}}, "FlashCrowd"),
        ({"structure": {"confidence": {"country_factors": 3}}},
         "ConfidenceModel"),
        # the kind-tagged event union
        ({"failure": {"events": [{"epoch": 1}]}}, "FailureSpec"),
        ({"failure": {"events": [{"kind": "meteor", "epoch": 1}]}},
         "FailureSpec"),
        # out-of-range values in runtime classes the tiers hold directly
        ({"structure": {"layout": {"countries": 0}}}, "CloudLayout"),
        ({"flows": {"inserts": {"rate": -1}}}, "InsertConfig"),
        ({"flows": {"traffic": {"keyspace": 0}}}, "DataPlaneConfig"),
        ({"flows": {"serving": {"keyspace": 0}}}, "ServingConfig"),
        ({"flows": {"serving": {"level": "most"}}}, "ServingConfig"),
        ({"constraints": {"policy": {"hysteresis": 0}}}, "EconomicPolicy"),
        ({"constraints": {"economy": {"alpha": -1}}}, "RentModel"),
        ({"failure": {"net": {"loss": 1.5}}}, "NetConfig"),
    ])
    def test_from_dict_rejects_naming_the_class(self, data, names):
        with pytest.raises(SpecError) as caught:
            ScenarioSpec.from_dict({"name": "x", **data})
        message = str(caught.value)
        assert message.startswith((f"{names}:", f"{names} section")), message
        assert "\n" not in message

    def test_overlapping_surge_phases(self):
        with pytest.raises(SpecError, match="overlapping surge"):
            FlowsSpec(surges=(
                FlashCrowd(spike_epoch=5, ramp_epochs=3, decay_epochs=5,
                           peak_factor=2.0),
                FlashCrowd(spike_epoch=7, ramp_epochs=2, decay_epochs=4,
                           peak_factor=3.0),
            ))

    def test_adjacent_surges_allowed(self):
        FlowsSpec(surges=(
            FlashCrowd(spike_epoch=2, ramp_epochs=2, decay_epochs=2,
                       peak_factor=2.0),
            FlashCrowd(spike_epoch=6, ramp_epochs=2, decay_epochs=2,
                       peak_factor=2.0),
        ))

    def test_negative_budget(self):
        with pytest.raises(SpecError, match="replication_budget"):
            ConstraintsSpec(replication_budget=-1)
        with pytest.raises(SpecError, match="migration_budget"):
            ConstraintsSpec(migration_budget=-1)

    def test_bad_kernel(self):
        with pytest.raises(SpecError, match="kernel"):
            OperationsSpec(kernel="quantum")

    def test_bad_epochs(self):
        with pytest.raises(SpecError, match="epochs"):
            OperationsSpec(epochs=0)

    def test_tier_without_paper_threshold_needs_explicit(self):
        with pytest.raises(SpecError, match="threshold"):
            TierSpec(replicas=7)
        TierSpec(replicas=7, threshold=500.0)  # explicit is fine

    def test_audit_requires_traffic(self):
        with pytest.raises(SpecError, match="traffic"):
            ScenarioSpec(name="x", operations=OperationsSpec(audit=True))

    def test_layout_and_scale_conflict(self):
        with pytest.raises(SpecError, match="layout or a scale"):
            StructureSpec(scale=10, layout=CloudLayout())

    def test_hotspot_country_out_of_range(self):
        spec = ScenarioSpec(
            name="x",
            constraints=ConstraintsSpec(tenants=(
                TenantSpec(name="t", share=1.0,
                           tiers=(TierSpec(replicas=2),),
                           geography=GeoSpec(kind="hotspot", country=50)),
            )),
        )
        with pytest.raises(SpecError, match="country"):
            compile_spec(spec)

    def test_bad_confidence_factor(self):
        with pytest.raises(SpecError, match="factor"):
            ScenarioSpec.from_dict({"name": "x", "structure": {"confidence": {
                "base": 0.9, "country_factors": [[0, 1.5]],
            }}})

    def test_bad_diurnal_amplitude(self):
        with pytest.raises(SpecError, match="amplitude"):
            Diurnal(amplitude=1.5)

    def test_bad_chaos_loss_range(self):
        with pytest.raises(SpecError, match="loss"):
            ChaosSpec(loss_lo=0.5, loss_hi=0.2)

    def test_tenant_needs_tiers(self):
        with pytest.raises(SpecError, match="tier"):
            TenantSpec(name="t", share=1.0, tiers=())

    def test_net_refused_above_the_fabric_cap(self):
        big = StructureSpec(scale=100)  # 20 000 servers
        assert big.compile_layout().total_servers > FULL_FABRIC_MAX_NODES
        ScenarioSpec(name="x", structure=big)  # no net, no fabric
        for failure in (FailureSpec(net=NetConfig()),
                        FailureSpec(chaos=ChaosSpec())):
            with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
                ScenarioSpec(name="x", structure=big, failure=failure)

    def test_join_waves_count_toward_the_fabric_cap(self):
        room = FULL_FABRIC_MAX_NODES - CloudLayout().total_servers
        waves = (JoinWave(epoch=1, count=room - 1),
                 JoinWave(epoch=2, count=1))
        ScenarioSpec(name="x", failure=FailureSpec(events=waves,
                                                   net=NetConfig()))
        over = waves + (JoinWave(epoch=3, count=1),)
        with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
            ScenarioSpec(name="x", failure=FailureSpec(events=over,
                                                       net=NetConfig()))

    def test_leaves_do_not_make_room_under_the_fabric_cap(self):
        # The load-time count is an upper bound on purpose: leaves are
        # not subtracted, so leave-then-join near the cap is refused.
        room = FULL_FABRIC_MAX_NODES - CloudLayout().total_servers
        events = (LeaveWave(epoch=1, count=10),
                  JoinWave(epoch=2, count=room + 1))
        with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
            ScenarioSpec(name="x", failure=FailureSpec(events=events,
                                                       net=NetConfig()))

    def test_every_retired_row_has_a_case(self):
        assert set(RETIRED_ROWS) == {
            (cls, key) for cls, rows in RETIRED.items() for key in rows
        }

    @pytest.mark.parametrize(
        "cls, key", list(RETIRED_ROWS), ids=[k for _, k in RETIRED_ROWS]
    )
    def test_retired_key_loads_only_at_its_neutral_value(self, cls, key):
        accepted, refused, message, wrong_type = RETIRED_ROWS[cls, key]
        loaded = ScenarioSpec.from_dict(with_section(cls, {key: accepted}))
        assert loaded == ScenarioSpec.from_dict(with_section(cls, {}))
        assert key not in section_of(cls, loaded.to_dict())
        with pytest.raises(SpecError, match=message):
            ScenarioSpec.from_dict(with_section(cls, {key: refused}))
        with pytest.raises(SpecError, match=key) as caught:
            ScenarioSpec.from_dict(with_section(cls, {key: wrong_type}))
        assert "\n" not in str(caught.value)

    def test_suspect_rounds_is_bounded_by_its_sections_dead_rounds(self):
        ScenarioSpec.from_dict(with_section(
            NetConfig, {"suspect_rounds": 3, "dead_rounds": 8}
        ))
        for suspect, dead in ((0, 8), (5, 5)):
            with pytest.raises(SpecError, match="suspect_rounds"):
                ScenarioSpec.from_dict(with_section(
                    NetConfig, {"suspect_rounds": suspect, "dead_rounds": dead}
                ))

    def test_entry_pin_epochs(self):
        with pytest.raises(SpecError, match="pin_epochs"):
            ScenarioEntry(ScenarioSpec(name="x"), pin_epochs=0)


class TestCompile:
    @pytest.mark.parametrize("name", sorted(specs.REGISTRY))
    def test_compile_deterministic(self, name):
        spec = specs.get(name).spec
        assert compile_spec(spec).config == compile_spec(spec).config

    @pytest.mark.parametrize("key", sorted(JSON_FENCE))
    def test_round_trip_identity_and_json_fence(self, key):
        if key.startswith("e2e/"):
            spec = load_spec(REPO / "benchmarks/e2e/workloads" / key[4:])
        else:
            spec = specs.get(key).spec
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        # sha256 of to_json(), pinned when the retired keys left the
        # format (every other byte as the spec layer always wrote it).
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_FENCE[key]

    @pytest.mark.parametrize("path", WORKLOADS, ids=lambda path: path.name)
    def test_frozen_workload_loads_unchanged(self, path):
        """A frozen file reads as itself, minus its retired keys."""
        data = json.loads(path.read_text())
        for cls in SECTION_OF:
            section = section_of(cls, data)
            if section is not None:
                for key in RETIRED[cls]:
                    del section[key]
        assert load_spec(path).to_dict() == data

    def test_json_fence_covers_registry_and_workloads(self):
        assert set(JSON_FENCE) == set(specs.REGISTRY) | {
            f"e2e/{path.name}" for path in WORKLOADS
        }

    def test_single_surge_lowers_to_slashdot_profile(self):
        from repro.workload.slashdot import slashdot_profile

        flows = FlowsSpec(base_rate=3000.0, surges=(
            FlashCrowd(spike_epoch=8, ramp_epochs=5, decay_epochs=18,
                       peak_factor=61.0),
        ))
        assert flows.compile_profile() == slashdot_profile(
            base_rate=3000.0, peak_rate=183000.0,
            spike_epoch=8, ramp_epochs=5, decay_epochs=18,
        )

    def test_no_flows_means_no_profile(self):
        assert FlowsSpec().compile_profile() is None

    def test_composed_profile_diurnal_and_surges(self):
        profile = FlowsSpec(
            base_rate=1000.0,
            diurnal=Diurnal(period=8, amplitude=0.5),
            surges=(FlashCrowd(spike_epoch=4, ramp_epochs=2,
                               decay_epochs=2, peak_factor=5.0),),
        ).compile_profile()
        # phase 0 of the sine: diurnal multiplier is exactly 1.
        assert profile(0) == pytest.approx(1000.0)
        # mid-ramp epoch 5: halfway to 5x, diurnal sin(2*pi*5/8) < 0.
        assert profile(5) < 3000.0
        assert profile(6) == pytest.approx(1000.0 * 5.0 * 0.5)
        for epoch in range(0, 32):
            assert profile(epoch) >= 0.0

    def test_fresh_events_per_call(self):
        compiled = compile_spec(specs.get("fig3-elasticity").spec)
        first = compiled.events()
        second = compiled.events()
        assert first is not second
        assert list(first.events) == list(second.events)

    def test_with_operations_override(self):
        spec = specs.get("paper-uniform").spec
        shorter = spec.with_operations(epochs=5, kernel="scalar")
        config = compile_spec(shorter).config
        assert config.epochs == 5
        assert config.kernel == "scalar"
        # the original spec is untouched (specs are immutable values)
        assert spec.operations.epochs == 30


class TestTierLowering:
    """Spec tiers that hide runtime fields, against hand-built objects.

    The right-hand sides start from the compiled §III-A template and
    attach what the golden-scenario and example scripts hand-built
    before the registry existed.  Config equality here implies the
    committed golden frame streams stay byte-identical.
    """

    def compiled(self, name):
        return compile_spec(specs.get(name).spec)

    def test_fig3_elasticity(self):
        compiled = self.compiled("fig3-elasticity")
        config = paper_config(epochs=40, seed=4, partitions=24)
        assert compiled.config == config
        legacy = fig3_schedule(
            add_epoch=8, remove_epoch=20, count=12,
            layout=config.layout,
            storage_capacity=config.server_storage,
            query_capacity=config.server_query_capacity,
            rng=RngStreams(config.seed).events,
        )
        assert list(compiled.events().events) == list(legacy.events)

    def test_discrete_geo(self):
        base = paper_config(epochs=30, seed=5, partitions=24)
        layout = base.layout
        apps = list(base.apps)
        apps[0] = dataclasses.replace(
            apps[0], geography=hotspot(layout, 0)
        )
        apps[1] = dataclasses.replace(
            apps[1],
            geography=mixture(
                [(hotspot(layout, 3), 0.7), (hotspot(layout, 7), 0.3)]
            ),
        )
        legacy = dataclasses.replace(base, apps=tuple(apps))
        assert self.compiled("discrete-geo").config == legacy

    def test_confidence_tiers(self):
        legacy = dataclasses.replace(
            paper_config(epochs=30, seed=7, partitions=24),
            confidence=ConfidenceModel(
                base=0.97, country_factors={0: 0.9, 3: 0.85, 7: 0.95},
            ),
        )
        compiled = self.compiled("confidence-tiers")
        assert compiled.config == legacy
        assert compiled.spec.operations.rtol == 1e-9

    def test_churn_confidence(self):
        config = dataclasses.replace(
            paper_config(epochs=30, seed=11, partitions=24),
            confidence=ConfidenceModel(
                base=0.96, country_factors={1: 0.88, 4: 0.92, 8: 0.97},
            ),
        )
        compiled = self.compiled("churn-confidence")
        assert compiled.config == config
        legacy = EventSchedule(
            [
                AddServers(
                    epoch=8, count=14,
                    storage_capacity=config.server_storage,
                    query_capacity=config.server_query_capacity,
                ),
                RemoveServers(epoch=18, count=14),
            ],
            layout=config.layout,
            rng=RngStreams(config.seed).events,
        )
        assert list(compiled.events().events) == list(legacy.events)

    def test_example_datacenter_outage(self):
        legacy = dataclasses.replace(
            paper_config(epochs=60, partitions=60),
            net=NetConfig(loss=0.25, rounds_per_epoch=2,
                          dead_rounds=8),
            data_plane=DataPlaneConfig(),
        )
        compiled = self.compiled("datacenter-outage")
        assert compiled.config == legacy
        assert list(compiled.events().events) == [
            ScopedOutage(epoch=30, depth=3)
        ]

    def test_example_chaos_consistency(self):
        legacy = dataclasses.replace(
            paper_config(epochs=40, partitions=40),
            net=random_fault_schedule(3, 40, quiet_tail=10),
            data_plane=DataPlaneConfig(ops_per_epoch=32),
        )
        assert self.compiled("chaos-consistency").config == legacy


class TestSampler:
    def test_deterministic(self):
        assert sample_spec(3) == sample_spec(3)
        assert sample_chaos_spec(5) == sample_chaos_spec(5)

    def test_seeds_vary(self):
        assert sample_spec(0) != sample_spec(1)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_specs_compile_and_round_trip(self, seed):
        spec = sample_spec(seed)
        compile_spec(spec)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_chaos_sampler_matches_legacy_audit_config(self):
        legacy = dataclasses.replace(
            paper_config(epochs=24, partitions=30, seed=0),
            net=random_fault_schedule(0, 24, quiet_tail=8),
            data_plane=DataPlaneConfig(ops_per_epoch=24),
        )
        assert compile_spec(sample_chaos_spec(0)).config == legacy
