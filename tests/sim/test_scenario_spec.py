"""The declarative scenario engine: validation, compile, round-trip.

Three layers of guarantees:

* **validation** — malformed specs fail loudly at construction or
  ``from_dict`` time (unknown keys anywhere in the tree, overlapping
  surge phases, negative budgets, impossible tiers);
* **compilation** — ``compile_spec`` is deterministic, and every tier
  that hides or renames runtime fields (confidence, geography, events,
  net, chaos) lowers onto exactly the runtime objects a hand-built run
  would use (inlined here as ground truth — config equality implies
  byte-identical frame streams without re-running them);
* **serialization** — every registry spec and sampled spec round-trips
  losslessly through ``to_dict``/``from_dict`` and JSON, and the JSON
  text itself is fenced: ``to_json()`` of every registry spec and
  benchmark workload hashes to what the commit before the spec layer
  stopped mirroring the config layer produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.topology import CloudLayout
from repro.core.economy import DEFAULT_EPOCHS_PER_MONTH, RentModel
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
from repro.sim.config import DataPlaneConfig
from repro.sim.scenario import (
    ChaosSpec,
    ConfidenceSpec,
    ConstraintsSpec,
    Diurnal,
    EconomySpec,
    FailureSpec,
    FlashCrowd,
    FlowsSpec,
    GeoSpec,
    JoinWave,
    LeaveWave,
    NetSpec,
    OperationsSpec,
    PolicySpec,
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


def paper_config(**kwargs):
    return compile_spec(paper_spec(**kwargs)).config


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
        ]}}}, "PartitionWindow"),
        ({"failure": {"events": [
            {"kind": "join", "epoch": 1, "count": 1, "colour": "red"},
        ]}}, "JoinWave"),
        # wrong section shapes
        ({"flows": []}, "FlowsSpec"),
        ({"flows": {"surges": {"spike_epoch": 1}}}, "FlowsSpec"),
        ({"flows": {"surges": [[1, 2]]}}, "FlashCrowd"),
        ({"structure": {"confidence": {"country_factors": 3}}},
         "ConfidenceSpec"),
        # the kind-tagged event union
        ({"failure": {"events": [{"epoch": 1}]}}, "FailureSpec"),
        ({"failure": {"events": [{"kind": "meteor", "epoch": 1}]}},
         "FailureSpec"),
        # out-of-range values in runtime classes the tiers hold directly
        ({"structure": {"layout": {"countries": 0}}}, "CloudLayout"),
        ({"flows": {"inserts": {"rate": -1}}}, "InsertConfig"),
        ({"flows": {"traffic": {"hint_ttl": 0}}}, "DataPlaneConfig"),
        ({"flows": {"serving": {"hint_ttl": 0}}}, "ServingConfig"),
        ({"flows": {"serving": {"level": "most"}}}, "ServingConfig"),
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
            ConfidenceSpec(base=0.9, country_factors={0: 1.5})

    def test_bad_diurnal_amplitude(self):
        with pytest.raises(SpecError, match="amplitude"):
            Diurnal(amplitude=1.5)

    def test_bad_chaos_loss_range(self):
        with pytest.raises(SpecError, match="loss"):
            ChaosSpec(loss_lo=0.5, loss_hi=0.2)

    def test_tenant_needs_tiers(self):
        with pytest.raises(SpecError, match="tier"):
            TenantSpec(name="t", share=1.0, tiers=())

    def test_net_fabric_is_only_full(self):
        NetSpec(fabric="full")  # the frozen benchmark workloads name it
        with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
            NetSpec(fabric="counting")

    def test_fabric_key_does_not_reach_the_net_config(self):
        assert "fabric" not in {
            f.name for f in dataclasses.fields(NetConfig)
        }
        assert NetSpec(fabric="full").compile() == NetSpec().compile()

    @pytest.mark.parametrize("section, key, value, default", [
        ("policy", "rent_weight", 0.5, 1.0),
        ("policy", "max_replicas", 2, None),
        ("economy", "normalize_by_usage", True, False),
    ])
    def test_name_only_economy_fields_take_only_their_default(
            self, tmp_path, section, key, value, default):
        """Frozen spec files name these fields; only the value every
        run uses loads, and it changes nothing."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"name": "x", "constraints": {section: {key: value}}}
        ))
        with pytest.raises(SpecError, match=f"^{section}: {key} must be"):
            load_spec(path)
        path.write_text(json.dumps(
            {"name": "x", "constraints": {section: {key: default}}}
        ))
        assert load_spec(path) == ScenarioSpec(name="x")

    def test_policy_spec_lowers_every_policy_knob(self):
        """``PolicySpec.compile`` names each ``EconomicPolicy`` field by
        hand; every one must reach the policy (``consistency`` is left
        at its default by the spec layer)."""
        changed = {
            "hysteresis": 5, "revenue_per_query": 0.02,
            "repair_iterations": 3, "migration_margin": 0.1,
            "storage_headroom": 0.2,
        }
        knobs = {f.name for f in dataclasses.fields(EconomicPolicy)}
        assert set(changed) == knobs - {"consistency"}
        policy = PolicySpec(**changed).compile()
        assert {key: getattr(policy, key) for key in changed} == changed
        assert policy.consistency == EconomicPolicy().consistency

    def test_economy_spec_lowers_alpha_and_beta(self):
        model = EconomySpec(alpha=2.5, beta=0.5).compile()
        assert model == RentModel(
            alpha=2.5, beta=0.5, epochs_per_month=DEFAULT_EPOCHS_PER_MONTH
        )

    def test_net_refused_above_the_fabric_cap(self):
        big = StructureSpec(scale=100)  # 20 000 servers
        assert big.compile_layout().total_servers > FULL_FABRIC_MAX_NODES
        ScenarioSpec(name="x", structure=big)  # no net, no fabric
        for failure in (FailureSpec(net=NetSpec()),
                        FailureSpec(chaos=ChaosSpec())):
            with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
                ScenarioSpec(name="x", structure=big, failure=failure)

    def test_join_waves_count_toward_the_fabric_cap(self):
        room = FULL_FABRIC_MAX_NODES - CloudLayout().total_servers
        waves = (JoinWave(epoch=1, count=room - 1),
                 JoinWave(epoch=2, count=1))
        ScenarioSpec(name="x", failure=FailureSpec(events=waves,
                                                   net=NetSpec()))
        over = waves + (JoinWave(epoch=3, count=1),)
        with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
            ScenarioSpec(name="x", failure=FailureSpec(events=over,
                                                       net=NetSpec()))

    def test_leaves_do_not_make_room_under_the_fabric_cap(self):
        # The load-time count is an upper bound on purpose: leaves are
        # not subtracted, so leave-then-join near the cap is refused.
        room = FULL_FABRIC_MAX_NODES - CloudLayout().total_servers
        events = (LeaveWave(epoch=1, count=10),
                  JoinWave(epoch=2, count=room + 1))
        with pytest.raises(SpecError, match="FULL_FABRIC_MAX_NODES"):
            ScenarioSpec(name="x", failure=FailureSpec(events=events,
                                                       net=NetSpec()))

    def test_net_suspect_rounds_keeps_its_bound(self):
        # Read by no code, but frozen spec files name it.
        assert NetSpec(suspect_rounds=3, dead_rounds=8).compile() == (
            NetSpec(dead_rounds=8).compile()
        )
        for suspect, dead in ((0, 8), (5, 5)):
            with pytest.raises(SpecError, match="suspect_rounds"):
                NetSpec(suspect_rounds=suspect, dead_rounds=dead)

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
        # sha256 of to_json() as generated on the commit before this
        # layer stopped mirroring the config classes (PR 14's tree).
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_FENCE[key]

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
        assert compiled.rtol == 1e-9

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
