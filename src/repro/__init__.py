"""Skute: cost-efficient, differentiated data availability in data clouds.

Reproduction of Bonvin, Papaioannou & Aberer (ICDE 2010).  A scattered
key-value store where every partition replica is an autonomous economic
agent: it pays virtual rent to its server, earns utility from queries,
and replicates, migrates or suicides to keep its application's
availability SLA at minimum cost.

Quick tour
----------
>>> from repro import compile_spec, paper_spec
>>> sim = compile_spec(paper_spec(epochs=30, partitions=20)).simulation()
>>> log = sim.run()
>>> log.last.vnodes_total >= 3 * 20  # every ring met its replica target
True

Packages
--------
``repro.cluster``   locations, diversity, servers, topology, events
``repro.ring``      consistent hashing, partitions, virtual rings
``repro.store``     replica catalog, transfers, consistency, KV engine
``repro.core``      the virtual economy (eqs. 1-5, decision process)
``repro.workload``  Pareto popularity, Poisson arrivals, spikes, inserts
``repro.sim``       the epoch simulator, metrics and reporting
``repro.baselines`` static/random placement and no-differentiation ablations
``repro.analysis``  series shapes, fairness stats, claim tables
"""

from repro.cluster import (
    Cloud,
    CloudLayout,
    Location,
    Server,
    build_cloud,
    diversity,
    fig3_schedule,
)
from repro.core import (
    AgentRegistry,
    DecisionEngine,
    EconomicPolicy,
    PriceBoard,
    RentModel,
    availability,
    paper_thresholds,
)
from repro.ring import (
    AvailabilityLevel,
    KeyRange,
    Partition,
    PartitionId,
    RingSet,
    Router,
    VirtualRing,
    hash_key,
)
from repro.sim import (
    MetricsLog,
    SimConfig,
    Simulation,
    compile_spec,
    load_balance_index,
    paper_spec,
    saturation_spec,
    slashdot_spec,
)
from repro.store import (
    KVStore,
    Level,
    QuorumKVStore,
    ReplicaCatalog,
    TransferEngine,
)
from repro.workload import (
    ApplicationSpec,
    PopularityMap,
    WorkloadMix,
    slashdot_profile,
)

__version__ = "1.0.0"

__all__ = [
    "AgentRegistry",
    "ApplicationSpec",
    "AvailabilityLevel",
    "Cloud",
    "CloudLayout",
    "DecisionEngine",
    "EconomicPolicy",
    "KVStore",
    "Level",
    "QuorumKVStore",
    "KeyRange",
    "Location",
    "MetricsLog",
    "Partition",
    "PartitionId",
    "PopularityMap",
    "PriceBoard",
    "RentModel",
    "ReplicaCatalog",
    "RingSet",
    "Router",
    "Server",
    "SimConfig",
    "Simulation",
    "TransferEngine",
    "VirtualRing",
    "WorkloadMix",
    "availability",
    "build_cloud",
    "compile_spec",
    "diversity",
    "fig3_schedule",
    "hash_key",
    "load_balance_index",
    "paper_spec",
    "paper_thresholds",
    "saturation_spec",
    "slashdot_profile",
    "slashdot_spec",
    "__version__",
]
