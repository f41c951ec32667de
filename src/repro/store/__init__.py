"""Storage substrate: replica catalog, transfers, consistency, quorum store."""

from repro.store.consistency import (
    DEFAULT_CONSISTENCY,
    ConsistencyError,
    ConsistencyModel,
)
from repro.store.hints import Hint, HintStore
from repro.store.quorum import (
    DataPlaneStats,
    Level,
    QuorumError,
    QuorumKVStore,
    QuorumReadResult,
    QuorumWriteResult,
    ReplicaOutcome,
    Versioned,
)
from repro.store.replica import (
    CatalogListener,
    ReplicaCatalog,
    ReplicaError,
    ReplicaKey,
)
from repro.store.transfer import (
    TransferBatch,
    TransferEngine,
    TransferKind,
    TransferOutcome,
    TransferRequest,
    TransferResult,
    TransferStats,
)

__all__ = [
    "CatalogListener",
    "ConsistencyError",
    "ConsistencyModel",
    "DEFAULT_CONSISTENCY",
    "DataPlaneStats",
    "Hint",
    "HintStore",
    "Level",
    "ReplicaOutcome",
    "QuorumError",
    "QuorumKVStore",
    "QuorumReadResult",
    "QuorumWriteResult",
    "Versioned",
    "ReplicaCatalog",
    "ReplicaError",
    "ReplicaKey",
    "TransferBatch",
    "TransferEngine",
    "TransferKind",
    "TransferOutcome",
    "TransferRequest",
    "TransferResult",
    "TransferStats",
]
