"""Storage substrate: replica catalog, transfers, consistency, KV engine."""

from repro.store.consistency import (
    DEFAULT_CONSISTENCY,
    ConsistencyError,
    ConsistencyModel,
)
from repro.store.hints import Hint, HintError, HintStore
from repro.store.kvstore import (
    KVStore,
    NoReplicaError,
    ReadResult,
    StoreError,
)
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
    "HintError",
    "HintStore",
    "KVStore",
    "Level",
    "ReplicaOutcome",
    "QuorumError",
    "QuorumKVStore",
    "QuorumReadResult",
    "QuorumWriteResult",
    "Versioned",
    "NoReplicaError",
    "ReadResult",
    "ReplicaCatalog",
    "ReplicaError",
    "ReplicaKey",
    "StoreError",
    "TransferBatch",
    "TransferEngine",
    "TransferKind",
    "TransferOutcome",
    "TransferRequest",
    "TransferResult",
    "TransferStats",
]
