"""Ring substrate: consistent hashing, key ranges, partitions, rings."""

from repro.ring.hashing import (
    RING_BITS,
    RING_SIZE,
    HashError,
    Key,
    hash_key,
    in_range,
    midpoint,
    ring_distance,
)
from repro.ring.keyspace import (
    KeyRange,
    KeyRangeError,
    covers_ring,
    ranges_from_tokens,
)
from repro.ring.partition import (
    DEFAULT_PARTITION_CAPACITY,
    Partition,
    PartitionError,
    PartitionId,
    PartitionIdAllocator,
)
from repro.ring.router import Route, Router, RoutingError
from repro.ring.virtualring import (
    AvailabilityLevel,
    RingError,
    RingSet,
    VirtualRing,
    build_ring,
)

__all__ = [
    "AvailabilityLevel",
    "DEFAULT_PARTITION_CAPACITY",
    "HashError",
    "Key",
    "KeyRange",
    "KeyRangeError",
    "Partition",
    "PartitionError",
    "PartitionId",
    "PartitionIdAllocator",
    "RING_BITS",
    "RING_SIZE",
    "RingError",
    "RingSet",
    "Route",
    "Router",
    "RoutingError",
    "VirtualRing",
    "build_ring",
    "covers_ring",
    "hash_key",
    "in_range",
    "midpoint",
    "ranges_from_tokens",
    "ring_distance",
]
