"""The user-facing key-value engine: put/get/delete with replica routing.

This is the data plane of Skute.  Objects are routed by key hash to the
owning partition of the selected application ring, written through to
every replica, and read from the replica geographically closest to the
client.  Partition byte sizes, server storage accounting and splits all
flow through the same catalog the economy manages, so control-plane
decisions (migrations, replications, suicides) are immediately visible
to the data plane.

Replica copies are byte-identical, so object payloads are stored once
per *partition* while the catalog tracks which servers hold the copy;
per-server duplication would only multiply memory without changing any
observable behaviour.  If every replica of a partition is lost, the
partition's objects are lost with it — exactly the durability semantics
the availability machinery exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.location import Location, diversity
from repro.cluster.topology import Cloud
from repro.net.membership import OracleMembership
from repro.ring.hashing import Key, hash_key, key_bytes
from repro.ring.partition import Partition, PartitionId
from repro.ring.virtualring import RingSet, VirtualRing
from repro.store.replica import ReplicaCatalog


class StoreError(KeyError):
    """Raised on reads of missing keys or writes to unroutable rings."""


class NoReplicaError(RuntimeError):
    """Raised when a partition has no live replica to serve a request."""


@dataclass(frozen=True)
class ReadResult:
    """A successful read: the value plus where it was served from."""

    value: bytes
    pid: PartitionId
    server_id: int
    distance: int  # diversity between client and serving server (0 if no client)


class KVStore:
    """Replicated key-value store over a cloud, ring set and catalog."""

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, *,
                 membership=None) -> None:
        self._cloud = cloud
        self._rings = rings
        self._catalog = catalog
        self._membership = (
            membership if membership is not None else OracleMembership(cloud)
        )
        self._objects: Dict[PartitionId, Dict[bytes, bytes]] = {}

    # -- routing -----------------------------------------------------------

    def _route(self, app_id: int, ring_id: int, key: Key
               ) -> Tuple[VirtualRing, Partition]:
        ring = self._rings.ring(app_id, ring_id)
        return ring, ring.lookup(key)

    def _pick_replica(self, pid: PartitionId,
                      client: Optional[Location]) -> Tuple[int, int]:
        """Choose the serving replica: lowest diversity to the client.

        Candidates come from the believed membership view — the store
        can only route to replicas its failure detector vouches for.
        """
        believed = self._membership.believed
        candidates = [
            sid for sid in self._catalog.servers_of(pid) if believed(sid)
        ]
        if not candidates:
            raise NoReplicaError(f"no live replica for {pid}")
        if client is None:
            return candidates[0], 0
        best_sid = candidates[0]
        best_d = diversity(client, self._cloud.server(best_sid).location)
        for sid in candidates[1:]:
            d = diversity(client, self._cloud.server(sid).location)
            if d < best_d:
                best_sid, best_d = sid, d
        return best_sid, best_d

    # -- data plane -----------------------------------------------------------

    def put(self, app_id: int, ring_id: int, key: Key, value: bytes,
            *, client: Optional[Location] = None) -> PartitionId:
        """Write ``value`` under ``key``; returns the owning partition.

        Grows the partition (and each hosting server's storage) by the
        byte delta.  Raises :class:`~repro.cluster.server.CapacityError`
        if any replica's server cannot absorb the growth — the caller
        (or the insert workload) counts that as an insert failure.
        """
        if not isinstance(value, bytes):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        ring, partition = self._route(app_id, ring_id, key)
        kb = key_bytes(key)
        bucket = self._objects.setdefault(partition.pid, {})
        delta = len(value) - len(bucket.get(kb, b""))
        if delta > 0:
            self._catalog.grow_replicas(partition.pid, delta)
            partition.grow(delta)
        elif delta < 0:
            self._catalog.shrink_replicas(partition.pid, -delta)
            partition.shrink(-delta)
        bucket[kb] = value
        if partition.overfull:
            self._split(ring, partition)
        return partition.pid

    def get(self, app_id: int, ring_id: int, key: Key,
            *, client: Optional[Location] = None) -> ReadResult:
        """Read ``key``, serving from the replica closest to ``client``."""
        __, partition = self._route(app_id, ring_id, key)
        kb = key_bytes(key)
        bucket = self._objects.get(partition.pid, {})
        if kb not in bucket:
            raise StoreError(f"key {key!r} not found in {partition.pid}")
        server_id, distance = self._pick_replica(partition.pid, client)
        return ReadResult(
            value=bucket[kb],
            pid=partition.pid,
            server_id=server_id,
            distance=distance,
        )

    def delete(self, app_id: int, ring_id: int, key: Key) -> bool:
        """Delete ``key``; returns False when it did not exist."""
        __, partition = self._route(app_id, ring_id, key)
        kb = key_bytes(key)
        bucket = self._objects.get(partition.pid, {})
        if kb not in bucket:
            return False
        nbytes = len(bucket.pop(kb))
        self._catalog.shrink_replicas(partition.pid, nbytes)
        partition.shrink(nbytes)
        return True

    def contains(self, app_id: int, ring_id: int, key: Key) -> bool:
        __, partition = self._route(app_id, ring_id, key)
        return key_bytes(key) in self._objects.get(partition.pid, {})

    def keys_in(self, pid: PartitionId) -> List[bytes]:
        return sorted(self._objects.get(pid, {}))

    def object_count(self, pid: PartitionId) -> int:
        return len(self._objects.get(pid, {}))

    # -- splits ---------------------------------------------------------------

    def _split(self, ring: VirtualRing, partition: Partition) -> None:
        """Split an overfull partition, redistributing stored objects.

        The byte share of the low half is *measured* from the actual
        keys, so partition sizes stay exact; the catalog re-homes every
        replica onto both children.
        """
        bucket = self._objects.pop(partition.pid, {})
        low_range, __ = partition.key_range.split()
        low_bytes = sum(
            len(v)
            for k, v in bucket.items()
            if low_range.contains_position(hash_key(k))
        )
        low_share = low_bytes / partition.size if partition.size else 0.5
        low, high = ring.split_partition(partition.pid, low_share=low_share)
        # Re-measure: the integer share split may round differently from
        # the actual key distribution; fix the children to exact bytes.
        actual_low = {
            k: v
            for k, v in bucket.items()
            if low.key_range.contains_position(hash_key(k))
        }
        actual_high = {k: v for k, v in bucket.items() if k not in actual_low}
        exact_low = sum(len(v) for v in actual_low.values())
        low.size = exact_low
        high.size = partition.size - exact_low
        self._catalog.split_partition(partition, low, high)
        self._objects[low.pid] = actual_low
        self._objects[high.pid] = actual_high
        # Children may themselves be overfull under adversarial key skew.
        for child in (low, high):
            if child.overfull and child.key_range.span >= 2:
                self._split(ring, child)

    # -- failure handling --------------------------------------------------------

    def drop_lost_partitions(self) -> List[PartitionId]:
        """Discard objects of partitions that lost their last replica."""
        lost = [
            pid
            for pid in list(self._objects)
            if self._catalog.replica_count(pid) == 0
        ]
        for pid in lost:
            del self._objects[pid]
        return lost
