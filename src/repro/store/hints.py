"""Hinted handoff: writes parked for replicas believed dead.

When a sloppy-quorum write cannot reach a replica — the membership
view believes it dead, it turned out to be a ghost (timeout), or a
partition cut the path — the coordinator diverts the write to a
*hint*: a record parked on a healthy non-replica holder, addressed to
the missed target.  Hints are drained once the target rehabilitates
(believed live again, physically responding, and reachable from the
holder) and expire after a TTL so a permanently dead target does not
pin storage forever.

Drain attempts reuse the capped-backoff discipline of
:class:`repro.store.transfer.RetryQueue` via
:func:`repro.store.transfer.capped_backoff`: a hint whose target is
not yet ready backs off :data:`HINT_BASE_DELAY` epochs, doubling per
further failed probe up to :data:`HINT_BACKOFF_CAP`, instead of being
re-probed every epoch.

Hints deduplicate per ``(target, partition, key)`` keeping only the
freshest version — delivering an older parked write after a newer one
landed would be a lost-update bug, and versions are totally ordered
per key by construction (see :mod:`repro.store.quorum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.ring.partition import PartitionId
from repro.store.transfer import capped_backoff


#: Epochs a parked hint lives before it expires (see :meth:`HintStore.drain`).
HINT_TTL = 32
#: Epochs a hint waits after parking or its first failed probe; each
#: further failed probe doubles the wait, up to :data:`HINT_BACKOFF_CAP`.
HINT_BASE_DELAY = 1
HINT_BACKOFF_CAP = 8


@dataclass
class Hint:
    """One parked write addressed to a missed replica.

    ``holder`` is the believed-live server physically storing the
    hint: delivery additionally requires the holder itself to respond
    and to reach the target (the hint travels holder → target).
    """

    target: int
    holder: int
    pid: PartitionId
    key: bytes
    value: Optional[bytes]
    version: int
    born_epoch: int
    attempts: int = 0
    next_epoch: int = 0


class HintStore:
    """TTL-bounded, backoff-paced parking lot for diverted writes."""

    def __init__(self) -> None:
        self._hints: Dict[Tuple[int, PartitionId, bytes], Hint] = {}
        # Lifetime counters (monotonic; per-epoch deltas via epoch_counts).
        self.parked = 0
        self.refreshed = 0
        self.drained = 0
        self.expired = 0
        self.dropped = 0
        self._epoch_base = (0, 0, 0, 0, 0)

    def __len__(self) -> int:
        return len(self._hints)

    @property
    def depth(self) -> int:
        """Current hint queue depth (outstanding parked writes)."""
        return len(self._hints)

    def park(
        self,
        *,
        target: int,
        holder: int,
        pid: PartitionId,
        key: bytes,
        value: Optional[bytes],
        version: int,
        epoch: int,
    ) -> bool:
        """Park a missed write; False if an equal/fresher hint exists.

        A fresher write for the same (target, pid, key) *refreshes*
        the existing hint in place — value, version, holder, TTL clock
        and backoff all reset, because the newest version is the only
        one worth delivering.
        """
        key3 = (target, pid, key)
        existing = self._hints.get(key3)
        if existing is not None:
            if version <= existing.version:
                return False
            existing.holder = holder
            existing.value = value
            existing.version = version
            existing.born_epoch = epoch
            existing.attempts = 0
            existing.next_epoch = epoch + HINT_BASE_DELAY
            self.refreshed += 1
            return True
        self._hints[key3] = Hint(
            target=target, holder=holder, pid=pid, key=key,
            value=value, version=version, born_epoch=epoch,
            attempts=0, next_epoch=epoch + HINT_BASE_DELAY,
        )
        self.parked += 1
        return True

    def drain(
        self,
        epoch: int,
        *,
        ready: Callable[[Hint], bool],
        deliver: Callable[[Hint], bool],
    ) -> Tuple[int, int]:
        """One drain pass; returns ``(delivered, expired)``.

        For every outstanding hint, in parking order: skip it while its
        backoff clock has not come due; probe ``ready`` (target
        rehabilitated, holder up, path open) and on failure re-arm the
        backoff; otherwise hand it to ``deliver``.  A ``deliver``
        returning False means the hint is obsolete (target no longer a
        replica, partition gone) and is dropped rather than retried.

        TTL boundary (pinned by tests): a hint parked at epoch ``e``
        lives through epochs ``e .. e+HINT_TTL`` inclusive and expires
        at exactly ``e+HINT_TTL`` — its *expiry epoch* — not an epoch
        before or after.  On the expiry epoch the hint gets one last-gasp
        delivery attempt that overrides backoff pacing; if it lands it
        counts as drained, never expired.  Only a hint still undeliverable
        on its expiry epoch is expired.
        """
        delivered = expired = 0
        for key3, hint in list(self._hints.items()):
            age = epoch - hint.born_epoch
            if age > HINT_TTL:
                # Past the expiry epoch (a drain pass was skipped):
                # the window is gone, no delivery attempt.
                del self._hints[key3]
                self.expired += 1
                expired += 1
                continue
            expiring = age == HINT_TTL
            if hint.next_epoch > epoch and not expiring:
                continue
            if not ready(hint):
                if expiring:
                    del self._hints[key3]
                    self.expired += 1
                    expired += 1
                    continue
                hint.attempts += 1
                hint.next_epoch = epoch + capped_backoff(
                    hint.attempts, HINT_BASE_DELAY, HINT_BACKOFF_CAP
                )
                continue
            del self._hints[key3]
            if deliver(hint):
                self.drained += 1
                delivered += 1
            else:
                self.dropped += 1
        return delivered, expired

    def rekey_partition(
        self,
        parent: PartitionId,
        mapper: Callable[[bytes], PartitionId],
    ) -> int:
        """Re-address hints of a split parent to its children.

        ``mapper`` maps a key to the child partition now owning it.
        Returns the number of hints moved.
        """
        moved = 0
        for key3 in [k for k in self._hints if k[1] == parent]:
            hint = self._hints.pop(key3)
            hint.pid = mapper(hint.key)
            new_key3 = (hint.target, hint.pid, hint.key)
            existing = self._hints.get(new_key3)
            if existing is None or existing.version < hint.version:
                self._hints[new_key3] = hint
                moved += 1
            else:
                self.dropped += 1
        return moved

    def drop_target(self, target: int) -> int:
        """Discard every hint addressed to ``target`` (left the cloud)."""
        stale = [k for k in self._hints if k[0] == target]
        for key3 in stale:
            del self._hints[key3]
        self.dropped += len(stale)
        return len(stale)

    def begin_epoch(self) -> None:
        """Snapshot counters so :meth:`epoch_counts` reports deltas."""
        self._epoch_base = (
            self.parked, self.refreshed, self.drained,
            self.expired, self.dropped,
        )

    def epoch_counts(self) -> Dict[str, int]:
        """Counter deltas since the last :meth:`begin_epoch`."""
        base = self._epoch_base
        return {
            "parked": self.parked - base[0],
            "refreshed": self.refreshed - base[1],
            "drained": self.drained - base[2],
            "expired": self.expired - base[3],
            "dropped": self.dropped - base[4],
        }
