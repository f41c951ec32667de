"""Faulty control-plane network: loss/delay/partitions + membership.

The message-count-accurate gossip control plane (the repo's one gossip
implementation): every
heartbeat, price-dissemination and membership message crosses the
:class:`NetworkModel`, and the engine consumes *believed* membership
and price columns through the :class:`MembershipService` seam instead
of reading physical liveness directly.
"""

from repro.net.fabric import GossipFabric, UNKNOWN_AGE
from repro.net.membership import (
    EffectivePriceBoard,
    MembershipError,
    MembershipService,
    OracleMembership,
)
from repro.net.model import (
    ELECTION,
    HEARTBEAT,
    LOST_LIVE_NODE,
    MESSAGE_CODES,
    NEW_NODE,
    PRICE,
    LinkFlap,
    MessageStats,
    NetConfig,
    NetError,
    NetPartition,
    NetworkModel,
)

__all__ = [
    "EffectivePriceBoard",
    "ELECTION",
    "GossipFabric",
    "HEARTBEAT",
    "LinkFlap",
    "LOST_LIVE_NODE",
    "MESSAGE_CODES",
    "MembershipError",
    "MembershipService",
    "MessageStats",
    "NEW_NODE",
    "NetConfig",
    "NetError",
    "NetPartition",
    "NetworkModel",
    "OracleMembership",
    "PRICE",
    "UNKNOWN_AGE",
]
