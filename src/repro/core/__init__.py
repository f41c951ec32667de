"""Skute's core: the virtual economy for replica management."""

from repro.core.agent import AgentError, AgentLedger, AgentRegistry, VNodeAgent
from repro.core.availability import (
    AvailabilityError,
    availability,
    availability_without,
    pair_gain,
    paper_thresholds,
)
from repro.core.board import BoardError, PriceBoard, update_board
from repro.core.decision import DecisionEngine
from repro.core.economy import (
    DEFAULT_EPOCHS_PER_MONTH,
    EconomyError,
    RentModel,
)
from repro.core.placement import (
    Candidate,
    PlacementError,
    PlacementScorer,
    proximity_weights,
)
from repro.core.policy import DecisionStats, EconomicPolicy, PolicyError

__all__ = [
    "AgentError",
    "AgentLedger",
    "AgentRegistry",
    "AvailabilityError",
    "BoardError",
    "Candidate",
    "DEFAULT_EPOCHS_PER_MONTH",
    "DecisionEngine",
    "DecisionStats",
    "EconomicPolicy",
    "EconomyError",
    "PlacementError",
    "PlacementScorer",
    "PolicyError",
    "PriceBoard",
    "RentModel",
    "VNodeAgent",
    "availability",
    "availability_without",
    "pair_gain",
    "paper_thresholds",
    "proximity_weights",
    "update_board",
]
