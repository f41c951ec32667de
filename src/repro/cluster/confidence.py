"""Server confidence model.

The paper weighs every replica pair by the *confidence* of the two hosting
servers (eq. 2): a subjective [0, 1] estimate combining technical factors
(hardware quality, track record) with non-technical ones (political and
economic stability of the hosting country).  The evaluation assigns equal
confidence to all servers; this module provides that default plus a small
composable model so differentiated-confidence scenarios can be expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cluster.location import Location


class ConfidenceError(ValueError):
    """Raised for confidence values outside [0, 1]."""


def validate_confidence(value: float) -> float:
    """Return ``value`` if it is a valid confidence, else raise."""
    if not 0.0 <= value <= 1.0:
        raise ConfidenceError(f"confidence must be in [0, 1], got {value}")
    return float(value)


@dataclass
class ConfidenceModel:
    """Assigns a confidence to every server location.

    The effective confidence of a server is the product of:

    * ``base`` — cloud-wide default (the paper's experiments use 1.0);
    * an optional per-country factor (political/economic stability);
    * an optional per-server override keyed by server id.

    Factors multiply so a shaky country can only lower confidence, never
    raise it above the per-server override.
    """

    base: float = 1.0
    country_factors: Dict[int, float] = field(default_factory=dict)
    server_overrides: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_confidence(self.base)
        for country, factor in self.country_factors.items():
            if not 0.0 <= factor <= 1.0:
                raise ConfidenceError(
                    f"country {country} factor must be in [0, 1], got {factor}"
                )
        for server_id, value in self.server_overrides.items():
            if not 0.0 <= value <= 1.0:
                raise ConfidenceError(
                    f"server {server_id} override must be in [0, 1], got {value}"
                )

    def for_server(self, server_id: int, location: Location) -> float:
        """Effective confidence of one server."""
        if server_id in self.server_overrides:
            return self.server_overrides[server_id]
        factor = self.country_factors.get(location.country, 1.0)
        return self.base * factor



def uniform_confidence(value: float = 1.0) -> ConfidenceModel:
    """The paper's experimental setting: every server equally trusted."""
    return ConfidenceModel(base=validate_confidence(value))
