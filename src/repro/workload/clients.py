"""Geographic distribution of query clients.

Eq. 4's proximity weight g_j depends on how many queries originate from
each client location l.  The paper's evaluation assumes a Uniform client
geography (g_j = 1 for every server); regional scenarios — the reason
geographic placement exists at all — need skewed geographies, so this
module provides uniform, single-hotspot and mixture distributions over
the location tree.

Client locations are modelled at *country* granularity (a client is
"somewhere in country X"): its Location carries zeros below the country
level, and diversity against a server then reflects how far the query
travels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location
from repro.cluster.topology import CloudLayout


class GeographyError(ValueError):
    """Raised for invalid client-geography parameters."""


def country_site(layout: CloudLayout, country_index: int) -> Location:
    """The representative client location of one country of the layout."""
    if not 0 <= country_index < layout.countries:
        raise GeographyError(
            f"country_index must be in [0, {layout.countries}), "
            f"got {country_index}"
        )
    return Location(
        continent=country_index // layout.countries_per_continent,
        country=country_index % layout.countries_per_continent,
        datacenter=0,
        room=0,
        rack=0,
        server=0,
    )


@dataclass(frozen=True)
class ClientGeography:
    """A fixed probability distribution over client locations.

    ``sites`` and ``shares`` are parallel; shares must sum to 1.  The
    special value ``UNIFORM`` (no sites) denotes the paper's uniform
    assumption, under which proximity plays no role (g_j ≡ 1) and the
    simulator can skip per-location accounting entirely.
    """

    sites: Tuple[Location, ...] = ()
    shares: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.sites) != len(self.shares):
            raise GeographyError("sites and shares must be parallel")
        if self.sites:
            if any(s < 0 for s in self.shares):
                raise GeographyError("shares must be non-negative")
            total = sum(self.shares)
            if not np.isclose(total, 1.0):
                raise GeographyError(f"shares must sum to 1, got {total}")

    @property
    def is_uniform(self) -> bool:
        return not self.sites

    def weighted_sites(self) -> List[Tuple[Location, float]]:
        return list(zip(self.sites, self.shares))


#: The paper's evaluation assumption (§III-A).
UNIFORM = ClientGeography()


def uniform_geography() -> ClientGeography:
    """Uniform clients: proximity weight 1 everywhere (paper §III-A)."""
    return UNIFORM


def uniform_over_countries(layout: CloudLayout) -> ClientGeography:
    """Equal client share in every country — the *explicit* uniform.

    Behaviourally equivalent to :data:`UNIFORM` for placement (all
    servers equally close in aggregate) but exercises the per-location
    accounting paths.
    """
    sites = tuple(
        country_site(layout, c) for c in range(layout.countries)
    )
    share = 1.0 / layout.countries
    return ClientGeography(sites=sites, shares=(share,) * layout.countries)


def hotspot(layout: CloudLayout, country_index: int, *,
            concentration: float = 0.8) -> ClientGeography:
    """Most clients in one country, the rest spread uniformly.

    Models a regional application (the motivation for per-application
    geographic placement in §I).
    """
    if not 0.0 < concentration <= 1.0:
        raise GeographyError(
            f"concentration must be in (0, 1], got {concentration}"
        )
    sites = tuple(country_site(layout, c) for c in range(layout.countries))
    rest = (1.0 - concentration) / max(layout.countries - 1, 1)
    shares = tuple(
        concentration if c == country_index else rest
        for c in range(layout.countries)
    )
    # Renormalise exactly (guards the 1-country degenerate case).
    total = sum(shares)
    shares = tuple(s / total for s in shares)
    return ClientGeography(sites=sites, shares=shares)


def mixture(components: Sequence[Tuple[ClientGeography, float]]
            ) -> ClientGeography:
    """Weighted mixture of discrete geographies."""
    if not components:
        raise GeographyError("need at least one component")
    accum: Dict[Location, float] = {}
    weight_total = sum(w for __, w in components)
    if weight_total <= 0:
        raise GeographyError("component weights must sum to > 0")
    for geo, weight in components:
        if geo.is_uniform:
            raise GeographyError("cannot mix the symbolic UNIFORM geography")
        for site, share in geo.weighted_sites():
            accum[site] = accum.get(site, 0.0) + share * (weight / weight_total)
    sites = tuple(accum.keys())
    shares = tuple(accum.values())
    return ClientGeography(sites=sites, shares=shares)
