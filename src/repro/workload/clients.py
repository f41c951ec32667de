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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location
from repro.cluster.topology import CloudLayout
from repro.workload.keys import ZipfKeys


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

    def query_split(self, total_queries: int,
                    rng: Optional[np.random.Generator] = None
                    ) -> Dict[Location, int]:
        """Split an epoch's queries over client locations.

        With an rng the split is multinomial; without, deterministic
        proportional rounding (largest remainders) is used.
        """
        if total_queries < 0:
            raise GeographyError(
                f"total_queries must be >= 0, got {total_queries}"
            )
        if self.is_uniform:
            raise GeographyError("uniform geography has no discrete sites")
        if rng is not None:
            counts = rng.multinomial(total_queries, np.array(self.shares))
            return dict(zip(self.sites, counts.tolist()))
        shares = np.array(self.shares)
        raw = shares * total_queries
        counts = np.floor(raw).astype(int)
        remainder = total_queries - int(counts.sum())
        if remainder > 0:
            order = np.argsort(-(raw - counts))
            for i in order[:remainder]:
                counts[i] += 1
        return dict(zip(self.sites, counts.tolist()))


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


@dataclass(frozen=True)
class ClientRequest:
    """One synthetic data-plane operation drawn by :class:`DataPlaneClients`."""

    kind: str  # "get" | "put"
    app_id: int
    ring_id: int
    key: bytes
    value: Optional[bytes]  # None for gets
    client: Optional[Location]


class DataPlaneClients:
    """Synthetic get/put client traffic for the stale-view data plane.

    Draws ``ops_per_epoch`` operations per epoch over a fixed
    :class:`~repro.workload.keys.ZipfKeys` universe (``dp-`` prefix),
    splitting get/put by ``read_fraction``.  Values encode the epoch
    and draw index so every write is distinguishable; optional client
    ``sites`` attach a geography so proximity routing is exercised.

    The draw order is deterministic per RNG stream, which is what lets
    the consistency audit replay the exact history against committed
    ground truth.
    """

    def __init__(self, *, apps: Sequence[Tuple[int, int]],
                 ops_per_epoch: int, read_fraction: float,
                 keyspace: int, value_size: int,
                 rng: np.random.Generator,
                 sites: Sequence[Location] = ()) -> None:
        if not apps:
            raise GeographyError("need at least one (app_id, ring_id)")
        if ops_per_epoch < 0:
            raise GeographyError(
                f"ops_per_epoch must be >= 0, got {ops_per_epoch}"
            )
        if keyspace < 1:
            raise GeographyError(f"keyspace must be >= 1, got {keyspace}")
        if not 0.0 <= read_fraction <= 1.0:
            raise GeographyError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        if value_size < 1:
            raise GeographyError(
                f"value_size must be >= 1, got {value_size}"
            )
        self._apps = tuple(apps)
        self._ops = ops_per_epoch
        self._read_fraction = read_fraction
        self._value_size = value_size
        self._rng = rng
        self._sites = tuple(sites)
        self._universe = ZipfKeys("dp", keyspace)

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return self._universe.keys

    def _value(self, epoch: int, index: int) -> bytes:
        stamp = f"e{epoch}-i{index}-".encode("ascii")
        pad = self._value_size - len(stamp)
        if pad <= 0:
            return stamp[: self._value_size]
        return stamp + b"x" * pad

    def draw(self, epoch: int) -> List[ClientRequest]:
        """One epoch's operations, in issue order."""
        rng = self._rng
        universe = self._universe
        out: List[ClientRequest] = []
        for i in range(self._ops):
            app_id, ring_id = self._apps[
                int(rng.integers(len(self._apps)))
            ]
            key = universe.keys[universe.draw(rng)]
            client = None
            if self._sites:
                client = self._sites[int(rng.integers(len(self._sites)))]
            if float(rng.random()) < self._read_fraction:
                out.append(ClientRequest(
                    kind="get", app_id=app_id, ring_id=ring_id,
                    key=key, value=None, client=client,
                ))
            else:
                out.append(ClientRequest(
                    kind="put", app_id=app_id, ring_id=ring_id,
                    key=key, value=self._value(epoch, i), client=client,
                ))
        return out


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
