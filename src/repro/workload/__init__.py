"""Workload generators: popularity, arrivals, geography, spikes, inserts."""

from repro.workload.arrivals import (
    ArrivalError,
    ConstantRate,
    PiecewiseLinearRate,
    PoissonArrivals,
    RateProfile,
    scaled,
)
from repro.workload.clients import (
    UNIFORM,
    ClientGeography,
    GeographyError,
    country_site,
    hotspot,
    mixture,
    uniform_geography,
    uniform_over_countries,
)
from repro.workload.inserts import (
    keyspace_shares,
    DEFAULT_INSERT_RATE,
    DEFAULT_OBJECT_SIZE,
    InsertBatch,
    InsertError,
    InsertOutcome,
    InsertWorkload,
)
from repro.workload.mix import (
    ApplicationSpec,
    EpochLoad,
    WorkloadError,
    WorkloadMix,
)
from repro.workload.popularity import (
    PopularityError,
    PopularityMap,
    pareto_weights,
)
from repro.workload.slashdot import PAPER_SPIKE_FACTOR, slashdot_profile

__all__ = [
    "ApplicationSpec",
    "ArrivalError",
    "ClientGeography",
    "ConstantRate",
    "DEFAULT_INSERT_RATE",
    "DEFAULT_OBJECT_SIZE",
    "EpochLoad",
    "GeographyError",
    "InsertBatch",
    "InsertError",
    "InsertOutcome",
    "InsertWorkload",
    "PAPER_SPIKE_FACTOR",
    "PiecewiseLinearRate",
    "PoissonArrivals",
    "PopularityError",
    "PopularityMap",
    "RateProfile",
    "UNIFORM",
    "WorkloadError",
    "WorkloadMix",
    "country_site",
    "hotspot",
    "mixture",
    "pareto_weights",
    "scaled",
    "slashdot_profile",
    "uniform_geography",
    "uniform_over_countries",
]
