"""Unit tests for client geographies."""

import pytest

from repro.cluster.topology import CloudLayout
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

LAYOUT = CloudLayout()


class TestUniform:
    def test_uniform_flag(self):
        assert UNIFORM.is_uniform
        assert uniform_geography().is_uniform


class TestCountrySite:
    def test_site_matches_layout_grouping(self):
        site = country_site(LAYOUT, 3)
        assert site.continent == 1  # 2 countries per continent
        assert site.country == 1

    def test_out_of_range(self):
        with pytest.raises(GeographyError):
            country_site(LAYOUT, 10)


class TestValidation:
    def test_parallel_lengths(self):
        with pytest.raises(GeographyError):
            ClientGeography(sites=(country_site(LAYOUT, 0),), shares=())

    def test_shares_sum_to_one(self):
        with pytest.raises(GeographyError):
            ClientGeography(
                sites=(country_site(LAYOUT, 0), country_site(LAYOUT, 1)),
                shares=(0.5, 0.6),
            )

    def test_negative_share(self):
        with pytest.raises(GeographyError):
            ClientGeography(
                sites=(country_site(LAYOUT, 0), country_site(LAYOUT, 1)),
                shares=(1.5, -0.5),
            )


class TestDistributions:
    def test_uniform_over_countries(self):
        geo = uniform_over_countries(LAYOUT)
        assert len(geo.sites) == 10
        assert all(s == pytest.approx(0.1) for s in geo.shares)

    def test_hotspot_concentration(self):
        geo = hotspot(LAYOUT, 4, concentration=0.8)
        shares = dict(zip(geo.sites, geo.shares))
        hot = shares[country_site(LAYOUT, 4)]
        assert hot == pytest.approx(0.8)
        assert sum(geo.shares) == pytest.approx(1.0)

    def test_hotspot_invalid_concentration(self):
        with pytest.raises(GeographyError):
            hotspot(LAYOUT, 0, concentration=0.0)

    def test_mixture(self):
        geo = mixture(
            [(hotspot(LAYOUT, 0), 1.0), (hotspot(LAYOUT, 1), 1.0)]
        )
        assert sum(geo.shares) == pytest.approx(1.0)
        shares = dict(zip(geo.sites, geo.shares))
        assert shares[country_site(LAYOUT, 0)] == pytest.approx(
            shares[country_site(LAYOUT, 1)]
        )

    def test_mixture_rejects_uniform(self):
        with pytest.raises(GeographyError):
            mixture([(UNIFORM, 1.0)])

    def test_mixture_empty(self):
        with pytest.raises(GeographyError):
            mixture([])
