"""Unit tests for the confidence model."""

import pytest

from repro.cluster.confidence import (
    ConfidenceError,
    ConfidenceModel,
    uniform_confidence,
)
from repro.cluster.location import Location

LOC = Location(0, 3, 0, 0, 0, 0)


class TestUniform:
    def test_default_is_one(self):
        model = uniform_confidence()
        assert model.for_server(0, LOC) == 1.0

    def test_custom_base(self):
        model = uniform_confidence(0.9)
        assert model.for_server(5, LOC) == pytest.approx(0.9)

    def test_invalid_base(self):
        with pytest.raises(ConfidenceError):
            uniform_confidence(1.2)


class TestFactors:
    def test_country_factor_multiplies(self):
        model = ConfidenceModel(base=0.8, country_factors={3: 0.5})
        assert model.for_server(0, LOC) == pytest.approx(0.4)

    def test_other_country_unaffected(self):
        model = ConfidenceModel(country_factors={9: 0.5})
        assert model.for_server(0, LOC) == 1.0

    def test_server_override_wins(self):
        model = ConfidenceModel(country_factors={3: 0.5},
                                server_overrides={0: 0.99})
        assert model.for_server(0, LOC) == pytest.approx(0.99)

    def test_invalid_country_factor(self):
        with pytest.raises(ConfidenceError):
            ConfidenceModel(country_factors={1: 2.0})


class TestServerOverrides:
    def test_mapping_overrides(self):
        model = ConfidenceModel(base=0.7, server_overrides={1: 0.3})
        assert model.for_server(1, LOC) == pytest.approx(0.3)
        assert model.for_server(2, LOC) == pytest.approx(0.7)

    def test_invalid_value(self):
        with pytest.raises(ConfidenceError):
            ConfidenceModel(server_overrides={1: -0.1})
