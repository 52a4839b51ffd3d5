"""Tests for repro.utils.units."""

import pytest

from repro.utils import units
from repro.utils.units import GB, KB, MB


class TestUnitConstants:
    def test_binary_prefixes(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB

    @pytest.mark.parametrize("name, value", [
        ("KILO", 10 ** 3), ("MEGA", 10 ** 6), ("GIGA", 10 ** 9),
        ("KB", 2 ** 10), ("MB", 2 ** 20), ("GB", 2 ** 30),
    ])
    def test_constant_value(self, name, value):
        constant = getattr(units, name)
        assert constant == value
        # Exact integers, so byte and cycle arithmetic never rounds.
        assert type(constant) is int

    def test_decimal_prefixes_step_by_a_thousand(self):
        assert units.MEGA == 1000 * units.KILO
        assert units.GIGA == 1000 * units.MEGA
