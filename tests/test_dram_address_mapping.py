"""Tests for repro.dram.address_mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddr4_reference import DramAddress, skylake_decode
from repro.dram.address_mapping import MemoryGeometry, SkylakeAddressMapping


def _map(mapping, address):
    """The :class:`DramAddress` ``mapping.map_array`` gives one address."""
    return DramAddress(*(int(field[0])
                         for field in mapping.map_array([address])))


class TestMemoryGeometry:
    def test_default_capacity_matches_table1(self):
        geometry = MemoryGeometry()
        # 4 channels x 1 DIMM x 2 ranks x 16 banks x 64K rows x 8 KB = 64 GB.
        assert geometry.total_bytes == 64 * 1024 ** 3

    def test_row_size(self):
        assert MemoryGeometry().row_size_bytes == 8192

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MemoryGeometry(num_channels=0)


class TestSkylakeMapping:
    def test_fields_in_range(self):
        mapping = SkylakeAddressMapping()
        g = mapping.geometry
        for address in range(0, 1 << 22, 4096 + 64):
            decoded = _map(mapping, address)
            assert 0 <= decoded.channel < g.num_channels
            assert 0 <= decoded.dimm < g.dimms_per_channel
            assert 0 <= decoded.rank < g.ranks_per_dimm
            assert 0 <= decoded.bank_group < g.bank_groups
            assert 0 <= decoded.bank < g.banks_per_group
            assert 0 <= decoded.row < g.rows_per_bank
            assert 0 <= decoded.column < g.columns_per_row

    def test_same_block_same_coordinates(self):
        mapping = SkylakeAddressMapping()
        assert _map(mapping, 128) == _map(mapping, 128 + 63)

    def test_consecutive_blocks_rotate_channels(self):
        mapping = SkylakeAddressMapping()
        channels = {_map(mapping, 64 * i).channel for i in range(4)}
        assert channels == {0, 1, 2, 3}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _map(SkylakeAddressMapping(), -1)

    @given(st.integers(min_value=0, max_value=2**36))
    @settings(max_examples=200, deadline=None)
    def test_always_in_range(self, address):
        mapping = SkylakeAddressMapping()
        g = mapping.geometry
        decoded = _map(mapping, address)
        assert 0 <= decoded.channel < g.num_channels
        assert 0 <= decoded.rank < g.ranks_per_dimm
        assert 0 <= decoded.bank_group < g.bank_groups
        assert 0 <= decoded.bank < g.banks_per_group
        assert 0 <= decoded.column < g.columns_per_row
        assert 0 <= decoded.row < g.rows_per_bank


#: Small power-of-two geometries (a few thousand 64 B blocks each) whose
#: whole address space can be enumerated.
SMALL_GEOMETRIES = {
    "1ch-1rank": MemoryGeometry(num_channels=1, dimms_per_channel=1,
                                ranks_per_dimm=1, bank_groups=2,
                                banks_per_group=2, rows_per_bank=16,
                                columns_per_row=8),
    "2ch-2dimm-2rank": MemoryGeometry(num_channels=2, dimms_per_channel=2,
                                      ranks_per_dimm=2, bank_groups=4,
                                      banks_per_group=4, rows_per_bank=8,
                                      columns_per_row=4),
    "4ch-table1-shape": MemoryGeometry(rows_per_bank=8, columns_per_row=8),
}

GEOMETRY_FIELDS = ("num_channels", "dimms_per_channel", "ranks_per_dimm",
                   "bank_groups", "banks_per_group", "rows_per_bank",
                   "columns_per_row", "column_size_bytes", "page_size_bytes")


class TestMemoryGeometryDerived:
    @pytest.mark.parametrize("field", GEOMETRY_FIELDS)
    def test_every_field_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            MemoryGeometry(**{field: 0})

    @pytest.mark.parametrize("name", sorted(SMALL_GEOMETRIES))
    def test_capacity_is_the_product_of_the_fields(self, name):
        g = SMALL_GEOMETRIES[name]
        assert g.ranks_per_channel == g.dimms_per_channel * g.ranks_per_dimm
        assert g.total_ranks == g.num_channels * g.ranks_per_channel
        assert g.bytes_per_rank == (g.bank_groups * g.banks_per_group
                                   * g.rows_per_bank * g.row_size_bytes)
        assert g.total_bytes == g.bytes_per_rank * g.total_ranks


class TestSkylakeMappingBijection:
    @pytest.mark.parametrize("name", sorted(SMALL_GEOMETRIES))
    def test_blocks_map_one_to_one_onto_coordinates(self, name):
        """The XOR bank hash permutes banks within a row, so every block
        of the capacity lands on its own DRAM coordinate."""
        geometry = SMALL_GEOMETRIES[name]
        mapping = SkylakeAddressMapping(geometry)
        num_blocks = geometry.total_bytes // geometry.column_size_bytes
        seen = {_map(mapping, block * geometry.column_size_bytes)
                for block in range(num_blocks)}
        assert len(seen) == num_blocks

    @pytest.mark.parametrize("name", sorted(SMALL_GEOMETRIES))
    def test_addresses_wrap_at_capacity(self, name):
        geometry = SMALL_GEOMETRIES[name]
        mapping = SkylakeAddressMapping(geometry)
        for address in range(0, geometry.total_bytes, 64 * 7 + 64):
            assert _map(mapping, address + geometry.total_bytes) == \
                _map(mapping, address)

    @pytest.mark.parametrize("name", sorted(SMALL_GEOMETRIES))
    def test_channel_stride_stays_in_one_row(self, name):
        """Blocks ``num_channels`` apart walk the columns of one open row:
        the row-buffer locality the column-low bit order keeps."""
        geometry = SMALL_GEOMETRIES[name]
        mapping = SkylakeAddressMapping(geometry)
        stride = geometry.num_channels * geometry.column_size_bytes
        decoded = [_map(mapping, column * stride)
                   for column in range(geometry.columns_per_row)]
        assert [d.column for d in decoded] == \
            list(range(geometry.columns_per_row))
        assert len({(d.channel, d.dimm, d.rank, d.bank_group, d.bank, d.row)
                    for d in decoded}) == 1


@settings(max_examples=100, deadline=None)
@given(geometry=st.builds(
    MemoryGeometry, num_channels=st.integers(1, 4),
    dimms_per_channel=st.integers(1, 4), ranks_per_dimm=st.integers(1, 2),
    bank_groups=st.sampled_from([2, 4]), banks_per_group=st.integers(1, 4),
    rows_per_bank=st.sampled_from([8, 1000, 65536]),
    columns_per_row=st.sampled_from([8, 128])),
    addresses=st.lists(st.integers(0, 2 ** 40), max_size=64))
def test_array_decode_matches_the_per_address_reference(geometry, addresses):
    """``map_array`` (numpy, one call per trace) gives every field of the
    one-address-at-a-time reference decode, for any population."""
    fields = SkylakeAddressMapping(geometry).map_array(addresses)
    assert [tuple(int(field[index]) for field in fields)
            for index in range(len(addresses))] == \
        [skylake_decode(geometry, address) for address in addresses]
