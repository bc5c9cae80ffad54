"""Unit tests for overlay addressing (repro.kademlia.address)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AddressError, ConfigurationError
from repro.kademlia.address import (
    AddressSpace,
    bit_length_array,
    common_prefix_length,
)

from .overlay_oracle import proximity_array


class TestCommonPrefixLength:
    def test_equal_addresses_share_all_bits(self):
        assert common_prefix_length(7, 7, 8) == 8

    def test_first_bit_differs(self):
        assert common_prefix_length(0b10000000, 0b00000000, 8) == 0

    def test_last_bit_differs(self):
        assert common_prefix_length(0b00000001, 0b00000000, 8) == 7

    def test_middle_bit(self):
        assert common_prefix_length(0b10110000, 0b10100000, 8) == 3

    @pytest.mark.parametrize("a,b,bits,expected", [
        (0, 1, 4, 3),
        (0b1000, 0b1001, 4, 3),
        (0b1000, 0b1100, 4, 1),
        (0b1111, 0b0111, 4, 0),
    ])
    def test_examples(self, a, b, bits, expected):
        assert common_prefix_length(a, b, bits) == expected


class TestBitLengthArray:
    def test_matches_python_bit_length(self):
        values = np.array([0, 1, 2, 3, 4, 255, 256, 65535, 2**52, 2**63],
                          dtype=np.uint64)
        expected = [int(v).bit_length() for v in values]
        assert bit_length_array(values).tolist() == expected

    def test_near_float_rounding_boundary(self):
        # 2**60 - 1 rounds UP to 2**60 in float64; the exact integer
        # implementation must not be fooled.
        value = np.array([2**60 - 1], dtype=np.uint64)
        assert bit_length_array(value)[0] == 60

    def test_zero(self):
        assert bit_length_array(np.array([0], dtype=np.uint64))[0] == 0


class TestProximityArray:
    def test_matches_scalar(self):
        bits = 10
        owner = 0b1010101010
        others = np.arange(0, 1 << bits, 7, dtype=np.uint64)
        expected = [
            common_prefix_length(owner, int(o), bits) for o in others
        ]
        assert proximity_array(owner, others, bits).tolist() == expected


class TestAddressSpaceConstruction:
    def test_default_is_16_bits(self):
        assert AddressSpace().bits == 16
        assert AddressSpace().size == 65536

    @pytest.mark.parametrize("bits", [0, -1, 65, 1.5, True])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(ConfigurationError):
            AddressSpace(bits)

    def test_value_semantics(self):
        assert AddressSpace(8) == AddressSpace(8)
        assert AddressSpace(8) != AddressSpace(9)


class TestAddressValidation:
    def test_contains(self):
        space = AddressSpace(4)
        assert 0 in space
        assert 15 in space
        assert 16 not in space
        assert -1 not in space
        assert True not in space  # booleans are not addresses
        assert "3" not in space

    def test_validate_passes_through(self):
        assert AddressSpace(4).validate(9) == 9

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(AddressError, match="outside address space"):
            AddressSpace(4).validate(16)


class TestXorDistance:
    def test_identity(self):
        assert AddressSpace(8).distance(42, 42) == 0

    def test_symmetry(self):
        space = AddressSpace(8)
        assert space.distance(3, 12) == space.distance(12, 3)

    def test_known_value(self):
        assert AddressSpace(4).distance(0b1010, 0b0110) == 0b1100


class TestAddressSpaceMetrics:
    def test_distance_validates(self):
        with pytest.raises(AddressError):
            AddressSpace(4).distance(1, 99)

    def test_proximity_of_equal_is_bits(self):
        assert AddressSpace(6).proximity(5, 5) == 6

    def test_bucket_index_is_proximity(self):
        space = AddressSpace(8)
        assert space.bucket_index(0b10000000, 0b10100000) == 2

    def test_bucket_index_rejects_self(self):
        with pytest.raises(AddressError, match="own address"):
            AddressSpace(8).bucket_index(7, 7)


class TestSortByDistance:
    def test_first_is_xor_minimum(self):
        space = AddressSpace(8)
        assert space.sort_by_distance(
            0b1100, [0b1000, 0b1110, 0b0100])[0] == 0b1110

    def test_distances_strictly_increase(self):
        # XOR distances from distinct candidates are distinct.
        space = AddressSpace(8)
        ordered = space.sort_by_distance(13, range(20))
        distances = [c ^ 13 for c in ordered]
        assert distances == sorted(set(distances))

    def test_sorted_order(self):
        space = AddressSpace(8)
        result = space.sort_by_distance(0, [5, 1, 9, 2])
        assert result == sorted([5, 1, 9, 2])

    def test_nontrivial_target(self):
        space = AddressSpace(8)
        result = space.sort_by_distance(255, [0, 128, 254, 255])
        assert result == [255, 254, 128, 0]


class TestRandomAddresses:
    def test_unique_draw(self, rng):
        space = AddressSpace(8)
        addresses = space.random_addresses(100, rng, unique=True)
        assert len(set(addresses)) == 100
        assert all(a in space for a in addresses)

    def test_unique_overflow_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="unique"):
            AddressSpace(3).random_addresses(20, rng, unique=True)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            AddressSpace(3).random_addresses(-1, rng)

    def test_deterministic(self):
        space = AddressSpace(10)
        a = space.random_addresses(50, np.random.default_rng(3))
        b = space.random_addresses(50, np.random.default_rng(3))
        assert a == b


class TestFormatting:
    def test_zero_padded_binary(self):
        assert AddressSpace(8).format_address(5) == "00000101"

    def test_address_outside_space_rejected(self):
        with pytest.raises(AddressError):
            AddressSpace(4).format_address(16)
