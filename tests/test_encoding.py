"""Tests for the low-level binary encodings."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.encoding import (
    MAX_SIGNED_VARINT,
    MAX_VARINT,
    MIN_SIGNED_VARINT,
    decode_signed_varint,
    decode_signed_varints,
    decode_varint,
    decode_varints,
    decode_zigzag,
    encode_signed_varint,
    encode_signed_varints,
    encode_varint,
    encode_varints,
    encode_zigzag,
    from_u64_signed,
    int_from_bytes,
    int_to_bytes,
    pack_varint_list,
    to_u64,
    unpack_varint_list,
)


class TestVarint:
    def test_zero(self):
        assert encode_varint(0) == b"\x00"
        assert decode_varint(b"\x00") == (0, 1)

    def test_single_byte_boundary(self):
        assert encode_varint(127) == b"\x7f"
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_input(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)

    def test_decode_with_offset(self):
        blob = b"\x05" + encode_varint(300)
        value, pos = decode_varint(blob, 1)
        assert value == 300
        assert pos == len(blob)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert decode_varint(encode_varint(value))[0] == value


class TestZigzag:
    @pytest.mark.parametrize(
        "signed,unsigned", [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2147483647, 4294967294)]
    )
    def test_known_mappings(self, signed, unsigned):
        assert encode_zigzag(signed) == unsigned
        assert decode_zigzag(unsigned) == signed

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        assert decode_zigzag(encode_zigzag(value)) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_signed_varint_roundtrip(self, value):
        assert decode_signed_varint(encode_signed_varint(value))[0] == value

    def test_small_magnitudes_stay_small(self):
        assert len(encode_signed_varint(-3)) == 1
        assert len(encode_signed_varint(3)) == 1


class TestEveryBitPosition:
    """``±(1 << n)`` over every bit the 10-byte format admits, scalar and bulk."""

    def test_unsigned_sweep(self):
        for n in range(70):
            value = 1 << n
            blob = encode_varint(value)
            assert decode_varint(blob) == (value, len(blob))
            assert encode_varints([value]) == blob
            assert decode_varints(blob, 0, 1) == ([value], len(blob))
        assert MAX_VARINT == (1 << 70) - 1
        assert decode_varint(encode_varint(MAX_VARINT)) == (MAX_VARINT, 10)

    def test_signed_sweep(self):
        for n in range(70):
            for value in (1 << n, -(1 << n)):
                if value > MAX_SIGNED_VARINT:
                    continue  # +2^69 is the first magnitude the format cannot hold
                blob = encode_signed_varint(value)
                assert decode_signed_varint(blob) == (value, len(blob)), n
                assert encode_signed_varints([value]) == blob
                assert decode_signed_varints(blob, 0, 1) == ([value], len(blob))
                assert decode_zigzag(encode_zigzag(value)) == value
        assert (MIN_SIGNED_VARINT, MAX_SIGNED_VARINT) == (-(1 << 69), (1 << 69) - 1)

    def test_two_to_the_63_no_longer_corrupts(self):
        # The fixed-width ``^ (value >> 63)`` idiom broke here.
        for value in (2**63, 2**63 + 1, 2**64, 3 * 2**66):
            assert decode_signed_varint(encode_signed_varint(value))[0] == value
            assert unpack_varint_list(pack_varint_list([value, -value]))[0] == [value, -value]

    def test_whole_sweep_as_one_bulk_call(self):
        values = [sign * (1 << n) for n in range(69) for sign in (1, -1)] + [MIN_SIGNED_VARINT, MAX_SIGNED_VARINT, 0]
        blob = encode_signed_varints(values)
        assert blob == b"".join(encode_signed_varint(value) for value in values)
        assert decode_signed_varints(blob, 0, len(values)) == (values, len(blob))
        unsigned = [1 << n for n in range(70)] + [0, MAX_VARINT]
        blob = encode_varints(unsigned)
        assert blob == b"".join(encode_varint(value) for value in unsigned)
        assert decode_varints(blob, 0, len(unsigned)) == (unsigned, len(blob))

    def test_encode_rejects_what_decode_cannot_read_back(self):
        for bad in (MAX_VARINT + 1, 1 << 80, -1):
            with pytest.raises(ValueError):
                encode_varint(bad)
            for neighbours in ([bad], [1, bad], [bad, 300], [200, bad, 5]):
                with pytest.raises(ValueError):
                    encode_varints(neighbours)
        for bad in (MAX_SIGNED_VARINT + 1, MIN_SIGNED_VARINT - 1):
            with pytest.raises(ValueError):
                encode_signed_varint(bad)
            with pytest.raises(ValueError):
                encode_signed_varints([0, bad])
            with pytest.raises(ValueError):
                pack_varint_list([bad])


class TestBulkVarints:
    @given(st.lists(st.integers(0, MAX_VARINT), max_size=60))
    def test_bulk_is_the_concatenation_of_scalars(self, values):
        blob = encode_varints(values)
        assert blob == b"".join(encode_varint(value) for value in values)
        assert decode_varints(blob, 0, len(values)) == (values, len(blob))

    @given(st.lists(st.integers(0, 127), max_size=60), st.binary(max_size=4))
    def test_single_byte_run_with_prefix_and_tail(self, values, prefix):
        blob = prefix + encode_varints(values) + b"\x85\x01tail"
        assert decode_varints(blob, len(prefix), len(values)) == (values, len(prefix) + len(values))

    @given(st.lists(st.integers(MIN_SIGNED_VARINT, MAX_SIGNED_VARINT), max_size=60))
    def test_signed_bulk_roundtrip(self, values):
        blob = encode_signed_varints(values)
        assert blob == b"".join(encode_signed_varint(value) for value in values)
        assert decode_signed_varints(blob, 0, len(values)) == (values, len(blob))

    def test_accepts_tuples_views_and_empty_input(self):
        assert encode_varints(()) == b"" and encode_varints([]) == b""
        assert decode_varints(b"", 0, 0) == ([], 0)
        assert decode_varints(b"\x07\x08", 2, 0) == ([], 2)
        blob = encode_varints((1, 300, 2))
        assert decode_varints(memoryview(blob), 0, 3) == ([1, 300, 2], 4)
        assert decode_varints(bytearray(blob), 1, 2) == ([300, 2], 4)

    def test_next_offset_stops_at_the_last_requested_varint(self):
        blob = encode_varints([5, 300, 6, 70000, 7])
        assert decode_varints(blob, 0, 2) == ([5, 300], 3)
        assert decode_varints(blob, 3, 2) == ([6, 70000], 7)
        assert decode_varints(blob + b"\x80\x80", 0, 5) == ([5, 300, 6, 70000, 7], len(blob))

    def test_every_cut_point_raises(self):
        values = [1, 300, 0, 2**40, 127, 128]
        blob = encode_varints(values)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                decode_varints(blob[:cut], 0, len(values))
            with pytest.raises(ValueError):
                decode_signed_varints(blob[:cut], 0, len(values))

    def test_hostile_count_is_rejected_without_allocating(self):
        for count in (4, 1 << 30, 1 << 69):
            with pytest.raises(ValueError):
                decode_varints(b"\x01\x02\x03", 0, count)
        with pytest.raises(ValueError):
            unpack_varint_list(encode_varint(1 << 62) + b"\x01")

    def test_overlong_varint_rejected(self):
        overlong = b"\xff" * 10 + b"\x01"
        for blob, count in ((overlong, 1), (b"\x01" + overlong + b"\x02", 3)):
            with pytest.raises(ValueError):
                decode_varints(blob, 0, count)
            with pytest.raises(ValueError):
                decode_signed_varints(blob, 0, count)
        ten_bytes = b"\xff" * 9 + b"\x7f"
        assert decode_varints(ten_bytes, 0, 1) == ([MAX_VARINT], 10)
        assert decode_signed_varints(ten_bytes, 0, 1) == ([MIN_SIGNED_VARINT], 10)


class TestVarintList:
    def test_empty(self):
        assert unpack_varint_list(pack_varint_list([]))[0] == []

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=50))
    def test_roundtrip(self, values):
        assert unpack_varint_list(pack_varint_list(values))[0] == values

    def test_packs_any_iterable_and_reports_the_end_offset(self):
        blob = b"xx" + pack_varint_list(value for value in (3, -300, 2**50)) + b"yy"
        assert unpack_varint_list(blob, 2) == ([3, -300, 2**50], len(blob) - 2)


class TestFixedWidth:
    def test_int_bytes_roundtrip(self):
        assert int_from_bytes(int_to_bytes(123456789, 8)) == 123456789

    def test_u64_wrapping(self):
        assert to_u64(2**64 + 5) == 5
        assert to_u64(-1) == 2**64 - 1

    def test_signed_reinterpretation(self):
        assert from_u64_signed(2**64 - 1) == -1
        assert from_u64_signed(5) == 5
        assert from_u64_signed(2**63) == -(2**63)
