import numpy as np
import pytest

from fairsic import (
    DecodingOrder,
    DecodingProfile,
    ValidationError,
    decode_sequence,
    decoded_set,
    decoder_set,
    render_order,
    undecoded_prefix,
)


def order_of(receiver, perm):
    return DecodingOrder(receiver, perm, perm.index(receiver) + 1)


class TestDecodedSet:
    def test_suffix_of_length_one(self):
        assert decoded_set(order_of(1, (2, 1))) == {1}

    def test_full_suffix(self):
        assert decoded_set(order_of(1, (1, 2))) == {1, 2}

    def test_suffix_from_own_position(self):
        assert decoded_set(order_of(2, (3, 2, 1))) == {1, 2}

    def test_size_matches_decoded_from(self):
        order = order_of(2, (3, 2, 1))
        assert len(decoded_set(order)) == order.num_users - order.decoded_from + 1
        assert order.receiver in decoded_set(order)


class TestDecoderSet:
    def test_single_user(self):
        profile = DecodingProfile.from_decode_sequences([(1,)])
        assert decoder_set(profile, 1) == {1}

    def test_two_user_fixture(self):
        profile = DecodingProfile.from_decode_sequences([(2, 1), (2,)])
        assert decoder_set(profile, 1) == {1}
        assert decoder_set(profile, 2) == {1, 2}

    def test_own_receiver_always_present(self):
        profile = DecodingProfile.from_decode_sequences([(1,), (3, 2), (3,)])
        for user in (1, 2, 3):
            assert user in decoder_set(profile, user)


class TestConstruction:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            DecodingOrder(1, (1, 1), 1)

    def test_rejects_receiver_not_at_decoded_from(self):
        with pytest.raises(ValidationError):
            DecodingOrder(1, (1, 2), 2)

    def test_sequence_must_end_with_receiver(self):
        with pytest.raises(ValidationError):
            DecodingOrder.from_decode_sequence(1, (2,), 2)

    def test_sequence_round_trip(self):
        order = DecodingOrder.from_decode_sequence(2, (3, 1, 2), 4)
        assert order.perm == (4, 2, 1, 3)
        assert order.decoded_from == 2
        assert decode_sequence(order) == (3, 1, 2)
        assert undecoded_prefix(order) == (4,)

    def test_profile_receiver_mismatch(self):
        with pytest.raises(ValidationError):
            DecodingProfile((order_of(2, (1, 2)),))

    def test_rejects_decoded_from_out_of_range(self):
        with pytest.raises(ValidationError, match="decoded_from 2 out of range"):
            DecodingOrder(1, (1,), 2)

    def test_profile_orders_must_cover_the_same_users(self):
        with pytest.raises(ValidationError, match="same user set"):
            DecodingProfile((order_of(1, (1, 2)), order_of(2, (1, 2, 3))))

    @pytest.mark.parametrize(
        "sequence", [[2.9, 1.2], [2, 1.0], ["2", 1], [True, 1], [[2], 1], [2, None, 1]]
    )
    def test_decode_sequence_refuses_non_integer_users(self, sequence):
        with pytest.raises(ValidationError, match="users must be integers"):
            DecodingOrder.from_decode_sequence(1, sequence, 2)

    @pytest.mark.parametrize("perm", [("1", 2.0), (2.0, 1.0), (False, 1), ((2,), 1)])
    def test_order_refuses_non_integer_users(self, perm):
        with pytest.raises(ValidationError, match="users must be integers"):
            DecodingOrder(2, perm, 2)

    def test_numpy_integers_are_stored_as_ints(self):
        order = DecodingOrder.from_decode_sequence(1, np.array([2, 1]), 2)
        assert order.perm == (1, 2) and all(type(u) is int for u in order.perm)
        order = DecodingOrder(2, (np.int32(1), np.uint8(2)), 2)
        assert order.perm == (1, 2) and all(type(u) is int for u in order.perm)


class TestRendering:
    def test_full_decode(self):
        assert render_order(order_of(1, (1, 2))) == "1: [] 2, 1"

    def test_with_prefix(self):
        assert render_order(order_of(2, (1, 2))) == "2: [1] 2"

    def test_larger(self):
        order = DecodingOrder.from_decode_sequence(2, (3, 1, 2), 4)
        assert render_order(order) == "2: [4] 3, 1, 2"
