import math
import random

import pytest

from fairsic import (
    DecodingProfile,
    NonRankInputError,
    RankFunctionSet,
    ValidationError,
    decoded_set,
    generate_channel,
    greedy_profile,
    min_rate,
    random_gaussian_channel,
    rank_value,
    rate_vector,
    receiver_rate_bounds,
    rng_from_seed,
)
from fairsic.ordering import DecodingOrder, undecoded_prefix

from conftest import LOG2_4_3, LOG2_21_11, tabulated_from_values

GREEDY_PROFILE = [(2, 1), (2,)]


class TestFixtureRates:
    def test_single_user_awgn(self, single_user_ranks):
        profile = DecodingProfile.from_decode_sequences([(1,)])
        assert tuple(rate_vector(single_user_ranks, profile)) == (1.0,)

    def test_two_user_greedy_profile(self, two_user_ranks):
        profile = DecodingProfile.from_decode_sequences(GREEDY_PROFILE)
        rates = rate_vector(two_user_ranks, profile)
        assert rates[0] == pytest.approx(1.0, abs=1e-12)
        assert rates[1] == pytest.approx(LOG2_21_11, abs=1e-12)

    def test_receiver_one_decoding_alone(self, two_user_ranks):
        profile = DecodingProfile.from_decode_sequences([(1,), (2,)])
        assert rate_vector(two_user_ranks, profile)[0] == pytest.approx(
            LOG2_4_3, abs=1e-12
        )

    def test_output_length(self, two_user_ranks):
        profile = DecodingProfile.from_decode_sequences(GREEDY_PROFILE)
        assert len(rate_vector(two_user_ranks, profile)) == 2
        # Both rate paths return plain tuples of Python floats.
        for rates in (
            rate_vector(two_user_ranks, profile),
            greedy_profile(two_user_ranks).rates,
        ):
            assert type(rates) is tuple
            assert all(type(rate) is float for rate in rates)


class TestProfileSize:
    """A profile of another K is refused by name, not cut short or failed by index."""

    @pytest.mark.parametrize("sequences", [[[1], [2]], [[1], [2], [3], [4]]])
    def test_wrong_size_profile_is_refused(self, sequences):
        ranks = RankFunctionSet.for_channel(generate_channel("gaussian", 3, 1))
        profile = DecodingProfile.from_decode_sequences(sequences)
        message = f"order covers {len(sequences)} users, ranks 3"
        with pytest.raises(ValidationError, match=message):
            rate_vector(ranks, profile)
        with pytest.raises(ValidationError, match=message):
            receiver_rate_bounds(ranks, profile.orders[0])


class TestMinRate:
    def test_fixture(self):
        value, users = min_rate((1.0, LOG2_21_11))
        assert value == LOG2_21_11
        assert users == {2}

    def test_tie_returns_all(self):
        value, users = min_rate((0.5, 0.5))
        assert (value, users) == (0.5, {1, 2})

    def test_near_tie_within_tolerance(self):
        value, users = min_rate((0.5, 0.5 + 5e-13))
        assert users == {1, 2}

    def test_singleton(self):
        assert min_rate((0.7,)) == (0.7, {1})

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            min_rate(())


def _random_profile(ranks, rng):
    sequences = []
    for receiver in range(1, ranks.num_users + 1):
        others = [u for u in range(1, ranks.num_users + 1) if u != receiver]
        rng.shuffle(others)
        head = others[: rng.randrange(len(others) + 1)]
        sequences.append(head + [receiver])
    return DecodingProfile.from_decode_sequences(sequences)


class TestInvariants:
    def test_prefix_order_invariance_is_bit_exact(self):
        rng = random.Random(7)
        for seed in range(10):
            ranks = RankFunctionSet.for_channel(
                random_gaussian_channel(4, rng_from_seed(seed))
            )
            profile = _random_profile(ranks, rng)
            baseline = tuple(rate_vector(ranks, profile))
            for _ in range(3):
                shuffled = []
                for order in profile.orders:
                    prefix = list(undecoded_prefix(order))
                    rng.shuffle(prefix)
                    shuffled.append(
                        DecodingOrder(
                            order.receiver,
                            tuple(prefix) + order.perm[order.decoded_from - 1 :],
                            order.decoded_from,
                        )
                    )
                assert tuple(rate_vector(ranks, DecodingProfile(tuple(shuffled)))) == baseline

    def test_bounds_are_nonnegative(self):
        rng = random.Random(3)
        for seed in range(20):
            ranks = RankFunctionSet.for_channel(
                random_gaussian_channel(3, rng_from_seed(seed))
            )
            profile = _random_profile(ranks, rng)
            for order in profile.orders:
                for bound in receiver_rate_bounds(ranks, order).values():
                    assert bound >= 0.0

    def test_chain_telescopes(self):
        rng = random.Random(5)
        for seed in range(10):
            ranks = RankFunctionSet.for_channel(
                random_gaussian_channel(4, rng_from_seed(seed))
            )
            profile = _random_profile(ranks, rng)
            for order in profile.orders:
                bounds = receiver_rate_bounds(ranks, order)
                total = math.fsum(bounds.values())
                full = rank_value(ranks, order.receiver, range(1, 5))
                before = rank_value(
                    ranks, order.receiver, undecoded_prefix(order)
                )
                assert total == pytest.approx(full - before, abs=1e-9)

    def test_gaussian_marginal_matches_sinr_form(self):
        for seed in range(10):
            channel = random_gaussian_channel(4, rng_from_seed(seed))
            ranks = RankFunctionSet.for_channel(channel)
            profile = _random_profile(ranks, random.Random(seed))
            for order in profile.orders:
                row = channel.received_powers[order.receiver - 1]
                noise = float(channel.noise_vars[order.receiver - 1])
                bounds = receiver_rate_bounds(ranks, order)
                for position in range(order.decoded_from, 5):
                    user = order.perm[position - 1]
                    later = order.perm[: position - 1]
                    interference = math.fsum(float(row[u - 1]) for u in sorted(later))
                    sinr = float(row[user - 1]) / (noise + interference)
                    assert bounds[user] == pytest.approx(
                        math.log2(1.0 + sinr), abs=1e-12
                    )


class TestNonMonotoneInputs:
    def test_negative_marginal_beyond_tolerance_raises(self):
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 0.5), (0.0, 1.0, 1.0, 2.0)])
        )
        profile = DecodingProfile.from_decode_sequences([(2, 1), (2,)])
        with pytest.raises(NonRankInputError):
            rate_vector(ranks, profile)

    def test_sub_tolerance_negative_clamps_to_zero(self):
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 1.0 - 1e-12), (0.0, 1.0, 1.0, 2.0)])
        )
        profile = DecodingProfile.from_decode_sequences([(2, 1), (2,)])
        rates = rate_vector(ranks, profile)
        assert rates[1] == 0.0

    def test_clamp_respects_decoded_membership(self, two_user_ranks):
        profile = DecodingProfile.from_decode_sequences([(2, 1), (2,)])
        for order in profile.orders:
            assert set(receiver_rate_bounds(two_user_ranks, order)) == decoded_set(order)
