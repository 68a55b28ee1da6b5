import numpy as np
import pytest

import fairsic.greedy
from fairsic import (
    GaussianChannel,
    NonRankInputError,
    RankFunctionSet,
    decode_sequence,
    decoded_set,
    gaussian_fast_order,
    gaussian_rate_formula,
    greedy_order,
    greedy_profile,
    random_gaussian_channel,
    rate_vector,
    rng_from_seed,
)

from conftest import LOG2_21_11, tabulated_from_values


def symmetric_channel(num_users, value=1.0):
    return GaussianChannel(
        np.full((num_users, num_users), value),
        np.ones(num_users),
        np.ones(num_users),
    )


class TestGreedyOrder:
    def test_single_user(self, single_user_ranks):
        order = greedy_order(single_user_ranks, 1)
        assert order.perm == (1,)
        assert decoded_set(order) == {1}

    def test_two_user_fixture(self, two_user_ranks):
        receiver_one = greedy_order(two_user_ranks, 1)
        assert decode_sequence(receiver_one) == (2, 1)
        assert decoded_set(receiver_one) == {1, 2}
        receiver_two = greedy_order(two_user_ranks, 2)
        assert decode_sequence(receiver_two) == (2,)
        assert decoded_set(receiver_two) == {2}

    def test_symmetric_ties_decode_everything_ascending(self):
        # Equal received powers everywhere: ties prefer other users by
        # ascending index, own user last.
        ranks = RankFunctionSet.for_channel(symmetric_channel(3))
        assert decode_sequence(greedy_order(ranks, 1)) == (2, 3, 1)
        assert decode_sequence(greedy_order(ranks, 2)) == (1, 3, 2)
        assert decode_sequence(greedy_order(ranks, 3)) == (1, 2, 3)

    def test_own_user_always_decoded(self):
        for seed in range(20):
            ranks = RankFunctionSet.for_channel(
                random_gaussian_channel(4, rng_from_seed(seed))
            )
            for receiver in range(1, 5):
                order = greedy_order(ranks, receiver)
                assert receiver in decoded_set(order)
                assert len(decode_sequence(order)) <= 4

    def test_depends_only_on_own_receiver(self):
        channel = random_gaussian_channel(4, rng_from_seed(123))
        ranks = RankFunctionSet.for_channel(channel)
        baseline = greedy_order(ranks, 2)
        perturbed_gains = channel.gains.copy()
        perturbed_gains[0] *= 3.0
        perturbed_gains[2] *= 0.25
        perturbed = RankFunctionSet.for_channel(
            GaussianChannel(perturbed_gains, channel.powers, channel.noise_vars)
        )
        assert greedy_order(perturbed, 2) == baseline


class TestGreedyProfile:
    def test_two_user_report(self, two_user_ranks):
        report = greedy_profile(two_user_ranks)
        assert report.min_rate == pytest.approx(LOG2_21_11, abs=1e-12)
        assert report.bottleneck_users == {2}
        assert report.decoded_sets == ({1, 2}, {2})
        assert report.decoder_sets == ({1}, {1, 2})
        assert report.backend_kind == "gaussian"
        assert tuple(report.rates) == tuple(rate_vector(two_user_ranks, report.profile))

    def test_single_user(self, single_user_ranks):
        assert greedy_profile(single_user_ranks).min_rate == 1.0

    def test_symmetric_two_user(self):
        ranks = RankFunctionSet.for_channel(symmetric_channel(2))
        report = greedy_profile(ranks)
        assert decode_sequence(report.profile.orders[0]) == (2, 1)
        assert decode_sequence(report.profile.orders[1]) == (1, 2)
        assert report.rates[0] == report.rates[1]
        assert report.bottleneck_users == {1, 2}


class TestRankGate:
    def test_refuses_non_submodular_tabulated(self):
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 2.0)])
        )
        with pytest.raises(NonRankInputError):
            greedy_profile(ranks)
        with pytest.raises(NonRankInputError):
            greedy_order(ranks, 1)

    def test_force_overrides_gate(self):
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 2.0)])
        )
        report = greedy_profile(ranks, force=True)
        assert len(report.rates) == 2

    def test_valid_tabulated_passes_gate(self):
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 1.5), (0.0, 1.0, 1.0, 1.5)])
        )
        report = greedy_profile(ranks)
        assert report.backend_kind == "tabulated"

    def test_verdict_cached_apart_from_rank_values(self, monkeypatch):
        runs = []
        validate = fairsic.greedy.validate_rank_axioms

        def counting_validate(*args, **kwargs):
            runs.append(args)
            return validate(*args, **kwargs)

        monkeypatch.setattr(fairsic.greedy, "validate_rank_axioms", counting_validate)
        ranks = RankFunctionSet.for_channel(
            tabulated_from_values([(0.0, 1.0, 1.0, 1.5), (0.0, 1.0, 1.0, 1.5)])
        )
        first = greedy_profile(ranks)
        assert ranks._cache
        assert all(
            isinstance(key, tuple) and [type(part) for part in key] == [int, int]
            for key in ranks._cache
        )
        second = greedy_profile(ranks)
        assert (second.profile, second.rates) == (first.profile, first.rates)
        assert len(runs) == 1


class TestGaussianFastPath:
    def test_two_user_fixture(self, two_user_channel):
        assert decode_sequence(gaussian_fast_order(two_user_channel, 1)) == (2, 1)
        assert decode_sequence(gaussian_fast_order(two_user_channel, 2)) == (2,)

    def test_all_equal_decodes_everyone(self):
        channel = symmetric_channel(3)
        for receiver in range(1, 4):
            assert decoded_set(gaussian_fast_order(channel, receiver)) == {1, 2, 3}

    def test_zero_cross_gains(self):
        channel = GaussianChannel(np.eye(3), np.ones(3), np.ones(3))
        for receiver in range(1, 4):
            assert decode_sequence(gaussian_fast_order(channel, receiver)) == (receiver,)
        assert tuple(gaussian_rate_formula(channel)) == (1.0, 1.0, 1.0)

    def test_rate_formula_on_fixture(self, two_user_channel):
        rates = gaussian_rate_formula(two_user_channel)
        assert rates[0] == pytest.approx(1.0, abs=1e-12)
        assert rates[1] == pytest.approx(LOG2_21_11, abs=1e-12)

    def test_matches_greedy_on_random_instances(self):
        for seed in range(30):
            num_users = 2 + seed % 5
            channel = random_gaussian_channel(num_users, rng_from_seed(seed))
            ranks = RankFunctionSet.for_channel(channel)
            for receiver in range(1, num_users + 1):
                assert gaussian_fast_order(channel, receiver) == greedy_order(
                    ranks, receiver
                )

    def test_matches_greedy_on_tied_instances(self):
        for num_users in (2, 3, 4):
            channel = symmetric_channel(num_users, 0.7)
            ranks = RankFunctionSet.for_channel(channel)
            for receiver in range(1, num_users + 1):
                assert gaussian_fast_order(channel, receiver) == greedy_order(
                    ranks, receiver
                )

    def test_rate_formula_matches_rate_vector(self):
        for seed in range(30):
            num_users = 2 + seed % 5
            channel = random_gaussian_channel(num_users, rng_from_seed(seed))
            ranks = RankFunctionSet.for_channel(channel)
            report = greedy_profile(ranks)
            closed_form = gaussian_rate_formula(channel)
            for a, b in zip(closed_form, report.rates):
                assert a == pytest.approx(b, abs=1e-12)
