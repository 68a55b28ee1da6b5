import gc
import math
import sys
import types
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fairsic.channels
import fairsic.greedy
import fairsic.rates
from fairsic import (
    DecodingProfile,
    DmcChannel,
    GaussianChannel,
    DecodingOrder,
    NonRankInputError,
    RankFunctionSet,
    TabulatedRanks,
    ValidationError,
    certify,
    decode_sequence,
    decoded_set,
    decoder_set,
    gaussian_fast_order,
    gaussian_rate_formula,
    generate_channel,
    greedy_order,
    greedy_profile,
    load_scenario,
    random_dmc_channel,
    random_gaussian_channel,
    rank_value,
    rate_vector,
    rng_from_seed,
)
from fairsic.channels import DEFAULT_AXIOM_TOL, mask_users

from conftest import LOG2_21_11, small_dmc_channels, small_tabulated_ranks, tabulated_from_values


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
        perturbed_gains = list(channel.gains)
        perturbed_gains[0] = [gain * 3.0 for gain in perturbed_gains[0]]
        perturbed_gains[2] = [gain * 0.25 for gain in perturbed_gains[2]]
        perturbed = RankFunctionSet.for_channel(
            GaussianChannel(perturbed_gains, channel.powers, channel.noise_vars)
        )
        assert perturbed.backend.gains[0] != channel.gains[0]
        assert greedy_order(perturbed, 2) == baseline


class TestGreedyProfile:
    def test_two_user_report(self, two_user_ranks):
        report = greedy_profile(two_user_ranks)
        assert report.min_rate == pytest.approx(LOG2_21_11, abs=1e-12)
        assert report.bottleneck_users == {2}
        assert tuple(map(decoded_set, report.profile.orders)) == ({1, 2}, {2})
        assert (decoder_set(report.profile, 1), decoder_set(report.profile, 2)) == ({1}, {1, 2})
        assert two_user_ranks.kind == "gaussian"
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
        assert ranks.kind == "tabulated"
        assert len(report.rates) == 2

    def test_gate_runs_once_per_call_without_memo(self, monkeypatch, xor_dmc_channel):
        runs = []
        validate = fairsic.greedy.validate_rank_axioms

        def counting_validate(*args, **kwargs):
            runs.append(args)
            return validate(*args, **kwargs)

        def runs_during(call):
            before = len(runs)
            result = call()
            return len(runs) - before, result

        monkeypatch.setattr(fairsic.greedy, "validate_rank_axioms", counting_validate)
        ranks = RankFunctionSet.for_channel(generate_channel("tabulated-submodular", 3, 5))
        assert validate(ranks).passed

        count, first = runs_during(lambda: greedy_profile(ranks))
        assert count == 1
        assert ranks._cache
        assert all(
            isinstance(key, tuple) and [type(part) for part in key] == [int, int]
            for key in ranks._cache
        )
        # No memo: the same rank set is checked again on the next call.
        count, second = runs_during(lambda: greedy_profile(ranks))
        assert count == 1
        assert (second.profile, second.rates) == (first.profile, first.rates)
        assert runs_during(lambda: greedy_order(ranks, 2))[0] == 1
        assert runs_during(lambda: certify(ranks))[0] == 1
        assert runs_during(lambda: greedy_profile(ranks, force=True))[0] == 0
        assert runs_during(lambda: greedy_order(ranks, 2, force=True))[0] == 0
        assert runs_during(lambda: certify(ranks, force=True))[0] == 0
        for channel in (random_gaussian_channel(3, rng_from_seed(5)), xor_dmc_channel):
            exempt = RankFunctionSet.for_channel(channel)
            assert runs_during(lambda: greedy_profile(exempt))[0] == 0
            assert runs_during(lambda: greedy_order(exempt, 1))[0] == 0
            assert runs_during(lambda: certify(exempt))[0] == 0


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

    def test_exact_rank_tie_between_distinct_powers(self):
        """Removing user 2 or 3 leaves the same rank value although user 3 is
        stronger: the greedy takes the smaller index, the fast path the
        stronger user, and the rates agree."""
        strong = 1e20
        stronger = math.nextafter(strong, math.inf)
        channel = GaussianChannel(
            np.array([[0.5, strong, stronger], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
            np.ones(3),
            np.ones(3),
        )
        ranks = RankFunctionSet.for_channel(channel)
        assert decode_sequence(greedy_order(ranks, 1)) == (2, 3, 1)
        assert decode_sequence(gaussian_fast_order(channel, 1)) == (3, 2, 1)
        fast = DecodingProfile(tuple(gaussian_fast_order(channel, j) for j in (1, 2, 3)))
        assert rate_vector(ranks, fast) == greedy_profile(ranks).rates

    def test_rate_formula_matches_rate_vector(self):
        for seed in range(30):
            num_users = 2 + seed % 5
            channel = random_gaussian_channel(num_users, rng_from_seed(seed))
            ranks = RankFunctionSet.for_channel(channel)
            report = greedy_profile(ranks)
            closed_form = gaussian_rate_formula(channel)
            for a, b in zip(closed_form, report.rates):
                assert a == pytest.approx(b, abs=1e-12)


    def test_rate_formula_survives_noise_plus_interference_overflow(self):
        """Noise 1.7e308 plus undecoded interference 5e307 overflows, though
        every power over the noise is finite."""
        channel = GaussianChannel(
            np.array([[1e308, 5e307], [1.0, 1.0]]), np.ones(2), np.array([1.7e308, 1.0])
        )
        greedy = greedy_profile(RankFunctionSet.for_channel(channel)).rates
        assert greedy[0] == pytest.approx(0.5406, abs=1e-4)
        assert gaussian_rate_formula(channel) == pytest.approx(greedy, abs=1e-9)


def loop_greedy_order(ranks: RankFunctionSet, receiver: int) -> DecodingOrder:
    """Reference: every candidate scored by its own ``rank_value`` call.

    O(K) rank evaluations of O(K) terms per slot, so O(K^3) per receiver;
    the Gaussian ``greedy_order`` must return the same order.
    """
    remaining = set(range(1, ranks.num_users + 1))
    sequence = []
    while True:
        best_key = None
        chosen = None
        for candidate in sorted(remaining):
            value = rank_value(ranks, receiver, remaining - {candidate})
            key = (value, candidate == receiver, candidate)
            if best_key is None or key < best_key:
                best_key = key
                chosen = candidate
        sequence.append(chosen)
        remaining.discard(chosen)
        if chosen == receiver:
            return DecodingOrder.from_decode_sequence(receiver, sequence, ranks.num_users)


@st.composite
def hard_gaussian_channels(draw, max_users=8):
    """Gains over 30 decades with zeros, -0.0, subnormal received powers,
    exact ties and ties one ulp apart."""
    num_users = draw(st.integers(1, max_users))
    pool = draw(st.lists(st.floats(1e-15, 1e15), min_size=1, max_size=3))
    gain = st.one_of(
        st.floats(1e-15, 1e15),
        st.sampled_from(pool),
        st.sampled_from(pool).map(lambda g: math.nextafter(g, math.inf)),
        st.sampled_from([0.0, -0.0]),
        st.floats(5e-324, 1e-300),
    )
    gains = draw(st.lists(gain, min_size=num_users**2, max_size=num_users**2))
    powers = draw(st.lists(st.sampled_from([1.0, 0.5, 3.0]), min_size=num_users, max_size=num_users))
    noise = st.one_of(st.floats(1e-3, 1e3), st.floats(5e-324, 1e-290))
    noise_vars = draw(st.lists(noise, min_size=num_users, max_size=num_users))
    try:
        return GaussianChannel(
            np.array(gains).reshape(num_users, num_users), np.array(powers), np.array(noise_vars)
        )
    except ValidationError:  # the sum over the noise overflows
        assume(False)


def assert_matches_loop(channel: GaussianChannel) -> None:
    ranks = RankFunctionSet.for_channel(channel)
    reference = RankFunctionSet.for_channel(channel)
    orders = tuple(loop_greedy_order(reference, j) for j in range(1, channel.num_users + 1))
    report = greedy_profile(ranks)
    assert report.profile.orders == orders
    expected = rate_vector(reference, DecodingProfile(orders))
    assert [r.hex() for r in report.rates] == [r.hex() for r in expected]


def assert_drops_are_rank_values(channel) -> None:
    """Keys ascend over the mask's users; each value is hex-equal to the rank value."""
    ranks = RankFunctionSet.for_channel(channel)
    for receiver in range(1, channel.num_users + 1):
        for mask in range(1 << channel.num_users):
            users = mask_users(mask)
            drops = channel.drop_values(receiver, mask)
            assert list(drops) == sorted(users)
            for user, value in drops.items():
                assert value.hex() == rank_value(ranks, receiver, users - {user}).hex()


def fsum_rank(channel: GaussianChannel, receiver: int, users) -> float:
    """Reference: the float ``math.fsum`` of the received powers over S."""
    powers = channel.received_powers[receiver - 1]
    interference = math.fsum(powers[u - 1] for u in users)
    return math.log2(1.0 + interference / channel.noise_vars[receiver - 1])


def assert_rank_values_are_fsum(channel: GaussianChannel) -> None:
    """Every rank value, summed in scaled ints, is hex-equal to ``fsum_rank``."""
    ranks = RankFunctionSet.for_channel(channel)
    for receiver in range(1, channel.num_users + 1):
        for mask in range(1 << channel.num_users):
            users = mask_users(mask)
            expected = fsum_rank(channel, receiver, users).hex()
            assert rank_value(ranks, receiver, users).hex() == expected


class TestGaussianGreedyMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(hard_gaussian_channels())
    def test_hard_channels(self, channel):
        assert_matches_loop(channel)

    @pytest.mark.parametrize("num_users", [32, 64])
    def test_generated_channels(self, num_users):
        assert_matches_loop(random_gaussian_channel(num_users, rng_from_seed(num_users)))

    def test_pinned_one_ulp_tie(self):
        strong = 1e20
        channel = GaussianChannel(
            np.array([[0.5, strong, math.nextafter(strong, math.inf)], [1.0] * 3, [1.0] * 3]),
            np.ones(3),
            np.ones(3),
        )
        assert_matches_loop(channel)

    def test_subnormal_next_to_huge_gain(self):
        # Rows spanning 1e15 down to a subnormal: their scaled ints pass 2**1023.
        channel = GaussianChannel(
            np.array([[5e-324, 1e15, 1.0], [1e-300, 3e-310, 1e15], [1.0] * 3]),
            np.ones(3),
            np.ones(3),
        )
        for ints, _, _ in channel._scaled_rows[:2]:
            assert sum(ints) >= 2**1023
        assert_matches_loop(channel)
        assert_drops_are_rank_values(channel)
        assert_rank_values_are_fsum(channel)

    def test_candidate_sum_lands_subnormal(self):
        # Tiny noise makes the subnormal sums left after dropping 1e-300 count.
        channel = GaussianChannel(
            np.array([[5e-324, 3e-310, 1e-300], [1e-310, 2e-310, 3e-310], [1.0] * 3]),
            np.ones(3),
            np.array([5e-324, 1e-320, 1.0]),
        )
        left = 5e-324 + 3e-310  # exact, below the least normal float
        assert left < sys.float_info.min
        assert channel.drop_values(1, 0b111)[3] == math.log2(1.0 + left / 5e-324)
        assert_matches_loop(channel)
        assert_drops_are_rank_values(channel)
        assert_rank_values_are_fsum(channel)

    def test_all_zero_gains(self):
        channel = GaussianChannel(
            np.array([[0.0, -0.0, 0.0], [1.0, 0.0, 2.0], [0.0] * 3]), np.ones(3), np.ones(3)
        )
        assert channel.drop_values(1, 0b111) == {1: 0.0, 2: 0.0, 3: 0.0}
        assert_matches_loop(channel)
        assert_drops_are_rank_values(channel)
        assert_rank_values_are_fsum(channel)

    @settings(max_examples=100, deadline=None)
    @given(hard_gaussian_channels(max_users=5), small_dmc_channels(), small_tabulated_ranks())
    def test_every_drop_value_is_the_rank_value(self, gaussian, dmc, tabulated):
        for channel in (gaussian, dmc, tabulated):
            assert_drops_are_rank_values(channel)
        assert_rank_values_are_fsum(gaussian)

    def test_power_sum_rounds_once(self):
        # Left to right, 1 + 2**-53 + 2**-53 rounds to 1.0 twice; the exact sum does not.
        gains = [[1.0, 2**-53, 2**-53], [1.0] * 3, [1.0] * 3]
        channel = GaussianChannel(gains, [1.0] * 3, [0.5, 1.0, 1.0])
        assert fsum_rank(channel, 1, {1, 2, 3}) != math.log2(1.0 + (1.0 + 2**-53 + 2**-53) / 0.5)
        assert_rank_values_are_fsum(channel)

    @pytest.mark.parametrize("num_users", range(1, 7))
    def test_generated_dmc_drop_values(self, num_users):
        for seed in range(2):
            assert_drops_are_rank_values(random_dmc_channel(num_users, rng_from_seed(seed)))

    def test_drop_values_range_checks(self, two_user_channel, xor_dmc_channel):
        tabulated = tabulated_from_values([(0.0, 0.5, 0.7, 1.0), (0.0, 0.1, 0.2, 0.3)])
        for channel in (two_user_channel, xor_dmc_channel, tabulated):
            for receiver, mask in ((0, 1), (3, 1), (1, -1), (1, 4)):
                with pytest.raises(IndexError):
                    channel.drop_values(receiver, mask)

    def test_one_rank_evaluation_per_slot(self, monkeypatch):
        """Each order reads its full set once through ``fairsic.greedy.rank_value``, one
        backend evaluation, and stores every slot's users-left value as its walk scores it."""
        calls = []
        inner = fairsic.greedy.rank_value

        def counting(ranks, receiver, users):
            users = frozenset(users)
            calls.append(users)
            return inner(ranks, receiver, users)

        evaluations = []

        def counting_rank(evaluate):
            def wrapped(channel, receiver, mask):
                evaluations.append(receiver)
                return evaluate(channel, receiver, mask)

            return wrapped

        monkeypatch.setattr(fairsic.greedy, "rank_value", counting)
        for backend in (GaussianChannel, DmcChannel, TabulatedRanks):
            monkeypatch.setattr(backend, "_rank", counting_rank(backend._rank))
        everyone = frozenset(range(1, 7))
        for kind in ("gaussian", "dmc", "tabulated-submodular"):
            channel = generate_channel(kind, 6, 5)
            ranks = RankFunctionSet.for_channel(channel)
            fresh = RankFunctionSet.for_channel(channel)
            for receiver in (3, 1, 2, 4, 5, 6):
                calls.clear()
                evaluations.clear()
                order = greedy_order(ranks, receiver, force=True)
                assert calls == [everyone]
                assert len(evaluations) <= 1
                mask = (1 << 6) - 1
                for chosen in decode_sequence(order):
                    mask ^= 1 << (chosen - 1)
                    expected = rank_value(fresh, receiver, mask_users(mask)).hex()
                    assert ranks._cache[(receiver, mask)].hex() == expected
        assert running_walks() == []


# Exact ties, ties one ulp apart, zeros, a subnormal and 600 decades of spread.
TIE_VALUES = (0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, 3.0, 1e300, 1e-300, 5e-324)
# Output pmfs a symmetric DMC draws its rows from: equal rows make candidates tie.
SYMMETRIC_ROWS = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.75), (0.1, 0.9))


@st.composite
def tie_heavy_gaussian_channels(draw, max_users=8):
    num_users = draw(st.integers(1, max_users))
    value = st.sampled_from(TIE_VALUES)
    gains = draw(st.lists(value, min_size=num_users**2, max_size=num_users**2))
    powers = draw(st.lists(value, min_size=num_users, max_size=num_users))
    noise = st.sampled_from(TIE_VALUES[1:])
    noise_vars = draw(st.lists(noise, min_size=num_users, max_size=num_users))
    try:
        return GaussianChannel(np.array(gains).reshape(num_users, num_users), powers, noise_vars)
    except ValidationError:  # a received power or its sum over the noise overflows
        assume(False)


@st.composite
def symmetric_dmc_channels(draw):
    """Binary inputs; each receiver's output law depends only on how many users
    send a 1, so candidates of a slot tie, exactly or within rounding."""
    num_users = draw(st.integers(1, 4))
    pmfs = [draw(st.sampled_from([(0.5, 0.5), (0.25, 0.75), (1.0, 0.0)]))] * num_users
    tables = []
    for _ in range(num_users):
        size = num_users + 1  # one output law per count of ones
        by_count = draw(st.lists(st.sampled_from(SYMMETRIC_ROWS), min_size=size, max_size=size))
        tables.append([by_count[bin(t).count("1")] for t in range(1 << num_users)])
    return DmcChannel(pmfs, tables)


@st.composite
def tied_tabulated_ranks(draw):
    num_users = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    tables = [draw(st.lists(value, min_size=1 << num_users, max_size=1 << num_users))
              for _ in range(num_users)]
    return TabulatedRanks(num_users, tuple(dict(enumerate(table)) for table in tables))


def assert_cheapest_is_least_drop(channel) -> None:
    """``cheapest_drops`` is ``drop_values``' minimum, hex-equal, and every user
    whose value equals it exactly, ascending, on every receiver and mask.  The
    backend's pruning holds: each ``_contenders`` value is hex-equal to
    ``drop_values``' for that user, and every tied least user is a contender."""
    for receiver in range(1, channel.num_users + 1):
        for mask in range(1, 1 << channel.num_users):
            values = channel.drop_values(receiver, mask)
            least = min(values.values())
            ties = [user for user, value in values.items() if value == least]
            best, tied = channel.cheapest_drops(receiver, mask)
            assert (best.hex(), tied) == (least.hex(), ties)
            contenders = channel._contenders(receiver, mask)
            assert set(ties) <= contenders.keys() <= values.keys()
            for user, value in contenders.items():
                assert value.hex() == values[user].hex()


class TestCheapestDrops:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_heavy_gaussian_channels())
    def test_tie_heavy_gaussian(self, channel):
        assert_cheapest_is_least_drop(channel)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(small_dmc_channels(), symmetric_dmc_channels()))
    def test_dmc(self, channel):
        assert_cheapest_is_least_drop(channel)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tied_tabulated_ranks())
    def test_tabulated(self, channel):
        assert_cheapest_is_least_drop(channel)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.one_of(
            tie_heavy_gaussian_channels(max_users=3), small_dmc_channels(), tied_tabulated_ranks()
        ),
        st.data(),
    )
    def test_out_of_range_raises_index_error(self, channel, data):
        num_users = channel.num_users
        receiver = data.draw(st.integers(-2, num_users + 2))
        mask = data.draw(st.integers(-4, (1 << num_users) + 4))
        assume(not (1 <= receiver <= num_users and 0 <= mask < 1 << num_users))
        with pytest.raises(IndexError):
            channel.cheapest_drops(receiver, mask)

    def test_xor_scenario(self):
        assert_cheapest_is_least_drop(load_scenario(SCENARIOS / "xor_dmc.json"))

    @pytest.mark.parametrize("num_users", [5, 6])
    def test_generated_dmc(self, num_users):
        for seed in range(2):
            assert_cheapest_is_least_drop(random_dmc_channel(num_users, rng_from_seed(seed)))

    @pytest.mark.parametrize("per_buffer", [1, 2, 3])
    def test_dmc_buffers_split_at_the_term_cap(self, per_buffer, monkeypatch):
        # 16 joint tuples x 2 outputs per candidate, as in the drop_values test.
        channel = random_dmc_channel(4, rng_from_seed(2))
        monkeypatch.setattr(fairsic.channels, "DEFAULT_DMC_TERM_CAP", 32 * per_buffer + 31)
        assert_cheapest_is_least_drop(channel)

    def test_gaussian_scan_scores_few_candidates(self, monkeypatch):
        ranks = RankFunctionSet.for_channel(random_gaussian_channel(32, rng_from_seed(32)))
        calls = []
        log2 = math.log2
        monkeypatch.setattr(math, "log2", lambda x: calls.append(x) or log2(x))
        order = greedy_order(ranks, 1)
        # Each slot scores its winner and at most a few runners-up, not every member.
        assert len(calls) <= 3 * len(decode_sequence(order))

    def test_dmc_prefilter_scores_few_candidates(self, monkeypatch):
        ranks = RankFunctionSet.for_channel(random_dmc_channel(6, rng_from_seed(1)))
        rows = []
        exact = fairsic.channels._exact

        def counting(kept, mass):
            rows.append(len(kept))
            return exact(kept, mass)

        monkeypatch.setattr(fairsic.channels, "_exact", counting)
        slots = sum(len(decode_sequence(greedy_order(ranks, j))) for j in range(1, 7))
        assert sum(rows) < 2 * slots


def largest_rank_move(channel, moved) -> float:
    """The largest change of any rank value between two channels of one K."""
    before, after = (RankFunctionSet.for_channel(c) for c in (channel, moved))
    return max(
        abs(rank_value(after, j, users) - rank_value(before, j, users))
        for j in range(1, channel.num_users + 1)
        for users in map(mask_users, range(1 << channel.num_users))
    )


class TestNearTies:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tie_heavy_gaussian_channels(max_users=6), st.data())
    def test_one_ulp_gain_move_keeps_min_rate(self, channel, data):
        num_users = channel.num_users
        row, column = (data.draw(st.integers(0, num_users - 1)) for _ in range(2))
        gains = [list(gain_row) for gain_row in channel.gains]
        direction = data.draw(st.sampled_from([-1.0, math.inf]))
        gains[row][column] = math.nextafter(gains[row][column], direction)
        try:
            moved = GaussianChannel(gains, channel.powers, channel.noise_vars)
        except ValidationError:  # a zero gain moved below zero, or a power overflows
            assume(False)
        before = greedy_profile(RankFunctionSet.for_channel(channel)).min_rate
        after = greedy_profile(RankFunctionSet.for_channel(moved)).min_rate
        # The order may flip where a tie breaks; the max-min value moves only as far
        # as the rank values let it, twice their move since a rate is a difference.
        # A normal received power moves one ulp, but a subnormal one rounds in
        # absolute steps: 0.5 x 5e-324 is 0 and one ulp more is 5e-324.
        bound = DEFAULT_AXIOM_TOL + 2 * largest_rank_move(channel, moved)
        assert abs(after - before) <= bound


def running_walks() -> list:
    """Every ``_walk`` generator that has started and not finished."""
    return [
        g
        for g in gc.get_objects()
        if isinstance(g, types.GeneratorType) and g.gi_code.co_name == "_walk" and g.gi_frame
    ]


def assert_walk_is_cheapest_drops(channel, removals=None) -> None:
    """Each receiver's ``_walk``, sent the greedy's own choices (or the users of
    ``removals``, in that order, down to the empty set), yields what
    ``cheapest_drops`` gives on the users left: the least value hex-equal, the
    ties the same and ascending."""
    ranks = RankFunctionSet.for_channel(channel)
    for receiver in range(1, channel.num_users + 1):
        sequence = removals or decode_sequence(greedy_order(ranks, receiver, force=True))
        walk, mask = channel._walk(receiver), (1 << channel.num_users) - 1
        best, tied = next(walk)
        for step, chosen in enumerate(sequence, start=1):
            least, ties = channel.cheapest_drops(receiver, mask)
            assert (best.hex(), tied) == (least.hex(), ties)
            if removals is None:  # the greedy's rule picks ``chosen`` from these ties
                assert chosen == next((c for c in tied if c != receiver), receiver)
            mask ^= 1 << (chosen - 1)
            if step < len(sequence) or removals:
                best, tied = walk.send(chosen)
        if removals:
            assert (best, tied) == (math.inf, []) == channel.cheapest_drops(receiver, 0)
        walk.close()


class TestGreedyWalk:
    @pytest.mark.parametrize("num_users", [1, 2, 8, 24])
    def test_generated_gaussian(self, num_users):
        for seed in range(3):
            assert_walk_is_cheapest_drops(generate_channel("gaussian", num_users, seed))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tie_heavy_gaussian_channels(max_users=6), st.data())
    def test_one_ulp_near_ties(self, channel, data):
        """``TestNearTies``' channels, before and after their one-ulp gain move."""
        assert_walk_is_cheapest_drops(channel)
        num_users = channel.num_users
        row, column = (data.draw(st.integers(0, num_users - 1)) for _ in range(2))
        gains = [list(gain_row) for gain_row in channel.gains]
        direction = data.draw(st.sampled_from([-1.0, math.inf]))
        gains[row][column] = math.nextafter(gains[row][column], direction)
        try:
            moved = GaussianChannel(gains, channel.powers, channel.noise_vars)
        except ValidationError:
            assume(False)
        assert_walk_is_cheapest_drops(moved)

    @pytest.mark.parametrize("num_users", range(1, 6))
    def test_generated_dmc(self, num_users):
        for seed in range(2):
            assert_walk_is_cheapest_drops(generate_channel("dmc", num_users, seed))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(small_dmc_channels(), symmetric_dmc_channels()))
    def test_drawn_dmc(self, channel):
        assert_walk_is_cheapest_drops(channel)

    @pytest.mark.parametrize("num_users", range(1, 7))
    def test_generated_tabulated_submodular(self, num_users):
        for seed in range(2):
            channel = generate_channel("tabulated-submodular", num_users, seed)
            assert_walk_is_cheapest_drops(channel)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(tie_heavy_gaussian_channels(max_users=6), tied_tabulated_ranks()), st.data())
    def test_any_removal_order_to_the_empty_set(self, channel, data):
        """Removals the greedy would not make, so the Gaussian start index meets
        removed users behind members, and the walk's last slot has no member."""
        users = list(range(1, channel.num_users + 1))
        assert_walk_is_cheapest_drops(channel, data.draw(st.permutations(users)))

    def test_out_of_range_receiver_raises_index_error(self, two_user_channel, xor_dmc_channel):
        tabulated = tabulated_from_values([(0.0, 0.5, 0.7, 1.0), (0.0, 0.1, 0.2, 0.3)])
        for channel in (two_user_channel, xor_dmc_channel, tabulated):
            for receiver in (0, 3):
                with pytest.raises(IndexError):
                    next(channel._walk(receiver))

    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    def test_profile_keeps_no_walk(self, kind):
        """A walk lives in its generator only: ``greedy_profile`` adds no attribute to
        the backend beyond its ``cached_property`` values, caches only int-keyed
        values, and leaves no walk running."""
        channel = generate_channel(kind, 6, 2)
        cached = {
            name
            for cls in type(channel).__mro__
            for name, value in vars(cls).items()
            if isinstance(value, cached_property)
        }
        before = set(vars(channel))
        ranks = RankFunctionSet.for_channel(channel)
        greedy_profile(ranks, force=True)
        assert set(vars(channel)) - before <= cached
        for value in vars(channel).values():
            assert not isinstance(value, types.GeneratorType)
            if isinstance(value, dict):  # the DMC caches: receivers and masks
                assert {type(key) for key in value} <= {int}
        assert {tuple(map(type, key)) for key in ranks._cache} == {(int, int)}
        assert {type(value) for value in ranks._cache.values()} == {float}
        assert running_walks() == []


def assert_memo_rates_are_fresh(channel) -> None:
    """``greedy_profile``'s rates, read from the values its greedy stored, are
    hex-equal to ``rate_vector`` on a fresh rank set, where every read misses."""
    report = greedy_profile(RankFunctionSet.for_channel(channel), force=True)
    fresh = rate_vector(RankFunctionSet.for_channel(channel), report.profile)
    assert [rate.hex() for rate in report.rates] == [rate.hex() for rate in fresh]


class TestRatesReadTheMemo:
    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    @pytest.mark.parametrize("num_users", range(1, 7))
    def test_generated(self, kind, num_users):
        for seed in range(2):
            assert_memo_rates_are_fresh(generate_channel(kind, num_users, seed))

    @pytest.mark.parametrize("num_users", [24, 64])
    def test_generated_gaussian_at_scale(self, num_users):
        assert_memo_rates_are_fresh(generate_channel("gaussian", num_users, 3))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(
            tie_heavy_gaussian_channels(), hard_gaussian_channels(), symmetric_dmc_channels()
        )
    )
    def test_drawn(self, channel):
        assert_memo_rates_are_fresh(channel)

    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    def test_one_evaluation_per_receiver(self, kind, monkeypatch):
        """The greedy reads each receiver's full set through ``fairsic.greedy.rank_value``
        and stores every slot, so the rates never call ``fairsic.rates.rank_value``."""
        calls = []
        for module in (fairsic.greedy, fairsic.rates):

            def counting(ranks, receiver, users, *, name=module.__name__, inner=module.rank_value):
                calls.append((name, receiver, frozenset(users)))
                return inner(ranks, receiver, users)

            monkeypatch.setattr(module, "rank_value", counting)
        everyone = frozenset(range(1, 7))
        greedy_profile(RankFunctionSet.for_channel(generate_channel(kind, 6, 4)))
        assert calls == [("fairsic.greedy", receiver, everyone) for receiver in range(1, 7)]


def assert_memo_is_the_profiles_prefixes(channel) -> None:
    """After ``greedy_profile`` on a fresh rank set the memo holds, per receiver,
    exactly the full set and every slot's users-left mask, each value hex-equal to
    ``rank_value`` on another fresh set; each order is its decode sequence's
    canonical one.  Where the rates refuse a table as not monotone, the memo the
    greedy left is checked."""
    num_users = channel.num_users
    orders = [
        greedy_order(RankFunctionSet.for_channel(channel), j, force=True)
        for j in range(1, num_users + 1)
    ]
    ranks = RankFunctionSet.for_channel(channel)
    try:
        assert greedy_profile(ranks, force=True).profile == DecodingProfile(orders)
    except NonRankInputError:  # raised by the rates, after every order is built
        pass
    expected = set()
    for order in orders:
        receiver = order.receiver
        sequence = decode_sequence(order)
        assert order == DecodingOrder.from_decode_sequence(receiver, sequence, num_users)
        mask = (1 << num_users) - 1
        expected.add((receiver, mask))
        for chosen in sequence:
            mask ^= 1 << (chosen - 1)
            expected.add((receiver, mask))
    assert set(ranks._cache) == expected
    fresh = RankFunctionSet.for_channel(channel)
    for (receiver, mask), value in ranks._cache.items():
        assert value.hex() == rank_value(fresh, receiver, mask_users(mask)).hex()


class TestMemoHoldsTheProfilesPrefixes:
    @pytest.mark.parametrize("kind", ["gaussian", "dmc", "tabulated-submodular"])
    @pytest.mark.parametrize("num_users", range(1, 7))
    def test_generated(self, kind, num_users):
        for seed in range(2):
            assert_memo_is_the_profiles_prefixes(generate_channel(kind, num_users, seed))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(
            tie_heavy_gaussian_channels(),
            hard_gaussian_channels(),
            symmetric_dmc_channels(),
            tied_tabulated_ranks(),
        )
    )
    def test_drawn(self, channel):
        assert_memo_is_the_profiles_prefixes(channel)
